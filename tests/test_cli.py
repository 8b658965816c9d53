import json

import pytest

from qhvb import cli


def test_default_config():
    cfg = cli.RunConfig()
    assert cfg.algebra == "sl2"
    assert cfg.theta == ()
    assert cfg.weights == (1,)
    assert cfg.n_max == 4
    assert cfg.coefficient_window == 10
    assert cfg.suites == cli.SUITES
    d = cfg.as_dict()
    assert d["samples"] == ["1/2", "2/3", "9/10"]
    assert d["coefficient_window"] == 10


def test_config_validation():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(algebra="gl3")
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(theta=(5,))
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(theta=(1,))  # suites are pinned to the empty subset
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(n_max=0)
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(samples=("3/2",))
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(samples=())
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(weights=())
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(suites=("nosuch",))
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(irrep=0)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "n_max = 2   # trailing comment\n"
        "seed = 5\n"
        "\n"
        "suites = haar pairing\n"
        "samples = 1/3 1/7\n")
    cfg = cli.build_config(cli.read_config_file(str(path)))
    assert cfg.n_max == 2
    assert cfg.seed == 5
    assert cfg.suites == ("pairing", "haar")  # canonical order
    assert [str(p) for p in cfg.samples] == ["1/3", "1/7"]
    # flag overrides beat the file
    cfg = cli.build_config(cli.read_config_file(str(path)),
                           seed=9, suites=["hopf"])
    assert cfg.seed == 9
    assert cfg.suites == ("hopf",)
    with pytest.raises(cli.ConfigError):
        cli.build_config({"bogus": "1"})
    with pytest.raises(cli.ConfigError):
        cli.read_config_file(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(cli.ConfigError):
        cli.read_config_file(str(bad))


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("algebra = gl3\n")
    rc = cli.main(["verify", "--config", str(path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_verify_reduced_suites(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "haar", "--suite", "borelweil",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    # the gcd cofactor cache statistics go to stderr, never the report
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("suite ")] != []
    stats = [line for line in err if line.startswith("gcd cofactor cache: ")]
    assert len(stats) == 1
    assert stats[0].endswith("/%d entries" % cli.scalars.CANCEL_CACHE_SIZE)
    assert "cache" not in out.read_text()
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 3
    assert report["config"]["suites"] == ["haar", "borelweil"]
    assert report["summary"] == {"pass": 5, "fail": 0, "skip": 0}
    for check in report["checks"]:
        assert check["status"] == "pass"
        assert check["suite"] in ("haar", "borelweil")
        assert check["anchor"]
        assert check["name"]


def test_verify_reports_are_byte_identical(tmp_path):
    args = ["verify", "--suite", "haar", "--suite", "hopf", "--seed", "21"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_small_window_skips_deep_checks(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text("n_max = 1\nsuites = idempotent hopf\n")
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--config", str(path), "--out", str(out)])
    assert rc == 1  # skipped checks are not passes
    report = json.loads(out.read_text())
    assert report["config"]["coefficient_window"] == 4
    by_suite = {}
    for check in report["checks"]:
        by_suite.setdefault(check["suite"], []).append(check)
    assert all(c["status"] == "pass" for c in by_suite["hopf"])
    for check in by_suite["idempotent"]:
        assert check["status"] == "skip"
        assert "window" in check["witness"]
    assert report["summary"]["fail"] == 0
    assert report["summary"]["skip"] == 4


def test_dims_command(tmp_path):
    out = tmp_path / "dims.json"
    rc = cli.main(["dims", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["omega_dims"] == {"0": 1, "1": 4, "2": 6, "3": 4,
                                     "4": 1, "5": 0}
    assert payload["restricted_dims"] == {"0": 4, "1": 12, "2": 32}
    assert payload["restricted_filtration"]["0"] == [1, 1, 4, 4]
    assert payload["ok"] is True


def test_idempotent_command(tmp_path):
    out = tmp_path / "idem.json"
    rc = cli.main(["idempotent", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["rank"] == payload["sections_dim"] == 6
    assert payload["matched_level"] == 4
    assert payload["idempotent_identity"] is True
    assert payload["ok"] is True
    matrix = payload["coefficient_matrix"]
    assert len(matrix) == 2 and len(matrix[0]) == 2
    assert "t[2;" in matrix[0][0]


def test_haar_command(tmp_path):
    from fractions import Fraction
    out = tmp_path / "haar.json"
    rc = cli.main(["haar", "--seed", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert len(payload["norms"]) == 20
    for row in payload["norms"]:
        assert set(row["values"]) == {"1/2", "2/3", "9/10"}
        for val in row["values"].values():
            assert Fraction(val) > 0


def test_connection_command(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n_max = 2\n")
    out = tmp_path / "conn.json"
    rc = cli.main(["connection", "--config", str(cfgfile),
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["bianchi"] == [True, True]
    assert payload["curvature_right_linear"] is True
    assert len(payload["partial_on_sections"]) == 2
    assert len(payload["curvature_on_generators"]) == 2
    # the curvature coefficients land in the frozen two-letter words
    for column in payload["curvature_on_generators"]:
        for component in column:
            assert set(component) <= {"(2,1)", "(3,2)"}


def test_bad_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["explode"])


@pytest.mark.parametrize("command", ["dims", "connection"])
def test_small_window_exits_2_with_one_line(tmp_path, capsys, command):
    # the level-6 products of these commands do not fit the n_max = 1
    # window; the overflow is reported, not raised as a traceback
    path = tmp_path / "small.cfg"
    path.write_text("n_max = 1\n")
    out = tmp_path / "out.json"
    rc = cli.main([command, "--config", str(path), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("LevelOverflow: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_unusable_out_path_exits_2_before_any_work(tmp_path, capsys, command):
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        rc = cli.main([command, "--suite", "hopf", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("output error: ")
        assert captured.err.count("\n") == 1  # no suite ran
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_emit_write_failure_is_an_output_error(tmp_path):
    with pytest.raises(cli.OutputError):
        cli._emit({"ok": True}, str(tmp_path / "missing" / "report.json"))
