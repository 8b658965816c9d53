import collections
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qhvb import (bundle, calculus, cli, coeff, connection, repmod, scalars,
                  uea)


def test_default_config():
    cfg = cli.RunConfig()
    assert cfg.weights == (1,)
    assert cfg.n_max == 4
    assert cfg.coefficient_window == 10
    assert cfg.suites == cli.SUITES
    d = cfg.as_dict()
    assert d["algebra"] == "sl2"
    assert d["theta"] == []
    assert d["samples"] == ["1/2", "2/3", "9/10"]
    assert d["coefficient_window"] == 10


def test_config_validation():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(n_max=0)
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
        "suites = haar pairing\n")
    cfg = cli.build_config(cli.read_config_file(str(path)))
    assert cfg.n_max == 2
    assert cfg.seed == 5
    assert cfg.suites == ("pairing", "haar")  # canonical order
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


def test_readme_keys_and_defaults_are_the_default_config(tmp_path):
    # the block README documents parses to the defaults of RunConfig
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("The keys and defaults:\n\n```\n", 1)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block.split("```", 1)[0])
    file_data = cli.read_config_file(str(path))
    assert len(file_data) == 5
    cfg = cli.build_config(file_data)
    assert cfg.as_dict() == cli.RunConfig().as_dict()


@pytest.mark.parametrize("line, message", [
    # algebra, theta and samples are constants of every report, not
    # keys: any value, a non-integer theta included, is an unknown key
    ("theta = a", "unknown config key 'theta'"),
    ("theta = 1 1.5", "unknown config key 'theta'"),
    ("theta =", "unknown config key 'theta'"),
    ("theta = 1", "unknown config key 'theta'"),
    ("algebra = sl2", "unknown config key 'algebra'"),
    ("algebra = gl3", "unknown config key 'algebra'"),
    ("weights = 1 x", "weights must be integers: '1 x'"),
    ("n_max = two", "n_max must be an integer: 'two'"),
    ("seed = 1.5", "seed must be an integer: '1.5'"),
    ("irrep = 1.0", "irrep must be an integer: '1.0'"),
    ("samples = 1/0", "unknown config key 'samples'"),
    ("samples = a", "unknown config key 'samples'"),
    ("samples = 1/2 2/3 9/10", "unknown config key 'samples'"),
    ("suites =", "empty suite selection"),
], ids=["a", "1 1.5", "theta-empty", "theta-1", "algebra-sl2",
        "algebra-gl3", "weights", "n_max", "seed", "irrep", "samples-1/0",
        "samples-a", "samples-fixed", "suites"])
def test_non_integer_theta_is_a_config_error(tmp_path, capsys, line,
                                             message):
    # and every other unknown key or config value of the wrong kind: one
    # line, exit 2, nothing written
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    out = tmp_path / "dims.json"
    rc = cli.main(["dims", "--config", str(path), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: " + message]
    assert captured.out == ""
    assert not out.exists()


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"weights = 1\n\xff\xfe bad\n")
    out = tmp_path / "haar.json"
    rc = cli.main(["haar", "--config", str(path), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "config error: cannot read config file: 'utf-8' codec can't decode "
        "byte 0xff in position 12: invalid start byte"]
    assert captured.out == ""
    assert not out.exists()


def test_verify_reduced_suites(tmp_path, capsys, cold_tables):
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
    stats = [line for line in err if line.startswith("primitive gcd cache: ")]
    assert len(stats) == 1
    assert re.fullmatch(r"primitive gcd cache: \d+ hits, \d+ misses, "
                        r"\d+/%d entries"
                        % cli.scalars.PRIMITIVE_GCD_CACHE_SIZE, stats[0])
    sums = [line for line in err if line.startswith("unreduced sums: ")]
    assert len(sums) == 1
    assert re.fullmatch(r"unreduced sums: \d+ finished, \d+ cancelled, "
                        r"\d+ denominator products, \d+ lcm pairs", sums[0])
    acts = [line for line in err if line.startswith("action matrix cache: ")]
    assert len(acts) == 1
    count = int(acts[0].split(": ")[1].split()[0])
    assert count == sum(len(m._acts) for m in cli.repmod._IRREPS.values())
    assert count > 0
    # the translations' memos: S^-1 x on the window Algebra, and the
    # cached action matrices circle has read by column
    memo = [line for line in err if line.startswith("translation cache: ")]
    assert len(memo) == 1
    match = re.fullmatch(r"translation cache: (\d+) inverse antipodes, "
                         r"(\d+) column-grouped action matrices", memo[0])
    assert match
    (algebra, _), = cli._SHARED.values()
    assert int(match[1]) == len(algebra._antipode_inv) > 0
    assert int(match[2]) == sum(
        mat.columns_grouped() for m in cli.repmod._IRREPS.values()
        for mat in m._acts.values()) > 0
    # the seed-free tables the process shares between runs
    shared = [line for line in err if line.startswith("shared tables: ")]
    assert len(shared) == 1
    match = re.fullmatch(r"shared tables: (\d+) windows, (\d+) idempotents, "
                         r"(\d+) section bases, (\d+) monomial matrices",
                         shared[0])
    assert match
    assert int(match[1]) == len(cli._SHARED) > 0
    # at least the borelweil suite's holomorphic sections
    assert int(match[3]) > 0
    assert int(match[4]) == sum(len(m._monos)
                                for m in cli.repmod._IRREPS.values()) > 0
    # neither suite builds a Calculus, and the memo is cold, so the
    # calculus cache lines read 0; the exterior ideal line is the last
    tables = [line for line in err if line.startswith("calculus table cache: ")]
    assert tables == ["calculus table cache: 0 product tables, 0 d tables"]
    ideal = [line for line in err if line.startswith("exterior ideal cache: ")]
    assert ideal == ["exterior ideal cache: 0 normal forms, 0 normal word "
                     "degrees, 0 echelons"] == err[-1:]
    assert "cache" not in out.read_text()
    assert "unreduced" not in out.read_text()
    assert "shared" not in out.read_text()
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


@pytest.mark.parametrize("weights, rank", [
    ("0 1", 10), ("0 2", 12), ("2 -1", 14), ("0 0 1", 14)])
def test_idempotent_command_at_mixed_block_weights(tmp_path, weights, rank):
    # the lines reach different levels N + |m|; the rank is the sum of
    # their section counts
    path = tmp_path / "mixed.cfg"
    path.write_text("weights = %s\n" % weights)
    out = tmp_path / "idem.json"
    assert cli.main(["idempotent", "--config", str(path),
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["rank"] == payload["sections_dim"] == rank
    assert payload["matched_level"] is None
    assert payload["ok"] is True


def test_haar_command(tmp_path):
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


@pytest.mark.parametrize("command, config, window", [
    ("dims", "n_max = 1\n", 4),
    ("connection", "n_max = 2\nweights = 2\n", 6)], ids=["dims", "connection"])
def test_small_window_exits_2_with_one_line(tmp_path, capsys, command, config,
                                            window):
    # the products of these commands do not fit the window; the overflow
    # is reported, not raised as a traceback
    path = tmp_path / "small.cfg"
    path.write_text(config)
    out = tmp_path / "out.json"
    rc = cli.main([command, "--config", str(path), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("LevelOverflow: ")
    assert "coefficient window %d" % window in captured.err
    assert "n_max=" not in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_weight_beyond_the_window_exits_2_before_any_solve(tmp_path, capsys):
    # the antipode of a level-40 coefficient overflows before its block
    # is solved, which at this level ran for minutes
    path = tmp_path / "heavy.cfg"
    path.write_text("weights = 40\n")
    out = tmp_path / "idem.json"
    t0 = time.perf_counter()
    rc = cli.main(["idempotent", "--config", str(path), "--out", str(out)])
    assert time.perf_counter() - t0 < 5
    assert rc == 2
    assert capsys.readouterr().err == (
        "LevelOverflow: product needs level 40 beyond the coefficient "
        "window 10\n")
    assert not out.exists()


def test_weight_far_beyond_the_window_exits_2_before_the_domain(tmp_path,
                                                                capsys):
    # the summand of weight 10^7 overflows before the idempotent lists
    # its dim_w x |E_q| domain pairs, whose memory grew with the weight
    path = tmp_path / "huge.cfg"
    path.write_text("weights = 10000000\n")
    out = tmp_path / "idem.json"
    t0 = time.perf_counter()
    rc = cli.main(["idempotent", "--config", str(path), "--out", str(out)])
    assert time.perf_counter() - t0 < 5
    assert rc == 2
    assert capsys.readouterr().err == (
        "LevelOverflow: product needs level 10000000 beyond the coefficient "
        "window 10\n")
    assert not out.exists()


@pytest.mark.parametrize("command, irrep, degree, words", [
    ("dims", 2, 10, "9^10 = 3486784401"),
    ("dims", 3, 17, "16^17"),
    ("connection", 3, 3, "16^3 = 4096"),
    ("connection", 10 ** 6, 3, "1000002000001^3"),
])
def test_word_space_cap_exits_2_before_the_calculus(tmp_path, capsys, command,
                                                    irrep, degree, words):
    # these configurations ran for minutes with no output; the cap turns
    # them into one line on stderr before any calculus is built
    path = tmp_path / "big.cfg"
    path.write_text("irrep = %d\n" % irrep)
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    rc = cli.main([command, "--config", str(path), "--out", str(out)])
    assert time.perf_counter() - t0 < 1
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: %s at irrep = %d builds degree-%d forms on %s words, "
        "above the word-space cap %d\n"
        % (command, irrep, degree, words, cli.WORD_SPACE_CAP))
    assert cli.WORD_SPACE_CAP == 4 ** 5  # the degree-5 space of dims at irrep = 1
    assert not out.exists()


def test_verify_word_space_cap_exits_2_before_any_suite(tmp_path, capsys):
    # forms-top-degree builds degree K + 1 = 10 forms at irrep = 2
    path = tmp_path / "big.cfg"
    path.write_text("irrep = 2\n")
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    rc = cli.main(["verify", "--suite", "hopf", "--suite", "calculus",
                   "--config", str(path), "--out", str(out)])
    assert time.perf_counter() - t0 < 1
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: verify suite calculus at irrep = 2 builds degree-10 "
        "forms on 9^10 = 3486784401 words, above the word-space cap %d\n"
        % cli.WORD_SPACE_CAP)
    assert not out.exists()
    # a suite that builds no forms still runs at irrep = 2
    assert cli.main(["verify", "--suite", "hopf", "--config", str(path),
                     "--out", str(out)]) == 0


def _break_section_times(monkeypatch):
    times = bundle.Section.times
    monkeypatch.setattr(bundle.Section, "times",
                        lambda self, a: times(self, a).scale(2))


def _break_nabla0(monkeypatch):
    # 2.(nabla0 + A) breaks the law of every connection, nabla0 included,
    # and keeps their differences right-linear
    apply = connection.ConnectionMap.apply
    monkeypatch.setattr(connection.ConnectionMap, "apply",
                        lambda self, vec: [w.scale(2)
                                           for w in apply(self, vec)])


def _break_curvature_hat(monkeypatch):
    # F-hat with F(zeta_0) doubled; at the default config both sides of
    # the Bianchi identity vanish, so scaling all of F-hat would not show
    def hat(self, vec):
        doubled = [w.scale(2) for w in self.on_generators[0]]
        return self.conn.tss.extend([doubled] + self.on_generators[1:], vec)
    monkeypatch.setattr(connection.CurvatureMap, "hat", hat)


def _break_calculus(monkeypatch):
    # d as the ungraded commutator with theta (wrong on odd forms), and
    # translations scaled by degree + 1
    dot = calculus.Calculus.dot_on_forms
    monkeypatch.setattr(calculus.Calculus, "d", lambda self, w:
                        self.multiply(self.theta(), w)
                        - self.multiply(w, self.theta()))
    monkeypatch.setattr(calculus.Calculus, "dot_on_forms", lambda self, x, w:
                        dot(self, x, w).scale(w.degree + 1))


def _break_circle(monkeypatch):
    circle = coeff.Algebra.circle
    monkeypatch.setattr(coeff.Algebra, "circle",
                        lambda self, x, f: circle(self, x, f).scale(2))


def _break_haar(monkeypatch):
    # h also reads the coefficient of t[1;0,0]: h(1) = 1 still, and the
    # squared norms at seed 0 stay positive, but h is not invariant
    haar = coeff.Algebra.haar
    monkeypatch.setattr(coeff.Algebra, "haar", lambda self, f:
                        haar(self, f) + f.terms.get((1, 0, 0), scalars.ZERO))


def _break_uq_counit(monkeypatch):
    counit = uea.counit
    monkeypatch.setattr(uea, "counit", lambda x: counit(x) * 2)


def _break_tq_counit(monkeypatch):
    counit = coeff.Algebra.counit
    monkeypatch.setattr(coeff.Algebra, "counit",
                        lambda self, f: counit(self, f) * 2)


def _break_closure(monkeypatch):
    # d(w) + theta w: the images of the restricted forms leave the span
    d = calculus.Calculus.d
    monkeypatch.setattr(calculus.Calculus, "d", lambda self, w:
                        d(self, w) + self.multiply(self.theta(), w))


def _break_wp(monkeypatch):
    wp = bundle.wp
    monkeypatch.setattr(bundle, "wp", lambda algebra, completion, element:
                        wp(algebra, completion, element).scale(2))


def _break_circle_presented(monkeypatch):
    circle = calculus.Restriction.circle_presented
    monkeypatch.setattr(calculus.Restriction, "circle_presented",
                        lambda self, p, combo: circle(self, p, combo).scale(2))


def _break_projection(monkeypatch):
    # the wp product S(t_{j0}) t[0;0,0] of beta = 0 doubled on forms of
    # positive degree: project is no longer left multiplication by e, and
    # no longer commutes with right multiplication.  Degree-0 vectors,
    # the generators of the e^2 = e certificate among them, are left alone
    project = connection.TensoredSectionSpace.project

    def doubled(self, vec):
        psi = vec[0]
        if self.degree_of(vec) == 0:
            return project(self, vec)
        return project(self, [psi + psi._new({
            (word, key): s for (word, key), s in psi.terms.items()
            if key == (0, 0, 0)})] + vec[1:])
    monkeypatch.setattr(connection.TensoredSectionSpace, "project", doubled)


def _break_lambda_side(monkeypatch):
    # apply lets Lambda act from the right, e . (d psi + psi Lambda),
    # while the certified perturbation keeps it on the left: the law
    # fails, and the difference e . psi (Lambda1 - Lambda2) of two such
    # maps is not right-linear
    apply = connection.ConnectionMap.apply

    def right_acting(self, vec):
        tss, calc = self.tss, self.tss.calc
        out = apply(connection.ConnectionMap(tss), vec)
        if self.columns is None:
            return out
        zero = calc.zero(tss.degree_of(vec) + 1)
        return tss.add(out, tss.project([
            sum((calc.multiply(psi, column[gamma])
                 for psi, column in zip(vec, self.columns)), zero)
            for gamma in range(tss.dim_w)]))
    monkeypatch.setattr(connection.ConnectionMap, "apply", right_acting)


def _double_d(monkeypatch):
    # 2 d is a derivation, so the law of nabla0, whose right side reads
    # the same d, holds; the perturbed law adds zeta (x) da through d0,
    # which stays whole.  That law reads only values the section space
    # and each map keep, so from cold tables they carry the mutant
    d = calculus.Calculus.d
    monkeypatch.setattr(calculus.Calculus, "d",
                        lambda self, w: d(self, w).scale(2))


def _double_project(monkeypatch):
    # 2 e . (d + Lambda): A = 2 e . Lambda passes its certificate, so the
    # perturbed law fails on the cached images, not on NotLinear.  e is
    # left whole on degree-0 vectors, which the e^2 = e certificate reads
    project = connection.TensoredSectionSpace.project
    monkeypatch.setattr(connection.TensoredSectionSpace, "project",
                        lambda self, vec: [
                            w if w.degree == 0 else w.scale(2)
                            for w in project(self, vec)])


def _double_degree_zero_projection(monkeypatch):
    # coordinate 0 of e psi doubled on degree-0 vectors only: the
    # connections never project one, but e^2 = e fails on the generators
    # when each TensoredSectionSpace is built
    project = connection.TensoredSectionSpace.project

    def doubled(self, vec):
        out = project(self, vec)
        if self.degree_of(vec) == 0:
            out[0] = out[0].scale(2)
        return out
    monkeypatch.setattr(connection.TensoredSectionSpace, "project", doubled)


def _drop_level_zero_sections(monkeypatch):
    # the section solver loses its level-0 block: the invariants lose the
    # unit, and the restricted complex is no longer closed under d
    sections_basis = bundle.sections_basis
    monkeypatch.setattr(bundle, "sections_basis",
                        lambda algebra, weights, N: [
                            s for s in sections_basis(algebra, weights, N)
                            if s.level > 0])


# (suites, mutant, the anchors it fails with a residual of forms)
RESIDUAL_MUTANTS = [
    ("projection", _break_section_times, ["projection-right-linear"]),
    ("connection", _break_nabla0,
     ["connection-law-nabla0", "connection-law-perturbed"]),
    ("calculus", _break_calculus,
     ["d-squared-zero", "graded-leibniz", "translation-equivariance"]),
    ("actions", _break_circle, ["actions-commute", "circle-module-algebra"]),
    ("curvature", _break_section_times, ["curvature-right-linear"]),
    ("curvature", _break_curvature_hat, ["bianchi-operator-identity"]),
    ("hopf", _break_uq_counit, ["uq-antipode", "uq-counit"]),
    ("hopf", _break_tq_counit, ["tq-antipode", "tq-counit"]),
    ("closure", _break_closure, ["d-closure-degree-0", "d-closure-degree-1"]),
    ("projection", _break_wp, ["projection-retraction"]),
    ("closure", _break_circle_presented, ["levi-epsilon-triviality"]),
    ("curvature", _break_calculus,
     ["bianchi-operator-identity", "curvature-right-linear",
      "curvature-trivial-flat"]),
    ("haar", _break_haar, ["haar-invariance"]),
    ("curvature", _break_projection,
     ["bianchi-operator-identity", "curvature-right-linear"]),
    ("connection", _break_lambda_side,
     ["connection-difference-linear", "connection-law-perturbed"]),
    ("closure", _drop_level_zero_sections,
     ["d-closure-degree-0", "d-closure-degree-1"]),
    ("connection", _double_d, ["connection-law-perturbed"]),
    ("connection", _double_project,
     ["connection-law-nabla0", "connection-law-perturbed"]),
    ("connection curvature", _double_degree_zero_projection,
     ["bianchi-operator-identity", "connection-difference-linear",
      "connection-law-nabla0", "connection-law-perturbed",
      "curvature-right-linear", "curvature-trivial-flat"]),
]


def _verify_mutant(tmp_path, suite, cold_tables):
    """The checks of a failing `verify` run over the space-separated
    suites, on the empty memo of the cold_tables fixture: a table warm
    from an earlier run would hide the mutant."""
    out = tmp_path / "report.json"
    args = ["verify", "--out", str(out)]
    for name in suite.split():
        args += ["--suite", name]
    assert cli.main(args) == 1
    assert list(cold_tables) == [cli.RunConfig().coefficient_window]
    return json.loads(out.read_text())["checks"]


@pytest.mark.parametrize("suite, breaker, failing", RESIDUAL_MUTANTS)
def test_failing_check_names_its_residual(tmp_path, monkeypatch, cold_tables,
                                          suite, breaker, failing):
    breaker(monkeypatch)
    checks = _verify_mutant(tmp_path, suite, cold_tables)
    fails = {c["anchor"]: c["witness"] for c in checks
             if c["status"] == "fail"}
    assert sorted(fails) == failing
    for witness in fails.values():
        assert "residual" in witness and "nonzero" in witness
        if set(suite.split()) <= {"connection", "curvature"}:
            assert ": coordinate " in witness


def test_broken_projection_fails_the_connection_laws(tmp_path, monkeypatch,
                                                     cold_tables):
    # the doubled wp product breaks the law of nabla0, and the certificate of
    # E_00 theta rejects the seeded perturbations before their law and
    # difference checks compare anything
    _break_projection(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "connection", "--out",
                     str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    fails = {c["anchor"]: c["witness"] for c in checks
             if c["status"] == "fail"}
    assert sorted(fails) == ["connection-difference-linear",
                             "connection-law-nabla0",
                             "connection-law-perturbed"]
    assert ": coordinate " in fails["connection-law-nabla0"]
    assert "residual" in fails["connection-law-nabla0"]
    for anchor in ("connection-difference-linear", "connection-law-perturbed"):
        assert fails[anchor].startswith(
            "NotLinear: Lambda basis entry (0, 0): basis section 0, ")


def test_idempotent_certificate_names_generator_coordinate_and_residual(
        monkeypatch):
    _double_degree_zero_projection(monkeypatch)
    calc = calculus.Calculus(coeff.Algebra(4),
                             calculus.from_rep(repmod.irrep(1)))
    with pytest.raises(AssertionError) as info:
        connection.TensoredSectionSpace(calc, (1,), 1)
    assert str(info.value) == (
        "e^2 != e on generator 0: coordinate 0: residual ((), (0, 0, 0)) "
        "-> (u^8)/(u^8 + 1) (2 nonzero entries)")


def _wrong_line_completion(monkeypatch):
    # line r included as w_j with j = (n + m)/2, the vector of weight -m
    # in place of m: wp no longer lands in the sections, which every
    # bundle suite reads, through e or through its generators; the
    # trivial line keeps j = 0
    def summand(self, r):
        n = self.blocks[r]
        return n, self.offsets[r], (n + self.weights[r]) // 2
    monkeypatch.setattr(bundle.Completion, "summand", summand)


def _double_haar(monkeypatch):
    # h(f) doubled: still invariant, and the squared norms still positive
    haar = coeff.Algebra.haar
    monkeypatch.setattr(coeff.Algebra, "haar",
                        lambda self, f: haar(self, f) * 2)


def _negate_star(monkeypatch):
    # f* negated: h(f* f) changes sign, and h(1) and invariance stay; in
    # the hopf suite the star stays involutive but leaves the coproduct
    star = coeff.Algebra.star
    monkeypatch.setattr(coeff.Algebra, "star",
                        lambda self, f: star(self, f).scale(-1))


def _drop_holomorphic_constraint(monkeypatch):
    # holomorphic sections without the constraint of the raising
    # generator e: every section of the line up to the level
    monkeypatch.setattr(bundle, "holomorphic_sections", bundle.sections_basis)


def _forget_section_rows(monkeypatch):
    # im reads each section leg t[n;i,j] as t[n;0,j], so sections that
    # differ only in their Peter-Weyl row share one image
    im = bundle.im

    def collapsed(algebra, completion, section):
        terms = {}
        for (r, (n, i, j)), s in section.terms.items():
            scalars.accumulate(terms, (r, (n, 0, j)), s)
        return im(algebra, completion, section._new(terms))
    monkeypatch.setattr(bundle, "im", collapsed)


def _drop_last_section_of_each_level(monkeypatch):
    # the section basis loses the last section of every level block: the
    # sections left stay independent and the invariants (the trivial
    # line's sections) lose the unit and one level-2 element
    sections_basis = bundle.sections_basis

    def short(algebra, weights, N):
        levels = {}
        for s in sections_basis(algebra, weights, N):
            levels.setdefault(s.level, []).append(s)
        return [s for level in levels.values() for s in level[:-1]]
    monkeypatch.setattr(bundle, "sections_basis", short)


def _drop_top_section_level(monkeypatch):
    # the section solver stops one level short of N: at the default
    # weight 1 the connection's space, at level 1, holds no section, and
    # the trivial bundle at level 2 only the unit
    sections_basis = bundle.sections_basis
    monkeypatch.setattr(bundle, "sections_basis",
                        lambda algebra, weights, N: sections_basis(
                            algebra, weights, N - 1))


def _break_uq_coassociativity(monkeypatch):
    # D(k) gains g (x) g^2 + g^2 (x) g with g = k - k^-1: the counit kills
    # either leg (eps g = 0), both antipode contractions cancel (S g = -g)
    # and g* = g keeps it star-compatible, so only coassociativity, which
    # reads the coproducts of the legs, sees it
    g = uea.K - uea.K_INV
    extra = uea.tensor(g, g * g) + uea.tensor(g * g, g)
    coproduct = uea.coproduct
    monkeypatch.setattr(uea, "coproduct", lambda x: coproduct(x) + extra.scale(
        x.terms.get((0, 1, 0), scalars.ZERO)))


def _break_tq_coassociativity(monkeypatch):
    # the same term in T_q: g = t[1;0,0] - t[1;1,1] has eps g = 0,
    # S g = -g and g* = -g, so D(t[1;0,0]) gains g (x) g^2 + g^2 (x) g and
    # D(t[1;1,1]), the star of t[1;0,0], loses it
    g = coeff.basis_element(1, 0, 0) - coeff.basis_element(1, 1, 1)
    g2 = coeff.Algebra(2).multiply(g, g)
    extra = coeff.CoeffTensor({(l, r): s * t for x, y in ((g, g2), (g2, g))
                               for l, s in x.terms.items()
                               for r, t in y.terms.items()})
    coproduct = coeff.Algebra.coproduct
    monkeypatch.setattr(coeff.Algebra, "coproduct", lambda self, f: coproduct(
        self, f) + extra.scale(f.terms.get((1, 0, 0), scalars.ZERO)
                               - f.terms.get((1, 1, 1), scalars.ZERO)))


def _invert_k_under_star(monkeypatch):
    # the star of U_q with k* = k^-1 instead of k: still an involution,
    # but not compatible with the coproduct; the star of T_q no longer
    # pairs with it, <f*, x> != conj <f, (S x)*>
    monkeypatch.setattr(uea, "star", lambda x: uea.UEAElement(
        {(c, -b, a): s.conj() for (a, b, c), s in x.terms.items()}))


def _keep_first_class_monomial(monkeypatch):
    # each class of the pairing tables keeps only the first monomial of
    # its family: the level-1 table's class d = 0 has three columns and
    # one row
    monomials = coeff._class_monomials
    monkeypatch.setattr(coeff, "_class_monomials",
                        lambda d, N: monomials(d, N)[:1])


def _double_theta_c1(monkeypatch):
    # c_1 of the Theta series doubled: the L-operators read it, and the
    # adjoint action they define no longer keeps the tangent space
    theta_coefficient = repmod.theta_coefficient
    monkeypatch.setattr(repmod, "theta_coefficient", lambda n:
                        theta_coefficient(n) * (2 if n == 1 else 1))


def _drop_last_kernel_vector(monkeypatch):
    # the exterior ideal loses the last vector of ker sigma_-: one
    # quadratic relation too few, so forms survive above the top degree
    kernel_vectors = calculus.Calculus._kernel_vectors
    monkeypatch.setattr(calculus.Calculus, "_kernel_vectors",
                        lambda self: kernel_vectors(self)[:-1])


def _double_braiding(monkeypatch):
    # sigma doubled: its eigenvalues are no longer signed powers of u, so
    # no candidate has an eigenvector (sigma u^4 would pass every check,
    # since only ker sigma_- and sigma at u = 1 are read)
    braiding_matrix = calculus._braiding_matrix
    monkeypatch.setattr(calculus, "_braiding_matrix",
                        lambda wc, F: braiding_matrix(wc, F).scale(2))


_TANGENT_SPAN = "AxiomViolation: adjoint image leaves the tangent span"
_SPLIT = ("SplitError: multiplicity block is not diagonalizable over the "
          "signed powers of u (eigenspaces span 0 of 2)")
_CALCULUS_ANCHORS = ["braiding-classical-limit", "braiding-projectors",
                     "d-squared-zero", "forms-top-degree", "graded-leibniz",
                     "structure-functionals", "translation-equivariance",
                     "d-closure-degree-0", "d-closure-degree-1",
                     "levi-epsilon-triviality"]
_E_SQUARED = "AssertionError: e^2 != e on column (0, 1)"
_NO_SECTIONS = ("AssertionError: section count up to level 1: 0 != "
                "weight-multiplicity count 2")

# (suites, mutant, {anchor: witness} of every check it does not pass)
WITNESS_MUTANTS = [
    ("haar", _double_haar,
     {"haar-unit": "normalization h(1) = 1 fails: 2 != 1"}),
    ("haar", _negate_star,
     {"haar-positivity": "norm not positive at u0=1/2"}),
    ("borelweil", _drop_holomorphic_constraint,
     {"borel-weil-dimension": "holomorphic sections dimension: 6 != 2",
      "borel-weil-irreducible": "highest weights of the translation "
                                "module: [3, 1] != [1]"}),
    ("projection", _forget_section_rows,
     {"projection-retraction": "retraction fails on basis section 1: "
                               "residual (0, (1, 0, 1)) -> 1 "
                               "(2 nonzero entries)",
      "inclusion-injective": "inclusion image is rank deficient at basis "
                             "section 1",
      "projection-right-linear": "inclusion not right-linear on sample 2: "
                                 "residual (0, (2, 0, 1)) -> "
                                 "(-u^30 - u^22)/(u^32 + u^24 + 2*u^16 "
                                 "+ u^8 + 1) (7 nonzero entries)"}),
    ("projection", _drop_last_section_of_each_level,
     {"projection-surjective": "section 3 escapes the projection image: "
                               "residual (0, (3, 2, 2)) -> 1 "
                               "(1 nonzero entry)"}),
    ("hopf", _break_uq_coassociativity,
     {"uq-coassociativity": "coassociativity fails on (0, -1, 2) = "
                            "k^-1 e^2: residual ((0, -1, 2), (0, -2, 0), "
                            "(0, -1, 0)) -> 1 (12 nonzero entries)"}),
    ("hopf", _invert_k_under_star,
     {"uq-star": "star incompatible with the coproduct on (0, -3, 1) = "
                 "k^-3 e: residual ((0, 2, 0), (1, 3, 0)) -> 1 "
                 "(4 nonzero entries)",
      "tq-star": "star pairing identity fails on (1, 0, 0) = t[1;0,0]: "
                 "residual (0, -2, 0) -> (u^8 - 1)/(u^4) "
                 "(5 nonzero entries)"}),
    ("hopf", _break_tq_coassociativity,
     {"tq-coassociativity": "coassociativity fails on (1, 0, 0) = "
                            "t[1;0,0]: residual ((0, 0, 0), (0, 0, 0), "
                            "(1, 0, 0)) -> -3 (128 nonzero entries)"}),
    ("hopf", _negate_star,
     {"tq-star": "star incompatible with the coproduct on (0, 0, 0) = 1: "
                 "residual ((0, 0, 0), (0, 0, 0)) -> -2 "
                 "(1 nonzero entry)"}),
    ("calculus closure", _double_theta_c1,
     dict.fromkeys(_CALCULUS_ANCHORS, _TANGENT_SPAN)),
    ("calculus closure", _drop_last_kernel_vector,
     {"d-squared-zero": "d^2 != 0 on sample 1: residual ((3, 3), (1, 1, 1)) "
                        "-> (u^8 - 1)/(u^8) (1 nonzero entry)",
      "forms-top-degree": "dim of the degree-5 forms: 2 != 0",
      "graded-leibniz": "product rule fails on sample 1: residual ((3, 3), "
                        "(0, 0, 0)) -> (-12*u^32 + 24*u^24 - 24*u^16 "
                        "+ 24*u^8 - 12)/(u^12 + u^4) (3 nonzero entries)",
      "d-closure-degree-1": "d image escapes the restricted span in degree 1 "
                            "on basis entry 3: residual ((3, 3), (4, 0, 2)) "
                            "-> (u^48 - 2*u^40 + u^32 + 2*u^24 - 3*u^16 "
                            "+ 1)/(u^16) (1 nonzero entry)"}),
    ("calculus closure", _double_braiding,
     dict.fromkeys([a for a in _CALCULUS_ANCHORS
                    if a != "structure-functionals"], _SPLIT)),
    ("pairing", _keep_first_class_monomial,
     {"pairing-nondegenerate": "AssertionError: pairing table rank "
                               "deficiency in class d=0 (rank 1 of 3)"}),
    ("idempotent", _break_wp,
     dict.fromkeys(["idempotent-squared-v1", "idempotent-rank-v1",
                    "idempotent-squared-v1m1", "idempotent-rank-v1m1"],
                   _E_SQUARED)),
    ("connection curvature", _drop_top_section_level,
     dict(dict.fromkeys(["connection-law-nabla0", "connection-law-perturbed",
                         "connection-difference-linear",
                         "curvature-right-linear",
                         "bianchi-operator-identity"], _NO_SECTIONS),
          **{"curvature-trivial-flat": "AssertionError: section count up "
                                       "to level 2: 1 != weight-multiplicity "
                                       "count 4"})),
    ("projection", _drop_top_section_level,
     {"projection-surjective": "section count up to level 3: 2 != 6"}),
    ("connection curvature idempotent projection", _wrong_line_completion,
     dict.fromkeys(["connection-law-nabla0", "connection-law-perturbed",
                    "connection-difference-linear", "curvature-right-linear",
                    "bianchi-operator-identity", "idempotent-squared-v1",
                    "idempotent-rank-v1", "idempotent-squared-v1m1",
                    "idempotent-rank-v1m1", "projection-surjective",
                    "projection-right-linear"],
                   "AssertionError: components violate the section "
                   "constraint")),
]


@pytest.mark.parametrize("suite, breaker, witnesses", WITNESS_MUTANTS, ids=[
    "haar-unit", "haar-positivity", "borel-weil", "inclusion-injective",
    "projection-surjective", "uq-coassociativity", "uq-star",
    "tq-coassociativity", "tq-star", "structure-functionals",
    "forms-top-degree", "braiding", "pairing-nondegenerate", "idempotent",
    "section-count", "projection-section-count", "wrong-line-completion"])
def test_mutant_fails_exactly_its_anchors(tmp_path, monkeypatch, cold_tables,
                                          suite, breaker, witnesses):
    # exact witnesses, most of them not residuals of forms
    breaker(monkeypatch)
    checks = _verify_mutant(tmp_path, suite, cold_tables)
    assert {c["anchor"]: c["witness"] for c in checks
            if c["status"] != "pass"} == witnesses


def test_mutant_tables_cover_every_anchor(verify_reports):
    # every check of the default report has a mutant that fails it
    declared = {anchor for _, _, failing in RESIDUAL_MUTANTS
                for anchor in failing}
    declared |= {anchor for _, _, witnesses in WITNESS_MUTANTS
                 for anchor in witnesses}
    anchors = {c["anchor"] for suite in cli.SUITES
               for c in verify_reports.checks(suite)}
    assert len(anchors) == 40
    assert declared == anchors


def _checked(fn):
    checks = []
    cli._check(checks, "suite", "anchor", "name", fn)
    line, = checks
    assert (line["suite"], line["anchor"], line["name"]) == (
        "suite", "anchor", "name")
    return line["status"], line.get("witness")


def test_check_compares_each_kind_of_value():
    one = scalars.Scalar(1)
    f = coeff.basis_element(1, 0, 1)
    w = calculus.FormElement(1, {((0,), (1, 0, 1)): one})
    m = scalars.Matrix.identity(2)
    assert _checked(lambda: None) == ("pass", None)
    assert _checked(lambda: iter([("x", f, f), ("v", [w, w], [w, w]),
                                  ("m", m, m), ("n", 3, 3)])) == ("pass", None)
    assert _checked(lambda: iter([("sample 4", f.scale(2), f)])) == (
        "fail", "sample 4: residual (1, 0, 1) -> 1 (1 nonzero entry)")
    assert _checked(lambda: iter([("vec", [w, w], [w, w.scale(3)])])) == (
        "fail", "vec: coordinate 1: residual ((0,), (1, 0, 1)) -> -2 "
        "(1 nonzero entry)")
    assert _checked(lambda: iter([("mat", m, m.scale(one + one))])) == (
        "fail", "mat: residual (0, 0) -> -1 (2 nonzero entries)")
    assert _checked(lambda: iter([("rank", 3, 4)])) == (
        "fail", "rank: 3 != 4")
    assert _checked(lambda: iter(["not positive"])) == (
        "fail", "not positive")


def test_residual_names_the_kinds_of_equal_terms():
    # unequal values whose difference has no terms: two kinds of
    # LinComb, or two sections over different weight lists
    one = {(0, 0, 0): scalars.ONE}
    assert cli._residual(scalars.LinComb(one), coeff.CoeffElement(one)) == (
        "equal terms, but LinComb != CoeffElement")
    algebra = coeff.Algebra(2)
    unit = {(0, (0, 0, 0)): scalars.ONE}
    trivial = bundle.Section(algebra, (0,), unit)
    doubled = bundle.Section(algebra, (0, 0), unit)
    assert cli._residual(trivial, doubled) == (
        "equal terms, but Section over weights [0] != Section over weights "
        "[0, 0]")
    assert _checked(lambda: iter([("section", trivial, doubled)])) == (
        "fail", "section: equal terms, but Section over weights [0] != "
        "Section over weights [0, 0]")


def test_check_stops_at_the_first_failure():
    seen = []

    def comparisons():
        for k in range(5):
            seen.append(k)
            yield "sample %d" % k, k, min(k, 2)

    assert _checked(comparisons) == ("fail", "sample 3: 3 != 2")
    assert seen == [0, 1, 2, 3]


def test_check_skips_and_fails_on_raised_errors():
    def raising(exc):
        def fn():
            raise exc
        return fn

    assert _checked(raising(coeff.LevelOverflow("beyond the window"))) == (
        "skip", "beyond the window")
    assert _checked(raising(connection.NoSections("no section"))) == (
        "skip", "no section")
    assert _checked(raising(AssertionError("e^2 != e"))) == (
        "fail", "AssertionError: e^2 != e")

    def overflow_after_one():
        yield "first", 1, 1
        raise coeff.LevelOverflow("partway")

    # an error partway through the comparisons counts the same
    assert _checked(overflow_after_one) == ("skip", "partway")


def _failures(out):
    return {c["anchor"]: c["witness"]
            for c in json.loads(out.read_text())["checks"]
            if c["status"] == "fail"}


def _count_ranks(monkeypatch):
    """The list that gets one entry per exact Matrix.rank call."""
    calls = []
    rank = scalars.Matrix.rank
    monkeypatch.setattr(scalars.Matrix, "rank",
                        lambda self: calls.append(1) or rank(self))
    return calls


def test_pairing_tables_certify_without_exact_ranks(tmp_path, monkeypatch,
                                                   cold_tables):
    # every class of the tables up to level 4 has full column rank mod p,
    # so the suite runs no Q(u) elimination for its ranks; the tables
    # are built by this run, not read warm
    ranks = _count_ranks(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", "0", "--suite", "pairing",
                     "--out", str(out)]) == 0
    (algebra, _), = cold_tables.values()
    assert sorted(algebra._pairing_tables) == [1, 2, 3, 4]
    assert ranks == []


SWEEP_SUITES = ("hopf", "pairing", "actions", "haar", "idempotent",
                "projection", "borelweil")
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references"


def _sweep(tmp_path, seed, suites=SWEEP_SUITES):
    """The exit code and report bytes of `verify` over the suites, by
    default the seven without a Calculus, as the benchmark's sweep runs
    them."""
    out = tmp_path / ("seed-%d.json" % seed)
    args = ["verify", "--seed", str(seed), "--out", str(out)]
    for suite in suites:
        args += ["--suite", suite]
    return cli.main(args), out.read_bytes()


def _sweep_reference(seed, workload="verify-algebra-sweep"):
    return (REFERENCES / workload / ("seed-%d.json" % seed)).read_bytes()


def _count_builds(monkeypatch, builds, cls):
    """Append the name of cls to builds at each construction."""
    init = cls.__init__

    def counted(self, *args):
        builds.append(cls.__name__)
        init(self, *args)
    monkeypatch.setattr(cls, "__init__", counted)


def test_sweep_suites_gcd_count(tmp_path, monkeypatch, cold_tables):
    # every gcd of the seven suites without a Calculus at seed 0, from
    # cold scalar caches and cold seed-free tables: 6,036 with exact
    # Q(u) ranks of the pairing tables and dense block translations,
    # about 2,900 with the ranks certified mod p and the translations
    # term by term
    gcds = []
    pgcd = scalars._pgcd
    monkeypatch.setattr(scalars, "_pgcd", lambda a, b:
                        gcds.append(1) or pgcd(a, b))
    for cache in (scalars._cancel, scalars._den_product,
                  scalars._den_lcm):
        cache.cache_clear()
    assert _sweep(tmp_path, 0)[0] == 0
    (algebra, memo), = cold_tables.values()
    assert sorted(algebra._pairing_tables) == [1, 2, 3, 4]
    assert sorted(key[0] for key in memo) == [
        "holomorphic", "idempotent", "idempotent", "invariants", "sections"]
    assert 0 < len(gcds) <= 3300


@pytest.mark.parametrize("suites, limits", [
    (SWEEP_SUITES, {"Matrix.transpose": 100, "uea.antipode_inv": 100,
                    "Scalar.__init__": 1000}),
    (("calculus", "closure"), {"uea.antipode_inv": 10}),
], ids=["sweep", "calculus-closure"])
def test_translations_build_each_operator_once(tmp_path, monkeypatch,
                                               cold_tables, suites, limits):
    # from a fresh window Algebra and an empty intern of powers of u, at
    # seed 0: circle reads the columns of the memoised action matrices
    # and builds no transpose (1,925 on the sweep when it transposed per
    # call), dot reads S^-1 x from the Algebra's memo (506 sweep and
    # 2,384 calculus calls of uea.antipode_inv when it computed it per
    # call), and u_power builds no Scalar through the constructor (3,042
    # sweep constructions when it did)
    calls = collections.Counter()
    for owner, name, key in ((scalars.Matrix, "transpose", "Matrix.transpose"),
                             (uea, "antipode_inv", "uea.antipode_inv"),
                             (scalars.Scalar, "__init__", "Scalar.__init__")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, fn=fn, key=key:
                            calls.update([key]) or fn(*args))
    monkeypatch.setattr(scalars, "_U_POWERS", {})
    assert _sweep(tmp_path, 0, suites)[0] == 0
    (algebra, _), = cold_tables.values()
    assert 0 < len(algebra._antipode_inv) <= calls["uea.antipode_inv"]
    assert {key: calls[key] for key, limit in limits.items()
            if calls[key] > limit} == {}


@pytest.mark.parametrize("suites, limits", [
    (SWEEP_SUITES, {"_product": 8000, "LinComb.__init__": 10000}),
    (("calculus", "closure"), {"_product": 15000, "Matrix.transpose": 10}),
], ids=["sweep", "calculus-closure"])
def test_unit_factors_and_built_terms_cost_nothing(tmp_path, monkeypatch,
                                                   cold_tables, suites,
                                                   limits):
    # from cold U_q, irrep and power memos and a fresh window Algebra, at
    # seed 0: a product with a unit factor returns the other factor
    # without _product (21,732 sweep and 22,279 calculus calls when it
    # multiplied; about 6,300 and 12,300 now), the internal builders take
    # their nonzero terms unfiltered (17,439 sweep constructor calls when
    # they filtered again; about 2,500 now), and the product tables are
    # read by column, untransposed (433 calculus transposes when they
    # were transposed once per summed table; 6 now, all the tangent
    # module's)
    calls = collections.Counter()
    for owner, name, key in (
            (scalars, "_product", "_product"),
            (scalars.LinComb, "__init__", "LinComb.__init__"),
            (scalars.Matrix, "transpose", "Matrix.transpose")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, fn=fn, key=key:
                            calls.update([key]) or fn(*args))
    for owner, memo in ((scalars, "_U_POWERS"), (uea, "_EF_MEMO"),
                        (uea, "_DELTA_MONO"), (uea, "_ANTIPODE_MEMO"),
                        (repmod, "_IRREPS")):
        monkeypatch.setattr(owner, memo, {})
    assert _sweep(tmp_path, 0, suites)[0] == 0
    assert {key: calls[key] for key, limit in limits.items()
            if calls[key] > limit} == {}


def test_warm_sweep_equals_cold(tmp_path, monkeypatch, cold_tables):
    # a second seed in one process reads the window's pairing tables,
    # idempotents and holomorphic sections from the first, and reports
    # what a cold run reports; its action matrices sum cached monomials,
    # so it makes 62 matrix products where rebuilding the tables made 831
    builds = []
    mul = scalars.Matrix.__mul__
    monkeypatch.setattr(scalars.Matrix, "__mul__", lambda self, other:
                        builds.append("product") or mul(self, other))

    _count_builds(monkeypatch, builds, coeff.PairingTable)
    _count_builds(monkeypatch, builds, bundle.BundleIdempotent)
    holomorphic = bundle.holomorphic_sections
    monkeypatch.setattr(bundle, "holomorphic_sections", lambda *args:
                        builds.append("holomorphic") or holomorphic(*args))
    counts = []
    for seed in (0, 1):
        builds.clear()
        assert _sweep(tmp_path, seed) == (0, _sweep_reference(seed))
        counts.append(sorted(builds))
    cold, warm = counts
    assert cold.count("BundleIdempotent") == 2
    assert cold.count("PairingTable") == 4
    assert cold.count("holomorphic") == 1
    assert set(warm) == {"product"} and len(warm) <= 100


@pytest.mark.parametrize("workload, suites", [
    ("verify-calculus", ("calculus", "closure")),
    ("verify-connection", ("connection", "curvature"))])
def test_warm_calculus_run_equals_cold(tmp_path, monkeypatch, cold_tables,
                                       workload, suites):
    # a second seed in one process reads the window's Calculus, its
    # restriction, the tensored section spaces, nabla0 and the curvature
    # from the first, builds none of them, and reports what a cold run
    # of that seed reports
    builds = []
    for cls in (calculus.Calculus, connection.TensoredSectionSpace,
                connection.CurvatureMap):
        _count_builds(monkeypatch, builds, cls)
    assert _sweep(tmp_path, 0, suites) == (0, _sweep_reference(0, workload))
    assert "Calculus" in builds
    builds.clear()
    warm = _sweep(tmp_path, 1, suites)
    assert builds == []
    cold_tables.clear()
    assert _sweep(tmp_path, 1, suites) == warm
    assert warm[0] == 0 and "Calculus" in builds


def test_holomorphic_skip_replays_across_seeds(tmp_path, monkeypatch,
                                               cold_tables):
    # the holomorphic sections are solved once per window; a skip is
    # memoised with them and replays at the next seed without a solve
    calls = []

    def overflow(algebra, weights, N):
        calls.append(N)
        raise coeff.LevelOverflow("sections of level %d beyond the "
                                  "coefficient window 3" % N)

    monkeypatch.setattr(bundle, "holomorphic_sections", overflow)
    for seed in (0, 1):
        out = tmp_path / ("seed-%d.json" % seed)
        assert cli.main(["verify", "--seed", str(seed), "--suite",
                         "borelweil", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert {(c["status"], c["witness"]) for c in checks} == {
            ("skip", "sections of level 4 beyond the coefficient window 3")}
    assert calls == [4]
    (_, memo), = cold_tables.values()
    assert isinstance(memo[("holomorphic", (-1,), 4)], coeff.LevelOverflow)


def test_failing_certificate_is_not_shared(tmp_path, monkeypatch,
                                           cold_tables):
    # the doubled wp fails the idempotent's e^2 = e certificate, which is
    # never memoised, so a plain run after it builds the idempotents anew
    with monkeypatch.context() as mutant:
        _break_wp(mutant)
        rc, report = _sweep(tmp_path, 0)
    assert rc == 1
    assert _E_SQUARED in report.decode()
    assert _sweep(tmp_path, 0) == (0, _sweep_reference(0))


def test_rank_deficient_pairing_table_names_class_and_rank(tmp_path,
                                                           monkeypatch,
                                                           cold_tables):
    # the class d = 0 of the level-1 table has three columns and one row,
    # so its bound mod p falls short, and the exact rank it falls back to
    # names the class
    ranks = _count_ranks(monkeypatch)
    _keep_first_class_monomial(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "pairing", "--out", str(out)]) == 1
    assert _failures(out) == {"pairing-nondegenerate": (
        "AssertionError: pairing table rank deficiency in class d=0 "
        "(rank 1 of 3)")}
    assert ranks


def test_hopf_suite_calls_coproducts_patched_after_import(tmp_path,
                                                          monkeypatch):
    # the tracer wraps uea.coproduct and coeff.Algebra.coproduct after
    # qhvb is imported; the hopf suite must still call the wrappers
    calls = {"uq": 0, "tq": 0}
    uq, tq = uea.coproduct, coeff.Algebra.coproduct

    def uq_counted(x):
        calls["uq"] += 1
        return uq(x)

    def tq_counted(self, f):
        calls["tq"] += 1
        return tq(self, f)

    monkeypatch.setattr(uea, "coproduct", uq_counted)
    monkeypatch.setattr(coeff.Algebra, "coproduct", tq_counted)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "hopf", "--out", str(out)]) == 0
    # each of the four axioms reads the coproduct of every basis element
    assert calls["uq"] >= 4 * len(uea.pbw_monomials(4))
    assert calls["tq"] >= 4 * len(cli._TQ_BASIS)


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


def _run_optimised(code):
    """Run `code` in a child `python -O`, which strips asserts."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)


def test_certificates_fail_under_optimised_python():
    # the certificates raise instead of asserting, so python -O still
    # reports a broken e^2 = e comparison
    code = ("import sys; from qhvb import coeff, cli; "
            "coeff.CoeffVector.__eq__ = lambda x, y: False; "
            "sys.exit(cli.main(['verify', '--suite', 'idempotent']))")
    proc = _run_optimised(code)
    assert proc.returncode == 1, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert [c["status"] for c in checks] == ["fail"] * 4
    assert all(c["witness"].startswith("AssertionError: e^2 != e")
               for c in checks)


def test_calculus_result_checks_raise_under_optimised_python():
    # a Jordan block has one eigenvector, one short of its size
    code = """
from qhvb import calculus
from qhvb.scalars import Matrix, ONE, ZERO
try:
    calculus._signed_power_eigenspaces(Matrix([[ONE, ONE], [ZERO, ONE]]))
except calculus.SplitError as exc:
    print(exc)
else:
    print("no error")
"""
    proc = _run_optimised(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "multiplicity block is not diagonalizable over the signed powers "
        "of u (eigenspaces span 1 of 2)"]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(["dims", "idempotent", "connection", "haar"]),
       st.integers(1, 2), st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_config_space_exits_cleanly(command, n_max, weights):
    # every small config ends in a report (exit 0 or 1) or in one
    # stderr line (exit 2), never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text("n_max = %d\nirrep = 1\nweights = %s\n"
                          % (n_max, " ".join(map(str, weights))))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config),
                             "--out", str(Path(tmp) / "out.json")])
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


@pytest.mark.parametrize("n_max, weights", [
    (2, weights) for weights in [str(m) for m in range(-4, 5)]
    + ["1 2", "1 3", "3 -3 1"]] + [(1, "3")])
def test_projection_suite_runs_at_every_weight(tmp_path, n_max, weights):
    # the section levels follow the largest |weight|, so every weight
    # ends in a report with no fail: a check whose sections or products
    # leave the coefficient window skips
    path = tmp_path / "run.cfg"
    path.write_text("n_max = %d\nweights = %s\n" % (n_max, weights))
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "projection", "--config", str(path),
                   "--out", str(out)])
    summary = json.loads(out.read_text())["summary"]
    assert summary["fail"] == 0
    assert summary["pass"] + summary["skip"] == 4
    assert rc == (1 if summary["skip"] else 0)


@pytest.mark.parametrize("weights, skipped", [
    ("2", []), ("1 2", []), ("3", ["projection-retraction"])])
def test_projection_suite_at_weights_beyond_one(tmp_path, weights, skipped):
    # a weight-m line starts at level |m|, so every check reads sections
    # at levels that follow the weights; at weight 3 only the retraction's
    # products leave the default window
    path = tmp_path / "run.cfg"
    path.write_text("weights = %s\n" % weights)
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "projection", "--config", str(path),
                   "--out", str(out)])
    assert rc == (1 if skipped else 0)
    checks = json.loads(out.read_text())["checks"]
    assert [c["anchor"] for c in checks if c["status"] != "pass"] == skipped
    assert all(c["status"] == "skip" for c in checks if c["status"] != "pass")


def _weight_2_at_level_1(monkeypatch):
    """Build the workspace's TensoredSectionSpace of the config's bundle
    on a weight-2 line at section level 1, where it has no section.  The
    workspace itself reads the level off the weights, so no config
    reaches NoSections."""
    tss = cli._Workspace.tss
    monkeypatch.setattr(
        cli._Workspace, "tss", lambda self, weights=None, level=None:
        tss(self, (2,), 1) if weights in (None, self.cfg.weights)
        else tss(self, weights, level))


def test_connection_suites_skip_a_weight_without_sections(monkeypatch,
                                                          tmp_path,
                                                          cold_tables):
    # every check that reads the workspace's space skips with the
    # NoSections witness; the trivial-flat check reads the space of the
    # trivial line at level 2
    _weight_2_at_level_1(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "connection", "--suite",
                     "curvature", "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    witness = "no section of weight 2 at level <= 1"
    assert {c["anchor"]: (c["status"], c.get("witness")) for c in checks} == {
        "connection-law-nabla0": ("skip", witness),
        "connection-law-perturbed": ("skip", witness),
        "connection-difference-linear": ("skip", witness),
        "curvature-right-linear": ("skip", witness),
        "bianchi-operator-identity": ("skip", witness),
        "curvature-trivial-flat": ("pass", None)}
    ws = cli._Workspace(cli.RunConfig(n_max=2))
    errors = []
    for _ in range(2):
        with pytest.raises(connection.NoSections) as exc:
            ws.tss()
        errors.append(exc.value)
    assert errors[0] is errors[1]  # cached like a LevelOverflow


def test_connection_command_without_sections_exits_2(monkeypatch, tmp_path,
                                                      capsys, cold_tables):
    _weight_2_at_level_1(monkeypatch)
    out = tmp_path / "conn.json"
    assert cli.main(["connection", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "NoSections: no section of weight 2 at level <= 1\n")
    assert not out.exists()
