"""Byte-identical outputs.  Canonical forms over Q(u) are unique, so a
change to the arithmetic kernel that keeps them reproduces these files
exactly.  The three benchmark references are read in place; the
default-config dims/haar/idempotent outputs in golden/ were recorded
before the gcd rewrite, connection before forms became LinCombs, and the
two-weight (weights = 1 -1) connection and idempotent outputs before
bundle vectors became LinCombs, and the connection and curvature suites
at n_max = 1 and at weights = 1 -1 before one right-linearity walk
replaced the four loops of those suites.  The connection at weights = 2,
on the sections of level 2, was recorded before the row products summed
unreduced."""

from pathlib import Path

import pytest

from qhvb import cli

TESTS = Path(__file__).resolve().parent
REFERENCES = TESTS.parent / "perfbench" / "references"


@pytest.mark.parametrize("workload", ["verify-algebra-sweep",
                                      "verify-calculus", "verify-connection"])
def test_verify_report_matches_reference(verify_reports, workload):
    # the run is shared with the acceptance criteria (tests/conftest.py)
    rc, report = verify_reports.report(workload)
    assert rc == 0
    reference = REFERENCES / workload / "seed-0.json"
    assert report == reference.read_bytes()


@pytest.mark.parametrize("command", ["connection", "dims", "haar",
                                     "idempotent"])
def test_default_config_output_matches_golden(tmp_path, command):
    out = tmp_path / (command + ".json")
    assert cli.main([command, "--out", str(out)]) == 0
    assert out.read_bytes() == (TESTS / "golden" / (command + ".json")).read_bytes()


def test_weight_two_connection_matches_golden(tmp_path):
    # the weight-2 line has sections from level 2 on, and the connection
    # reads its sections at that level
    config = tmp_path / "v2.cfg"
    config.write_text("weights = 2\n")
    out = tmp_path / "connection.json"
    assert cli.main(["connection", "--config", str(config),
                     "--out", str(out)]) == 0
    golden = TESTS / "golden" / "connection-v2.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("command", ["connection", "idempotent"])
def test_two_weight_output_matches_golden(tmp_path, command):
    # dim W = 4 with two weight lines; the default bundle has one
    config = tmp_path / "v1m1.cfg"
    config.write_text("weights = 1 -1\n")
    out = tmp_path / (command + ".json")
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    golden = TESTS / "golden" / (command + "-v1m1.json")
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("name, config, rc", [
    ("n1", "n_max = 1\n", 1),
    ("v1m1", "weights = 1 -1\n", 0),
])
def test_connection_suites_match_golden(tmp_path, name, config, rc):
    # at n_max = 1 (window 4) four checks skip, each witness naming the
    # first product that overflows; at weights = 1 -1 every check runs
    path = tmp_path / (name + ".cfg")
    path.write_text(config)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", str(path), "--suite", "connection",
                     "--suite", "curvature", "--out", str(out)]) == rc
    golden = TESTS / "golden" / ("verify-connection-%s.json" % name)
    assert out.read_bytes() == golden.read_bytes()
