"""Byte-identical outputs.  Canonical forms over Q(u) are unique, so a
change to the arithmetic kernel that keeps them reproduces these files
exactly.  The sweep report is the benchmark's reference, read in place;
the default-config dims/haar/idempotent outputs in golden/ were recorded
before the gcd rewrite."""

from pathlib import Path

import pytest

from qhvb import cli

TESTS = Path(__file__).resolve().parent
SWEEP_REFERENCE = (TESTS.parent / "perfbench" / "references"
                   / "verify-algebra-sweep" / "seed-0.json")
SWEEP_SUITES = ("hopf", "pairing", "actions", "haar", "idempotent",
                "projection", "borelweil")


def test_algebra_sweep_report_matches_reference(tmp_path):
    out = tmp_path / "report.json"
    args = ["verify", "--seed", "0", "--out", str(out)]
    for suite in SWEEP_SUITES:
        args += ["--suite", suite]
    assert cli.main(args) == 0
    assert out.read_bytes() == SWEEP_REFERENCE.read_bytes()


@pytest.mark.parametrize("command", ["dims", "haar", "idempotent"])
def test_default_config_output_matches_golden(tmp_path, command):
    out = tmp_path / (command + ".json")
    assert cli.main([command, "--out", str(out)]) == 0
    assert out.read_bytes() == (TESTS / "golden" / (command + ".json")).read_bytes()
