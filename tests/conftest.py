"""Session fixtures.  `verify_reports` runs `qhvb verify --seed 0` at the
default config once per benchmark workload and session, so the golden
comparison and the acceptance criteria read one run.  `cold_tables`
gives one test an empty process memo of the verifier's workspace
objects."""

import json

import pytest

from qhvb import cli

# the suites of each benchmark workload, as perfbench/run.py runs them
WORKLOAD_SUITES = {
    "verify-algebra-sweep": ("hopf", "pairing", "actions", "haar",
                             "idempotent", "projection", "borelweil"),
    "verify-calculus": ("calculus", "closure"),
    "verify-connection": ("connection", "curvature"),
}


class VerifyReports:
    def __init__(self, tmp_path_factory):
        self._tmp = tmp_path_factory
        self._runs = {}

    def report(self, workload):
        """(exit code, report bytes) of the workload's verify run."""
        if workload not in self._runs:
            out = self._tmp.mktemp(workload) / "report.json"
            args = ["verify", "--seed", "0", "--out", str(out)]
            for suite in WORKLOAD_SUITES[workload]:
                args += ["--suite", suite]
            rc = cli.main(args)
            self._runs[workload] = (rc, out.read_bytes())
        return self._runs[workload]

    def checks(self, suite):
        """The checks of one suite, from its workload's report."""
        workload, = [w for w, suites in WORKLOAD_SUITES.items()
                     if suite in suites]
        _, data = self.report(workload)
        return [c for c in json.loads(data)["checks"] if c["suite"] == suite]


@pytest.fixture(scope="session")
def verify_reports(tmp_path_factory):
    return VerifyReports(tmp_path_factory)


@pytest.fixture
def cold_tables(monkeypatch):
    """An empty memo of window algebras and workspace objects
    (`cli._SHARED`: the idempotents and section bases, the Calculus and
    its restriction, the tensored section spaces, nabla0 and its
    curvature) for one test: a mutant's run then builds every object it
    reads instead of reading warm ones, a gate counts work from cold,
    and nothing built under a mutant reaches a later test, since the
    warm memo comes back when the test ends.  Returns the empty memo."""
    memo = {}
    monkeypatch.setattr(cli, "_SHARED", memo)
    return memo
