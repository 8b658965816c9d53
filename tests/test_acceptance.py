"""Acceptance run: every headline claim of the construction, checked
end to end in exact arithmetic (no tolerances anywhere -- every
comparison is an equality of reduced rational functions in u).

Each criterion is one test reading the checks of the corresponding
verification suite at its full pinned scale and printing a single PASS
line; a failing check surfaces as the assert payload with its anchor and
witness.  The default-config suites come from the seed-0 verify runs
that tests/test_golden.py also compares (the `verify_reports` fixture
of tests/conftest.py); criteria 10 and 12 make their own runs."""

import json

from qhvb import cli


def _run_suite(suite, ws):
    checks = []
    cli._SUITE_RUNNERS[suite](ws, checks)
    return _passing(checks)


def _passing(checks):
    bad = [c for c in checks if c["status"] != "pass"]
    assert not bad, bad
    return checks


def _report(criterion, checks):
    print("ACCEPTANCE %s: PASS (%d checks)" % (criterion, len(checks)))


def test_criterion_01_hopf_axioms(verify_reports):
    # coassociativity, counit, antipode, star for the enveloping algebra
    # on all PBW monomials of degree <= 4 and for the coefficient
    # algebra on the full basis of level <= 2
    checks = _passing(verify_reports.checks("hopf"))
    assert len(checks) == 8
    _report("hopf-axioms", checks)


def test_criterion_02_pairing_nondegenerate(verify_reports):
    # the dual pairing separates the coefficient algebra at every level
    # up to 4
    checks = _passing(verify_reports.checks("pairing"))
    _report("pairing-nondegenerate", checks)


def test_criterion_03_commuting_actions(verify_reports):
    # the two translation actions compose, commute, and the circle
    # action satisfies the module-algebra law on 100 seeded triples
    checks = _passing(verify_reports.checks("actions"))
    _report("commuting-actions", checks)


def test_criterion_04_haar_positivity(verify_reports):
    # normalization, two-sided invariance on the level <= 2 basis, and
    # strict positivity of 20 seeded squared norms at u0 in
    # {1/2, 2/3, 9/10}
    checks = _passing(verify_reports.checks("haar"))
    _report("haar-positivity", checks)


def test_criterion_05_bundle_idempotent(verify_reports):
    # for V = {1} and V = {1,-1}: e^2 = e exactly at level 3 and
    # rank(e) equals the dimension of the sections at the matched level
    checks = _passing(verify_reports.checks("idempotent"))
    assert len(checks) == 4
    _report("bundle-idempotent", checks)


def test_criterion_06_projection_inclusion(verify_reports):
    # the projection retracts the inclusion on the full sections basis,
    # the inclusion is injective, the projection is surjective, and
    # both are right-linear on seeded samples
    checks = _passing(verify_reports.checks("projection"))
    _report("projection-inclusion", checks)


def test_criterion_07_calculus(verify_reports):
    # structure functional identities, classical limit of the braiding,
    # exact projector split, vanishing above the top degree, d^2 = 0
    # and the graded product rule on 50 seeded samples, and translation
    # equivariance for all generators on 50 seeded samples
    checks = _passing(verify_reports.checks("calculus"))
    assert len(checks) == 7
    _report("calculus", checks)


def test_criterion_08_restriction_closure(verify_reports):
    # the restricted complex is closed under d in degrees 0 and 1 at
    # level 3 and the Levi generators act through the counit
    checks = _passing(verify_reports.checks("closure"))
    _report("restriction-closure", checks)


def test_criterion_09_connection_law(verify_reports):
    # the distinguished connection satisfies the graded law on 50
    # seeded pairs, 10 seeded perturbed connections satisfy it too, and
    # differences of connections are right-linear
    checks = _passing(verify_reports.checks("connection"))
    _report("connection-law", checks)


def test_criterion_10_curvature():
    # curvature is right-linear over the invariants, the operator
    # Bianchi identity holds on the full sections basis at the smallest
    # window admitting all three checks, and the trivial line is flat
    cfg = cli.RunConfig(n_max=2)
    assert cfg.coefficient_window == 6
    checks = _run_suite("curvature", cli._Workspace(cfg))
    assert len(checks) == 3
    _report("curvature", checks)


def test_criterion_11_borel_weil(verify_reports):
    # the holomorphic sections of the first dominant line bundle have
    # the dimension of the two-dimensional irreducible and carry an
    # irreducible translation module
    checks = _passing(verify_reports.checks("borelweil"))
    assert len(checks) == 2
    _report("borel-weil", checks)


def test_criterion_12_deterministic_reports(tmp_path):
    # two verify runs with identical configuration and seed produce
    # byte-identical reports
    path = tmp_path / "run.cfg"
    path.write_text("suites = hopf haar borelweil\nseed = 12\n")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = cli.main(["verify", "--config", str(path), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["summary"]["fail"] == 0
    assert report["summary"]["skip"] == 0
    _report("deterministic-reports", report["checks"])
