"""Benchmark of `qhvb verify`: time to verdict, checked against recorded
reports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs the verifier as a user does: one fresh child process
per `qhvb verify` invocation, closed loop, one child at a time.  With
`--trace 0` the run first starts short set-up probes, then starts children
until S seconds have passed (at least one; the last child always runs to
its end) and reports the end-to-end metrics as medians over the children.
With `--trace 1` it runs one untraced and one traced child and reports the
per-layer metrics of the traced one.  Every child's reports must be
byte-identical to the references under `perfbench/references/`.

Each workload runs fixed verifier seeds: 0 for the calculus and
connection workloads, the default config's seed, and 0..3 for the sweep.
The seed sets the order in which a sweep child runs its four verifier
seeds.  The verifier's work changes with its seed by up to a third (see
README.md), more than one child per run can average out.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the run conditions and the samples behind each median.  See
perfbench/README.md for why the workloads and metrics are what they are.
"""

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
import tracer  # noqa: E402

_serial = itertools.count(1)

SETUP_PROBES = 8

# seeds: one child runs verifier seeds 0..seeds-1
WORKLOADS = {
    "verify-calculus": {"suites": ("calculus", "closure"), "seeds": 1},
    "verify-connection": {"suites": ("connection", "curvature"), "seeds": 1},
    "verify-algebra-sweep": {
        "suites": ("hopf", "pairing", "actions", "haar", "idempotent",
                   "projection", "borelweil"),
        "seeds": 4,
    },
}


def verifier_seeds(workload, seed):
    """The verifier seeds one child of the workload runs, in the order
    --seed gives them."""
    seeds = list(range(WORKLOADS[workload]["seeds"]))
    random.Random(seed).shuffle(seeds)
    return seeds


# the anchors every report must carry, each with status "pass"
SUITE_ANCHORS = {
    "hopf": ("tq-antipode", "tq-coassociativity", "tq-counit", "tq-star",
             "uq-antipode", "uq-coassociativity", "uq-counit", "uq-star"),
    "pairing": ("pairing-nondegenerate",),
    "actions": ("actions-commute", "circle-module-algebra"),
    "haar": ("haar-invariance", "haar-positivity", "haar-unit"),
    "idempotent": ("idempotent-rank-v1", "idempotent-rank-v1m1",
                   "idempotent-squared-v1", "idempotent-squared-v1m1"),
    "projection": ("inclusion-injective", "projection-retraction",
                   "projection-right-linear", "projection-surjective"),
    "calculus": ("braiding-classical-limit", "braiding-projectors",
                 "d-squared-zero", "forms-top-degree", "graded-leibniz",
                 "structure-functionals", "translation-equivariance"),
    "closure": ("d-closure-degree-0", "d-closure-degree-1",
                "levi-epsilon-triviality"),
    "connection": ("connection-difference-linear", "connection-law-nabla0",
                   "connection-law-perturbed"),
    "curvature": ("bianchi-operator-identity", "curvature-right-linear",
                  "curvature-trivial-flat"),
    "borelweil": ("borel-weil-dimension", "borel-weil-irreducible"),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_ratio": "ratio",
}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [("cli.%s.total_s" % s, "s", "lower") for s in SUITE_ANCHORS]
    spec += [("scalars.normalisations", "count", "lower"),
             ("scalars.norm_den_monomial_ratio", "ratio", "higher"),
             ("scalars.norm_u2_ratio", "ratio", "higher"),
             ("scalars.norm_u4_ratio", "ratio", "higher"),
             ("scalars.norm_reduced_ratio", "ratio", "higher"),
             ("scalars.norm_mean_degree", "degree", "lower")]
    for span in tracer.SPANS:
        name = tracer.span_name(*span)
        spec += [(name + ".self_s", "s", "lower"),
                 (name + ".calls", "count", "lower")]
    spec.append(("calculus.reduce_kept_ratio", "ratio", "higher"))
    spec += [(tracer.span_name(*c) + ".entries", "count", "lower")
             for c in tracer.CACHES]
    spec += [("trace.overhead_ratio", "ratio", "lower"),
             ("trace.wall_s", "s", "lower"),
             ("trace.untraced_s", "s", "lower")]
    return spec


# ----------------------------------------------------------------------
# children


class Child:
    """One finished child process and what it left behind."""

    def __init__(self, code, wall, cpu, rss_mb, setup_s, reports, stats,
                 stderr):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.setup_s = setup_s
        self.reports = reports
        self.stats = stats
        self.stderr = stderr


def spawn(mode, seeds, suites):
    """Run child.py to completion and measure it from spawn to exit."""
    d = os.path.join(WORK, "%03d-%s" % (next(_serial), mode))
    os.makedirs(d)
    stats_path = os.path.join(d, "stats.json")
    argv = [sys.executable, CHILD, mode, stats_path, d,
            ",".join(str(s) for s in seeds)] + list(suites)
    with open(os.path.join(d, "stdout"), "wb") as out, \
            open(os.path.join(d, "stderr"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stats = {}
    if os.path.exists(stats_path):
        with open(stats_path) as fh:
            stats = json.load(fh)
    setup_t = stats.get("setup_t")
    reports = {}
    for s in seeds:
        path = os.path.join(d, "seed-%d.json" % s)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                reports[s] = fh.read()
    with open(os.path.join(d, "stderr"), "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    return Child(code, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,
                 None if setup_t is None else setup_t - t0,
                 reports, stats, stderr)


# ----------------------------------------------------------------------
# correctness gate


def expected_anchors(suites):
    return sorted(a for s in suites for a in SUITE_ANCHORS[s])


def load_reference(workload, seed):
    path = os.path.join(REFERENCES, workload, "seed-%d.json" % seed)
    with open(path, "rb") as fh:
        return fh.read()


def failed_checks(expected, reference, code, report):
    """How many of the expected checks of one report count as failed.

    A non-zero exit or a missing report fails every expected check; so do
    report bytes that differ from the reference.  Otherwise a check fails
    when its anchor is missing or its status is not "pass"."""
    if code != 0 or report is None or report != reference:
        return len(expected)
    try:
        checks = json.loads(report)["checks"]
        status = {c["anchor"]: c["status"] for c in checks}
    except (ValueError, KeyError, TypeError):
        return len(expected)
    if set(status) - set(expected):
        return len(expected)
    return sum(status.get(a) != "pass" for a in expected)


def gate(child, workload, seeds):
    """(attempted, failed) over the expected checks of one child."""
    expected = expected_anchors(WORKLOADS[workload]["suites"])
    attempted = failed = 0
    for s in seeds:
        attempted += len(expected)
        failed += failed_checks(expected, load_reference(workload, s),
                                child.code, child.reports.get(s))
    if failed:
        tail = child.stderr.strip().splitlines()[-5:]
        print("check failures in %s (exit %d): %s"
              % (workload, child.code, " | ".join(tail)), file=sys.stderr)
    return attempted, failed


# ----------------------------------------------------------------------
# metrics


def summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "values": values}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, traced_wall, untraced_wall):
    """Every per-layer metric value of one traced child, by name."""
    spans = trace["spans"]
    counts = trace["counts"]
    values = {}
    for suite in SUITE_ANCHORS:
        rec = spans.get(tracer.suite_span(suite), [0.0, 0.0, 0])
        values["cli.%s.total_s" % suite] = rec[1]
    n = counts["normalisations"]
    values["scalars.normalisations"] = n
    values["scalars.norm_den_monomial_ratio"] = ratio(counts["den_monomial"],
                                                      n)
    values["scalars.norm_u2_ratio"] = ratio(counts["u2"], n)
    values["scalars.norm_u4_ratio"] = ratio(counts["u4"], n)
    values["scalars.norm_reduced_ratio"] = ratio(counts["gcd_reduced"], n)
    values["scalars.norm_mean_degree"] = ratio(counts["degree_sum"], n)
    for span in tracer.SPANS:
        name = tracer.span_name(*span)
        rec = spans[name]
        values[name + ".self_s"] = rec[0]
        values[name + ".calls"] = rec[2]
    values["calculus.reduce_kept_ratio"] = ratio(counts["reduce_kept"],
                                                 counts["reduce_in"])
    for name, size in trace["caches"].items():
        values[name + ".entries"] = size
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_s"] = traced_wall - trace["outermost_s"]
    return values


def accounting_holds(trace, traced_wall):
    """Span self times plus untraced time must add up to the traced wall."""
    self_sum = sum(rec[0] for rec in trace["spans"].values())
    untraced = traced_wall - trace["outermost_s"]
    return untraced >= 0 and abs(self_sum + untraced - traced_wall) \
        <= 1e-6 * traced_wall


def top_spans(trace, k=5):
    ranked = sorted(trace["spans"].items(), key=lambda kv: -kv[1][0])
    return [{"span": name, "self_s": rec[0], "calls": rec[2]}
            for name, rec in ranked[:k]]


# ----------------------------------------------------------------------
# run conditions


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def git_rev():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def conditions():
    return {"git_rev": git_rev(), "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "loadavg_start": loadavg()}


# ----------------------------------------------------------------------
# the run


def run(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    suites = spec["suites"]
    seeds = verifier_seeds(workload, seed)
    cond = conditions()
    attempted = failed = 0

    def measured(mode):
        nonlocal attempted, failed
        child = spawn(mode, seeds, suites)
        a, f = gate(child, workload, seeds)
        attempted += a
        failed += f
        return child

    if trace:
        plain = measured("run")
        traced = measured("trace")
        stats = traced.stats.get("trace")
        correct = failed == 0 and stats is not None \
            and accounting_holds(stats, traced.wall)
        values = layer_metrics(stats, traced.wall, plain.wall) \
            if stats else {}
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit, _ in per_layer_spec()}
        extra = {"top_self_spans": top_spans(stats) if stats else [],
                 "untraced_wall_s": plain.wall}
    else:
        t0 = time.monotonic()
        # the first probe also compiles the bytecode cache; not counted
        spawn("setup", seeds[:1], suites)
        probes = [spawn("setup", seeds[:1], suites)
                  for _ in range(SETUP_PROBES)]
        children = []
        while not children or time.monotonic() - t0 < seconds:
            children.append(measured("run"))
        setups = [c.setup_s for c in probes + children
                  if c.setup_s is not None]
        samples = {
            "wall_s": summary([c.wall for c in children]),
            "cpu_s": summary([c.cpu for c in children]),
            "setup_s": summary(setups or [0.0]),
            "peak_rss_mb": summary([c.rss_mb for c in children]),
        }
        correct = failed == 0 and len(setups) == len(probes) + len(children)
        values = {k: v["median"] for k, v in samples.items()}
        values["checks_passed_ratio"] = ratio(attempted - failed, attempted)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        extra = {"samples": samples}
    cond["loadavg_end"] = loadavg()
    cond.update(workload=workload, seed=seed, verifier_seeds=seeds,
                seconds=seconds, trace=trace)
    print(json.dumps({"conditions": cond}))
    print(json.dumps(extra))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "qhvb", "cli.py")):
        print("no qhvb sources at %s/src/qhvb: run from a checkout of the "
              "repository" % ROOT, file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
