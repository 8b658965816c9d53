"""Record the reference reports the benchmark compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs `qhvb verify` for the verifier seeds of each workload (0..3 for the
sweep, 0 for the others) and writes each report, byte for byte, to
perfbench/references/<workload>/seed-<n>.json.  A report is written only
when its run exited 0 and every expected check passed.  The references
were recorded from the unmodified seed sources; record again only when a
change is meant to alter the reports.
"""

import json
import os
import shutil
import sys

import run


def record(workload):
    suites = run.WORKLOADS[workload]["suites"]
    expected = run.expected_anchors(suites)
    seeds = sorted(run.verifier_seeds(workload, 0))
    out_dir = os.path.join(run.REFERENCES, workload)
    os.makedirs(out_dir, exist_ok=True)
    child = run.spawn("run", seeds, suites)
    for s in seeds:
        report = child.reports.get(s)
        checks = json.loads(report)["checks"] if report else []
        status = {c["anchor"]: c["status"] for c in checks}
        if child.code != 0 or sorted(status) != expected \
                or set(status.values()) != {"pass"}:
            sys.exit("%s seed %d did not pass (exit %d)"
                     % (workload, s, child.code))
        with open(os.path.join(out_dir, "seed-%d.json" % s), "wb") as fh:
            fh.write(report)
    print("%s seeds %s: %.1fs" % (workload, seeds, child.wall))


def main(argv):
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    for workload in argv or list(run.WORKLOADS):
        record(workload)


if __name__ == "__main__":
    main(sys.argv[1:])
