"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

1. The correctness gate catches each injected failure: a tampered report,
   a non-zero exit and a missing anchor each lower checks_passed_ratio.
2. A real untraced and a real traced run of the cheapest workload emit
   exactly the metric names BENCHMARK.json declares, with their units,
   pass the gate and account for every traced second.
3. Without the qhvb sources next to it the benchmark exits non-zero and
   prints no result.

Takes about a minute on a 2-core machine.  Exits 0 when all checks hold.
"""

import json
import os
import shutil
import subprocess
import sys

import run

WORKLOAD = "verify-algebra-sweep"


def passed_ratio(code, report):
    seeds = [0]
    child = run.Child(code, 1.0, 1.0, 1.0, 0.1, {0: report}, {}, "")
    attempted, failed = run.gate(child, WORKLOAD, seeds)
    return (attempted - failed) / attempted


def check_gate():
    reference = run.load_reference(WORKLOAD, 0)
    assert passed_ratio(0, reference) == 1.0, "reference must pass"
    tampered = reference.replace(b'"pass"', b'"pas"', 1)
    doc = json.loads(reference)
    doc["checks"] = doc["checks"][1:]
    missing = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    for label, code, report in (("tampered report", 0, tampered),
                                ("non-zero exit", 1, reference),
                                ("missing anchor", 0, missing),
                                ("no report", 0, None)):
        assert passed_ratio(code, report) < 1.0, label
    # the gate counts a missing anchor even when the bytes are not compared
    expected = run.expected_anchors(run.WORKLOADS[WORKLOAD]["suites"])
    assert run.failed_checks(expected, missing, 0, missing) == 1
    print("gate: every injected failure lowers checks_passed_ratio")


def result_of(argv, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + argv,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc


def check_emitted():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    assert declared[0] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_spec()
    for trace in (0, 1):
        proc = result_of(["--workload", WORKLOAD, "--seed", "0",
                          "--seconds", "0", "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared[trace], set(emitted) ^ set(declared[trace])
        print("trace %d: all %d declared metrics emitted, gate passed"
              % (trace, len(emitted)))


def check_bare_directory():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = result_of(["--workload", WORKLOAD, "--seed", "0",
                      "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("bare directory: exit %d, no result" % proc.returncode)


def main():
    os.makedirs(run.WORK, exist_ok=True)
    check_gate()
    check_bare_directory()
    check_emitted()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
