"""One benchmark child process: runs `qhvb verify` the way a user does.

    python3 perfbench/child.py MODE STATS_PATH REPORT_DIR SEEDS SUITE...

MODE is one of
  setup  import qhvb, parse the command line and the config, and stop at
         the point where `verify` would start its first suite;
  run    run `qhvb verify` once per seed in SEEDS (comma separated) through
         `qhvb.cli.main`, in this one process, writing the report of seed s
         to REPORT_DIR/seed-s.json;
  trace  as run, with the per-layer wrappers of `tracer.py` installed.

STATS_PATH receives one JSON object: `setup_t`, the CLOCK_MONOTONIC time
(shared by every process of the machine) at which the first `verify`
command was entered, and in trace mode the tracer's statistics.  The exit
code is 0 only when every `main` call returned 0.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    mode, stats_path, report_dir, seeds, *suites = argv
    tracer = None
    if mode == "trace":
        sys.path.insert(0, HERE)
        import tracer
        tracer.install()
    from qhvb import cli

    setup = []
    verify = cli._COMMANDS["verify"]

    def timed_verify(cfg, out_path):
        if not setup:
            setup.append(time.monotonic())
        return 0 if mode == "setup" else verify(cfg, out_path)

    cli._COMMANDS["verify"] = timed_verify
    suite_args = [a for s in suites for a in ("--suite", s)]
    code = 0
    for seed in seeds.split(","):
        out = os.path.join(report_dir, "seed-%s.json" % seed)
        code = cli.main(["verify", "--seed", seed, "--out", out]
                        + suite_args)
        if code:
            break
    stats = {"setup_t": setup[0] if setup else None}
    if tracer is not None:
        stats["trace"] = tracer.collect()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
