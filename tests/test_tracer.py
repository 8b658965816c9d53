"""The benchmark tracer wraps qhvb functions and methods by name, so a
rename in src/ breaks `perfbench/run.py --trace 1` and nothing else.
This runs the tracer in a child process, as the benchmark does."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
tracer.install()
from qhvb import cli
rc = cli.main(["verify", "--suite", "haar", "--out", sys.argv[2]])
spans = tracer.collect()["spans"]
names = [tracer.span_name(*s) for s in tracer.SPANS]
print(json.dumps({"rc": rc,
                  "missing": [n for n in names if n not in spans],
                  "haar_calls": spans["coeff.Algebra.haar"][2]}))
"""


def test_tracer_wraps_every_span(tmp_path):
    # no bytecode cache is written next to the benchmark's files
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                   if p))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"),
         str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["missing"] == []
    assert result["haar_calls"] > 0
