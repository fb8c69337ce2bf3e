"""The benchmark's own test: every count metric repeats exactly.

    python3 -m pytest -q perfbench/test_counts.py

Two traced passes of one workload and seed must agree on every count
(calls, gate-words, edge-rows, rows drawn, computed bytes), so a later
change can rest a claim on a named count.  Each pass must also report
every per-layer metric that BENCHMARK.json lists.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PIPELINE = os.path.join(ROOT, "perfbench", "pipeline.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
COUNTS = [m["name"] for m in BENCH["per_layer"]
          if m["unit"] == "count" or m["name"].endswith("_mb_computed")]
# trace.* compare a traced pass with an untraced one; run.py fills them in.
LAYERS = [m["name"] for m in BENCH["per_layer"] if not m["name"].startswith("trace.")]


def _traced_pass(workload, work):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, PIPELINE, "--workload", workload, "--seed", "0",
           "--t0", repr(time.monotonic()), "--work", str(work), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_counts_repeat_exactly(workload, tmp_path):
    a = _traced_pass(workload, tmp_path / "a")
    b = _traced_pass(workload, tmp_path / "b")
    for res in (a, b):
        assert all(ok for _, ok, _ in res["ops"]), res["ops"]
        assert sorted(res["layers"]) == sorted(LAYERS)
    assert {k: a["layers"][k] for k in COUNTS} == {k: b["layers"][k] for k in COUNTS}
    assert all(a["layers"][k] > 0 for k in COUNTS)
    assert a["digests"] == b["digests"]
