"""Pipeline benchmark: optimize -> evaluate -> report, one workload per run.

    python3 perfbench/run.py --workload desk-rca8 --seed 0 --seconds 40 --trace 0

Run from the repository root.  Each pipeline pass is a fresh interpreter
(perfbench/pipeline.py) that runs the library pipeline once with
`threads=1`: a closed loop with one caller, the next pass starting when
the previous one has finished.  Passes continue until `--seconds` is used
up (at least three), and every metric is the median over them.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced ones, the tracing overhead, and fails the run if
a count differs between two traced passes of the same seed.

Human-readable lines come first, then one `env {...}` line with the
environment facts as JSON; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Exit code 2 means
the benchmark could not run at all (no vaxcirc sources, unknown workload).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PIPELINE = os.path.join(HERE, "pipeline.py")
WORK_ROOT = ".perfbench"  # scratch under the checkout; never tracked
DEADLINE_S = 170.0  # every run must end within 180 s
MIN_PASSES = 3
STAGE_OPS = ("optimize", "evaluate", "report", "rescore", "no_slowdown")


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _env_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            with open(os.path.join(base, idx, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, idx, "size")) as f:
                caches[f"L{level}"] = f.read().strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "backend": "unknown",  # the passes report these two
        "numpy": "unknown",
    }


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.work = os.path.join(WORK_ROOT, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.reps = []  # child results, in run order
        self.pipeline_passes = 0
        self.errors = []

    def _child(self, extra):
        timeout = self.deadline - time.monotonic()
        if timeout < 1.0:
            return None
        t0 = time.monotonic()
        cmd = [sys.executable, PIPELINE, "--workload", self.workload, "--t0", repr(t0)]
        try:
            proc = subprocess.run(cmd + extra, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"pass timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode == 0 and lines:
                return json.loads(lines[-1])
        except ValueError:
            pass
        self.errors.append(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        return None

    def pipeline_pass(self, trace):
        k = self.pipeline_passes
        self.pipeline_passes += 1
        shutil.rmtree(os.path.join(self.work, f"pass{k - 1:02d}", "run"), ignore_errors=True)
        work = os.path.join(self.work, f"pass{k:02d}")
        res = self._child(["--seed", str(self.seed), "--work", work, "--trace", str(trace)])
        if res is None:
            res = {"ops": [[op, False, "pass did not finish"] for op in STAGE_OPS],
                   "digests": {}, "layers": None}
        res["kind"] = "traced" if trace else "pipeline"
        self.reps.append(res)
        return res

    def want_more(self, start, seconds):
        """Start another pipeline pass?  Runs end within half a cycle of
        `seconds`, so their mean length is `seconds`."""
        now = time.monotonic()
        cycle = (now - start) / self.pipeline_passes if self.pipeline_passes else 0.0
        if self.deadline - now < 2 * cycle:
            return False
        return self.pipeline_passes < MIN_PASSES or now - start + cycle / 2 <= seconds


def _show(res):
    fields = ("setup_s", "optimize_s", "evaluate_s", "pipeline_s", "peak_rss_mb")
    print(f"{res['kind']} pass: "
          + ", ".join(f"{k} {res[k]:.4f}" for k in fields if res.get(k) is not None)
          + ", ops " + " ".join(f"{op}={'ok' if ok else 'FAIL'}" for op, ok, _ in res["ops"]))


def _load_expected_digests(workload, mc_seed):
    """The recorded digests for this workload and library draw; a key with
    nothing recorded maps to None and fails every digest check."""
    with open(os.path.join(HERE, "digests.json")) as f:
        rec = json.load(f).get(workload, {})
    return {"optimize": rec.get("optimize"), "all": rec.get("all", {}).get(str(mc_seed))}


def _digest_ops(reps, expected):
    """One check per pass: its artifact digests equal the recorded ones."""
    ops = []
    for res in reps:
        got = res["digests"]
        if not got:
            ops.append(["digest", False, "no artifacts to digest"])
            continue
        bad = [k for k in ("optimize", "all") if got[k] != expected[k]]
        ops.append(["digest", not bad, f"{bad} differ: {got} vs {expected}" if bad else ""])
    return ops


def _count_ops(traced, count_names):
    """One check per traced pass after the first: every count repeats exactly."""
    ops = []
    first = traced[0]["layers"] if traced and traced[0]["layers"] else None
    for res in traced[1:]:
        layers = res["layers"]
        if first is None or layers is None:
            ops.append(["count_repeat", False, "a traced pass has no layer metrics"])
            continue
        bad = [f"{k}: {first[k]} vs {layers[k]}" for k in count_names if first[k] != layers[k]]
        ops.append(["count_repeat", not bad, "; ".join(bad)])
    return ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    if not os.path.isfile(os.path.join("src", "vaxcirc", "__init__.py")):
        _fail("src/vaxcirc not found; run from the root of a vaxcirc checkout")
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        _fail(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, mc_seed

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    env = _env_facts()
    family, *shape = spec["circuit"]
    ga = spec["ga"]
    print(f"workload {args.workload}: {family}{tuple(shape)}, pop {ga['population']} x "
          f"{ga['generations']} gens (GA seed {ga['seed']}), MC {spec['mc_count']} "
          f"(mc_seed {mc_seed(args.seed)}); closed loop, 1 caller, threads=1, "
          f"fresh interpreter per pass")

    runner = Runner(args.workload, args.seed, start + DEADLINE_S)
    # Traced mode: one untraced pass, two traced ones, then alternate.
    schedule = (0, 1, 1) if args.trace else (0,)
    while runner.want_more(start, args.seconds):
        k = runner.pipeline_passes
        trace = schedule[k] if k < len(schedule) else ((k + 1) % 2 if args.trace else 0)
        _show(runner.pipeline_pass(trace))

    reps = runner.reps
    ops = [op for res in reps for op in res["ops"]]
    ops += _digest_ops(reps, _load_expected_digests(args.workload, mc_seed(args.seed)))
    traced = [r for r in reps if r["kind"] == "traced"]
    untraced = [r for r in reps if r["kind"] == "pipeline" and r.get("pipeline_s") is not None]
    if args.trace:
        count_names = [m["name"] for m in bench["per_layer"]
                       if m["unit"] == "count" or m["name"].endswith("_mb_computed")]
        ops += _count_ops(traced, count_names)
    for op, ok, detail in ops:
        if not ok:
            print(f"FAILED {op}: {detail.strip()}")
    for err in runner.errors:
        print(f"pass error: {err.strip()}")

    ok_reps = [r for r in reps if r.get("backend")]
    if ok_reps:
        env["backend"] = ok_reps[0]["backend"]
        env["numpy"] = ok_reps[0]["numpy"]
        env["sta_forward_ws_mb_computed"] = round(ok_reps[0]["sta_ws_mb_computed"], 3)
        print(f"computed sta_forward working set of one MC call: "
              f"{env['sta_forward_ws_mb_computed']:.1f} MB (L2 {env['l2']})")
        digests = ok_reps[0]["digests"]
        if digests:
            print(f"artifact sha256: optimize {digests['optimize']} all {digests['all']}")

    failed = sum(1 for _, ok, _ in ops if not ok)
    attempted = max(1, len(ops))
    metrics = {}
    if args.trace:
        passes = [r["layers"] for r in traced if r["layers"]]
        for m in bench["per_layer"]:
            name = m["name"]
            vals = [p[name] for p in passes if name in p]
            if vals:
                metrics[name] = {"value": statistics.median(vals), "unit": m["unit"]}
        t_traced = [r["pipeline_s"] for r in traced if r.get("pipeline_s") is not None]
        if t_traced and untraced:
            a = statistics.median(t_traced)
            b = statistics.median(r["pipeline_s"] for r in untraced)
            metrics["trace.pipeline_s"] = {"value": a, "unit": "s"}
            metrics["trace.untraced_pipeline_s"] = {"value": b, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": a - b, "unit": "s"}
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        for m in bench["end_to_end"]:
            name = m["name"]
            samples = [r[name] for r in untraced]
            if samples:
                metrics[name] = {"value": statistics.median(samples), "unit": m["unit"]}
        wanted = [m["name"] for m in bench["end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        failed += 1
        attempted += 1
        print(f"FAILED metrics: no value for {missing}")

    print(f"medians over {len(traced)} traced passes:" if args.trace else
          f"medians over {len(untraced)} pipeline passes:")
    for name in wanted:
        if name in metrics:
            print(f"  {name:<40} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    # The result line's keys are fixed, so the facts it was measured under
    # go on the line just before it.
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
