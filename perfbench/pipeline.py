"""One pass of the vaxcirc library pipeline in a fresh interpreter.

    python3 perfbench/pipeline.py --workload NAME --seed N --t0 T --work DIR [--trace 0|1]

`perfbench/run.py` starts one of these per repetition, with src/ on
PYTHONPATH and `--t0` set to its own `time.monotonic()` just before the
start, so `setup_s` covers interpreter start, `import vaxcirc`, circuit
generation and `default_library()` (the cost every CLI call pays).  The
pass then runs `run_optimize`, `run_evaluate` and `run_report` as a user
does, with `threads=1`, checks the artifacts, and prints one JSON object.
"""

import argparse
import sys
import time


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def main():
    args = _parse()

    import vaxcirc
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    family, *shape = spec["circuit"]
    n = getattr(vaxcirc, family)(*shape)
    vlib = vaxcirc.default_library()
    setup_s = time.monotonic() - args.t0

    import json
    import os
    import resource
    import traceback

    import numpy
    from checks import artifact_digests, check_no_slowdown, check_rescore
    from workloads import mc_seed

    run_dir = os.path.join(args.work, "run")
    cfg = vaxcirc.GaConfig(**spec["ga"])
    stages = (
        ("optimize", lambda: vaxcirc.run_optimize(run_dir, n, vlib, cfg, threads=1)),
        ("evaluate", lambda: vaxcirc.run_evaluate(
            run_dir, mc_count=spec["mc_count"], mc_seed=mc_seed(args.seed))),
        ("report", lambda: vaxcirc.run_report(run_dir)),
    )
    checks = (("rescore", check_rescore), ("no_slowdown", check_no_slowdown))

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
        stages = tuple((name, tracer.wrap(f"harness.{name}", fn)) for name, fn in stages)

    ops = []  # [operation, ok, detail]
    times = {}
    for name, fn in stages:
        if ops and not ops[-1][1]:
            ops.append([name, False, "skipped: an earlier stage failed"])
            continue
        t = time.perf_counter()
        try:
            fn()
        except Exception:
            ops.append([name, False, traceback.format_exc(limit=4)])
        else:
            times[name] = time.perf_counter() - t  # only completed stages are timed
            ops.append([name, True, ""])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(args.work, "trace.json"))
        layers = tracer.layer_metrics()

    digests = {}
    if all(ok for _, ok, _ in ops):
        for name, check in checks:
            try:
                detail = check(run_dir, n, vlib)
            except Exception:
                detail = traceback.format_exc(limit=4)
            ops.append([name, not detail, detail])
        try:
            digests = artifact_digests(run_dir)
        except OSError:
            pass  # a missing artifact fails the digest check in run.py
    else:
        ops.extend([name, False, "skipped: a stage failed"] for name, _ in checks)

    result = {
        "setup_s": setup_s,
        "optimize_s": times.get("optimize"),
        "evaluate_s": times.get("evaluate"),
        "report_s": times.get("report"),
        "pipeline_s": sum(times.values()) if len(times) == 3 else None,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "digests": digests,
        "backend": "numba" if vaxcirc._kernels.USING_NUMBA else "numpy",
        "numpy": numpy.__version__,
        "sta_ws_mb_computed": _mc_working_set_mb(n, vlib, spec["mc_count"]),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


def _mc_working_set_mb(n, vlib, mc_count):
    """Computed bytes of the largest batched STA call: the MC arrival array
    (rise/fall float64 per net and library) plus its delay matrix."""
    nets = len(n.inputs) + len(n.gates)
    return mc_count * (nets * 2 * 8 + len(vlib.arc_order()) * 8) / 1e6


if __name__ == "__main__":
    sys.exit(main())
