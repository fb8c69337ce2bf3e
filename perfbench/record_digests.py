"""Record the artifact digests that the benchmark's `digest` check expects.

    python3 perfbench/record_digests.py [--workload NAME ...]

Run from the repository root, only when a change to the pipeline's output
is intended; the digests are then the new reference.  For each workload it
runs `run_optimize` once, then `run_evaluate` and `run_report` for every
library draw that a benchmark seed can select (workloads.MC_SEEDS of
them), and rewrites perfbench/digests.json.  It takes a few minutes.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import vaxcirc  # noqa: E402
from checks import artifact_digests  # noqa: E402
from workloads import MC_SEEDS, WORKLOADS, mc_seed  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")


def record(workload):
    spec = WORKLOADS[workload]
    family, *shape = spec["circuit"]
    n = getattr(vaxcirc, family)(*shape)
    vlib = vaxcirc.default_library()
    os.makedirs(".perfbench", exist_ok=True)  # the benchmark's untracked work dir
    work = tempfile.mkdtemp(prefix="digests-", dir=".perfbench")
    try:
        run_dir = os.path.join(work, "run")
        vaxcirc.run_optimize(run_dir, n, vlib, vaxcirc.GaConfig(**spec["ga"]), threads=1)
        rec = {"optimize": None, "all": {}}
        for seed in range(MC_SEEDS):
            vaxcirc.run_evaluate(run_dir, mc_count=spec["mc_count"], mc_seed=mc_seed(seed))
            vaxcirc.run_report(run_dir)
            got = artifact_digests(run_dir)
            rec["optimize"] = got["optimize"]
            rec["all"][str(mc_seed(seed))] = got["all"]
        return rec
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    with open(DIGESTS) as f:
        digests = json.load(f)
    for workload in args.workload or list(WORKLOADS):
        digests[workload] = record(workload)
        print(f"{workload}: optimize {digests[workload]['optimize']}", flush=True)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
