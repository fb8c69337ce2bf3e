"""Correctness checks on a finished run directory.

Each check returns "" when it passes and a one-paragraph reason when it
fails; the benchmark counts every check as one operation.
"""

import csv
import hashlib
import json
import os

from vaxcirc import (
    CandidateSet,
    apply_chromosome,
    generate_dataset,
    netlist_fingerprint,
    simulate_metrics,
    ssta_traverse,
)

# The artifacts `optimize`, `evaluate` and `report` write at this commit.
# New artifact kinds added later stay out of the digest on purpose.
_OPTIMIZE_FILES = (
    "config.json",
    "libs/variation.json",
    "netlists/baseline.nl",
    "netlists/candidates.csv",
    "netlists/tmap.txt",
    "fronts/final_front.csv",
)
_LATER_FILES = (
    "mc/baseline.csv",
    "mc/designs.csv",
    "mc/meta.json",
    "report/config",
    "report/designs.csv",
    "report/front.csv",
    "report/pareto.csv",
    "report/ratio.csv",
    "report/selected.csv",
)


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def check_rescore(run_dir, n, vlib):
    """Re-score each final-front member through the reference object path
    (apply_chromosome -> Evaluator error metrics -> ssta_traverse) and
    require the stored objectives to match exactly."""
    config = _read_json(os.path.join(run_dir, "config.json"))
    nets = tuple(r["net"] for r in _read_csv(os.path.join(run_dir, "netlists", "candidates.csv")))
    cs = CandidateSet(nets, config["cpb_threshold"], netlist_fingerprint(n))
    tmap = {}
    with open(os.path.join(run_dir, "netlists", "tmap.txt")) as f:
        for line in f:
            gate, pin, edge = line.split()
            tmap[(gate, pin)] = edge
    ds = generate_dataset(n, config["ga"]["search_vectors"], seed=config["search_seed"])
    front = _read_csv(os.path.join(run_dir, "fronts", "final_front.csv"))
    if not front:
        return "final_front.csv is empty"
    bad = []
    for row in front:
        design = apply_chromosome(n, cs, [int(g) for g in row["genes"].split()])
        ssta = ssta_traverse(design, vlib, tmap)
        got = {
            "nmed": simulate_metrics(n, design, ds).nmed,
            "mu_cpd": ssta.cpd.mu,
            "sigma_cpd": ssta.cpd.sigma,
            "confidence": ssta.confidence,
        }
        bad += [
            f"{row['design_id']}.{k}: stored {row[k]} recomputed {v!r}"
            for k, v in got.items()
            if float(row[k]) != v
        ]
    return "; ".join(bad)


def check_no_slowdown(run_dir, n, vlib):
    """Every MC design's worst and mean CPD stay at or under the baseline's."""
    base = _read_csv(os.path.join(run_dir, "mc", "baseline.csv"))[0]
    designs = _read_csv(os.path.join(run_dir, "mc", "designs.csv"))
    if not designs:
        return "mc/designs.csv is empty"
    bad = [
        f"{d['design_id']}.{k}: {d[k]} > baseline {base[k]}"
        for d in designs
        for k in ("worst_cpd_ps", "mean_cpd_ps")
        if float(d[k]) > float(base[k])
    ]
    return "; ".join(bad)


def artifact_digests(run_dir):
    """SHA-256 over a fixed artifact list: `optimize` covers what the search
    writes (independent of the benchmark seed), `all` adds the MC and report
    files."""
    config = _read_json(os.path.join(run_dir, "config.json"))
    front = _read_csv(os.path.join(run_dir, "fronts", "final_front.csv"))
    optimize = list(_OPTIMIZE_FILES)
    optimize += [f"fronts/gen_{g:04d}.csv" for g in range(config["ga"]["generations"] + 1)]
    optimize += [f"fronts/chromosomes/{r['design_id']}.chrom" for r in front]
    h = hashlib.sha256()
    digests = {}
    for key, files in (("optimize", optimize), ("all", _LATER_FILES)):
        for rel in files:
            with open(os.path.join(run_dir, rel), "rb") as f:
                data = f.read()
            h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        digests[key] = h.hexdigest()
    return digests
