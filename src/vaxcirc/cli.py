"""Command-line front end.

Subcommands: gen, sample-libs, sta, ssta, simulate, optimize, evaluate,
report.  Global flags --seed/--threads/--config apply before the
subcommand; --config points at a JSON file whose flat keys (and optional
per-subcommand sections) fill in any flag not given explicitly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .approx import ChromosomeError, build_candidates
from .celllib import (
    LibraryError,
    default_library,
    load_variation_library,
    nominal_library,
    sample_matrix,
)
from .errsim import (
    SimulationError,
    generate_dataset,
    simulate_metrics,
    timing_error_metrics,
)
from .harness import (
    BenchmarkSpec,
    HarnessError,
    generate_benchmark,
    run_evaluate,
    run_optimize,
    run_report,
)
from .netlist import NetlistError, parse_netlist, write_netlist
from .optimize import GaConfig
from .timing import (
    annotate_edge_transitions,
    extract_critical_path,
    mc_sta_cpd,
    sta_arrivals,
    ssta_traverse,
)


def _load_netlist(path):
    with open(path) as f:
        return parse_netlist(f.read())


def _load_library(path):
    return default_library() if path is None else load_variation_library(path)


def _fmt(x):
    return repr(float(x))


def _build_parser():
    p = argparse.ArgumentParser(prog="vaxcirc")
    p.add_argument("--seed", type=int, default=None, help="global RNG seed")
    p.add_argument("--threads", type=int, default=None, help="worker threads")
    p.add_argument("--config", default=None, help="JSON file with flag defaults")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark netlist")
    g.add_argument("--family", default=None, choices=("rca_adder", "cla_adder", "array_multiplier", "mac_fir"))
    g.add_argument("--width", type=int, default=None)
    g.add_argument("--taps", type=int, default=None)
    g.add_argument("--out", default=None)

    s = sub.add_parser("sample-libs", help="draw process-variation library samples")
    s.add_argument("--library", default=None)
    s.add_argument("--count", type=int, default=None)
    s.add_argument("--rho", type=float, default=None)
    s.add_argument("--out", default=None)

    t = sub.add_parser("sta", help="static timing analysis")
    t.add_argument("--netlist", default=None)
    t.add_argument("--library", default=None)
    t.add_argument("--samples", type=int, default=None, help="0 = nominal only")

    t = sub.add_parser("ssta", help="statistical timing traversal")
    t.add_argument("--netlist", default=None)
    t.add_argument("--library", default=None)
    t.add_argument("--tmap-samples", type=int, default=None)
    t.add_argument("--cpb-threshold", type=float, default=None)

    t = sub.add_parser("simulate", help="error metrics of one netlist vs a reference")
    t.add_argument("--netlist", default=None)
    t.add_argument("--reference", default=None)
    t.add_argument("--library", default=None)
    t.add_argument("--vectors", type=int, default=None)
    t.add_argument("--exhaustive", action="store_true", default=None)
    t.add_argument("--signed", action="store_true", default=None)
    t.add_argument("--clock", type=float, default=None, help="stale-value timing errors at this clock (ps)")

    o = sub.add_parser("optimize", help="NSGA-II search into a run directory")
    o.add_argument("--netlist", default=None)
    o.add_argument("--library", default=None)
    o.add_argument("--cpb-threshold", type=float, default=None)
    o.add_argument("--pop", type=int, default=None)
    o.add_argument("--gens", type=int, default=None)
    o.add_argument("--error-bound", type=float, default=None)
    o.add_argument("--lambda", dest="lam", type=float, default=None)
    o.add_argument("--search-vectors", type=int, default=None)
    o.add_argument("--report-vectors", type=int, default=None)
    o.add_argument("--tmap-samples", type=int, default=None)
    o.add_argument("--bound-samples", type=int, default=None)
    o.add_argument("--bound-seed", type=int, default=None)
    o.add_argument("--out", default=None)

    e = sub.add_parser("evaluate", help="Monte-Carlo evaluation of a run directory")
    e.add_argument("--run", default=None)
    e.add_argument("--samples", type=int, default=None)
    e.add_argument("--mc-seed", type=int, default=None)

    r = sub.add_parser("report", help="summary tables for a run directory")
    r.add_argument("--run", default=None)
    return p


# Hard defaults applied after CLI and config-file layers.
_DEFAULTS = {
    None: {"seed": 0, "threads": 1},
    "gen": {"family": "rca_adder", "width": 8, "taps": 1},
    "sample-libs": {"count": 100, "out": "libs_out"},
    "sta": {"samples": 0},
    "ssta": {"tmap_samples": 200, "cpb_threshold": 1e-3},
    "simulate": {"vectors": 10_000, "exhaustive": False, "signed": False},
    "optimize": {
        "cpb_threshold": 1e-3, "pop": 100, "gens": 100, "lam": 0.1,
        "search_vectors": 10_000, "report_vectors": 100_000,
        "tmap_samples": 200, "bound_samples": 200, "bound_seed": 5000,
        "out": "run",
    },
    "evaluate": {"run": "run", "samples": 1000, "mc_seed": 9000},
    "report": {"run": "run"},
}


# Path flags a subcommand cannot run without (simulate also needs
# --reference unless --clock is given).
_REQUIRED = {
    "sta": ("netlist",), "ssta": ("netlist",), "simulate": ("netlist",),
    "optimize": ("netlist",),
}


# JSON values a config file may give for a flag of each type (bool: store_true)
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _flag_types(parser, command):
    """Flag dest -> value type, over the global flags and `command`'s."""
    actions = list(parser._actions)
    for a in parser._actions:
        if a.dest == "command":
            actions += a.choices[command]._actions
    return {a.dest: bool if a.nargs == 0 else a.type or str for a in actions}


def _resolve(args, parser):
    """Fill None flags from --config JSON, then from hard defaults; reject
    a missing required path, a thread or sample count below one, a
    `--tmap-samples` below one and a negative `sta --samples`."""
    config = {}
    if args.config is not None:
        with open(args.config) as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
    for command in _COMMANDS:
        if not isinstance(config.get(command, {}), dict):
            raise ValueError(f"{args.config}: section {command!r} is not a JSON object")
    section = config.get(args.command, {})
    layered = dict(_DEFAULTS[None])
    layered.update(_DEFAULTS.get(args.command, {}))
    types = _flag_types(parser, args.command)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is not None:
            continue
        source = section if key in section else config
        if key in source:
            value = source[key]
            if type(value) not in _JSON_TYPES[types[key]]:
                raise ValueError(
                    f"{args.config}: {key!r} must be {types[key].__name__}, "
                    f"not {json.dumps(value)}"
                )
            setattr(args, key, value)
        elif key in layered:
            setattr(args, key, layered[key])
    required = _REQUIRED.get(args.command, ())
    if args.command == "simulate" and args.clock is None:
        required += ("reference",)
    for key in required:
        if getattr(args, key) is None:
            raise ValueError(f"--{key} is required")
    for key in ("threads", "count"):
        if getattr(args, key, 1) < 1:
            raise ValueError(f"--{key} must be >= 1")
    if args.command == "sta" and args.samples < 0:
        raise ValueError("--samples must be >= 0")
    if args.command in ("ssta", "optimize") and args.tmap_samples < 1:
        raise ValueError("--tmap-samples must be >= 1")
    return args


def _cmd_gen(args):
    spec = BenchmarkSpec(args.family, args.width, taps=args.taps)
    n = generate_benchmark(spec)
    text = write_netlist(n)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"{n.name}: {len(n.gates)} gates, {len(n.inputs)} inputs -> {args.out}")
    return 0


def _cmd_sample_libs(args):
    import os

    lib = _load_library(args.library)
    os.makedirs(args.out, exist_ok=True)
    seeds = range(args.seed, args.seed + args.count)
    delays = sample_matrix(lib, seeds, args.rho)
    path = os.path.join(args.out, "samples.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed"] + [f"{k}.{pin}.{e}" for k, pin, e in lib.arc_order()])
        for s, row in zip(seeds, delays):
            w.writerow([str(s)] + [_fmt(v) for v in row])
    print(f"{args.count} samples of {lib.name} -> {path}")
    return 0


def _cmd_sta(args):
    n = _load_netlist(args.netlist)
    lib = _load_library(args.library)
    res = sta_arrivals(n, nominal_library(lib))
    print(f"nominal_cpd_ps {_fmt(res.cpd)}")
    if res.endpoint is not None:
        _, net, edge = res.endpoint
        print(f"endpoint {net} {edge}")
        path = extract_critical_path(res)
        print("critical_path " + " ".join(f"{g}.{pin}" for g, pin, _ in path))
    if args.samples > 0:
        cpds = mc_sta_cpd(n, lib, args.samples, args.seed)
        print(f"mc_samples {args.samples}")
        print(f"mc_mean_ps {_fmt(cpds.mean())}")
        print(f"mc_std_ps {_fmt(cpds.std())}")
        print(f"mc_worst_ps {_fmt(cpds.max())}")
    return 0


def _cmd_ssta(args):
    n = _load_netlist(args.netlist)
    lib = _load_library(args.library)
    tmap = annotate_edge_transitions(n, lib, args.tmap_samples, args.seed)
    res = ssta_traverse(n, lib, tmap)
    print(f"mu_cpd_ps {_fmt(res.cpd.mu)}")
    print(f"sigma_cpd_ps {_fmt(res.cpd.sigma)}")
    print(f"confidence {_fmt(res.confidence)}")
    for net, prob in sorted(res.endpoint_probs.items()):
        print(f"endpoint_prob {net} {_fmt(prob)}")
    cs = build_candidates(n, res, args.cpb_threshold)
    print(f"candidates {len(cs)} of {len(res.cpb)} nets")
    for net in cs.nets:
        print(f"cpb {net} {_fmt(res.cpb[net])}")
    return 0


def _cmd_simulate(args):
    n = _load_netlist(args.netlist)
    ds = generate_dataset(
        n, args.vectors, seed=args.seed,
        exhaustive=args.exhaustive, signed=args.signed,
    )
    if args.clock is not None:
        lib = nominal_library(_load_library(args.library))
        m = timing_error_metrics(n, lib, args.clock, ds)
    else:
        ref = _load_netlist(args.reference)
        m = simulate_metrics(ref, n, ds)
    print(f"vectors {m.n_vectors}")
    print(f"nmed {_fmt(m.nmed)}")
    print(f"mred {_fmt(m.mred)}")
    print(f"error_rate {_fmt(m.error_rate)}")
    print(f"max_ed {m.max_ed}")
    return 0


def _cmd_optimize(args):
    n = _load_netlist(args.netlist)
    lib = _load_library(args.library)
    cfg = GaConfig(
        population=args.pop,
        generations=args.gens,
        confidence_penalty=args.lam,
        seed=args.seed,
        search_vectors=args.search_vectors,
    )
    art = run_optimize(
        args.out, n, lib, cfg,
        cpb_threshold=args.cpb_threshold,
        threads=args.threads,
        tmap_count=args.tmap_samples,
        tmap_seed=args.seed + 3,
        bound_count=args.bound_samples,
        bound_seed=args.bound_seed,
        report_vectors=args.report_vectors,
        error_bound=args.error_bound,
    )
    print(f"run_dir {art.run_dir}")
    print(f"candidates {len(art.candidates)}")
    print(f"nominal_cpd_ps {_fmt(art.clock_ps)}")
    print(f"error_bound {_fmt(art.error_bound)}")
    print(f"front_size {len(art.result.front)}")
    if art.result.feasible_warning:
        print("warning: no feasible design found; front is empty")
    return 0


def _cmd_evaluate(args):
    base, evals = run_evaluate(args.run, mc_count=args.samples, mc_seed=args.mc_seed)
    print(f"baseline_mean_cpd_ps {_fmt(base.mean_cpd_ps)}")
    print(f"baseline_worst_cpd_ps {_fmt(base.worst_cpd_ps)}")
    print(f"designs {len(evals)}")
    return 0


def _cmd_report(args):
    front = run_report(args.run)
    print(f"front_size {len(front)}")
    for d in front:
        print(f"kept {d.design_id} nmed {_fmt(d.nmed)} worst_cpd_ps {_fmt(d.worst_cpd_ps)}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "sample-libs": _cmd_sample_libs,
    "sta": _cmd_sta,
    "ssta": _cmd_ssta,
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args, parser)
        return _COMMANDS[args.command](args)
    except (
        NetlistError, SimulationError, ChromosomeError, HarnessError, LibraryError,
        OSError, ValueError,  # ValueError covers GaConfig limits and bad JSON
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
