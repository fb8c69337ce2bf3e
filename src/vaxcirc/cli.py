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
import math
import sys
from typing import Callable, NamedTuple

from .approx import ChromosomeError, build_candidates
from .celllib import (
    LibraryError,
    check_seeds,
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
    FAMILIES,
    WIDTHS,
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


def _key(name):
    """The attribute and --config key of flag `name`: its dest."""
    return "lam" if name == "--lambda" else name[2:].replace("-", "_")


def _one_of(values):
    return "one of " + ", ".join(map(str, values)), lambda v: v in values


class _Flag(NamedTuple):
    """One flag of the subcommands `commands` (None: the global parser)."""

    name: str
    commands: tuple
    type: type = str
    default: object = None  # _REQUIRED: the subcommand cannot run without it
    range: str = ""  # what every value must be; `test` checks it
    test: Callable | None = None
    help: str = ""
    choices: tuple | None = None  # argparse's own check, on the command line


_REQUIRED = object()
_GE1 = (">= 1", lambda v: v >= 1)
_PROBABILITY = ("in [0, 1]", lambda v: 0 <= v <= 1)
_THRESHOLD = ("in (0, 1]", lambda v: 0 < v <= 1)
_SEED = ("in [0, 2**64)", lambda v: 0 <= v < 1 << 64)
_READ_NETLIST = ("sta", "ssta", "simulate", "optimize")
_FLAGS = (
    _Flag("--seed", (None,), int, 0, *_SEED, "global RNG seed"),
    _Flag("--threads", (None,), int, 1, *_GE1, "accepted but unused"),
    _Flag("--config", (None,), help="JSON file with flag defaults"),
    _Flag("--family", ("gen",), str, "rca_adder", *_one_of(FAMILIES), choices=FAMILIES),
    _Flag("--width", ("gen",), int, 8, *_one_of(WIDTHS)),
    _Flag("--taps", ("gen",), int, 1, *_GE1),
    _Flag("--out", ("gen",), help="netlist file; stdout without it"),
    _Flag("--library", ("sample-libs", *_READ_NETLIST), help="variation library JSON; "
          "the built-in one without it"),
    _Flag("--count", ("sample-libs",), int, 100, *_GE1),
    _Flag("--rho", ("sample-libs",), float, None, *_PROBABILITY, "the library's without it"),
    _Flag("--out", ("sample-libs",), str, "libs_out"),
    _Flag("--netlist", _READ_NETLIST, str, _REQUIRED),
    _Flag("--samples", ("sta",), int, 0, ">= 0", lambda v: v >= 0, "0 = nominal only"),
    _Flag("--tmap-samples", ("ssta", "optimize"), int, 200, *_GE1),
    _Flag("--cpb-threshold", ("ssta", "optimize"), float, 1e-3, *_THRESHOLD),
    _Flag("--reference", ("simulate",), help="exact netlist; required without --clock"),
    _Flag("--vectors", ("simulate",), int, 10_000, *_GE1, "unused with --exhaustive"),
    _Flag("--exhaustive", ("simulate",), bool, False),
    _Flag("--signed", ("simulate",), bool, False),
    _Flag("--clock", ("simulate",), float, None, "positive and finite",
          lambda v: 0 < v < math.inf, "stale-value timing errors at this clock (ps)"),
    _Flag("--pop", ("optimize",), int, 100, "an even count >= 2",
          lambda v: v >= 2 and v % 2 == 0),
    _Flag("--gens", ("optimize",), int, 100, *_GE1),
    _Flag("--error-bound", ("optimize",), float, None, *_PROBABILITY,
          "derived from the stale-value bound without it"),
    _Flag("--lambda", ("optimize",), float, 0.1, "finite and >= 0",
          lambda v: 0 <= v < math.inf),
    _Flag("--search-vectors", ("optimize",), int, 10_000, *_GE1),
    _Flag("--report-vectors", ("optimize",), int, 100_000, *_GE1),
    _Flag("--bound-samples", ("optimize",), int, 200, *_GE1),
    _Flag("--bound-seed", ("optimize",), int, 5000, *_SEED),
    _Flag("--out", ("optimize",), str, "run"),
    _Flag("--run", ("evaluate", "report"), str, "run"),
    _Flag("--samples", ("evaluate",), int, 1000, *_GE1),
    _Flag("--mc-seed", ("evaluate",), int, 9000, *_SEED),
)

# The library draws of each subcommand: (what, seed flag, offset, count
# flag), seeds seed + offset .. seed + offset + count - 1, as its _cmd_ draws
_DRAWS = {
    "sample-libs": (("library", "--seed", 0, "--count"),),
    "sta": (("mc", "--seed", 0, "--samples"),),
    "ssta": (("tmap", "--seed", 0, "--tmap-samples"),),
    "optimize": (("tmap", "--seed", 3, "--tmap-samples"),
                 ("bound", "--bound-seed", 0, "--bound-samples")),
    "evaluate": (("mc", "--mc-seed", 0, "--samples"),),
}

# JSON values a config file may give for a flag of each type (bool: store_true)
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _help(flag):
    """The flag's help text, its default and its range, as --help shows them."""
    shown = [flag.help, flag.range]
    if flag.default is _REQUIRED:
        shown.insert(1, "required")
    elif flag.type is not bool and flag.default is not None:
        shown.insert(1, f"default {flag.default}")
    return "; ".join(filter(None, shown))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # `main` prints it as one line: no usage, no exit
        raise ValueError(message)


def _build_parser():
    p = _Parser(prog="vaxcirc")
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {None: p} | {c: sub.add_parser(c, help=h) for c, (_, h) in _COMMANDS.items()}
    for flag in _FLAGS:
        how = {"action": "store_true"} if flag.type is bool else {
            "type": flag.type, "choices": flag.choices}
        for command in flag.commands:
            parsers[command].add_argument(
                flag.name, dest=_key(flag.name), default=None, help=_help(flag), **how
            )
    return p


def _resolve(args):
    """Fill each flag not given from the --config JSON (the subcommand's
    section, then its flat keys), then from its `_FLAGS` default.  Then
    refuse, naming the flag, a missing required flag, a value outside its
    range and a library draw whose seeds leave [0, 2**64)."""
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
    flags = [f for f in _FLAGS if None in f.commands or args.command in f.commands]
    for flag in flags:
        key = _key(flag.name)
        source = section if key in section else config
        if getattr(args, key) is None:
            value = source.get(key, flag.default)
            if key in source and type(value) not in _JSON_TYPES[flag.type]:
                raise ValueError(f"{args.config}: {key!r} must be {flag.type.__name__}, "
                                 f"not {json.dumps(value)}")
            setattr(args, key, value)
    if args.command == "simulate" and args.clock is None and args.reference is None:
        raise ValueError("--reference is required without --clock")
    for flag in flags:
        value = getattr(args, _key(flag.name))
        if value is _REQUIRED:
            raise ValueError(f"{flag.name} is required")
        if flag.name == "--vectors" and args.exhaustive:
            continue  # --exhaustive draws no vectors
        if value is not None and flag.test and not flag.test(value):
            raise ValueError(f"{flag.name} must be {flag.range}, not {value!r}")
    for what, seed, offset, count in _DRAWS.get(args.command, ()):
        first = f"{seed} + {offset}" if offset else seed
        check_seeds(f"{what} seed ({first}, one per {count})",
                    getattr(args, _key(seed)) + offset, getattr(args, _key(count)))
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
    seeds = range(args.seed, args.seed + args.count)
    delays = sample_matrix(lib, seeds, args.rho)
    os.makedirs(args.out, exist_ok=True)
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
    "gen": (_cmd_gen, "generate a benchmark netlist"),
    "sample-libs": (_cmd_sample_libs, "draw process-variation library samples"),
    "sta": (_cmd_sta, "static timing analysis"),
    "ssta": (_cmd_ssta, "statistical timing traversal"),
    "simulate": (_cmd_simulate, "error metrics of one netlist vs a reference"),
    "optimize": (_cmd_optimize, "NSGA-II search into a run directory"),
    "evaluate": (_cmd_evaluate, "Monte-Carlo evaluation of a run directory"),
    "report": (_cmd_report, "summary tables for a run directory"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _resolve(args)
        return _COMMANDS[args.command][0](args)
    except (
        NetlistError, SimulationError, ChromosomeError, HarnessError, LibraryError,
        OSError, ValueError,  # ValueError covers GaConfig limits and bad JSON
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
