"""Benchmark generators, Monte-Carlo design evaluation, and run reporting.

The pipeline matches the CLI: `optimize` fills a run directory with the
baseline, search artifacts and front chromosomes; `evaluate` adds
Monte-Carlo timing/error measurements; `report` distills CSV tables.
Everything is seed-deterministic and timestamp-free, so identical runs
produce byte-identical directories.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _kernels
from ._compile import compile_timing
from .approx import (
    CandidateSet,
    TieFold,
    build_candidates,
    format_chromosome,
    load_chromosome,
)
from .celllib import (
    VariationLibrary,
    load_variation_library,
    nominal_library,
    sample_matrix,
    save_variation_library,
)
from .errsim import Evaluator, SimulationDataset, _metrics_from_bits, generate_dataset
from .errsim import _metrics_from_values, interpret_rows, interpret_values
from .errsim import simulate_metrics, stale_bits
from .netlist import Gate, Netlist, netlist_fingerprint, parse_netlist, write_netlist
from .optimize import GaConfig, nsga2_run, pareto_front_indices
from .timing import annotate_edge_transitions, cpd_over_delays, sta_arrivals
from .timing import ssta_traverse, stacked_cpds


class HarnessError(Exception):
    """Bad benchmark spec or incomplete run directory."""


FAMILIES = ("rca_adder", "cla_adder", "array_multiplier", "mac_fir")
WIDTHS = (4, 8, 16, 32)


@dataclass(frozen=True)
class BenchmarkSpec:
    family: str
    width: int
    taps: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise HarnessError(f"unknown family {self.family!r}")
        if self.width not in WIDTHS:
            raise HarnessError(f"width {self.width} not in {WIDTHS}")
        if self.taps < 1:
            raise HarnessError("taps must be >= 1")


class _Builder:
    """Accumulates gates with unique instance names."""

    def __init__(self):
        self.gates: list[Gate] = []
        self._used: set[str] = set()

    def add(self, kind: str, fanin: dict[str, str], out: str) -> str:
        name = "u_" + out
        if name in self._used:
            raise HarnessError(f"duplicate generated net {out!r}")
        self._used.add(name)
        self.gates.append(Gate(name, kind, fanin, out))
        return out


def _full_adder(b: _Builder, x: str, y: str, cin: str, s: str, cout: str) -> str:
    """Classic 5-gate slice: sum via two XORs, carry via three NANDs."""
    p = b.add("XOR2", {"A": x, "B": y}, s + "_p")
    b.add("XOR2", {"A": p, "B": cin}, s)
    g1 = b.add("NAND2", {"A": x, "B": y}, s + "_g")
    g2 = b.add("NAND2", {"A": p, "B": cin}, s + "_h")
    b.add("NAND2", {"A": g1, "B": g2}, cout)
    return cout


def _half_adder(b: _Builder, x: str, y: str, s: str, cout: str) -> str:
    b.add("XOR2", {"A": x, "B": y}, s)
    b.add("AND2", {"A": x, "B": y}, cout)
    return cout


def _add_vectors(b: _Builder, a_bits, b_bits, prefix: str):
    """Ripple-add two LSB-first bit vectors of any lengths.

    Returns the sum bit list (carry-extended).  Positions covered by only
    one operand still propagate the running carry.
    """
    out = []
    carry = None
    for k in range(max(len(a_bits), len(b_bits))):
        ops = [v for v in (
            a_bits[k] if k < len(a_bits) else None,
            b_bits[k] if k < len(b_bits) else None,
            carry,
        ) if v is not None]
        s = f"{prefix}_s{k}"
        c = f"{prefix}_c{k}"
        if len(ops) == 3:
            carry = _full_adder(b, ops[0], ops[1], ops[2], s, c)
            out.append(s)
        elif len(ops) == 2:
            carry = _half_adder(b, ops[0], ops[1], s, c)
            out.append(s)
        else:
            out.append(ops[0])
            carry = None
    if carry is not None:
        out.append(carry)
    return out


def rca_adder(width: int) -> Netlist:
    """Ripple-carry adder: width 5-gate full-adder slices, cin and cout."""
    b = _Builder()
    a = [f"a{i}" for i in range(width)]
    bb = [f"b{i}" for i in range(width)]
    carry = "cin"
    sums = []
    for i in range(width):
        cout = "cout" if i == width - 1 else f"c{i + 1}"
        _full_adder(b, a[i], bb[i], carry, f"s{i}", cout)
        sums.append(f"s{i}")
        carry = cout
    return Netlist(
        f"rca{width}", a + bb + ["cin"], sums + ["cout"], b.gates
    )


def cla_adder(width: int) -> Netlist:
    """Carry-lookahead adder: expanded 4-bit groups, carry ripples between."""
    b = _Builder()
    a = [f"a{i}" for i in range(width)]
    bb = [f"b{i}" for i in range(width)]
    p, g = [], []
    for i in range(width):
        p.append(b.add("XOR2", {"A": a[i], "B": bb[i]}, f"p{i}"))
        g.append(b.add("AND2", {"A": a[i], "B": bb[i]}, f"g{i}"))
    carries = ["cin"]
    for base in range(0, width, 4):
        group_in = carries[-1]
        for k in range(4):
            i = base + k
            terms = [g[i]]
            prod = p[i]
            for m in range(i - 1, base - 1, -1):
                terms.append(b.add("AND2", {"A": prod, "B": g[m]}, f"c{i + 1}_t{m}"))
                prod = b.add("AND2", {"A": prod, "B": p[m]}, f"c{i + 1}_q{m}")
            terms.append(b.add("AND2", {"A": prod, "B": group_in}, f"c{i + 1}_tc"))
            cname = "cout" if i == width - 1 else f"c{i + 1}"
            acc = terms[0]
            for t_i, term in enumerate(terms[1:]):
                out = cname if t_i == len(terms) - 2 else f"c{i + 1}_o{t_i}"
                acc = b.add("OR2", {"A": acc, "B": term}, out)
            carries.append(cname)
    sums = []
    for i in range(width):
        sums.append(b.add("XOR2", {"A": p[i], "B": carries[i]}, f"s{i}"))
    return Netlist(
        f"cla{width}", a + bb + ["cin"], sums + ["cout"], b.gates
    )


def array_multiplier(width: int) -> Netlist:
    """Unsigned array multiplier: AND2 partial products, ripple reduction."""
    b = _Builder()
    a = [f"a{i}" for i in range(width)]
    bb = [f"b{i}" for i in range(width)]
    product = _mult_into(b, a, bb, "")
    return Netlist(f"mult{width}", a + bb, product, b.gates)


def _mult_into(b: _Builder, xs, hs, prefix: str):
    """Array-multiplier structure over existing nets; returns product bits."""
    w = len(xs)
    pp = [
        [
            b.add("AND2", {"A": xs[i], "B": hs[j]}, f"{prefix}pp{i}_{j}")
            for i in range(w)
        ]
        for j in range(w)
    ]
    acc = pp[0]
    product = [acc[0]]
    for j in range(1, w):
        acc = _add_vectors(b, acc[1:], pp[j], f"{prefix}r{j}")
        product.append(acc[0])
    product.extend(acc[1:])
    return product


def mac_fir(width: int, taps: int) -> Netlist:
    """Multiply-accumulate FIR: per-tap products summed by ripple adders.

    Coefficients are primary inputs (one bus per tap), so a single netlist
    covers any coefficient assignment.
    """
    b = _Builder()
    inputs = []
    products = []
    for t in range(taps):
        xs = [f"x{t}_{i}" for i in range(width)]
        hs = [f"h{t}_{i}" for i in range(width)]
        inputs.extend(xs)
        inputs.extend(hs)
        products.append(_mult_into(b, xs, hs, f"t{t}_"))
    acc = products[0]
    for t in range(1, taps):
        acc = _add_vectors(b, acc, products[t], f"acc{t}")
    return Netlist(f"fir{width}x{taps}", inputs, acc, b.gates)


def generate_benchmark(spec: BenchmarkSpec) -> Netlist:
    if spec.family == "rca_adder":
        return rca_adder(spec.width)
    if spec.family == "cla_adder":
        return cla_adder(spec.width)
    if spec.family == "array_multiplier":
        return array_multiplier(spec.width)
    return mac_fir(spec.width, spec.taps)


# -- Monte-Carlo evaluation ----------------------------------------------------


@dataclass
class McEvaluation:
    design_id: str
    worst_cpd_ps: float
    mean_cpd_ps: float
    std_cpd_ps: float
    nmed: float
    violations: int  # libraries with CPD > baseline_clock_ps
    count: int
    seed: int
    baseline_clock_ps: float


def monte_carlo_evaluate(
    n: Netlist,
    vlib: VariationLibrary,
    count: int,
    seed: int,
    baseline_clock_ps: float,
    ds: SimulationDataset,
    reference: Netlist | None = None,
    rho=None,
    design_id: str = "design",
    *,
    delays: np.ndarray | None = None,
    reference_values=None,
) -> McEvaluation:
    """CPD statistics over `count` sampled libraries plus functional NMED.

    Library seeds run seed..seed+count-1, so evaluations of different
    designs against the same (seed, count) share process conditions
    library-by-library.  `reference` supplies the exact netlist for the
    NMED leg; None skips it (nmed = 0), used for the baseline itself.

    `delays` is the `sample_matrix` of those libraries and
    `reference_values` the reference's bus values over `ds`
    (`interpret_values` of its PO bits); None draws or simulates them
    here.  A caller scoring many designs passes both to do that once.
    """
    if count < 1:
        raise HarnessError("count must be >= 1")
    program = compile_timing(n, vlib.arc_index())
    if delays is None:
        delays = sample_matrix(vlib, range(seed, seed + count), rho)
    elif delays.shape != (count, len(vlib.arc_order())):
        raise HarnessError(
            f"delays of shape {delays.shape} for {count} libraries of "
            f"{len(vlib.arc_order())} arcs"
        )
    cpd = cpd_over_delays(program, delays)
    nmed = 0.0
    if reference is not None:
        nmed = simulate_metrics(reference, n, ds, exact_values=reference_values).nmed
    return _mc_result(design_id, cpd, nmed, seed, baseline_clock_ps)


def _mc_result(design_id, cpd, nmed, seed, clock_ps) -> McEvaluation:
    return McEvaluation(
        design_id,
        float(cpd.max()),
        float(cpd.mean()),
        float(cpd.std()),
        nmed,
        int(np.count_nonzero(cpd > clock_ps)),
        cpd.shape[0],
        seed,
        clock_ps,
    )


class MonteCarloFront:
    """`monte_carlo_evaluate(apply_chromosome(n, cs, genes), ...)` for many
    chromosomes of one baseline, without building a netlist per design.

    Each design is the `approx.TieFold` of its chromosome.  `evaluate` times a list of designs in one `timing.stacked_cpds` call
    under the shared library draw `delays`.  It then simulates each
    design's gates, with aliased fanins, over the report dataset `ds` into
    words whose constant and PI rows come from the baseline.

    One buffer serves every call.  It holds the baseline's signal words
    over `ds`, and it is larger if need be.  Its constant and PI words
    stay put.  The rest holds a call's stacked arrivals first, then each
    design's gate words in turn.  `chunk` is the number of designs whose
    arrivals fit in the baseline's gate words, and at least one.  Blocks
    of this size allocated per design fragment the heap and raise the
    peak RSS.  The PO values are read straight from the words
    (`errsim.interpret_rows`), so no PO bit matrix is made either.  After
    construction the front needs nothing of `ds`.
    """

    def __init__(
        self,
        n: Netlist,
        cs: CandidateSet,
        vlib: VariationLibrary,
        ds: SimulationDataset,
        delays: np.ndarray,
        seed: int,
        clock_ps: float,
    ):
        ev = Evaluator(n)
        p = ev.program
        self._fold = TieFold(p, cs)
        self._timing = compile_timing(n, vlib.arc_index())
        first = self._fold.first_gate
        self._shape = (p.n_signals, (ds.n_vectors + 63) // 64)
        size = self._shape[0] * self._shape[1]
        self._head = first * self._shape[1]  # GND, VDD and the PI words
        self._arrival_row = 2 * self._timing.n_nets  # float64s per stacked row
        count = delays.shape[0]
        self.chunk = max(1, (size - self._head) // (self._arrival_row * count))
        self._buf = np.empty(
            max(size, self._head + self._arrival_row * count * self.chunk), np.uint64
        )
        words = ev.signal_words(ds, out=self._buf)
        self._n_vectors = ds.n_vectors
        self._signed = ds.signed
        self._exact = interpret_rows(words, p.po_index, ds.n_vectors, ds.signed)
        self._logic = p
        self._fanins = np.stack([p.in0, p.in1, p.in2], axis=1)
        # timing net rows are logic rows less GND and VDD, and gate gi
        # drives net |PIs| + gi
        self._edge_gate = self._timing.dst - len(n.inputs)
        self._delays = delays
        self._seed = seed
        self._clock = clock_ps

    def evaluate(self, designs: list[tuple[str, np.ndarray]]) -> list[McEvaluation]:
        """The `McEvaluation` of each (design_id, validated genes)."""
        edge_on, forwards, po_rows, gates, aliases = zip(
            *(self._design(genes) for _, genes in designs)
        )
        # the arrivals go after the constant and PI words, which stay put
        arrivals = self._buf[self._head :].view(np.float64)
        rows = len(designs) * self._delays.shape[0]
        cpds = stacked_cpds(
            self._timing,
            np.array(edge_on),
            forwards,
            po_rows,
            self._delays,
            arrivals if rows * self._arrival_row <= arrivals.size else None,
        )
        return [
            _mc_result(d, cpd, self._nmed(g, alias), self._seed, self._clock)
            for (d, _), cpd, g, alias in zip(designs, cpds, gates, aliases)
        ]

    def _design(self, genes):
        """(edge_on, forward edges, PO net rows, kept gates, alias) of one
        chromosome, over the baseline's timing and logic rows.  POs are read
        through the alias, so a tied net or PI never counts as one, and the
        arrivals of the gates that no longer reach a PO are never read."""
        p = self._logic
        fold = self._fold(genes)
        alias = np.array(fold.alias, dtype=np.int32)
        kept = np.ones(len(p.ops), dtype=bool)
        kept[fold.dropped] = False
        t = self._timing
        # an edge is on when its gate is kept and its source is not a constant
        edge_on = kept[self._edge_gate] & (alias[t.src + 2] >= 2)
        # a dropped gate aliased to a net forwards that net's arrivals
        out = p.out[fold.dropped]
        out = out[alias[out] >= 2]
        forwards = np.column_stack([alias[out] - 2, out - 2])
        po = alias[p.po_index]
        driven = np.unique(po[po >= 2]) - 2
        return edge_on, forwards, driven, np.flatnonzero(kept), alias

    def _nmed(self, gates: np.ndarray, alias: np.ndarray) -> float:
        """NMED of one design: its words are the baseline's constant and PI
        rows, then one row per kept gate."""
        p = self._logic
        first = self._fold.first_gate
        rows = np.zeros(p.n_signals, dtype=np.int64)  # word row per logic row
        rows[:first] = np.arange(first)
        out = first + np.arange(gates.size)
        rows[p.out[gates]] = out
        fan = rows[alias[self._fanins[gates]]]
        words = self._buf[: self._shape[0] * self._shape[1]].reshape(self._shape)
        _kernels.eval_words(p.ops[gates], fan[:, 0], fan[:, 1], fan[:, 2], out, words)
        po = rows[alias[p.po_index]]
        approx = interpret_rows(words, po, self._n_vectors, self._signed)
        return _metrics_from_values(self._exact, approx, len(po)).nmed


def stale_nmed_bound(
    n: Netlist,
    vlib: VariationLibrary,
    count: int,
    seed: int,
    clock_ps: float,
    ds: SimulationDataset,
    rho=None,
) -> tuple[float, np.ndarray]:
    """Worst stale-value NMED over sampled libraries at a fixed clock.

    For each library, POs whose arrival exceeds the clock go stale
    (previous vector's value); returns (max NMED, per-library NMED array).
    """
    program = compile_timing(n, vlib.arc_index())
    delays = sample_matrix(vlib, range(seed, seed + count), rho)
    late = program.po_arrivals(program.forward(delays)) > clock_ps
    exact_bits = Evaluator(n).po_bits(ds)
    exact = interpret_values(exact_bits, ds.signed)
    per_lib = np.zeros(count, dtype=np.float64)
    cache: dict[bytes, float] = {}
    for k in range(count):
        key = late[k].tobytes()
        if key not in cache:
            if not late[k].any():
                cache[key] = 0.0
            else:
                stale = stale_bits(exact_bits, late[k])
                cache[key] = _metrics_from_bits(exact, stale, ds.signed).nmed
        per_lib[k] = cache[key]
    return float(per_lib.max(initial=0.0)), per_lib


def pareto_filter(
    designs: list[McEvaluation],
    baseline: McEvaluation,
    baseline_worstcase_nmed: float,
) -> list[McEvaluation]:
    """Designs beating the baseline clock in the worst library and the
    worst-case baseline error, then nondominated on (nmed, worst_cpd)."""
    clock = baseline.baseline_clock_ps
    kept = [
        d
        for d in designs
        if d.worst_cpd_ps < clock and d.nmed < baseline_worstcase_nmed
    ]
    idx = pareto_front_indices([(d.nmed, d.worst_cpd_ps) for d in kept])
    return [kept[i] for i in idx]


# -- run-directory pipeline ----------------------------------------------------

_MC_FIELDS = (
    "design_id", "worst_cpd_ps", "mean_cpd_ps", "std_cpd_ps", "nmed",
    "violations", "count", "seed", "baseline_clock_ps",
)
_FRONT_FIELDS = ("nmed", "mu_cpd_eff", "sigma_cpd", "mu_cpd", "confidence", "genes")


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _mc_row(e: McEvaluation):
    return [
        e.design_id, _fmt(e.worst_cpd_ps), _fmt(e.mean_cpd_ps), _fmt(e.std_cpd_ps),
        _fmt(e.nmed), str(e.violations), str(e.count), str(e.seed),
        _fmt(e.baseline_clock_ps),
    ]


def _read_mc_csv(path) -> list[McEvaluation]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return [
        McEvaluation(
            r["design_id"], float(r["worst_cpd_ps"]), float(r["mean_cpd_ps"]),
            float(r["std_cpd_ps"]), float(r["nmed"]), int(r["violations"]),
            int(r["count"]), int(r["seed"]), float(r["baseline_clock_ps"]),
        )
        for r in rows
    ]


def _genes_str(genes) -> str:
    return " ".join(str(int(g)) for g in genes)


@dataclass
class OptimizeArtifacts:
    run_dir: str
    baseline: Netlist
    candidates: CandidateSet
    tmap: dict
    clock_ps: float
    stale_worst_nmed: float
    error_bound: float  # E_max the search ran under
    result: object  # NsgaResult


def _remove_outputs(run_dir: str, patterns) -> None:
    """Delete the files under run_dir matching the glob patterns, in order."""
    for pattern in patterns:
        for path in sorted(glob.glob(os.path.join(glob.escape(run_dir), pattern))):
            if os.path.isfile(path):
                os.remove(path)


def run_optimize(
    run_dir,
    n: Netlist,
    vlib: VariationLibrary,
    cfg: GaConfig,
    cpb_threshold: float = 1e-3,
    threads: int = 1,
    tmap_count: int = 200,
    tmap_seed: int = 1000,
    bound_count: int = 200,
    bound_seed: int = 5000,
    report_vectors: int = 100_000,
    error_bound: float | None = None,
) -> OptimizeArtifacts:
    """Full search stage: derive tmap/candidates/E_max, run NSGA-II, persist.

    error_bound None derives E_max from the stale-value baseline worst-case
    NMED at the nominal clock (always computed and recorded either way).
    `cfg` is not modified.  A re-run replaces every artifact of an earlier
    run in run_dir: config.json, the completion marker, is deleted first and
    written last, and the front, MC and report files of that run are deleted.
    """
    run_dir = str(run_dir)
    if tmap_count < 1:
        raise HarnessError("tmap count must be >= 1")
    if bound_count < 1:
        raise HarnessError("bound count must be >= 1")
    # a derived bound is an NMED, so it is in range; 0.0 stands in until then
    cfg = replace(
        cfg, error_bound=0.0 if error_bound is None else error_bound
    )
    cfg.validate()  # reject bad settings before the run directory is touched
    _remove_outputs(run_dir, (
        "config.json", "fronts/gen_*.csv", "fronts/final_front.csv",
        "fronts/chromosomes/*.chrom", "mc/*", "report/*",
    ))
    for sub in ("netlists", "libs", "fronts", "fronts/chromosomes", "mc", "report"):
        os.makedirs(os.path.join(run_dir, sub), exist_ok=True)

    with open(os.path.join(run_dir, "netlists", "baseline.nl"), "w") as f:
        f.write(write_netlist(n))
    save_variation_library(os.path.join(run_dir, "libs", "variation.json"), vlib)

    clock = sta_arrivals(n, nominal_library(vlib)).cpd
    tmap = annotate_edge_transitions(n, vlib, tmap_count, tmap_seed)
    ssta = ssta_traverse(n, vlib, tmap)
    cs = build_candidates(n, ssta, cpb_threshold)

    ds_report = generate_dataset(n, report_vectors, seed=cfg.seed + 2)
    stale_worst, _ = stale_nmed_bound(
        n, vlib, bound_count, bound_seed, clock, ds_report
    )
    if error_bound is None:
        cfg = replace(cfg, error_bound=stale_worst)

    ds_search = generate_dataset(n, cfg.search_vectors, seed=cfg.seed + 1)
    result = nsga2_run(n, cs, vlib, tmap, ds_search, cfg, threads=threads)

    with open(os.path.join(run_dir, "netlists", "tmap.txt"), "w") as f:
        for (gate, pin), edge in sorted(tmap.items()):
            f.write(f"{gate} {pin} {edge}\n")
    _write_csv(
        os.path.join(run_dir, "netlists", "candidates.csv"),
        ("net", "cpb"),
        [(w, _fmt(ssta.cpb[w])) for w in cs.nets],
    )
    for g, snapshot in enumerate(result.history):
        _write_csv(
            os.path.join(run_dir, "fronts", f"gen_{g:04d}.csv"),
            _FRONT_FIELDS,
            [
                [_fmt(d.nmed), _fmt(d.mu_cpd_eff), _fmt(d.sigma_cpd),
                 _fmt(d.mu_cpd), _fmt(d.confidence), _genes_str(d.genes)]
                for d in snapshot
            ],
        )
    _write_csv(
        os.path.join(run_dir, "fronts", "final_front.csv"),
        ("design_id",) + _FRONT_FIELDS,
        [
            [f"design_{i:03d}", _fmt(d.nmed), _fmt(d.mu_cpd_eff), _fmt(d.sigma_cpd),
             _fmt(d.mu_cpd), _fmt(d.confidence), _genes_str(d.genes)]
            for i, d in enumerate(result.front)
        ],
    )
    for i, d in enumerate(result.front):
        path = os.path.join(run_dir, "fronts", "chromosomes", f"design_{i:03d}.chrom")
        with open(path, "w") as f:
            f.write(format_chromosome(cs, d.genes))

    config = {
        "netlist": n.name,
        "fingerprint": cs.fingerprint,
        "library": vlib.name,
        "rho_default": vlib.rho_default,
        "cpb_threshold": cpb_threshold,
        "candidate_count": len(cs),
        "tmap_count": tmap_count,
        "tmap_seed": tmap_seed,
        "bound_count": bound_count,
        "bound_seed": bound_seed,
        "report_vectors": report_vectors,
        "report_seed": cfg.seed + 2,
        "search_seed": cfg.seed + 1,
        "clock_ps": clock,
        "stale_worst_nmed": stale_worst,
        "feasible_warning": result.feasible_warning,
        "ga": asdict(cfg),
    }
    with open(os.path.join(run_dir, "config.json"), "w") as f:
        json.dump(config, f, indent=2, sort_keys=True)
        f.write("\n")
    return OptimizeArtifacts(
        run_dir, n, cs, tmap, clock, stale_worst, cfg.error_bound, result
    )


def _load_run(run_dir):
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(cfg_path):
        raise HarnessError(f"{run_dir}: missing config.json (run optimize first)")
    with open(cfg_path) as f:
        config = json.load(f)
    with open(os.path.join(run_dir, "netlists", "baseline.nl")) as f:
        baseline = parse_netlist(f.read())
    vlib = load_variation_library(os.path.join(run_dir, "libs", "variation.json"))
    with open(os.path.join(run_dir, "netlists", "candidates.csv"), newline="") as f:
        nets = tuple(r["net"] for r in csv.DictReader(f))
    cs = CandidateSet(nets, config["cpb_threshold"], config["fingerprint"])
    if netlist_fingerprint(baseline) != cs.fingerprint:
        raise HarnessError(f"{run_dir}: baseline netlist does not match candidates")
    return config, baseline, vlib, cs


def run_evaluate(run_dir, mc_count: int = 1000, mc_seed: int = 9000):
    """Monte-Carlo evaluation of the stored front against the baseline.

    Scores exactly the designs listed in fronts/final_front.csv, in that
    order, so chromosome files left behind by an earlier run are ignored.
    The libraries are drawn and the baseline's exact outputs simulated
    once, and shared by every design.  The designs go through
    `MonteCarloFront`, `chunk` at a time; each gets the numbers
    `monte_carlo_evaluate(apply_chromosome(...))` gives it.
    """
    if mc_count < 1:  # before the report of an earlier evaluate is removed
        raise HarnessError("count must be >= 1")
    run_dir = str(run_dir)
    config, baseline, vlib, cs = _load_run(run_dir)
    _remove_outputs(run_dir, ("report/*",))  # the report of earlier MC results
    clock = config["clock_ps"]
    ds = generate_dataset(baseline, config["report_vectors"], config["report_seed"])
    delays = sample_matrix(vlib, range(mc_seed, mc_seed + mc_count))

    base_eval = monte_carlo_evaluate(
        baseline, vlib, mc_count, mc_seed, clock, ds, design_id="baseline",
        delays=delays,
    )
    front = MonteCarloFront(baseline, cs, vlib, ds, delays, mc_seed, clock)
    del ds  # the front keeps the PI words it needs
    with open(os.path.join(run_dir, "fronts", "final_front.csv"), newline="") as f:
        design_ids = [r["design_id"] for r in csv.DictReader(f)]
    evals = []
    for start in range(0, len(design_ids), front.chunk):
        chunk = [
            (design_id, load_chromosome(
                os.path.join(run_dir, "fronts", "chromosomes", f"{design_id}.chrom"), cs
            ))
            for design_id in design_ids[start : start + front.chunk]
        ]
        evals += front.evaluate(chunk)
    _write_csv(
        os.path.join(run_dir, "mc", "baseline.csv"), _MC_FIELDS, [_mc_row(base_eval)]
    )
    _write_csv(
        os.path.join(run_dir, "mc", "designs.csv"),
        _MC_FIELDS,
        [_mc_row(e) for e in evals],
    )
    meta = {
        "mc_count": mc_count,
        "mc_seed": mc_seed,
        "clock_ps": clock,
        "stale_worst_nmed": config["stale_worst_nmed"],
        "report_vectors": config["report_vectors"],
    }
    with open(os.path.join(run_dir, "mc", "meta.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    return base_eval, evals


def run_report(run_dir) -> list[McEvaluation]:
    """Distill MC results into the report tables; returns the filtered front."""
    run_dir = str(run_dir)
    mc_dir = os.path.join(run_dir, "mc")
    for req in ("baseline.csv", "designs.csv", "meta.json"):
        if not os.path.exists(os.path.join(mc_dir, req)):
            raise HarnessError(f"{run_dir}: missing mc/{req} (run evaluate first)")
    with open(os.path.join(mc_dir, "meta.json")) as f:
        meta = json.load(f)
    baseline = _read_mc_csv(os.path.join(mc_dir, "baseline.csv"))[0]
    designs = _read_mc_csv(os.path.join(mc_dir, "designs.csv"))
    bound = meta["stale_worst_nmed"]

    front = pareto_filter(designs, baseline, bound)
    front_ids = {d.design_id for d in front}

    def reductions(d: McEvaluation):
        cpd_red = 100.0 * (1.0 - d.mean_cpd_ps / baseline.mean_cpd_ps)
        std_red = (
            100.0 * (1.0 - d.std_cpd_ps / baseline.std_cpd_ps)
            if baseline.std_cpd_ps > 0.0
            else 0.0
        )
        return cpd_red, std_red

    report_dir = os.path.join(run_dir, "report")
    os.makedirs(report_dir, exist_ok=True)

    header = _MC_FIELDS + ("cpd_reduction_pct", "std_reduction_pct")
    rows = []
    for d in designs:
        cpd_red, std_red = reductions(d)
        rows.append(_mc_row(d) + [_fmt(cpd_red), _fmt(std_red)])
    _write_csv(os.path.join(report_dir, "designs.csv"), header, rows)

    rows = []
    for d in front:
        cpd_red, std_red = reductions(d)
        rows.append(_mc_row(d) + [_fmt(cpd_red), _fmt(std_red)])
    _write_csv(os.path.join(report_dir, "front.csv"), header, rows)

    selected = min(front, key=lambda d: (d.nmed, d.design_id), default=None)
    rows = []
    if selected is not None:
        cpd_red, std_red = reductions(selected)
        rows.append(_mc_row(selected) + [_fmt(cpd_red), _fmt(std_red)])
    _write_csv(os.path.join(report_dir, "selected.csv"), header, rows)

    rows = []
    for d in front:
        ratio = bound / d.nmed if d.nmed > 0.0 else math.inf
        rows.append([d.design_id, _fmt(d.nmed), _fmt(bound), _fmt(ratio)])
    _write_csv(
        os.path.join(report_dir, "ratio.csv"),
        ("design_id", "nmed", "baseline_worstcase_nmed", "nmed_ratio"),
        rows,
    )

    rows = [["baseline", _fmt(baseline.nmed), _fmt(baseline.worst_cpd_ps), "0"]]
    for d in designs:
        rows.append(
            [d.design_id, _fmt(d.nmed), _fmt(d.worst_cpd_ps),
             "1" if d.design_id in front_ids else "0"]
        )
    _write_csv(
        os.path.join(report_dir, "pareto.csv"),
        ("design_id", "nmed", "worst_cpd_ps", "on_front"),
        rows,
    )

    with open(os.path.join(run_dir, "config.json")) as f:
        config = json.load(f)
    config["mc"] = meta
    with open(os.path.join(report_dir, "config"), "w") as f:
        json.dump(config, f, indent=2, sort_keys=True)
        f.write("\n")
    return front
