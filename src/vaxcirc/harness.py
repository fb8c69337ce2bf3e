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
from typing import get_type_hints

import numpy as np

from . import _kernels
from ._compile import TimingProgram, compile_timing, scan_slots
from .approx import (
    CandidateSet,
    TieFold,
    build_candidates,
    exact_chromosome,
    load_chromosome,
    save_chromosome,
)
from .celllib import (
    VariationLibrary,
    check_seeds,
    load_variation_library,
    sample_matrix,
    save_variation_library,
)
from .errsim import Evaluator, SimulationDataset, generate_dataset, mapped_words, nmed_words
from .errsim import simulate_metrics, stale_words
from .netlist import Gate, Netlist, NetlistError, netlist_fingerprint, parse_netlist, write_netlist
from .optimize import GaConfig, nsga2_run, pareto_front_indices
from .timing import _clock_and_tmap, cpd_over_delays, ssta_traverse, stacked_cpds
from .timing import annotate_edge_transitions  # noqa: F401  (perfbench wraps this name)


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
    design_id: str = "design",
) -> McEvaluation:
    """CPD statistics over `count` sampled libraries plus functional NMED.

    Library seeds run seed..seed+count-1, so evaluations of different
    designs against the same (seed, count) share process conditions
    library-by-library.  `reference` supplies the exact netlist for the
    NMED leg; None skips it (nmed = 0), used for the baseline itself.
    """
    if count < 1:
        raise HarnessError("count must be >= 1")
    program = compile_timing(n, vlib.arc_index())
    delays = sample_matrix(vlib, range(seed, seed + count))
    cpd = cpd_over_delays(program, delays)
    nmed = 0.0
    if reference is not None:
        nmed = simulate_metrics(reference, n, ds).nmed
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
    chromosomes of one baseline `n`, without building a netlist per design,
    from `n`'s `Evaluator` `ev` and its `compile_timing` `program`.  Of the
    report dataset `ds` it keeps only the packed PI words.

    `evaluate` folds its designs in one `approx.TieFold.batch` call, scores
    each one's NMED over `ds`, then times them all in one
    `timing.stacked_cpds` call under the shared library draw: the baseline
    over every edge once, each design over its fold cone's edges only,
    reading the baseline's arrivals outside the cone.

    The NMED simulates in linear-scan word slots (`_compile.scan_slots`)
    that `_plan` lays out from the folds.  The baseline runs every gate, and
    keeps to the end only its PO rows and the frontier: the rows some design
    reads through its alias from outside its cone, at a cone gate's pin or
    as a PO.  Outside its cone a design's words are the baseline's, so each
    design then runs only its cone's gates, with aliased fanins, into
    scratch slots laid out once for every design's cone.  The PO words go
    straight to `errsim.nmed_words`.  The timing then reuses that memory as
    its scratch, (gate rows) x words float64s, and sizes its row blocks and
    chunks of designs to fit there.  It is mapped in huge pages
    (`errsim.mapped_words`), not taken from the heap: blocks that large
    fragment the heap and raise the peak RSS, and 4 KB pages fault once each.
    """

    def __init__(
        self, ev: Evaluator, program: TimingProgram, cs: CandidateSet, ds: SimulationDataset,
        seed: int, clock_ps: float,
    ):
        ev._check(ds)
        self._ev = ev
        self._fold = TieFold(ev.program, cs)
        self._timing = program
        self._pi_words = ds.words
        self._ds = (ds.n_vectors, ds.signed)  # what `nmed_words` needs of `ds`
        self._edge_gate = program.dst - self._fold.first_gate
        self._seed, self._clock = seed, clock_ps

    def _plan(self, folds):
        """The NMED's word rows for the designs `folds`: the baseline's slot
        of each signal row; per design, the word row it reads or writes each
        signal row in, a scratch slot after the baseline's inside its cone;
        and the word row count.  The scratch slots come from one `scan_slots`
        over every design's reads inside its cone, deduplicated and by gate,
        so a slot is free only after its row's last reader in any design; a
        read from outside the cone reads GND there."""
        p, alias, cone = self._ev.program, folds.alias, folds.cone
        n = alias.shape[1]
        inside = np.pad(cone, ((0, 0), (self._fold.first_gate, 0)))  # per design, its cone's rows
        d, g = np.nonzero(cone)
        reads = alias[d[:, None], p.fanin[g]]
        own = inside[d[:, None], reads]
        po = alias[:, p.po_index]
        po_own = np.take_along_axis(inside, po, axis=1)
        base, n_base = p.word_slots(np.concatenate([reads[~own], po[~po_own], p.po_index]))
        reads[~own] = 0
        edges = (p.out[g, None].astype(np.int64) * n + reads).ravel()
        edges.sort()  # deduplicated by hand: `np.unique` would import numpy.ma
        edges = np.concatenate([edges[:1], edges[1:][edges[1:] != edges[:-1]]])
        scratch, n_scratch, _ = scan_slots(edges % n, edges // n, po[po_own], (), [0], n)
        return base, np.where(inside, scratch + (n_base - 2), base), n_base + n_scratch - 2

    def evaluate(self, designs: list[tuple[str, np.ndarray]], delays) -> list[McEvaluation]:
        """The `McEvaluation` of each (design_id, validated genes) under the
        library draw `delays`.  POs are read through the alias, so a tied
        net or PI never counts as one, and the arrivals of the gates that no
        longer reach a PO are never read."""
        if not designs:
            return []
        folds = self._fold.batch(np.array([genes for _, genes in designs]))
        p = self._ev.program
        base, where, n_rows = self._plan(folds)
        words = mapped_words(max(n_rows, len(p.ops)), self._pi_words.shape[1], huge=True)
        exact = self._ev.slot_words(self._pi_words, base, words)[base[p.po_index]]
        nmeds, forwards, po_rows = [], [], []
        for rows, alias, dropped, cone in zip(where, folds.alias, folds.dropped, folds.cone):
            gates = np.flatnonzero(cone)
            ins = rows[alias[p.fanin[gates]]].T
            _kernels.eval_words(p.ops[gates], *ins, rows[p.out[gates]], words)
            po = alias[p.po_index]
            nmeds.append(nmed_words(exact, words[rows[po]][:, None], *self._ds)[0])
            po_rows.append(po)
            # a dropped gate aliased to a net forwards that net's arrivals
            out = p.out[dropped]
            out = out[alias[out] >= 2]
            forwards.append(np.column_stack([alias[out], out]))
        # a design times its cone's edges whose source is not a constant
        src = folds.alias[:, self._timing.src]
        timed = folds.cone[:, self._edge_gate] & (src >= 2)
        floats = words.reshape(-1)[: len(p.ops) * words.shape[1]].view(np.float64)
        cpds = stacked_cpds(self._timing, timed, forwards, po_rows, delays, floats)
        return [
            _mc_result(d, cpd, nmed, self._seed, self._clock)
            for (d, _), cpd, nmed in zip(designs, cpds, nmeds)
        ]


def stale_nmed_bound(
    ev: Evaluator,
    program: TimingProgram,
    delays: np.ndarray,
    clock_ps: float,
    ds: SimulationDataset,
) -> tuple[float, np.ndarray]:
    """Worst stale-value NMED over sampled libraries at a fixed clock.

    `ev` and `program` are one netlist's `Evaluator` and `compile_timing`,
    and each row of `delays` is one library's arc delays, as `sample_matrix`
    draws them.  For each library, POs whose arrival exceeds the clock go
    stale (previous vector's value, as `errsim.stale_words` gives it);
    returns (max NMED, per-library NMED array).  Each distinct late pattern
    is scored once, on PO words shifted by one vector.
    """
    program, _ = program.compact(program.po_rows)
    late = program.po_arrivals(program.forward(delays)) > clock_ps
    exact = ev.po_words(ds)
    patterns, which = np.unique(late, axis=0, return_inverse=True)
    nmeds = [
        nmed_words(exact, stale_words(exact, p)[:, None], ds.n_vectors, ds.signed)[0]
        for p in patterns
    ]
    per_lib = np.array(nmeds, dtype=np.float64)[which]
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

# Each run CSV file's columns, mapped to their types, give its header and
# what its reader checks; a None type keeps a column as text that may be empty.
_MC_FIELDS = get_type_hints(McEvaluation)  # mc/baseline.csv and mc/designs.csv
_CANDIDATE_FIELDS = dict(net=str, cpb=float)
_FRONT_FIELDS = dict(  # fronts/gen_*.csv
    nmed=float, mu_cpd_eff=float, sigma_cpd=float, mu_cpd=float, confidence=float, genes=None
)
_FINAL_FRONT_FIELDS = dict(design_id=str, **_FRONT_FIELDS)
# the mc/meta.json keys, with their types, that `report` reads and copies
_META_FIELDS = dict(
    mc_count=int, mc_seed=int, clock_ps=float, stale_worst_nmed=float, report_vectors=int
)
# the config.json keys, with their types, that `evaluate` reads and `report` requires
_RUN_FIELDS = dict(
    cpb_threshold=float, fingerprint=str, clock_ps=float, report_vectors=int,
    report_seed=int, stale_worst_nmed=float, candidate_count=int,
)


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _mc_row(e: McEvaluation) -> list[str]:
    """`e`'s `_MC_FIELDS`, floats by `repr` so that they read back exactly."""
    return [
        _fmt(getattr(e, k)) if kind is float else str(getattr(e, k))
        for k, kind in _MC_FIELDS.items()
    ]


def _front_row(d) -> list[str]:
    """A searched design's `_FRONT_FIELDS`; the genes are space-separated."""
    numbers = [_fmt(getattr(d, k)) for k, kind in _FRONT_FIELDS.items() if kind is float]
    return numbers + [" ".join(map(str, d.genes.tolist()))]


def _require(path, fields, have) -> None:
    """Refuse a run file that lacks one of `fields`."""
    for field_name in fields:
        if field_name not in have:
            raise HarnessError(f"{path}: missing field {field_name!r}")


def _read_csv(path, fields) -> list[dict]:
    """The rows of a run's CSV file, each a dict of the `fields` columns cast
    to their types.  A missing column, a short row, or an empty or
    unparsable typed field is refused."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        _require(path, fields, reader.fieldnames or ())
        rows = [{k: r[k] for k in fields} for r in reader]
    for r in rows:
        for name, kind in fields.items():
            if r[name] is None or (kind and not r[name]):
                raise HarnessError(f"{path}: missing field {name!r}")
            try:
                r[name] = (kind or str)(r[name])
            except ValueError:
                raise HarnessError(f"{path}: field {name!r} is not {kind.__name__}") from None
    return rows


def _read_json(path, fields) -> dict:
    """A run's JSON object, which must hold a value of each `fields` type;
    an int passes for a float, and a bool for neither."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError:
            raise HarnessError(f"{path}: not a JSON file") from None
    _require(path, fields, doc if isinstance(doc, dict) else {})
    for name, kind in fields.items():
        kinds = (int, float) if kind is float else kind
        if isinstance(doc[name], bool) or not isinstance(doc[name], kinds):
            raise HarnessError(f"{path}: field {name!r} is not {kind.__name__}")
    return doc


def _read_mc(path, meta) -> list[McEvaluation]:
    """The rows of an mc/*.csv file; a row that was not evaluated with the
    library count, seed and clock of mc/meta.json `meta` is refused."""
    run = (meta["mc_count"], meta["mc_seed"], meta["clock_ps"])
    rows = [McEvaluation(**r) for r in _read_csv(path, _MC_FIELDS)]
    for e in rows:
        if (e.count, e.seed, e.baseline_clock_ps) != run:
            raise HarnessError(f"{path}: {e.design_id} is not from the run of mc/meta.json")
    return rows


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
    `cfg` is not modified.  `threads` is accepted for compatibility and
    changes neither results nor time: the search scores each generation in
    one thread.  A re-run replaces every artifact of an earlier
    run in run_dir: config.json, the completion marker, is deleted first and
    written last, and the front, MC and report files of that run are deleted.
    """
    run_dir = str(run_dir)
    if tmap_count < 1:
        raise HarnessError("tmap count must be >= 1")
    if bound_count < 1:
        raise HarnessError("bound count must be >= 1")
    check_seeds("tmap seed", tmap_seed, tmap_count)
    check_seeds("bound seed", bound_seed, bound_count)
    if report_vectors < 1:
        raise HarnessError("report vectors must be >= 1")
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

    ev = Evaluator(n)  # the baseline's programs, compiled once for the stage
    program = compile_timing(n, vlib.arc_index())
    clock, tmap = _clock_and_tmap(program, vlib, tmap_count, tmap_seed)
    ssta = ssta_traverse(n, vlib, tmap)
    cs = build_candidates(n, ssta, cpb_threshold)

    ds_report = generate_dataset(n, report_vectors, seed=cfg.seed + 2)
    delays = sample_matrix(vlib, range(bound_seed, bound_seed + bound_count))
    stale_worst, _ = stale_nmed_bound(ev, program, delays, clock, ds_report)
    del ds_report, delays  # only the bound reads them: freed before the search
    if error_bound is None:
        cfg = replace(cfg, error_bound=stale_worst)

    ds_search = generate_dataset(n, cfg.search_vectors, seed=cfg.seed + 1)
    result = nsga2_run(ev, cs, vlib, tmap, ds_search, cfg)

    with open(os.path.join(run_dir, "netlists", "tmap.txt"), "w") as f:
        for (gate, pin), edge in sorted(tmap.items()):
            f.write(f"{gate} {pin} {edge}\n")
    _write_csv(
        os.path.join(run_dir, "netlists", "candidates.csv"),
        _CANDIDATE_FIELDS,
        [(w, _fmt(ssta.cpb[w])) for w in cs.nets],
    )
    # one row per design: the history and the front repeat the same objects
    rows = {id(d): d for snapshot in result.history for d in snapshot}
    rows = {key: _front_row(d) for key, d in rows.items()}
    for g, snapshot in enumerate(result.history):
        _write_csv(
            os.path.join(run_dir, "fronts", f"gen_{g:04d}.csv"),
            _FRONT_FIELDS,
            [rows[id(d)] for d in snapshot],
        )
    _write_csv(
        os.path.join(run_dir, "fronts", "final_front.csv"),
        _FINAL_FRONT_FIELDS,
        [[f"design_{i:03d}", *rows[id(d)]] for i, d in enumerate(result.front)],
    )
    for i, d in enumerate(result.front):
        path = os.path.join(run_dir, "fronts", "chromosomes", f"design_{i:03d}.chrom")
        save_chromosome(path, cs, d.genes)

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
    _write_json(os.path.join(run_dir, "config.json"), config)
    return OptimizeArtifacts(
        run_dir, n, cs, tmap, clock, stale_worst, cfg.error_bound, result
    )


def _load_run(run_dir):
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(cfg_path):
        raise HarnessError(f"{run_dir}: missing config.json (run optimize first)")
    config = _read_json(cfg_path, _RUN_FIELDS)
    path = os.path.join(run_dir, "netlists", "baseline.nl")
    with open(path) as f:
        try:
            baseline = parse_netlist(f.read())
        except NetlistError as e:
            raise HarnessError(f"{path}: {e}") from None
    vlib = load_variation_library(os.path.join(run_dir, "libs", "variation.json"))
    path = os.path.join(run_dir, "netlists", "candidates.csv")
    rows = _read_csv(path, _CANDIDATE_FIELDS)
    if netlist_fingerprint(baseline) != config["fingerprint"]:
        raise HarnessError(f"{run_dir}: baseline netlist does not match candidates")
    if len(rows) != config["candidate_count"]:
        raise HarnessError(f"{path}: {len(rows)} rows, not {config['candidate_count']}")
    known = set(baseline.nets)
    for r in rows:
        if r["net"] not in known:
            raise HarnessError(f"{path}: net {r['net']!r} is not a baseline net")
    nets = tuple(r["net"] for r in rows)
    cs = CandidateSet(nets, config["cpb_threshold"], config["fingerprint"])
    return config, baseline, vlib, cs


def run_evaluate(run_dir, mc_count: int = 1000, mc_seed: int = 9000):
    """Monte-Carlo evaluation of the stored front against the baseline.

    Scores exactly the designs listed in fronts/final_front.csv, in that
    order, so chromosome files left behind by an earlier run are ignored.
    The libraries are drawn and the baseline's exact outputs simulated
    once, and shared by every design.  The baseline, as the all-exact
    chromosome, and the designs go through one `MonteCarloFront.evaluate`
    call; each gets the numbers `monte_carlo_evaluate` gives it.  The
    report and mc/meta.json, the completion marker, of an earlier evaluate
    are removed only once every input is read; mc/meta.json is written last.
    """
    if mc_count < 1:
        raise HarnessError("count must be >= 1")
    check_seeds("mc seed", mc_seed, mc_count)
    run_dir = str(run_dir)
    config, baseline, vlib, cs = _load_run(run_dir)
    path = os.path.join(run_dir, "fronts", "final_front.csv")
    designs = [("baseline", exact_chromosome(cs))]
    for r in _read_csv(path, _FINAL_FRONT_FIELDS):
        chrom = os.path.join(run_dir, "fronts", "chromosomes", f"{r['design_id']}.chrom")
        designs.append((r["design_id"], load_chromosome(chrom, cs)))
    clock = config["clock_ps"]
    ds = generate_dataset(baseline, config["report_vectors"], config["report_seed"])
    program = compile_timing(baseline, vlib.arc_index())
    front = MonteCarloFront(Evaluator(baseline), program, cs, ds, mc_seed, clock)
    del ds  # the front keeps only its PI words
    # drawn once the dataset is gone: the draw and the PI words are all that is
    # alive beside the word memory that `evaluate` maps
    delays = sample_matrix(vlib, range(mc_seed, mc_seed + mc_count))
    base_eval, *evals = front.evaluate(designs, delays)
    _remove_outputs(run_dir, ("mc/meta.json", "report/*"))
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
    _write_json(os.path.join(run_dir, "mc", "meta.json"), meta)
    return base_eval, evals


def run_report(run_dir) -> list[McEvaluation]:
    """Distill MC results into the report tables; returns the filtered front."""
    run_dir = str(run_dir)
    mc_dir = os.path.join(run_dir, "mc")
    for req in ("baseline.csv", "designs.csv", "meta.json"):
        if not os.path.exists(os.path.join(mc_dir, req)):
            raise HarnessError(f"{run_dir}: missing mc/{req} (run evaluate first)")
    config = _read_json(os.path.join(run_dir, "config.json"), _RUN_FIELDS)
    meta = _read_json(os.path.join(mc_dir, "meta.json"), _META_FIELDS)
    path = os.path.join(mc_dir, "baseline.csv")
    rows = _read_mc(path, meta)
    if len(rows) != 1:
        raise HarnessError(f"{path}: {len(rows)} rows, not one")
    baseline = rows[0]
    designs = _read_mc(os.path.join(mc_dir, "designs.csv"), meta)
    bound = meta["stale_worst_nmed"]

    front = pareto_filter(designs, baseline, bound)
    front_ids = {d.design_id for d in front}

    def reduction(value: float, base: float) -> str:
        """Percent below the baseline's `base`; 0.0 when that is 0.0."""
        return _fmt(100.0 * (1.0 - value / base) if base > 0.0 else 0.0)

    def reduction_row(d: McEvaluation):
        return _mc_row(d) + [
            reduction(d.mean_cpd_ps, baseline.mean_cpd_ps),
            reduction(d.std_cpd_ps, baseline.std_cpd_ps),
        ]

    report_dir = os.path.join(run_dir, "report")
    os.makedirs(report_dir, exist_ok=True)

    header = (*_MC_FIELDS, "cpd_reduction_pct", "std_reduction_pct")
    selected = min(front, key=lambda d: (d.nmed, d.design_id), default=None)
    for name, table in (
        ("designs.csv", designs),
        ("front.csv", front),
        ("selected.csv", [] if selected is None else [selected]),
    ):
        _write_csv(os.path.join(report_dir, name), header, map(reduction_row, table))

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

    config["mc"] = meta
    _write_json(os.path.join(report_dir, "config"), config)
    return front
