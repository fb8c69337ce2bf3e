"""Multi-objective chromosome search (NSGA-II) and a greedy pruning baseline.

Objectives per design: functional NMED, confidence-penalized mean CPD, and
CPD standard deviation, all from the statistical traversal.  Feasibility is
a hard NMED bound handled through constrained dominance.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .approx import CandidateSet, FoldBatch, TieFold, tie_nets, validate_genes
from .approx import apply_chromosome  # noqa: F401  perfbench's tracer wraps this name
from .celllib import SampledLibrary, VariationLibrary
from .errsim import Evaluator, SimulationDataset, nmed_words, unpack_bits
from .errsim import _metrics_from_bits  # noqa: F401  perfbench's tracer wraps this name
from .netlist import CONSTANT_NETS, GND, VDD, Netlist, depth_to_output
from .timing import (
    DelayRV,
    arc_rv,
    extract_critical_path,
    po_endpoint,
    running_winners,
    sta_arrivals,
)
from .timing import ssta_traverse  # noqa: F401  perfbench's tracer wraps this name


@dataclass
class GaConfig:
    population: int = 100
    generations: int = 100
    crossover_prob: float = 0.9
    base_mutation_rate: float | None = None  # None: 2/|genes|
    init_exact_prob: float = 0.9
    confidence_penalty: float = 0.1
    error_bound: float = 1.0
    seed: int = 0
    search_vectors: int = 10_000

    def validate(self):
        if self.population < 2 or self.population % 2:
            raise ValueError("population must be an even count >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not (0.0 <= self.crossover_prob <= 1.0):
            raise ValueError("crossover_prob outside [0, 1]")
        if self.base_mutation_rate is not None and not (
            0.0 < self.base_mutation_rate <= 1.0
        ):
            raise ValueError("base_mutation_rate outside (0, 1]")
        if not (0.0 <= self.init_exact_prob <= 1.0):
            raise ValueError("init_exact_prob outside [0, 1]")
        if not (0.0 <= self.confidence_penalty < math.inf):
            raise ValueError("confidence_penalty must be finite and >= 0")
        if not (0.0 <= self.error_bound <= 1.0):
            raise ValueError("error_bound outside [0, 1]")
        if self.search_vectors < 1:
            raise ValueError("search_vectors must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EvaluatedDesign:
    genes: np.ndarray
    nmed: float
    mu_cpd: float
    sigma_cpd: float
    confidence: float
    mu_cpd_eff: float
    feasible: bool
    violation: float  # max(0, nmed - error_bound)
    rank: int = -1
    crowding: float = 0.0

    @property
    def objectives(self) -> tuple[float, float, float]:
        return (self.nmed, self.mu_cpd_eff, self.sigma_cpd)

    def key(self):
        return self.genes.tobytes()


def initialize_population(cfg: GaConfig, cs: CandidateSet) -> np.ndarray:
    """(population, |genes|) int8; genes exact with init_exact_prob, else 0/1."""
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 0])
    shape = (cfg.population, len(cs))
    exact = rng.random(shape) < cfg.init_exact_prob
    ties = rng.integers(0, 2, size=shape, dtype=np.int8)
    return np.where(exact, np.int8(-1), ties)


# Bytes of the chromosomes' signal words one `SearchProgram` simulates at once.
_STACK_BYTES = 8 << 20


class SearchProgram:
    """One search problem over the signal rows of the baseline's `Evaluator`
    `ev`, which it shares with the other consumers of that baseline.

    `score_batch` gives exactly what `apply_chromosome` -> `Evaluator` ->
    `ssta_traverse` give for each of many chromosomes, without building a
    netlist.  Rows are `compile_logic`'s, so row 0 is GND and row 1 is VDD.
    The baseline's `approx.TieFold` turns each tie set into a per-row alias
    and the cone of kept gates it visited.  Walking the baseline level by
    level, with one vector step per level over every chromosome and gate
    of the level, `score_batch` times every gate from the PIs with the
    running-winner rule of `ssta_traverse` (`timing.running_winners`),
    reading fanins through the alias, and re-simulates the cones of
    `chunk` chromosomes at a time into a stack of word slots; every other
    gate's words are read from the baseline's.
    """

    def __init__(
        self,
        ev: Evaluator,
        cs: CandidateSet,
        lib: VariationLibrary,
        tmap: dict,
        ds: SimulationDataset,
    ):
        p = ev.program
        self._fold = TieFold(p, cs)
        shape = (p.n_signals, (ds.n_vectors + 63) // 64)
        self.chunk = max(1, _STACK_BYTES // (8 * shape[0] * shape[1]))
        # `chunk` slots, then the baseline's words.  An anonymous map, which
        # holds only the pages written and is unmapped when freed.  Freeing a
        # malloc block this large would raise glibc's mmap threshold to its
        # size, so the arrays a later `run_evaluate` allocates would stay on
        # the heap: +8 MB peak RSS on array_multiplier(16).
        self._stack = np.frombuffer(
            mmap.mmap(-1, 8 * (self.chunk + 1) * shape[0] * shape[1]), dtype=np.uint64
        ).reshape(self.chunk + 1, *shape)
        words = ev.signal_words(ds, out=self._stack[-1])
        self._n_vectors = ds.n_vectors
        self._signed = ds.signed
        self._exact = words[p.po_index]
        self._pi_rows = p.pi_index
        self._po_rows = p.po_index
        # per (gate, pin): the arc mean and variance; 0 for a constant pin
        self._arc_mu = np.zeros((len(p.ops), 3))
        self._arc_var = np.zeros((len(p.ops), 3))
        for gi, g in enumerate(p.netlist.topological_order()):
            for k, pin in enumerate(g.cell.input_pins):
                if g.fanin[pin] not in CONSTANT_NETS:
                    rv = arc_rv(lib, g.kind, pin, tmap[(g.name, pin)])
                    self._arc_mu[gi, k], self._arc_var[gi, k] = rv.mu, rv.var
        self._memo: dict[bytes, tuple[float, float, float, float]] = {}

    def score(self, genes: np.ndarray) -> tuple[float, float, float, float]:
        """(nmed, mu_cpd, sigma_cpd, confidence) of a validated chromosome,
        memoized by its gene bytes."""
        self.score_batch(genes[None])
        return self._memo[genes.tobytes()]

    def score_batch(self, genes: np.ndarray):
        """Score and memoize each row of validated chromosomes `genes` whose
        gene bytes are not memoized yet, each distinct row once."""
        new = {}
        for row in genes:
            key = row.tobytes()
            if key not in self._memo:
                new[key] = row
        if not new:
            return
        fold = self._fold.batch(np.array(list(new.values())))
        mu, var, has = self._ssta(fold)
        po = fold.alias[:, self._po_rows]
        for b, (key, nmed) in enumerate(zip(new, self._nmeds(fold))):
            rows = [r for r in dict.fromkeys(po[b].tolist()) if has[b, r]]
            rvs = map(DelayRV, mu[b, rows].tolist(), var[b, rows].tolist())
            _, cpd, confidence = po_endpoint(list(rvs))
            self._memo[key] = (nmed, cpd.mu, cpd.sigma, confidence)

    def _ssta(self, fold: FoldBatch):
        """(mu, var, has) per (chromosome, row): the arrival of each row's
        net, `has` False where it has none (a constant, or a gate whose
        fanins all are).  A dropped gate's row is timed too, but no one
        reads it: readers go through the alias."""
        shape = fold.alias.shape
        mu = np.zeros(shape)
        var = np.zeros(shape)
        has = np.zeros(shape, dtype=bool)
        has[:, self._pi_rows] = True
        at = np.arange(shape[0])[:, None, None]
        for lv in self._fold.levels:
            fanin = fold.alias[:, lv.fanin]
            # a pin the gate lacks reads GND, which has no arrival
            pin, wmu, wvar = running_winners(mu[at, fanin], var[at, fanin], has[at, fanin])
            k = np.maximum(pin, 0)
            mu[:, lv.out] = wmu + self._arc_mu[lv.gates, k]
            var[:, lv.out] = wvar + self._arc_var[lv.gates, k]
            has[:, lv.out] = pin >= 0
        return mu, var, has

    def _nmeds(self, fold: FoldBatch) -> list[float]:
        """NMED per chromosome: its cone simulated into one of the `chunk`
        slots, `chunk` chromosomes at a time, with one gather, gate
        op and scatter per (level, op code), then their PO words scored
        against the baseline's in one `errsim.nmed_words` call."""
        n_rows = self._stack.shape[1]
        flat = self._stack.reshape(-1, self._stack.shape[2])
        # flat row of each logic row: in a chromosome's slot for its cone
        # gates, else in the baseline's
        own = (np.arange(self.chunk) * n_rows)[:, None] + np.arange(n_rows)
        base = (len(self._stack) - 1) * n_rows + np.arange(n_rows)
        first_gate = self._fold.first_gate
        nmeds = []
        for start in range(0, fold.alias.shape[0], self.chunk):
            alias = fold.alias[start : start + self.chunk]
            cone = fold.cone[start : start + self.chunk]
            at = np.where(np.pad(cone, ((0, 0), (first_gate, 0))), own[: len(alias)], base)
            # flat row that each (chromosome, logic row) reads, through the alias
            src = np.take_along_axis(at, alias, 1)
            offset = own[: len(alias), 0]
            for lv in self._fold.levels:
                gi, ci = np.nonzero(cone[:, lv.gates].T)
                if not gi.size:
                    continue
                bounds = np.searchsorted(gi, lv.bounds)
                for (op, n_pins), lo, hi in zip(lv.ops, bounds, bounds[1:]):
                    if lo == hi:
                        continue
                    c, g = ci[lo:hi], gi[lo:hi]
                    rows = src[c[:, None], lv.fanin[g, :n_pins]]
                    ins = [np.take(flat, rows[:, k], axis=0) for k in range(n_pins)]
                    flat[offset[c] + lv.out[g]] = _kernels.gate_words(op, *ins)
            po = flat[src[:, self._po_rows]]
            nmeds += nmed_words(self._exact, po, self._n_vectors, self._signed)
        return nmeds


def evaluate_individual(
    n: Netlist,
    cs: CandidateSet,
    genes,
    lib: VariationLibrary,
    tmap: dict,
    ds: SimulationDataset,
    cfg: GaConfig,
    program: SearchProgram | None = None,
) -> EvaluatedDesign:
    """Score one chromosome: error, timing and the penalized objective.

    `program` is the `SearchProgram` of these (n, cs, lib, tmap, ds),
    shared by every individual of a run; None compiles one for this call.
    Pure in its inputs.
    """
    genes = validate_genes(cs, genes)
    if program is None:
        program = SearchProgram(Evaluator(n), cs, lib, tmap, ds)
    nmed, mu, sigma, conf = program.score(genes)
    mu_eff = mu * (1.0 + cfg.confidence_penalty * (1.0 - conf))
    violation = max(0.0, nmed - cfg.error_bound)
    return EvaluatedDesign(
        genes.copy(), nmed, mu, sigma, conf, mu_eff, violation == 0.0, violation
    )


# -- dominance machinery ------------------------------------------------------


def _dominance(obj: np.ndarray, violation: np.ndarray) -> np.ndarray:
    """D[i, j] is True when design i constrained-dominates design j.

    Feasible beats infeasible; infeasible designs rank by violation; two
    feasible designs compare by Pareto dominance (minimization).
    """
    a, b = obj[:, None, :], obj[None, :, :]
    v, w = violation[:, None], violation[None, :]
    pareto = np.all(a <= b, axis=2) & np.any(a < b, axis=2)
    return np.where(w > 0, v < w, (v == 0) & pareto)


def nondominated_sort(pop: list[EvaluatedDesign]) -> list[list[int]]:
    """Fronts of indices under constrained dominance; assigns .rank.

    Each front lists its indices in ascending order.
    """
    if not pop:
        return []
    dom = _dominance(
        np.array([d.objectives for d in pop], dtype=np.float64),
        np.array([d.violation for d in pop], dtype=np.float64),
    )
    counts = dom.sum(axis=0)
    fronts = []
    front = np.flatnonzero(counts == 0)
    while front.size:
        for i in front:
            pop[i].rank = len(fronts)
        fronts.append(front.tolist())
        counts -= dom[front].sum(axis=0)
        counts[front] = -1
        front = np.flatnonzero(counts == 0)
    return fronts


def crowding_assign(pop: list[EvaluatedDesign], front: list[int]):
    """Crowding distance over the three objectives; boundaries get inf."""
    for i in front:
        pop[i].crowding = 0.0
    if len(front) <= 2:
        for i in front:
            pop[i].crowding = math.inf
        return
    for m in range(3):
        order = sorted(front, key=lambda i: pop[i].objectives[m])
        lo = pop[order[0]].objectives[m]
        hi = pop[order[-1]].objectives[m]
        pop[order[0]].crowding = math.inf
        pop[order[-1]].crowding = math.inf
        span = hi - lo
        if span <= 0.0:
            continue
        for k in range(1, len(order) - 1):
            prev_v = pop[order[k - 1]].objectives[m]
            next_v = pop[order[k + 1]].objectives[m]
            pop[order[k]].crowding += (next_v - prev_v) / span


def pareto_front_indices(points: list[tuple]) -> list[int]:
    """Indices of nondominated points (minimization, any arity).

    Of several equal points only the first is kept.
    """
    if not points:
        return []
    obj = np.array(points, dtype=np.float64)
    dominated = _dominance(obj, np.zeros(len(points))).any(axis=0)
    equal = np.all(obj[:, None, :] == obj[None, :, :], axis=2)
    duplicate = np.triu(equal, 1).any(axis=0)  # equal to an earlier point
    return np.flatnonzero(~(dominated | duplicate)).tolist()


# -- variation operators ------------------------------------------------------


def mutate(genes, depths: np.ndarray, cfg: GaConfig, rng) -> np.ndarray:
    """Depth-weighted per-gene mutation.

    P(mutate gene) = base * (d+1)/(D_max+1) with d = depths[i], candidate
    i's gate-depth to the nearest PO, so genes near outputs move rarely.  A
    mutated gene resamples uniformly from the two other values.
    """
    genes = np.asarray(genes, dtype=np.int8)
    n = genes.shape[0]
    if n == 0:
        return genes.copy()
    base = cfg.base_mutation_rate if cfg.base_mutation_rate is not None else 2.0 / n
    p = base * (depths + 1.0) / (depths.max() + 1.0)
    hit = rng.random(n) < p
    alt = rng.integers(0, 2, size=n)
    low = np.where(genes == -1, np.int8(0), np.int8(-1))
    high = np.where(genes == 1, np.int8(0), np.int8(1))
    resampled = np.where(alt == 0, low, high)
    return np.where(hit, resampled, genes).astype(np.int8)


def _crossover(a: np.ndarray, b: np.ndarray, cfg: GaConfig, rng):
    if rng.random() >= cfg.crossover_prob or a.shape[0] == 0:
        return a.copy(), b.copy()
    swap = rng.random(a.shape[0]) < 0.5
    c1 = np.where(swap, b, a).astype(np.int8)
    c2 = np.where(swap, a, b).astype(np.int8)
    return c1, c2


def _tournament(pop: list[EvaluatedDesign], rng) -> int:
    i = int(rng.integers(len(pop)))
    j = int(rng.integers(len(pop)))
    a, b = pop[i], pop[j]
    if a.rank != b.rank:
        return i if a.rank < b.rank else j
    if a.crowding != b.crowding:
        return i if a.crowding > b.crowding else j
    return i if rng.random() < 0.5 else j


# -- main loop ----------------------------------------------------------------


@dataclass
class NsgaResult:
    population: list[EvaluatedDesign]
    front: list[EvaluatedDesign]
    feasible_warning: bool
    history: list[list[EvaluatedDesign]] = field(default_factory=list)


def _front_sorted(designs: list[EvaluatedDesign]) -> list[EvaluatedDesign]:
    return sorted(designs, key=lambda d: (d.objectives, d.key()))


def _update_archive(
    archive: list[EvaluatedDesign], new: list[EvaluatedDesign]
) -> list[EvaluatedDesign]:
    merged: dict[bytes, EvaluatedDesign] = {d.key(): d for d in archive}
    for d in new:
        if d.feasible and d.key() not in merged:
            merged[d.key()] = d
    pool = _front_sorted(list(merged.values()))
    points = [d.objectives for d in pool]
    return [pool[i] for i in pareto_front_indices(points)]


def nsga2_run(
    ev: Evaluator,
    cs: CandidateSet,
    lib: VariationLibrary,
    tmap: dict,
    ds: SimulationDataset,
    cfg: GaConfig,
) -> NsgaResult:
    """Standard NSGA-II over chromosomes of the baseline whose `Evaluator`
    is `ev`; deterministic for a given seed.

    All stochastic choices happen sequentially.  Each generation's new
    chromosomes are scored in one `score_batch` call of one `SearchProgram(ev,
    ...)`.  The returned front is the archive of feasible nondominated
    designs over the whole run (elitist: it never regresses).
    """
    cfg.validate()
    n = ev.netlist
    depth_map = depth_to_output(n)
    depths = np.array([depth_map[w] for w in cs.nets], dtype=np.float64)
    program = SearchProgram(ev, cs, lib, tmap, ds)

    def evaluate_all(gene_rows: list[np.ndarray]) -> list[EvaluatedDesign]:
        program.score_batch(np.array(gene_rows))
        return [
            evaluate_individual(n, cs, g, lib, tmap, ds, cfg, program) for g in gene_rows
        ]

    genes0 = initialize_population(cfg, cs)
    pop = evaluate_all([genes0[i] for i in range(cfg.population)])
    archive = _update_archive([], pop)
    history = [list(archive)]

    for gen in range(1, cfg.generations + 1):
        rng = np.random.default_rng([cfg.seed, gen])
        fronts = nondominated_sort(pop)
        for f in fronts:
            crowding_assign(pop, f)
        children: list[np.ndarray] = []
        while len(children) < cfg.population:
            p1 = pop[_tournament(pop, rng)].genes
            p2 = pop[_tournament(pop, rng)].genes
            c1, c2 = _crossover(p1, p2, cfg, rng)
            children.append(mutate(c1, depths, cfg, rng))
            if len(children) < cfg.population:
                children.append(mutate(c2, depths, cfg, rng))
        child_designs = evaluate_all(children)
        combined = pop + child_designs
        fronts = nondominated_sort(combined)
        for f in fronts:
            crowding_assign(combined, f)
        next_pop: list[EvaluatedDesign] = []
        for f in fronts:
            if len(next_pop) + len(f) <= cfg.population:
                next_pop.extend(combined[i] for i in f)
            else:
                room = cfg.population - len(next_pop)
                ranked = sorted(f, key=lambda i: (-combined[i].crowding, i))
                next_pop.extend(combined[i] for i in ranked[:room])
                break
        pop = next_pop
        archive = _update_archive(archive, child_designs)
        history.append(list(archive))

    return NsgaResult(pop, _front_sorted(archive), not archive, history)


# -- greedy pruning baseline --------------------------------------------------


def _min_po_bit(n: Netlist) -> dict[str, int]:
    """Least significant reachable PO position per net."""
    best: dict[str, int] = {}
    for j, po in enumerate(n.outputs):
        if po not in CONSTANT_NETS and j < best.get(po, len(n.outputs)):
            best[po] = j
    for g in reversed(n.topological_order()):
        b = best.get(g.output)
        if b is None:
            continue
        for w in g.fanin.values():
            if w not in CONSTANT_NETS and b < best.get(w, len(n.outputs)):
                best[w] = b
    return best


def greedy_glp(
    n: Netlist, lib_nominal: SampledLibrary, ds: SimulationDataset, target_cpd: float
) -> tuple[Netlist, bool]:
    """Iterative critical-path pruning toward a nominal CPD target.

    Each round scores the critical path's gates by toggle activity times
    output significance (2^b for the least significant reachable PO bit b,
    normalized by the widest bit) and ties the lowest-scoring gate's output
    to its most frequent simulated value (ties favor 0).  Stops when the
    nominal CPD meets the target, or returns (best effort, False) when the
    path has no prunable gate left.
    """
    cur = n
    n_po = len(n.outputs)
    for _ in range(len(n.gates) + 1):
        sta = sta_arrivals(cur, lib_nominal)
        if sta.cpd <= target_cpd:
            return cur, True
        path_gates = []
        seen = set()
        for gate, _pin, _edge in extract_critical_path(sta):
            if gate not in seen:
                seen.add(gate)
                path_gates.append(gate)
        if not path_gates:
            return cur, False
        ev = Evaluator(cur)
        words = ev.signal_words(ds)
        sig_index = ev.program.signal_index
        minbit = _min_po_bit(cur)
        n_vec = ds.n_vectors
        best = None
        by_name = {g.name: g for g in cur.gates}
        for name in path_gates:
            out = by_name[name].output
            bits = unpack_bits(words[sig_index[out]], n_vec)
            if n_vec > 1:
                activity = float(np.count_nonzero(bits[1:] != bits[:-1])) / (n_vec - 1)
            else:
                activity = 0.0
            significance = 2.0 ** minbit.get(out, n_po - 1) / 2.0 ** (n_po - 1)
            score = activity * significance
            if best is None or (score, name) < best[:2]:
                ones = int(np.count_nonzero(bits))
                value = VDD if 2 * ones > n_vec else GND
                best = (score, name, out, value)
        cur = tie_nets(cur, {best[2]: best[3]})
    sta = sta_arrivals(cur, lib_nominal)
    return cur, sta.cpd <= target_cpd
