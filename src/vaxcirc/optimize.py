"""Multi-objective chromosome search (NSGA-II) and a greedy pruning baseline.

Objectives per design: functional NMED, confidence-penalized mean CPD, and
CPD standard deviation, all from the statistical traversal.  Feasibility is
a hard NMED bound handled through constrained dominance.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .approx import (
    GENE_EXACT,
    CandidateSet,
    require_fingerprint,
    tie_nets,
    validate_genes,
)
from .approx import apply_chromosome  # noqa: F401  perfbench's tracer wraps this name
from .celllib import SampledLibrary, VariationLibrary
from .errsim import (
    Evaluator,
    SimulationDataset,
    _metrics_from_bits,
    interpret_values,
    unpack_bits,
    unpack_rows,
)
from .netlist import CONSTANT_NETS, FOLD_TABLE, GND, VDD, Netlist, depth_to_output
from .timing import (
    arc_rv,
    extract_critical_path,
    po_endpoint,
    rv_sum,
    running_winner,
    ssta_traverse,
    sta_arrivals,
)


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
        if self.confidence_penalty < 0.0:
            raise ValueError("confidence_penalty must be >= 0")
        if not (0.0 <= self.error_bound <= 1.0):
            raise ValueError("error_bound outside [0, 1]")
        if self.search_vectors < 1:
            raise ValueError("search_vectors must be >= 1")


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


class SearchProgram:
    """One search problem, compiled once over the baseline's signal rows.

    `score` gives exactly what `apply_chromosome` -> `Evaluator` ->
    `ssta_traverse` give for a chromosome, without building a netlist.
    Rows are `compile_logic`'s, so row 0 is GND and row 1 is VDD.  One
    topological pass turns the tie set into a per-row alias (GND, VDD, an
    upstream row or the row itself) by `netlist.FOLD_TABLE`, and re-times
    each gate it keeps with the running-winner rule of `ssta_traverse`.
    The pass visits only the fanout of the tied nets and, once any net is
    tied, of the baseline's own GND/VDD readers, since the reference folds
    those too.  Every other gate keeps its baseline arrival and signal
    words; the kept gates the pass visits are re-simulated over a copy of
    the baseline's words.
    """

    def __init__(
        self,
        n: Netlist,
        cs: CandidateSet,
        lib: VariationLibrary,
        tmap: dict,
        ds: SimulationDataset,
    ):
        require_fingerprint(n, cs)
        ev = Evaluator(n)
        p = ev.program
        self._words = ev.signal_words(ds)
        self._n_vectors = ds.n_vectors
        self._signed = ds.signed
        self._exact = interpret_values(
            unpack_rows(self._words, p.po_index, ds.n_vectors), ds.signed
        )
        self._po_rows = p.po_index.tolist()
        self._cand_rows = np.array([p.signal_index[w] for w in cs.nets], np.int64)
        self._ops = p.ops
        self._out = p.out
        self._outs = p.out.tolist()
        gates = n.topological_order()
        self._fanins = [
            tuple(p.signal_index[g.fanin[pin]] for pin in g.cell.input_pins)
            for g in gates
        ]
        self._folds = [FOLD_TABLE[g.kind] for g in gates]
        self._arcs = [
            tuple(
                None if g.fanin[pin] in CONSTANT_NETS
                else arc_rv(lib, g.kind, pin, tmap[(g.name, pin)])
                for pin in g.cell.input_pins
            )
            for g in gates
        ]
        self._readers: list[list[int]] = [[] for _ in range(p.n_signals)]
        for gi, fanin in enumerate(self._fanins):
            for row in set(fanin):
                self._readers[row].append(gi)
        self._const_readers = sorted(set(self._readers[0]) | set(self._readers[1]))
        base = ssta_traverse(n, lib, tmap)
        self._arrivals = [base.arrivals.get(net) for net in p.signal_index]
        # Two threads may score one new chromosome at once; both store the
        # same value, so the race costs time, never correctness.
        self._memo: dict[bytes, tuple[float, float, float, float]] = {}

    def score(self, genes: np.ndarray) -> tuple[float, float, float, float]:
        """(nmed, mu_cpd, sigma_cpd, confidence) of a validated chromosome,
        memoized by its gene bytes."""
        key = genes.tobytes()
        scored = self._memo.get(key)
        if scored is None:
            scored = self._memo[key] = self._score(genes)
        return scored

    def _score(self, genes: np.ndarray) -> tuple[float, float, float, float]:
        alias = list(range(len(self._arrivals)))
        arrivals = list(self._arrivals)
        dirty = bytearray(len(self._fanins))
        hot = np.flatnonzero(genes != GENE_EXACT)
        # a GND gene (0) and a VDD gene (1) are also the GND and VDD rows
        for row, const in zip(self._cand_rows[hot].tolist(), genes[hot].tolist()):
            alias[row] = const
            for gi in self._readers[row]:
                dirty[gi] = 1
        if hot.size:
            for gi in self._const_readers:
                dirty[gi] = 1

        kept: list[int] = []
        kept_fanins: list[list[int]] = []
        for gi, fanin in enumerate(self._fanins):
            if not dirty[gi]:
                continue
            out = self._outs[gi]
            if alias[out] != out:
                continue  # a tied net: its driver is dropped, never folded
            for reader in self._readers[out]:
                dirty[reader] = 1
            rows = [alias[r] for r in fanin]
            target = self._folds[gi][tuple([r if r < 2 else 2 for r in rows])]
            if target is not None:
                alias[out] = (0, 1, *rows)[target]
                continue
            pin, rv = running_winner(
                (k, arrivals[r]) for k, r in enumerate(rows) if arrivals[r] is not None
            )
            arrivals[out] = rv_sum(rv, self._arcs[gi][pin])
            kept.append(gi)
            kept_fanins.append(rows)

        words = self._words
        if kept:
            words = words.copy()
            # pins a gate lacks read row 0, as in compile_logic
            fan = np.array([(rows + [0, 0])[:3] for rows in kept_fanins], np.int32)
            _kernels.eval_words(
                self._ops[kept], fan[:, 0], fan[:, 1], fan[:, 2], self._out[kept], words
            )
        po = [alias[r] for r in self._po_rows]
        approx_bits = unpack_rows(words, po, self._n_vectors)
        metrics = _metrics_from_bits(self._exact, approx_bits, self._signed)
        rvs = [arrivals[r] for r in dict.fromkeys(po) if arrivals[r] is not None]
        _, cpd, confidence = po_endpoint(rvs)
        return metrics.nmed, cpd.mu, cpd.sigma, confidence


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
        program = SearchProgram(n, cs, lib, tmap, ds)
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


def mutate(
    genes, cs: CandidateSet, depth_map: dict[str, int], cfg: GaConfig, rng
) -> np.ndarray:
    """Depth-weighted per-gene mutation.

    P(mutate gene) = base * (d+1)/(D_max+1) with d the candidate net's
    gate-depth to the nearest PO, so genes near outputs move rarely.  A
    mutated gene resamples uniformly from the two other values.
    """
    genes = np.asarray(genes, dtype=np.int8)
    n = genes.shape[0]
    if n == 0:
        return genes.copy()
    depths = np.array([depth_map[w] for w in cs.nets], dtype=np.float64)
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
    n: Netlist,
    cs: CandidateSet,
    lib: VariationLibrary,
    tmap: dict,
    ds: SimulationDataset,
    cfg: GaConfig,
    threads: int = 1,
) -> NsgaResult:
    """Standard NSGA-II over chromosomes; deterministic for a given seed.

    All stochastic choices happen sequentially in the main thread;
    individual evaluations are pure, so the thread count can only change
    timing, never results.  The returned front is the archive of feasible
    nondominated designs over the whole run (elitist: it never regresses).
    """
    cfg.validate()
    depth_map = depth_to_output(n)
    program = SearchProgram(n, cs, lib, tmap, ds)

    def evaluate_all(gene_rows: list[np.ndarray]) -> list[EvaluatedDesign]:
        def one(g):
            return evaluate_individual(n, cs, g, lib, tmap, ds, cfg, program)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(one, gene_rows))
        return [one(g) for g in gene_rows]

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
            children.append(mutate(c1, cs, depth_map, cfg, rng))
            if len(children) < cfg.population:
                children.append(mutate(c2, cs, depth_map, cfg, rng))
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
