"""Multi-objective chromosome search (NSGA-II) and a greedy pruning baseline.

Objectives per design: functional NMED, confidence-penalized mean CPD, and
CPD standard deviation, all from the statistical traversal.  Feasibility is
a hard NMED bound handled through constrained dominance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .approx import GENE_EXACT, CandidateSet, FoldBatch, TieFold, tie_nets, validate_genes
from .approx import apply_chromosome  # noqa: F401  perfbench's tracer wraps this name
from .celllib import SampledLibrary, VariationLibrary
from .errsim import Evaluator, SimulationDataset, mapped_words, nmed_words, unpack_bits
from .errsim import _metrics_from_bits  # noqa: F401  perfbench's tracer wraps this name
from .netlist import CONSTANT_NETS, GND, VDD, Netlist, depth_to_output
from .timing import extract_critical_path, po_endpoints, running_winners, sta_arrivals
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


# Bytes of the word slots that one `SearchProgram` fill simulates.
_ARENA_BYTES = 8 << 20

# the words of a GND gene (0) and of a VDD gene (1)
_TIE_WORDS = np.array([0, 2**64 - 1], dtype=np.uint64)


class SearchProgram:
    """One search problem over the signal rows of the baseline's `Evaluator`
    `ev`, which it shares with the other consumers of that baseline.

    `score_batch` gives exactly what `apply_chromosome` -> `Evaluator` ->
    `ssta_traverse` give for each of many chromosomes, without building a
    netlist.  Rows are `compile_logic`'s, so row 0 is GND and row 1 is VDD.
    The baseline's `approx.TieFold` turns each tie set into a per-row alias.
    Walking the fold's gate schedule level by level, with one vector step
    per level over every chromosome and gate of the level, `score_batch`
    times every gate from the PIs with the running-winner rule of
    `ssta_traverse` (`timing.running_winners`), reading fanins through the
    alias.  The NMED needs no fold: a tie is a stuck-at fault, and the fold
    only propagates constants, so a chromosome's PO words are the
    baseline's with each tied row overwritten by its constant (parallel
    fault simulation; Seshu, IEEE Trans. Electronic Computers, 1965).
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
        self._slot, self._n_slots = p.word_slots()
        n_words = (ds.n_vectors + 63) // 64
        self.capacity = max(1, _ARENA_BYTES // (8 * n_words * self._n_slots))  # per fill
        # a fill's slots, then its PO words (`capacity` may be lowered, not
        # raised); a malloc block instead would add 8 MB to `run_evaluate`'s
        # peak RSS on array_multiplier(16)
        self._rows = self._n_slots + len(p.po_index)
        self._arena = mapped_words(self._rows * self.capacity, n_words)
        fanin, out = self._slot[p.fanin].T.tolist(), self._slot[p.out].tolist()
        self._gates = list(zip(p.ops.tolist(), *fanin, out))
        rows = np.array([p.signal_index[w] for w in cs.nets], dtype=np.int64)
        self._by_row = np.argsort(rows)  # the PIs, then the gates in topological order
        self._tie_rows = rows[self._by_row]
        self._exact = ev.po_words(ds)
        self._ds = ds
        self._pi_rows = p.pi_index
        self._po_rows = p.po_index
        # per (gate, pin): the arc mean and variance, as `ssta_traverse` takes
        # them; 0 for a constant pin and a pin the gate lacks, the arc after the last
        index = lib.arc_index()
        arcs = [[len(index)] * 3 for _ in p.ops]
        for row, g in zip(arcs, p.netlist.topological_order()):
            for k, pin in enumerate(g.cell.input_pins):
                if g.fanin[pin] not in CONSTANT_NETS:
                    row[k] = index[(g.kind, pin, tmap[(g.name, pin)])]
        self._arc_mu = np.append(lib.mu_vector(), 0.0)[arcs]
        self._arc_var = np.array([s**2 for s in lib.sigma_vector().tolist()] + [0.0])[arcs]
        self._memo: dict[bytes, tuple[float, float, float, float]] = {}

    def score_batch(self, genes: np.ndarray) -> list[tuple[float, float, float, float]]:
        """(nmed, mu_cpd, sigma_cpd, confidence) of each row of validated
        chromosomes `genes`, in row order.  The rows whose gene bytes are not
        memoized yet are scored, each distinct row once, and memoized."""
        keys = [row.tobytes() for row in genes]
        new = {key: row for key, row in zip(keys, genes) if key not in self._memo}
        if new:
            genes = np.array(list(new.values()))
            fold = self._fold.batch(genes)
            cpds = po_endpoints(*self._ssta(fold), fold.alias[:, self._po_rows])
            self._memo.update(zip(new, zip(self._nmeds(genes), *cpds)))
        return [self._memo[key] for key in keys]

    def _ssta(self, fold: FoldBatch):
        """(mu, var) per (chromosome, row): the arrival of each row's net, a
        -inf mean where it has none (a constant, or a gate whose fanins all
        are).  A dropped gate's row is timed too, but no one reads it:
        readers go through the alias."""
        shape = fold.alias.shape
        mu = np.full(shape, -np.inf)
        mu[:, self._pi_rows] = 0.0
        var = np.zeros(shape)
        at = np.arange(shape[0])[:, None, None]
        f = self._fold
        for lv, n_pins in zip(f.levels, f.level_pins):
            fanin = fold.alias[:, f.fanin[lv, :n_pins]]
            # a pin the gate lacks reads GND, which has no arrival
            pin, wmu, wvar = running_winners(mu[at, fanin], var[at, fanin])
            k = np.maximum(pin, 0)
            gates, out = f.order[lv], f.out[lv]
            mu[:, out] = wmu + self._arc_mu[gates, k]
            var[:, out] = wvar + self._arc_var[gates, k]
        return mu, var

    def _nmeds(self, genes: np.ndarray) -> list[float]:
        """NMED per row of validated chromosomes `genes`, `capacity` rows a
        fill.  A fill's slab is slot-major, (slots, chromosomes, words), so
        each gate is one `gate_words` over every chromosome of the fill:
        GND, VDD and the PI words go in first, each tied PI's row is then
        overwritten for the chromosomes that tie it, and each tied gate's
        row right after the gate runs.  The PO slots are gathered PO-major
        into the fill's tail and scored in one `errsim.nmed_words` call."""
        nmeds = []
        for start in range(0, len(genes), self.capacity):
            chunk = genes[start : start + self.capacity, self._by_row]
            fill = self._arena[: self._rows * len(chunk)].reshape(self._rows, len(chunk), -1)
            slots, po = fill[: self._n_slots], fill[self._n_slots :]
            slots[:2] = _TIE_WORDS[:, None, None]
            slots[self._slot[self._pi_rows]] = self._ds.words[:, None]
            k, c = np.nonzero(chunk.T != GENE_EXACT)  # the ties by row
            rows, words = self._tie_rows[k], _TIE_WORDS[chunk[c, k]][:, None]
            pi = int(np.searchsorted(rows, self._fold.first_gate))
            slots[self._slot[rows[:pi]], c[:pi]] = words[:pi]
            gates, cut = np.unique(rows[pi:] - self._fold.first_gate, return_index=True)
            ties = zip(gates.tolist(), np.split(c[pi:], cut[1:]), np.split(words[pi:], cut[1:]))
            at, chroms, tied = next(ties, (-1, None, None))
            view = list(slots)
            for i, (op, a, b, s, o) in enumerate(self._gates):
                _kernels.gate_words(op, view[a], view[b], view[s], out=view[o])
                if i == at:
                    view[o][chroms] = tied
                    at, chroms, tied = next(ties, (-1, None, None))
            # mode "raise" would gather to a copy
            np.take(slots, self._slot[self._po_rows], axis=0, out=po, mode="clip")
            nmeds += nmed_words(self._exact, po, self._ds.n_vectors, self._ds.signed)
        return nmeds


def _design(genes: np.ndarray, scores, cfg: GaConfig) -> EvaluatedDesign:
    """The design of validated `genes` that `score_batch` scored `scores`."""
    nmed, mu, sigma, conf = scores
    mu_eff = mu * (1.0 + cfg.confidence_penalty * (1.0 - conf))
    violation = max(0.0, nmed - cfg.error_bound)
    return EvaluatedDesign(genes, nmed, mu, sigma, conf, mu_eff, violation == 0.0, violation)


def evaluate_individual(
    n: Netlist,
    cs: CandidateSet,
    genes,
    lib: VariationLibrary,
    tmap: dict,
    ds: SimulationDataset,
    cfg: GaConfig,
) -> EvaluatedDesign:
    """Score one chromosome: error, timing and the penalized objective,
    through a `SearchProgram` compiled for this call.  Pure in its inputs.
    """
    genes = validate_genes(cs, genes).copy()
    program = SearchProgram(Evaluator(n), cs, lib, tmap, ds)
    return _design(genes, program.score_batch(genes[None])[0], cfg)


# -- dominance machinery ------------------------------------------------------


def _dominance(obj: np.ndarray, violation: np.ndarray) -> np.ndarray:
    """D[i, j] is True when design i constrained-dominates design j.

    Feasible beats infeasible; infeasible designs rank by violation; two
    feasible designs compare by Pareto dominance (minimization).
    """
    shape = (len(obj), len(obj))
    no_worse, better = np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)
    for a in obj.T:  # Pareto: no objective worse and one better
        no_worse &= a[:, None] <= a
        better |= a[:, None] < a
    v, w = violation[:, None], violation[None, :]
    return np.where(w > 0, v < w, (v == 0) & no_worse & better)


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


# [alt, gene + 1]: the value a mutated gene takes, the lower (alt 0) or the
# higher (alt 1) of the two values other than its own
_RESAMPLE = np.array([[0, -1, -1], [1, 1, 0]], dtype=np.int8)


def mutation_rates(depths: np.ndarray, cfg: GaConfig) -> np.ndarray:
    """Depth-weighted per-gene mutation rates.

    P(mutate gene) = base * (d+1)/(D_max+1) with d = depths[i], candidate
    i's gate-depth to the nearest PO, so genes near outputs move rarely.
    base is `cfg.base_mutation_rate`, or 2/|genes| when that is None.
    """
    if not depths.size:
        return depths
    base = cfg.base_mutation_rate if cfg.base_mutation_rate is not None else 2.0 / depths.size
    return base * (depths + 1.0) / (depths.max() + 1.0)


def mutate(genes, rates: np.ndarray, rng) -> np.ndarray:
    """Gene i mutates with probability rates[i] (`mutation_rates`); a
    mutated gene resamples uniformly from the two other values."""
    genes = np.asarray(genes, dtype=np.int8)
    n = genes.shape[0]
    if n == 0:
        return genes.copy()
    hit = rng.random(n) < rates
    alt = rng.integers(0, 2, size=n)
    return np.where(hit, _RESAMPLE[alt, genes + 1], genes)


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

    All stochastic choices happen sequentially.  Each generation's designs
    are built from the scores of one `score_batch` call of one
    `SearchProgram(ev, ...)`.  The returned front is the archive of feasible
    nondominated designs over the whole run (elitist: it never regresses).
    """
    cfg.validate()
    depth_map = depth_to_output(ev.netlist)
    rates = mutation_rates(np.array([depth_map[w] for w in cs.nets], dtype=np.float64), cfg)
    program = SearchProgram(ev, cs, lib, tmap, ds)

    def evaluate_all(gene_rows: list[np.ndarray]) -> list[EvaluatedDesign]:
        scores = program.score_batch(np.array(gene_rows))
        return [_design(g, s, cfg) for g, s in zip(gene_rows, scores)]

    pop = evaluate_all(list(initialize_population(cfg, cs)))
    archive = _update_archive([], pop)
    history = [list(archive)]
    for f in nondominated_sort(pop):
        crowding_assign(pop, f)
    cut: list[int] = []  # where in `pop` the last front the survivors cut is

    for gen in range(1, cfg.generations + 1):
        rng = np.random.default_rng([cfg.seed, gen])
        # The survivors keep the ranks their combined sort gave them, which
        # is what sorting them again gives, since a front they take whole
        # keeps all its dominators; only the cut front's crowding changes.
        crowding_assign(pop, cut)
        children: list[np.ndarray] = []
        while len(children) < cfg.population:
            p1 = pop[_tournament(pop, rng)].genes
            p2 = pop[_tournament(pop, rng)].genes
            c1, c2 = _crossover(p1, p2, cfg, rng)
            children.append(mutate(c1, rates, rng))
            if len(children) < cfg.population:
                children.append(mutate(c2, rates, rng))
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
                cut = list(range(len(next_pop), cfg.population))
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
