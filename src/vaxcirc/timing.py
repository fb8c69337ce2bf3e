"""Static and statistical timing: arrival propagation, RV algebra, CPB.

Deterministic STA propagates dual-transition (rise, fall) arrivals per net
for one or many sampled libraries at once.  The statistical traversal
carries one Gaussian arrival RV per net, selects each gate's winning fanin
by pairwise exceedance probability, and back-propagates critical-path
probabilities (CPB) from the primary outputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from ._compile import TimingProgram, compile_timing
from .celllib import SampledLibrary, VariationLibrary, sample_matrix
from .netlist import CONSTANT_NETS, NEGATIVE, NON_UNATE, Netlist

NEG_INF = float("-inf")
_EDGE_COL = {"rise": 0, "fall": 1}
_COL_EDGE = ("rise", "fall")


# -- Gaussian delay algebra ---------------------------------------------------


@dataclass(frozen=True)
class DelayRV:
    """Gaussian delay in ps: mean and variance."""

    mu: float
    var: float

    def __post_init__(self):
        if self.var < 0.0:
            raise ValueError(f"negative variance {self.var}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.var)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error well under 1e-12."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def rv_sum(x: DelayRV, y: DelayRV) -> DelayRV:
    """Sum of independent Gaussians: means and variances add."""
    return DelayRV(x.mu + y.mu, x.var + y.var)


def rv_gt_prob(x: DelayRV, y: DelayRV) -> float:
    """P(X > Y) for independent Gaussians.

    Both degenerate (zero variance): 1.0 / 0.0 by mean comparison, 0.5 on
    exact tie.
    """
    v = x.var + y.var
    if v == 0.0:
        if x.mu > y.mu:
            return 1.0
        if x.mu < y.mu:
            return 0.0
        return 0.5
    return 1.0 - normal_cdf((y.mu - x.mu) / math.sqrt(v))


def running_winner(candidates):
    """The (key, rv) pair that wins iterated pairwise exceedance.

    The first candidate leads; a later one takes over when
    P(candidate > leader) > 0.5, so P = 0.5 keeps the earlier one.
    (None, None) when there are no candidates.
    """
    winner = win_rv = None
    for key, rv in candidates:
        if win_rv is None or rv_gt_prob(rv, win_rv) > 0.5:
            winner, win_rv = key, rv
    return winner, win_rv


# Below this |z| the erfc in `rv_gt_prob` may round P(X > Y) to 0.5 exactly.
_Z_BAND = 1e-9


def running_winners(mu: np.ndarray, var: np.ndarray, live: np.ndarray):
    """`running_winner` over the last axis of (..., pins) arrays at once.

    Entry [..., k] is the arrival of pin k; only pins where `live` is set
    compete.  Returns the winning pin per leading index, -1 where no pin is
    live, and the winner's mean and variance (pin 0's where none is).

    A candidate takes over when `rv_gt_prob(candidate, leader) > 0.5`,
    decided exactly as that function decides it: by the means when both
    variances are 0, else by the sign of z = (leader.mu - candidate.mu) /
    sqrt(var sum), a candidate winning when z < 0.  For 0 < |z| < 1e-9,
    where the erfc may round, `rv_gt_prob` itself decides.
    """
    win = np.where(live[..., 0], 0, -1)
    wmu, wvar = mu[..., 0], var[..., 0]
    for k in range(1, mu.shape[-1]):
        cmu, cvar, on = mu[..., k], var[..., k], live[..., k]
        v = cvar + wvar
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (wmu - cmu) / np.sqrt(v)
        takes = np.where(v == 0.0, cmu > wmu, z < 0.0)
        band = on & (win >= 0) & (v > 0.0) & (z != 0.0) & (np.abs(z) < _Z_BAND)
        for i in zip(*np.nonzero(band)):
            takes[i] = rv_gt_prob(
                DelayRV(float(cmu[i]), float(cvar[i])),
                DelayRV(float(wmu[i]), float(wvar[i])),
            ) > 0.5
        takes &= on
        takes |= on & (win < 0)
        win = np.where(takes, k, win)
        wmu = np.where(takes, cmu, wmu)
        wvar = np.where(takes, cvar, wvar)
    return win, wmu, wvar


def endpoint_weight(rvs: list[DelayRV], i: int) -> float:
    """Product of P(rvs[i] > rvs[j]) over every j != i, in list order."""
    c = 1.0
    for j, rv in enumerate(rvs):
        if j != i:
            c *= rv_gt_prob(rvs[i], rv)
    return c


def po_endpoint(rvs: list[DelayRV]):
    """(index, cpd, confidence) of the endpoint among distinct PO arrivals.

    The endpoint is the running winner; its confidence is its
    `endpoint_weight`.  With no PO arrival: (None, 0 ps, 1.0).
    """
    if not rvs:
        return None, DelayRV(0.0, 0.0), 1.0
    i, cpd = running_winner(enumerate(rvs))
    return i, cpd, endpoint_weight(rvs, i)


def arc_rv(lib: VariationLibrary, kind: str, pin: str, edge: str) -> DelayRV:
    """The arc delay of (kind, pin, output edge) as a DelayRV."""
    arc = lib.arc(kind, pin, edge)
    return DelayRV(arc.mu_ps, arc.sigma_ps**2)


# -- deterministic STA --------------------------------------------------------


@dataclass
class StaResult:
    netlist: Netlist
    library: SampledLibrary
    arrivals: dict[str, tuple[float, float]]  # net -> (rise, fall)
    po_arrivals: tuple[float, ...]  # worst arrival per PO position
    cpd: float
    endpoint: tuple[int, str, str] | None  # (po position, net, edge)


def _endpoints(arr: np.ndarray, po_rows: np.ndarray):
    """The worst PO arrival of each row of `arr` (rows, nets, 2), its PO
    position and its column: the first maximum, by position, then rise
    before fall.  It is -inf, with no endpoint, also when there is no PO."""
    rows = arr.shape[0]
    block = np.hstack([arr[:, po_rows, :].reshape(rows, -1), np.full((rows, 1), NEG_INF)])
    at = block.argmax(axis=1)
    return block[np.arange(at.size), at], at // 2, at % 2


def sta_arrivals(n: Netlist, lib: SampledLibrary) -> StaResult:
    """Single-library dual-transition STA.

    PIs launch both transitions at t=0, constants never transition, each
    gate input pin contributes arc delays according to its unateness.
    """
    program = compile_timing(n, lib.arc_index())
    arr = program.forward(lib.values()[None, :])
    a = arr[0]
    arrivals = {
        net: (float(a[row, 0]), float(a[row, 1]))
        for net, row in program.net_index.items()
        if row >= 2  # not GND or VDD
    }
    po_vals = tuple(program.po_arrivals(arr)[0].tolist())
    (cpd,), (pos,), (col,) = _endpoints(arr, program.po_rows)
    if cpd == NEG_INF:
        return StaResult(n, lib, arrivals, po_vals, 0.0, None)
    endpoint = (int(pos), n.outputs[pos], _COL_EDGE[col])
    return StaResult(n, lib, arrivals, po_vals, float(cpd), endpoint)


def _in_edges(unateness: str, out_edge: str):
    if unateness == NEGATIVE:
        return ("fall",) if out_edge == "rise" else ("rise",)
    if unateness == NON_UNATE:
        return ("rise", "fall")
    return (out_edge,)


def extract_critical_path(sta: StaResult):
    """[(gate, input pin, output edge)] along the winning path, PI to PO.

    Walking back from the endpoint, each gate's first fanin edge with the
    largest arrival plus arc delay wins, in pin order, rise before fall.
    """
    if sta.endpoint is None:
        return []
    _, net, edge = sta.endpoint
    path = []
    g = sta.netlist.driver_of(net)
    while g is not None:
        best = None
        for pin, un in zip(g.cell.input_pins, g.cell.unateness):
            w = g.fanin[pin]
            if w in CONSTANT_NETS:
                continue
            for ie in _in_edges(un, edge):
                v = sta.arrivals[w][_EDGE_COL[ie]] + sta.library.delay(g.kind, pin, edge)
                if best is None or v > best[0]:
                    best = (v, pin, ie)
        if best is None:  # all-constant fanin gate cannot be on a real path
            break
        path.append((g.name, best[1], edge))
        net, edge = g.fanin[best[1]], best[2]
        g = sta.netlist.driver_of(net)
    path.reverse()
    return path


def mc_sta_cpd(
    n: Netlist, lib: VariationLibrary, count: int, seed: int, rho=None
) -> np.ndarray:
    """CPD per sampled library for seeds seed..seed+count-1; shape (count,)."""
    program = compile_timing(n, lib.arc_index())
    delays = sample_matrix(lib, range(seed, seed + count), rho)
    return cpd_over_delays(program, delays)


def cpd_over_delays(program: TimingProgram, delays: np.ndarray) -> np.ndarray:
    """CPD per delay row for an already-compiled netlist, timed over the
    program compacted for its POs: the worst PO arrival, or 0.0 when no PO
    arrives (each is GND, VDD or an unfolded all-constant gate), as
    `sta_arrivals` gives it."""
    rows = program.po_rows
    program, slot = program.compact(rows)
    return program.forward(delays)[:, slot[rows], :].max(axis=(1, 2), initial=0.0)


def _front_rows(program: TimingProgram, timed, forwards, po_rows):
    """(designs, net rows) masks: the rows each design writes, its timed
    and forward edges' destinations; the seeds it reads from outside them;
    and its PO rows inside and outside them.  None is a PI or a constant."""
    own, read, po = np.zeros((3, timed.shape[0], program.n_nets), dtype=bool)
    d, e = np.nonzero(timed)
    own[d, program.dst[e]] = read[d, program.src[e]] = True
    for k, (pairs, rows) in enumerate(zip(forwards, po_rows)):
        own[k, pairs[:, 1]] = read[k, pairs[:, 0]] = po[k, rows] = True
    outside = ~own
    outside[:, np.r_[0, 1, program.pi_rows]] = False
    return own, read & outside, po & own, po & outside


def stacked_union(program: TimingProgram, timed, forwards, po_rows, n_arcs: int):
    """The program `stacked_cpds` times a chunk of designs in, over `n_arcs`
    library arcs: their timed and forward edges (each among its gate's),
    `compact`ed to keep the PO rows they write and preload their seeds; the
    slot of each net row; one (arc, used per design) row per private delay
    column, those after the all-0.0 one, `n_arcs`; the seed rows, in slots
    2, 3, ...; and per seed and design whether the design writes it."""
    n_designs = timed.shape[0]
    n_nets = program.n_nets
    pairs = np.concatenate(forwards).astype(np.int64)
    sizes = [len(f) for f in forwards]
    keys, which = np.unique(pairs[:, 1] * n_nets + pairs[:, 0], return_inverse=True)
    fwd_on = np.zeros((keys.size, n_designs), dtype=bool)
    fwd_on[which.reshape(-1), np.repeat(np.arange(n_designs), sizes)] = True

    used = timed.any(axis=0)
    dst = np.concatenate([program.dst[used], keys // n_nets])
    order = np.argsort(dst, kind="stable")  # a gate's forward edges follow its own
    dst = dst[order]
    src = np.concatenate([program.src[used], keys % n_nets])[order]
    unate = np.concatenate([program.unate[used], np.full(keys.size, _kernels.UN_POS, np.int8)])
    unate = unate[order]
    rise = np.concatenate([program.arc_rise[used], np.full(keys.size, n_arcs)])[order]
    fall = np.concatenate([program.arc_fall[used], np.full(keys.size, n_arcs)])[order]
    on = np.concatenate([timed[:, used].T, fwd_on])[order]

    mixed = np.flatnonzero(~on.all(axis=1))
    arcs = np.concatenate([rise[mixed], fall[mixed]])
    arcs = np.column_stack([arcs, np.tile(on[mixed], (2, 1))])  # (arc, on per design)
    # each row as one opaque value: far faster to sort than `axis=0`'s records
    keys = arcs.view(f"V{arcs.itemsize * arcs.shape[1]}").reshape(-1)
    _, at, col_of = np.unique(keys, return_index=True, return_inverse=True)
    columns = arcs[at]
    col_of = col_of.reshape(-1) + n_arcs + 1
    rise[mixed] = col_of[: mixed.size]
    fall[mixed] = col_of[mixed.size :]
    own, seed, po_own, _ = _front_rows(program, timed, forwards, po_rows)
    seeds = np.flatnonzero(seed.any(axis=0))
    union, slot = replace(
        program, src=src.astype(np.int32), dst=dst.astype(np.int32), unate=unate,
        arc_rise=rise.astype(np.int32), arc_fall=fall.astype(np.int32),
    ).compact(np.flatnonzero(po_own.any(axis=0)), seeds)
    return union, slot, columns, seeds, own[:, seeds].T


def _arrivals_and_table(program: TimingProgram, columns, n_designs: int, delays: np.ndarray, out):
    """`program`'s initial arrivals over `n_designs` stacked copies of the
    rows of `delays`, at the head of `out` (new without it), and then its
    delay table, there when it fits, else new: the arcs, an all-0.0 column
    and each private column's arc, -inf in the rows of designs not using it."""
    count, n_arcs = delays.shape
    shape = (n_arcs + 1 + len(columns), n_designs, count)
    arr = program.init_arrivals(n_designs * count, out)
    end = 2 * program.n_rows * n_designs * count
    fits = out is not None and out.size >= end + math.prod(shape)
    table = out[end : end + math.prod(shape)].reshape(shape) if fits else np.empty(shape)
    table[:n_arcs] = delays.T[:, None, :]  # arc-major
    table[n_arcs] = 0.0
    # column by column: `table[columns[:, 0]]` would copy them all at once
    for c, arc in enumerate(columns[:, 0].tolist(), n_arcs + 1):
        table[c] = table[arc]
    table[n_arcs + 1 :][~columns[:, 1:].astype(bool)] = NEG_INF
    return arr, table.reshape(shape[0], -1).T


def stacked_cpds(
    program: TimingProgram, timed: np.ndarray, forwards: Sequence[np.ndarray],
    po_rows: Sequence[np.ndarray], delays: np.ndarray, out: np.ndarray | None = None,
) -> np.ndarray:
    """CPD per (design, delay row), shape (designs, count), for designs that
    differ from `program` only in the nets they time afresh.

    Design d times the edges where `timed[d]` is set and one zero-delay,
    positive-unate edge per (src, dst) row of `forwards[d]`, a gate output
    it forwards from another net.  At every other net its arrival must be
    `program`'s, as outside a tie fold's cone.  Its CPD under each row of
    `delays` (count, arcs) is its worst arrival over the net rows
    `po_rows[d]`, or 0.0 when none arrives.

    `program` is timed once, compacted to keep the seeds (nets some design
    reads, or takes a PO from, outside its own) in slots 2, 3, ....  A
    design that writes no net reads every PO there.  Each chunk of the
    other designs is then timed in one `stacked_union`, stacked along the
    delay rows, a seed's slot starting as the baseline's arrivals in the
    rows of the designs that do not write it and -inf in the others; a
    delay column is -inf in the rows of designs not using its edge.  `max`,
    `x + 0.0` and `-inf` are exact, so each arrival is bit for bit that of
    the design's own program.

    With scratch memory `out` (float64s), the delay rows are split into as
    few blocks as let the baseline's pass, or a block's seeds and one
    design, fit in it with their delay tables, and a chunk is as many
    designs as let their arrivals fit after the seeds, and at least one.
    If not one row fits, each row is a block in new memory.  Without `out`,
    all is one block and one chunk in new memory.
    """
    count, n_arcs = delays.shape
    _, seed, po_own, po_out = _front_rows(program, timed, forwards, po_rows)
    seeds = np.flatnonzero((seed | po_out).any(axis=0))
    base, _ = program.compact(seeds, seeds)
    head = 2 + seeds.size  # the baseline's slots up to its last seed
    writes = [d for d, f in enumerate(forwards) if len(f) or timed[d].any()]
    fwd, pos = [forwards[d] for d in writes], [po_rows[d] for d in writes]
    whole = stacked_union(program, timed[writes], fwd, pos, n_arcs) if writes else None
    slots = whole[0].n_rows if writes else 2
    block, chunk = count, max(1, len(writes))
    if out is not None:
        fit = out.size // (2 * max(base.n_rows, head + slots) + n_arcs + 1)
        block = -(-count // -(-count // max(1, fit)))  # as few blocks as fit, evened out
        chunk = max(1, (out.size - 2 * head * block) // (2 * slots * block))
        out = out if fit else None
    parts = [slice(start, start + chunk) for start in range(0, len(writes), chunk)]
    parts = [(writes[part], whole if chunk >= len(writes) else stacked_union(
        program, timed[writes[part]], fwd[part], pos[part], n_arcs)) for part in parts]
    cpds = np.zeros((timed.shape[0], count))
    for first in range(0, count, block):
        rows = slice(first, first + block)
        arr, table = _arrivals_and_table(base, np.zeros((0, 2), np.int64), 1, delays[rows], out)
        known = base.forward(table, arr=arr).transpose(1, 2, 0)[2:head]  # (seeds, 2, k)
        k = known.shape[2]
        for d, at in enumerate(po_out):
            at = np.searchsorted(seeds, np.flatnonzero(at))
            cpds[d, rows] = known[at].max(axis=(0, 1), initial=0.0)
        rest = None if out is None else out[2 * head * k :]  # after the seeds
        for ds, (prog, slot, columns, preload, owned) in parts:
            assert prog.n_rows <= slots
            arr, table = _arrivals_and_table(prog, columns, len(ds), delays[rows], rest)
            pre = arr.transpose(1, 2, 0)[2 : 2 + preload.size].reshape(-1, 2, len(ds), k)
            for dst, at in zip(pre, np.searchsorted(seeds, preload).tolist()):
                dst[...] = known[at][:, None, :]
            at, d = np.nonzero(owned)
            pre[at, :, d] = NEG_INF
            arr = prog.forward(table, arr=arr)
            for j, d in enumerate(ds):
                got = arr[j * k : (j + 1) * k, slot[po_own[d]], :].max(axis=(1, 2), initial=0.0)
                np.maximum(cpds[d, rows], got, out=cpds[d, rows])
    return cpds


# -- edge-transition annotation ----------------------------------------------


def annotate_edge_transitions(
    n: Netlist, lib: VariationLibrary, count: int = 200, seed: int = 0
) -> dict[tuple[str, str], str]:
    """Modal critical-path output edge per (gate, input pin).

    Runs STA over `count` sampled libraries and tallies the output
    transition each (gate, pin) carried on each one's critical path, as
    `extract_critical_path` walks it.  Pairs never on a path, and tally
    ties, take the edge with the larger mean arc delay; equal means, rise.
    """
    return _clock_and_tmap(compile_timing(n, lib.arc_index()), lib, count, seed)[1]


def _clock_and_tmap(program: TimingProgram, lib: VariationLibrary, count: int, seed: int):
    """`sta_arrivals(n, nominal_library(lib)).cpd` and `annotate_edge_transitions(n,
    lib, count, seed)` for `program = compile_timing(n, lib.arc_index())`,
    from one `forward` whose first row is the mean delays."""
    n = program.netlist
    mu = lib.mu_vector()
    delays = np.vstack([mu, sample_matrix(lib, range(seed, seed + count))])
    arr = program.forward(delays)
    cpd = _endpoints(arr[:1], program.po_rows)[0][0]
    rise, fall = _critical_tally(program, arr[1:], delays[1:]).T
    fall_wins = np.where(rise != fall, fall > rise, mu[program.arc_fall] > mu[program.arc_rise])
    edge = np.where(fall_wins, "fall", "rise").tolist()
    # a gate's edges, its non-constant pins, start at the first into its row
    first = np.searchsorted(program.dst, [program.net_index[g.output] for g in n.gates])
    tmap = {}
    for g, e in zip(n.gates, first.tolist()):
        for pin in g.cell.input_pins:
            if g.fanin[pin] not in CONSTANT_NETS:
                tmap[(g.name, pin)] = edge[e]
                e += 1
    return (0.0 if cpd == NEG_INF else float(cpd)), tmap


def _critical_tally(program: TimingProgram, arr: np.ndarray, delays: np.ndarray):
    """(edges, 2) counts of the output column each edge carried on the
    critical paths of the rows of `arr` (`program`'s arrivals under
    `delays`), walked back at once from their `_endpoints` as
    `extract_critical_path` walks one: to the first maximum of source
    arrival plus arc delay, in pin order and rise before fall."""
    # candidate = 2 * edge + input column, -1 pads; a non-unate pin has two
    non = program.unate == _kernels.UN_NON
    size = 1 + non
    begin = np.cumsum(size) - size
    slot = begin - begin[np.searchsorted(program.dst, program.dst)]  # in its gate
    n_cand = np.bincount(program.dst, weights=size, minlength=program.n_nets)
    cand = np.full((program.n_nets, 2, int(n_cand.max(initial=0))), -1)
    edge2 = 2 * np.arange(program.src.size)
    for col in (0, 1):  # input column: 0 first for a non-unate pin, else by unateness
        cand[program.dst, col, slot] = edge2 + ((program.unate == _kernels.UN_NEG) ^ col) * ~non
    cand[program.dst[non], :, slot[non] + 1] = edge2[non, None] + 1
    arcs = np.stack([program.arc_rise, program.arc_fall], axis=1)
    tally = np.zeros((program.src.size, 2), dtype=np.int64)
    value, pos, col = _endpoints(arr, program.po_rows)
    row = np.flatnonzero(value > NEG_INF)
    net, col = program.po_rows[pos[row]], col[row]
    while (on := n_cand[net] > 0).any():
        row, net, col = row[on], net[on], col[on]
        c = cand[net, col]  # (rows, candidates); a pad reads the last edge
        e = c // 2
        v = arr[row[:, None], program.src[e], c % 2] + delays[row[:, None], arcs[e, col[:, None]]]
        v[c < 0] = NEG_INF
        pick = (np.arange(row.size), v.argmax(axis=1))
        np.add.at(tally, (e[pick], col), 1)
        net, col = program.src[e[pick]], c[pick] % 2
    return tally


# -- statistical traversal ----------------------------------------------------


@dataclass
class SstaResult:
    netlist: Netlist
    arrivals: dict[str, DelayRV]  # net -> arrival RV
    po_rvs: dict[str, DelayRV]  # distinct non-constant PO nets
    endpoint: str | None
    cpd: DelayRV
    confidence: float
    endpoint_probs: dict[str, float]
    critical_fanin: dict[str, str]  # gate -> winning input pin
    cpb: dict[str, float] = field(default_factory=dict)


def ssta_traverse(
    n: Netlist, lib: VariationLibrary, tmap: dict[tuple[str, str], str]
) -> SstaResult:
    """Selection-then-sum stochastic traversal.

    Each gate picks the fanin whose arrival RV wins iterated pairwise
    exceedance comparisons (running winner; P=0.5 keeps the earlier pin),
    then adds the arc RV for (winning pin, tmap edge).  This estimates the
    single most probable critical path rather than a moment-matched max,
    so reconvergent structures carry a known optimistic bias.
    """
    arrivals: dict[str, DelayRV] = {pi: DelayRV(0.0, 0.0) for pi in n.inputs}
    critical_fanin: dict[str, str] = {}
    for g in n.topological_order():
        # constants never enter `arrivals`, so they are skipped here
        winner, win_rv = running_winner(
            (pin, arrivals[g.fanin[pin]])
            for pin in g.cell.input_pins
            if g.fanin[pin] in arrivals
        )
        if winner is None:
            continue  # all fanins constant: no transitions to time
        arc = arc_rv(lib, g.kind, winner, tmap[(g.name, winner)])
        arrivals[g.output] = rv_sum(win_rv, arc)
        critical_fanin[g.name] = winner

    po_rvs = {po: arrivals[po] for po in n.outputs if po in arrivals}
    nets = list(po_rvs)
    rvs = list(po_rvs.values())
    i, cpd, confidence = po_endpoint(rvs)
    if i is None:
        return SstaResult(
            n, arrivals, {}, None, cpd, confidence, {}, critical_fanin, {}
        )
    endpoint = nets[i]

    weights = {net: endpoint_weight(rvs, j) for j, net in enumerate(nets)}
    total = sum(weights.values())
    if total > 0.0:
        probs = {net: w / total for net, w in weights.items()}
    else:  # all weights underflowed; fall back to the selected endpoint
        probs = {net: (1.0 if net == endpoint else 0.0) for net in nets}

    result = SstaResult(
        n, arrivals, po_rvs, endpoint, cpd, confidence, probs, critical_fanin
    )
    result.cpb = cpb_backprop(n, probs, critical_fanin)
    return result


def cpb_backprop(
    n: Netlist,
    endpoint_probs: dict[str, float],
    critical_fanin: dict[str, str],
) -> dict[str, float]:
    """Push endpoint probability mass back along winning fanins.

    Each net starts with its endpoint probability (0 for non-endpoints);
    every gate forwards the mass on its output net to its winning fanin
    net.  Mass is conserved: the sum over the PI frontier equals the sum
    of the endpoint probabilities.
    """
    cpb: dict[str, float] = {net: 0.0 for net in n.nets}
    for net, p in endpoint_probs.items():
        cpb[net] += p
    for g in reversed(n.topological_order()):
        mass = cpb.get(g.output, 0.0)
        pin = critical_fanin.get(g.name)
        if mass > 0.0 and pin is not None:
            cpb[g.fanin[pin]] += mass
    return cpb
