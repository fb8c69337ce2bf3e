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


def _endpoint_from_matrix(arr_k: np.ndarray, po_rows: np.ndarray):
    """Worst (value, po position, column) over PO rows; None if all -inf."""
    best = NEG_INF
    where = None
    for pos in range(po_rows.shape[0]):
        row = po_rows[pos]
        if row < 0:
            continue
        for col in (0, 1):
            v = arr_k[row, col]
            if v > best:
                best = v
                where = (pos, col)
    if where is None or best == NEG_INF:
        return None
    return best, where[0], where[1]


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
    }
    po_vals = tuple(program.po_arrivals(arr)[0].tolist())
    hit = _endpoint_from_matrix(a, program.po_rows)
    if hit is None:
        return StaResult(n, lib, arrivals, po_vals, 0.0, None)
    cpd, pos, col = hit
    return StaResult(
        n, lib, arrivals, po_vals, cpd, (pos, n.outputs[pos], _COL_EDGE[col])
    )


def _in_edges(unateness: str, out_edge: str):
    if unateness == NEGATIVE:
        return ("fall",) if out_edge == "rise" else ("rise",)
    if unateness == NON_UNATE:
        return ("rise", "fall")
    return (out_edge,)


def _backtrack_path(n: Netlist, net: str, edge: str, arrival, delay):
    """Walk a critical path backward from (net, edge).

    `arrival(net, edge)` and `delay(kind, pin, out_edge)` are lookups;
    ties resolve to the first candidate in pin order, rise before fall.
    Returns [(gate, input pin, output edge)] from inputs toward the PO.
    """
    path = []
    g = n.driver_of(net)
    while g is not None:
        best = None
        for pin, un in zip(g.cell.input_pins, g.cell.unateness):
            w = g.fanin[pin]
            if w in CONSTANT_NETS:
                continue
            for ie in _in_edges(un, edge):
                v = arrival(w, ie) + delay(g.kind, pin, edge)
                if best is None or v > best[0]:
                    best = (v, pin, ie)
        if best is None:  # all-constant fanin gate cannot be on a real path
            break
        path.append((g.name, best[1], edge))
        net, edge = g.fanin[best[1]], best[2]
        g = n.driver_of(net)
    path.reverse()
    return path


def extract_critical_path(sta: StaResult):
    """[(gate, input pin, output edge)] along the winning path, PI to PO."""
    if sta.endpoint is None:
        return []
    _, net, edge = sta.endpoint

    def arrival(w, e):
        return sta.arrivals[w][_EDGE_COL[e]]

    return _backtrack_path(sta.netlist, net, edge, arrival, sta.library.delay)


def mc_sta_cpd(
    n: Netlist, lib: VariationLibrary, count: int, seed: int, rho=None
) -> np.ndarray:
    """CPD per sampled library for seeds seed..seed+count-1; shape (count,)."""
    program = compile_timing(n, lib.arc_index())
    delays = sample_matrix(lib, range(seed, seed + count), rho)
    return cpd_over_delays(program, delays)


def cpd_over_delays(program: TimingProgram, delays: np.ndarray) -> np.ndarray:
    """CPD per delay row for an already-compiled netlist, timed over the
    program compacted for its POs."""
    program, _ = program.compact(program.po_rows)
    arr = program.forward(delays)
    rows = program.po_rows[program.po_rows >= 0]
    if rows.size == 0:
        return np.zeros(delays.shape[0], dtype=np.float64)
    return arr[:, rows, :].max(axis=(1, 2))


def stacked_union(program: TimingProgram, edge_on, forwards, po_rows, n_arcs: int):
    """The union program `stacked_cpds` times these designs in, over a
    library of `n_arcs` arcs and `compact`ed for every design's PO rows;
    the slot of each net row; and one (arc, used per design) row per
    private delay column, the columns after the all-0.0 one, `n_arcs`.
    The union holds every edge a design uses, each forward edge among its
    own gate's edges."""
    n_designs = edge_on.shape[0]
    n_nets = program.n_nets
    pairs = np.concatenate(forwards).astype(np.int64)
    sizes = [len(f) for f in forwards]
    keys, which = np.unique(pairs[:, 1] * n_nets + pairs[:, 0], return_inverse=True)
    fwd_on = np.zeros((keys.size, n_designs), dtype=bool)
    fwd_on[which.reshape(-1), np.repeat(np.arange(n_designs), sizes)] = True

    used = edge_on.any(axis=0)
    dst = np.concatenate([program.dst[used], keys // n_nets])
    order = np.argsort(dst, kind="stable")  # a gate's forward edges follow its own
    dst = dst[order]
    src = np.concatenate([program.src[used], keys % n_nets])[order]
    unate = np.concatenate([program.unate[used], np.full(keys.size, _kernels.UN_POS, np.int8)])
    unate = unate[order]
    rise = np.concatenate([program.arc_rise[used], np.full(keys.size, n_arcs)])[order]
    fall = np.concatenate([program.arc_fall[used], np.full(keys.size, n_arcs)])[order]
    on = np.concatenate([edge_on[:, used].T, fwd_on])[order]

    mixed = np.flatnonzero(~on.all(axis=1))
    arcs = np.concatenate([rise[mixed], fall[mixed]])
    arcs = np.column_stack([arcs, np.tile(on[mixed], (2, 1))])  # (arc, on per design)
    columns, col_of = np.unique(arcs, axis=0, return_inverse=True)
    col_of = col_of.reshape(-1) + n_arcs + 1
    rise[mixed] = col_of[: mixed.size]
    fall[mixed] = col_of[mixed.size :]
    union, slot = replace(
        program, src=src.astype(np.int32), dst=dst.astype(np.int32), unate=unate,
        arc_rise=rise.astype(np.int32), arc_fall=fall.astype(np.int32),
    ).compact(np.concatenate(po_rows))
    return union, slot, columns


def stacked_cpds(
    program: TimingProgram, edge_on: np.ndarray, forwards: Sequence[np.ndarray],
    po_rows: Sequence[np.ndarray], delays: np.ndarray, out: np.ndarray | None = None,
    budget: int | None = None,
) -> np.ndarray:
    """CPD per (design, delay row), shape (designs, count), for designs
    derived from `program`, timed one chunk of designs per `forward` call.

    Design d is `program` with the edges where `edge_on[d]` is False
    switched off, plus one zero-delay, positive-unate edge per (src, dst)
    row of `forwards[d]`: a gate output the design forwards from another
    net.  Its CPD under each row of `delays` (count, arcs) is the worst
    arrival over the net rows `po_rows[d]`, or 0.0 when there are none, as
    `cpd_over_delays` gives it.

    A chunk's designs are stacked along the delay rows of their union
    program (`stacked_union`), whose edges stay in topological order.  The
    delay columns are the library arcs tiled over the designs, one all-0.0
    column, and one column per (arc, designs using it) of an edge only some
    designs use, -inf in the rows of the others.  `max`, `x + 0.0` and
    `-inf` are exact, so each design's arrivals equal its own program's
    bit for bit.

    A chunk is every design, or with `budget`, as many as the whole
    union's arrivals fit in `budget` float64s, and at least one.  A
    chunk's union is a subsequence of the whole's edges keeping fewer PO
    nets, so it needs no more slots (asserted).  `out` is scratch memory
    for a chunk's arrivals, as `TimingProgram.init_arrivals` takes it, then
    its delay table when that fits; else the table is a new array.
    """
    n_designs = edge_on.shape[0]
    count, n_arcs = delays.shape
    whole = stacked_union(program, edge_on, forwards, po_rows, n_arcs)
    slots = whole[0].n_rows
    chunk = n_designs if budget is None else max(1, budget // (2 * slots * count))
    cpds = np.zeros((n_designs, count))
    for start in range(0, n_designs, chunk):
        part = slice(start, start + chunk)
        union, slot, columns = whole if chunk >= n_designs else stacked_union(
            program, edge_on[part], forwards[part], po_rows[part], n_arcs
        )
        assert union.n_rows <= slots
        # arc-major: table[c] is delay column c over the stacked rows
        shape = (n_arcs + 1 + len(columns), len(po_rows[part]), count)
        used = 2 * union.n_rows * shape[1] * count  # the arrivals' float64s
        end = used + math.prod(shape)
        fits = out is not None and out.size >= end
        table = out.reshape(-1)[used:end].reshape(shape) if fits else np.empty(shape)
        table[:n_arcs] = delays.T[:, None, :]
        table[n_arcs] = 0.0
        # column by column: `table[columns[:, 0]]` would copy them all at once
        for c, arc in enumerate(columns[:, 0].tolist(), n_arcs + 1):
            table[c] = table[arc]
        table[n_arcs + 1 :][~columns[:, 1:].astype(bool)] = NEG_INF
        arr = union.forward(table.reshape(shape[0], -1).T, out)
        for d, rows in enumerate(po_rows[part], start):
            if rows.size:
                k = (d - start) * count
                cpds[d] = arr[k : k + count, slot[rows], :].max(axis=(1, 2))
    return cpds


# -- edge-transition annotation ----------------------------------------------


def annotate_edge_transitions(
    n: Netlist, lib: VariationLibrary, count: int = 200, seed: int = 0, rho=None
) -> dict[tuple[str, str], str]:
    """Modal critical-path output edge per (gate, input pin).

    Runs STA over `count` sampled libraries, extracts each winning path,
    and tallies which output transition each traversed (gate, pin) carried.
    Pairs never observed on a path (and tally ties) default to the edge
    with the larger mean arc delay; equal means default to rise.
    """
    program = compile_timing(n, lib.arc_index())
    delays = sample_matrix(lib, range(seed, seed + count), rho)
    arr = program.forward(delays)
    index = program.net_index
    counts: dict[tuple[str, str], dict[str, int]] = {}
    for k in range(count):
        a_k = arr[k]
        hit = _endpoint_from_matrix(a_k, program.po_rows)
        if hit is None:
            continue
        _, pos, col = hit
        d_k = delays[k]
        arc_index = lib.arc_index()

        def arrival(w, e, a_k=a_k):
            return a_k[index[w], _EDGE_COL[e]]

        def delay(kind, pin, e, d_k=d_k, arc_index=arc_index):
            return d_k[arc_index[(kind, pin, e)]]

        path = _backtrack_path(
            n, n.outputs[pos], _COL_EDGE[col], arrival, delay
        )
        for gate, pin, edge in path:
            tally = counts.setdefault((gate, pin), {"rise": 0, "fall": 0})
            tally[edge] += 1

    tmap: dict[tuple[str, str], str] = {}
    for g in n.gates:
        for pin in g.cell.input_pins:
            if g.fanin[pin] in CONSTANT_NETS:
                continue
            tally = counts.get((g.name, pin))
            if tally is not None and tally["rise"] != tally["fall"]:
                tmap[(g.name, pin)] = (
                    "rise" if tally["rise"] > tally["fall"] else "fall"
                )
            else:
                mu_r = lib.arc(g.kind, pin, "rise").mu_ps
                mu_f = lib.arc(g.kind, pin, "fall").mu_ps
                tmap[(g.name, pin)] = "fall" if mu_f > mu_r else "rise"
    return tmap


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
