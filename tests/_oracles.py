"""Independent reference implementations and circuit generators for tests.

Everything here deliberately avoids the package's vectorized kernels:
the interpreter walks gates one vector at a time, the timing oracle
enumerates paths recursively.  Slow on purpose.
"""

from __future__ import annotations

import numpy as np

from vaxcirc.celllib import EDGES, TimingArc, VariationLibrary
from vaxcirc.netlist import (
    CELLS,
    CONSTANT_NETS,
    GND,
    NEGATIVE,
    NON_UNATE,
    POSITIVE,
    VDD,
    Gate,
    Netlist,
)


def naive_eval(n: Netlist, assignment: dict[str, int]) -> dict[str, int]:
    """Gate-at-a-time interpreter; returns every net value for one vector."""
    values = {GND: 0, VDD: 1}
    values.update({pi: int(assignment[pi]) & 1 for pi in n.inputs})
    for g in n.topological_order():
        values[g.output] = g.cell.evaluate(
            {pin: values[net] for pin, net in g.fanin.items()}
        )
    return values


def naive_outputs(n: Netlist, vectors: np.ndarray) -> list[tuple[int, ...]]:
    """PO bit tuples for each row of a (N, n_pi) vector array."""
    rows = []
    for vec in vectors:
        values = naive_eval(n, dict(zip(n.inputs, vec)))
        rows.append(tuple(values[po] for po in n.outputs))
    return rows


def _path_arrival(n: Netlist, net: str, edge: str, delay) -> float:
    """Max arrival over every PI-to-net path ending with the given output
    transition.  Pure recursion, no memoization: genuine path enumeration."""
    if net in CONSTANT_NETS:
        return float("-inf")
    if net in n.inputs:
        return 0.0
    g = n.driver_of(net)
    flip = {"rise": "fall", "fall": "rise"}
    best = float("-inf")
    for pin, un in zip(g.cell.input_pins, g.cell.unateness):
        if un == POSITIVE:
            in_edges = (edge,)
        elif un == NEGATIVE:
            in_edges = (flip[edge],)
        else:
            in_edges = (edge, flip[edge])
        d = delay(g.kind, pin, edge)
        for in_edge in in_edges:
            a = _path_arrival(n, g.fanin[pin], in_edge, delay)
            if a != float("-inf"):
                cand = a + d
                if cand > best:
                    best = cand
    return best


def path_enum_cpd(n: Netlist, sampled) -> float:
    """Critical path delay by exhaustive path enumeration (reference)."""
    best = 0.0
    for po in n.outputs:
        for edge in EDGES:
            a = _path_arrival(n, po, edge, sampled.delay)
            if a > best:
                best = a
    return best


def random_dag(rng, n_gates: int, n_pis: int = 4, name: str = "dag") -> Netlist:
    """Random connected combinational DAG; every sink net becomes a PO."""
    kind_names = sorted(CELLS)
    pis = tuple(f"x{i}" for i in range(n_pis))
    avail = list(pis)
    gates = []
    for i in range(n_gates):
        kind = CELLS[kind_names[int(rng.integers(len(kind_names)))]]
        fanin = {
            pin: avail[int(rng.integers(len(avail)))] for pin in kind.input_pins
        }
        gates.append(Gate(f"g{i}", kind.name, fanin, f"n{i}"))
        avail.append(f"n{i}")
    read = {net for g in gates for net in g.fanin.values()}
    pos = tuple(g.output for g in gates if g.output not in read)
    if not pos:
        pos = (gates[-1].output,)
    return Netlist(name, pis, pos, tuple(gates))


# -- SSTA calibration fixtures -------------------------------------------------
#
# ssta_traverse models the critical path as a sum of independent arc RVs.
# That matches sampled reality only when (a) one path dominates every draw,
# (b) its arcs are pairwise distinct (kind, pin, edge) triples, and (c) the
# libraries are drawn with rho=0.  The spine below is built to satisfy all
# three: a slow BUF ramp, then positive-unate gates, then non-unate gates
# once the rise track leads the fall track by many sigma.

_SPINE_POSITIVE = (("AND2", "A"), ("AND2", "B"), ("OR2", "A"), ("OR2", "B"))
_SPINE_NONUNATE = (
    ("XOR2", "A"), ("XOR2", "B"), ("XNOR2", "A"), ("XNOR2", "B"),
    ("MUX2", "A"), ("MUX2", "B"), ("MUX2", "S"),
)


def calibration_library() -> VariationLibrary:
    """Rise-dominant library (fall mu = 0.6 rise mu, sigma/mu = 0.08, rho 0).

    The big BUF keeps first-spine-gate side paths out of contention.
    """
    rise = {
        ("BUF", "A"): 30.0, ("INV", "A"): 20.0,
        ("AND2", "A"): 17.0, ("AND2", "B"): 18.0,
        ("OR2", "A"): 19.0, ("OR2", "B"): 20.0,
        ("NAND2", "A"): 16.0, ("NAND2", "B"): 17.0,
        ("NOR2", "A"): 18.0, ("NOR2", "B"): 19.0,
        ("XOR2", "A"): 23.0, ("XOR2", "B"): 24.0,
        ("XNOR2", "A"): 24.0, ("XNOR2", "B"): 22.0,
        ("MUX2", "A"): 21.0, ("MUX2", "B"): 22.0, ("MUX2", "S"): 16.0,
    }
    cells = {}
    for kind in sorted(CELLS):
        arcs = []
        for pin in CELLS[kind].input_pins:
            mu_r = rise[(kind, pin)]
            for edge, mu in (("rise", mu_r), ("fall", 0.6 * mu_r)):
                arcs.append(TimingArc(pin, edge, mu, 0.08 * mu))
        cells[kind] = tuple(arcs)
    return VariationLibrary("calib", cells, rho_default=0.0)


def calibration_tree(rng, name: str = "tree") -> tuple[Netlist, list[tuple[str, str]]]:
    """Tree netlist with one dominant spine of distinct timing arcs.

    Returns the netlist and the spine's (kind, pin) sequence (BUF first).
    Total gate count lands in [20, 60]; pad gates hang off their own PIs
    at depth <= 2 so they never compete with the spine.
    """
    positive = list(_SPINE_POSITIVE)
    nonunate = list(_SPINE_NONUNATE)
    rng.shuffle(positive)
    rng.shuffle(nonunate)
    nonunate = nonunate[: len(nonunate) - int(rng.integers(0, 3))]
    spine = [("BUF", "A")] + positive + nonunate

    pis = ["p0"]
    gates = []
    prev = "p0"

    def fresh_pi():
        pi = f"p{len(pis)}"
        pis.append(pi)
        return pi

    for i, (kind, pin) in enumerate(spine):
        fanin = {}
        for p in CELLS[kind].input_pins:
            fanin[p] = prev if p == pin else fresh_pi()
        out = f"s{i}"
        gates.append(Gate(f"sp{i}", kind, fanin, out))
        prev = out

    pos = [prev]
    total = int(rng.integers(20, 61))
    kind_names = sorted(CELLS)
    while len(gates) < total:
        i = len(gates)
        kind = CELLS[kind_names[int(rng.integers(len(kind_names)))]]
        first = fresh_pi()
        fanin = {
            p: first if j == 0 else fresh_pi()
            for j, p in enumerate(kind.input_pins)
        }
        out = f"w{i}"
        gates.append(Gate(f"pad{i}", kind.name, fanin, out))
        if rng.integers(2):
            pos.append(out)
        elif len(gates) < total:
            # one level deeper, still far below the spine
            i = len(gates)
            gates.append(Gate(f"pad{i}", "INV", {"A": out}, f"w{i}"))
            pos.append(f"w{i}")
        else:
            pos.append(out)
    return Netlist(name, tuple(pis), tuple(pos), tuple(gates)), spine


def two_path_circuit() -> Netlist:
    """Two near-equal paths to separate POs; CPDs overlap under variation.

    Path A: BUF then two pin-A AND2 gates (mu 12+17+17 = 46 ps rise).
    Path B: XNOR2 then pin-A XOR2 (mu 24+23 = 47 ps rise).
    """
    gates = (
        Gate("ga1", "BUF", {"A": "x0"}, "a1"),
        Gate("ga2", "AND2", {"A": "a1", "B": "x1"}, "a2"),
        Gate("ga3", "AND2", {"A": "a2", "B": "x2"}, "ya"),
        Gate("gb1", "XNOR2", {"A": "x3", "B": "x4"}, "b1"),
        Gate("gb2", "XOR2", {"A": "b1", "B": "x5"}, "yb"),
    )
    return Netlist(
        "twopath",
        tuple(f"x{i}" for i in range(6)),
        ("ya", "yb"),
        gates,
    )
