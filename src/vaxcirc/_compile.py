"""Lowering of netlists to flat index arrays for the kernels."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .celllib import LibraryError
from .netlist import CELLS, GND, NEGATIVE, NON_UNATE, OP_KINDS, PIN_COUNT, POSITIVE, VDD, Netlist


@dataclass
class LogicProgram:
    """Topologically ordered op list over a signal table.

    Signals 0 and 1 are GND and VDD; primary inputs follow in declaration
    order, then one signal per gate output in topological order.
    """

    netlist: Netlist
    signal_index: dict[str, int]
    ops: np.ndarray
    fanin: np.ndarray  # (gates, 3) fanin rows in pin order; a pin the gate lacks reads GND
    out: np.ndarray
    pi_index: np.ndarray  # signal row per primary input
    po_index: np.ndarray  # signal row per primary output position

    @property
    def n_signals(self) -> int:
        return 2 + len(self.netlist.inputs) + len(self.ops)

    def word_slots(self, keep=None) -> tuple[np.ndarray, int]:
        """Each signal row's slot and the slot count, for a simulation read only at the
        rows `keep`, by default the POs: `scan_slots` over one read per pin, GND in
        0, VDD in 1, the PIs in 2, 3, ..."""
        keep = self.po_index if keep is None else keep
        reads = (self.fanin.ravel(), self.out.repeat(3), keep, self.pi_index, [0])
        return scan_slots(*reads, self.n_signals)[:2]


def compile_logic(n: Netlist) -> LogicProgram:
    index: dict[str, int] = {GND: 0, VDD: 1}
    for pi in n.inputs:
        index[pi] = len(index)
    topo = n.topological_order()
    for g in topo:
        index[g.output] = len(index)
    ops = np.array([_kernels.OP_CODES[g.kind] for g in topo], dtype=np.int8)
    fanin = np.zeros((len(topo), 3), dtype=np.int32)
    for i, g in enumerate(topo):
        for k, pin in enumerate(g.cell.input_pins):
            fanin[i, k] = index[g.fanin[pin]]
    out = np.array([index[g.output] for g in topo], dtype=np.int32)
    pi_index = np.array([index[pi] for pi in n.inputs], dtype=np.int32)
    po_index = np.array([index[po] for po in n.outputs], dtype=np.int32)
    return LogicProgram(n, index, ops, fanin, out, pi_index, po_index)


@dataclass
class TimingProgram:
    """Flat timing-edge list in topological gate order.

    One edge per (gate, input pin).  Edges carry the source/destination net
    rows, the pin's unateness code, and arc-row indices (into a library's
    canonical arc vector) for the rise and fall output transitions.  Net
    rows are `compile_logic`'s signal rows, so rows 0 and 1, GND and VDD,
    are never written and stay -inf.  The arrivals have `n_rows` rows: one
    per net, or one per slot once `compact`ed.
    """

    netlist: Netlist
    net_index: dict[str, int]
    src: np.ndarray
    dst: np.ndarray
    unate: np.ndarray
    arc_rise: np.ndarray
    arc_fall: np.ndarray
    pi_rows: np.ndarray
    po_rows: np.ndarray  # net row per primary output position
    n_rows: int

    @property
    def n_nets(self) -> int:
        return len(self.net_index)

    def init_arrivals(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """(count, rows, 2) arrivals, -inf except 0.0 at the PIs.

        The array is a view of a net-major (rows, 2, count) buffer, so the
        column `sta_forward` reads or writes per edge, one net and one
        transition over all rows, is contiguous in memory.  The buffer is
        the head of the contiguous float64 array `out` when given (it must
        be large enough), else a new one.
        """
        shape = (self.n_rows, 2, count)
        if out is None:
            buf = np.empty(shape, dtype=np.float64)
        else:
            buf = out.reshape(-1)[: self.n_rows * 2 * count].reshape(shape)
        buf[...] = _kernels.NEG_INF
        buf[self.pi_rows] = 0.0
        return buf.transpose(2, 0, 1)

    def forward(self, delays: np.ndarray, arr: np.ndarray | None = None) -> np.ndarray:
        """Arrivals (rows, nets, [rise, fall]) for each row of arc delays,
        from `arr` when given: `init_arrivals`, which the caller may preload."""
        arr = self.init_arrivals(delays.shape[0]) if arr is None else arr
        # arc-major copy: each arc's delays over all rows are contiguous
        delays = np.ascontiguousarray(delays.T).T
        _kernels.sta_forward(
            self.src, self.dst, self.unate, self.arc_rise, self.arc_fall, delays, arr
        )
        return arr

    def po_arrivals(self, arr: np.ndarray) -> np.ndarray:
        """Worst of rise and fall per PO, shape (rows, n_po); -inf for a
        constant PO."""
        return arr[:, self.po_rows, :].max(axis=2)

    def compact(self, keep: np.ndarray, preload=()) -> tuple[TimingProgram, np.ndarray]:
        """This program over reused arrival slots, for a caller that reads
        only the arrivals of the net rows `keep`; and the slot of each net
        row.

        Slot 0 holds every PI (0.0) and slot 1 every net no edge writes
        (-inf).  The gate rows of `preload` take slots 2, 3, ... in that
        order, for the caller to preload: their edges raise what the slot
        holds rather than write it.  Every other gate takes a slot by
        `scan_slots` over the edges, which must be grouped by destination in
        topological order; its first edge is flagged `UN_FIRST` so that the
        kernel overwrites what the slot held.  So there are at most as many
        slots as net rows, and a net's slot holds its arrival while it is
        live, which for a kept net is to the end.  Every row field but
        `net_index` is mapped to slots: `net_index` still gives net rows,
        which a reader maps to slots through the returned `slot`.
        """
        slots, n_rows, first = scan_slots(
            self.src, self.dst, keep, preload, self.pi_rows, self.n_nets
        )
        program = replace(
            self,
            src=slots[self.src],
            dst=slots[self.dst],
            unate=self.unate + _kernels.UN_FIRST * first.astype(np.int8),
            pi_rows=slots[self.pi_rows],
            po_rows=slots[self.po_rows],
            n_rows=n_rows,
        )
        return program, slots


def scan_slots(src, dst, keep, preload, zero, n: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Linear-scan slots (Poletto & Sarkar, TOPLAS 1999) for the `n` rows of
    a program that writes row dst[e] from row src[e], reads grouped by
    destination in topological order, for a caller that reads only the rows
    `keep` at the end.  The rows `zero` sit in slot 0, other unwritten rows
    in slot 1 and the rows of `preload` in 2, 3, ...; any other row takes a
    free slot at its first read, before its sources' are freed.  A slot from
    2 up is freed after its row's last read (at once if none) unless the row
    is kept.  Returns each row's slot, the slot count and first-read mask."""
    n_edges = src.shape[0]
    preload = np.asarray(preload, dtype=np.int64)
    first = np.ones(n_edges, dtype=bool)
    first[1:] = dst[1:] != dst[:-1]
    first &= ~np.isin(dst, preload)
    last = np.full(n, -1, dtype=np.int64)  # the last read of each row
    rows, at = np.unique(src[::-1], return_index=True)
    last[rows] = n_edges - 1 - at
    last[keep] = n_edges
    last = last.tolist()
    slot = [1] * n
    for row in np.asarray(zero).tolist():
        slot[row] = 0
    for k, row in enumerate(preload.tolist(), 2):
        slot[row] = k
    n_rows = 2 + preload.size
    free: list[int] = []
    for e, (s, d, f) in enumerate(zip(src.tolist(), dst.tolist(), first.tolist())):
        if f:
            if free:
                slot[d] = free.pop()
            else:
                slot[d] = n_rows
                n_rows += 1
            if last[d] < 0:
                free.append(slot[d])
        if last[s] == e and slot[s] >= 2:
            free.append(slot[s])
    return np.array(slot, dtype=np.int32), n_rows, first


_UNATE_CODE = {POSITIVE: _kernels.UN_POS, NEGATIVE: _kernels.UN_NEG, NON_UNATE: _kernels.UN_NON}
# per op code and pin: the pin's `sta_forward` unateness code, UN_POS for a pin the kind lacks
_UNATE = np.array([[_UNATE_CODE[u] for u in (CELLS[kind].unateness + (POSITIVE,) * 2)[:3]]
                   for kind in OP_KINDS], dtype=np.int8)


def _arc_rows(arc_index: dict, ops) -> np.ndarray:
    """The rows of `arc_index` per ([rise, fall], op code, pin) for the op
    codes `ops`, 0 elsewhere; refuses, naming it, a kind that lacks an arc."""
    table = np.zeros((2, len(OP_KINDS), 3), dtype=np.int32)
    for op in set(ops):
        kind = OP_KINDS[op]
        try:
            table[:, op, : PIN_COUNT[op]] = [
                [arc_index[(kind, pin, edge)] for pin in CELLS[kind].input_pins]
                for edge in ("rise", "fall")
            ]
        except KeyError:
            raise LibraryError(f"the library has no arcs for cell kind {kind}") from None
    return table


def compile_timing(n: Netlist, arc_index: dict) -> TimingProgram:
    """The timing edges of `compile_logic(n)`: one per (gate, pin) that
    reads a net, in gate then pin order.  A constant pin carries no
    transitions, and a pin the gate lacks reads GND, so both are left out."""
    p = compile_logic(n)
    gate, pin = np.nonzero(p.fanin >= 2)
    ops = p.ops[gate]
    a_rise, a_fall = (table[ops, pin] for table in _arc_rows(arc_index, ops.tolist()))
    return TimingProgram(n, p.signal_index, p.fanin[gate, pin], p.out[gate], _UNATE[ops, pin],
                         a_rise, a_fall, p.pi_index, p.po_index, p.n_signals)
