"""Lowering of netlists to flat index arrays for the kernels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .netlist import GND, NEGATIVE, NON_UNATE, VDD, Netlist


@dataclass
class LogicProgram:
    """Topologically ordered op list over a signal table.

    Signals 0 and 1 are GND and VDD; primary inputs follow in declaration
    order, then one signal per gate output in topological order.
    """

    netlist: Netlist
    signal_index: dict[str, int]
    ops: np.ndarray
    in0: np.ndarray
    in1: np.ndarray
    in2: np.ndarray
    out: np.ndarray
    pi_index: np.ndarray  # signal row per primary input
    po_index: np.ndarray  # signal row per primary output position

    @property
    def n_signals(self) -> int:
        return 2 + len(self.netlist.inputs) + len(self.ops)


def compile_logic(n: Netlist) -> LogicProgram:
    index: dict[str, int] = {GND: 0, VDD: 1}
    for pi in n.inputs:
        index[pi] = len(index)
    topo = n.topological_order()
    for g in topo:
        index[g.output] = len(index)

    n_gates = len(topo)
    ops = np.zeros(n_gates, dtype=np.int8)
    in0 = np.zeros(n_gates, dtype=np.int32)
    in1 = np.zeros(n_gates, dtype=np.int32)
    in2 = np.zeros(n_gates, dtype=np.int32)
    out = np.zeros(n_gates, dtype=np.int32)
    for i, g in enumerate(topo):
        ops[i] = _kernels.OP_CODES[g.kind]
        pins = g.cell.input_pins
        in0[i] = index[g.fanin[pins[0]]]
        if len(pins) > 1:
            in1[i] = index[g.fanin[pins[1]]]
        if len(pins) > 2:
            in2[i] = index[g.fanin[pins[2]]]
        out[i] = index[g.output]

    pi_index = np.array([index[pi] for pi in n.inputs], dtype=np.int32)
    po_index = np.array([index[po] for po in n.outputs], dtype=np.int32)
    return LogicProgram(n, index, ops, in0, in1, in2, out, pi_index, po_index)


@dataclass
class TimingProgram:
    """Flat timing-edge list in topological gate order.

    One edge per (gate, input pin).  Edges carry the source/destination net
    rows, the pin's unateness code, and arc-row indices (into a library's
    canonical arc vector) for the rise and fall output transitions.
    """

    netlist: Netlist
    net_index: dict[str, int]
    src: np.ndarray
    dst: np.ndarray
    unate: np.ndarray
    arc_rise: np.ndarray
    arc_fall: np.ndarray
    pi_rows: np.ndarray
    po_rows: np.ndarray  # net row per primary output position (-1 = constant)

    @property
    def n_nets(self) -> int:
        return len(self.net_index)

    def init_arrivals(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """(count, nets, 2) arrivals, -inf except 0.0 at the PIs.

        The array is a view of a net-major (nets, 2, count) buffer, so the
        column `sta_forward` reads or writes per edge, one net and one
        transition over all rows, is contiguous in memory.  The buffer is
        the head of the contiguous float64 array `out` when given (it must
        be large enough), else a new one.
        """
        shape = (self.n_nets, 2, count)
        if out is None:
            buf = np.empty(shape, dtype=np.float64)
        else:
            buf = out.reshape(-1)[: self.n_nets * 2 * count].reshape(shape)
        buf[...] = _kernels.NEG_INF
        buf[self.pi_rows] = 0.0
        return buf.transpose(2, 0, 1)

    def forward(self, delays: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Arrivals (rows, nets, [rise, fall]) for each row of arc delays;
        `out` as for `init_arrivals`."""
        arr = self.init_arrivals(delays.shape[0], out)
        # arc-major copy: each arc's delays over all rows are contiguous
        delays = np.ascontiguousarray(delays.T).T
        _kernels.sta_forward(
            self.src, self.dst, self.unate, self.arc_rise, self.arc_fall, delays, arr
        )
        return arr

    def po_arrivals(self, arr: np.ndarray) -> np.ndarray:
        """Worst of rise and fall per PO, shape (rows, n_po); -inf for a
        constant PO."""
        out = np.full((arr.shape[0], self.po_rows.shape[0]), _kernels.NEG_INF)
        driven = self.po_rows >= 0
        out[:, driven] = arr[:, self.po_rows[driven], :].max(axis=2)
        return out


def compile_timing(n: Netlist, arc_index: dict) -> TimingProgram:
    net_index: dict[str, int] = {}
    for pi in n.inputs:
        net_index[pi] = len(net_index)
    topo = n.topological_order()
    for g in topo:
        net_index[g.output] = len(net_index)

    src, dst, unate, a_rise, a_fall = [], [], [], [], []
    for g in topo:
        cell = g.cell
        for pin, un in zip(cell.input_pins, cell.unateness):
            w = g.fanin[pin]
            if w in (GND, VDD):
                continue  # constants carry no transitions
            src.append(net_index[w])
            dst.append(net_index[g.output])
            if un == NEGATIVE:
                unate.append(_kernels.UN_NEG)
            elif un == NON_UNATE:
                unate.append(_kernels.UN_NON)
            else:
                unate.append(_kernels.UN_POS)
            a_rise.append(arc_index[(g.kind, pin, "rise")])
            a_fall.append(arc_index[(g.kind, pin, "fall")])

    pi_rows = np.array([net_index[pi] for pi in n.inputs], dtype=np.int32)
    po_rows = np.array(
        [net_index.get(po, -1) for po in n.outputs], dtype=np.int32
    )
    return TimingProgram(
        n,
        net_index,
        np.array(src, dtype=np.int32),
        np.array(dst, dtype=np.int32),
        np.array(unate, dtype=np.int8),
        np.array(a_rise, dtype=np.int32),
        np.array(a_fall, dtype=np.int32),
        pi_rows,
        po_rows,
    )
