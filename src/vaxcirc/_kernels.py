"""Hot numeric kernels over the flat arrays of `_compile`, in numpy.

`eval_words` simulates a logic program bit-parallel over packed uint64
words; `sta_forward` propagates rise/fall arrivals for many delay rows at
once.  Callers reach both as module attributes (`_kernels.eval_words`), so
a wrapper installed on the module sees every call.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")

# op codes for eval_words
OP_INV = 0
OP_BUF = 1
OP_AND2 = 2
OP_OR2 = 3
OP_NAND2 = 4
OP_NOR2 = 5
OP_XOR2 = 6
OP_XNOR2 = 7
OP_MUX2 = 8

OP_CODES = {
    "INV": OP_INV,
    "BUF": OP_BUF,
    "AND2": OP_AND2,
    "OR2": OP_OR2,
    "NAND2": OP_NAND2,
    "NOR2": OP_NOR2,
    "XOR2": OP_XOR2,
    "XNOR2": OP_XNOR2,
    "MUX2": OP_MUX2,
}

# unateness codes for sta_forward; UN_FIRST + code marks the first edge into
# its destination, which writes the arrival instead of raising it
UN_POS = 0
UN_NEG = 1
UN_NON = 2
UN_FIRST = 3


_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def gate_words(op, a, b=None, s=None):
    """Output words of op code `op` over its input words `a`, `b` and, for
    MUX2, the select words `s`, elementwise; pins the op lacks are ignored.
    BUF returns `a` itself."""
    if op == OP_INV:
        return a ^ _FULL
    if op == OP_BUF:
        return a
    if op == OP_AND2:
        return a & b
    if op == OP_OR2:
        return a | b
    if op == OP_NAND2:
        return (a & b) ^ _FULL
    if op == OP_NOR2:
        return (a | b) ^ _FULL
    if op == OP_XOR2:
        return a ^ b
    if op == OP_XNOR2:
        return (a ^ b) ^ _FULL
    return (a & (s ^ _FULL)) | (b & s)  # OP_MUX2


def eval_words(ops, in0, in1, in2, out, words):
    """Bit-parallel evaluation over uint64 words, one row per signal.

    words[0] must be all-zero (GND) and words[1] all-one (VDD); gate rows
    are written in the order given, which must be topological.
    """
    for g in range(ops.shape[0]):
        words[out[g]] = gate_words(ops[g], words[in0[g]], words[in1[g]], words[in2[g]])
    return words


def sta_forward(src, dst, unate, arc_rise, arc_fall, delays, arrivals):
    """Forward arrival propagation for K delay rows at once.

    arrivals: (K, rows, 2) float64, preloaded with 0.0 at PIs and -inf
    elsewhere (constants stay -inf).  Edges must arrive in topological
    order of their gates.  Column 0 is rise, column 1 is fall.

    An edge whose code is UN_FIRST or more writes `a + d` to its
    destination instead of `max(arrival, a + d)`.  On the first edge into
    that destination the result is the same, because arrivals and delays
    are finite or -inf, and `max(-inf, x) == x`; the destination's row may
    therefore hold anything beforehand.
    """
    for e in range(src.shape[0]):
        s = src[e]
        d = dst[e]
        u = unate[e]
        first = u >= UN_FIRST
        if first:
            u -= UN_FIRST
        d_r = delays[:, arc_rise[e]]
        d_f = delays[:, arc_fall[e]]
        if u == UN_POS:
            a_r = arrivals[:, s, 0]
            a_f = arrivals[:, s, 1]
        elif u == UN_NEG:
            a_r = arrivals[:, s, 1]
            a_f = arrivals[:, s, 0]
        else:
            a_r = np.maximum(arrivals[:, s, 0], arrivals[:, s, 1])
            a_f = a_r
        if first:
            np.add(a_r, d_r, out=arrivals[:, d, 0])
            np.add(a_f, d_f, out=arrivals[:, d, 1])
        else:
            np.maximum(arrivals[:, d, 0], a_r + d_r, out=arrivals[:, d, 0])
            np.maximum(arrivals[:, d, 1], a_f + d_f, out=arrivals[:, d, 1])
    return arrivals


# Read by callers that report which kernel backend ran; numpy is the only one.
USING_NUMBA = False
