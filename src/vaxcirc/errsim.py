"""Bit-parallel functional simulation, datasets, and error metrics.

Vectors are packed 64 per machine word, in the dataset as in every
simulator; gate evaluation runs over whole words in topological order.
Output words are interpreted as unsigned or two's-complement integers
with the LSB-first bus convention (bit i of a bus is PO position i).
"""

from __future__ import annotations

import contextlib
import mmap
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._compile import compile_logic
from .celllib import SampledLibrary
from .netlist import Netlist
from .timing import sta_arrivals

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_INT64_MAX = int(np.iinfo(np.int64).max)


class SimulationError(Exception):
    """Dataset/netlist mismatch or unsupported configuration."""


class SimulationDataset:
    """Input stimulus, packed: `words` (n_pi, ceil(n_vectors / 64)) uint64 has
    PI j of vector i at bit i % 64 of words[j, i // 64], the padding clear.
    Built from an (N, n_pi) 0/1 matrix, which `vectors` gives back."""

    def __init__(self, vectors, pi_names: tuple[str, ...], seed: int, signed: bool = False):
        v = np.asarray(vectors)
        if v.ndim != 2 or v.shape[1] != len(pi_names):
            raise SimulationError("vector matrix does not match PI names")
        if v.size and int(v.max(initial=0)) > 1:
            raise SimulationError("vectors must be 0/1")
        self.words = np.zeros((len(pi_names), -(-len(v) // 64)), dtype=np.uint64)
        for i in range(0, len(v), _BLOCK):  # a whole-matrix transpose would double the memory
            _pack_into(self.words, i, v[i : i + _BLOCK])
        self.n_vectors, self.pi_names, self.seed, self.signed = len(v), pi_names, seed, signed

    @classmethod
    def _packed(cls, words, n_vectors: int, pi_names, seed: int, signed: bool):
        """The dataset of `n_vectors` vectors already packed into `words`."""
        ds = cls.__new__(cls)
        ds.words, ds.n_vectors, ds.pi_names = words, n_vectors, pi_names
        ds.seed, ds.signed = seed, signed
        return ds

    @property
    def vectors(self) -> np.ndarray:  # (N, n_pi) uint8
        bits = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return np.ascontiguousarray(bits[:, : self.n_vectors].T)


EXHAUSTIVE_LIMIT = 20  # 2^20 vectors; beyond this exhaustive mode is refused
_BLOCK = 8192  # vectors drawn and packed at a time; a multiple of 64


def generate_dataset(
    n: Netlist, count: int, seed: int, exhaustive: bool = False, signed: bool = False
) -> SimulationDataset:
    """Uniform random vectors, packed `_BLOCK` at a time, or every combination when exhaustive."""
    n_pi = len(n.inputs)
    if exhaustive:
        if n_pi > EXHAUSTIVE_LIMIT:
            raise SimulationError(
                f"exhaustive dataset over {n_pi} inputs exceeds 2^{EXHAUSTIVE_LIMIT}"
            )
        total = 1 << n_pi
        words = np.empty((n_pi, -(-total // 64)), dtype=np.uint64)
        for j in range(min(n_pi, 6)):  # vector i's PI j is bit j of i: one pattern per word
            words[j] = sum(1 << i for i in range(min(total, 64)) if i >> j & 1)
        index = np.arange(words.shape[1], dtype=np.uint64)
        for j in range(6, n_pi):  # whole words of 0 or 1, by bit j - 6 of the word index
            words[j] = np.negative(index >> (j - 6) & 1)
        return SimulationDataset._packed(words, total, n.inputs, seed, signed)
    if count <= 0:
        raise SimulationError("count must be positive")
    words = np.zeros((n_pi, -(-count // 64)), dtype=np.uint64)
    bits = np.random.default_rng(seed).bit_generator
    for i in range(0, count, _BLOCK):  # a full block draws whole raw words: one stream
        m = min(_BLOCK, count - i)
        # numpy's `integers(0, 2, dtype=np.uint8)`: the top bit of each raw byte, little-endian
        raw = bits.random_raw(-(-m * n_pi // 8)).astype("<u8", copy=False).view(np.uint8)
        raw >>= 7
        _pack_into(words, i, raw[: m * n_pi].reshape(m, n_pi))
    return SimulationDataset._packed(words, count, n.inputs, seed, signed)


def _pack_into(words: np.ndarray, i: int, v: np.ndarray) -> None:
    """Pack the (m, n_pi) 0/1 rows `v`, vectors i .. i + m - 1 with i a multiple of
    64, into the zeroed `SimulationDataset.words` `words` through one transpose."""
    packed = np.packbits(np.ascontiguousarray(v.T), axis=1, bitorder="little")
    words.view(np.uint8)[:, i // 8 :][:, : packed.shape[1]] = packed


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """(N,) 0/1 -> packed uint64 words, vector i at bit position i%64."""
    words = np.zeros((1, (bits.shape[0] + 63) // 64), dtype=np.uint64)
    _pack_into(words, 0, bits.astype(np.uint8)[:, None])
    return words[0]


def mapped_words(rows: int, n_words: int, huge: bool = False) -> np.ndarray:
    """A zeroed (rows, n_words) uint64 array in a private anonymous map, which a forked
    child copies on write.  A freed malloc block of a few MB raises glibc's mmap threshold;
    mid-size arrays then stay resident.  With `huge`, one of 2 MB or more starts on a 2 MB
    boundary in transparent huge pages: a fault per 2 MB touched, not per 4 KB page."""
    size, page = 8 * rows * n_words, 2 << 20
    pad = page if huge and size >= page and hasattr(mmap, "MADV_HUGEPAGE") else 0
    buf = mmap.mmap(-1, size + pad, flags=mmap.MAP_PRIVATE)
    words = np.frombuffer(buf, np.uint64)
    if pad:
        with contextlib.suppress(OSError):  # a kernel built without huge pages refuses
            buf.madvise(mmap.MADV_HUGEPAGE)
        words = words[-words.ctypes.data % pad // 8 :][: rows * n_words]
    return words.reshape(rows, n_words)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits for the first n vectors."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n].astype(np.uint8)


class Evaluator:
    """Compiled bit-parallel evaluator for one netlist."""

    def __init__(self, n: Netlist):
        self.netlist = n
        self.program = compile_logic(n)

    def _check(self, ds: SimulationDataset):
        if ds.pi_names != self.netlist.inputs:
            raise SimulationError(
                f"dataset PIs {ds.pi_names} do not match netlist PIs "
                f"{self.netlist.inputs}"
            )

    def signal_words(self, ds: SimulationDataset) -> np.ndarray:
        """All signal rows (constants, PIs, gate outputs) as packed words."""
        self._check(ds)
        n_rows = self.program.n_signals
        words = np.empty((n_rows, ds.words.shape[1]), dtype=np.uint64)
        return self.slot_words(ds.words, np.arange(n_rows), words)

    def po_words(self, ds: SimulationDataset) -> np.ndarray:
        """The PO rows of `signal_words(ds)`, simulated in only as many word
        rows as are live at once (`LogicProgram.word_slots`)."""
        self._check(ds)
        p = self.program
        slot, n_rows = p.word_slots()
        words = self.slot_words(ds.words, slot, mapped_words(n_rows, ds.words.shape[1]))
        return words[slot[p.po_index]]

    def slot_words(self, pi_words: np.ndarray, slot: np.ndarray, out: np.ndarray) -> np.ndarray:
        """`out` (rows, words) after simulating every gate over the packed PI
        words `pi_words`, signal row r in row slot[r] of `out`, as
        `LogicProgram.word_slots` assigns them."""
        p = self.program
        out[0] = 0
        out[1] = _FULL
        out[slot[p.pi_index]] = pi_words
        _kernels.eval_words(p.ops, *slot[p.fanin].T, slot[p.out], out)
        return out

    def po_bits(self, ds: SimulationDataset) -> np.ndarray:
        """(N, n_po) output bit matrix.  It is column-major, so each column
        written here and read by `interpret_values` is contiguous."""
        words = self.signal_words(ds)
        n = ds.n_vectors
        out = np.empty((n, len(self.program.po_index)), dtype=np.uint8, order="F")
        for j, row in enumerate(self.program.po_index):
            out[:, j] = unpack_bits(words[row], n)
        return out

    def __call__(self, vectors: np.ndarray) -> np.ndarray:
        """PO bit matrix for a raw (N, n_pi) 0/1 vector array."""
        ds = SimulationDataset(np.asarray(vectors, dtype=np.uint8), self.netlist.inputs, -1)
        return self.po_bits(ds)


def interpret_values(bits: np.ndarray, signed: bool = False):
    """Bus values from a (N, n_po) bit matrix, LSB-first.

    Returns int64 when the bus fits, else a list of Python ints.  An int64
    bus is built one column at a time, so no (N, n_po) int64 temporary is
    made.
    """
    n, width = bits.shape
    if width <= 62:
        vals = np.zeros(n, dtype=np.int64)
        for j in range(width):
            vals |= bits[:, j].astype(np.int64) << j
        if signed and width:
            vals -= bits[:, -1].astype(np.int64) << width
        return vals
    packed = np.packbits(bits, axis=1, bitorder="little")
    vals = [int.from_bytes(row.tobytes(), "little") for row in packed]
    if signed and width:
        top = 1 << width
        vals = [v - top if bits[i, -1] else v for i, v in enumerate(vals)]
    return vals


@dataclass(frozen=True)
class ErrorMetrics:
    nmed: float
    mred: float
    error_rate: float
    max_ed: int
    n_vectors: int


def _metrics_from_bits(exact, approx_bits: np.ndarray, signed: bool) -> ErrorMetrics:
    """Error metrics of an approximate PO bit matrix against the exact bus
    values (`interpret_values` of the exact bits, computed once by the
    caller)."""
    approx = interpret_values(approx_bits, signed)
    n, width = approx_bits.shape
    if isinstance(exact, np.ndarray):
        ed = np.abs(approx - exact)
        max_ed = int(ed.max(initial=0))
        # an int64 sum is exact while n * max_ed fits; else sum Python ints
        total = int(ed.sum()) if max_ed <= _INT64_MAX // max(n, 1) else sum(ed.tolist())
        errors = int(np.count_nonzero(ed))
        rel = float(np.mean(ed / np.maximum(1, np.abs(exact)))) if n else 0.0
    else:
        ed = [abs(a - e) for a, e in zip(approx, exact)]
        total = sum(ed)
        max_ed = max(ed, default=0)
        errors = sum(1 for d in ed if d)
        rel = sum(d / max(1, abs(e)) for d, e in zip(ed, exact)) / n if n else 0.0
    denom = (1 << width) - 1 if width else 1
    nmed = total / (n * denom) if n else 0.0
    return ErrorMetrics(nmed, rel, errors / n if n else 0.0, max_ed, n)


def nmed_words(
    exact: np.ndarray, approx: np.ndarray, n: int, signed: bool = False
) -> list[float]:
    """NMED of each approximate bus against the exact one, read straight
    from packed words: bitwise `_metrics_from_bits(...).nmed` of the same
    buses, at any width.  `approx` is overwritten.

    `exact` is (width, words) and `approx` (width, count, words), PO-major
    as a simulator's slots hold them, with words = ceil(n / 64); row j
    holds bus bit j (LSB first) of the `n` vectors, and the bits past `n`
    are ignored.  `approx` becomes the bits `d_j = a_j ^ e_j` that differ,
    and A < E is found per vector in one pass from LSB to MSB, 64 vectors
    per word op; the larger bus then has bit j set on
    `d_j & (a_j ^ lt) = d_j & (e_j ^ ~lt)`, so |A - E| sums to
    sum_j w_j * (2 * popcount(d_j & (e_j ^ ~lt)) - popcount(d_j))
    with w_j = 2^j, and -2^(width-1) for the sign bit of a signed bus.
    The sum is an exact Python int, so no per-vector value is built.
    """
    width, count, n_words = approx.shape
    if not n or not width:
        return [0.0] * count
    diff = np.bitwise_xor(approx, exact[:, None], out=approx)
    if n % 64:  # the padding bits of the last word
        diff[..., -1] &= np.uint64((1 << (n % 64)) - 1)
    lt = np.zeros((count, n_words), dtype=np.uint64)  # A < E, per vector
    for j in range(width):
        d = diff[j]
        wins = d ^ exact[j] if signed and j == width - 1 else exact[j]
        lt ^= (lt ^ wins) & d  # lt where d is clear, else wins
    ones = np.bitwise_count(diff).sum(axis=2, dtype=np.int64)
    lt = ~lt
    for d, e in zip(diff, exact):  # no temporary the size of `approx`
        d &= e ^ lt  # the larger bus's bits
    larger = np.bitwise_count(diff).sum(axis=2, dtype=np.int64)
    weights = [1 << j for j in range(width)]
    if signed:
        weights[-1] = -weights[-1]
    denom = n * ((1 << width) - 1)
    return [
        sum(w * c for w, c in zip(weights, column)) / denom
        for column in (2 * larger - ones).T.tolist()
    ]


def simulate_metrics(exact: Netlist, approx: Netlist, ds: SimulationDataset) -> ErrorMetrics:
    """Error metrics of `approx` against `exact` over the dataset.

    The two netlists must agree on PI names/order and PO count.
    """
    if exact.inputs != approx.inputs:
        raise SimulationError("netlists disagree on primary inputs")
    if len(exact.outputs) != len(approx.outputs):
        raise SimulationError("netlists disagree on primary output count")
    exact_values = interpret_values(Evaluator(exact).po_bits(ds), ds.signed)
    a_bits = Evaluator(approx).po_bits(ds)
    return _metrics_from_bits(exact_values, a_bits, ds.signed)


def timing_error_metrics(
    n: Netlist, lib: SampledLibrary, clock_ps: float, ds: SimulationDataset
) -> ErrorMetrics:
    """Stale-value timing errors at a clock period under one sampled library.

    A PO whose worst arrival exceeds clock_ps misses the deadline on every
    vector and outputs the previous vector's settled value; the first
    vector is assumed settled.  Error metrics compare against the fully
    settled outputs.
    """
    if not (0.0 < clock_ps < float("inf")):
        raise SimulationError("clock period must be positive and finite")
    late = np.array(sta_arrivals(n, lib).po_arrivals) > clock_ps
    exact_bits = Evaluator(n).po_bits(ds)
    stale = stale_bits(exact_bits, late)
    return _metrics_from_bits(interpret_values(exact_bits, ds.signed), stale, ds.signed)


def stale_bits(bits: np.ndarray, late: np.ndarray) -> np.ndarray:
    """A copy of the (N, n_po) PO bits in which each PO where `late` is set
    shows the previous vector's value; the first vector is settled."""
    stale = bits.copy(order="K")  # keeps a column-major matrix column-major
    stale[1:, late] = bits[:-1, late]
    return stale


def stale_words(words: np.ndarray, late: np.ndarray) -> np.ndarray:
    """A copy of the (n_po, words) PO words in which each PO where `late`
    is set shows the previous vector's value; the first vector is settled.
    The words of `stale_bits`, without unpacking them."""
    stale = words.copy()
    w = words[late]
    shifted = w << np.uint64(1)
    shifted[:, 1:] |= w[:, :-1] >> np.uint64(63)
    shifted[:, :1] |= w[:, :1] & np.uint64(1)
    stale[late] = shifted
    return stale
