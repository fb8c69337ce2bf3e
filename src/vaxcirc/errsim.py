"""Bit-parallel functional simulation, datasets, and error metrics.

Vectors are packed 64 per machine word; gate evaluation runs over whole
words in topological order.  Output words are interpreted as unsigned or
two's-complement integers with the LSB-first bus convention (bit i of a
bus is PO position i).
"""

from __future__ import annotations

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


@dataclass
class SimulationDataset:
    """Input stimulus: one row per vector, one column per PI (0/1)."""

    vectors: np.ndarray
    pi_names: tuple[str, ...]
    seed: int
    signed: bool = False

    @property
    def n_vectors(self) -> int:
        return int(self.vectors.shape[0])

    def __post_init__(self):
        v = self.vectors
        if v.ndim != 2 or v.shape[1] != len(self.pi_names):
            raise SimulationError("vector matrix does not match PI names")
        if v.size and int(v.max(initial=0)) > 1:
            raise SimulationError("vectors must be 0/1")


EXHAUSTIVE_LIMIT = 20  # 2^20 vectors; beyond this exhaustive mode is refused


def generate_dataset(
    n: Netlist, count: int, seed: int, exhaustive: bool = False, signed: bool = False
) -> SimulationDataset:
    """Uniform random vectors, or every input combination when exhaustive."""
    n_pi = len(n.inputs)
    if exhaustive:
        if n_pi > EXHAUSTIVE_LIMIT:
            raise SimulationError(
                f"exhaustive dataset over {n_pi} inputs exceeds 2^{EXHAUSTIVE_LIMIT}"
            )
        total = 1 << n_pi
        idx = np.arange(total, dtype=np.uint32)
        vectors = np.empty((total, n_pi), dtype=np.uint8)
        for j in range(n_pi):
            vectors[:, j] = (idx >> j) & 1
        return SimulationDataset(vectors, n.inputs, seed, signed)
    if count <= 0:
        raise SimulationError("count must be positive")
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(count, n_pi), dtype=np.uint8)
    return SimulationDataset(vectors, n.inputs, seed, signed)


def save_dataset(path, ds: SimulationDataset):
    """One hex vector per line (PI bits packed LSB-first) after a header."""
    width = (len(ds.pi_names) + 3) // 4
    with open(path, "w") as f:
        f.write("pis " + " ".join(ds.pi_names) + "\n")
        f.write(f"seed {ds.seed}\n")
        f.write(f"count {ds.n_vectors}\n")
        f.write(f"signed {int(ds.signed)}\n")
        for row in ds.vectors:
            v = 0
            for j, bit in enumerate(row):
                v |= int(bit) << j
            f.write(f"{v:0{width}x}\n")


def load_dataset(path) -> SimulationDataset:
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    try:
        pis = tuple(lines[0].split()[1:])
        seed = int(lines[1].split()[1])
        count = int(lines[2].split()[1])
        signed = bool(int(lines[3].split()[1]))
    except (IndexError, ValueError) as e:
        raise SimulationError(f"malformed dataset header in {path}: {e}") from e
    vectors = np.zeros((count, len(pis)), dtype=np.uint8)
    body = lines[4:]
    if len(body) != count:
        raise SimulationError(f"{path}: header says {count} vectors, found {len(body)}")
    for i, ln in enumerate(body):
        v = int(ln, 16)
        for j in range(len(pis)):
            vectors[i, j] = (v >> j) & 1
    return SimulationDataset(vectors, pis, seed, signed)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """(N,) 0/1 -> packed uint64 words, vector i at bit position i%64."""
    n = bits.shape[0]
    n_words = (n + 63) // 64
    raw = np.packbits(bits.astype(np.uint8), bitorder="little")
    buf = np.zeros(n_words * 8, dtype=np.uint8)
    buf[: raw.shape[0]] = raw
    return buf.view(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits for the first n vectors."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n].astype(np.uint8)


def unpack_rows(words: np.ndarray, rows, n: int) -> np.ndarray:
    """(n, len(rows)) bit matrix: column j is unpack_bits(words[rows[j]], n)."""
    out = np.empty((n, len(rows)), dtype=np.uint8)
    for j, row in enumerate(rows):
        out[:, j] = unpack_bits(words[row], n)
    return out


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

    def signal_words(
        self, ds: SimulationDataset, out: np.ndarray | None = None
    ) -> np.ndarray:
        """All signal rows (constants, PIs, gate outputs) as packed words,
        in the head of the uint64 array `out` when given, else in a new
        array."""
        self._check(ds)
        n = ds.n_vectors
        p = self.program
        shape = (p.n_signals, (n + 63) // 64)
        if out is None:
            words = np.empty(shape, dtype=np.uint64)
        else:
            words = out.reshape(-1)[: shape[0] * shape[1]].reshape(shape)
        words[0] = 0
        words[1] = _FULL
        for j, row in enumerate(p.pi_index):
            words[row] = pack_bits(ds.vectors[:, j])
        _kernels.eval_words(p.ops, p.in0, p.in1, p.in2, p.out, words)
        return words

    def po_bits(self, ds: SimulationDataset) -> np.ndarray:
        """(N, n_po) output bit matrix."""
        return unpack_rows(self.signal_words(ds), self.program.po_index, ds.n_vectors)

    def __call__(self, vectors: np.ndarray) -> np.ndarray:
        """PO bit matrix for a raw (N, n_pi) 0/1 vector array."""
        ds = SimulationDataset(
            np.asarray(vectors, dtype=np.uint8), self.netlist.inputs, -1, False
        )
        return self.po_bits(ds)


def compile_evaluator(n: Netlist) -> Evaluator:
    return Evaluator(n)


def interpret_values(bits: np.ndarray, signed: bool = False):
    """Bus values from a (N, n_po) bit matrix, LSB-first.

    Returns int64 when the bus fits, else a list of Python ints.
    """
    n, width = bits.shape
    if width <= 62:
        return _bus_values(lambda j: bits[:, j], n, width, signed)
    packed = np.packbits(bits, axis=1, bitorder="little")
    vals = [int.from_bytes(row.tobytes(), "little") for row in packed]
    if signed and width:
        top = 1 << width
        vals = [v - top if bits[i, -1] else v for i, v in enumerate(vals)]
    return vals


def interpret_rows(words: np.ndarray, rows, n: int, signed: bool = False):
    """`interpret_values(unpack_rows(words, rows, n), signed)` without the
    (n, len(rows)) bit matrix when the bus fits in int64: each row is
    unpacked only while its bit is added."""
    if len(rows) > 62:
        return interpret_values(unpack_rows(words, rows, n), signed)
    return _bus_values(lambda j: unpack_bits(words[rows[j]], n), n, len(rows), signed)


def _bus_values(column, n: int, width: int, signed: bool) -> np.ndarray:
    """int64 bus values from `column(j)`, the (n,) 0/1 bits of bus bit j,
    for width <= 62; one column at a time, so no (n, width) int64
    temporary is made."""
    vals = np.zeros(n, dtype=np.int64)
    for j in range(width):
        vals |= column(j).astype(np.int64) << j
    if signed and width:
        vals -= column(width - 1).astype(np.int64) << width
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
    return _metrics_from_values(exact, approx, approx_bits.shape[1])


def _metrics_from_values(exact, approx, width: int) -> ErrorMetrics:
    """Error metrics of approximate bus values of `width` bits against the
    exact ones; both as `interpret_values` gives them."""
    n = len(approx)
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


def simulate_metrics(
    exact: Netlist, approx: Netlist, ds: SimulationDataset, *, exact_values=None
) -> ErrorMetrics:
    """Error metrics of `approx` against `exact` over the dataset.

    The two netlists must agree on PI names/order and PO count.
    `exact_values` are the exact bus values over `ds` as `interpret_values`
    gives them; None simulates `exact` here.  A caller that scores many
    designs against one reference passes them to simulate it once.
    """
    if exact.inputs != approx.inputs:
        raise SimulationError("netlists disagree on primary inputs")
    if len(exact.outputs) != len(approx.outputs):
        raise SimulationError("netlists disagree on primary output count")
    if exact_values is None:
        exact_values = interpret_values(Evaluator(exact).po_bits(ds), ds.signed)
    elif len(exact_values) != ds.n_vectors:
        raise SimulationError("exact values do not match the dataset size")
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
    if clock_ps <= 0.0:
        raise SimulationError("clock period must be positive")
    late = np.array(sta_arrivals(n, lib).po_arrivals) > clock_ps
    exact_bits = Evaluator(n).po_bits(ds)
    stale = stale_bits(exact_bits, late)
    return _metrics_from_bits(interpret_values(exact_bits, ds.signed), stale, ds.signed)


def stale_bits(bits: np.ndarray, late: np.ndarray) -> np.ndarray:
    """A copy of the (N, n_po) PO bits in which each PO where `late` is set
    shows the previous vector's value; the first vector is settled."""
    stale = bits.copy()
    stale[1:, late] = bits[:-1, late]
    return stale
