import math
import tracemalloc

import numpy as np
import pytest

from vaxcirc.celllib import nominal_library
from vaxcirc.errsim import (
    _BLOCK,
    Evaluator,
    SimulationDataset,
    SimulationError,
    generate_dataset,
    interpret_values,
    nmed_words,
    pack_bits,
    simulate_metrics,
    timing_error_metrics,
    unpack_bits,
)
from vaxcirc.netlist import Gate, Netlist, parse_netlist

from _oracles import naive_outputs, random_dag


def _single(kind, n_in, name="c"):
    pins = ("A", "B", "S")[:n_in]
    nets = tuple(f"x{i}" for i in range(n_in))
    g = Gate("g", kind, dict(zip(pins, nets)), "y")
    return Netlist(name, nets, ("y",), (g,))


class TestCompileEvaluator:
    def test_inv(self):
        ev = Evaluator(_single("INV", 1))
        out = ev(np.array([[0], [1]], dtype=np.uint8))
        assert out.tolist() == [[1], [0]]

    def test_xor_truth_table(self):
        ev = Evaluator(_single("XOR2", 2))
        vecs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        assert ev(vecs)[:, 0].tolist() == [0, 1, 1, 0]

    def test_mux_semantics(self):
        # Y = S ? B : A
        ev = Evaluator(_single("MUX2", 3))
        vecs = np.array(
            [[0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1]], dtype=np.uint8
        )
        assert ev(vecs)[:, 0].tolist() == [0, 1, 1, 0]

    def test_rca4_spot_vector(self, rca4):
        ev = Evaluator(rca4)
        vec = np.zeros((1, 9), dtype=np.uint8)
        for i, name in enumerate(rca4.inputs):
            if name.startswith("a"):
                vec[0, i] = (5 >> int(name[1:])) & 1
            elif name.startswith("b"):
                vec[0, i] = (7 >> int(name[1:])) & 1
        bits = ev(vec)
        assert int(interpret_values(bits)[0]) == 12

    def test_matches_naive_interpreter_exhaustive(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = random_dag(rng, int(rng.integers(5, 25)), n_pis=6)
            ds = generate_dataset(n, 1, seed=0, exhaustive=True)
            got = Evaluator(n)(ds.vectors)
            want = naive_outputs(n, ds.vectors)
            assert [tuple(row) for row in got.tolist()] == want


class TestPackBits:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for count in (1, 63, 64, 65, 200, 512):
            bits = rng.integers(0, 2, count, dtype=np.uint8)
            assert np.array_equal(unpack_bits(pack_bits(bits), count), bits)

    def test_word_layout_little(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1
        assert pack_bits(bits)[0] == np.uint64(1)


class TestGenerateDataset:
    def test_seed_deterministic(self, rca4):
        a = generate_dataset(rca4, 100, seed=5)
        b = generate_dataset(rca4, 100, seed=5)
        assert np.array_equal(a.vectors, b.vectors)
        assert not np.array_equal(
            a.vectors, generate_dataset(rca4, 100, seed=6).vectors
        )

    def test_exhaustive_distinct(self, rca4):
        ds = generate_dataset(rca4, 1, seed=0, exhaustive=True)
        assert ds.n_vectors == 2 ** 9
        assert len({tuple(v) for v in ds.vectors.tolist()}) == 2 ** 9

    def test_exhaustive_limit(self):
        nets = tuple(f"x{i}" for i in range(21))
        gates = tuple(Gate(f"g{i}", "BUF", {"A": x}, f"y{i}") for i, x in enumerate(nets))
        n = Netlist("wide", nets, tuple(g.output for g in gates), gates)
        with pytest.raises(SimulationError):
            generate_dataset(n, 1, seed=0, exhaustive=True)

    @pytest.mark.parametrize("n_pi", [0, 1, 5, 6, 7, 12])
    def test_exhaustive_words_are_the_packed_matrix(self, n_pi):
        """The exhaustive words, written as fixed patterns, are those of the
        (2^n_pi, n_pi) matrix whose vector i holds bit j of i at PI j."""
        n = Netlist("pis", tuple(f"i{k}" for k in range(n_pi)), (), ())
        index = np.arange(1 << n_pi)
        matrix = ((index[:, None] >> np.arange(n_pi)) & 1).astype(np.uint8)
        got = generate_dataset(n, 1, seed=4, exhaustive=True)
        assert got.n_vectors == len(index)
        assert got.words.dtype == np.uint64
        assert np.array_equal(got.words, SimulationDataset(matrix, n.inputs, 4).words)
        assert np.array_equal(got.vectors, matrix)

    def test_exhaustive_builds_no_vector_matrix(self):
        """At 18 PIs the (2^18, 18) byte matrix would be 4.7 MB; the words
        are 0.59 MB, and the draw allocates at most twice that."""
        n = Netlist("pis", tuple(f"i{k}" for k in range(18)), (), ())
        tracemalloc.start()
        try:
            ds = generate_dataset(n, 1, seed=0, exhaustive=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * ds.words.nbytes

    def test_bit_frequency(self, rca8):
        ds = generate_dataset(rca8, 100_000, seed=1)
        freq = ds.vectors.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.01)

    @pytest.mark.parametrize("count,n_pi,seed", [
        (1, 1, 0), (1, 17, 3), (100, 1, 4), (7, 3, 5), (999, 5, 6),
        (1000, 32, 2**40 + 7), (33, 17, 2**64 - 1), (5, 0, 8),
    ])
    def test_matches_numpy_integer_draw(self, count, n_pi, seed):
        """The vectors are numpy's own 0/1 draw at the same seed, whether or
        not count * n_pi fills whole raw words."""
        n = Netlist("pis", tuple(f"i{k}" for k in range(n_pi)), (), ())
        want = np.random.default_rng(seed).integers(0, 2, size=(count, n_pi), dtype=np.uint8)
        got = generate_dataset(n, count, seed).vectors
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)


class TestNmedWords:
    @pytest.mark.parametrize("signed", [False, True])
    def test_search_block_allocates_at_most_one_more_block(self, signed):
        """On the search's (POs, chromosomes, words) fill, `nmed_words`
        overwrites `approx` and allocates at most 1.5 times its size."""
        rng = np.random.default_rng(0)
        exact = rng.integers(0, 2**64, size=(9, 157), dtype=np.uint64)
        approx = rng.integers(0, 2**64, size=(9, 44, 157), dtype=np.uint64)
        approx[:4] = exact[:4, None]
        want = nmed_words(exact, approx.copy(), 10_000, signed)
        tracemalloc.start()
        try:
            got = nmed_words(exact, approx, 10_000, signed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 1.5 * approx.nbytes


class TestInterpretValues:
    def test_unsigned(self):
        bits = np.array([[1, 0, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)
        assert interpret_values(bits).tolist() == [5, 15]

    def test_signed_twos_complement(self):
        bits = np.array([[0, 0, 0, 1], [1, 1, 1, 1], [0, 1, 0, 0]], dtype=np.uint8)
        assert interpret_values(bits, signed=True).tolist() == [-8, -1, 2]

    def test_wide_python_ints(self):
        bits = np.zeros((1, 70), dtype=np.uint8)
        bits[0, 69] = 1
        vals = interpret_values(bits)
        assert vals[0] == 1 << 69


class TestSimulateMetrics:
    def test_exact_is_zero(self, rca4):
        ds = generate_dataset(rca4, 500, seed=0)
        m = simulate_metrics(rca4, rca4, ds)
        assert m.nmed == 0.0
        assert m.mred == 0.0
        assert m.error_rate == 0.0
        assert m.max_ed == 0

    def test_lsb_truncated_rca4(self, rca4):
        # b0 reads tied to GND: ED = b0, mean 0.5, max = 2^5 - 1
        from test_netlist import _tie_pi

        approx = _tie_pi(rca4, "b0", "GND")
        ds = generate_dataset(rca4, 1, seed=0, exhaustive=True)
        m = simulate_metrics(rca4, approx, ds)
        assert m.nmed == 0.5 / 31.0
        assert m.error_rate == 0.5
        assert m.max_ed == 1

    def test_stuck_single_output(self):
        exact = _single("BUF", 1)
        wrong = Netlist(
            "c", ("x0",), ("y",), (Gate("g", "INV", {"A": "x0"}, "y"),)
        )
        ds = generate_dataset(exact, 64, seed=2)
        m = simulate_metrics(exact, wrong, ds)
        assert m.nmed == 1.0
        assert m.error_rate == 1.0

    def test_interface_mismatch(self, rca4, rca8):
        ds = generate_dataset(rca4, 10, seed=0)
        with pytest.raises(SimulationError):
            simulate_metrics(rca4, rca8, ds)

    def test_streaming_additivity(self, rca4):
        from test_netlist import _tie_pi

        approx = _tie_pi(rca4, "b1", "VDD")
        d1 = generate_dataset(rca4, 300, seed=1)
        d2 = generate_dataset(rca4, 200, seed=2)
        union = SimulationDataset(
            np.concatenate([d1.vectors, d2.vectors]), rca4.inputs, 0, False
        )
        m1 = simulate_metrics(rca4, approx, d1)
        m2 = simulate_metrics(rca4, approx, d2)
        mu = simulate_metrics(rca4, approx, union)
        total = m1.nmed * 300 + m2.nmed * 200
        assert math.isclose(mu.nmed * 500, total, rel_tol=1e-12)


class TestTimingErrorMetrics:
    def _slow_lib(self):
        from test_timing import _uniform_lib

        return nominal_library(_uniform_lib(10.0, 12.0))

    def test_relaxed_clock_no_errors(self, rca4, default_lib):
        ds = generate_dataset(rca4, 200, seed=0)
        m = timing_error_metrics(rca4, nominal_library(default_lib), 1e9, ds)
        assert m.nmed == 0.0 and m.error_rate == 0.0

    def test_two_vector_stale_flip(self):
        n = _single("BUF", 1)
        vecs = np.array([[0], [1]], dtype=np.uint8)
        ds = SimulationDataset(vecs, n.inputs, 0, False)
        m = timing_error_metrics(n, self._slow_lib(), 1.0, ds)
        # second vector outputs the first vector's value: ED = |1 - 0|
        assert m.nmed == (0 + 1) / (2 * 1)
        assert m.error_rate == 0.5

    def test_rejects_bad_clock(self, rca4, default_lib):
        ds = generate_dataset(rca4, 10, seed=0)
        with pytest.raises(SimulationError):
            timing_error_metrics(rca4, nominal_library(default_lib), 0.0, ds)

    def test_rca8_guardband_regression(self, rca8, default_lib):
        from vaxcirc.timing import sta_arrivals

        nom = nominal_library(default_lib)
        clock = 0.9 * sta_arrivals(rca8, nom).cpd
        ds = generate_dataset(rca8, 1000, seed=4)
        m1 = timing_error_metrics(rca8, nom, clock, ds)
        m2 = timing_error_metrics(rca8, nom, clock, ds)
        assert m1 == m2
        assert m1.nmed > 0.0
        print(f"rca8 stale NMED at 0.9x nominal: {m1.nmed!r}")


def _pis(n_pi):
    return Netlist("pis", tuple(f"i{k}" for k in range(n_pi)), (), ())


class TestPackedDataset:
    @pytest.mark.parametrize("n_pi", [0, 1, 17, 33])
    @pytest.mark.parametrize("count", [1, 7, 63, 64, 65, 8193, 100_001])
    def test_round_trip_and_pi_words(self, count, n_pi):
        """A dataset built from a 0/1 matrix gives it back, and the PI rows
        `signal_words` writes are `pack_bits` of each column."""
        v = np.random.default_rng(count + n_pi).integers(0, 2, (count, n_pi), dtype=np.uint8)
        n = _pis(n_pi)
        ds = SimulationDataset(v, n.inputs, 0)
        assert ds.n_vectors == count and np.array_equal(ds.vectors, v)
        words = Evaluator(n).signal_words(ds)
        n_words = (count + 63) // 64
        want = [np.zeros(n_words, np.uint64), ~np.zeros(n_words, np.uint64)]
        want += [pack_bits(v[:, j]) for j in range(n_pi)]
        assert np.array_equal(words, np.array(want))

    @pytest.mark.parametrize("n_pi", [1, 3, 17, 32])
    @pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 63])
    def test_draw_split_into_blocks_matches_numpy(self, count, n_pi):
        """Drawn a block at a time, the vectors are still numpy's own 0/1
        draw, and their words are the packed columns."""
        seed = 31 * count + n_pi
        want = np.random.default_rng(seed).integers(0, 2, size=(count, n_pi), dtype=np.uint8)
        ds = generate_dataset(_pis(n_pi), count, seed)
        assert np.array_equal(ds.vectors, want)
        assert np.array_equal(ds.words, np.array([pack_bits(col) for col in want.T]))

    def test_draw_peak_is_below_the_byte_matrix(self):
        """100k vectors over 32 PIs are 3.2 MB as a byte matrix and 0.4 MB
        as words; the draw never holds the byte matrix."""
        n = _pis(32)
        generate_dataset(n, 1000, seed=0)  # numpy's lazy set-up
        tracemalloc.start()
        try:
            ds = generate_dataset(n, 100_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        assert ds.n_vectors == 100_000


class TestPoWords:
    @staticmethod
    def _check(n, count, seed):
        ev = Evaluator(n)
        ds = generate_dataset(n, count, seed)
        assert np.array_equal(ev.po_words(ds), ev.signal_words(ds)[ev.program.po_index])

    def test_random_dags_and_their_ties(self):
        """The slotted simulation reads what the full one does, also when a
        tie folds gates away and leaves POs on PIs or constants."""
        from vaxcirc.approx import tie_nets

        rng = np.random.default_rng(12)
        for k in range(40):
            n = random_dag(rng, int(rng.integers(1, 40)), n_pis=int(rng.integers(1, 7)))
            self._check(n, int(rng.integers(1, 300)), k)
            nets = [g.output for g in n.gates] + list(n.inputs)
            tie = {w: ("GND", "VDD")[k % 2] for w in rng.choice(nets, 2)}
            self._check(tie_nets(n, tie), 200, k)

    @pytest.mark.parametrize("family,width,taps", [
        ("rca_adder", 8, 1), ("cla_adder", 8, 1), ("array_multiplier", 16, 1), ("mac_fir", 8, 2),
    ])
    def test_families(self, family, width, taps):
        from vaxcirc.harness import BenchmarkSpec, generate_benchmark

        self._check(generate_benchmark(BenchmarkSpec(family, width, taps=taps)), 1000, 4)
