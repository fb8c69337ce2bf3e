import numpy as np
import pytest

from vaxcirc.approx import (
    CandidateSet,
    ChromosomeError,
    apply_chromosome,
    build_candidates,
    exact_chromosome,
    format_chromosome,
    load_chromosome,
    parse_chromosome,
    save_chromosome,
    validate_genes,
)
from vaxcirc.celllib import sample_library
from vaxcirc.errsim import Evaluator, generate_dataset
from vaxcirc.netlist import GND, VDD, Gate, Netlist, simplify_constants
from vaxcirc.timing import annotate_edge_transitions, sta_arrivals, ssta_traverse

from _oracles import naive_eval, random_dag
from test_netlist import _tie_pi
from test_timing import _uniform_lib


@pytest.fixture(scope="module")
def rca4_ssta(rca4, default_lib):
    tmap = annotate_edge_transitions(rca4, default_lib, 50, seed=0)
    return ssta_traverse(rca4, default_lib, tmap), tmap


@pytest.fixture(scope="module")
def rca4_cs(rca4, rca4_ssta):
    return build_candidates(rca4, rca4_ssta[0])


class TestBuildCandidates:
    def test_threshold_range_enforced(self, rca4, rca4_ssta):
        with pytest.raises(ChromosomeError):
            build_candidates(rca4, rca4_ssta[0], 0.0)
        with pytest.raises(ChromosomeError):
            build_candidates(rca4, rca4_ssta[0], 1.5)

    def test_tiny_threshold_keeps_all_nonzero(self, rca4, rca4_ssta):
        ssta = rca4_ssta[0]
        cs = build_candidates(rca4, ssta, 1e-300)
        nonzero = {w for w, v in ssta.cpb.items() if v > 0.0}
        assert set(cs.nets) == nonzero

    def test_chain_all_candidates(self):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.05)
        gates = tuple(
            Gate(f"g{i}", "INV", {"A": "a" if i == 0 else f"n{i - 1}"}, f"n{i}")
            for i in range(4)
        )
        n = Netlist("chain", ("a",), ("n3",), gates)
        tmap = annotate_edge_transitions(n, lib, 10, seed=0)
        ssta = ssta_traverse(n, lib, tmap)
        cs = build_candidates(n, ssta, 0.5)
        assert set(cs.nets) == {"a", "n0", "n1", "n2", "n3"}

    def test_ordered_by_cpb_then_name(self, rca4, rca4_ssta, rca4_cs):
        ssta = rca4_ssta[0]
        keys = [(-ssta.cpb[w], w) for w in rca4_cs.nets]
        assert keys == sorted(keys)

    def test_excludes_constants_only(self, rca4, rca4_cs):
        assert GND not in rca4_cs.nets
        assert VDD not in rca4_cs.nets
        assert any(w in rca4.inputs for w in rca4_cs.nets)  # PIs eligible

    def test_reduction_on_rca8(self, rca8, default_lib):
        tmap = annotate_edge_transitions(rca8, default_lib, 50, seed=0)
        ssta = ssta_traverse(rca8, default_lib, tmap)
        cs = build_candidates(rca8, ssta)
        total = len(ssta.cpb)
        assert len(cs) < total
        print(f"rca8 candidate retention: {len(cs)}/{total} = {len(cs) / total:.2f}")


class TestApplyChromosome:
    def test_all_exact_is_identity(self, rca4, rca4_cs):
        genes = exact_chromosome(rca4_cs)
        assert apply_chromosome(rca4, rca4_cs, genes) == rca4

    def test_pi_gene_matches_tied_simplify(self, rca4, rca4_ssta):
        ssta = rca4_ssta[0]
        cs = build_candidates(rca4, ssta, 1e-300)
        pi = next(w for w in cs.nets if w in rca4.inputs)
        genes = exact_chromosome(cs)
        genes[cs.nets.index(pi)] = 0
        got = apply_chromosome(rca4, cs, genes)
        want = simplify_constants(_tie_pi(rca4, pi, GND))
        assert got == want

    def test_gate_output_gene_prunes_driver(self, rca4, rca4_cs):
        net = next(w for w in rca4_cs.nets if w not in rca4.inputs)
        driver = rca4.driver_of(net).name
        genes = exact_chromosome(rca4_cs)
        genes[rca4_cs.nets.index(net)] = 1
        got = apply_chromosome(rca4, rca4_cs, genes)
        assert driver not in {g.name for g in got.gates}

    def test_interface_preserved(self, rca4, rca4_cs):
        rng = np.random.default_rng(1)
        for _ in range(10):
            genes = rng.integers(-1, 2, len(rca4_cs)).astype(np.int8)
            got = apply_chromosome(rca4, rca4_cs, genes)
            assert got.inputs == rca4.inputs
            assert len(got.outputs) == len(rca4.outputs)

    def test_function_equals_forced_constants(self, rca4, rca4_cs):
        rng = np.random.default_rng(2)
        ds = generate_dataset(rca4, 1, seed=0, exhaustive=True)
        for _ in range(5):
            genes = rng.integers(-1, 2, len(rca4_cs)).astype(np.int8)
            approx = apply_chromosome(rca4, rca4_cs, genes)
            ev = Evaluator(approx)
            got = ev(ds.vectors)
            forced = {
                w: int(g)
                for w, g in zip(rca4_cs.nets, genes.tolist())
                if g != -1
            }
            for row, vec in zip(got.tolist(), ds.vectors):
                want = _forced_eval(rca4, dict(zip(rca4.inputs, vec)), forced)
                assert tuple(row) == want

    def test_cpd_never_increases(self, rca4, rca4_cs, default_lib):
        rng = np.random.default_rng(3)
        libs = [sample_library(default_lib, s) for s in range(10)]
        base = [sta_arrivals(rca4, s).cpd for s in libs]
        for _ in range(20):
            genes = rng.integers(-1, 2, len(rca4_cs)).astype(np.int8)
            approx = apply_chromosome(rca4, rca4_cs, genes)
            for s, b in zip(libs, base):
                assert sta_arrivals(approx, s).cpd <= b

    def test_idempotent_in_effect(self, rca4, rca4_cs):
        rng = np.random.default_rng(4)
        for _ in range(10):
            genes = rng.integers(-1, 2, len(rca4_cs)).astype(np.int8)
            once = apply_chromosome(rca4, rca4_cs, genes)
            twice = apply_chromosome(once, rca4_cs, genes, check_fingerprint=False)
            assert once == twice

    def test_wrong_netlist_refused(self, rca8, rca4_cs):
        genes = exact_chromosome(rca4_cs)
        with pytest.raises(ChromosomeError, match="fingerprint"):
            apply_chromosome(rca8, rca4_cs, genes)

    def test_bad_genes_refused(self, rca4, rca4_cs):
        with pytest.raises(ChromosomeError):
            apply_chromosome(rca4, rca4_cs, np.zeros(len(rca4_cs) + 1, np.int8))
        bad = exact_chromosome(rca4_cs)
        bad[0] = 2
        with pytest.raises(ChromosomeError):
            apply_chromosome(rca4, rca4_cs, bad)

    def test_gene_range_check(self, rca4_cs):
        """Every int8 value, -128, -2, 2 and 127 among them, at either end:
        only -1, 0 and 1 pass."""
        base = np.resize(np.array([-1, 0, 1], dtype=np.int8), len(rca4_cs))
        for value in range(-128, 128):
            for k in (0, len(rca4_cs) - 1):
                genes = base.copy()
                genes[k] = value
                if value in (-1, 0, 1):
                    assert validate_genes(rca4_cs, genes).tolist() == genes.tolist()
                else:
                    with pytest.raises(ChromosomeError, match="-1, 0 or 1"):
                        validate_genes(rca4_cs, genes)

    def test_empty_chromosome_accepted(self):
        cs = CandidateSet((), 1e-3, "none")
        assert validate_genes(cs, []).shape == (0,)


def _forced_eval(n, assignment, forced):
    """Naive interpreter with candidate nets overridden to constants."""
    values = {GND: 0, VDD: 1}
    for pi in n.inputs:
        values[pi] = forced.get(pi, int(assignment[pi]) & 1)
    for g in n.topological_order():
        out = g.cell.evaluate({p: values[net] for p, net in g.fanin.items()})
        values[g.output] = forced.get(g.output, out)
    return tuple(values[po] for po in n.outputs)


class TestSerialization:
    def test_text_round_trip(self, rca4_cs):
        rng = np.random.default_rng(5)
        genes = rng.integers(-1, 2, len(rca4_cs)).astype(np.int8)
        text = format_chromosome(rca4_cs, genes)
        assert text.splitlines()[0] == f"fingerprint {rca4_cs.fingerprint}"
        back = parse_chromosome(text, rca4_cs)
        assert np.array_equal(back, genes)

    def test_file_round_trip(self, rca4_cs, tmp_path):
        genes = exact_chromosome(rca4_cs)
        genes[0] = 1
        path = tmp_path / "c.chrom"
        save_chromosome(path, rca4_cs, genes)
        assert np.array_equal(load_chromosome(path, rca4_cs), genes)

    def test_fingerprint_mismatch_refused(self, rca4_cs, rca8, default_lib):
        tmap = annotate_edge_transitions(rca8, default_lib, 10, seed=0)
        other = build_candidates(rca8, ssta_traverse(rca8, default_lib, tmap))
        text = format_chromosome(other, exact_chromosome(other))
        with pytest.raises(ChromosomeError, match="different netlist"):
            parse_chromosome(text, rca4_cs)
