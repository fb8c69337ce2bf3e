"""Property tests: the vectorized dominance routines, the one-pass
constant fold, the per-PO arrival reduction and the compiled chromosome
scorer, each checked against an independent slow reference; and the
netlist text round trip."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcirc._compile import compile_timing
from vaxcirc.approx import (
    CandidateSet,
    apply_chromosome,
    build_candidates,
    exact_chromosome,
    tie_nets,
)
from vaxcirc.celllib import default_library, nominal_library, sample_library, sample_matrix
from vaxcirc.errsim import generate_dataset, simulate_metrics
from vaxcirc.harness import BenchmarkSpec, generate_benchmark
from vaxcirc.netlist import (
    GND,
    VDD,
    netlist_fingerprint,
    parse_netlist,
    simplify_constants,
    write_netlist,
)
from vaxcirc.optimize import SearchProgram, nondominated_sort, pareto_front_indices
from vaxcirc.timing import annotate_edge_transitions, ssta_traverse

from _oracles import naive_outputs, path_enum_cpd, random_dag
from test_netlist import _tie_pi
from test_optimize import _brute_force_ranks, _design

# Few distinct values, so ties, duplicates and equal violations are common.
_objective = st.integers(0, 3).map(float)
_point = st.tuples(_objective, _objective, _objective)
_violation = st.sampled_from((0.0, 0.0, 0.25, 0.5))


def _brute_force_front(points):
    """Scalar Pareto filter: drop dominated points and later duplicates."""
    def dominates(q, p):
        return all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p))

    return [
        i for i, p in enumerate(points)
        if not any(dominates(q, p) or (q == p and j < i) for j, q in enumerate(points))
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_point, _violation), max_size=40))
def test_nondominated_sort_matches_brute_force(rows):
    pop = [
        _design(*p, feasible=v == 0.0, violation=v, tag=i)
        for i, (p, v) in enumerate(rows)
    ]
    fronts = nondominated_sort(pop)
    want = _brute_force_ranks(pop)
    assert [d.rank for d in pop] == [want[i] for i in range(len(pop))]
    assert fronts == [
        [i for i in range(len(pop)) if want[i] == r] for r in range(len(fronts))
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(_point, max_size=40), st.integers(2, 3))
def test_pareto_front_indices_matches_brute_force(points, arity):
    points = [p[:arity] for p in points]
    assert pareto_front_indices(points) == _brute_force_front(points)


@st.composite
def _tied_dag(draw):
    """A random DAG, its unfolded copy with some nets tied, and the ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = random_dag(rng, draw(st.integers(1, 14)), n_pis=draw(st.integers(1, 5)))
    nets = list(n.inputs) + [g.output for g in n.gates]
    ties = draw(st.dictionaries(st.sampled_from(nets), st.sampled_from((GND, VDD)),
                                min_size=1, max_size=4))
    tied = n
    for net, const in ties.items():
        tied = _tie_pi(tied, net, const)
    return n, ties, tied


_LIB = default_library()


@settings(max_examples=150, deadline=None)
@given(_tied_dag(), st.integers(0, 1000))
def test_simplify_constants_on_random_ties(case, lib_seed):
    n, ties, tied = case
    s = simplify_constants(tied)
    assert simplify_constants(s) == s
    assert tie_nets(n, ties) == s
    used = {w for g in s.gates for w in g.fanin.values()} | set(s.outputs)
    assert all(g.output in used for g in s.gates)  # no dead gate survives

    vectors = np.array(list(itertools.product((0, 1), repeat=len(n.inputs))))
    assert naive_outputs(s, vectors) == naive_outputs(tied, vectors)

    for lib in (nominal_library(_LIB), sample_library(_LIB, lib_seed)):
        assert path_enum_cpd(s, lib) <= path_enum_cpd(tied, lib)


@settings(max_examples=150, deadline=None)
@given(_tied_dag())
def test_netlist_text_round_trip(case):
    n, _, tied = case
    for net in (n, tied, simplify_constants(tied)):
        back = parse_netlist(write_netlist(net))
        assert back == net
        assert netlist_fingerprint(back) == netlist_fingerprint(net)


def _po_arrivals_by_loop(program, arr):
    """The per-PO scalar loop: worst transition of each PO net, -inf if constant."""
    rows = [program.net_index.get(po, -1) for po in program.netlist.outputs]
    return [
        [max(a[row, 0], a[row, 1]) if row >= 0 else float("-inf") for row in rows]
        for a in arr
    ]


@settings(max_examples=150, deadline=None)
@given(_tied_dag(), st.integers(0, 1000), st.integers(1, 4))
def test_po_arrivals_matches_per_po_loop(case, lib_seed, count):
    _, _, tied = case
    delays = sample_matrix(_LIB, range(lib_seed, lib_seed + count))
    for net in (tied, simplify_constants(tied)):
        program = compile_timing(net, _LIB.arc_index())
        arr = program.forward(delays)
        got = program.po_arrivals(arr)
        assert got.shape == (count, len(net.outputs))
        assert got.tolist() == _po_arrivals_by_loop(program, arr)


def _reference_score(n, cs, genes, lib, tmap, ds):
    """(nmed, mu_cpd, sigma_cpd, confidence) through the object path:
    apply the chromosome, simulate both netlists, traverse the result."""
    approx = apply_chromosome(n, cs, genes)
    ssta = ssta_traverse(approx, lib, tmap)
    nmed = simulate_metrics(n, approx, ds).nmed
    return nmed, ssta.cpd.mu, ssta.cpd.sigma, ssta.confidence


@settings(max_examples=150, deadline=None)
@given(_tied_dag(), st.data())
def test_search_program_matches_reference(case, data):
    n, _, tied = case
    # `tied` reads GND/VDD itself, which the reference folds once any net is tied
    for base in (n, tied):
        nets = base.inputs + tuple(g.output for g in base.gates)
        cs = CandidateSet(nets, 1e-3, netlist_fingerprint(base))
        tmap = annotate_edge_transitions(base, _LIB, 8, seed=0)
        ds = generate_dataset(base, 0, seed=0, exhaustive=True)
        program = SearchProgram(base, cs, _LIB, tmap, ds)
        genes = np.array(
            data.draw(st.lists(st.sampled_from((-1, -1, 0, 1)),
                               min_size=len(nets), max_size=len(nets))),
            dtype=np.int8,
        )
        for g in (exact_chromosome(cs), genes):
            assert program.score(g) == _reference_score(base, cs, g, _LIB, tmap, ds)


@pytest.mark.parametrize("family,width,taps", [
    ("rca_adder", 8, 1), ("cla_adder", 8, 1), ("array_multiplier", 8, 1),
    ("mac_fir", 8, 2),
])
def test_search_program_matches_reference_on_families(family, width, taps):
    n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
    tmap = annotate_edge_transitions(n, _LIB, 50, seed=0)
    cs = build_candidates(n, ssta_traverse(n, _LIB, tmap))
    ds = generate_dataset(n, 256, seed=3)
    program = SearchProgram(n, cs, _LIB, tmap, ds)
    po_genes = [k for k, net in enumerate(cs.nets) if net in n.outputs]
    assert po_genes
    rng = np.random.default_rng(7)
    rows = [exact_chromosome(cs)]
    for i in range(49):
        p = (0.02, 0.1, 0.3)[i % 3]
        genes = np.where(rng.random(len(cs)) < p, rng.integers(0, 2, len(cs)), -1)
        genes = genes.astype(np.int8)
        if i % 4 == 0:  # tie a PO net
            genes[po_genes[i % len(po_genes)]] = i % 8 // 4
        rows.append(genes)
    for genes in rows:
        assert program.score(genes) == _reference_score(n, cs, genes, _LIB, tmap, ds)
