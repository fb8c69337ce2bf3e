"""Property tests: the vectorized dominance routines, the one-pass
constant fold, the batched STA and its per-PO arrival reduction, the bus
value reading, the compiled chromosome scorer and the shared Monte-Carlo
evaluation, each checked against an independent slow reference; and the
netlist text round trip."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcirc._compile import compile_logic, compile_timing
from vaxcirc.approx import (
    CandidateSet,
    TieFold,
    apply_chromosome,
    build_candidates,
    exact_chromosome,
    tie_nets,
)
from vaxcirc.celllib import default_library, nominal_library, sample_library, sample_matrix
from vaxcirc.errsim import (
    _metrics_from_bits,
    generate_dataset,
    interpret_rows,
    interpret_values,
    pack_bits,
    simulate_metrics,
)
from vaxcirc.harness import (
    BenchmarkSpec,
    MonteCarloFront,
    generate_benchmark,
    monte_carlo_evaluate,
    run_evaluate,
    run_optimize,
)
from vaxcirc.netlist import (
    GND,
    VDD,
    netlist_fingerprint,
    parse_netlist,
    simplify_constants,
    write_netlist,
)
from vaxcirc.optimize import (
    GaConfig,
    SearchProgram,
    nondominated_sort,
    pareto_front_indices,
)
from vaxcirc.timing import annotate_edge_transitions, cpd_over_delays, ssta_traverse

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


@settings(max_examples=150, deadline=None)
@given(_tied_dag(), st.integers(0, 1000), st.integers(2, 5))
def test_forward_matches_row_by_row(case, lib_seed, count):
    _, _, tied = case
    delays = sample_matrix(_LIB, range(lib_seed, lib_seed + count))
    for net in (tied, simplify_constants(tied)):
        program = compile_timing(net, _LIB.arc_index())
        got = program.forward(delays)
        want = np.concatenate([program.forward(delays[k:k + 1]) for k in range(count)])
        assert got.shape == (count, program.n_nets, 2)
        assert (got == want).all()  # -inf == -inf, so constant nets compare too


def _bus_values(max_width, max_rows, per_row=1):
    """(width, rows of `per_row` unsigned bus values each), widths 0..max_width."""
    return st.one_of(st.integers(0, 62), st.integers(63, max_width)).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(
            st.tuples(*[st.integers(0, (1 << w) - 1)] * per_row),
            min_size=1, max_size=max_rows))
    )


def _to_bits(values, width):
    return np.array([[(v >> j) & 1 for j in range(width)] for v in values],
                    dtype=np.uint8).reshape(len(values), width)


def _as_signed(v, width, signed):
    return v - (1 << width) if signed and width and v >> (width - 1) else v


@settings(max_examples=300, deadline=None)
@given(_bus_values(80, 6), st.booleans())
def test_interpret_values_matches_python_ints(case, signed):
    width, rows = case
    values = [v for (v,) in rows]
    got = interpret_values(_to_bits(values, width), signed)
    assert isinstance(got, np.ndarray) == (width <= 62)
    assert [int(v) for v in got] == [_as_signed(v, width, signed) for v in values]


@settings(max_examples=300, deadline=None)
@given(_bus_values(80, 6), st.booleans())
def test_interpret_rows_matches_python_ints(case, signed):
    """The bus read straight from packed words, bit j in row width-1-j."""
    width, rows = case
    values = [v for (v,) in rows]
    bits = _to_bits(values, width)
    words = np.zeros((width, (len(values) + 63) // 64), dtype=np.uint64)
    for j in range(width):
        words[width - 1 - j] = pack_bits(bits[:, j])
    rows = [width - 1 - j for j in range(width)]
    got = interpret_rows(words, rows, len(values), signed)
    assert [int(v) for v in got] == [_as_signed(v, width, signed) for v in values]


@settings(max_examples=300, deadline=None)
@given(_bus_values(70, 8, per_row=2), st.booleans())
def test_error_metrics_match_python_ints(case, signed):
    """Distance sums that overflow int64 (wide buses, many rows) included."""
    width, pairs = case
    exact = [_as_signed(e, width, signed) for e, _ in pairs]
    approx = [_as_signed(a, width, signed) for _, a in pairs]
    m = _metrics_from_bits(
        interpret_values(_to_bits([e for e, _ in pairs], width), signed),
        _to_bits([a for _, a in pairs], width),
        signed,
    )
    ed = [abs(a - e) for e, a in zip(exact, approx)]
    n = len(pairs)
    assert m.nmed == sum(ed) / (n * ((1 << width) - 1 if width else 1))
    assert (m.max_ed, m.error_rate, m.n_vectors) == (
        max(ed), sum(1 for d in ed if d) / n, n)


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


@pytest.mark.parametrize("family,width,taps", [("rca_adder", 8, 1), ("mac_fir", 8, 2)])
def test_run_evaluate_matches_standalone_calls(tmp_path, family, width, taps):
    """The shared library draw and exact reference change no number: each
    McEvaluation equals the one a standalone call draws and simulates."""
    n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
    cfg = GaConfig(population=6, generations=2, seed=0, search_vectors=256)
    art = run_optimize(
        tmp_path, n, _LIB, cfg, tmap_count=20, bound_count=10, report_vectors=2000
    )
    base, evals = run_evaluate(tmp_path, mc_count=30, mc_seed=9000)
    ds = generate_dataset(n, 2000, seed=cfg.seed + 2)
    clock = art.clock_ps
    assert base == monte_carlo_evaluate(
        n, _LIB, 30, 9000, clock, ds, design_id="baseline"
    )
    assert len(evals) == len(art.result.front) > 0
    for e, d in zip(evals, art.result.front):
        design = apply_chromosome(n, art.candidates, d.genes)
        assert e == monte_carlo_evaluate(
            design, _LIB, 30, 9000, clock, ds, reference=n, design_id=e.design_id
        )


def _standalone(base, cs, genes, count, seed, clock, ds, design_id):
    """The McEvaluation of one chromosome through the object path: apply it,
    draw the libraries and simulate both netlists in one standalone call."""
    return monte_carlo_evaluate(
        apply_chromosome(base, cs, genes), _LIB, count, seed, clock, ds,
        reference=base, design_id=design_id,
    )


def _front_matches_standalone(base, cs, rows, count, seed, ds):
    """MonteCarloFront scores `rows` as the standalone calls do, both one
    design per call and all of them in one stacked call."""
    clock = 0.5 * cpd_over_delays(
        compile_timing(base, _LIB.arc_index()), sample_matrix(_LIB, [seed])
    )[0]  # half the baseline's CPD in one library, so violations vary
    delays = sample_matrix(_LIB, range(seed, seed + count))
    front = MonteCarloFront(base, cs, _LIB, ds, delays, seed, clock)
    designs = [(f"design_{i:03d}", genes) for i, genes in enumerate(rows)]
    want = [_standalone(base, cs, g, count, seed, clock, ds, d) for d, g in designs]
    # repr keeps the comparison exact and lets the NaN std of a design whose
    # only POs are unfolded constant gates (all -inf) equal itself
    want_reprs = list(map(repr, want))
    assert [repr(front.evaluate([d])[0]) for d in designs] == want_reprs
    assert list(map(repr, front.evaluate(designs))) == want_reprs
    return want


# the std of an all -inf CPD (POs on unfolded constant gates) is NaN on both paths
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@settings(max_examples=100, deadline=None)
@given(_tied_dag(), st.data())
def test_monte_carlo_front_matches_standalone_calls(case, data):
    n, _, tied = case
    # `tied` reads GND/VDD itself, which the reference folds once any net is tied
    for base in (n, tied):
        nets = base.inputs + tuple(g.output for g in base.gates)
        cs = CandidateSet(nets, 1e-3, netlist_fingerprint(base))
        ds = generate_dataset(base, 0, seed=0, exhaustive=True)
        exact = exact_chromosome(cs)
        drawn = [
            np.array(data.draw(st.lists(st.sampled_from((-1, -1, 0, 1)),
                                        min_size=len(nets), max_size=len(nets))),
                     dtype=np.int8)
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        pi = exact.copy()  # a tied PI
        k = data.draw(st.integers(0, len(base.inputs) - 1))
        pi[k] = data.draw(st.integers(0, 1))
        lone = exact.copy()  # one gate output: in `n` the fold never visits its driver
        lone[data.draw(st.integers(len(base.inputs), len(nets) - 1))] = 0
        no_po = exact.copy()  # every PO tied: no driven PO is left
        no_po[[nets.index(po) for po in base.outputs if po in nets]] = 1
        rows = [exact, pi, lone, no_po, *drawn]
        seed = data.draw(st.integers(0, 500))
        got = _front_matches_standalone(base, cs, rows, 3, seed, ds)
        assert got[3].worst_cpd_ps == got[3].mean_cpd_ps == 0.0


@pytest.mark.parametrize("family,width,taps", [
    ("rca_adder", 8, 1), ("cla_adder", 8, 1), ("array_multiplier", 8, 1),
    ("mac_fir", 8, 2),
])
def test_monte_carlo_front_matches_standalone_calls_on_families(family, width, taps):
    n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
    tmap = annotate_edge_transitions(n, _LIB, 50, seed=0)
    cs = build_candidates(n, ssta_traverse(n, _LIB, tmap))
    po_genes = [k for k, net in enumerate(cs.nets) if net in n.outputs]
    rng = np.random.default_rng(11)
    rows = [exact_chromosome(cs)]
    for i in range(9):
        p = (0.02, 0.1, 0.3)[i % 3]
        genes = np.where(rng.random(len(cs)) < p, rng.integers(0, 2, len(cs)), -1)
        genes = genes.astype(np.int8)
        if i % 2 == 0:  # tie a PO net
            genes[po_genes[i % len(po_genes)]] = i % 4 // 2
        rows.append(genes)
    _front_matches_standalone(n, cs, rows, 20, 9000, generate_dataset(n, 2000, seed=3))


def test_monte_carlo_front_drops_undisturbed_drivers_of_tied_nets(rca8):
    """c1's driver reads only slice 0, which no tie disturbs, so the
    dirty-only fold never visits it.  It must still count as dropped: its
    arcs would otherwise time a net that `apply_chromosome` removes."""
    ties = {"c1": 1, "c2": 1, "c5": 1, "s1_h": 0, "s4_h": 0}
    nets = tuple(ties)
    cs = CandidateSet(nets, 1e-3, netlist_fingerprint(rca8))
    genes = np.array([ties[w] for w in nets], dtype=np.int8)
    fold = TieFold(compile_logic(rca8), cs)(genes)
    topo = rca8.topological_order()
    driver = next(i for i, g in enumerate(topo) if g.output == "c1")
    assert set(topo[driver].fanin.values()) == {"s0_g", "s0_h"}
    assert driver in fold.dropped
    ds = generate_dataset(rca8, 500, seed=1)
    _front_matches_standalone(rca8, cs, [genes], 200, 9000, ds)
