"""Property tests: the vectorized dominance routines, the one-pass
constant fold, the batched STA, its first-write flags, its slot-compacted
programs and its per-PO arrival reduction, the in-place word kernel, the
bus value reading, the compiled chromosome scorer one chromosome and a
batch at a time, and the shared Monte-Carlo evaluation, reused across
calls, each checked against an independent slow reference; and the
netlist text round trip."""

import importlib.util
import itertools
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vaxcirc
from vaxcirc import _kernels, harness, optimize
from vaxcirc._compile import compile_logic, compile_timing
from vaxcirc.approx import (
    CandidateSet,
    TieFold,
    apply_chromosome,
    build_candidates,
    exact_chromosome,
    tie_nets,
)
from vaxcirc.celllib import (
    TimingArc,
    VariationLibrary,
    default_library,
    nominal_library,
    sample_library,
    sample_matrix,
)
from vaxcirc.errsim import (
    Evaluator,
    _metrics_from_bits,
    generate_dataset,
    interpret_values,
    nmed_words,
    simulate_metrics,
    stale_bits,
    stale_words,
    unpack_bits,
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
    CELLS,
    GND,
    VDD,
    Gate,
    Netlist,
    netlist_fingerprint,
    parse_netlist,
    simplify_constants,
    write_netlist,
)
from vaxcirc.optimize import (
    GaConfig,
    SearchProgram,
    initialize_population,
    nondominated_sort,
    pareto_front_indices,
)
from vaxcirc.timing import (
    DelayRV,
    _clock_and_tmap,
    annotate_edge_transitions,
    cpd_over_delays,
    extract_critical_path,
    po_endpoint,
    po_endpoints,
    running_winner,
    running_winners,
    ssta_traverse,
    sta_arrivals,
    stacked_cpds,
    stacked_union,
)

from _oracles import _path_arrival, naive_outputs, path_enum_cpd, random_dag
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


@settings(max_examples=150, deadline=None)
@given(_tied_dag(), st.integers(0, 1000), st.integers(1, 4))
def test_first_write_flags_match_unflagged_kernel(case, lib_seed, count):
    n, _, tied = case
    delays = sample_matrix(_LIB, range(lib_seed, lib_seed + count))
    for net in (n, tied, simplify_constants(tied)):
        program = compile_timing(net, _LIB.arc_index())
        first = np.ones(program.dst.shape[0], dtype=np.int8)  # first edge per gate
        first[1:] = program.dst[1:] != program.dst[:-1]
        flagged = replace(program, unate=program.unate + _kernels.UN_FIRST * first)
        assert (flagged.forward(delays) == program.forward(delays)).all()


def _with_corner_gates(base, data):
    """`base` plus three gates after its own: one of all-constant fanins,
    one reading a drawn net on both pins, and one reading those two.  Its
    POs are a PI, the second gate (which the third reads), the first, and
    drawn nets, constants and repeats included."""
    nets = list(base.inputs) + [g.output for g in base.gates]
    twice = data.draw(st.sampled_from(nets))
    kind = data.draw(st.sampled_from(("AND2", "NAND2", "XOR2")))
    gates = base.gates + (
        Gate("k_const", data.draw(st.sampled_from(("AND2", "XOR2"))),
             {"A": GND, "B": VDD}, "k_const_o"),
        Gate("k_twice", kind, {"A": twice, "B": twice}, "k_twice_o"),
        Gate("k_both", "OR2", {"A": "k_const_o", "B": "k_twice_o"}, "k_both_o"),
    )
    drawn = data.draw(st.lists(
        st.sampled_from(nets + [GND, "k_both_o"]), max_size=6
    ))
    pos = (base.inputs[0], "k_twice_o", "k_const_o", *drawn)
    return Netlist(base.name, base.inputs, pos, gates)


def _assert_compact_matches_full(program, delays):
    """The program compacted for its POs gives the PO arrivals of the full
    `forward`, PIs share slot 0 and unwritten nets slot 1, and no more than
    written nets + 2 slots are used."""
    compact, slot = program.compact(program.po_rows)
    want = program.po_arrivals(program.forward(delays))
    assert (compact.po_arrivals(compact.forward(delays)) == want).all()  # -inf too
    written = np.zeros(program.n_nets, dtype=bool)
    written[program.dst] = True
    assert (slot[program.pi_rows] == 0).all()
    unwritten = ~written
    unwritten[program.pi_rows] = False
    assert (slot[unwritten] == 1).all()
    assert (slot[written] >= 2).all()
    assert compact.n_rows <= np.count_nonzero(written) + 2 <= program.n_nets + 2


@settings(max_examples=150, deadline=None)
@given(_tied_dag(), st.integers(0, 1000), st.integers(1, 4), st.data())
def test_compacted_po_arrivals_match_full_forward(case, lib_seed, count, data):
    n, _, tied = case
    delays = sample_matrix(_LIB, range(lib_seed, lib_seed + count))
    # `tied` reads GND/VDD itself, so some of its gates have constant fanins
    for base in (n, tied):
        net = _with_corner_gates(base, data)
        _assert_compact_matches_full(compile_timing(net, _LIB.arc_index()), delays)


def _with_non_unate_gates(net, data):
    """`net` plus an XOR2 and a MUX2 over drawn nets of it, so that a
    non-unate pin follows another pin of its gate (XOR2 B, MUX2 S)."""
    pick = st.sampled_from(list(net.inputs) + [g.output for g in net.gates])
    gates = net.gates + (
        Gate("k_xor", "XOR2", {"A": data.draw(pick), "B": data.draw(pick)}, "k_xor_o"),
        Gate("k_mux", "MUX2", {"A": data.draw(pick), "B": "k_xor_o", "S": data.draw(pick)},
             "k_mux_o"),
    )
    return Netlist(net.name, net.inputs, net.outputs + ("k_mux_o",), gates)


@settings(max_examples=60, deadline=None)
@given(_tied_dag(), st.integers(0, 1000), st.integers(1, 3), st.data())
def test_forward_matches_path_enumeration(case, lib_seed, count, data):
    """Each (net, transition) arrival `forward` gives in each delay row is
    the scalar path enumeration's: over the program itself, compacted to
    keep every net, and so compacted with some gate nets preloaded, which
    `init_arrivals` leaves at -inf, so that their edges raise it."""
    n, _, tied = case
    delays = sample_matrix(_LIB, range(lib_seed, lib_seed + count))
    arcs = _LIB.arc_index()
    for base in (n, tied):
        net = _with_non_unate_gates(_with_corner_gates(base, data), data)
        program = compile_timing(net, arcs)
        want = [
            {(w, col): _path_arrival(net, w, edge, lambda kind, pin, e: row[arcs[(kind, pin, e)]])
             for w in program.net_index for col, edge in enumerate(("rise", "fall"))}
            for row in delays
        ]
        every = np.arange(program.n_nets)
        gates = range(2 + len(net.inputs), program.n_nets)
        preload = sorted(data.draw(st.sets(st.sampled_from(gates))))
        for timed, slot in ((program, every), program.compact(every),
                            program.compact(every, preload)):
            arr = timed.forward(delays)
            for k in range(count):
                got = {(w, col): arr[k, slot[r], col]
                       for w, r in program.net_index.items() for col in (0, 1)}
                assert got == want[k]


@pytest.mark.parametrize("family,width,taps", [
    ("rca_adder", 8, 1), ("cla_adder", 8, 1), ("array_multiplier", 8, 1),
    ("mac_fir", 8, 2),
])
def test_compacted_po_arrivals_match_full_forward_on_families(family, width, taps):
    n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
    program = compile_timing(n, _LIB.arc_index())
    assert program.net_index == compile_logic(n).signal_index  # one row numbering
    delays = sample_matrix(_LIB, range(40))
    _assert_compact_matches_full(program, delays)
    rng = np.random.default_rng(5)
    for _ in range(5):  # also keep internal nets, which later gates read
        extra = rng.choice(program.n_nets, size=8)
        po_rows = np.concatenate([program.po_rows, extra, [-1]]).astype(np.int32)
        _assert_compact_matches_full(replace(program, po_rows=po_rows), delays)


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


@settings(max_examples=200, deadline=None)
@given(_bus_values(70, 8, per_row=2), st.booleans())
def test_error_metrics_equal_for_row_and_column_major_bits(case, signed):
    """`Evaluator.po_bits` gives column-major matrices; the metrics of either
    layout equal the Python-int reference."""
    width, pairs = case
    exact = [_as_signed(e, width, signed) for e, _ in pairs]
    approx = [_as_signed(a, width, signed) for _, a in pairs]
    ed = [abs(a - e) for e, a in zip(exact, approx)]
    n = len(pairs)
    want = (sum(ed) / (n * ((1 << width) - 1 if width else 1)), max(ed),
            sum(1 for d in ed if d) / n, n)
    exact_values = interpret_values(_to_bits([e for e, _ in pairs], width), signed)
    bits = _to_bits([a for _, a in pairs], width)
    for layout in (np.ascontiguousarray(bits), np.asfortranarray(bits)):
        m = _metrics_from_bits(exact_values, layout, signed)
        assert (m.nmed, m.max_ed, m.error_rate, m.n_vectors) == want


def _random_words(rng, shape):
    """uint64 words of uniform random bits, the padding bits included."""
    size = int(np.prod(shape))
    return np.frombuffer(rng.bytes(8 * size), dtype=np.uint64).reshape(shape).copy()


def _words_to_bits(words, n):
    """(n, width) bit matrix of the first `n` vectors of (width, words) rows."""
    bits = np.zeros((n, words.shape[0]), dtype=np.uint8)
    for j, row in enumerate(words):
        bits[:, j] = unpack_bits(row, n)
    return bits


# widths on both sides of the int64 bus; n never a whole number of words
_nmed_case = st.tuples(
    st.one_of(st.integers(0, 62), st.integers(63, 80)),
    st.integers(1, 200).filter(lambda n: n % 64),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(_nmed_case, st.integers(2, 4), st.data())
def test_nmed_words_matches_metrics_from_bits(case, count, data):
    """Random padding bits in every bus, and approximate buses that agree
    with the exact one above a drawn bit, so small distances and equal
    buses occur."""
    width, n, signed, seed = case
    rng = np.random.default_rng(seed)
    n_words = (n + 63) // 64
    exact = _random_words(rng, (width, n_words))
    approx = _random_words(rng, (width, count, n_words))  # PO-major
    for b in range(count):
        keep = data.draw(st.integers(0, width))
        approx[keep:, b, :] = exact[keep:]
        approx[keep:, b, -1] ^= _random_words(rng, (width - keep,)) << np.uint64(n % 64)
    exact_values = interpret_values(_words_to_bits(exact, n), signed)
    want = [
        _metrics_from_bits(exact_values, _words_to_bits(approx[:, b], n), signed).nmed
        for b in range(count)
    ]
    assert nmed_words(exact, approx, n, signed) == want


@settings(max_examples=200, deadline=None)
@given(_nmed_case, st.data())
def test_stale_words_unpack_to_stale_bits(case, data):
    width, n, _, seed = case
    words = _random_words(np.random.default_rng(seed), (width, (n + 63) // 64))
    late = np.array(data.draw(st.lists(st.booleans(), min_size=width, max_size=width)),
                    dtype=bool)
    got = _words_to_bits(stale_words(words, late), n)
    assert (got == stale_bits(_words_to_bits(words, n), late)).all()


# 100 and the next double up tie to z = -1.6e-17 at variance 4e5, inside
# the erfc band; the zero variances tie with equal and unequal means
_NEXT = math.nextafter(100.0, math.inf)
_ARRIVAL_MU = (100.0, _NEXT, 100.0 + 1e-7, 101.0, 40.0)
_ARRIVAL_VAR = (0.0, 1e-6, 2.5, 4e5)


@st.composite
def _po_arrivals(draw):
    """(B, rows) arrival means, variances and has-arrival flags, and (B, P)
    PO row ids, from few values: rows repeat and some have no arrival."""
    b, rows, p = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(0, 6))

    def grid(values, size):
        return draw(st.lists(st.sampled_from(values), min_size=b * size, max_size=b * size))

    arrays = (grid(_ARRIVAL_MU, rows), grid(_ARRIVAL_VAR, rows), grid((True, True, False), rows))
    po = np.array(grid(range(rows), p), dtype=np.int64).reshape(b, p)
    return (*(np.array(a).reshape(b, rows) for a in arrays), po)


@settings(max_examples=300, deadline=None)
@given(_po_arrivals())
@example((  # repeated rows and a row with no arrival; zero-variance ties
    np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0], [5.0, 7.0, 6.0], [100.0, _NEXT, 99.0]]),
    np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [4e5, 4e5, 0.0]]),
    np.array([[True, False, True], [True] * 3, [True] * 3, [True, True, False]]),
    np.array([[2, 0, 2, 1], [0, 1, 2, 1], [0, 1, 2, 0], [1, 0, 2, 0]]),
))
def test_po_endpoints_match_po_endpoint(case):
    """Each design's (cpd mu, cpd sigma, confidence) is, bit for bit,
    `po_endpoint`'s over its distinct arriving PO rows in first-position
    order, and `running_winners` picks `running_winner`'s endpoint, zero
    variances included.  A 0/0 outside `errstate` would fail as a
    RuntimeWarning."""
    mu, var, has, po = case
    got = list(zip(*po_endpoints(np.where(has, mu, -np.inf), var, po)))
    assert len(got) == len(po)
    for b, want in enumerate(got):
        rows = [r for r in dict.fromkeys(po[b].tolist()) if has[b, r]]
        rvs = [DelayRV(m, v) for m, v in zip(mu[b, rows].tolist(), var[b, rows].tolist())]
        _, cpd, confidence = po_endpoint(rvs)
        assert want == (cpd.mu, cpd.sigma, confidence)
        if rvs:
            win, _, _ = running_winners(mu[b, rows][None], var[b, rows][None])
            assert win[0] == running_winner(enumerate(rvs))[0]


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
        program = SearchProgram(Evaluator(base), cs, _LIB, tmap, ds)
        genes = np.array(
            data.draw(st.lists(st.sampled_from((-1, -1, 0, 1)),
                               min_size=len(nets), max_size=len(nets))),
            dtype=np.int8,
        )
        for g in (exact_chromosome(cs), genes):
            assert (program.score_batch(g[None])[0]
                    == _reference_score(base, cs, g, _LIB, tmap, ds))


@pytest.mark.parametrize("family,width,taps", [
    ("rca_adder", 8, 1), ("cla_adder", 8, 1), ("array_multiplier", 8, 1),
    ("mac_fir", 8, 2),
])
def test_search_program_matches_reference_on_families(family, width, taps):
    n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
    tmap = annotate_edge_transitions(n, _LIB, 50, seed=0)
    cs = build_candidates(n, ssta_traverse(n, _LIB, tmap))
    ds = generate_dataset(n, 256, seed=3)
    program = SearchProgram(Evaluator(n), cs, _LIB, tmap, ds)
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
        assert (program.score_batch(genes[None])[0]
                == _reference_score(n, cs, genes, _LIB, tmap, ds))


def _batch_matches_reference(n, cs, rows, tmap, ds, capacity):
    """`score_batch` over `rows` with `capacity` chromosomes a fill, after
    the first row was scored alone, gives each row its object-path score;
    each distinct row is scored once, in fills of `capacity` rows in order."""
    program = SearchProgram(Evaluator(n), cs, _LIB, tmap, ds)
    program.capacity = capacity
    program.score_batch(rows[0][None])  # memoized before the batch
    batch = np.array(rows + rows[1:3] + rows[:1])  # duplicates, a memoized row
    distinct = {r.tobytes() for r in rows}
    new = len({r.tobytes() for r in rows if r.tobytes() != rows[0].tobytes()})
    with mock.patch.object(optimize, "nmed_words", wraps=optimize.nmed_words) as nmeds:
        program.score_batch(batch)
    fills = [call.args[1].shape[1] for call in nmeds.call_args_list]  # (POs, fill, words)
    assert fills == [capacity] * (new // capacity) + [new % capacity] * (new % capacity > 0)
    assert len(program._memo) == len(distinct)
    for genes in rows:
        assert (program.score_batch(genes[None])[0]
                == _reference_score(n, cs, genes, _LIB, tmap, ds))
    assert len(program._memo) == len(distinct)


@settings(max_examples=100, deadline=None)
@given(_tied_dag(), st.data())
def test_score_batch_matches_reference(case, data):
    n, _, tied = case
    # `tied` reads GND/VDD itself, which the reference folds once any net is tied
    for base in (n, tied):
        nets = base.inputs + tuple(g.output for g in base.gates)
        cs = CandidateSet(nets, 1e-3, netlist_fingerprint(base))
        tmap = annotate_edge_transitions(base, _LIB, 8, seed=0)
        ds = generate_dataset(base, 0, seed=0, exhaustive=True)
        exact = exact_chromosome(cs)
        all_gnd = np.zeros(len(nets), dtype=np.int8)
        po_vdd = exact.copy()  # every PO net tied, and the last net
        po_vdd[[nets.index(po) for po in base.outputs if po in nets] + [-1]] = 1
        drawn = [
            np.array(data.draw(st.lists(st.sampled_from((-1, -1, 0, 1)),
                                        min_size=len(nets), max_size=len(nets))),
                     dtype=np.int8)
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        _batch_matches_reference(base, cs, [all_gnd, exact, po_vdd, *drawn],
                                 tmap, ds, capacity=2)


@pytest.mark.parametrize("family,width,taps", [
    ("rca_adder", 8, 1), ("cla_adder", 8, 1), ("array_multiplier", 8, 1),
    ("mac_fir", 8, 2),
])
def test_score_batch_matches_reference_on_families(family, width, taps):
    n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
    tmap = annotate_edge_transitions(n, _LIB, 50, seed=0)
    cs = build_candidates(n, ssta_traverse(n, _LIB, tmap))
    po_genes = [k for k, net in enumerate(cs.nets) if net in n.outputs]
    rng = np.random.default_rng(13)
    rows = [exact_chromosome(cs)]
    for i in range(11):
        p = (0.02, 0.1, 0.3)[i % 3]
        genes = np.where(rng.random(len(cs)) < p, rng.integers(0, 2, len(cs)), -1)
        genes = genes.astype(np.int8)
        if i % 2 == 0:  # tie a PO net
            genes[po_genes[i % len(po_genes)]] = i % 4 // 2
        rows.append(genes)
    ds = generate_dataset(n, 300, seed=3)
    _batch_matches_reference(n, cs, rows, tmap, ds, capacity=4)


@pytest.mark.parametrize("family,width", [("rca_adder", 8), ("array_multiplier", 4)])
def test_score_batch_fills_the_arena_by_chromosome_count(family, width):
    """One `score_batch` takes `capacity` chromosomes a fill, in row order,
    the last fill the rest; the all-exact row takes its place in a fill like
    any other.  Every capacity gives every row the object path's score."""
    n = generate_benchmark(BenchmarkSpec(family, width))
    tmap = annotate_edge_transitions(n, _LIB, 20, seed=0)
    cs = build_candidates(n, ssta_traverse(n, _LIB, tmap))
    ds = generate_dataset(n, 200, seed=5)
    rng = np.random.default_rng(11)
    drawn = {exact_chromosome(cs).tobytes(): None}
    while len(drawn) < 9:
        p = rng.choice((0.1, 0.2, 0.4))
        genes = np.where(rng.random(len(cs)) < p, rng.integers(0, 2, len(cs)), -1)
        genes = genes.astype(np.int8)
        drawn.setdefault(genes.tobytes(), genes)
    rows = list(drawn.values())[1:]
    rows.insert(3, exact_chromosome(cs))
    want = [_reference_score(n, cs, genes, _LIB, tmap, ds) for genes in rows]
    for capacity in (1, 4, 9, 20):
        program = SearchProgram(Evaluator(n), cs, _LIB, tmap, ds)
        program.capacity = capacity
        with mock.patch.object(optimize, "nmed_words", wraps=optimize.nmed_words) as nmeds:
            assert program.score_batch(np.array(rows)) == want
        fills = [call.args[1].shape[1] for call in nmeds.call_args_list]
        assert fills == [min(capacity, len(rows) - lo) for lo in range(0, len(rows), capacity)]


def test_score_batch_is_the_same_at_any_capacity():
    """A paper-scale batch, 100 rows of `array_multiplier(16)` at the
    search's 10 000 vectors, scores the same one chromosome a fill, at the
    arena's own capacity (several fills) and all in one fill; and five of
    its rows score as the object path does."""
    n = generate_benchmark(BenchmarkSpec("array_multiplier", 16))
    tmap = annotate_edge_transitions(n, _LIB, 20, seed=0)
    cs = build_candidates(n, ssta_traverse(n, _LIB, tmap))
    cfg = GaConfig(population=100, seed=3)
    rows = initialize_population(cfg, cs)
    ds = generate_dataset(n, cfg.search_vectors, seed=1)
    program = SearchProgram(Evaluator(n), cs, _LIB, tmap, ds)
    assert 1 < program.capacity < len(rows)
    want = program.score_batch(rows)
    program.capacity, program._memo = 1, {}
    assert program.score_batch(rows) == want
    with mock.patch.object(optimize, "_ARENA_BYTES", 100 << 20):  # room for 100 rows a fill
        program = SearchProgram(Evaluator(n), cs, _LIB, tmap, ds)
    program.capacity = 100
    assert program.score_batch(rows) == want
    for k in range(0, 100, 20):
        assert want[k] == _reference_score(n, cs, rows[k], _LIB, tmap, ds)


def test_no_perfbench_workload_fills_the_arena_twice():
    """Each perfbench workload's generation fits in one fill, so its
    `optimize_s` measures one gate pass per generation."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for w in workloads.WORKLOADS.values():
        family, *shape = w["circuit"]
        n = getattr(vaxcirc, family)(*shape)
        cfg = GaConfig(**w["ga"])
        cs = CandidateSet((), 1e-3, netlist_fingerprint(n))
        tmap = annotate_edge_transitions(n, _LIB, 2, seed=0)
        ds = generate_dataset(n, cfg.search_vectors, seed=1)
        assert SearchProgram(Evaluator(n), cs, _LIB, tmap, ds).capacity >= cfg.population


def test_stuck_at_ties_match_reference_in_every_combination():
    """Every chromosome over four nets: PI `a`, which is also a PO and read
    by two gates; `x`, read by `y`; `y`, which reads `x`; and PO `z`, which
    no gate reads.  So a tied PI is a PO, a tied gate with no reader is a
    PO, and a downstream net tied to 1 reads an upstream net tied to 0."""
    n = parse_netlist(
        "circuit sa\ninput a b c\noutput a z y\n"
        "gate g1 AND2 A=a B=b Y=x\ngate g2 OR2 A=x B=c Y=y\n"
        "gate g3 XOR2 A=y B=a Y=z\nend\n"
    )
    cs = CandidateSet(("z", "a", "y", "x"), 1e-3, netlist_fingerprint(n))
    tmap = annotate_edge_transitions(n, _LIB, 8, seed=0)
    ds = generate_dataset(n, 0, seed=0, exhaustive=True)
    rows = [np.array(g, dtype=np.int8) for g in itertools.product((-1, 0, 1), repeat=4)]
    for capacity in (1, 7, len(rows)):
        _batch_matches_reference(n, cs, rows, tmap, ds, capacity)
    program = SearchProgram(Evaluator(n), cs, _LIB, tmap, ds)
    forced = [[0, 1, -1, -1], [-1, -1, 1, 0], [1, -1, -1, -1], [-1, 0, 1, 0]]
    scores = program.score_batch(np.array(forced, dtype=np.int8))
    for genes, score in zip(forced, scores):
        assert score == _reference_score(n, cs, np.array(genes, np.int8), _LIB, tmap, ds)
        assert score[0] > 0  # each tie changes the outputs


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
    front = MonteCarloFront(
        Evaluator(base), compile_timing(base, _LIB.arc_index()), cs, ds, seed, clock
    )
    designs = [(f"design_{i:03d}", genes) for i, genes in enumerate(rows)]
    want = [_standalone(base, cs, g, count, seed, clock, ds, d) for d, g in designs]
    # repr keeps the comparison exact, down to the sign of a zero
    want_reprs = list(map(repr, want))
    assert [repr(front.evaluate([d], delays)[0]) for d in designs] == want_reprs
    assert list(map(repr, front.evaluate(designs, delays))) == want_reprs
    return want


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


@pytest.mark.parametrize("text", [
    "circuit t\ninput a b\noutput a b\nend\n",
    "circuit kc\ninput a b\noutput kc a VDD\ngate u_kc AND2 A=GND B=VDD Y=kc\nend\n",
], ids=["no_gates", "constant_gate"])
def test_degenerate_baselines_match_reference(text):
    """A baseline with no gates, and one whose only gate reads constants,
    score every chromosome as the object path does, in the search and in
    the Monte-Carlo front."""
    base = parse_netlist(text)
    nets = base.inputs + tuple(g.output for g in base.gates)
    cs = CandidateSet(nets, 1e-3, netlist_fingerprint(base))
    tmap = annotate_edge_transitions(base, _LIB, 8, seed=0)
    ds = generate_dataset(base, 0, seed=0, exhaustive=True)
    rows = [np.array(g, dtype=np.int8)
            for g in itertools.product((-1, 0, 1), repeat=len(nets))]
    _batch_matches_reference(base, cs, rows, tmap, ds, capacity=2)
    _front_matches_standalone(base, cs, rows, 3, 0, ds)


def test_monte_carlo_front_drops_undisturbed_drivers_of_tied_nets(rca8):
    """c1's driver reads only slice 0, which no tie disturbs, so the
    dirty-only fold never visits it.  It must still count as dropped: its
    arcs would otherwise time a net that `apply_chromosome` removes."""
    ties = {"c1": 1, "c2": 1, "c5": 1, "s1_h": 0, "s4_h": 0}
    nets = tuple(ties)
    cs = CandidateSet(nets, 1e-3, netlist_fingerprint(rca8))
    genes = np.array([ties[w] for w in nets], dtype=np.int8)
    dropped = TieFold(compile_logic(rca8), cs).batch(genes[None]).dropped[0]
    topo = rca8.topological_order()
    driver = next(i for i, g in enumerate(topo) if g.output == "c1")
    assert set(topo[driver].fanin.values()) == {"s0_g", "s0_h"}
    assert dropped[driver]
    ds = generate_dataset(rca8, 500, seed=1)
    _front_matches_standalone(rca8, cs, [genes], 200, 9000, ds)


def _front_matches_standalone_within(size, *args):
    """`_front_matches_standalone(*args)` with `stacked_cpds` given `size`
    float64s of scratch memory (None: none, so one block of every delay row
    and one chunk of every design) in place of the front's; and the delay
    rows of each `sta_forward` call that `stacked_cpds` made."""
    rows, kernel = [], _kernels.sta_forward

    def counted(*a):
        rows.append(a[6].shape[0])
        return kernel(*a)

    def timed(*a):
        with mock.patch.object(_kernels, "sta_forward", counted):
            return stacked_cpds(*a[:5], None if size is None else np.empty(size))

    with mock.patch.object(harness, "stacked_cpds", timed):
        _front_matches_standalone(*args)
    return rows


def _drawn_genes(data, n_genes, count):
    return [
        np.array(data.draw(st.lists(st.sampled_from((-1, -1, 0, 1)),
                                    min_size=n_genes, max_size=n_genes)), dtype=np.int8)
        for _ in range(count)
    ]


@settings(max_examples=50, deadline=None)
@given(_tied_dag(), st.data())
def test_front_with_every_cone_empty_matches_standalone_calls(case, data):
    """Designs that tie only nets no gate reads, of a baseline that reads no
    constant, fold no gate: they time no edge, and every PO arrival they
    keep is the baseline's."""
    n, _, _ = case
    read = {w for g in n.gates for w in g.fanin.values()}
    nets = n.inputs + tuple(g.output for g in n.gates)
    cs = CandidateSet(nets, 1e-3, netlist_fingerprint(n))
    unread = [k for k, w in enumerate(nets) if w not in read]  # the last gate's output at least
    rows = [exact_chromosome(cs)]
    for _ in range(data.draw(st.integers(1, 3))):
        genes = exact_chromosome(cs)
        for k in data.draw(st.sets(st.sampled_from(unread), min_size=1)):
            genes[k] = data.draw(st.integers(0, 1))
        rows.append(genes)
    assert not TieFold(compile_logic(n), cs).batch(np.array(rows)).cone.any()
    ds = generate_dataset(n, 0, seed=0, exhaustive=True)
    seed = data.draw(st.integers(0, 500))
    for size in (None, 1):
        _front_matches_standalone_within(size, n, cs, rows, 3, seed, ds)


@st.composite
def _chain(draw):
    """A netlist whose every gate lies downstream of pin A of its first
    gate, an XOR2 that alone reads PI x0.  The other pins read drawn PIs
    and earlier gate outputs, never a constant, so tying x0 to VDD folds
    no gate: that cone covers every gate."""
    pis = tuple(f"x{i}" for i in range(draw(st.integers(2, 4))))
    nets = list(pis[1:])
    gates = [Gate("k0", "XOR2", {"A": "x0", "B": draw(st.sampled_from(nets))}, "k0_o")]
    for i in range(1, draw(st.integers(2, 10))):
        kind = CELLS[draw(st.sampled_from(sorted(CELLS)))]
        fanin = {pin: draw(st.sampled_from(nets)) for pin in kind.input_pins}
        fanin[draw(st.sampled_from(kind.input_pins))] = gates[-1].output
        nets.append(gates[-1].output)
        gates.append(Gate(f"k{i}", kind.name, fanin, f"k{i}_o"))
    pos = (gates[-1].output, *draw(st.lists(st.sampled_from(nets), max_size=3)))
    return Netlist("chain", pis, pos, tuple(gates))


def test_front_times_no_chunk_for_a_design_that_writes_no_net(rca8):
    """The all-exact design, and one that ties only an unread PO net, write
    no net: they take every PO arrival from the baseline's pass, so no
    `sta_forward` call times an empty chunk, alone or one design a chunk."""
    cs = CandidateSet(("cout", "c1"), 1e-3, netlist_fingerprint(rca8))
    ds = generate_dataset(rca8, 500, seed=1)
    rows = [exact_chromosome(cs), np.array([1, -1], np.int8), np.array([-1, 0], np.int8)]
    front, clock, delays = _front(rca8, cs, 20, 9000, ds)
    designs = [(f"design_{i:03d}", genes) for i, genes in enumerate(rows)]
    want = [repr(_standalone(rca8, cs, g, 20, 9000, clock, ds, d)) for d, g in designs]
    edges, kernel = [], _kernels.sta_forward

    def counted(*a):
        edges.append(a[0].shape[0])
        return kernel(*a)

    def one_design_a_chunk(*a):
        return stacked_cpds(*a[:5], np.empty(1))

    with mock.patch.object(_kernels, "sta_forward", counted):
        for call in ([designs[0]], designs[:2]):
            assert [repr(e) for e in front.evaluate(call, delays)] == want[: len(call)]
        with mock.patch.object(harness, "stacked_cpds", one_design_a_chunk):
            assert [repr(e) for e in front.evaluate(designs, delays)] == want
    assert edges and 0 not in edges


@settings(max_examples=50, deadline=None)
@given(_chain(), st.data())
def test_front_with_a_cone_covering_every_gate_matches_standalone_calls(n, data):
    """One design's cone is every gate, so it times every edge and writes
    every net that its chunk-mates, with smaller cones, read from outside
    theirs."""
    nets = n.inputs + tuple(g.output for g in n.gates)
    cs = CandidateSet(nets, 1e-3, netlist_fingerprint(n))
    whole = exact_chromosome(cs)
    whole[0] = 1  # x0 to VDD
    rows = [whole, exact_chromosome(cs)]
    for _ in range(data.draw(st.integers(1, 4))):  # a tie or two: a cone that reads seeds
        genes = exact_chromosome(cs)
        for k in data.draw(st.sets(st.integers(len(n.inputs), len(nets) - 1), min_size=1,
                                   max_size=2)):
            genes[k] = data.draw(st.integers(0, 1))
        rows.append(genes)
    assert TieFold(compile_logic(n), cs).batch(whole[None]).cone.all()
    ds = generate_dataset(n, 0, seed=0, exhaustive=True)
    seed = data.draw(st.integers(0, 500))
    for size in (None, 1):
        _front_matches_standalone_within(size, n, cs, rows, 3, seed, ds)


@settings(max_examples=50, deadline=None)
@given(_tied_dag(), st.data())
def test_front_in_many_row_blocks_and_chunks_matches_standalone_calls(case, data):
    """With one float64 of scratch memory, every block is one delay row and
    every chunk one design; a drawn size splits them otherwise."""
    n, _, tied = case
    for base in (n, tied):
        nets = base.inputs + tuple(g.output for g in base.gates)
        cs = CandidateSet(nets, 1e-3, netlist_fingerprint(base))
        ds = generate_dataset(base, 0, seed=0, exhaustive=True)
        rows = [exact_chromosome(cs), *_drawn_genes(data, len(nets), data.draw(st.integers(2, 4)))]
        count = data.draw(st.integers(2, 5))
        seed = data.draw(st.integers(0, 500))
        kernel_rows = _front_matches_standalone_within(1, base, cs, rows, count, seed, ds)
        assert set(kernel_rows) == {1} and len(kernel_rows) >= count
        size = data.draw(st.integers(2, 600))
        _front_matches_standalone_within(size, base, cs, rows, count, seed, ds)


# each op code as the textbook formula over numpy words, `~` being NOT
_TEXTBOOK = {
    _kernels.OP_INV: lambda a, b, s: ~a,
    _kernels.OP_BUF: lambda a, b, s: a,
    _kernels.OP_AND2: lambda a, b, s: a & b,
    _kernels.OP_OR2: lambda a, b, s: a | b,
    _kernels.OP_NAND2: lambda a, b, s: ~(a & b),
    _kernels.OP_NOR2: lambda a, b, s: ~(a | b),
    _kernels.OP_XOR2: lambda a, b, s: a ^ b,
    _kernels.OP_XNOR2: lambda a, b, s: ~(a ^ b),
    _kernels.OP_MUX2: lambda a, b, s: (a & ~s) | (b & s),
}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 9))
def test_in_place_eval_words_matches_gate_words(seed, n_words, extra):
    """`eval_words` writes each gate's words into its own row in place.  Gate
    by gate, over all nine op codes and a gate that reads one row on two
    pins, its rows equal the new arrays of `gate_words` and the textbook
    formula, and the rows no gate writes keep their words."""
    rng = np.random.default_rng(seed)
    ops = rng.permutation(np.concatenate([np.arange(9), rng.integers(0, 9, extra)]))
    ops = ops.astype(np.int8)
    first = 6  # GND, VDD and four input rows
    out = (first + 2 * np.arange(len(ops))).astype(np.int32)  # the next row stays unwritten
    fanin = np.array([rng.integers(0, o, 3) for o in out], dtype=np.int32)
    two = np.flatnonzero(ops >= _kernels.OP_AND2)[0]
    fanin[two, 1] = fanin[two, 0]
    words = rng.integers(0, 2**64, (first + 2 * len(ops), n_words), dtype=np.uint64)
    words[0] = 0
    words[1] = ~np.uint64(0)
    got = _kernels.eval_words(ops, *fanin.T, out, words.copy())
    want = words.copy()
    for op, (i0, i1, i2), o in zip(ops, fanin, out):
        a, b, s = want[i0], want[i1], want[i2]
        want[o] = _kernels.gate_words(op, a, b, s)
        assert (want[o] == _TEXTBOOK[op](a, b, s)).all()
    assert (got == want).all()
    unwritten = np.setdiff1d(np.arange(len(words)), out)
    assert (got[unwritten] == words[unwritten]).all()


def _front(base, cs, count, seed, ds):
    """A MonteCarloFront at half the baseline's CPD in one library, so that
    violations vary, that clock, and the `count` libraries from `seed`."""
    clock = 0.5 * cpd_over_delays(
        compile_timing(base, _LIB.arc_index()), sample_matrix(_LIB, [seed])
    )[0]
    delays = sample_matrix(_LIB, range(seed, seed + count))
    program = compile_timing(base, _LIB.arc_index())
    return MonteCarloFront(Evaluator(base), program, cs, ds, seed, clock), clock, delays


def _front_reuse_matches_standalone(base, cs, rows, count, seed, ds):
    """One MonteCarloFront scores `rows` as the standalone calls do, called
    with each design alone, all at once, in reverse order, and with each
    design twice in a row."""
    front, clock, delays = _front(base, cs, count, seed, ds)
    designs = [(f"design_{i:03d}", genes) for i, genes in enumerate(rows)]
    want = {d: repr(_standalone(base, cs, g, count, seed, clock, ds, d)) for d, g in designs}
    calls = [[d] for d in designs] + [designs, designs[::-1]] + [[d, d] for d in designs]
    for call in calls:
        assert [repr(e) for e in front.evaluate(call, delays)] == [want[d] for d, _ in call]


def test_monte_carlo_front_reuse_keeps_dropped_dirty_rows_dirty(rca8):
    """Tying a0 changes c1's words; the next design ties c1, so it drops
    c1's driver and leaves those words in place; the exact design after it
    keeps that driver outside its cone, so it must still simulate it."""
    nets = ("a0", "c1")
    cs = CandidateSet(nets, 1e-3, netlist_fingerprint(rca8))
    rows = [np.array(g, dtype=np.int8) for g in ((1, -1), (-1, 0), (-1, -1))]
    ds = generate_dataset(rca8, 500, seed=1)
    _front_reuse_matches_standalone(rca8, cs, rows, 20, 9000, ds)


@settings(max_examples=50, deadline=None)
@given(_tied_dag(), st.data())
def test_monte_carlo_front_reuse_matches_standalone_calls(case, data):
    n, _, tied = case
    for base in (n, tied):
        nets = base.inputs + tuple(g.output for g in base.gates)
        cs = CandidateSet(nets, 1e-3, netlist_fingerprint(base))
        ds = generate_dataset(base, 0, seed=0, exhaustive=True)
        rows = [exact_chromosome(cs)] + [
            np.array(data.draw(st.lists(st.sampled_from((-1, -1, 0, 1)),
                                        min_size=len(nets), max_size=len(nets))),
                     dtype=np.int8)
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        _front_reuse_matches_standalone(base, cs, rows, 3, data.draw(st.integers(0, 500)), ds)


def _front_timing(base, cs, rows, count, ds):
    """The arguments `MonteCarloFront.evaluate` passes `stacked_cpds` for
    `rows`, but for its scratch memory."""
    front, _, delays = _front(base, cs, count, 9000, ds)
    designs = [(f"design_{i:03d}", genes) for i, genes in enumerate(rows)]
    with mock.patch.object(harness, "stacked_cpds", wraps=stacked_cpds) as timed:
        front.evaluate(designs, delays)
    return timed.call_args.args[:5]


@settings(max_examples=100, deadline=None)
@given(_tied_dag(), st.data())
def test_front_subsets_compact_to_no_more_slots(case, data):
    """Any subset of a front's designs compacts to no more arrival slots
    than the whole front, which `stacked_cpds` sizes its chunks by."""
    n, _, tied = case
    for base in (n, tied):
        nets = base.inputs + tuple(g.output for g in base.gates)
        cs = CandidateSet(nets, 1e-3, netlist_fingerprint(base))
        ds = generate_dataset(base, 0, seed=0, exhaustive=True)
        rows = [
            np.array(data.draw(st.lists(st.sampled_from((-1, -1, 0, 1)),
                                        min_size=len(nets), max_size=len(nets))),
                     dtype=np.int8)
            for _ in range(data.draw(st.integers(2, 6)))
        ]
        program, edge_on, forwards, po_rows, delays = _front_timing(base, cs, rows, 2, ds)
        n_arcs = delays.shape[1]
        whole = stacked_union(program, edge_on, forwards, po_rows, n_arcs)[0]
        keep = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)))
        part = stacked_union(program, edge_on[keep], [forwards[i] for i in keep],
                             [po_rows[i] for i in keep], n_arcs)[0]
        assert part.n_rows <= whole.n_rows


@pytest.mark.parametrize("family,width,taps", [("rca_adder", 8, 1), ("mac_fir", 4, 2)])
def test_stacked_cpds_table_in_out_matches_a_new_table(family, width, taps):
    """`stacked_cpds` gives bit-identical CPDs with its arrivals and delay
    tables in `out` or in new arrays, in one block and chunk or in many."""
    n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
    cs = build_candidates(n, ssta_traverse(n, _LIB, annotate_edge_transitions(n, _LIB, 20)))
    rng = np.random.default_rng(5)
    rows = [exact_chromosome(cs)] + [
        np.where(rng.random(len(cs)) < 0.2, rng.integers(0, 2, len(cs)), -1).astype(np.int8)
        for _ in range(6)
    ]
    args = _front_timing(n, cs, rows, 30, generate_dataset(n, 300, seed=2))
    assert len(stacked_union(*args[:4], args[4].shape[1])[2])  # some private columns
    want = stacked_cpds(*args)  # new arrays
    roomy = np.full(2**20, np.nan)
    assert np.array_equal(stacked_cpds(*args, roomy), want)
    used = np.argmax(np.isnan(roomy))
    assert used and np.isnan(roomy[used:]).all()  # one head of `out` held everything
    exact = np.full(used, np.nan)
    assert np.array_equal(stacked_cpds(*args, exact), want)
    assert not np.isnan(exact).any()
    tight = np.full(used - 1, np.nan)  # a delay table no longer fits: a new one
    assert np.array_equal(stacked_cpds(*args, tight), want)
    for size in (1, 500, 5000):  # one row per block and one design per chunk, ...
        assert np.array_equal(stacked_cpds(*args, np.full(size, np.nan)), want)


def _tmap_by_path_extraction(n, lib, count, seed):
    """The tmap tallied from `extract_critical_path` of each sampled
    library's `sta_arrivals`, one library at a time."""
    tally = {}
    for s in range(seed, seed + count):
        for gate, pin, edge in extract_critical_path(sta_arrivals(n, sample_library(lib, s))):
            tally.setdefault((gate, pin), []).append(edge)
    tmap = {}
    for g in n.gates:
        for pin in g.cell.input_pins:
            if g.fanin[pin] in (GND, VDD):
                continue
            edges = tally.get((g.name, pin), [])
            rise, fall = edges.count("rise"), edges.count("fall")
            if rise == fall:  # the larger mean, rise on a tie
                rise = lib.arc(g.kind, pin, "rise").mu_ps
                fall = lib.arc(g.kind, pin, "fall").mu_ps
            tmap[(g.name, pin)] = "fall" if fall > rise else "rise"
    return tmap


def _assert_tmap_and_clock_match_scalar(n, lib, count, seed):
    clock, tmap = _clock_and_tmap(compile_timing(n, lib.arc_index()), lib, count, seed)
    want = _tmap_by_path_extraction(n, lib, count, seed)
    assert list(tmap.items()) == list(want.items())  # key order too
    assert annotate_edge_transitions(n, lib, count, seed) == tmap
    nominal = sta_arrivals(n, nominal_library(lib)).cpd
    assert type(clock) is float and clock.hex() == float(nominal).hex()


@settings(max_examples=100, deadline=None)
@given(_tied_dag(), st.integers(0, 1000), st.integers(1, 6), st.data())
def test_tmap_and_clock_match_path_extraction(case, seed, count, data):
    """The batched walk gives the tmap of a per-library `extract_critical_path`
    tally, and its forward's nominal row the clock of `sta_arrivals`, on
    DAGs with PI, constant and repeated POs, an unfolded all-constant gate
    and a gate reading one net on both pins."""
    n, _, tied = case
    for base in (n, tied):
        _assert_tmap_and_clock_match_scalar(_with_corner_gates(base, data), _LIB, count, seed)


@pytest.mark.parametrize("family,width,taps", [
    ("rca_adder", 8, 1), ("cla_adder", 8, 1), ("array_multiplier", 8, 1),
    ("mac_fir", 8, 2),
])
def test_tmap_and_clock_match_path_extraction_on_families(family, width, taps):
    n = generate_benchmark(BenchmarkSpec(family, width, taps=taps))
    _assert_tmap_and_clock_match_scalar(n, _LIB, 30, 1000)


def _zero_sigma_library():
    """Exact delays: AND2's pins tie, INV is 4 ps rising and 3 ps falling,
    BUF 2 and 3, XOR2 5 and 5."""
    mus = {"AND2": {"A": (2.0, 1.0), "B": (2.0, 1.0)}, "INV": {"A": (4.0, 3.0)},
           "BUF": {"A": (2.0, 3.0)}, "XOR2": {"A": (5.0, 5.0), "B": (5.0, 5.0)}}
    cells = {
        kind: [TimingArc(pin, edge, mu, 0.0)
               for pin, pair in pins.items() for edge, mu in zip(("rise", "fall"), pair)]
        for kind, pins in mus.items()
    }
    return VariationLibrary("ties", cells)


@pytest.mark.parametrize("gates,outputs,want,clock", [
    # y rises at 1 + 4 and falls at 2 + 3: the tie picks rise, so the INV
    # carries a rise and the AND2 a fall, whose pins A and B tie: A wins,
    # and B keeps its larger-mean default, rise
    ([Gate("u", "AND2", {"A": "a", "B": "b"}, "t"), Gate("v", "INV", {"A": "t"}, "y")],
     ("y",), {("u", "A"): "fall", ("u", "B"): "rise", ("v", "A"): "rise"}, 5.0),
    # s rises at 4 + 2 and falls at 3 + 3; the XOR2 reads both edges of s
    # and takes the rise, so the BUF carries a rise, not its default fall,
    # and the INV a rise
    ([Gate("w", "INV", {"A": "a"}, "r"), Gate("x", "BUF", {"A": "r"}, "s"),
      Gate("z", "XOR2", {"A": "s", "B": "b"}, "q")],
     ("q",), {("w", "A"): "rise", ("x", "A"): "rise", ("z", "A"): "rise",
              ("z", "B"): "rise"}, 11.0),
], ids=["pin-and-endpoint-tie", "non-unate-tie"])
@pytest.mark.parametrize("count", [1, 3])
def test_tmap_ties_take_the_first_pin_and_rise(gates, outputs, want, clock, count):
    """Exact ties go to the first pin and to rise before fall, both at the
    endpoint and along the path, in the walk and in `extract_critical_path`."""
    n = Netlist("ties", ("a", "b"), outputs, gates)
    lib = _zero_sigma_library()
    assert _clock_and_tmap(compile_timing(n, lib.arc_index()), lib, count, 0) == (clock, want)
    path = extract_critical_path(sta_arrivals(n, sample_library(lib, 0)))
    assert {(g, pin): edge for g, pin, edge in path}.items() <= want.items()
