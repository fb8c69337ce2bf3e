import dataclasses
import itertools
import os

import numpy as np
import pytest

from vaxcirc import optimize
from vaxcirc.approx import CandidateSet, build_candidates, exact_chromosome
from vaxcirc.celllib import nominal_library
from vaxcirc.errsim import Evaluator, generate_dataset
from vaxcirc.netlist import Gate, Netlist, depth_to_output, netlist_fingerprint
from vaxcirc.optimize import (
    EvaluatedDesign,
    GaConfig,
    SearchProgram,
    crowding_assign,
    evaluate_individual,
    greedy_glp,
    initialize_population,
    mutate,
    mutation_rates,
    nondominated_sort,
    nsga2_run,
    pareto_front_indices,
)
from vaxcirc.timing import annotate_edge_transitions, ssta_traverse, sta_arrivals

from test_timing import _uniform_lib


@pytest.fixture(scope="module")
def rca4_setup(rca4, default_lib):
    tmap = annotate_edge_transitions(rca4, default_lib, 50, seed=0)
    ssta = ssta_traverse(rca4, default_lib, tmap)
    cs = build_candidates(rca4, ssta)
    ds = generate_dataset(rca4, 512, seed=100)
    return tmap, ssta, cs, ds


def _design(nmed, mu_eff, sigma, feasible=True, violation=0.0, tag=0):
    return EvaluatedDesign(
        genes=np.array([tag], dtype=np.int64),
        nmed=nmed,
        mu_cpd=mu_eff,
        sigma_cpd=sigma,
        confidence=1.0,
        mu_cpd_eff=mu_eff,
        feasible=feasible,
        violation=violation,
    )


class TestGaConfig:
    def test_defaults(self):
        cfg = GaConfig()
        cfg.validate()
        assert cfg.population == 100
        assert cfg.generations == 100
        assert cfg.crossover_prob == 0.9
        assert cfg.init_exact_prob == 0.9
        assert cfg.confidence_penalty == 0.1
        assert cfg.search_vectors == 10_000

    @pytest.mark.parametrize(
        "kw",
        [
            {"population": 3},
            {"population": 0},
            {"crossover_prob": 1.5},
            {"init_exact_prob": -0.1},
            {"confidence_penalty": -1.0},
            {"error_bound": 2.0},
            {"base_mutation_rate": 0.0},
            {"seed": -1},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            GaConfig(**kw).validate()


class TestInitializePopulation:
    def test_all_exact(self, rca4_setup):
        cs = rca4_setup[2]
        cfg = GaConfig(population=10, init_exact_prob=1.0)
        pop = initialize_population(cfg, cs)
        assert all(np.all(g == -1) for g in pop)

    def test_no_exact(self, rca4_setup):
        cs = rca4_setup[2]
        cfg = GaConfig(population=10, init_exact_prob=0.0)
        pop = initialize_population(cfg, cs)
        assert all(np.all(g != -1) for g in pop)

    def test_exact_frequency(self, rca4_setup):
        cs = rca4_setup[2]
        need = 10_000 // len(cs) + 1
        pop = initialize_population(GaConfig(population=2 * need), cs)
        genes = np.concatenate(pop)
        freq = float((genes == -1).mean())
        assert abs(freq - 0.9) < 0.02

    def test_deterministic(self, rca4_setup):
        cs = rca4_setup[2]
        a = initialize_population(GaConfig(population=8, seed=5), cs)
        b = initialize_population(GaConfig(population=8, seed=5), cs)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestEvaluateIndividual:
    def test_all_exact(self, rca4, default_lib, rca4_setup):
        tmap, ssta, cs, ds = rca4_setup
        cfg = GaConfig(error_bound=0.05)
        d = evaluate_individual(
            rca4, cs, exact_chromosome(cs), default_lib, tmap, ds, cfg
        )
        assert d.nmed == 0.0
        assert d.mu_cpd == ssta.cpd.mu
        assert d.feasible

    def test_tied_output_nmed(self):
        # sole PO tied to GND: nmed = mean|Y| / max = 0.25 on AND2
        n = Netlist(
            "a2", ("x0", "x1"), ("y",),
            (Gate("g", "AND2", {"A": "x0", "B": "x1"}, "y"),),
        )
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.05)
        tmap = annotate_edge_transitions(n, lib, 10, seed=0)
        ssta = ssta_traverse(n, lib, tmap)
        cs = build_candidates(n, ssta, 1e-6)
        ds = generate_dataset(n, 1, seed=0, exhaustive=True)
        genes = exact_chromosome(cs)
        genes[cs.nets.index("y")] = 0
        cfg = GaConfig(error_bound=0.1)
        d = evaluate_individual(n, cs, genes, lib, tmap, ds, cfg)
        assert d.nmed == 0.25
        assert not d.feasible
        assert d.violation == pytest.approx(0.15)

    def test_confidence_one_no_penalty(self, rca4_setup):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.05)
        gates = tuple(
            Gate(f"g{i}", "BUF", {"A": "a" if i == 0 else f"n{i - 1}"}, f"n{i}")
            for i in range(3)
        )
        n = Netlist("chain", ("a",), ("n2",), gates)
        tmap = annotate_edge_transitions(n, lib, 10, seed=0)
        ssta = ssta_traverse(n, lib, tmap)
        cs = build_candidates(n, ssta, 0.5)
        ds = generate_dataset(n, 16, seed=0)
        d = evaluate_individual(
            n, cs, exact_chromosome(cs), lib, tmap, ds, GaConfig()
        )
        assert d.confidence == 1.0
        assert d.mu_cpd_eff == d.mu_cpd

    def test_penalty_formula(self, rca4, default_lib, rca4_setup):
        tmap, ssta, cs, ds = rca4_setup
        cfg = GaConfig(confidence_penalty=0.25)
        d = evaluate_individual(
            rca4, cs, exact_chromosome(cs), default_lib, tmap, ds, cfg
        )
        assert d.mu_cpd_eff == d.mu_cpd * (1.0 + 0.25 * (1.0 - d.confidence))


class TestSearchProgram:
    def test_duplicate_rows_are_scored_once(
        self, rca4, default_lib, rca4_setup, monkeypatch
    ):
        tmap, _, cs, ds = rca4_setup
        scored = []
        nmed_words = optimize.nmed_words
        monkeypatch.setattr(
            optimize, "nmed_words",
            lambda e, a, *rest: scored.extend(a.swapaxes(0, 1)) or nmed_words(e, a, *rest),
        )
        program = SearchProgram(Evaluator(rca4), cs, default_lib, tmap, ds)
        tied = exact_chromosome(cs)
        tied[0] = 0
        rows = np.array([exact_chromosome(cs), tied, exact_chromosome(cs), tied, tied])
        scores = program.score_batch(rows)
        assert len(scored) == 2
        assert len(scores) == len(rows)
        assert scores[0] == scores[2]
        assert scores[1] == scores[3] == scores[4]
        assert scores[0] != scores[1]
        # memo hits come back in row order without scoring again
        assert program.score_batch(rows[::-1]) == scores[::-1]
        assert len(scored) == 2
        cfg = GaConfig(error_bound=0.05)
        for g, s in zip(rows[:2], scores):
            d = evaluate_individual(rca4, cs, g, default_lib, tmap, ds, cfg)
            assert (d.nmed, d.mu_cpd, d.sigma_cpd, d.confidence) == s

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_fills_its_own_arena(self, rca4, default_lib, rca4_setup):
        """The arena is mapped private: a child forked after the program is
        built scores a batch without writing into its parent's arena."""
        tmap, _, cs, ds = rca4_setup
        program = SearchProgram(Evaluator(rca4), cs, default_lib, tmap, ds)
        tied = exact_chromosome(cs)
        tied[0] = 0
        program.score_batch(np.array([exact_chromosome(cs), tied]))
        before = program._arena.copy()
        rows = np.array([np.zeros(len(cs), np.int8), np.ones(len(cs), np.int8)])
        pid = os.fork()
        if pid == 0:  # the child never returns into the test runner
            code = 1
            try:
                program.score_batch(rows)
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert np.array_equal(program._arena, before)
        scores = program.score_batch(rows)  # the child's fills differ from the parent's
        assert not np.array_equal(program._arena, before)
        assert scores == SearchProgram(Evaluator(rca4), cs, default_lib, tmap, ds).score_batch(rows)

    def test_baseline_without_po_scores_zero_error(self, default_lib):
        """A fill whose chromosomes have no PO word to score still scores."""
        n = Netlist("nopo", ("a", "b"), (), (Gate("g", "AND2", {"A": "a", "B": "b"}, "y"),))
        cs = CandidateSet(("a", "y"), 1e-3, netlist_fingerprint(n))
        tmap = annotate_edge_transitions(n, default_lib, 4, seed=0)
        program = SearchProgram(
            Evaluator(n), cs, default_lib, tmap, generate_dataset(n, 100, seed=0)
        )
        rows = np.array([[0, 1], [-1, -1], [1, 0]], dtype=np.int8)
        assert [s[0] for s in program.score_batch(rows)] == [0.0, 0.0, 0.0]

    def test_nsga2_builds_each_generation_from_one_score_batch(
        self, rca4, default_lib, rca4_setup, monkeypatch
    ):
        """`nsga2_run` scores each generation in one `score_batch` call and
        builds its designs from those scores, never through
        `evaluate_individual`; the designs are the ones it gives."""
        tmap, _, cs, ds = rca4_setup

        def refuse(*args, **kwargs):
            raise AssertionError("nsga2_run called evaluate_individual")

        batches = []
        score_batch = SearchProgram.score_batch
        monkeypatch.setattr(optimize, "evaluate_individual", refuse)
        monkeypatch.setattr(
            SearchProgram, "score_batch",
            lambda self, genes: batches.append(len(genes)) or score_batch(self, genes),
        )
        cfg = GaConfig(population=8, generations=3, error_bound=0.05, seed=2)
        res = nsga2_run(Evaluator(rca4), cs, default_lib, tmap, ds, cfg)
        assert batches == [cfg.population] * (cfg.generations + 1)
        monkeypatch.undo()
        assert res.front
        for d in res.population + res.front:
            e = evaluate_individual(rca4, cs, d.genes, default_lib, tmap, ds, cfg)
            fields = ("nmed", "mu_cpd", "sigma_cpd", "confidence", "mu_cpd_eff",
                      "feasible", "violation")
            assert [getattr(e, k) for k in fields] == [getattr(d, k) for k in fields]


def _brute_force_ranks(points):
    """Peel nondominated layers with a quadratic checker."""
    def dom(a, b):
        if a.feasible != b.feasible:
            return a.feasible
        if not a.feasible:
            return a.violation < b.violation
        return all(x <= y for x, y in zip(a.objectives, b.objectives)) and any(
            x < y for x, y in zip(a.objectives, b.objectives)
        )

    remaining = list(range(len(points)))
    ranks = {}
    r = 0
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(dom(points[j], points[i]) for j in remaining if j != i)
        ]
        for i in layer:
            ranks[i] = r
        remaining = [i for i in remaining if i not in layer]
        r += 1
    return ranks


class TestSorting:
    def test_two_point_example(self):
        a = _design(0.1, 5.0, 1.0)
        b = _design(0.2, 6.0, 2.0)
        fronts = nondominated_sort([a, b])
        assert fronts == [[0], [1]]
        assert pareto_front_indices([a.objectives, b.objectives]) == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            pts = []
            for i in range(int(rng.integers(50, 201))):
                feasible = bool(rng.random() < 0.8)
                pts.append(
                    _design(
                        float(rng.random()),
                        float(rng.random() * 10),
                        float(rng.random()),
                        feasible=feasible,
                        violation=0.0 if feasible else float(rng.random()),
                        tag=i,
                    )
                )
            nondominated_sort(pts)
            want = _brute_force_ranks(pts)
            for i, p in enumerate(pts):
                assert p.rank == want[i]

    def test_duplicates_keep_first(self):
        pts = [(0.1, 5.0, 1.0), (0.1, 5.0, 1.0), (0.2, 9.0, 9.0)]
        assert pareto_front_indices(pts) == [0]

    def test_crowding_boundaries_infinite(self):
        pts = [_design(0.1 * i, 10.0 - i, 1.0) for i in range(5)]
        crowding_assign(pts, list(range(5)))
        ordered = sorted(pts, key=lambda d: d.objectives[0])
        assert ordered[0].crowding == float("inf")
        assert ordered[-1].crowding == float("inf")
        assert all(np.isfinite(d.crowding) for d in ordered[1:-1])

    def test_crowding_small_sets_infinite(self):
        pts = [_design(0.1, 5.0, 1.0), _design(0.2, 4.0, 2.0)]
        crowding_assign(pts, [0, 1])
        assert all(d.crowding == float("inf") for d in pts)


class TestMutate:
    def _chain_setup(self):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.05)
        gates = tuple(
            Gate(f"g{i}", "INV", {"A": "a" if i == 0 else f"n{i - 1}"}, f"n{i}")
            for i in range(4)
        )
        n = Netlist("chain", ("a",), ("n3",), gates)
        tmap = annotate_edge_transitions(n, lib, 10, seed=0)
        cs = build_candidates(n, ssta_traverse(n, lib, tmap), 0.5)
        return n, cs

    def test_rates_match_formula(self):
        n, cs = self._chain_setup()
        depth = depth_to_output(n)
        depths = np.array([depth[w] for w in cs.nets], dtype=np.float64)
        d_max = max(depth[w] for w in cs.nets)
        base = 0.3
        cfg = GaConfig(base_mutation_rate=base)
        rng = np.random.default_rng(15)
        genes = exact_chromosome(cs)
        trials = 100_000
        flips = np.zeros(len(cs))
        rates = mutation_rates(depths, cfg)
        for _ in range(trials):
            out = mutate(genes, rates, rng)
            flips += out != genes
        for i, w in enumerate(cs.nets):
            want = base * (depth[w] + 1) / (d_max + 1)
            assert abs(flips[i] / trials - want) < 0.1 * want

    def test_po_gene_rate_is_base_over_dmax_plus_one(self):
        n, cs = self._chain_setup()
        depth = depth_to_output(n)
        depths = np.array([depth[w] for w in cs.nets], dtype=np.float64)
        d_max = max(depth[w] for w in cs.nets)
        po_rate = 0.5 * (0 + 1) / (d_max + 1)
        rng = np.random.default_rng(16)
        cfg = GaConfig(base_mutation_rate=0.5)
        genes = exact_chromosome(cs)
        i = cs.nets.index("n3")
        rates = mutation_rates(depths, cfg)
        flips = sum(mutate(genes, rates, rng)[i] != -1 for _ in range(40_000))
        assert abs(flips / 40_000 - po_rate) < 0.1 * po_rate

    def test_resamples_other_values(self):
        n, cs = self._chain_setup()
        depth = depth_to_output(n)
        depths = np.array([depth[w] for w in cs.nets], dtype=np.float64)
        rates = mutation_rates(depths, GaConfig(base_mutation_rate=1.0))
        rng = np.random.default_rng(17)
        seen = {(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)}
        hit = set()
        for start in (-1, 0, 1):
            genes = np.full(len(cs), start, dtype=np.int8)
            for _ in range(200):
                out = mutate(genes, rates, rng)
                for a, b in zip(genes.tolist(), out.tolist()):
                    if a != b:
                        hit.add((a, b))
                        assert b in {-1, 0, 1} - {a}
        assert hit == seen


class TestNsga2:
    def test_identical_population_front(self, rca4, default_lib, rca4_setup):
        tmap, ssta, cs, ds = rca4_setup
        cfg = GaConfig(
            population=4, generations=2, init_exact_prob=1.0,
            base_mutation_rate=1e-12, error_bound=0.05, seed=0,
        )
        res = nsga2_run(Evaluator(rca4), cs, default_lib, tmap, ds, cfg)
        assert len(res.front) == 1
        assert np.all(res.front[0].genes == -1)

    def test_rca4_front_beats_baseline(self, rca4, default_lib, rca4_setup):
        tmap, ssta, cs, ds = rca4_setup
        cfg = GaConfig(population=30, generations=30, error_bound=0.05, seed=1)
        res = nsga2_run(Evaluator(rca4), cs, default_lib, tmap, ds, cfg)
        assert not res.feasible_warning
        assert all(d.nmed <= 0.05 for d in res.front)
        assert any(d.mu_cpd < ssta.cpd.mu and d.nmed > 0.0 for d in res.front)

        # bounded enumeration of 1- and 2-gene chromosomes as a
        # near-optimality reference: the GA must match the best
        # single-gene mu_cpd_eff and never lose to an enumerated design
        # on its whole front.
        cfg_eval = GaConfig(error_bound=0.05)
        enumerated = []
        for i in range(len(cs)):
            for v in (0, 1):
                g = exact_chromosome(cs)
                g[i] = v
                enumerated.append(
                    evaluate_individual(rca4, cs, g, default_lib, tmap, ds, cfg_eval)
                )
        for i, j in itertools.combinations(range(len(cs)), 2):
            for vi, vj in itertools.product((0, 1), repeat=2):
                g = exact_chromosome(cs)
                g[i], g[j] = vi, vj
                enumerated.append(
                    evaluate_individual(rca4, cs, g, default_lib, tmap, ds, cfg_eval)
                )
        feas_1g = [
            d for d in enumerated[: 2 * len(cs)] if d.feasible
        ]
        best_1g = min(d.mu_cpd_eff for d in feas_1g)
        assert min(d.mu_cpd_eff for d in res.front) <= best_1g

    def test_elitism_and_archive_monotonicity(self, rca4, default_lib, rca4_setup):
        tmap, ssta, cs, ds = rca4_setup
        cfg = GaConfig(population=16, generations=12, error_bound=0.05, seed=3)
        res = nsga2_run(Evaluator(rca4), cs, default_lib, tmap, ds, cfg)
        best = [min(d.nmed for d in snap) for snap in res.history if snap]
        assert best == sorted(best, reverse=True)

        def dominates(a, b):
            return all(x <= y for x, y in zip(a, b)) and a != b

        for prev, cur in zip(res.history, res.history[1:]):
            prev_objs = [d.objectives for d in prev]
            cur_objs = [d.objectives for d in cur]
            # nothing in the new archive is dominated by an old point
            for c in cur_objs:
                assert not any(dominates(p, c) for p in prev_objs)
            # every old point survives or is dominated by a new point
            for p in prev_objs:
                assert p in cur_objs or any(dominates(c, p) for c in cur_objs)

    def test_determinism(self, rca4, default_lib, rca4_setup):
        tmap, ssta, cs, ds = rca4_setup
        cfg = GaConfig(population=12, generations=6, error_bound=0.05, seed=7)
        r1 = nsga2_run(Evaluator(rca4), cs, default_lib, tmap, ds, cfg)
        r2 = nsga2_run(Evaluator(rca4), cs, default_lib, tmap, ds, cfg)
        assert len(r1.front) == len(r2.front)
        for a, b in zip(r1.front, r2.front):
            assert np.array_equal(a.genes, b.genes)
            assert a.objectives == b.objectives

    def test_survivors_carry_their_ranks(self, rca4, default_lib, rca4_setup, monkeypatch):
        """At the first tournament of each generation every member of `pop`
        has the rank and crowding that a fresh sort and crowding of a copy
        give, so the survivors need no sort of their own: `nondominated_sort`
        runs once per generation and once before the first.  Some generation
        starts from a cut front, whose crowding is all that changes."""
        tmap, _, cs, ds = rca4_setup
        sort, crowding, tournament = nondominated_sort, crowding_assign, optimize._tournament
        cut_fronts = []
        for seed in (0, 1, 2):
            cfg = GaConfig(population=8, generations=6, error_bound=0.05, seed=seed)
            sorts, seen = [], []

            def counted_sort(pop):
                sorts.append(len(pop))
                return sort(pop)

            def recorded_crowding(pop, front):
                if seen and len(pop) == cfg.population and front:  # the cut front's
                    cut_fronts.append(len(front))
                crowding(pop, front)

            def checked_tournament(pop, rng):
                if not any(p is pop for p in seen):  # a new generation's population
                    seen.append(pop)
                    fresh = [dataclasses.replace(d) for d in pop]
                    for f in sort(fresh):
                        crowding(fresh, f)
                    assert [(d.rank, d.crowding) for d in pop] == [
                        (d.rank, d.crowding) for d in fresh
                    ]
                return tournament(pop, rng)

            monkeypatch.setattr(optimize, "nondominated_sort", counted_sort)
            monkeypatch.setattr(optimize, "crowding_assign", recorded_crowding)
            monkeypatch.setattr(optimize, "_tournament", checked_tournament)
            nsga2_run(Evaluator(rca4), cs, default_lib, tmap, ds, cfg)
            assert len(seen) == cfg.generations
            assert len(sorts) == cfg.generations + 1
        assert cut_fronts

    def test_infeasible_everything_warns(self, rca4, default_lib, rca4_setup):
        tmap, ssta, cs, ds = rca4_setup
        # error_bound is a hard wall no approximation can pass, and the
        # initial population is forced away from the exact design
        cfg = GaConfig(
            population=4, generations=2, init_exact_prob=0.0,
            error_bound=1e-12, seed=0,
        )
        res = nsga2_run(Evaluator(rca4), cs, default_lib, tmap, ds, cfg)
        if res.feasible_warning:
            assert len(res.front) == 0
        else:
            # mutation found the exact design; still consistent
            assert all(d.nmed <= 1e-12 for d in res.front)


class TestGreedyGlp:
    def test_target_at_baseline_is_identity(self, rca4, default_lib):
        nom = nominal_library(default_lib)
        ds = generate_dataset(rca4, 256, seed=0)
        base = sta_arrivals(rca4, nom).cpd
        out, reached = greedy_glp(rca4, nom, ds, base)
        assert reached
        assert out == rca4

    def test_chain_prunes_and_drops_cpd(self, default_lib):
        gates = tuple(
            Gate(f"g{i}", "INV", {"A": "a" if i == 0 else f"n{i - 1}"}, f"n{i}")
            for i in range(5)
        )
        n = Netlist("chain", ("a",), ("n4",), gates)
        nom = nominal_library(default_lib)
        ds = generate_dataset(n, 64, seed=1)
        base = sta_arrivals(n, nom).cpd
        out, reached = greedy_glp(n, nom, ds, 0.8 * base)
        assert reached
        assert len(out.gates) < len(n.gates)
        assert sta_arrivals(out, nom).cpd <= 0.8 * base

    def test_rca8_reaches_target(self, rca8, default_lib):
        nom = nominal_library(default_lib)
        ds = generate_dataset(rca8, 2000, seed=2)
        base = sta_arrivals(rca8, nom).cpd
        out, reached = greedy_glp(rca8, nom, ds, 0.9 * base)
        assert reached
        assert sta_arrivals(out, nom).cpd <= 0.9 * base
        assert out.inputs == rca8.inputs

    def test_deterministic(self, rca8, default_lib):
        nom = nominal_library(default_lib)
        ds = generate_dataset(rca8, 500, seed=3)
        base = sta_arrivals(rca8, nom).cpd
        a, _ = greedy_glp(rca8, nom, ds, 0.92 * base)
        b, _ = greedy_glp(rca8, nom, ds, 0.92 * base)
        assert a == b
