import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from vaxcirc.celllib import TimingArc, VariationLibrary, nominal_library, sample_library
from vaxcirc.netlist import CELLS, Gate, Netlist
from vaxcirc.timing import (
    DelayRV,
    annotate_edge_transitions,
    cpb_backprop,
    extract_critical_path,
    mc_sta_cpd,
    po_endpoints,
    rv_gt_prob,
    running_winner,
    running_winners,
    rv_sum,
    ssta_traverse,
    sta_arrivals,
)

from _oracles import calibration_library, path_enum_cpd, random_dag


def _uniform_lib(rise, fall, sigma_frac=0.0, rho=0.5):
    """Every arc of every cell gets the same (rise, fall) mu."""
    cells = {}
    for kind, cell in CELLS.items():
        arcs = []
        for pin in cell.input_pins:
            arcs.append(TimingArc(pin, "rise", rise, sigma_frac * rise))
            arcs.append(TimingArc(pin, "fall", fall, sigma_frac * fall))
        cells[kind] = tuple(arcs)
    return VariationLibrary("uniform", cells, rho_default=rho)


def _inv_chain(k):
    gates = tuple(
        Gate(f"g{i}", "INV", {"A": "a" if i == 0 else f"n{i - 1}"}, f"n{i}")
        for i in range(k)
    )
    return Netlist("chain", ("a",), (f"n{k - 1}",), gates)


class TestRvSum:
    def test_closed_form(self):
        s = rv_sum(DelayRV(1.0, 0.01), DelayRV(2.0, 0.04))
        assert s == DelayRV(3.0, 0.05)

    def test_identity(self):
        x = DelayRV(4.2, 0.3)
        assert rv_sum(x, DelayRV(0.0, 0.0)) == x

    def test_fold_matches_componentwise(self):
        rng = np.random.default_rng(2)
        rvs = [DelayRV(float(m), float(v)) for m, v in rng.random((10, 2))]
        total = rvs[0]
        for rv in rvs[1:]:
            total = rv_sum(total, rv)
        mu = 0.0
        var = 0.0
        for rv in rvs:
            mu += rv.mu
            var += rv.var
        assert total == DelayRV(mu, var)

    def test_commutative(self):
        x, y = DelayRV(1.5, 0.2), DelayRV(2.5, 0.7)
        assert rv_sum(x, y) == rv_sum(y, x)


class TestRvGtProb:
    def test_symmetric_half(self):
        x = DelayRV(3.0, 0.25)
        assert rv_gt_prob(x, x) == 0.5

    def test_phi_two(self):
        p = rv_gt_prob(DelayRV(2.0, 0.09), DelayRV(1.0, 0.16))
        assert abs(p - ndtr(2.0)) < 1e-12

    def test_far_separated(self):
        p = rv_gt_prob(DelayRV(5.0, 0.01), DelayRV(1.0, 0.01))
        assert abs(p - 1.0) < 1e-12

    def test_degenerate_conventions(self):
        assert rv_gt_prob(DelayRV(2.0, 0.0), DelayRV(1.0, 0.0)) == 1.0
        assert rv_gt_prob(DelayRV(1.0, 0.0), DelayRV(2.0, 0.0)) == 0.0
        assert rv_gt_prob(DelayRV(1.0, 0.0), DelayRV(1.0, 0.0)) == 0.5

    def test_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = DelayRV(float(rng.normal(10, 3)), float(rng.random() + 0.01))
            y = DelayRV(float(rng.normal(10, 3)), float(rng.random() + 0.01))
            assert abs(rv_gt_prob(x, y) + rv_gt_prob(y, x) - 1.0) < 1e-12

    def test_monotone_in_mu(self):
        y = DelayRV(5.0, 1.0)
        probs = [rv_gt_prob(DelayRV(mu, 1.0), y) for mu in (4.0, 5.0, 6.0, 7.0)]
        assert probs == sorted(probs)
        assert probs[0] < probs[1] < probs[2]


class TestRunningWinners:
    """The vectorized pick of `running_winner`, on the cases where the
    sign of z alone would decide wrongly or not at all."""

    # 100 and the next double up: z = -1.6e-17 at these variances, so
    # rv_gt_prob rounds P to exactly 0.5 and the earlier pin keeps the lead
    MU = (100.0, math.nextafter(100.0, math.inf), 100.0 + 1e-7, 101.0)
    VAR = (0.0, 1e-6, 4e5)

    def _check(self, n_pins):
        choices = list(itertools.product(self.MU, self.VAR, (True, False)))
        cases = list(itertools.product(choices, repeat=n_pins))
        mu, var, live = (np.array([[p[i] for p in c] for c in cases]) for i in range(3))
        arrival = np.where(live, mu, -np.inf)  # -inf: no arrival
        got, win_mu, win_var = running_winners(arrival, var)
        want = [
            running_winner(
                (k, DelayRV(m, v)) for k, (m, v, on) in enumerate(c) if on
            )[0]
            for c in cases
        ]
        assert got.tolist() == [-1 if w is None else w for w in want]
        at = np.maximum(got, 0)[:, None]
        assert np.array_equal(win_mu, np.take_along_axis(arrival, at, 1)[:, 0])
        assert np.array_equal(win_var, np.take_along_axis(var, at, 1)[:, 0])
        return mu, var, live

    def test_two_pins(self):
        mu, var, live = self._check(2)
        v = var[:, 0] + var[:, 1]
        z = (mu[:, 0] - mu[:, 1]) / np.sqrt(np.where(v > 0, v, 1.0))
        both = live.all(axis=1) & (v > 0)
        assert np.any(both & (z == 0.0))  # equal means, var > 0
        assert np.any(both & (z != 0.0) & (np.abs(z) < 1e-9))  # inside the band
        assert np.any(live.all(axis=1) & (v == 0.0) & (mu[:, 0] == mu[:, 1]))
        band = DelayRV(self.MU[1], self.VAR[2]), DelayRV(self.MU[0], self.VAR[2])
        assert rv_gt_prob(*band) == 0.5  # z < 0, yet no takeover

    def test_three_pins(self):
        self._check(3)

    def test_minus_inf_is_no_arrival(self):
        """Rows whose pins all are -inf give pin -1 and a -inf mean, a
        finite pin after a -inf leader takes over, and no RuntimeWarning
        escapes (the test configuration makes one a failure)."""
        inf = math.inf
        mu = np.array([[-inf, -inf, -inf], [-inf, 5.0, -inf], [-inf, -inf, 3.0], [2.0, -inf, 2.0]])
        var = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        win, win_mu, win_var = running_winners(mu, var)
        assert win.tolist() == [-1, 1, 2, 0]
        assert win_mu.tolist() == [-inf, 5.0, 3.0, 2.0]
        assert win_var.tolist() == [0.0, 0.0, 0.0, 0.0]
        po = np.array([[0, 1, 2]] * 4)
        assert list(zip(*po_endpoints(mu, var, po))) == [
            (0.0, 0.0, 1.0), (5.0, 0.0, 1.0), (3.0, 0.0, 1.0), (2.0, 0.0, 0.5)
        ]


class TestStaArrivals:
    def test_single_inv(self):
        lib = _uniform_lib(10.0, 12.0)
        n = _inv_chain(1)
        res = sta_arrivals(n, nominal_library(lib))
        # output rise comes from input fall and vice versa
        assert res.arrivals["n0"] == (10.0, 12.0)
        assert res.cpd == 12.0

    def test_three_inv_chain_alternates(self):
        lib = _uniform_lib(10.0, 12.0)
        n = _inv_chain(3)
        res = sta_arrivals(n, nominal_library(lib))
        assert res.arrivals["n0"] == (10.0, 12.0)
        assert res.arrivals["n1"] == (12.0 + 10.0, 10.0 + 12.0)
        assert res.arrivals["n2"] == (22.0 + 10.0, 22.0 + 12.0)
        assert res.cpd == 34.0
        assert res.endpoint == (0, "n2", "fall")

    def test_matches_path_enumeration(self, default_lib):
        rng = np.random.default_rng(4)
        for trial in range(5):
            n = random_dag(rng, int(rng.integers(4, 13)), n_pis=4)
            s = sample_library(default_lib, trial)
            assert sta_arrivals(n, s).cpd == path_enum_cpd(n, s)

    def test_constant_only_po(self):
        n = Netlist(
            "c", ("a",), ("y",), (Gate("g", "AND2", {"A": "a", "B": "GND"}, "y"),)
        )
        lib = nominal_library(_uniform_lib(10.0, 12.0))
        res = sta_arrivals(n, lib)
        assert res.cpd == 12.0  # transition still launched from pin A


class TestExtractCriticalPath:
    def test_chain_full_path(self):
        lib = _uniform_lib(10.0, 12.0)
        n = _inv_chain(3)
        path = extract_critical_path(sta_arrivals(n, nominal_library(lib)))
        assert [(g, p) for g, p, _ in path] == [("g0", "A"), ("g1", "A"), ("g2", "A")]
        assert path[-1][2] == "fall"

    def test_diamond_slow_branch(self):
        # slow branch through XOR2 (slower arcs), fast through BUF
        gates = (
            Gate("s", "XOR2", {"A": "a", "B": "b"}, "slow"),
            Gate("f", "BUF", {"A": "a"}, "fast"),
            Gate("m", "AND2", {"A": "slow", "B": "fast"}, "y"),
        )
        n = Netlist("dia", ("a", "b"), ("y",), gates)
        lib = nominal_library(default_lib_slow_xor())
        path = extract_critical_path(sta_arrivals(n, lib))
        assert [g for g, _, _ in path] == ["s", "m"]

    def test_tie_is_deterministic(self):
        lib = _uniform_lib(10.0, 10.0)
        gates = (
            Gate("g1", "BUF", {"A": "a"}, "x1"),
            Gate("g2", "BUF", {"A": "b"}, "x2"),
            Gate("m", "AND2", {"A": "x1", "B": "x2"}, "y"),
        )
        n = Netlist("tie", ("a", "b"), ("y",), gates)
        res = sta_arrivals(n, nominal_library(lib))
        p1 = extract_critical_path(res)
        p2 = extract_critical_path(sta_arrivals(n, nominal_library(lib)))
        assert p1 == p2
        assert p1[0][0] == "g1"  # first pin in cell order wins ties


def default_lib_slow_xor():
    cells = {}
    for kind, cell in CELLS.items():
        mu = 30.0 if kind == "XOR2" else 10.0
        arcs = []
        for pin in cell.input_pins:
            arcs.append(TimingArc(pin, "rise", mu, 0.0))
            arcs.append(TimingArc(pin, "fall", mu, 0.0))
        cells[kind] = tuple(arcs)
    return VariationLibrary("slowxor", cells)


class TestAnnotateEdgeTransitions:
    def test_chain_single_transition(self):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.05)
        n = _inv_chain(3)
        tmap = annotate_edge_transitions(n, lib, 50, seed=0)
        # worst PO edge is fall (even inverter count from fall launch)
        assert tmap[("g2", "A")] == "fall"
        assert tmap[("g1", "A")] == "rise"
        assert tmap[("g0", "A")] == "fall"

    def test_k1_equals_that_library(self):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.05)
        n = _inv_chain(2)
        tmap = annotate_edge_transitions(n, lib, 1, seed=9)
        path = extract_critical_path(sta_arrivals(n, sample_library(lib, 9)))
        for gate, pin, edge in path:
            assert tmap[(gate, pin)] == edge

    def test_total_over_fanin_edges(self, rca8, default_lib):
        tmap = annotate_edge_transitions(rca8, default_lib, 20, seed=0)
        want = {
            (g.name, pin)
            for g in rca8.gates
            for pin in g.cell.input_pins
            if g.fanin[pin] not in ("GND", "VDD")
        }
        assert set(tmap) == want

    def test_rca8_modal_stability_reported(self, rca8, default_lib):
        a = annotate_edge_transitions(rca8, default_lib, 200, seed=0)
        b = annotate_edge_transitions(rca8, default_lib, 200, seed=200)
        agree = sum(a[k] == b[k] for k in a) / len(a)
        print(f"rca8 tmap stability across disjoint seed ranges: {agree:.3f}")
        assert 0.0 <= agree <= 1.0  # reported, not asserted


class TestSstaTraverse:
    def test_single_gate(self):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.08)
        n = Netlist("one", ("a",), ("y",), (Gate("g", "BUF", {"A": "a"}, "y"),))
        tmap = {("g", "A"): "fall"}
        res = ssta_traverse(n, lib, tmap)
        assert res.cpd == DelayRV(12.0, (0.08 * 12.0) ** 2)
        assert res.confidence == 1.0
        assert res.cpb["a"] == 1.0

    def test_two_parallel_paths_phi2(self):
        # arc RVs N(2, 0.09) and N(1, 0.16) to two POs
        cells = {}
        for kind, cell in CELLS.items():
            mu, sig = (2.0, 0.3) if kind == "BUF" else (1.0, 0.4)
            cells[kind] = tuple(
                TimingArc(pin, e, mu, sig)
                for pin in cell.input_pins
                for e in ("rise", "fall")
            )
        lib = VariationLibrary("p2", cells)
        gates = (
            Gate("g1", "BUF", {"A": "a"}, "y1"),
            Gate("g2", "INV", {"A": "a"}, "y2"),
        )
        n = Netlist("par", ("a",), ("y1", "y2"), gates)
        tmap = {("g1", "A"): "rise", ("g2", "A"): "rise"}
        res = ssta_traverse(n, lib, tmap)
        assert res.endpoint == "y1"
        assert abs(res.confidence - ndtr(2.0)) < 1e-9

    def test_chain_sums_exactly(self):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.08)
        k = 7
        n = _inv_chain(k)
        tmap = annotate_edge_transitions(n, lib, 20, seed=0)
        res = ssta_traverse(n, lib, tmap)
        mus = {"rise": 10.0, "fall": 12.0}
        mu = 0.0
        var = 0.0
        for i in range(k):
            m = mus[tmap[(f"g{i}", "A")]]
            mu += m
            var += (0.08 * m) ** 2
        assert res.cpd.mu == mu
        assert abs(res.cpd.var - var) < 1e-12

    def test_scale_invariance(self, default_lib):
        rng = np.random.default_rng(8)
        n = random_dag(rng, 25, n_pis=5)
        scaled_cells = {
            kind: tuple(
                TimingArc(a.pin, a.edge, 2.0 * a.mu_ps, 2.0 * a.sigma_ps)
                for a in arcs
            )
            for kind, arcs in default_lib.cells.items()
        }
        scaled = VariationLibrary("x2", scaled_cells, default_lib.rho_default)
        tmap = annotate_edge_transitions(n, default_lib, 30, seed=1)
        r1 = ssta_traverse(n, default_lib, tmap)
        r2 = ssta_traverse(n, scaled, tmap)
        assert r1.endpoint == r2.endpoint
        assert r1.critical_fanin == r2.critical_fanin
        assert r1.confidence == r2.confidence
        assert r1.cpb == r2.cpb


class TestCpbBackprop:
    def test_worked_example_quarter(self):
        # two children with CPB 0.1 and 0.15 -> parent 0.25
        gates = (
            Gate("gp", "BUF", {"A": "a"}, "p"),
            Gate("g1", "BUF", {"A": "p"}, "y1"),
            Gate("g2", "INV", {"A": "p"}, "y2"),
            Gate("g3", "BUF", {"A": "b"}, "y3"),
        )
        n = Netlist("w", ("a", "b"), ("y1", "y2", "y3"), gates)
        probs = {"y1": 0.1, "y2": 0.15, "y3": 0.75}
        fanin = {"gp": "A", "g1": "A", "g2": "A", "g3": "A"}
        cpb = cpb_backprop(n, probs, fanin)
        assert cpb["p"] == 0.25
        assert cpb["y1"] == 0.1
        assert cpb["a"] == 0.25
        assert cpb["b"] == 0.75

    def test_chain_all_one(self):
        lib = _uniform_lib(10.0, 12.0, sigma_frac=0.05)
        n = _inv_chain(4)
        tmap = annotate_edge_transitions(n, lib, 10, seed=0)
        res = ssta_traverse(n, lib, tmap)
        for net in ("a", "n0", "n1", "n2", "n3"):
            assert res.cpb[net] == 1.0

    def test_conservation_random_dag(self, default_lib):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = random_dag(rng, 30, n_pis=5)
            tmap = annotate_edge_transitions(n, default_lib, 20, seed=0)
            res = ssta_traverse(n, default_lib, tmap)
            frontier = math.fsum(res.cpb[pi] for pi in n.inputs)
            assert abs(frontier - 1.0) <= 1e-9
            assert all(0.0 <= v <= 1.0 + 1e-12 for v in res.cpb.values())


class TestMcStaCpd:
    def test_deterministic_and_positive(self, rca4, default_lib):
        a = mc_sta_cpd(rca4, default_lib, 50, seed=7)
        b = mc_sta_cpd(rca4, default_lib, 50, seed=7)
        assert np.array_equal(a, b)
        assert a.shape == (50,)
        assert np.all(a > 0)

    def test_matches_per_library_sta(self, rca4, default_lib):
        cpds = mc_sta_cpd(rca4, default_lib, 5, seed=3)
        for i in range(5):
            s = sample_library(default_lib, 3 + i)
            assert cpds[i] == sta_arrivals(rca4, s).cpd

    @pytest.mark.parametrize("outputs,want", [
        (("GND", "VDD"), 0.0),  # a PO on GND or VDD counts as no PO
        (("GND", "k"), 0.0),  # an unfolded all-constant gate never arrives
        (("k", "VDD", "k"), 0.0),
        (("a", "VDD"), 0.0),  # a PI arrives at 0
        (("k", "a"), 0.0),
    ])
    def test_constant_and_pi_pos(self, default_lib, outputs, want):
        gates = (Gate("u_k", "AND2", {"A": "GND", "B": "VDD"}, "k"),
                 Gate("u_x", "XOR2", {"A": "a", "B": "b"}, "x"))
        n = Netlist("corner", ("a", "b"), outputs, gates)
        assert mc_sta_cpd(n, default_lib, 4, seed=1).tolist() == [want] * 4


class TestCalibrationRecipe:
    def test_spine_dominates(self):
        # one tree, verified tightly; the 20-tree sweep runs in acceptance
        rng = np.random.default_rng(123)
        from _oracles import calibration_tree

        n, spine = calibration_tree(rng)
        lib = calibration_library()
        assert 20 <= len(n.gates) <= 60
        tmap = annotate_edge_transitions(n, lib, 100, seed=0)
        res = ssta_traverse(n, lib, tmap)
        want_mu = sum(lib.arc(kind, pin, "rise").mu_ps for kind, pin in spine)
        assert abs(res.cpd.mu - want_mu) < 1e-9
        cpds = mc_sta_cpd(n, lib, 3000, seed=50, rho=0.0)
        assert abs(res.cpd.mu - cpds.mean()) / cpds.mean() < 0.02
        assert abs(res.cpd.sigma - cpds.std()) / cpds.std() < 0.05
