import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcirc.celllib import (
    LibraryError,
    SampledLibrary,
    TimingArc,
    VariationLibrary,
    default_library,
    load_variation_library,
    nominal_library,
    sample_library,
    sample_matrix,
    save_variation_library,
)


class TestTimingArc:
    def test_valid(self):
        arc = TimingArc("A", "rise", 10.0, 0.8)
        assert arc.mu_ps == 10.0

    @pytest.mark.parametrize(
        "mu,sigma", [(0.0, 0.1), (-1.0, 0.1), (10.0, -0.1), (10.0, 6.0)]
    )
    def test_invalid(self, mu, sigma):
        with pytest.raises(LibraryError):
            TimingArc("A", "rise", mu, sigma)

    def test_bad_edge(self):
        with pytest.raises(LibraryError):
            TimingArc("A", "up", 10.0, 0.1)


class TestVariationLibrary:
    def test_default_complete(self, default_lib):
        assert len(default_lib.cells) == 9
        assert len(default_lib.cells["INV"]) == 2
        assert len(default_lib.cells["MUX2"]) == 6

    def test_missing_arc_named(self, default_lib):
        cells = dict(default_lib.cells)
        cells["XOR2"] = tuple(
            a for a in cells["XOR2"] if not (a.pin == "B" and a.edge == "fall")
        )
        with pytest.raises(LibraryError, match="XOR2.*B.*fall"):
            VariationLibrary("broken", cells)

    def test_save_load_round_trip(self, default_lib, tmp_path):
        p1 = tmp_path / "lib.json"
        p2 = tmp_path / "lib2.json"
        save_variation_library(p1, default_lib)
        lib2 = load_variation_library(p1)
        save_variation_library(p2, lib2)
        assert p1.read_bytes() == p2.read_bytes()
        assert lib2.arc_order() == default_lib.arc_order()

    def test_load_rejects_nonpositive_mu(self, default_lib, tmp_path):
        p = tmp_path / "lib.json"
        save_variation_library(p, default_lib)
        data = json.loads(p.read_text())
        data["cells"]["INV"][0]["mu_ps"] = 0.0
        p.write_text(json.dumps(data))
        with pytest.raises(LibraryError):
            load_variation_library(p)


def _flat_lib(sigma_over_mu):
    """One-cell-per-kind library with uniform mu=10, given sigma/mu."""
    base = default_library()
    cells = {
        kind: tuple(
            TimingArc(a.pin, a.edge, 10.0, 10.0 * sigma_over_mu) for a in arcs
        )
        for kind, arcs in base.cells.items()
    }
    return VariationLibrary("flat", cells, rho_default=0.5)


class TestSampleLibrary:
    def test_sigma_zero_is_nominal(self):
        lib = _flat_lib(0.0)
        for seed in (0, 1, 99):
            s = sample_library(lib, seed)
            assert np.array_equal(s.values(), lib.mu_vector())

    def test_rho_one_shares_z_score(self, default_lib):
        s = sample_library(default_lib, 3, rho=1.0)
        z = (s.values() - default_lib.mu_vector()) / default_lib.sigma_vector()
        assert np.allclose(z, z[0], atol=1e-12)

    def test_deterministic(self, default_lib):
        a = sample_library(default_lib, 42)
        b = sample_library(default_lib, 42)
        assert np.array_equal(a.values(), b.values())
        assert not np.array_equal(a.values(), sample_library(default_lib, 43).values())

    def test_empirical_moments(self):
        # sigma/mu = 0.1, N = 10^4, 2% tolerance per the sampling model
        lib = _flat_lib(0.1)
        delays = sample_matrix(lib, range(10_000))
        col = delays[:, 0]
        assert abs(col.mean() - 10.0) / 10.0 < 0.02
        assert abs(col.std() - 1.0) / 1.0 < 0.02

    def test_clamp_floor_rare(self):
        lib = _flat_lib(0.2)
        delays = sample_matrix(lib, range(10_000))
        col = delays[:, 0]
        assert np.all(col >= 0.05 * 10.0)
        assert int((col == 0.05 * 10.0).sum()) == 0  # < 1e-4 empirically

    def test_relative_std_estimate_converges(self, default_lib):
        # running sigma/mu estimate over k=1..1000 libraries stabilizes
        delays = sample_matrix(default_lib, range(1000), rho=0.0)
        col = delays[:, 5]
        mu = default_lib.mu_vector()[5]
        est = col.std() / col.mean()
        assert abs(est - 0.08) < 0.1 * 0.08
        assert abs(mu - col.mean()) / mu < 0.02

    def test_delay_lookup(self, default_lib):
        s = sample_library(default_lib, 0)
        kind, pin, edge = default_lib.arc_order()[0]
        assert s.delay(kind, pin, edge) == s.values()[0]


def _reference_matrix(lib, seeds, rho):
    """The sampling model drawn seed by seed: numpy's default generator
    seeded with s gives g, then z."""
    g = np.empty(len(seeds))
    z = np.empty((len(seeds), len(lib.arc_order())))
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        g[i] = rng.standard_normal()
        rng.standard_normal(out=z[i])
    mu, sigma = lib.mu_vector(), lib.sigma_vector()
    raw = mu + sigma * (math.sqrt(rho) * g[:, None] + math.sqrt(1.0 - rho) * z)
    return np.maximum(0.05 * mu, raw)


_EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
_RHOS = (0.0, 0.5, 1.0)


class TestSampleMatrixOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.one_of(
            st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**33), st.integers(0, 2**64 - 1)
        ), max_size=12),
        rho=st.sampled_from(_RHOS),
    )
    def test_equals_default_generator(self, default_lib, seeds, rho):
        assert np.array_equal(
            sample_matrix(default_lib, seeds, rho), _reference_matrix(default_lib, seeds, rho)
        )

    @pytest.mark.parametrize("rho", _RHOS)
    def test_edge_seeds(self, default_lib, rho):
        seeds = [*_EDGE_SEEDS, 7, 2**63]
        assert np.array_equal(
            sample_matrix(default_lib, seeds, rho), _reference_matrix(default_lib, seeds, rho)
        )

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_out_of_range_seed_named(self, default_lib, bad):
        with pytest.raises(LibraryError, match=rf"^seed {bad} outside"):
            sample_matrix(default_lib, [0, bad, 1])


class TestNominalLibrary:
    def test_equals_mu(self, default_lib):
        nom = nominal_library(default_lib)
        assert np.array_equal(nom.values(), default_lib.mu_vector())
        for kind, pin, edge in default_lib.arc_order()[:3]:
            assert nom.delay(kind, pin, edge) == default_lib.arc(kind, pin, edge).mu_ps

    def test_seed_zero_and_stable(self, default_lib):
        nom = nominal_library(default_lib)
        assert nom.seed == 0
        assert np.array_equal(nom.values(), nominal_library(default_lib).values())

    def test_equals_sigma_zero_sample(self):
        lib = _flat_lib(0.0)
        assert np.array_equal(
            nominal_library(lib).values(), sample_library(lib, 7).values()
        )


class TestSampleMatrixMemory:
    def test_peak_near_the_draw(self, default_lib):
        """The transform runs in place: 5000 libraries peak at most 1.6 times
        their (count, arcs + 1) draw."""
        arcs = len(default_lib.arc_order())
        sample_matrix(default_lib, range(10))
        tracemalloc.start()
        try:
            delays = sample_matrix(default_lib, range(5000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 5000 * (arcs + 1) * 8
        assert delays.shape == (5000, arcs)
