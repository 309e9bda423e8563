"""Closed-form moments, deterministic SSE and floor bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lis_uplink import (
    BlockKernel,
    LayoutConfig,
    SystemConfig,
    build_moment_set,
    build_unit_geometry,
    cgauss,
    draw_unit_block,
    make_unit_stats,
    panel_view,
    place_devices,
    quarter_solid_angle,
    sample_unit_channels,
    theorem1_sse,
    transmit_snrs,
)
import reference
from conftest import assert_close


def _stats(world, n, k, seed, coins=None, interference="rician"):
    dep, cfg = world
    draw = draw_unit_block(np.random.default_rng(seed), cfg.N, cfg.K, cfg.P, cfg.M)
    if coins is not None:
        draw = dataclasses.replace(draw, coins=np.full((cfg.N, cfg.K), float(coins)))
    geom = build_unit_geometry(panel_view(dep, cfg, n), k)
    return draw, make_unit_stats(geom, draw, cfg, interference)


@pytest.fixture(scope="module")
def solo_world():
    cfg = SystemConfig(M=16, K=1, N=1, T=500, P=4, t=4)
    dep = place_devices(cfg, LayoutConfig(name="line"), np.random.default_rng(1))
    return dep, cfg


class TestSinglePanelReductions:
    def test_error_alignment_is_pure_noise(self, solo_world):
        _, stats = _stats(solo_world, 0, 0, seed=2)
        t = 4
        ms = build_moment_set(stats)
        beta2 = stats.geom.own_power
        assert ms.mu_x == 0.0
        assert ms.var_x_const == 0.0
        assert_close(ms.var_x_noise / t, beta2 / (t * stats.geom.rho_p[0, 0]), rtol=1e-12)

    def test_filter_norm_noise_inflation(self, solo_world):
        _, stats = _stats(solo_world, 0, 0, seed=3)
        t = 8
        ms = build_moment_set(stats)
        rho = stats.geom.rho_p[0, 0]
        # no contaminator: the estimate's mean is the LOS vector, and only
        # the noise term varies
        assert_close(ms.z_mean_sq, stats.geom.own_power, rtol=1e-12)
        assert ms.var_z_const == 0.0
        assert_close(ms.var_z_noise / t, 16.0 / (t * rho), rtol=1e-12)
        assert_close(ms.mu_Z(t), stats.geom.own_power + 16.0 / (t * rho), rtol=1e-12)

    def test_composite_interference_closed_form_and_limit(self, solo_world):
        _, stats = _stats(solo_world, 0, 0, seed=4)
        t = 4
        ms = build_moment_set(stats)
        rho_p, rho_d = stats.geom.rho_p[0, 0], stats.geom.rho_d[0, 0]
        beta2 = stats.geom.own_power
        expected = rho_d * beta2 / (t * rho_p) + beta2 + 16.0 / (t * rho_p)
        assert_close(ms.mu_I_bar(t), expected, rtol=1e-12)
        assert_close(ms.mu_I_bar(1e15), beta2, rtol=1e-9)
        assert ms.mu_I_hat == 0.0  # no contamination, no floor

    def test_intra_only_leakage_has_zero_mean_when_gates_fail(self):
        cfg = SystemConfig(M=16, K=3, N=1, T=500, P=4, t=3)
        dep = place_devices(cfg, LayoutConfig(name="line"), np.random.default_rng(5))
        _, stats = _stats((dep, cfg), 0, 0, seed=6, coins=1.0)  # every gate fails
        ms = build_moment_set(stats)
        assert np.all(ms.mu_y == 0.0)
        var_y = ms.var_y_const + ms.var_y_noise / 3
        assert var_y[0, 0] == 0.0  # serving slot zeroed
        assert np.all(var_y[0, 1:] > 0.0)


class TestPilotLengthStructure:
    def test_moments_are_affine_in_inverse_t(self, tiny_world):
        _, stats = _stats(tiny_world, 0, 0, seed=0)
        ms = build_moment_set(stats)
        for f in (ms.mu_X, ms.mu_Z, ms.mu_I_bar):
            v1, v2, v4 = f(6), f(12), f(24)
            assert abs((v1 - v2) - 2.0 * (v2 - v4)) <= 1e-10 * max(v1, 1.0)

    def test_composite_mean_strictly_decreasing_in_t(self, tiny_world):
        _, stats = _stats(tiny_world, 0, 0, seed=0)
        ms = build_moment_set(stats)
        K = tiny_world[1].K
        vals = [ms.mu_I_bar(t) for t in (K, 2 * K, 4 * K)]
        assert vals[0] > vals[1] > vals[2]

    def test_floor_is_a_lower_bound_at_any_t(self, tiny_world):
        for seed in range(6):
            _, stats = _stats(tiny_world, 0, 0, seed=seed)
            ms = build_moment_set(stats)
            for t in (2, 20, 200, 2000):
                assert ms.mu_I_hat <= ms.mu_I_bar(t)

    def test_invalid_t_rejected(self, tiny_world):
        _, stats = _stats(tiny_world, 0, 0, seed=0)
        ms = build_moment_set(stats)
        for f in (ms.mu_X, ms.mu_Y_bar, ms.mu_Z, ms.mu_I_bar):
            with pytest.raises(ValueError, match="positive"):
                f(0)


class TestMomentsAgainstSampling:
    def test_conditioned_means_match_kernel_draws(self, tiny_world):
        _, cfg = tiny_world
        n, k = 0, 0
        draw, stats = _stats(tiny_world, n, k, seed=0)  # all gates on
        t = cfg.pilot_len
        ms = build_moment_set(stats)

        n_draws = 5000
        rng = np.random.default_rng(77)
        X = np.empty(n_draws)
        Y = np.empty((n_draws, cfg.N, cfg.K))
        Z = np.empty(n_draws)
        I = np.empty(n_draws)
        for r in range(n_draws):
            g = cgauss(rng, (cfg.N, cfg.K, cfg.P))
            w = cgauss(rng, (cfg.M,))
            terms = BlockKernel(stats, sample_unit_channels(stats, g), w).terms(t)
            X[r], Z[r], I[r] = terms.X, terms.Z, terms.I
            Y[r] = terms.Y

        def z_score(sample, closed):
            se = sample.std(ddof=1) / math.sqrt(n_draws)
            return abs(sample.mean() - closed) / se

        assert z_score(X, ms.mu_X(t)) < 5.0
        assert z_score(Z, ms.mu_Z(t)) < 5.0
        mu_Y = ms.mu_Y_bar(t)
        # exact entries: same-panel partner and the cross-pilot inter link
        assert z_score(Y[:, 0, 1], mu_Y[0, 1]) < 5.0
        assert z_score(Y[:, 1, 1], mu_Y[1, 1]) < 5.0
        # same-pilot contaminator carries the independence approximation;
        # its residual bias is O(1/M), small but not zero at M=16
        rel = abs(Y[:, 1, 0].mean() - mu_Y[1, 0]) / mu_Y[1, 0]
        assert rel < 0.02
        se_I = I.std(ddof=1) / math.sqrt(n_draws)
        assert abs(I.mean() - ms.mu_I_bar(t)) < max(5.0 * se_I, 0.02 * ms.mu_I_bar(t))


class TestMomentPartsAgainstReference:
    """The GEMM contractions of ``build_moment_set`` against the
    per-contaminator ``einsum`` transcription in ``tests/reference.py``."""

    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 3),
        P=st.integers(1, 4),
        side=st.integers(2, 5),
        interference=st.sampled_from(["rician", "nlos_inter"]),
        last_unit=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_every_field_matches_einsum_oracle(
        self, N, K, P, side, interference, last_unit, seed, data
    ):
        # N = 1 has no contaminator: the stacked root matrix has zero columns
        cfg = SystemConfig(M=side * side, K=K, N=N, P=P, seed=seed)
        dep = place_devices(cfg, LayoutConfig(d_x=0.5), np.random.default_rng(seed))
        n = data.draw(st.integers(0, N - 1), label="n")
        k = K - 1 if last_unit else 0
        draw = draw_unit_block(np.random.default_rng(seed + 1), N, K, P, cfg.M)
        geom = build_unit_geometry(panel_view(dep, cfg, n), k)
        stats = make_unit_stats(geom, draw, cfg, interference)

        actual = build_moment_set(stats)
        expected = reference.moment_fields(stats, transmit_snrs(dep, cfg)[0])
        # every stored moment coefficient is checked; the rest is the link budget
        assert {f.name for f in dataclasses.fields(actual)} - set(expected) == {
            "rho_d", "rho_d_own", "p_bar"}
        for name, value in expected.items():
            got = np.asarray(getattr(actual, name))
            want = np.asarray(value)
            assert got.shape == want.shape and got.dtype == want.dtype, name
            if want.dtype.kind in "iu":
                assert np.array_equal(got, want), name
                continue
            zero = want == 0
            np.testing.assert_allclose(
                got[~zero], want[~zero], rtol=1e-12, atol=0.0, err_msg=name
            )
            scale = np.max(np.abs(want), initial=0.0)
            assert np.all(np.abs(got[zero]) <= 1e-13 * scale), name


    @given(
        N=st.sampled_from([1, 2, 4]),
        interference=st.sampled_from(["rician", "nlos_inter"]),
        seed=st.integers(0, 2**16),
        t=st.floats(1.0, 500.0),
    )
    def test_composite_mean_matches_const_plus_noise_assembly(self, N, interference, seed, t):
        cfg = SystemConfig(M=16, K=2, N=N, P=3, seed=seed)
        dep = place_devices(cfg, LayoutConfig(d_x=0.5), np.random.default_rng(seed))
        _, stats = _stats((dep, cfg), N - 1, 1, seed=seed + 1, interference=interference)
        ms = build_moment_set(stats)
        assert math.isclose(ms.mu_I_bar(t), reference.mu_I_bar(ms, t), rel_tol=1e-13)

    def test_no_field_has_an_antenna_axis(self):
        # a set's size depends on the links alone: every moment is summed
        # over the antennas, so no field grows with M
        cfg = SystemConfig(M=100, K=3, N=4, P=4)
        dep = place_devices(cfg, LayoutConfig(), np.random.default_rng(9))
        _, stats = _stats((dep, cfg), 1, 2, seed=10)
        ms = build_moment_set(stats)
        arrays = {f.name: getattr(ms, f.name) for f in dataclasses.fields(ms)
                  if isinstance(getattr(ms, f.name), np.ndarray)}
        assert set(arrays) == {"mu_y", "var_y_const", "var_y_noise", "rho_d"}
        assert all(value.shape == (4, 3) for value in arrays.values())


class TestSolidAngle:
    def test_closed_form_value(self):
        val = quarter_solid_angle(0.25, 1.0)
        assert_close(val, math.atan(0.0625 / math.sqrt(2 * 0.0625 + 1.0)))

    def test_far_field_decay(self):
        # far away, the quadrant subtends ~ L^2/z^2 steradians
        assert_close(quarter_solid_angle(0.25, 100.0), 0.0625 / 10000.0, rtol=1e-4)

    def test_near_field_saturates_to_quarter_plane(self):
        assert_close(quarter_solid_angle(1.0, 1e-9), math.pi / 2.0, rtol=1e-6)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            quarter_solid_angle(0.25, 0.0)


def _rows(sets, t):
    """Each moment set's ``sse_terms(t)``: the rows ``theorem1_sse`` takes."""
    return [ms.sse_terms(t) for ms in sets]


class TestTheorems:
    def _panel_moments(self, world, seed, coins=None):
        dep, cfg = world
        out = []
        for k in range(cfg.K):
            draw = draw_unit_block(
                np.random.default_rng(seed + k), cfg.N, cfg.K, cfg.P, cfg.M
            )
            if coins is not None:
                draw = dataclasses.replace(draw, coins=np.full((cfg.N, cfg.K), coins))
            stats = make_unit_stats(build_unit_geometry(panel_view(dep, cfg, 0), k), draw, cfg)
            out.append(build_moment_set(stats))
        return out

    def test_deterministic_sse_assembly(self, tiny_world):
        dep, cfg = tiny_world
        t, T = 4, cfg.T
        sets = self._panel_moments(tiny_world, seed=0, coins=0.0)
        res = theorem1_sse(_rows(sets, t), t, T)
        M = cfg.M
        gamma_bar = []
        for i, ms in enumerate(sets):
            p = quarter_solid_angle(cfg.L, dep.devices_local[0, i, 2])
            p_bar = M * M * p * p / (16.0 * math.pi**2 * cfg.L**4)
            assert_close(ms.p_bar, p_bar, rtol=1e-12)
            gamma_bar.append(ms.rho_d_own * p_bar / ms.mu_I_bar(t))
        expect_sse = (1.0 - t / T) * np.sum(np.log2(1.0 + np.array(gamma_bar)))
        assert_close(res.sse_bar, expect_sse, rtol=1e-12)

    def test_bound_dominates_deterministic_sse(self, tiny_world):
        sets = self._panel_moments(tiny_world, seed=0, coins=0.0)
        res = theorem1_sse(_rows(sets, 4), 4, 500)
        assert res.sse_hat >= res.sse_bar
        assert np.all(np.array([ms.mu_I_hat for ms in sets]) > 0.0)

    def test_interference_free_floor_is_infinite(self, solo_world):
        _, stats = _stats(solo_world, 0, 0, seed=2)
        ms = build_moment_set(stats)
        res = theorem1_sse(_rows([ms], 4), 4, 500)
        assert ms.mu_I_hat == 0.0  # a zero floor: the floor-bound SINR is inf
        assert math.isinf(res.sse_hat)
        assert math.isfinite(res.sse_bar)

    def test_full_training_gives_zero_sse(self, tiny_world):
        sets = self._panel_moments(tiny_world, seed=0, coins=0.0)
        res = theorem1_sse(_rows(sets, 500), 500, 500)
        assert res.sse_bar == 0.0 and res.sse_hat == 0.0

    def test_bad_inputs_rejected(self, tiny_world):
        sets = self._panel_moments(tiny_world, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            theorem1_sse(_rows(sets, 501), 501, 500)
        with pytest.raises(ValueError, match="at least one"):
            theorem1_sse([], 4, 500)
