"""LOS geometry, steering columns, correlation roots, Rician sampling."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lis_uplink import (
    ConfigError,
    Deployment,
    LayoutConfig,
    SystemConfig,
    build_layout,
    build_unit_geometry,
    cgauss,
    draw_unit_block,
    make_unit_stats,
    panel_view,
    place_devices,
    quarter_solid_angle,
    rician_mixing,
    sample_unit_channels,
)
from lis_uplink.channel import _phase_ramp, root_matrix_from_angles
from lis_uplink.config import SPEED_OF_LIGHT
from lis_uplink.links import slice_stats

import reference
from conftest import assert_close


def _point_deployment(device_local, N_panels=1, layout=None):
    """Deployment with one device per panel at a pinned local position."""
    layout = layout or LayoutConfig(name="line")
    frames = build_layout(layout, N_panels)
    dev = np.tile(np.asarray(device_local, float), (N_panels, 1, 1))
    return Deployment(
        frames=tuple(frames),
        devices_local=dev,
        devices=np.stack([frames[n].to_global(dev[n]) for n in range(N_panels)]),
    )


def _lone_link_stats(device_local, cfg, coin, seed):
    """Statistics of a two-device single panel: device 1 at `device_local`
    seen from device 0's unit (pinned at the panel center, 1 m up), with
    its LOS gate forced open (coin 0) or shut (coin 1)."""
    dep = _point_deployment([[0.0, 0.0, 1.0], device_local])
    geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
    draw = draw_unit_block(np.random.default_rng(seed), 1, 2, cfg.P, cfg.M)
    draw = dataclasses.replace(draw, coins=np.full((1, 2), float(coin)))
    return geom, draw, make_unit_stats(geom, draw, cfg)


class TestLosChannel:
    def test_single_antenna_closed_form(self):
        cfg = SystemConfig(M=1, K=1, N=1)
        dep = _point_deployment([[0.0, 0.0, 1.7]])
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        d = 1.7
        assert_close(geom.distances[0, 0, 0], d)
        assert_close(
            geom.hlos[0, 0, 0],
            np.exp(-2j * math.pi * d / cfg.lam) / math.sqrt(4.0 * math.pi * d * d),
        )
        assert_close(geom.own_power, 1.0 / (4.0 * math.pi * d * d))

    def test_vector_and_power_consistency(self, tiny_world):
        dep, cfg = tiny_world
        geom = build_unit_geometry(panel_view(dep, cfg, 0), 0)
        amplitudes = np.abs(geom.hlos)
        assert np.all(amplitudes > 0)
        assert_close(
            geom.hlos / amplitudes, np.exp(-2j * math.pi * geom.distances / cfg.lam),
            rtol=0, atol=1e-12,
        )
        # each link's power sum_m |hlos|^2 against the per-link LOS channel
        antennas = reference.unit_antenna_grid(dep, cfg, 0, 0)
        for l, j in np.ndindex(*geom.p_los.shape):
            power = reference.los_link(dep.devices[l, j], antennas, dep.frames[0], cfg.lam)[2]
            assert_close(np.sum(np.abs(geom.hlos[l, j]) ** 2), power, rtol=1e-12)
            if (l, j) == (0, 0):
                assert_close(geom.own_power, power, rtol=1e-12)

    def test_power_grows_with_antenna_count(self):
        dep = _point_deployment([[0.1, -0.3, 1.0]])
        powers = [
            build_unit_geometry(panel_view(dep, SystemConfig(M=M, K=1, N=1), 0), 0).own_power
            for M in (16, 64, 256)
        ]
        assert powers[0] < powers[1] < powers[2]

    def test_doubling_height_decreases_every_gain(self):
        cfg = SystemConfig(M=16, K=1, N=1)
        low = _point_deployment([[0.3, -0.2, 0.8]])
        high = _point_deployment([[0.3, -0.2, 1.6]])
        b_low = np.abs(build_unit_geometry(panel_view(low, cfg, 0), 0).hlos[0, 0])
        b_high = np.abs(build_unit_geometry(panel_view(high, cfg, 0), 0).hlos[0, 0])
        assert np.all(b_high < b_low)

    def test_total_gain_approaches_solid_angle_limit(self):
        # (sum_m beta_m^2)^2 against the deterministic serving power
        # M^2 p^2 / (16 pi^2 L^4) with p the quadrant solid angle.
        cfg = SystemConfig(M=2500, K=1, N=1, L=0.25)
        dep = _point_deployment([[0.0, 0.0, 1.0]])
        power = build_unit_geometry(panel_view(dep, cfg, 0), 0).own_power
        p = quarter_solid_angle(cfg.L, 1.0)
        limit = cfg.M**2 * p**2 / (16.0 * math.pi**2 * cfg.L**4)
        assert abs(power**2 - limit) / limit < 0.02

    def test_device_behind_plane_rejected(self):
        cfg = SystemConfig(M=4, K=1, N=1)
        dep = _point_deployment([[0.0, 0.0, -1.0]])
        with pytest.raises(ValueError, match="front side"):
            build_unit_geometry(panel_view(dep, cfg, 0), 0)

    def test_facing_panel_geometry(self):
        cfg = SystemConfig(M=16, K=1, N=4)
        dep = place_devices(cfg, LayoutConfig(), np.random.default_rng(0), K=1)
        geom = build_unit_geometry(panel_view(dep, cfg, 3), 0)
        assert_close(dep.frames[3].rotation[:, 2], [0.0, 0.0, -1.0])
        assert np.allclose(reference.unit_antenna_grid(dep, cfg, 3, 0)[:, 2], 6.0)
        assert np.all(np.abs(geom.hlos[3, 0]) > 0)


def _unit_distance_roots(angles, cfg):
    """Correlation roots of the given path angles at unit distance, so the
    per-antenna path loss is 1 and column p is alpha_p * steer_p."""
    angles = np.asarray(angles, dtype=float)
    return root_matrix_from_angles(angles, np.ones((*angles.shape[:-2], cfg.M)), cfg).dense()


def _steering_columns(phi_v, phi_h, cfg):
    """Planar steering vectors with per-axis phases (phi_v, phi_h), read off
    the root columns of paths with those phases; |phi_h| must stay below 1/2
    (phi_h = sin theta_h cos theta_h) and |phi_v| below 1."""
    theta_v = np.arcsin(np.asarray(phi_v, dtype=float))
    theta_h = 0.5 * np.arcsin(2.0 * np.asarray(phi_h, dtype=float))
    angles = np.stack([theta_v, theta_h], axis=-1)[..., np.newaxis, :]
    alpha = np.sqrt(np.cos(theta_v) * np.cos(theta_h))
    return _unit_distance_roots(angles, cfg)[..., 0] / alpha[..., np.newaxis]


class TestSteeringVector:
    """Steering vectors as the unit-distance columns of a dense
    ``root_matrix_from_angles`` root, divided by their path gains."""

    def test_broadside_is_flat(self):
        cfg = SystemConfig(M=16, delta_L=0.05)
        v = _steering_columns(0.0, 0.0, cfg)
        assert_close(v, np.full(16, 0.25 + 0j), rtol=0, atol=1e-15)

    def test_norm_is_one_for_random_angles(self):
        cfg = SystemConfig(M=36, delta_L=0.083)
        rng = np.random.default_rng(123)
        v = _steering_columns(rng.uniform(-1.0, 1.0, 1000), rng.uniform(-0.5, 0.5, 1000), cfg)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12

    def test_two_by_two_kronecker_expansion(self):
        cfg = SystemConfig(M=4, delta_L=SPEED_OF_LIGHT / 3.0e9)  # delta_L = lambda
        v = _steering_columns(0.5, 0.0, cfg)  # vertical step pi
        expected = 0.5 * np.array([1.0, 1.0, np.exp(1j * math.pi), np.exp(1j * math.pi)])
        assert_close(v, expected, rtol=0, atol=1e-12)

    def test_matches_explicit_lattice_loop(self):
        cfg = SystemConfig(M=9, delta_L=0.07)
        phi_v, phi_h = 0.43, -0.38
        v = _steering_columns(phi_v, phi_h, cfg)
        side = 3
        step = 2.0 * math.pi * cfg.spacing / cfg.lam
        for m in range(cfg.M):
            iv, ih = divmod(m, side)
            assert_close(
                v[m],
                np.exp(1j * step * (iv * phi_v + ih * phi_h)) / math.sqrt(cfg.M),
                rtol=0,
                atol=1e-12,
            )

    def test_non_square_m_rejected(self):
        with pytest.raises(ConfigError, match="square"):
            SystemConfig(M=12)

    @given(
        theta_v=st.floats(-math.pi / 2.0, math.pi / 2.0),
        theta_h=st.floats(-math.pi / 2.0, math.pi / 2.0),
    )
    def test_norm_property(self, theta_v, theta_h):
        # every root column has norm alpha_p: the steering vector is unit-norm
        cfg = SystemConfig(M=25, delta_L=0.05)
        col = _unit_distance_roots([[theta_v, theta_h]], cfg)[:, 0]
        alpha = math.sqrt(abs(math.cos(theta_v) * math.cos(theta_h)))
        assert abs(np.linalg.norm(col) - alpha) < 1e-12


class TestCorrelationRoot:
    def test_broadside_paths_degenerate_to_pathloss(self):
        cfg = SystemConfig(M=16, K=1, N=1, P=3)
        dep = _point_deployment([[0.2, 0.1, 1.3]])
        d = build_unit_geometry(panel_view(dep, cfg, 0), 0).distances[0, 0]
        matrix = root_matrix_from_angles(np.zeros((3, 2)), d, cfg).dense()
        expected_col = d ** (-cfg.beta_PL / 2.0) / math.sqrt(cfg.M)
        for p in range(3):
            assert_close(matrix[:, p], expected_col.astype(complex), rtol=1e-12)

    def test_endfire_path_is_dead_column(self):
        cfg = SystemConfig(M=16, K=1, N=1, P=2)
        d = np.full(16, 2.0)
        angles = np.array([[math.pi / 2.0, 0.0], [0.3, -0.4]])
        matrix = root_matrix_from_angles(angles, d, cfg).dense()
        assert np.max(np.abs(matrix[:, 0])) < 1e-6
        assert np.max(np.abs(matrix[:, 1])) > 1e-3

    @pytest.mark.parametrize(
        "batch, M", [((), 900), ((2, 3), 25)], ids=["P,2", "N,K,P,2"]
    )
    def test_columns_match_per_path_definition(self, batch, M):
        cfg = SystemConfig(M=M, K=3, N=2, P=4)
        rng = np.random.default_rng(len(batch))
        angles = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(*batch, cfg.P, 2))
        d = rng.uniform(1.0, 10.0, size=(*batch, cfg.M))
        roots = root_matrix_from_angles(angles, d, cfg).dense()
        assert roots.shape == (*batch, cfg.M, cfg.P)
        for link in np.ndindex(*batch):
            pathloss = d[link] ** (-cfg.beta_PL / 2.0)
            for p, (theta_v, theta_h) in enumerate(angles[link]):
                alpha = math.sqrt(abs(math.cos(theta_v) * math.cos(theta_h)))
                steer = reference.steering_vector(
                    math.sin(theta_v), math.sin(theta_h) * math.cos(theta_h),
                    cfg.M, cfg.spacing, cfg.lam,
                )
                assert_close(roots[link][:, p], pathloss * alpha * steer, rtol=1e-13)

    def test_views_and_angle_support(self):
        # drawn path angles stay in [-pi/2, pi/2]^2, so every path gain
        # alpha_p = ||column p|| / ||path loss / sqrt(M)|| lies in [0, 1]
        cfg = SystemConfig(M=16, K=2, N=1, P=4)
        dep = place_devices(cfg, LayoutConfig(name="line"), np.random.default_rng(0))
        draw = draw_unit_block(np.random.default_rng(1), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(panel_view(dep, cfg, 0), 0), draw, cfg)
        assert np.all(np.abs(draw.angles) <= math.pi / 2.0)
        pathloss = stats.geom.distances ** (-cfg.beta_PL / 2.0) / math.sqrt(cfg.M)
        roots = stats.roots.dense()
        gains = np.linalg.norm(roots, axis=2) / np.linalg.norm(pathloss, axis=2)[..., None]
        assert np.all(gains <= 1.0 + 1e-15)
        assert np.all(gains >= 0.0)

    def test_frobenius_norm_identity(self):
        cfg = SystemConfig(M=16, K=2, N=1, P=4)
        dep = place_devices(cfg, LayoutConfig(name="line"), np.random.default_rng(5))
        draw = draw_unit_block(np.random.default_rng(6), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(panel_view(dep, cfg, 0), 0), draw, cfg)
        root = stats.roots.dense()[0, 1]
        theta_v, theta_h = draw.angles[0, 1, :, 0], draw.angles[0, 1, :, 1]
        nlos_gains_sq = np.abs(np.cos(theta_v) * np.cos(theta_h))
        pathloss_sq = stats.geom.distances[0, 1] ** (-cfg.beta_PL)
        # every column is alpha_p * pathloss * unit-modulus/sqrt(M), so the
        # Frobenius mass factorizes exactly
        expected = np.sum(nlos_gains_sq) * np.sum(pathloss_sq) / cfg.M
        assert_close(np.sum(np.abs(root) ** 2), expected, rtol=1e-12)


    @pytest.mark.parametrize("batch, M", [((), 900), ((2, 3), 25), ((4, 40), 400)],
                             ids=["P,2", "N,K,P,2", "pool"])
    def test_factors_match_sincos_cumprod_assembly(self, batch, M):
        # endfire and broadside angles included: cos keeps its relative
        # precision at +-pi/2, so alpha does too
        cfg = SystemConfig(M=M, K=3, N=2, P=20)
        rng = np.random.default_rng(M)
        angles = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(*batch, cfg.P, 2))
        angles[..., :6, :] = [[math.pi / 2.0, 0.3], [-math.pi / 2.0, -1.2], [0.0, 0.0],
                              [0.4, math.pi / 2.0], [-1e-300, -math.pi / 2.0], [1e-9, -1e-9]]
        d = rng.uniform(1.0, 10.0, size=(*batch, cfg.M))
        got = root_matrix_from_angles(angles, d, cfg)
        want = reference.root_factors(angles, d, cfg)
        assert_close(got.ramp_v, want.ramp_v, rtol=1e-13)
        assert_close(got.ramp_h, want.ramp_h, rtol=1e-13)
        assert np.array_equal(got.pathloss, want.pathloss)
        assert_close(got.dense(), want.dense(), rtol=1e-13)

    def test_roots_of_a_slice_are_the_slice_of_the_roots(self):
        # bit for bit, single links and single paths included, so a unit's
        # first-K statistics are the slice of its pool statistics
        rng = np.random.default_rng(8)
        shapes = [(1, 2, 3, 1)] * 20 + [(2, 3, 5, 2), (4, 6, 8, 4), (1, 1, 2, 1)]
        for N, K, side, P in shapes:
            cfg = SystemConfig(M=side * side, K=K, N=N, P=P)
            angles = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(N, K, P, 2))
            d = rng.uniform(1.0, 3.0, size=(N, K, cfg.M))
            full = root_matrix_from_angles(angles, d, cfg)
            for cut in (np.s_[:, :1], np.s_[:1, :1], np.s_[:, K - 1:], np.s_[:1]):
                part = root_matrix_from_angles(angles[cut], d[cut], cfg)
                for name in ("ramp_v", "ramp_h", "pathloss"):
                    assert np.array_equal(getattr(part, name), getattr(full, name)[cut]), (N, K, cut)


class TestRootRamps:
    """The ramps ``root_matrix_from_angles`` returns are views of a
    side-major buffer, read in place by the sampler and by slices."""

    @pytest.mark.parametrize("P", [1, 20])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "draw-axis"])
    def test_ramps_match_closed_form_at_every_side(self, P, batch):
        # odd sides, powers of two and one past them: every doubling split
        rng = np.random.default_rng(P + len(batch))
        for side in range(1, 34):
            cfg = SystemConfig(M=side * side, P=P)
            angles = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(*batch, 2, P, 2))
            roots = root_matrix_from_angles(angles, np.ones((*batch, 2, cfg.M)), cfg)
            theta_v, theta_h = angles[..., 0], angles[..., 1]
            step = 2.0 * math.pi * cfg.spacing / cfg.lam
            i = np.arange(side)[:, np.newaxis]
            gain = np.sqrt(np.abs(np.cos(theta_v) * np.cos(theta_h))) / math.sqrt(cfg.M)
            want_v = gain[..., np.newaxis, :] * np.exp(
                1j * step * i * np.sin(theta_v)[..., np.newaxis, :])
            want_h = np.exp(1j * step * i * (np.sin(theta_h) * np.cos(theta_h))[..., np.newaxis, :])
            assert roots.ramp_v.shape == roots.ramp_h.shape == (*batch, 2, side, P)
            assert_close(roots.ramp_v, want_v, rtol=1e-13)
            assert_close(roots.ramp_h, want_h, rtol=1e-13)
            assert roots.nbytes == sum(f.nbytes for f in (roots.ramp_v, roots.ramp_h,
                                                           roots.pathloss))

    def test_slices_are_views_of_the_ramp_buffer(self, quad_world):
        dep, cfg = quad_world
        draw = draw_unit_block(np.random.default_rng(3), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(panel_view(dep, cfg, 0), 1), draw, cfg)
        roots = stats.roots
        assert roots.ramp_v.base is not None and roots.ramp_h.base is not None
        for cut in (slice_stats(stats, N=1), reference.prefix_stats(stats, 1)):
            assert np.shares_memory(cut.roots.ramp_v, roots.ramp_v.base)
            assert np.shares_memory(cut.roots.ramp_h, roots.ramp_h.base)


class TestPhaseRamp:
    """The doubling ramps of ``channel._phase_ramp`` against running
    products and against one exponential per entry."""

    @pytest.mark.parametrize("side", [1, 2, 3, 5, 8, 10, 14, 17, 20, 30, 33])
    def test_doubling_matches_cumprod_and_exp(self, side):
        rng = np.random.default_rng(side)
        phi = rng.uniform(-1.0, 1.0, size=(4, 5, 7))
        gain = rng.uniform(0.0, 1.0, size=phi.shape)
        step = 2.0 * math.pi * 0.5
        ramp = _phase_ramp(phi, side, step, gain)
        assert ramp.shape == (4, 5, side, 7)
        assert np.array_equal(ramp[..., 0, :], gain.astype(complex))
        assert_close(ramp, gain[..., np.newaxis, :] * reference.phase_ramp_cumprod(phi, side, step),
                     rtol=1e-13)
        assert_close(ramp, gain[..., np.newaxis, :] * reference.phase_ramp_exp(phi, side, step),
                     rtol=1e-13)
        assert np.array_equal(_phase_ramp(phi, side, step)[..., 0, :], np.ones(phi.shape))

    @given(
        phi=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
        side=st.integers(1, 40),
        spacing=st.floats(0.05, 2.0),
    )
    def test_any_step_matches_exp(self, phi, side, spacing):
        phi = np.asarray(phi)
        step = 2.0 * math.pi * spacing
        assert_close(_phase_ramp(phi, side, step), reference.phase_ramp_exp(phi, side, step),
                     rtol=1e-13)


class TestRicianSampling:
    """Link channels drawn by ``sample_unit_channels`` from the statistics
    of a single panel: device 0's unit sees its own pure-LOS link and the
    Rician link of device 1."""

    def test_mixing_scales(self):
        assert rician_mixing(np.inf) == (1.0, 0.0)
        assert rician_mixing(0.0) == (0.0, 1.0)
        los, nlos = rician_mixing(3.0)
        assert_close(los**2 + nlos**2, 1.0)
        assert_close(los, math.sqrt(0.75))

    def test_pure_los_limit(self):
        cfg = SystemConfig(M=16, K=2, N=1, P=4)
        geom, draw, stats = _lone_link_stats([0.6, 0.2, 1.0], cfg, coin=0.0, seed=1)
        h = sample_unit_channels(stats, cgauss(np.random.default_rng(2), (1, 2, cfg.P)))
        assert stats.kappa[0, 0] == np.inf and stats.nlos_scale[0, 0] == 0.0
        assert np.array_equal(h[0, 0], geom.hlos[0, 0])

    def test_pure_nlos_limit_and_exact_split(self):
        cfg = SystemConfig(M=16, K=2, N=1, P=4)
        geom, draw, stats = _lone_link_stats([0.6, 0.2, 1.0], cfg, coin=1.0, seed=1)
        g = cgauss(np.random.default_rng(2), (1, 2, cfg.P))
        h = sample_unit_channels(stats, g)
        assert stats.kappa[0, 1] == 0.0
        assert np.all(stats.hbar[0, 1] == 0.0)
        assert_close(h[0, 1], stats.roots.dense()[0, 1] @ g[0, 1], rtol=1e-12)

    def test_total_is_exact_sum(self):
        cfg = SystemConfig(M=9, K=2, N=1, P=3)
        geom, draw, stats = _lone_link_stats([0.0, -0.6, 0.9], cfg, coin=0.0, seed=4)
        g = cgauss(np.random.default_rng(5), (1, 2, cfg.P))
        h = sample_unit_channels(stats, g)
        kappa = geom.kappa_cand[0, 1]
        assert stats.kappa[0, 1] == kappa
        assert_close(stats.hbar[0, 1], math.sqrt(kappa / (kappa + 1.0)) * geom.hlos[0, 1], rtol=1e-12)
        root = stats.roots.dense()[0, 1]
        fluctuation = math.sqrt(1.0 / (kappa + 1.0)) * (root @ g[0, 1])
        assert_close(h[0, 1], stats.hbar[0, 1] + fluctuation, rtol=1e-12)

    def test_fluctuation_covariance_matches_root(self):
        cfg = SystemConfig(M=16, K=2, N=1, P=4)
        geom, draw, stats = _lone_link_stats([0.7, -0.4, 1.2], cfg, coin=0.0, seed=8)
        root = stats.roots.dense()[0, 1]
        nlos_var = float(stats.nlos_var[0, 1])
        target = nlos_var * (root @ root.conj().T)
        n = 10_000
        rng = np.random.default_rng(9)
        flucts = np.array([
            sample_unit_channels(stats, cgauss(rng, (1, 2, cfg.P)))[0, 1] - stats.hbar[0, 1]
            for _ in range(n)
        ])
        sample = flucts.T @ flucts.conj() / n
        scale = np.max(np.abs(target))
        assert np.max(np.abs(sample - target)) / scale < 0.05
        # zero-mean check, per entry against its own standard error
        se = np.sqrt(np.real(np.diag(target)) / n)
        assert np.all(np.abs(flucts.mean(axis=0)) < 5.0 * se)


class TestComplexGaussian:
    def test_stream_layout_real_block_first(self):
        rng = np.random.default_rng(0)
        re = rng.standard_normal(5)
        im = rng.standard_normal(5)
        expected = (re + 1j * im) / math.sqrt(2.0)
        assert np.array_equal(cgauss(np.random.default_rng(0), 5), expected)

    @given(
        shapes=st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple),
                        min_size=1, max_size=3),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        batched=st.booleans(),
    )
    def test_one_call_equals_two_calls_per_shape(self, shapes, seeds, batched):
        # one standard_normal call per generator gives the bits and leaves
        # the generator where two calls per shape, real then imaginary, do
        got_rngs = [np.random.default_rng(s) for s in seeds]
        want_rngs = [np.random.default_rng(s) for s in seeds]
        if not batched:
            got_rngs, want_rngs = got_rngs[:1], want_rngs[:1]
        got = cgauss(got_rngs if batched else got_rngs[0], *shapes)
        got = [got] if len(shapes) == 1 else list(got)
        want = [[reference.cgauss(rng, s) for s in shapes] for rng in want_rngs]
        for i, shape in enumerate(shapes):
            expected = np.stack([row[i] for row in want]) if batched else want[0][i]
            assert got[i].shape == expected.shape
            assert np.array_equal(np.atleast_1d(got[i]).view(np.uint64),
                                  np.atleast_1d(expected).view(np.uint64))
        for a, b in zip(got_rngs, want_rngs):
            assert a.bit_generator.state == b.bit_generator.state

    def test_unit_variance(self):
        z = cgauss(np.random.default_rng(1), 200_000)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
        assert abs(np.mean(z)) < 0.01
