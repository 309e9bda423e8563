"""LOS synthesis, steering vectors, correlation roots, Rician sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lis_uplink import (
    Deployment,
    LayoutConfig,
    SystemConfig,
    build_layout,
    cgauss,
    dump_channels,
    load_channels,
    los_channel,
    place_devices,
    quarter_solid_angle,
    rician_mixing,
    steering_vector,
)
from lis_uplink.channel import (
    correlation_root,
    rician_channel,
    root_matrix_from_angles,
    unit_geometry,
)

from conftest import assert_close


def _point_deployment(device_local, N_panels=1, layout=None):
    """Deployment with one device per panel at a pinned local position."""
    layout = layout or LayoutConfig(name="line")
    frames = build_layout(layout, N_panels)
    dev = np.tile(np.asarray(device_local, float), (N_panels, 1, 1))
    cen = dev.copy()
    cen[..., 2] = 0.0
    return Deployment(
        frames=tuple(frames),
        devices_local=dev,
        devices=np.stack([frames[n].to_global(dev[n]) for n in range(N_panels)]),
        unit_centers_local=cen,
        unit_centers=np.stack([frames[n].to_global(cen[n]) for n in range(N_panels)]),
    )


class TestLosChannel:
    def test_single_antenna_closed_form(self):
        cfg = SystemConfig(M=1, K=1, N=1)
        dep = _point_deployment([[0.0, 0.0, 1.7]])
        los = los_channel(dep.devices[0, 0], unit_geometry(dep, cfg, 0, 0), cfg)
        d = 1.7
        assert_close(los.amplitudes[0], 1.0 / math.sqrt(4.0 * math.pi * d * d))
        assert_close(los.phases[0], np.exp(-2j * math.pi * d / cfg.lam))
        assert_close(los.distances[0], d)

    def test_vector_and_power_consistency(self, tiny_world):
        cfg, dep = tiny_world.config, tiny_world.deployment
        los = los_channel(dep.devices[0, 0], unit_geometry(dep, cfg, 0, 0), cfg)
        assert np.array_equal(los.vector, los.amplitudes * los.phases)
        assert np.allclose(np.abs(los.phases), 1.0, rtol=0, atol=1e-12)
        assert np.all(los.amplitudes > 0)
        assert_close(los.power, np.sum(los.amplitudes**2))

    def test_power_grows_with_antenna_count(self):
        dep = _point_deployment([[0.1, -0.3, 1.0]])
        powers = []
        for M in (16, 64, 256):
            cfg = SystemConfig(M=M, K=1, N=1)
            los = los_channel(dep.devices[0, 0], unit_geometry(dep, cfg, 0, 0), cfg)
            powers.append(los.power)
        assert powers[0] < powers[1] < powers[2]

    def test_doubling_height_decreases_every_gain(self):
        cfg = SystemConfig(M=16, K=1, N=1)
        low = _point_deployment([[0.3, -0.2, 0.8]])
        high = _point_deployment([[0.3, -0.2, 1.6]])
        b_low = los_channel(low.devices[0, 0], unit_geometry(low, cfg, 0, 0), cfg).amplitudes
        b_high = los_channel(high.devices[0, 0], unit_geometry(high, cfg, 0, 0), cfg).amplitudes
        assert np.all(b_high < b_low)

    def test_total_gain_approaches_solid_angle_limit(self):
        # (sum_m beta_m^2)^2 against the deterministic serving power
        # M^2 p^2 / (16 pi^2 L^4) with p the quadrant solid angle.
        cfg = SystemConfig(M=2500, K=1, N=1, L=0.25)
        dep = _point_deployment([[0.0, 0.0, 1.0]])
        los = los_channel(dep.devices[0, 0], unit_geometry(dep, cfg, 0, 0), cfg)
        p = quarter_solid_angle(cfg.L, 1.0)
        limit = cfg.M**2 * p**2 / (16.0 * math.pi**2 * cfg.L**4)
        assert abs(los.power**2 - limit) / limit < 0.02

    def test_device_behind_plane_rejected(self):
        cfg = SystemConfig(M=4, K=1, N=1)
        dep = _point_deployment([[0.0, 0.0, 1.0]])
        unit = unit_geometry(dep, cfg, 0, 0)
        with pytest.raises(ValueError, match="front side"):
            los_channel(np.array([0.0, 0.0, -1.0]), unit, cfg)

    def test_facing_panel_geometry(self):
        cfg = SystemConfig(M=16, K=1, N=4)
        dep = place_devices(cfg, LayoutConfig(), np.random.default_rng(0), K=1)
        unit = unit_geometry(dep, cfg, 3, 0)
        assert_close(unit.normal, [0.0, 0.0, -1.0])
        assert np.allclose(unit.antennas[:, 2], 6.0)
        los = los_channel(dep.devices[3, 0], unit, cfg)
        assert np.all(los.amplitudes > 0)


class TestSteeringVector:
    def test_broadside_is_flat(self):
        v = steering_vector(0.0, 0.0, 16, 0.05, 0.1)
        assert_close(v, np.full(16, 0.25 + 0j), rtol=0, atol=1e-15)

    def test_norm_is_one_for_random_angles(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(1000):
            phi_v, phi_h = rng.uniform(-1.0, 1.0, size=2)
            v = steering_vector(phi_v, phi_h, 36, 0.083, 0.0999)
            worst = max(worst, abs(np.linalg.norm(v) - 1.0))
        assert worst < 1e-12

    def test_two_by_two_kronecker_expansion(self):
        lam = 0.1
        v = steering_vector(1.0, 0.0, 4, 0.05, lam)  # delta_L/lambda = 0.5
        expected = 0.5 * np.array([1.0, 1.0, np.exp(1j * math.pi), np.exp(1j * math.pi)])
        assert_close(v, expected, rtol=0, atol=1e-12)

    def test_matches_explicit_lattice_loop(self):
        M, delta_L, lam = 9, 0.07, 0.0999
        phi_v, phi_h = 0.43, -0.78
        v = steering_vector(phi_v, phi_h, M, delta_L, lam)
        side = 3
        step = 2.0 * math.pi * delta_L / lam
        for m in range(M):
            iv, ih = divmod(m, side)
            assert_close(
                v[m],
                np.exp(1j * step * (iv * phi_v + ih * phi_h)) / math.sqrt(M),
                rtol=0,
                atol=1e-12,
            )

    def test_non_square_m_rejected(self):
        with pytest.raises(ValueError, match="square"):
            steering_vector(0.0, 0.0, 12, 0.05, 0.1)

    @given(
        phi_v=st.floats(-1.0, 1.0, allow_nan=False),
        phi_h=st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_norm_property(self, phi_v, phi_h):
        v = steering_vector(phi_v, phi_h, 25, 0.05, 0.0999)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestCorrelationRoot:
    def _instance(self, seed=0, M=16, P=4):
        cfg = SystemConfig(M=M, K=2, N=1, P=P)
        dep = place_devices(cfg, LayoutConfig(name="line"), np.random.default_rng(seed))
        unit = unit_geometry(dep, cfg, 0, 0)
        root = correlation_root(
            dep.devices[0, 1], unit, cfg, np.random.default_rng(seed + 1)
        )
        return cfg, root

    def test_broadside_paths_degenerate_to_pathloss(self):
        cfg = SystemConfig(M=16, K=1, N=1, P=3)
        dep = _point_deployment([[0.2, 0.1, 1.3]])
        unit = unit_geometry(dep, cfg, 0, 0)
        diff = dep.devices[0, 0] - unit.antennas
        d = np.linalg.norm(diff, axis=1)
        matrix = root_matrix_from_angles(np.zeros((3, 2)), d, cfg)
        expected_col = d ** (-cfg.beta_PL / 2.0) / math.sqrt(cfg.M)
        for p in range(3):
            assert_close(matrix[:, p], expected_col.astype(complex), rtol=1e-12)

    def test_endfire_path_is_dead_column(self):
        cfg = SystemConfig(M=16, K=1, N=1, P=2)
        d = np.full(16, 2.0)
        angles = np.array([[math.pi / 2.0, 0.0], [0.3, -0.4]])
        matrix = root_matrix_from_angles(angles, d, cfg)
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
        roots = root_matrix_from_angles(angles, d, cfg)
        assert roots.shape == (*batch, cfg.M, cfg.P)
        for link in np.ndindex(*batch):
            pathloss = d[link] ** (-cfg.beta_PL / 2.0)
            for p, (theta_v, theta_h) in enumerate(angles[link]):
                alpha = math.sqrt(abs(math.cos(theta_v) * math.cos(theta_h)))
                steer = steering_vector(
                    math.sin(theta_v), math.sin(theta_h) * math.cos(theta_h),
                    cfg.M, cfg.spacing, cfg.lam,
                )
                assert_close(roots[link][:, p], pathloss * alpha * steer, rtol=1e-13)

    def test_views_and_angle_support(self):
        _, root = self._instance()
        assert np.shares_memory(root.rows, root.matrix)
        for p in range(root.matrix.shape[1]):
            assert np.array_equal(root.columns[p], root.matrix[:, p])
        assert np.all(np.abs(root.angles) <= math.pi / 2.0)
        assert np.all(root.nlos_gains <= 1.0 + 1e-15)
        assert np.all(root.nlos_gains >= 0.0)

    def test_frobenius_norm_identity(self):
        cfg, root = self._instance(seed=5)
        # every column is alpha_p * pathloss * unit-modulus/sqrt(M), so the
        # Frobenius mass factorizes exactly
        expected = (
            np.sum(root.nlos_gains**2) * np.sum(root.nlos_pathloss**2) / cfg.M
        )
        assert_close(root.frobenius_sq, expected, rtol=1e-12)
        assert_close(root.frobenius_sq, np.sum(np.abs(root.matrix) ** 2), rtol=1e-12)


class TestRicianSampling:
    def test_mixing_scales(self):
        assert rician_mixing(np.inf) == (1.0, 0.0)
        assert rician_mixing(0.0) == (0.0, 1.0)
        los, nlos = rician_mixing(3.0)
        assert_close(los**2 + nlos**2, 1.0)
        assert_close(los, math.sqrt(0.75))

    def test_pure_los_limit(self):
        cfg = SystemConfig(M=16, K=1, N=1, P=4)
        dep = _point_deployment([[0.1, 0.2, 1.0]])
        unit = unit_geometry(dep, cfg, 0, 0)
        los = los_channel(dep.devices[0, 0], unit, cfg)
        root = correlation_root(dep.devices[0, 0], unit, cfg, np.random.default_rng(1))
        h = rician_channel(los, root, np.inf, np.random.default_rng(2))
        assert np.array_equal(h.total, los.vector)
        assert np.all(h.fluctuation == 0.0)

    def test_pure_nlos_limit_and_exact_split(self):
        cfg = SystemConfig(M=16, K=1, N=1, P=4)
        dep = _point_deployment([[0.1, 0.2, 1.0]])
        unit = unit_geometry(dep, cfg, 0, 0)
        los = los_channel(dep.devices[0, 0], unit, cfg)
        root = correlation_root(dep.devices[0, 0], unit, cfg, np.random.default_rng(1))
        h = rician_channel(los, root, 0.0, np.random.default_rng(2))
        assert np.all(h.mean == 0.0)
        assert np.array_equal(h.total, h.fluctuation)
        # reproduce the draw: same stream, same mixing
        g = cgauss(np.random.default_rng(2), 4)
        assert_close(h.fluctuation, root.matrix @ g, rtol=1e-12)

    def test_total_is_exact_sum(self):
        cfg = SystemConfig(M=9, K=1, N=1, P=3)
        dep = _point_deployment([[0.0, -0.4, 0.9]])
        unit = unit_geometry(dep, cfg, 0, 0)
        los = los_channel(dep.devices[0, 0], unit, cfg)
        root = correlation_root(dep.devices[0, 0], unit, cfg, np.random.default_rng(4))
        h = rician_channel(los, root, 2.5, np.random.default_rng(5))
        assert np.array_equal(h.total, h.mean + h.fluctuation)
        assert_close(h.mean, math.sqrt(2.5 / 3.5) * los.vector, rtol=1e-12)

    def test_negative_kappa_rejected(self):
        cfg = SystemConfig(M=4, K=1, N=1, P=2)
        dep = _point_deployment([[0.0, 0.0, 1.0]])
        unit = unit_geometry(dep, cfg, 0, 0)
        los = los_channel(dep.devices[0, 0], unit, cfg)
        root = correlation_root(dep.devices[0, 0], unit, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="kappa"):
            rician_channel(los, root, -0.1, np.random.default_rng(0))

    def test_fluctuation_covariance_matches_root(self):
        cfg = SystemConfig(M=16, K=2, N=1, P=4)
        dep = place_devices(cfg, LayoutConfig(name="line"), np.random.default_rng(7))
        unit = unit_geometry(dep, cfg, 0, 0)
        root = correlation_root(dep.devices[0, 1], unit, cfg, np.random.default_rng(8))
        kappa = 2.0
        target = (root.matrix @ root.matrix.conj().T) / (kappa + 1.0)
        n = 10_000
        g = cgauss(np.random.default_rng(9), (n, cfg.P))
        flucts = math.sqrt(1.0 / (kappa + 1.0)) * g @ root.matrix.T
        sample = flucts.T @ flucts.conj() / n
        scale = np.max(np.abs(target))
        assert np.max(np.abs(sample - target)) / scale < 0.05
        # zero-mean check, per entry against its own standard error
        se = np.sqrt(np.real(np.diag(target)) / n)
        assert np.all(np.abs(flucts.mean(axis=0)) < 5.0 * se)


class TestChannelDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        tensor = cgauss(rng, (2, 2, 3, 3, 4))
        base = str(tmp_path / "links")
        data_path, sidecar_path = dump_channels(base, tensor)
        assert data_path.endswith(".f64") and sidecar_path.endswith(".json")
        back = load_channels(base)
        assert np.array_equal(back, tensor)

    def test_layout_is_little_endian_interleaved(self, tmp_path):
        tensor = np.arange(8, dtype=float).reshape(1, 1, 2, 2, 2) * (1 + 2j)
        base = str(tmp_path / "links")
        dump_channels(base, tensor)
        flat = np.fromfile(base + ".f64", dtype="<f8")
        assert_close(flat[0], 0.0, rtol=0, atol=0)
        assert_close(flat[2], 1.0)   # second antenna, real part
        assert_close(flat[3], 2.0)   # second antenna, imag part

    def test_bad_shapes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="tensor"):
            dump_channels(str(tmp_path / "x"), np.zeros((2, 3, 2, 2, 4), complex))
        base = str(tmp_path / "y")
        dump_channels(base, np.zeros((1, 1, 2, 2, 4), complex))
        data = np.fromfile(base + ".f64", dtype="<f8")
        data[: data.size - 2].tofile(base + ".f64")
        with pytest.raises(ValueError, match="expected"):
            load_channels(base)


class TestComplexGaussian:
    def test_stream_layout_real_block_first(self):
        rng = np.random.default_rng(0)
        re = rng.standard_normal(5)
        im = rng.standard_normal(5)
        expected = (re + 1j * im) / math.sqrt(2.0)
        assert np.array_equal(cgauss(np.random.default_rng(0), 5), expected)

    def test_unit_variance(self):
        z = cgauss(np.random.default_rng(1), 200_000)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
        assert abs(np.mean(z)) < 0.01
