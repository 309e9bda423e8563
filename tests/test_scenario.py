"""Geometry, placement, link-statistics, and power-control tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lis_uplink import (
    Deployment,
    InfeasiblePlacementError,
    LayoutConfig,
    PlacementConfig,
    SystemConfig,
    build_layout,
    build_unit_geometry,
    los_probability,
    place_devices,
    rician_factor,
    transmit_snrs,
)

import reference
from conftest import assert_close


def _place(cfg, layout=None, seed=0, **kw):
    layout = layout or LayoutConfig()
    return place_devices(cfg, layout, np.random.default_rng(seed), **kw)


class TestLayout:
    def test_line_layout_edge_gap(self):
        frames = build_layout(LayoutConfig(name="line", d_x=0.5), 2)
        origins = np.stack([f.origin for f in frames])
        # 4 m wide panels, centers 4.5 m apart -> 0.5 m edge-to-edge gap
        assert_close(origins[:, 0], [-2.25, 2.25])
        assert np.all(origins[:, 1:] == 0.0)
        for f in frames:
            assert np.allclose(f.rotation, np.eye(3))

    def test_line_layout_single_panel_at_origin(self):
        frames = build_layout(LayoutConfig(name="line"), 1)
        assert np.all(frames[0].origin == 0.0)

    def test_quad_anchor_points(self):
        frames = build_layout(LayoutConfig(), 4)  # auto -> quad at N=4
        origins = np.stack([f.origin for f in frames])
        expected = [[0, 0, 0], [-8, 0, 0], [8, 0, 0], [0, 0, 6]]
        assert_close(origins, np.array(expected, dtype=float))

    def test_quad_facing_panel_points_back_down(self):
        frames = build_layout(LayoutConfig(name="quad"), 4)
        assert_close(frames[3].rotation[:, 2], [0.0, 0.0, -1.0])
        for n in range(3):
            assert_close(frames[n].rotation[:, 2], [0.0, 0.0, 1.0])

    def test_quad_rejects_wrong_panel_count(self):
        with pytest.raises(ValueError, match="N=4"):
            build_layout(LayoutConfig(name="quad"), 3)

    def test_frame_round_trip(self):
        frame = build_layout(LayoutConfig(), 4)[3]
        pts = np.random.default_rng(3).normal(size=(5, 3))
        assert_close(reference.to_local(frame, frame.to_global(pts)), pts, rtol=0, atol=1e-12)


class TestPlacement:
    def test_single_device_box(self):
        cfg = SystemConfig(M=16, K=1, N=1)
        for seed in range(50):
            dep = _place(cfg, seed=seed)
            x, y, z = dep.devices_local[0, 0]
            assert -2.0 <= x <= 2.0 and -2.0 <= y <= 2.0
            assert 0.0 < z <= 2.0

    def test_unit_squares_disjoint(self):
        cfg = SystemConfig(M=16, K=12, N=2)
        dep = _place(cfg, seed=5)
        side = 2 * cfg.L
        for n in range(dep.N):
            c = dep.devices_local[n, :, :2]
            for a in range(dep.K):
                for b in range(a + 1, dep.K):
                    cheb = np.max(np.abs(c[a] - c[b]))
                    assert cheb >= side, (n, a, b, cheb)

    def test_dense_placement_success_rate(self):
        # 20 unit squares of side 0.5 m in a 4 x 4 m plane: the rejection
        # sampler should almost never exhaust its budget.
        cfg = SystemConfig(M=16, K=20, N=1)
        failures = 0
        for seed in range(1000):
            try:
                _place(cfg, seed=seed)
            except InfeasiblePlacementError:
                failures += 1
        assert failures <= 10, f"{failures} failed placements out of 1000"

    def test_placement_deterministic(self):
        cfg = SystemConfig(M=16, K=6, N=4)
        a = _place(cfg, seed=42)
        b = _place(cfg, seed=42)
        assert np.array_equal(a.devices, b.devices)
        assert np.array_equal(a.devices_local, b.devices_local)
        c = _place(cfg, seed=43)
        assert not np.array_equal(a.devices, c.devices)

    def test_infeasible_placement_reports(self):
        # Units of side 6 m cannot tile two disjoint squares in a 4 m plane.
        cfg = SystemConfig(M=16, K=2, N=1, L=3.0)
        budget = PlacementConfig(attempt_budget=50)
        with pytest.raises(InfeasiblePlacementError, match="infeasible placement"):
            _place(cfg, seed=0, placement=budget)
        # the same count as a pool request keeps what fits
        assert _place(cfg, seed=0, placement=budget, K=2).K == 1

    def test_pool_request_truncates_to_common_pool(self):
        cfg = SystemConfig(M=16, K=30, N=1, T=500, t=30, L=0.45)
        dep = _place(cfg, seed=1, placement=PlacementConfig(attempt_budget=200), K=30)
        assert 1 <= dep.K < 30

    @pytest.mark.parametrize("seed", range(3))
    def test_feasible_pool_request_is_the_full_placement(self, seed):
        cfg = SystemConfig(M=16, K=6, N=4)
        want = _place(cfg, seed=seed)
        got = _place(cfg, seed=seed, K=cfg.K)
        for name in ("devices_local", "devices"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @given(
        N=st.sampled_from([1, 2, 4]),
        quad=st.booleans(),
        K=st.integers(1, 8),
        budget=st.integers(1, 150),
        L=st.sampled_from([0.25, 0.6, 1.0, 3.0]),
        pool_request=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_chunked_sampler_matches_per_attempt_oracle(
        self, N, quad, K, budget, L, pool_request, seed
    ):
        # small budgets and large units exhaust devices mid-chunk, so the
        # leftover candidates must carry over to the next device and panel
        cfg = SystemConfig(M=16, K=K, N=N, L=L)
        layout = LayoutConfig(name="quad" if quad and N == 4 else "line")
        kw = {"placement": PlacementConfig(attempt_budget=budget), "K": K if pool_request else None}
        try:
            want = reference.place_devices(cfg, layout, np.random.default_rng(seed), **kw)
        except InfeasiblePlacementError as exc:
            with pytest.raises(InfeasiblePlacementError) as got:
                _place(cfg, layout, seed, **kw)
            assert str(got.value) == str(exc)
            return
        got = _place(cfg, layout, seed, **kw)
        for name in ("devices_local", "devices"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert all(np.array_equal(a.rotation, b.rotation) and np.array_equal(a.origin, b.origin)
                   for a, b in zip(got.frames, want.frames))

    def test_pool_placement_matches_per_attempt_oracle(self):
        # the fig9 pool shape: 40 requested per quad panel, truncated
        cfg = SystemConfig(M=16, K=8, N=4, T=50)
        for seed in range(3):
            kw = {"K": 40}
            got = _place(cfg, seed=seed, **kw)
            want = reference.place_devices(cfg, LayoutConfig(), np.random.default_rng(seed), **kw)
            assert np.array_equal(got.devices_local, want.devices_local)

    def test_facing_panel_devices_hang_between_planes(self):
        dep = _place(SystemConfig(M=16, K=3, N=4), seed=2)
        z = dep.devices[3, :, 2]
        assert np.all((4.0 <= z) & (z < 6.0))

    def test_subset_matches_smaller_placement_single_panel(self):
        cfg_big = SystemConfig(M=16, K=6, N=1)
        cfg_small = SystemConfig(M=16, K=3, N=1)
        big = _place(cfg_big, seed=7)
        small = _place(cfg_small, seed=7)
        assert np.array_equal(reference.subset(big, 3).devices, small.devices)
        assert np.array_equal(big.prefix(3).devices, small.devices)

    def test_subset_and_panel_views(self):
        dep = _place(SystemConfig(M=16, K=4, N=4), seed=3)
        sub = reference.subset(dep, 2)
        assert sub.K == 2 and sub.N == 4
        assert np.array_equal(sub.devices, dep.devices[:, :2])
        pre = dep.prefix(2)
        assert pre.frames is dep.frames
        for name in ("devices_local", "devices"):
            assert np.array_equal(getattr(pre, name), getattr(sub, name)), name
            assert np.shares_memory(getattr(pre, name), getattr(dep, name)), name
        pan = reference.panel(dep, 3)
        assert pan.N == 1 and pan.K == 4
        assert np.array_equal(pan.devices[0], dep.devices[3])
        with pytest.raises(ValueError):
            reference.subset(dep, 0)
        for K in (0, 5):
            with pytest.raises(ValueError, match="prefix size"):
                dep.prefix(K)
        with pytest.raises(ValueError):
            reference.panel(dep, 4)


class TestAntennaLattice:
    def test_single_antenna_is_unit_center(self):
        dep = _place(SystemConfig(M=1, K=1, N=1), seed=0)
        assert_close(
            reference.unit_antenna_grid(dep, SystemConfig(M=1, K=1, N=1), 0, 0)[0],
            reference.unit_center(dep, 0, 0),
            rtol=0,
            atol=0,
        )

    def test_four_antenna_lattice_offsets(self):
        cfg = SystemConfig(M=4, K=1, N=1, delta_L=0.1)
        dep = _place(cfg, seed=0)
        grid = reference.unit_antenna_grid(dep, cfg, 0, 0) - reference.unit_center(dep, 0, 0)
        expected = {(-0.05, -0.05), (0.05, -0.05), (-0.05, 0.05), (0.05, 0.05)}
        got = {(round(p[0], 12), round(p[1], 12)) for p in grid}
        assert got == expected
        assert np.allclose(grid[:, 2], 0.0)

    def test_large_lattice_extent(self):
        cfg = SystemConfig(M=900, K=1, N=1, L=0.25)
        dep = _place(cfg, seed=0)
        grid = reference.unit_antenna_grid(dep, cfg, 0, 0) - reference.unit_center(dep, 0, 0)
        extent = (math.isqrt(cfg.M) - 1) / 2 * cfg.spacing
        assert_close(np.max(grid[:, 0]), extent)
        assert_close(np.max(grid[:, 1]), extent)
        assert_close(extent, 0.24166666666666667)

    def test_position_matches_grid_ordering(self):
        cfg = SystemConfig(M=9, K=2, N=2)
        dep = _place(cfg, seed=4)
        grid = reference.unit_antenna_grid(dep, cfg, 1, 1)
        for m in range(cfg.M):
            assert_close(reference.antenna_position(dep, cfg, 1, 1, m), grid[m], rtol=0, atol=1e-12)

    def test_antenna_index_bounds(self):
        cfg = SystemConfig(M=4, K=1, N=1)
        dep = _place(cfg, seed=0)
        with pytest.raises(IndexError):
            reference.antenna_position(dep, cfg, 0, 0, 4)

    def test_grid_lies_in_rotated_plane(self):
        cfg = SystemConfig(M=16, K=1, N=4)
        dep = _place(cfg, seed=1)
        grid = reference.unit_antenna_grid(dep, cfg, 3, 0)
        assert np.allclose(grid[:, 2], 6.0)  # facing panel plane sits at z = 6


class TestLinkStatistics:
    def test_los_probability_frozen_values(self):
        assert los_probability(10.0, 10.0) == 0.0
        assert los_probability(0.0, 10.0) == 1.0
        assert los_probability(5.0, 10.0) == 0.5
        assert los_probability(25.0, 10.0) == 0.0

    def test_los_probability_vectorized(self):
        out = los_probability(np.array([0.0, 2.5, 10.0, 40.0]), 10.0)
        assert_close(out, [1.0, 0.75, 0.0, 0.0], rtol=0, atol=0)

    @given(
        d=st.tuples(
            st.floats(0.0, 50.0, allow_nan=False), st.floats(0.0, 50.0, allow_nan=False)
        ),
        d_C=st.floats(0.1, 30.0, allow_nan=False),
    )
    def test_los_probability_monotone_bounded(self, d, d_C):
        lo, hi = sorted(d)
        p_lo, p_hi = los_probability(lo, d_C), los_probability(hi, d_C)
        assert 0.0 <= p_hi <= p_lo <= 1.0

    def test_rician_factor_frozen_values(self):
        assert_close(rician_factor(100.0), 10.0)
        assert_close(rician_factor(1e-9), 10 ** 1.3, rtol=1e-9)
        assert_close(10 ** 1.3, 19.952623149688797)
        assert_close(rician_factor(433.33), 1.0, rtol=1e-4)
        assert_close(rician_factor(1300.0 / 3.0), 1.0)

    def test_center_distance_of_own_link_is_height(self):
        dep = _place(SystemConfig(M=16, K=3, N=2), seed=8)
        for n in range(2):
            for k in range(3):
                assert_close(
                    reference.center_distances(dep, n, k)[n, k],
                    dep.devices_local[n, k, 2],
                    rtol=1e-12,
                )

    def test_center_distances_shape_and_symmetry_frame(self):
        dep = _place(SystemConfig(M=16, K=2, N=4), seed=6)
        d = reference.center_distances(dep, 0, 0)
        assert d.shape == (4, 2)
        assert np.all(d > 0)
        # facing panel device to target-panel unit: at least the plane gap
        assert np.all(d[3] >= 4.0)

    def test_perpendicular_offsets(self):
        # the LOS gain beta^2 = (z / d) / (4 pi d^2) carries each device's
        # perpendicular offset z to the receiving panel's plane
        cfg = SystemConfig(M=16, K=2, N=4)
        dep = _place(cfg, seed=6)

        def offsets(n):
            geom = build_unit_geometry(dep, cfg, n, 0)
            d = geom.distances[..., 0]
            return np.abs(geom.hlos[..., 0]) ** 2 * 4.0 * math.pi * d**3

        off0 = offsets(0)
        assert_close(off0[0], dep.devices_local[0, :, 2], rtol=1e-12)
        # facing panel's own devices are on its front side too
        off3 = offsets(3)
        assert np.all(off3[3] > 0)
        assert_close(off3[3], dep.devices_local[3, :, 2], rtol=1e-12)


def _boresight(z):
    """One panel at the origin with one device straight above its unit
    center, at height z."""
    device = np.array([[[0.0, 0.0, z]]])
    return Deployment(tuple(build_layout(LayoutConfig(name="line"), 1)), device, device)


class TestPowerControl:
    def test_definitional_inversion(self):
        # beta^2 = (z/d)/(4 pi d^2) = 0.01 for a device straight above the
        # center at d = 1/(0.2 sqrt(pi)); the 0 dB target then needs rho = 100.
        d = 1.0 / (0.2 * math.sqrt(math.pi))
        rho_p, rho_d = transmit_snrs(_boresight(d), SystemConfig(rho_p_tgt=1.0, rho_tgt=2.0))
        assert_close(rho_p, np.array([[100.0]]))
        assert_close(rho_d, np.array([[200.0]]))

    def test_unit_height_device(self):
        rho = float(transmit_snrs(_boresight(1.0), SystemConfig(rho_p_tgt=1.0))[0][0, 0])
        assert_close(rho, 4.0 * math.pi)
        assert round(rho, 3) == 12.566

    def test_data_to_pilot_ratio(self, tiny_cfg, tiny_layout):
        dep = _place(tiny_cfg, tiny_layout, seed=11)
        rho_p, rho_d = transmit_snrs(dep, tiny_cfg)
        assert_close(rho_d / rho_p, np.full((2, 2), 10 ** 0.3))

    def test_power_control_on_quad_layout(self):
        # the facing panel's frame flips z; power control must still see a
        # positive perpendicular offset for its own devices
        cfg = SystemConfig(M=16, K=2, N=4)
        dep = _place(cfg, seed=12)
        for rho in transmit_snrs(dep, cfg):
            assert rho.shape == (4, 2)
            assert np.all(rho > 0)

    def test_on_plane_device_rejected(self):
        with pytest.raises(ValueError, match="plane"):
            transmit_snrs(_boresight(0.0), SystemConfig())

    @pytest.mark.parametrize("N, name", [(4, "quad"), (2, "line")])
    def test_matches_reference_loop_bit_for_bit(self, N, name):
        cfg = SystemConfig(M=16, K=3, N=N)
        for seed in range(5):
            dep = _place(cfg, LayoutConfig(name=name), seed=seed)
            for snrs, target in zip(transmit_snrs(dep, cfg), (cfg.rho_p_tgt, cfg.rho_tgt)):
                loop = np.empty((N, cfg.K))
                for n in range(N):
                    for k in range(cfg.K):
                        dev = dep.devices_local[n, k]
                        loop[n, k] = reference.transmit_snr(dev, [dev[0], dev[1], 0.0], target)
                assert np.array_equal(snrs, loop)

    @given(
        dx=st.floats(-5.0, 5.0, allow_nan=False),
        dy=st.floats(-5.0, 5.0, allow_nan=False),
        z=st.floats(0.01, 10.0, allow_nan=False),
        target=st.floats(0.01, 100.0, allow_nan=False),
    )
    def test_inversion_identity(self, dx, dy, z, target):
        center = np.array([0.3, -0.7, 0.0])
        device = center + np.array([dx, dy, z])
        rho = reference.transmit_snr(device, center, target)
        d = math.sqrt(dx * dx + dy * dy + z * z)
        beta2 = (z / d) / (4.0 * math.pi * d * d)
        assert abs(rho * beta2 - target) <= 1e-12 * target
