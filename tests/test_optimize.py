"""Pilot-length search, floor tables, device-count scheduling, network NSE."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from lis_uplink import (
    LayoutConfig,
    SystemConfig,
    build_moment_set,
    build_unit_geometry,
    draw_unit_block,
    expected_floor_table,
    los_probability,
    make_unit_stats,
    optimal_num_devices,
    optimal_pilot_length,
    panel_view,
    place_devices,
    placement_rng,
    theorem1_sse,
)
from lis_uplink import links, optimize
from lis_uplink.asymptotics import sse
from lis_uplink.links import los_allowed, los_vectors

import reference
from conftest import assert_close


def _panel_moment_sets(seed, M=16, K=3, N=2, P=4, d_x=0.5):
    cfg = SystemConfig(M=M, K=K, N=N, T=500, P=P, seed=seed)
    dep = place_devices(cfg, LayoutConfig(name="line", d_x=d_x), np.random.default_rng(seed))
    sets = []
    for k in range(K):
        draw = draw_unit_block(np.random.default_rng(seed * 101 + k), N, K, P, M)
        stats = make_unit_stats(build_unit_geometry(panel_view(dep, cfg, 0), k), draw, cfg)
        sets.append(build_moment_set(stats))
    return sets


def _sse_bar(sets, t, T):
    """Theorem 1 SSE of a panel's moment sets at pilot length t."""
    return theorem1_sse([ms.sse_terms(t) for ms in sets], t, T).sse_bar


class TestOptimalPilotLength:
    def test_constant_objective_collapses_to_k(self):
        sol = optimal_pilot_length(lambda t: 1.0, T=200, K=5)
        assert sol.t_opt == 5

    def test_bounds_and_refinement_invariant(self):
        sets = _panel_moment_sets(seed=1)
        T, K = 200, 3
        obj = lambda t: _sse_bar(sets, t, T)
        sol = optimal_pilot_length(obj, T=T, K=K)
        assert K <= sol.t_opt <= T
        assert len(sol.values) == T - K + 1
        assert sol.objective_opt == max(sol.values)
        assert sol.values.index(sol.objective_opt) == sol.t_opt - K  # the first argmax
        for t in (K, T, sol.t_opt):
            assert sol.values[t - K] == obj(t)

    @pytest.mark.parametrize("seed", range(20))
    def test_grid_search_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        K = int(rng.integers(2, 5))
        T = int(rng.integers(30, 90))
        sets = _panel_moment_sets(seed=seed + 1, K=K)
        obj = lambda t: _sse_bar(sets, t, T)
        sol = optimal_pilot_length(obj, T=T, K=K)
        grid_best = max(obj(t) for t in range(K, T + 1))
        assert sol.objective_opt >= grid_best - 1e-9
        assert abs(sol.objective_opt - grid_best) <= 1e-9 * max(grid_best, 1.0)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_integer_objective_is_unimodal(self, seed):
        """A check on the model, not on the search: the exhaustive search
        needs no unimodality, but the paper's optimal-length argument
        (rising SINR against a linearly shrinking prelog) does."""
        sets = _panel_moment_sets(seed=seed)
        T, K = 80, 3
        vals = [_sse_bar(sets, t, T) for t in range(K, T + 1)]
        rises_after_fall = 0
        falling = False
        for a, b in zip(vals, vals[1:]):
            if b < a - 1e-9:
                falling = True
            elif b > a + 1e-9 and falling:
                rises_after_fall += 1
        assert rises_after_fall == 0

    def test_callable_objective_and_trace(self):
        def two_peaks(t):
            # a peak of 1 at t = 10 and a higher one of 2 at t = 90: a search
            # that assumes one peak stops at the first
            return max(1.0 - abs(t - 10) / 5.0, 2.0 - abs(t - 90) / 5.0, 0.0)

        for f, t_opt in ((lambda t: -((t - 37.3) ** 2), 37), (two_peaks, 90)):
            sol = optimal_pilot_length(f, T=100, K=2)
            assert sol.t_opt == t_opt
            assert sol.objective_opt == f(t_opt)
            assert sol.values == tuple(f(t) for t in range(2, 101))

    def test_errors(self):
        with pytest.raises(ValueError, match="K <= T"):
            optimal_pilot_length(lambda t: 1.0, T=2, K=5)
        with pytest.raises(ValueError, match="not finite"):
            optimal_pilot_length(lambda t: math.inf, T=10, K=2)
        # one interior NaN, away from any point a bracketing search visits
        with pytest.raises(ValueError, match=r"not finite at t=77\b"):
            optimal_pilot_length(lambda t: math.nan if t == 77 else -abs(t - 40), T=100, K=2)


class TestCorollary:
    """Corollary 1: in the interference-floor regime the SINR does not
    depend on t, so the prelog alone decides and the optimum is t = K."""

    def test_frozen_values(self):
        for K, T in ((20, 500), (1, 500), (20, 21), (50, 50)):
            sol = optimal_pilot_length(lambda t: (1.0 - t / T) * 7.5, T=T, K=K)
            assert sol.t_opt == K

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="1 <= K"):
            optimal_pilot_length(lambda t: 1.0, T=10, K=0)


class TestExpectedFloorTable:
    def _pool(self, seed=0, N=2, K=4, d_x=0.5):
        cfg = SystemConfig(M=16, K=K, N=N, T=500, P=4, seed=seed)
        dep = place_devices(cfg, LayoutConfig(name="line", d_x=d_x), np.random.default_rng(seed))
        return dep, cfg

    def test_cumulative_structure(self):
        table = expected_floor_table(*self._pool())
        assert table.pool == 4
        assert np.all(table.leak >= -1e-12)
        for K in range(1, 4):
            small = table.floors(K)
            bigger = table.floors(K + 1)
            assert np.all(bigger[:, :K] >= small - 1e-12)
        with pytest.raises(ValueError, match="outside"):
            table.floors(5)
        with pytest.raises(ValueError, match="outside"):
            table.floors(0)

    def test_single_device_single_panel_floor_free(self):
        cfg = SystemConfig(M=16, K=1, N=1, P=4)
        dep = place_devices(cfg, LayoutConfig(name="line"), np.random.default_rng(3))
        table = expected_floor_table(dep, cfg)
        assert table.floors(1)[0, 0] == 0.0
        assert math.isinf(table.gamma_hat(1)[0, 0])

    def test_nlos_inter_equals_isolated_panel(self):
        dep, cfg = self._pool(seed=4)
        table = expected_floor_table(dep, cfg, regime="nlos_inter")
        solo = expected_floor_table(reference.panel(dep, 0), dataclasses.replace(cfg, N=1))
        assert np.all(table.base == 0.0)
        for K in (1, 2, 4):
            assert_close(table.floors(K)[0], solo.floors(K)[0], rtol=1e-12)

    def test_gamma_hat_is_ratio(self):
        table = expected_floor_table(*self._pool(seed=5))
        K = 3
        fl = table.floors(K)
        gam = table.gamma_hat(K)
        mask = fl > 0
        assert_close(
            gam[mask], (table.rho_d_own[:, :K] * table.p_bar[:, :K] / fl)[mask], rtol=1e-12
        )

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            expected_floor_table(*self._pool(), regime="rayleigh")

    @staticmethod
    def _assert_matches_oracle(dep, cfg, regime):
        # the package forms the LOS inner products V of each unit's live
        # links as one matrix product and the oracle all of them with an
        # einsum, so the floors agree to the summation-order bound; the link
        # budget comes from the same scalar calls and stays exact
        table = expected_floor_table(dep, cfg, regime)
        want = reference.expected_floor_table(dep, cfg, regime)
        for name in ("base", "leak"):
            assert_close(getattr(table, name), getattr(want, name), rtol=1e-12)
        for name in ("p_bar", "rho_d_own"):
            assert np.array_equal(getattr(table, name), getattr(want, name)), name

    @pytest.mark.parametrize("regime", ["rician", "nlos_inter"])
    @pytest.mark.parametrize("layout, N, pool", [("quad", 4, 6), ("line", 2, 5)])
    def test_equals_per_panel_oracle(self, layout, N, pool, regime):
        cfg = SystemConfig(M=100, K=pool, N=N, T=50, P=4, seed=13)
        dep = place_devices(cfg, LayoutConfig(name=layout, d_x=0.5), placement_rng(13, 0))
        self._assert_matches_oracle(dep, cfg, regime)

    @staticmethod
    def _default_gap_pool(M=100, pool=8, layout=LayoutConfig(name="quad")):
        """A pool at the default gaps (d_x = 4, d_z = 6): in the quad, about
        a quarter of the links lie past the LOS cutoff d_C (p_los = 0)."""
        N = 4 if layout.name == "quad" else 2
        cfg = SystemConfig(M=M, K=pool, N=N, T=50, P=4, seed=13)
        return place_devices(cfg, layout, placement_rng(13, 0)), cfg

    @pytest.mark.parametrize("regime", ["rician", "nlos_inter"])
    @pytest.mark.parametrize("layout", [LayoutConfig(name="quad"),
                                        LayoutConfig(name="line", box_height=15.0)],
                             ids=["quad", "line-tall"])
    def test_equals_per_panel_oracle_past_los_reach(self, layout, regime):
        # in the tall box some devices sit above d_C over their own unit, so
        # a unit's own link, which the table always forms, can have p_los = 0
        dep, cfg = self._default_gap_pool(layout=layout)
        geoms = [build_unit_geometry(panel_view(dep, cfg, n), k)
                 for n in range(cfg.N) for k in range(8)]
        assert any(np.any(g.p_los == 0.0) for g in geoms)
        assert any(g.p_los[g.n, g.k] == 0.0 for g in geoms) == (layout.name == "line")
        self._assert_matches_oracle(dep, cfg, regime)

    @pytest.mark.parametrize("regime", ["rician", "nlos_inter"])
    def test_los_vectors_only_for_links_that_can_carry_los(self, monkeypatch, regime):
        # unit (n, k) asks ``los_vectors`` for exactly the links with
        # p_los > 0 that ``los_allowed`` lets carry LOS, plus its own link,
        # in flat (l, j) order, and the table builds no unit geometry
        dep, cfg = self._default_gap_pool(M=16)
        want = []
        for n in range(4):
            view = panel_view(dep, cfg, n)
            points = np.stack((view.devices[..., 0], view.devices[..., 1], view.z), axis=-1)
            for k in range(8):
                live = (build_unit_geometry(view, k).p_los > 0.0) & los_allowed(regime, 4, n)
                live[n, k] = True
                if regime == "nlos_inter":
                    assert not np.any(np.delete(live, n, axis=0))
                want.append(points[live])
        asked = []

        def counted(x, y, z, *rest):
            asked.append(np.stack((x, y, z), axis=-1))
            return los_vectors(x, y, z, *rest)

        def forbidden(*args):
            raise AssertionError("the floor table built a unit geometry")

        monkeypatch.setattr(optimize, "los_vectors", counted)
        monkeypatch.setattr(optimize, "build_unit_geometry", forbidden)
        monkeypatch.setattr(links, "build_unit_geometry", forbidden)
        expected_floor_table(dep, cfg, regime)
        assert [len(a) for a in asked] == [len(w) for w in want]
        assert sum(map(len, asked)) < 4 * 8 * 4 * 8
        for got, points in zip(asked, want):
            assert np.array_equal(got, points)

    @pytest.mark.parametrize("height", [7.0, 17.0])
    def test_device_behind_a_panel_plane_rejected(self, height):
        # one target-panel device lifted above the facing panel's plane
        # (z = d_z = 6, facing down); at 17 m every link of that device lies
        # past d_C, so no unit forms its LOS vector on the facing panel, and
        # the table must still refuse the deployment
        dep, cfg = self._default_gap_pool(M=16, pool=4)
        local, devices = dep.devices_local.copy(), dep.devices.copy()
        local[0, 0, 2] = height
        devices[0, 0] = dep.frames[0].to_global(local[0, 0])
        moved = dataclasses.replace(dep, devices_local=local, devices=devices)
        centers = np.stack([frame.to_global(np.column_stack((dep.devices_local[m, :, :2],
                                                            np.zeros(4))))
                            for m, frame in enumerate(dep.frames)])
        dist = np.linalg.norm(centers - devices[0, 0], axis=-1)
        assert np.all(los_probability(dist, cfg.d_C) == 0.0) == (height == 17.0)
        with pytest.raises(ValueError, match="front side"):
            expected_floor_table(moved, cfg)


def _table(gamma_hat, pool):
    """A stand-in floor table: (N, K) SINRs ``gamma_hat(K)`` over `pool` devices."""
    return SimpleNamespace(gamma_hat=gamma_hat, pool=pool)


class TestScheduling:
    def test_curve_argmax_and_trace(self):
        table = expected_floor_table(*TestExpectedFloorTable()._pool(seed=7, K=8))
        sol = optimal_num_devices(table, T=50)
        assert sol.K_values == tuple(range(1, 9))
        assert sol.nse_opt == np.max(sol.nse_curve)
        assert sol.nse_curve[sol.K_opt - 1] == sol.nse_opt
        want = [reference.nse_of_gammas(table.gamma_hat(K), K, 50) for K in sol.K_values]
        assert list(sol.nse_curve) == want

    @pytest.mark.parametrize("pool", [1, 3, 7])
    def test_curve_spans_the_table_pool(self, pool):
        asked = []

        def gamma_hat(K):
            asked.append(K)
            return np.full((2, K), 3.0)

        sol = optimal_num_devices(_table(gamma_hat, pool), T=10)
        assert asked == list(range(1, pool + 1))
        assert sol.K_values == tuple(asked) and len(sol.nse_curve) == pool

    def test_ties_prefer_smaller_k(self):
        sol = optimal_num_devices(_table(lambda K: np.zeros((1, K)), 5), T=10)
        assert sol.K_opt == 1
        assert np.all(sol.nse_curve == 0.0)

    def test_nse_of_gammas(self):
        # the network SE of (N, K) SINRs at t = K
        gam = np.array([[1.0, 3.0], [7.0, 15.0]])
        got = sse(gam, 2, 10)
        assert_close(got, 0.8 * 0.5 * ((1 + 2) + (3 + 4)))
        assert sse(gam, 10, 10) == 0.0
        assert sse(gam, 12, 10) == 0.0

    def test_diverging_objective_excluded_from_argmax(self):
        # A zero floor makes the bound SINR infinite; that K stays in the
        # curve but cannot win the argmax.
        def provider(K):
            gam = np.full((1, K), 2.0)
            if K == 1:
                gam[:] = np.inf
            return gam

        sol = optimal_num_devices(_table(provider, 5), T=10)
        assert math.isinf(sol.nse_curve[0])
        assert sol.K_opt > 1
        assert math.isfinite(sol.nse_opt)
        assert sol.nse_opt == max(v for v in sol.nse_curve if math.isfinite(v))

    def test_all_diverging_objective_rejected(self):
        table = _table(lambda K: np.full((1, K), np.inf), 3)
        with pytest.raises(ValueError, match="finite"):
            optimal_num_devices(table, T=10)


class TestNetworkNse:
    def test_mean_examples(self):
        # NSE: prelog times the mean over panels of the per-panel SE sums
        def per_panel(sums):
            return (2.0 ** np.asarray(sums, dtype=float) - 1.0)[:, np.newaxis]

        prelog = 1.0 - 1.0 / 1000
        assert_close(sse(per_panel([100.0, 110.0, 90.0, 100.0]), 1, 1000), prelog * 100.0)
        assert_close(sse(per_panel([42.0]), 1, 1000), prelog * 42.0)
        assert_close(sse(per_panel([7.0, 7.0, 7.0]), 1, 1000), prelog * 7.0)
