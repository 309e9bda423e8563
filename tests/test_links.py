"""Per-unit link bundles: block draws, channel statistics, sampled kernels."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lis_uplink import (
    BlockKernel,
    LayoutConfig,
    LinkWorld,
    SystemConfig,
    build_unit_geometry,
    draw_unit_block,
    make_unit_stats,
    place_devices,
    placement_rng,
    sample_unit_channels,
    slice_stats,
    unit_antenna_grid,
)
from lis_uplink.harness import _unit_rng
from lis_uplink.links import los_phase, slice_geometry, stream

import reference
from conftest import assert_close


def _random_unit(N, K, side, P, seed, n, k, interference="rician"):
    """World, pool-shaped draw and statistics of unit (n, k) on a random
    placement of K devices per panel."""
    cfg = SystemConfig(M=side * side, K=K, N=N, P=P, seed=seed)
    dep = place_devices(cfg, LayoutConfig(d_x=0.5), np.random.default_rng(seed))
    world = LinkWorld(dep, cfg)
    draw = draw_unit_block(np.random.default_rng(seed + 1), N, K, P, cfg.M)
    return world, draw, make_unit_stats(world.unit(n, k), draw, cfg, interference)


class TestStreams:
    def test_addressed_streams_are_reproducible(self):
        a = stream(7, 1, 2, 3).random(4)
        b = stream(7, 1, 2, 3).random(4)
        assert np.array_equal(a, b)

    def test_distinct_addresses_decorrelate(self):
        a = stream(7, 1, 2, 3).random(4)
        b = stream(7, 1, 2, 4).random(4)
        c = stream(8, 1, 2, 3).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_domain_separation(self):
        p = placement_rng(0, 0).random(4)
        b = _unit_rng(0, 0, 0, 0, 0).random(4)
        assert not np.array_equal(p, b)


class TestBlockDraw:
    def test_shapes(self):
        draw = draw_unit_block(np.random.default_rng(0), N=2, K=3, P=4, M=16)
        assert draw.coins.shape == (2, 3)
        assert draw.angles.shape == (2, 3, 4, 2)
        assert draw.g.shape == (2, 3, 4)
        assert draw.w.shape == (16,)

    def test_m_independent_prefix_keeps_sweeps_paired(self):
        # only the noise vector depends on M; gates, angles, and fading are
        # identical draws across an M sweep at the same address
        a = draw_unit_block(np.random.default_rng(5), N=2, K=2, P=3, M=16)
        b = draw_unit_block(np.random.default_rng(5), N=2, K=2, P=3, M=400)
        assert np.array_equal(a.coins, b.coins)
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.g, b.g)
        assert a.w.shape != b.w.shape


class TestUnitStats:
    def test_serving_link_is_pure_los(self, tiny_world):
        cfg = tiny_world.config
        geom = tiny_world.unit(0, 1)
        draw = draw_unit_block(np.random.default_rng(1), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        assert stats.kappa[0, 1] == np.inf
        assert stats.nlos_scale[0, 1] == 0.0
        assert np.array_equal(stats.hbar[0, 1], geom.hlos[0, 1])

    def test_gating_applies_candidate_kappa(self, tiny_world):
        cfg = tiny_world.config
        geom = tiny_world.unit(0, 0)
        draw = draw_unit_block(np.random.default_rng(2), cfg.N, cfg.K, cfg.P, cfg.M)
        forced = dataclasses.replace(draw, coins=np.zeros((cfg.N, cfg.K)))
        stats = make_unit_stats(geom, forced, cfg)
        expect = geom.kappa_cand.copy()
        expect[0, 0] = np.inf
        assert np.array_equal(stats.kappa, expect)
        blocked = dataclasses.replace(draw, coins=np.ones((cfg.N, cfg.K)))
        stats0 = make_unit_stats(geom, blocked, cfg)
        off = stats0.kappa.copy()
        off[0, 0] = 0.0
        assert np.all(off == 0.0)

    def test_nlos_inter_regime_zeroes_other_panels_only(self, tiny_world):
        cfg = tiny_world.config
        geom = tiny_world.unit(0, 0)
        draw = draw_unit_block(np.random.default_rng(3), cfg.N, cfg.K, cfg.P, cfg.M)
        forced = dataclasses.replace(draw, coins=np.zeros((cfg.N, cfg.K)))
        stats = make_unit_stats(geom, forced, cfg, interference="nlos_inter")
        assert np.all(stats.kappa[1] == 0.0)
        assert stats.kappa[0, 1] == geom.kappa_cand[0, 1]
        assert stats.kappa[0, 0] == np.inf
        with pytest.raises(ValueError, match="regime"):
            make_unit_stats(geom, draw, cfg, interference="bogus")

    def test_sampling_respects_mixing(self, tiny_world):
        cfg = tiny_world.config
        geom = tiny_world.unit(0, 0)
        draw = draw_unit_block(np.random.default_rng(4), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        ch = sample_unit_channels(stats, draw.g)
        assert np.array_equal(ch[0, 0], geom.hlos[0, 0])  # serving slot exact
        scattered = np.einsum("ljmp,ljp->ljm", stats.roots, draw.g)
        manual = stats.hbar + stats.nlos_scale[:, :, np.newaxis] * scattered
        assert np.array_equal(ch, manual)


class TestUnitGeometryOracle:
    """Every link of the vectorized unit geometry against the per-link LOS
    channel of ``reference.los_link``."""

    @pytest.mark.parametrize("M", [16, 900])
    def test_every_link_matches_los_channel(self, M):
        cfg = SystemConfig(M=M, K=3, N=4, P=4, seed=21)
        dep = place_devices(cfg, LayoutConfig(name="quad"), placement_rng(cfg.seed, 0))
        for n, k in ((0, 0), (2, 1), (3, 2)):
            geom = build_unit_geometry(dep, cfg, n, k)
            antennas = np.array([reference.antenna_position(dep, cfg, n, k, m) for m in range(M)])
            assert_close(unit_antenna_grid(dep, cfg, n, k), antennas, rtol=0, atol=1e-12)
            for l in range(cfg.N):
                for j in range(cfg.K):
                    d, h, power = reference.los_link(dep.devices[l, j], antennas, dep.frames[n], cfg.lam)
                    assert_close(geom.distances[l, j], d, rtol=1e-14)
                    assert_close(geom.hlos[l, j], h, rtol=1e-12)
                    assert_close(geom.beta2_sum[l, j], power, rtol=1e-12)

    @pytest.mark.parametrize("M", [16, 900])
    def test_phase_equals_complex_form_bit_for_bit(self, M):
        cfg = SystemConfig(M=M, K=3, N=4, seed=22)
        dep = place_devices(cfg, LayoutConfig(name="quad"), placement_rng(cfg.seed, 0))
        d = build_unit_geometry(dep, cfg, 1, 0).distances
        assert np.array_equal(los_phase(d, cfg.lam), reference.los_phase(d, cfg.lam))

    @given(
        d=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=64),
        lam=st.floats(1e-3, 10.0),
    )
    def test_phase_equals_complex_form_for_any_distance(self, d, lam):
        d = np.asarray(d)
        assert np.array_equal(los_phase(d, lam), reference.los_phase(d, lam))


class TestSliceStats:
    def test_prefix_views_match_smaller_world(self, tiny_cfg, tiny_world):
        cfg, dep = tiny_world.config, tiny_world.deployment
        geom4 = tiny_world.unit(0, 0)
        draw = draw_unit_block(np.random.default_rng(6), cfg.N, cfg.K, cfg.P, cfg.M)
        stats4 = make_unit_stats(geom4, draw, cfg)
        sliced = slice_stats(stats4, 1)

        small = reference.subset(dep, 1)
        geom1 = build_unit_geometry(small, cfg, 0, 0)
        draw1 = dataclasses.replace(
            draw, coins=draw.coins[:, :1], angles=draw.angles[:, :1], g=draw.g[:, :1]
        )
        stats1 = make_unit_stats(geom1, draw1, cfg)

        assert np.allclose(sliced.hbar, stats1.hbar, rtol=1e-15, atol=0)
        assert np.allclose(sliced.roots, stats1.roots, rtol=1e-15, atol=0)
        assert np.array_equal(sliced.kappa, stats1.kappa)
        rho_p, rho_d = tiny_world.rho_p[:, :1], tiny_world.rho_d[:, :1]
        t1 = BlockKernel(sliced, draw1.g, draw1.w, rho_p, rho_d).terms(2)
        t2 = BlockKernel(stats1, draw1.g, draw1.w, rho_p, rho_d).terms(2)
        assert_close(t1.I, t2.I, rtol=1e-12)
        assert_close(t1.gamma, t2.gamma, rtol=1e-12)

    def test_inactive_pilot_index_rejected(self, tiny_world):
        cfg = tiny_world.config
        geom = tiny_world.unit(0, 1)
        draw = draw_unit_block(np.random.default_rng(7), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        with pytest.raises(ValueError, match="pilot index"):
            slice_stats(stats, 1)

    def test_geometry_slice_rejects_inactive_pilot_index(self, tiny_world):
        with pytest.raises(ValueError, match="pilot index"):
            slice_geometry(tiny_world.unit(0, 1), 1)

    @given(
        N=st.sampled_from([1, 2, 4]),
        pool=st.integers(2, 6),
        side=st.integers(2, 5),
        P=st.integers(1, 4),
        interference=st.sampled_from(["rician", "nlos_inter"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_first_k_build_equals_sliced_pool_build(
        self, N, pool, side, P, interference, seed, data
    ):
        n = data.draw(st.integers(0, N - 1), label="n")
        k = data.draw(st.integers(0, pool - 1), label="k")
        K = data.draw(st.integers(k + 1, pool), label="K")
        world, draw, pooled = _random_unit(N, pool, side, P, seed, n, k, interference)
        cfg = world.config
        sliced = slice_stats(pooled, K)

        # geometry of a K-device placement, and the first-K draw
        geom_k = build_unit_geometry(
            reference.subset(world.deployment, K), dataclasses.replace(cfg, K=K), n, k
        )
        geom_sliced = slice_geometry(world.unit(n, k), K)
        for field in ("distances", "hlos", "beta2_sum", "kappa_cand", "p_los"):
            assert np.array_equal(getattr(geom_k, field), getattr(geom_sliced, field)), field
        draw_k = dataclasses.replace(
            draw, coins=draw.coins[:, :K], angles=draw.angles[:, :K], g=draw.g[:, :K]
        )
        fresh = make_unit_stats(geom_k, draw_k, cfg, interference)
        for field in ("kappa", "nlos_scale", "hbar", "roots"):
            assert np.array_equal(getattr(fresh, field), getattr(sliced, field)), field

        rho_p, rho_d = world.rho_p[:, :K], world.rho_d[:, :K]
        a = BlockKernel(sliced, draw_k.g, draw.w, rho_p, rho_d)
        b = BlockKernel(fresh, draw_k.g, draw.w, rho_p, rho_d)
        assert_close(b.gamma(K), a.gamma(K), rtol=1e-12)
        assert_close(b.gamma_perfect, a.gamma_perfect, rtol=1e-12)


def _pilot_block_terms(stats, g, w, rho_p, rho_d, t):
    """Matched-filter terms of unit (n, k) from the full M x t pilot block:
    every device of every panel sends its DFT pilot with amplitude
    sqrt(t rho_p), the noise block is w psi_k^T (so LS despreading turns it
    into exactly w / sqrt(t rho_p[n, k])), and the filter is the LS
    estimate. Returns the reference decomposition plus gamma."""
    n, k = stats.geom.n, stats.geom.k
    channels = sample_unit_channels(stats, g)
    book = reference.pilot_book(t, channels.shape[1])
    psi = book[:, k]
    Y = reference.received_block(channels, book, rho_p, np.outer(w, psi))
    h_hat = reference.ls_despread(Y, psi, t, rho_p[n, k])
    terms = reference.interference_terms(h_hat, stats.geom.hlos[n, k], channels, rho_d, n, k)
    terms["gamma"] = rho_d[n, k] * terms["S"] / terms["I"]
    return terms


class TestBlockKernel:
    @pytest.mark.parametrize("t", [2, 8, 100])
    def test_kernel_matches_direct_evaluation(self, tiny_world, t):
        cfg = tiny_world.config
        n, k = 0, 0
        geom = tiny_world.unit(n, k)
        draw = draw_unit_block(np.random.default_rng(8), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        terms = BlockKernel(stats, draw.g, draw.w, tiny_world.rho_p, tiny_world.rho_d).terms(t)

        # the estimation error drawn from its definition: ratio-weighted
        # same-pilot channels of the other panels plus the shrunk noise
        channels = sample_unit_channels(stats, draw.g)
        ratios = tiny_world.rho_p[:, k] / tiny_world.rho_p[n, k]
        contams = np.delete(channels[:, k], n, axis=0)
        e = np.sqrt(np.delete(ratios, n)) @ contams + draw.w / math.sqrt(t * tiny_world.rho_p[n, k])
        bd = reference.interference_terms(
            geom.hlos[n, k] + e, geom.hlos[n, k], channels, tiny_world.rho_d, n, k
        )

        assert_close(terms.X, bd["X"], rtol=1e-10)
        assert_close(terms.Z, bd["Z"], rtol=1e-10)
        assert_close(terms.I, bd["I"], rtol=1e-10)
        assert_close(terms.signal, bd["S"], rtol=1e-12)
        assert_close(
            terms.gamma, tiny_world.rho_d[n, k] * bd["S"] / bd["I"], rtol=1e-10
        )
        # leakage grid: serving slot zeroed, rest matches the breakdown
        assert terms.Y[n, k] == 0.0
        assert_close(terms.Y, bd["Y"], rtol=1e-10)

    @pytest.mark.parametrize("interference", ["rician", "nlos_inter"])
    @pytest.mark.parametrize("t_over_K", [1, 2, 5])
    def test_kernel_matches_full_pilot_block(self, quad_world, interference, t_over_K):
        # every same-panel pilot must cancel in the despread block, which
        # the kernel's shortcut assumes without forming the block
        world = quad_world
        cfg = world.config
        K, t = cfg.K, t_over_K * cfg.K
        for n, k in ((0, 1), (3, 1), (2, 0)):
            draw = draw_unit_block(np.random.default_rng(40 + n), cfg.N, K, cfg.P, cfg.M)
            stats = make_unit_stats(world.unit(n, k), draw, cfg, interference)
            terms = BlockKernel(stats, draw.g, draw.w, world.rho_p, world.rho_d).terms(t)
            ref = _pilot_block_terms(stats, draw.g, draw.w, world.rho_p, world.rho_d, t)
            for name in ("X", "Y", "Z", "I", "gamma"):
                assert_close(getattr(terms, name), ref[name], rtol=1e-10)

    def test_perfect_csi_terms(self, tiny_world):
        cfg = tiny_world.config
        n, k = 1, 0
        geom = tiny_world.unit(n, k)
        draw = draw_unit_block(np.random.default_rng(10), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        terms = BlockKernel(stats, draw.g, draw.w, tiny_world.rho_p, tiny_world.rho_d).terms(2)

        channels = sample_unit_channels(stats, draw.g)
        bd = reference.interference_terms(
            geom.hlos[n, k], geom.hlos[n, k], channels, tiny_world.rho_d, n, k
        )
        assert_close(terms.I_perfect, bd["I"], rtol=1e-10)
        assert_close(
            terms.gamma_perfect, tiny_world.rho_d[n, k] * bd["S"] / bd["I"], rtol=1e-10
        )

    def test_kernel_reuse_across_pilot_lengths(self, tiny_world):
        cfg = tiny_world.config
        geom = tiny_world.unit(0, 0)
        draw = draw_unit_block(np.random.default_rng(11), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        rho_p, rho_d = tiny_world.rho_p, tiny_world.rho_d
        kernel = BlockKernel(stats, draw.g, draw.w, rho_p, rho_d)
        for t in (2, 16, 64):
            fresh = BlockKernel(stats, draw.g, draw.w, rho_p, rho_d).terms(t)
            reused = kernel.terms(t)
            assert reused.I == fresh.I
            assert reused.gamma == fresh.gamma

    def test_noise_term_shrinks_with_t(self, tiny_world):
        cfg = tiny_world.config
        geom = tiny_world.unit(0, 0)
        draw = draw_unit_block(np.random.default_rng(12), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, draw, cfg)
        kernel = BlockKernel(stats, draw.g, draw.w, tiny_world.rho_p, tiny_world.rho_d)
        z = [kernel.terms(t).Z for t in (2, 8, 32, 128, 10**9)]
        # Z converges to the noise-free filter norm as training energy grows
        assert_close(z[-1], kernel.u_norm2, rtol=1e-4)
        gaps = np.abs(np.asarray(z) - kernel.u_norm2)
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


class TestBlockKernelProperties:
    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 3),
        side=st.integers(2, 6),
        P=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_products_match_einsum_oracle(self, N, K, side, P, seed, data):
        n = data.draw(st.integers(0, N - 1), label="n")
        k = data.draw(st.integers(0, K - 1), label="k")
        world, draw, stats = _random_unit(N, K, side, P, seed, n, k)
        kernel = BlockKernel(stats, draw.g, draw.w, world.rho_p, world.rho_d)
        A, C, A_pure = reference.kernel_products(stats, draw.g, draw.w, world.rho_p)
        for got, want in ((kernel.A, A), (kernel.C, C)):
            assert_close(got, want, rtol=1e-12, atol=1e-13 * np.max(np.abs(want)))
        Y_pure = np.abs(A_pure) ** 2
        Y_pure[n, k] = 0.0
        I_perfect = float(np.sum(world.rho_d * Y_pure)) + stats.geom.own_power
        assert_close(kernel.I_perfect, I_perfect, rtol=1e-12)

    @given(
        N=st.sampled_from([1, 2, 4]),
        K=st.integers(1, 3),
        side=st.integers(2, 5),
        P=st.integers(1, 4),
        t=st.integers(1, 500),
        factor=st.floats(1.0, 1e3),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_louder_interferer_never_raises_sinr(self, N, K, side, P, t, factor, seed, data):
        n = data.draw(st.integers(0, N - 1), label="n")
        k = data.draw(st.integers(0, K - 1), label="k")
        others = [(l, j) for l in range(N) for j in range(K) if (l, j) != (n, k)]
        if not others:
            return
        l, j = data.draw(st.sampled_from(others), label="interferer")
        world, draw, stats = _random_unit(N, K, side, P, seed, n, k)
        louder = world.rho_d.copy()
        louder[l, j] *= factor
        base = BlockKernel(stats, draw.g, draw.w, world.rho_p, world.rho_d)
        loud = BlockKernel(stats, draw.g, draw.w, world.rho_p, louder)
        assert loud.gamma(t) <= base.gamma(t)
        assert loud.gamma_perfect <= base.gamma_perfect


class TestLinkWorld:
    def test_unit_cache_returns_same_object(self, tiny_world):
        assert tiny_world.unit(0, 0) is tiny_world.unit(0, 0)

    def test_power_control_grids(self, tiny_world):
        assert tiny_world.rho_p.shape == (2, 2)
        assert np.all(tiny_world.rho_p > 0)
        assert_close(tiny_world.rho_d / tiny_world.rho_p, np.full((2, 2), 10**0.3))

    def test_own_power_matches_geometry(self, tiny_world):
        geom = tiny_world.unit(1, 1)
        assert_close(geom.own_power, geom.beta2_sum[1, 1], rtol=0, atol=0)
        assert geom.own_power > 0
