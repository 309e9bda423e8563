"""Matched-filter SINR decomposition and spectral efficiency: the per-filter
decomposition of ``tests/reference.py``, ``BlockKernel``'s terms on top of
the full pilot-block estimate, and the one SE formula of the panel and
network curves."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from lis_uplink import (
    BlockKernel,
    build_moment_set,
    build_unit_geometry,
    cgauss,
    draw_unit_block,
    make_unit_stats,
    sample_unit_channels,
    transmit_snrs,
)
from lis_uplink.asymptotics import sse
from lis_uplink.links import exact_sinr

import reference
from conftest import assert_close


class TestDesiredPower:
    def test_uniform_gains(self):
        amps = np.full(7, 0.3)
        assert_close(reference.desired_power(amps), (7 * 0.09) ** 2)

    def test_single_unit_gain(self):
        assert reference.desired_power(np.array([1.0])) == 1.0

    def test_accepts_complex_vector(self):
        amps = np.array([0.2, 0.5, 0.1])
        phases = np.exp(1j * np.array([0.3, -1.2, 2.0]))
        assert_close(
            reference.desired_power(amps * phases), reference.desired_power(amps), rtol=1e-12
        )


def _ls_filter(world, channels, n, k, rng):
    """LS estimate of unit (n, k)'s serving channel from a full noisy pilot
    block of every device toward this unit."""
    dep, cfg = world
    t = cfg.pilot_len
    rho_p, _ = transmit_snrs(dep, cfg)
    book = reference.pilot_book(t, cfg.K)
    Y = reference.received_block(channels, book, rho_p, cgauss(rng, (cfg.M, t)))
    return reference.ls_despread(Y, book[:, k], t, rho_p[n, k])


class TestInterferencePower:
    def test_perfect_csi_single_device(self):
        h = cgauss(np.random.default_rng(0), 8)
        bd = reference.interference_terms(h, h, h[np.newaxis, np.newaxis], np.ones((1, 1)), 0, 0)
        norm2 = float(np.sum(np.abs(h) ** 2))
        assert_close(bd["I"], norm2, rtol=1e-12)
        assert_close(bd["Z"], norm2, rtol=1e-12)
        assert bd["X"] == 0.0
        assert np.all(bd["Y"] == 0.0)
        assert_close(3.0 * bd["S"] / bd["I"], 3.0 * norm2, rtol=1e-12)

    def test_orthogonal_intra_channel_leaks_nothing(self):
        M = 4
        h_hat = np.zeros(M, complex)
        h_hat[0] = 1.0
        intra = np.zeros(M, complex)
        intra[1] = 5.0
        channels = np.stack([h_hat, intra])[np.newaxis]  # (1, 2, M)
        bd = reference.interference_terms(h_hat, h_hat, channels, np.ones((1, 2)), 0, 0)
        assert bd["Y"].shape == (1, 2)
        assert bd["Y"][0, 1] == 0.0

    def test_reassembly_identity(self, tiny_world):
        # the kernel's composite I is the rho-weighted sum of its parts
        dep, cfg = tiny_world
        n, k = 0, 1
        draw = draw_unit_block(np.random.default_rng(21), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(dep, cfg, n, k), draw, cfg)
        rho_d = stats.geom.rho_d
        kernel = BlockKernel(stats, sample_unit_channels(stats, draw.g), draw.w)
        terms = kernel.terms(cfg.pilot_len)
        re = rho_d[n, k] * terms.X + float(np.sum(rho_d * terms.Y)) + terms.Z
        assert abs(re - terms.I) <= 1e-10 * terms.I
        assert kernel.signal > 0 and terms.X >= 0 and terms.Z > 0
        assert np.all(terms.Y >= 0)

    def test_extra_interferer_weakly_lowers_sinr(self, tiny_world):
        dep, cfg = tiny_world
        n, k = 0, 0
        draw = draw_unit_block(np.random.default_rng(23), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(dep, cfg, n, k), draw, cfg)
        muted = stats.geom.rho_d.copy()
        muted[1, :] = 0.0  # silence the other panel
        channels = sample_unit_channels(stats, draw.g)
        full = exact_sinr(stats, channels)
        quiet = exact_sinr(reference.with_budget(stats, rho_d=muted), channels)
        assert full <= quiet

    def test_mean_alignment_matches_closed_form(self, tiny_world):
        # full pilot-block pipeline, conditioned on one block's gates and
        # angles, against the closed-form second moment of X
        dep, cfg = tiny_world
        n, k = 0, 0
        geom = build_unit_geometry(dep, cfg, n, k)
        block = draw_unit_block(np.random.default_rng(31), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, block, cfg)
        t = cfg.pilot_len
        moments = build_moment_set(stats)
        rng = np.random.default_rng(32)
        n_draws = 10_000
        xs = np.empty(n_draws)
        for i in range(n_draws):
            g = cgauss(rng, (cfg.N, cfg.K, cfg.P))
            channels = sample_unit_channels(stats, g)
            h_hat = _ls_filter(tiny_world, channels, n, k, rng)
            xs[i] = abs(np.vdot(h_hat - geom.hlos[n, k], geom.hlos[n, k])) ** 2
        se = xs.std(ddof=1) / math.sqrt(n_draws)
        assert abs(xs.mean() - moments.mu_X(t)) < 3.0 * se


class TestInstantaneousSinr:
    def test_scales_with_rho(self, tiny_world):
        # with exact CSI the serving device does not interfere with itself,
        # so its SINR is linear in its own data SNR
        dep, cfg = tiny_world
        n, k = 1, 0
        draw = draw_unit_block(np.random.default_rng(24), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(dep, cfg, n, k), draw, cfg)
        louder = stats.geom.rho_d.copy()
        louder[n, k] *= 3.0
        channels = sample_unit_channels(stats, draw.g)
        base = exact_sinr(stats, channels)
        loud = exact_sinr(reference.with_budget(stats, rho_d=louder), channels)
        assert_close(loud, 3.0 * base, rtol=1e-12)
        hlos = stats.geom.hlos[n, k]
        bd = reference.interference_terms(hlos, hlos, channels, stats.geom.rho_d, n, k)
        kernel = BlockKernel(stats, channels, draw.w)
        assert_close(base, kernel.rho_d_own * kernel.signal / bd["I"], rtol=1e-12)


class TestInstantaneousSse:
    """Panel SSE (1 - t/T) sum_k log2(1 + gamma_k) of the sampled curves."""

    def test_full_training_block_gives_zero(self):
        assert sse(np.array([5.0, 2.0]), t=500, T=500) == 0.0
        assert sse(np.array([np.inf]), t=500, T=500) == 0.0

    def test_half_block_single_device(self):
        assert_close(sse(np.array([1.0]), t=250, T=500), 0.5)

    def test_paper_frame_prelog(self):
        assert_close(sse(np.ones(20), t=20, T=500), 0.96 * 20)

    def test_sum_identity(self):
        gam = np.array([0.5, 3.0, 9.0])
        assert_close(sse(gam, t=10, T=100), 0.9 * np.sum(np.log2(1.0 + gam)), rtol=1e-12)

    @settings(max_examples=200)
    @given(N=st.integers(1, 4), K=st.integers(1, 44), T=st.integers(1, 60), data=st.data())
    def test_one_formula_for_panels_and_networks(self, N, K, T, data):
        # bit for bit: (N, K) SINRs give the device-count oracle's network SE
        # at t = K, and each (K,) row the one-panel sum at any t, with the
        # pilots filling the block (t >= T) and interference-free devices
        g = np.array(data.draw(st.lists(st.floats(0.0, 1e9), min_size=N * K, max_size=N * K)))
        g = g.reshape(N, K)
        if data.draw(st.booleans()):
            g[data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, K - 1))] = math.inf
        assert sse(g, K, T) == reference.nse_of_gammas(g, K, T)
        t = data.draw(st.integers(1, T + 5))
        prelog = 1.0 - t / T
        for row in g:
            want = prelog * float(np.sum(np.log2(1 + row))) if prelog > 0.0 else 0.0
            assert sse(row, t, T) == want
