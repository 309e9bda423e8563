"""Matched-filter SINR decomposition and spectral efficiency: the per-filter
decomposition of ``tests/reference.py``, ``BlockKernel``'s terms on top of
the full pilot-block estimate, and the panel SSE of the sampled curves."""

import math

import numpy as np

from lis_uplink import (
    BlockKernel,
    build_moment_set,
    build_unit_geometry,
    cgauss,
    draw_unit_block,
    make_unit_stats,
    sample_unit_channels,
)
from lis_uplink.asymptotics import sse

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
    t = world.config.pilot_len
    book = reference.pilot_book(t, world.config.K)
    Y = reference.received_block(channels, book, world.rho_p, cgauss(rng, (world.config.M, t)))
    return reference.ls_despread(Y, book[:, k], t, world.rho_p[n, k])


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
        cfg = tiny_world.config
        n, k = 0, 1
        draw = draw_unit_block(np.random.default_rng(21), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(tiny_world.unit(n, k), draw, cfg)
        rho_d = tiny_world.rho_d
        terms = BlockKernel(stats, draw.g, draw.w, tiny_world.rho_p, rho_d).terms(cfg.pilot_len)
        re = rho_d[n, k] * terms.X + float(np.sum(rho_d * terms.Y)) + terms.Z
        assert abs(re - terms.I) <= 1e-10 * terms.I
        assert terms.signal > 0 and terms.X >= 0 and terms.Z > 0
        assert np.all(terms.Y >= 0)

    def test_extra_interferer_weakly_lowers_sinr(self, tiny_world):
        cfg = tiny_world.config
        n, k = 0, 0
        draw = draw_unit_block(np.random.default_rng(23), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(tiny_world.unit(n, k), draw, cfg)
        muted = tiny_world.rho_d.copy()
        muted[1, :] = 0.0  # silence the other panel
        full = BlockKernel(stats, draw.g, draw.w, tiny_world.rho_p, tiny_world.rho_d)
        quiet = BlockKernel(stats, draw.g, draw.w, tiny_world.rho_p, muted)
        assert full.gamma_perfect <= quiet.gamma_perfect

    def test_mean_alignment_matches_closed_form(self, tiny_world):
        # full pilot-block pipeline, conditioned on one block's gates and
        # angles, against the closed-form second moment of X
        cfg, dep = tiny_world.config, tiny_world.deployment
        n, k = 0, 0
        geom = build_unit_geometry(dep, cfg, n, k)
        block = draw_unit_block(np.random.default_rng(31), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(geom, block, cfg)
        t = cfg.pilot_len
        moments = build_moment_set(
            stats, t, tiny_world.rho_p, tiny_world.rho_d,
            z_own=dep.devices_local[n, k, 2], L=cfg.L,
        )
        rng = np.random.default_rng(32)
        n_draws = 10_000
        xs = np.empty(n_draws)
        for i in range(n_draws):
            g = cgauss(rng, (cfg.N, cfg.K, cfg.P))
            channels = sample_unit_channels(stats, g)
            h_hat = _ls_filter(tiny_world, channels, n, k, rng)
            xs[i] = abs(np.vdot(h_hat - geom.hlos[n, k], geom.hlos[n, k])) ** 2
        se = xs.std(ddof=1) / math.sqrt(n_draws)
        assert abs(xs.mean() - moments.mu_X()) < 3.0 * se


class TestInstantaneousSinr:
    def test_scales_with_rho(self, tiny_world):
        # with exact CSI the serving device does not interfere with itself,
        # so its SINR is linear in its own data SNR
        cfg = tiny_world.config
        n, k = 1, 0
        draw = draw_unit_block(np.random.default_rng(24), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(tiny_world.unit(n, k), draw, cfg)
        louder = tiny_world.rho_d.copy()
        louder[n, k] *= 3.0
        base = BlockKernel(stats, draw.g, draw.w, tiny_world.rho_p, tiny_world.rho_d)
        loud = BlockKernel(stats, draw.g, draw.w, tiny_world.rho_p, louder)
        assert_close(loud.gamma_perfect, 3.0 * base.gamma_perfect, rtol=1e-12)
        assert_close(base.gamma_perfect, base.rho_d_own * base.signal / base.I_perfect, rtol=1e-12)


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
