"""Pilot training and LS estimation: the DFT pilot book and the full M x t
pilot-block path of ``tests/reference.py``, and the estimation shortcut
inside ``BlockKernel`` that skips the pilot block."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lis_uplink import (
    BlockKernel,
    LayoutConfig,
    build_unit_geometry,
    cgauss,
    draw_unit_block,
    make_unit_stats,
    place_devices,
    sample_unit_channels,
)

import reference
from conftest import assert_close


class TestPilotBook:
    def test_two_by_two_unitary(self):
        book = reference.pilot_book(2, 2)
        gram = book.conj().T @ book
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_rectangular_gram_identity(self):
        book = reference.pilot_book(8, 3)
        gram = book.conj().T @ book
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert book.shape == (8, 3)

    def test_column_norms_and_views(self):
        book = reference.pilot_book(16, 5)
        for k in range(5):
            assert abs(np.linalg.norm(book[:, k]) - 1.0) < 1e-12

    def test_fourier_entries(self):
        book = reference.pilot_book(4, 3)
        assert_close(book[0, 0], 0.5)
        assert_close(book[1, 1], np.exp(-1j * math.pi / 2.0) / 2.0)
        assert_close(book[2, 1], np.exp(-1j * math.pi) / 2.0)

    def test_short_book_rejected(self):
        with pytest.raises(ValueError, match="t=1"):
            reference.pilot_book(1, 2)

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_orthonormal_property(self, t, K):
        if t < K:
            t, K = K, t
        book = reference.pilot_book(t, K)
        gram = book.conj().T @ book
        assert np.max(np.abs(gram - np.eye(K))) < 1e-12


def _ls(channels, book, snrs, k, rho_own, noise=None):
    """LS estimate of device k's channel on panel 0 from a full pilot block."""
    Y = reference.received_block(channels, book, snrs, noise)
    return reference.ls_despread(Y, book[:, k], book.shape[0], rho_own)


class TestReceivedPilotAndLs:
    def test_single_clean_link_recovers_channel(self):
        M, t = 6, 3
        h = cgauss(np.random.default_rng(0), (1, 1, M))
        est = _ls(h, reference.pilot_book(t, 1), np.array([[2.0]]), 0, 2.0)
        assert_close(est, h[0, 0], rtol=1e-12)
        assert np.max(np.abs(est - h[0, 0])) < 1e-12

    def test_intra_panel_interference_cancels_exactly(self):
        M, K, t = 5, 3, 7
        rng = np.random.default_rng(1)
        h = cgauss(rng, (1, K, M))
        snrs = rng.uniform(0.5, 4.0, size=(1, K))
        book = reference.pilot_book(t, K)
        for k in range(K):
            assert_close(_ls(h, book, snrs, k, snrs[0, k]), h[0, k], rtol=1e-10)

    def test_book_shape_mismatch_rejected(self):
        h = np.zeros((1, 3, 4), complex)
        with pytest.raises(ValueError, match="columns"):
            reference.received_block(h, reference.pilot_book(4, 2), np.ones((1, 3)))

    def test_nonpositive_pilot_snr_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            reference.ls_despread(np.zeros((4, 2)), np.zeros(2), 2, 0.0)

    def test_contaminated_mean_over_noise_draws(self):
        # two panels reusing the book: the estimate's mean is the serving
        # channel plus the same-index channel scaled by the pilot-SNR ratio
        M, K, t, n = 8, 2, 4, 10_000
        rng = np.random.default_rng(2)
        channels = cgauss(rng, (2, K, M))
        snrs = np.array([[2.0, 3.0], [1.0, 5.0]])
        book = reference.pilot_book(t, K)
        k = 0
        acc = np.zeros(M, complex)
        noise_rng = np.random.default_rng(3)
        for _ in range(n):
            acc += _ls(channels, book, snrs, k, snrs[0, k], cgauss(noise_rng, (M, t)))
        mean = acc / n
        expected = channels[0, k] + math.sqrt(snrs[1, k] / snrs[0, k]) * channels[1, k]
        sigma_part = math.sqrt(1.0 / (2.0 * t * snrs[0, k]) / n)  # per real part
        dev = np.concatenate([np.abs(mean.real - expected.real), np.abs(mean.imag - expected.imag)])
        assert np.all(dev < 3.0 * sigma_part), dev.max() / sigma_part

    def test_noise_only_error_variance(self):
        M, t, rho, n = 8, 5, 3.0, 10_000
        h = cgauss(np.random.default_rng(4), (1, 1, M))
        book = reference.pilot_book(t, 1)
        noise_rng = np.random.default_rng(5)
        errs = np.empty((n, M), complex)
        for i in range(n):
            errs[i] = _ls(h, book, np.array([[rho]]), 0, rho, cgauss(noise_rng, (M, t))) - h[0, 0]
        var = np.mean(np.abs(errs) ** 2, axis=0)
        assert np.all(np.abs(var - 1.0 / (t * rho)) < 0.05 / (t * rho))
        assert abs(np.mean(var) * t * rho - 1.0) < 0.02


def _single_panel_unit(cfg, seed):
    """Draw and statistics of unit (0, 0) of a one-panel system."""
    solo = dataclasses.replace(cfg, N=1)
    dep = place_devices(solo, LayoutConfig(name="line"), np.random.default_rng(seed))
    draw = draw_unit_block(np.random.default_rng(seed + 1), 1, solo.K, solo.P, solo.M)
    return draw, make_unit_stats(build_unit_geometry(dep, solo, 0, 0), draw, solo)


class TestDirectErrorSynthesis:
    """``BlockKernel`` draws the estimation error directly from its
    definition, e = sum_l sqrt(rho_p[l, k] / rho_p[n, k]) h_lk + w / sqrt(t
    rho_p[n, k]), and keeps its contamination and noise parts apart."""

    def test_no_contaminators_is_pure_scaled_noise(self, tiny_cfg):
        # one panel: the error is the scaled noise alone
        draw, stats = _single_panel_unit(tiny_cfg, seed=7)
        t = 4
        kernel = BlockKernel(stats, sample_unit_channels(stats, draw.g), draw.w)
        hlos = stats.geom.hlos[0, 0]
        e = draw.w / math.sqrt(t * stats.geom.rho_p[0, 0])
        assert kernel.Xc == 0.0
        assert_close(kernel.terms(t).X, abs(np.vdot(e, hlos)) ** 2, rtol=1e-12)
        assert_close(kernel.terms(t).Z, np.sum(np.abs(hlos + e) ** 2), rtol=1e-12)

    def test_noise_free_is_deterministic_sum(self, tiny_world):
        dep, cfg = tiny_world
        n, k = 1, 1
        draw = draw_unit_block(np.random.default_rng(8), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(dep, cfg, n, k), draw, cfg)
        rho_p = stats.geom.rho_p
        ch = sample_unit_channels(stats, draw.g)
        kernel = BlockKernel(stats, ch, draw.w)
        contam = math.sqrt(rho_p[0, k] / rho_p[n, k]) * ch[0, k]
        hlos = stats.geom.hlos[n, k]
        assert_close(kernel.Xc, np.vdot(contam, hlos), rtol=1e-12)
        assert_close(kernel.u_norm2, np.sum(np.abs(hlos + contam) ** 2), rtol=1e-12)


    def test_direct_and_matrix_paths_agree_statistically(self, tiny_world):
        # the kernel's noise term w / sqrt(t rho_p) against despreading a
        # white M x t noise block: independent draws on both paths, same
        # block statistics; the sampled X, Z and I must agree in mean
        dep, cfg = tiny_world
        n, k, t, draws = 0, 0, 2, 4000
        block = draw_unit_block(np.random.default_rng(12), cfg.N, cfg.K, cfg.P, cfg.M)
        stats = make_unit_stats(build_unit_geometry(dep, cfg, n, k), block, cfg)
        rho_p, rho_d = stats.geom.rho_p, stats.geom.rho_d
        hlos = stats.geom.hlos[n, k]
        book = reference.pilot_book(t, cfg.K)
        direct = np.empty((draws, 3))
        matrix = np.empty((draws, 3))
        rng_direct, rng_matrix = np.random.default_rng(13), np.random.default_rng(14)
        for i in range(draws):
            g = cgauss(rng_direct, (cfg.N, cfg.K, cfg.P))
            terms = BlockKernel(stats, sample_unit_channels(stats, g),
                                cgauss(rng_direct, cfg.M)).terms(t)
            direct[i] = terms.X, terms.Z, terms.I
            channels = sample_unit_channels(stats, cgauss(rng_matrix, (cfg.N, cfg.K, cfg.P)))
            h_hat = _ls(channels, book, rho_p, k, rho_p[n, k], cgauss(rng_matrix, (cfg.M, t)))
            bd = reference.interference_terms(h_hat, hlos, channels, rho_d, n, k)
            matrix[i] = bd["X"], bd["Z"], bd["I"]
        se = np.sqrt((direct.var(axis=0, ddof=1) + matrix.var(axis=0, ddof=1)) / draws)
        assert np.all(np.abs(direct.mean(axis=0) - matrix.mean(axis=0)) < 4.0 * se)
