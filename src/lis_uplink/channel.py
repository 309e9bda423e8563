"""Gaussian draws, Rician mixing and correlation-root assembly.

Every link channel is a LOS mean plus a correlated scattered component
R g: R is an M x P correlation root whose columns are planar-array
steering vectors, one per scattered path, attenuated by the per-antenna
path loss; g is a standard complex Gaussian draw. The LOS geometry and
the per-unit sampling live in ``links``.
"""

from __future__ import annotations

import math

import numpy as np

from .config import SystemConfig


def cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian draws, unit variance
    per complex entry. Real block drawn before imaginary block so the
    stream layout is stable."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def root_matrix_from_angles(
    angles: np.ndarray, distances: np.ndarray, config: SystemConfig
) -> np.ndarray:
    """Vectorized correlation-root assembly.

    angles: (..., P, 2) path angle pairs (theta_v, theta_h);
    distances: (..., M) per-antenna distances for the same links.
    Returns (..., M, P) matrices diag(d^-beta/2) @ [alpha_p * steer_p],
    with alpha_p = sqrt|cos theta_v cos theta_h| and steer_p the planar
    steering vector (1/sqrt(M)) d_v kron d_h whose per-axis phase steps
    are (2 pi delta_L / lambda) * phi, phi_v = sin theta_v and
    phi_h = sin theta_h cos theta_h.
    """
    angles = np.asarray(angles, dtype=float)
    distances = np.asarray(distances, dtype=float)
    theta_v = angles[..., 0]
    theta_h = angles[..., 1]
    phi_v = np.sin(theta_v)                      # (..., P)
    phi_h = np.sin(theta_h) * np.cos(theta_h)    # (..., P)
    alpha = np.sqrt(np.abs(np.cos(theta_v) * np.cos(theta_h)))  # (..., P)

    # progressive phases per axis, (..., side, P); the vertical ramp also
    # carries the path gain and the 1/sqrt(M) normalization
    side = config.m_side
    step = 2.0 * math.pi * config.spacing / config.lam
    ramp_v = _phase_ramp(phi_v, side, step)
    ramp_v *= (alpha / math.sqrt(config.M))[..., np.newaxis, :]
    ramp_h = _phase_ramp(phi_h, side, step)
    # d_v kron d_h: entry m = iv * side + ih, vertical index major
    batch, P = phi_v.shape[:-1], phi_v.shape[-1]
    out = np.empty((*batch, side, side, P), dtype=complex)
    np.multiply(ramp_v[..., :, np.newaxis, :], ramp_h[..., np.newaxis, :, :], out=out)
    out = out.reshape(*batch, config.M, P)
    # the real path loss scales real and imaginary parts alike
    parts = out.view(np.float64)
    parts *= (distances ** (-config.beta_PL / 2.0))[..., :, np.newaxis]
    return out


def _phase_ramp(phi: np.ndarray, side: int, step: float) -> np.ndarray:
    """exp(1j * step * i * phi) for i = 0..side-1 as (..., side, P): running
    products of one unit phasor per path, so only P exponentials per link."""
    ramp = np.empty((*phi.shape[:-1], side, phi.shape[-1]), dtype=complex)
    ramp[..., 0, :] = 1.0
    ramp[..., 1:, :] = np.exp(1j * step * phi)[..., np.newaxis, :]
    return np.cumprod(ramp, axis=-2, out=ramp)


def rician_mixing(kappa: np.ndarray) -> tuple:
    """(LOS scale, NLOS scale) = (sqrt(k/(k+1)), sqrt(1/(k+1))), handling
    kappa = inf (pure LOS) and kappa = 0 (pure scattered)."""
    with np.errstate(invalid="ignore"):
        los = np.where(np.isinf(kappa), 1.0, np.sqrt(kappa / (kappa + 1.0)))
    nlos = np.where(np.isinf(kappa), 0.0, np.sqrt(1.0 / (kappa + 1.0)))
    return los, nlos
