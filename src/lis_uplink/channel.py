"""Gaussian draws, Rician mixing and correlation roots.

Every link channel is a LOS mean plus a correlated scattered component
R g: R is an M x P correlation root whose columns are planar-array
steering vectors, one per scattered path, attenuated by the per-antenna
path loss; g is a standard complex Gaussian draw. A planar steering
vector is d_v kron d_h, so ``CorrelationRoot`` keeps R in that factored
form: two (side, P) phase ramps and the (M,) path loss per link, never
the (M, P) matrix. ``CorrelationRoot.dense`` builds the matrix for the
closed-form moments. The LOS geometry and the per-unit sampling live in
``links``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


def cgauss(rng, *shapes):
    """Standard circularly-symmetric complex Gaussian draws, unit variance
    per complex entry: one array per shape (the array alone for one shape).

    One ``standard_normal`` call per generator draws every shape, its real
    block and then its imaginary block, so the stream is consumed as by
    two calls per shape in that order. Scaling each part by 1/sqrt(2) is
    (re + 1j im) / sqrt(2) bit for bit: numpy divides a complex number by a
    real one by multiplying with its reciprocal. ``rng`` may also be a sized
    iterable of generators (``links.Substreams``), each filling one row of a
    new leading axis before the next is taken."""
    batched = not isinstance(rng, np.random.Generator)
    rngs = rng if batched else [rng]
    shapes = [(s,) if isinstance(s, (int, np.integer)) else tuple(s) for s in shapes]
    parts = np.empty((len(rngs), 2 * sum(map(math.prod, shapes))))
    for row, gen in zip(parts, rngs):
        gen.standard_normal(out=row)
    parts *= 1.0 / math.sqrt(2.0)
    out, start = [], 0
    for shape in shapes:
        z, size = np.empty((len(rngs), *shape), dtype=complex), math.prod(shape)
        block, start = parts[:, start : start + 2 * size], start + 2 * size
        flat = z.reshape(len(rngs), size)
        flat.real, flat.imag = block[:, :size], block[:, size:]
        out.append(z if batched else z[0])
    return out[0] if len(out) == 1 else tuple(out)


@dataclass(frozen=True)
class CorrelationRoot:
    """Correlation roots of a batch of links in Kronecker form.

    The (M, P) root of one link is diag(pathloss) [ramp_v[:, p] kron
    ramp_h[:, p]]_p, so only the two (side, P) ramps and the (M,) path
    loss are stored: 2 side P complex entries and M reals per link against
    M P complex entries for the dense root.
    """

    ramp_v: np.ndarray    # (..., side, P) vertical ramps, times alpha_p / sqrt(M)
    ramp_h: np.ndarray    # (..., side, P) horizontal ramps
    pathloss: np.ndarray  # (..., M) per-antenna amplitude d^(-beta/2)

    @property
    def nbytes(self) -> int:
        """Bytes held by the three factors."""
        return self.ramp_v.nbytes + self.ramp_h.nbytes + self.pathloss.nbytes

    def dense(self) -> np.ndarray:
        """The (..., M, P) root matrices."""
        # d_v kron d_h: entry m = iv * side + ih, vertical index major
        *batch, side, P = self.ramp_v.shape
        out = np.empty((*batch, side, side, P), dtype=complex)
        np.multiply(self.ramp_v[..., :, np.newaxis, :], self.ramp_h[..., np.newaxis, :, :],
                    out=out)
        out = out.reshape(*batch, side * side, P)
        out *= self.pathloss[..., :, np.newaxis]
        return out


def root_matrix_from_angles(
    angles: np.ndarray, distances: np.ndarray, config: SystemConfig
) -> CorrelationRoot:
    """Vectorized correlation-root assembly, in factored form.

    angles: (..., P, 2) path angle pairs (theta_v, theta_h);
    distances: (..., M) per-antenna distances for the same links.
    Returns the roots diag(d^-beta/2) @ [alpha_p * steer_p] of every link,
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
    return CorrelationRoot(
        ramp_v=ramp_v,
        ramp_h=_phase_ramp(phi_h, side, step),
        pathloss=distances ** (-config.beta_PL / 2.0),
    )


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
