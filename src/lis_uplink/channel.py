"""Gaussian draws, Rician mixing and correlation roots.

Every link channel is a LOS mean plus a correlated scattered component
R g: R is an M x P correlation root whose columns are planar-array
steering vectors, one per scattered path, attenuated by the per-antenna
path loss; g is a standard complex Gaussian draw. A planar steering
vector is d_v kron d_h, so ``CorrelationRoot`` keeps R in that factored
form: two (side, P) phase ramps and the (M,) path loss per link, never
the (M, P) matrix. ``CorrelationRoot.dense`` builds the matrix for the
closed-form moments. Every phase in the package, LOS vectors included,
is a ``half_angle_phasor``: one tangent per entry, no cos, sin or complex
exp, and each ramp is filled by doubling from one phasor per path, in a
side-major buffer so that numpy copies no source rows; a root holds
(..., side, P) views of its ramp buffers. The LOS geometry and the
per-unit sampling live in ``links``.
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
    iterable of generators (``links.substreams``), each filling one row of a
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


def cgauss_prefix(z: np.ndarray, size: int) -> np.ndarray:
    """``cgauss``'s (..., size) draw for a last shape (size,) from the state
    where it drew z (..., n) for (n,), size <= n: z's first 2 size normals
    (its real block, then its imaginary block), bit for bit."""
    n = z.shape[-1]
    parts = np.concatenate((z.real[..., : 2 * size], z.imag[..., : max(0, 2 * size - n)]), axis=-1)
    out = np.empty(parts.shape[:-1] + (size,), dtype=complex)
    out.real, out.imag = parts[..., :size], parts[..., size:]
    return out


@dataclass(frozen=True)
class CorrelationRoot:
    """Correlation roots of a batch of links in Kronecker form.

    The (M, P) root of one link is diag(pathloss) [ramp_v[:, p] kron
    ramp_h[:, p]]_p, so only the two (side, P) ramps and the (M,) path
    loss are stored: 2 side P complex entries and M reals per link against
    M P complex entries for the dense root. ``root_matrix_from_angles``
    gives each ramp as a view of a side-major buffer (``_phase_ramp``),
    which the sampler and ``dense`` read in place.
    """

    ramp_v: np.ndarray    # (..., side, P) vertical ramps, times alpha_p / sqrt(M)
    ramp_h: np.ndarray    # (..., side, P) horizontal ramps
    pathloss: np.ndarray  # (..., M) per-antenna amplitude d^(-beta/2)

    @property
    def nbytes(self) -> int:
        """Bytes held by the three factors."""
        return self.ramp_v.nbytes + self.ramp_h.nbytes + self.pathloss.nbytes

    def dense(self) -> np.ndarray:
        """The (..., M, P) roots, a view of a contiguous (M, ..., P) buffer."""
        # d_v kron d_h (m = iv * side + ih) off the side-major ramps, path loss on a real view
        *batch, side, P = self.ramp_v.shape
        out = np.empty((side, side, *batch, P), dtype=complex)
        v, h = np.moveaxis(self.ramp_v, -2, 0), np.moveaxis(self.ramp_h, -2, 0)
        np.multiply(v[:, np.newaxis], h, out=out)
        flat = out.reshape(side * side, *batch, P).view(np.float64)
        flat *= np.moveaxis(self.pathloss, -1, 0)[..., np.newaxis]
        return np.moveaxis(flat.view(complex), 0, -2)


def half_angle_phasor(h: np.ndarray, gain=1.0, den=1.0, out=None) -> np.ndarray:
    """gain / den * exp(2j h) as (1 - t^2) q + 2j t q, q = gain / (den (1 + t^2)),
    from t = tan(h), overwriting the float array `h`: one divide per entry,
    written into `out`, a complex array or the (real, imag) pair of float
    arrays (a new complex array by default).
    numpy's float64 tan is SIMD where it dispatches AVX-512 (libm
    elsewhere), so the result matches the complex form to ~1e-16 but may
    differ between hosts by a few ulp; it does not depend on how `h` is
    sliced."""
    t = np.tan(h, out=h)
    out = np.empty(t.shape, dtype=complex) if out is None else out
    re, im = (out.real, out.imag) if isinstance(out, np.ndarray) else out
    np.multiply(t, t, out=re)
    np.add(re, 1.0, out=im)
    im *= den
    np.divide(gain, im, out=im)
    np.subtract(1.0, re, out=re)
    re *= im
    im *= np.multiply(t, 2.0, out=t)
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
    # sin|theta| + j cos|theta| on half the complement pi/2 - |theta| (whose
    # low part is cos(pi/2) in float): cos keeps its relative precision up to
    # endfire, where alpha's square root magnifies an error; sin needs ~1e-16
    trig = half_angle_phasor((math.pi / 2.0 - np.abs(angles) + math.cos(math.pi / 2.0)) * 0.5)
    cos, sin = trig.imag, np.copysign(trig.real, angles)
    phi_h = sin[..., 1] * cos[..., 1]
    alpha = np.sqrt(np.abs(cos[..., 0] * cos[..., 1]))

    # progressive phases per axis, (..., side, P); the vertical ramp's row
    # 0 carries the path gain and the 1/sqrt(M) normalization
    side = config.m_side
    step = 2.0 * math.pi * config.spacing / config.lam
    return CorrelationRoot(
        ramp_v=_phase_ramp(sin[..., 0], side, step, alpha / math.sqrt(config.M)),
        ramp_h=_phase_ramp(phi_h, side, step),
        pathloss=distances ** (-config.beta_PL / 2.0),
    )


def _phase_ramp(phi: np.ndarray, side: int, step: float, gain=1.0) -> np.ndarray:
    """gain * exp(1j * step * i * phi) for i = 0..side-1 as (..., side, P),
    by doubling: row 0 is the gain and rows n..2n-1 are rows 0..n-1 times
    z^n, with z = exp(1j * step * phi) one phasor per path. The rows are
    filled in a side-major (side, ..., P) buffer, where each step writes
    one contiguous block from another that cannot overlap it, so numpy
    copies no source rows; the result is a view of that buffer."""
    ramp = np.empty((side, *phi.shape), dtype=complex)
    ramp[0] = gain
    z, n = half_angle_phasor(phi * (0.5 * step)), 1
    while n < side:
        np.multiply(ramp[:min(n, side - n)], z, out=ramp[n:2 * n])
        n, z = 2 * n, z * z
    return ramp.transpose(*range(1, phi.ndim), 0, phi.ndim)  # (side, ..., P) -> (..., side, P)


def rician_mixing(kappa: np.ndarray) -> tuple:
    """(LOS scale, NLOS scale) = (sqrt(k/(k+1)), sqrt(1/(k+1))), handling
    kappa = inf (pure LOS) and kappa = 0 (pure scattered)."""
    with np.errstate(invalid="ignore"):
        los = np.where(np.isinf(kappa), 1.0, np.sqrt(kappa / (kappa + 1.0)))
    nlos = np.where(np.isinf(kappa), 0.0, np.sqrt(1.0 / (kappa + 1.0)))
    return los, nlos
