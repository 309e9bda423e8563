"""Channel synthesis for device-to-unit links.

The serving link is a deterministic free-space LOS channel with per-antenna
distances; interference links are Rician: a scaled LOS mean plus a
correlated scattered component built from P plane-wave steering columns
with per-antenna power-law attenuation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .scenario import Deployment, unit_antenna_grid

FOUR_PI = 4.0 * math.pi


def cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian draws, unit variance
    per complex entry. Real block drawn before imaginary block so the
    stream layout is stable."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


@dataclass(frozen=True)
class UnitGeometry:
    """One unit's antenna grid with the owning panel's plane data."""

    center: np.ndarray    # (3,) global unit center
    antennas: np.ndarray  # (M, 3) global antenna positions
    normal: np.ndarray    # (3,) global plane normal


def unit_geometry(deployment: Deployment, config: SystemConfig, n: int, k: int) -> UnitGeometry:
    return UnitGeometry(
        center=deployment.unit_centers[n, k],
        antennas=unit_antenna_grid(deployment, config, n, k),
        normal=deployment.frames[n].normal,
    )


@dataclass(frozen=True)
class LosChannel:
    """Deterministic LOS channel of one device-to-unit link."""

    amplitudes: np.ndarray  # (M,) real gains beta_m
    phases: np.ndarray      # (M,) unit-modulus complex exp(-j 2 pi d_m / lambda)
    vector: np.ndarray      # (M,) complex, amplitudes * phases
    distances: np.ndarray   # (M,) device-to-antenna distances (m)

    @property
    def power(self) -> float:
        """Total LOS gain sum_m beta_m^2."""
        return float(np.sum(self.amplitudes**2))


def los_channel(device, unit: UnitGeometry, config: SystemConfig) -> LosChannel:
    """LOS channel from a device point to every antenna of a unit.

    Per-antenna gain beta_m = sqrt(z / d_m) / sqrt(4 pi d_m^2) combines the
    free-space spread with the cosine of the arrival angle (z is the
    device's perpendicular distance to the panel plane); the phase advances
    with the exact per-antenna path length.
    """
    device = np.asarray(device, dtype=float)
    z = float(np.dot(device - unit.center, unit.normal))
    if z <= 0.0:
        raise ValueError("device must lie on the front side of the panel (z > 0)")
    diff = device - unit.antennas
    d = np.sqrt(np.einsum("mi,mi->m", diff, diff))
    amplitudes = np.sqrt(z / d) / np.sqrt(FOUR_PI * d * d)
    phases = np.exp(-2j * math.pi * d / config.lam)
    return LosChannel(amplitudes=amplitudes, phases=phases,
                      vector=amplitudes * phases, distances=d)


def steering_vector(phi_v: float, phi_h: float, M: int, delta_L: float, lam: float) -> np.ndarray:
    """Planar-array steering vector (1/sqrt(M)) d_v kron d_h with progressive
    phase step (2 pi delta_L / lambda) * phi along each axis; entry
    m = iv * sqrt(M) + ih (vertical index major)."""
    side = math.isqrt(int(M))
    if side * side != M:
        raise ValueError(f"M must be a perfect square, got {M}")
    step = 2.0 * math.pi * delta_L / lam
    idx = np.arange(side)
    d_v = np.exp(1j * step * idx * phi_v)
    d_h = np.exp(1j * step * idx * phi_h)
    return np.einsum("v,h->vh", d_v, d_h).reshape(M) / math.sqrt(M)


@dataclass(frozen=True)
class CorrelationRoot:
    """Square root of one link's NLOS spatial correlation: an M x P matrix
    whose columns are attenuated steering vectors, one per scattered path."""

    matrix: np.ndarray         # (M, P) complex
    angles: np.ndarray         # (P, 2) drawn (theta_v, theta_h)
    nlos_gains: np.ndarray     # (P,) alpha_p = sqrt(cos theta_v cos theta_h)
    nlos_pathloss: np.ndarray  # (M,) per-antenna d_m^(-beta_PL / 2)

    @property
    def columns(self) -> np.ndarray:
        """Per-path column vectors c_p, shape (P, M)."""
        return self.matrix.T

    @property
    def rows(self) -> np.ndarray:
        """Per-antenna row vectors r_m, shape (M, P) (same memory as matrix)."""
        return self.matrix

    @property
    def frobenius_sq(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))


def root_matrix_from_angles(
    angles: np.ndarray, distances: np.ndarray, config: SystemConfig
) -> np.ndarray:
    """Vectorized correlation-root assembly.

    angles: (..., P, 2) path angle pairs (theta_v, theta_h);
    distances: (..., M) per-antenna distances for the same links.
    Returns (..., M, P) matrices diag(d^-beta/2) @ [alpha_p * steer_p].
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


def correlation_root(
    device, unit: UnitGeometry, config: SystemConfig, rng: np.random.Generator
) -> CorrelationRoot:
    """Draw P scattered-path angles uniform on [-pi/2, pi/2]^2 and assemble
    the link's correlation root."""
    device = np.asarray(device, dtype=float)
    angles = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(config.P, 2))
    diff = device - unit.antennas
    d = np.sqrt(np.einsum("mi,mi->m", diff, diff))
    matrix = root_matrix_from_angles(angles, d, config)
    theta_v, theta_h = angles[:, 0], angles[:, 1]
    return CorrelationRoot(
        matrix=matrix,
        angles=angles,
        nlos_gains=np.sqrt(np.abs(np.cos(theta_v) * np.cos(theta_h))),
        nlos_pathloss=d ** (-config.beta_PL / 2.0),
    )


@dataclass(frozen=True)
class ChannelRealization:
    """One sampled link channel: deterministic mean plus scattered draw."""

    mean: np.ndarray         # (M,) sqrt(kappa/(kappa+1)) * LOS vector
    fluctuation: np.ndarray  # (M,) sqrt(1/(kappa+1)) * root @ g
    total: np.ndarray        # (M,) mean + fluctuation
    kappa: float


def rician_mixing(kappa) -> tuple:
    """(LOS scale, NLOS scale) = (sqrt(k/(k+1)), sqrt(1/(k+1))), handling
    kappa = inf (pure LOS) and kappa = 0 (pure scattered)."""
    kappa = np.asarray(kappa, dtype=float)
    with np.errstate(invalid="ignore"):
        los = np.where(np.isinf(kappa), 1.0, np.sqrt(kappa / (kappa + 1.0)))
    nlos = np.where(np.isinf(kappa), 0.0, np.sqrt(1.0 / (kappa + 1.0)))
    if los.ndim == 0:
        return float(los), float(nlos)
    return los, nlos


def rician_channel(
    los: LosChannel, root: CorrelationRoot, kappa: float, rng: np.random.Generator
) -> ChannelRealization:
    """Sample one Rician link realization with a fresh scattered draw."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    los_scale, nlos_scale = rician_mixing(kappa)
    g = cgauss(rng, root.matrix.shape[1])
    mean = los_scale * los.vector
    fluctuation = nlos_scale * np.einsum("mp,p->m", root.matrix, g)
    return ChannelRealization(mean=mean, fluctuation=fluctuation,
                              total=mean + fluctuation, kappa=float(kappa))


def dump_channels(path_base: str, tensor: np.ndarray) -> tuple[str, str]:
    """Write link channels to the validation dump format.

    tensor: (N, N, K, K, M) complex indexed [l, n, j, k, m] (device j of
    panel l toward unit (n, k)). One record per (l, n, j, k) of M complex
    pairs, little-endian float64 interleaved (re, im), records in row-major
    (l, n, j, k) order, plus a JSON sidecar with the dimensions.
    Returns (data_path, sidecar_path).
    """
    tensor = np.asarray(tensor)
    if tensor.ndim != 5 or tensor.shape[0] != tensor.shape[1] or tensor.shape[2] != tensor.shape[3]:
        raise ValueError(f"expected (N, N, K, K, M) tensor, got {tensor.shape}")
    N, _, K, _, M = tensor.shape
    flat = np.empty(tensor.size * 2, dtype="<f8")
    flat[0::2] = tensor.real.reshape(-1)
    flat[1::2] = tensor.imag.reshape(-1)
    data_path = path_base + ".f64"
    sidecar_path = path_base + ".json"
    flat.tofile(data_path)
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "N": int(N),
                "K": int(K),
                "M": int(M),
                "record_order": ["l", "n", "j", "k"],
                "record_length": int(M),
                "dtype": "<f8 interleaved re,im",
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    return data_path, sidecar_path


def load_channels(path_base: str) -> np.ndarray:
    """Read back a channel dump written by dump_channels."""
    with open(path_base + ".json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    N, K, M = meta["N"], meta["K"], meta["M"]
    flat = np.fromfile(path_base + ".f64", dtype="<f8")
    expected = N * N * K * K * M * 2
    if flat.size != expected:
        raise ValueError(f"dump holds {flat.size} floats, expected {expected}")
    return (flat[0::2] + 1j * flat[1::2]).reshape(N, N, K, K, M)
