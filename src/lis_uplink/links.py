"""Per-unit link bundles shared by the sampling and closed-form paths.

For one receiving unit (n, k), everything about its N*K incoming links is
held in array form: LOS vectors, per-antenna distances, candidate Rician
factors, LOS probabilities. A coherence block fixes the random channel
statistics (LOS gating coins and scattered-path angles); fading and noise
are then drawn from those statistics. Both the Monte Carlo samplers and
the closed-form moment formulas consume the same objects, so the two
evaluation routes stay conditioned on identical channel laws.

The two rules of the link model live here alone: ``contamination_weights``
(which same-pilot devices contaminate a unit's channel estimate, and how
strongly) and ``los_allowed`` (which panels' links may carry LOS under an
interference regime). The sampler (``make_unit_stats``, ``BlockKernel``),
the Lemma moments (``asymptotics.build_moment_set``) and the Theorem 2
floor table (``optimize.expected_floor_table``) all read them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channel import cgauss, rician_mixing, root_matrix_from_angles
from .config import SystemConfig
from .scenario import (
    Deployment,
    center_distances,
    data_snrs,
    los_probability,
    pilot_snrs,
    rician_factor,
    unit_antenna_grid,
)

# RNG stream domains (SeedSequence spawn keys): placement draws and
# per-unit block draws.
DOMAIN_PLACEMENT = 0
DOMAIN_BLOCK = 1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream addressed by integers; independent of worker
    scheduling because the address, not the call order, selects the state."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(x) for x in key)))


def placement_rng(seed: int, placement_idx: int) -> np.random.Generator:
    return stream(seed, DOMAIN_PLACEMENT, placement_idx)


@dataclass(frozen=True)
class UnitLinkGeometry:
    """Deterministic geometry of every link arriving at unit (n, k)."""

    n: int
    k: int
    distances: np.ndarray     # (N, K, M) device-to-antenna distances
    hlos: np.ndarray          # (N, K, M) LOS vectors of all incoming links
    beta2_sum: np.ndarray     # (N, K) sum over antennas of the LOS gains^2
    kappa_cand: np.ndarray    # (N, K) Rician factor if the link carries LOS
    p_los: np.ndarray         # (N, K) LOS probability of each link

    @property
    def own_power(self) -> float:
        """Serving-link LOS power sum_m beta_m^2."""
        return float(self.beta2_sum[self.n, self.k])


def los_phase(d: np.ndarray, lam: float) -> np.ndarray:
    """exp(-2j pi d / lam), with the argument formed in real arithmetic.

    Equal bit for bit to the complex form: dividing a complex array by a
    real scalar multiplies both parts by its reciprocal."""
    return np.exp(1j * ((-2.0 * np.pi * d) * (1.0 / lam)))


def build_unit_geometry(
    deployment: Deployment, config: SystemConfig, n: int, k: int
) -> UnitLinkGeometry:
    antennas = unit_antenna_grid(deployment, config, n, k)
    normal = deployment.frames[n].normal
    # z: perpendicular offset of every device to panel n's plane
    z = np.einsum("lji,i->lj", deployment.devices - deployment.frames[n].origin, normal)
    if np.any(z <= 0):
        raise ValueError("every device must lie on the front side of every panel plane")
    # squared distances summed one axis at a time: no (N, K, M, 3) array
    d = np.zeros(z.shape + antennas.shape[:1])
    for axis in range(3):
        step = deployment.devices[:, :, axis, np.newaxis] - antennas[:, axis]
        step *= step
        d += step
    np.sqrt(d, out=d)
    beta = np.sqrt(z[:, :, np.newaxis] / d) / np.sqrt(4.0 * np.pi * d * d)
    hlos = los_phase(d, config.lam)
    hlos *= beta
    cdist = center_distances(deployment, n, k)
    return UnitLinkGeometry(
        n=n,
        k=k,
        distances=d,
        hlos=hlos,
        beta2_sum=np.einsum("ljm->lj", beta * beta),
        kappa_cand=rician_factor(cdist),
        p_los=los_probability(cdist, config.d_C),
    )


class LinkWorld:
    """Deployment-level cache: per-unit link geometry plus power control."""

    def __init__(self, deployment: Deployment, config: SystemConfig):
        self.deployment = deployment
        self.config = config
        self.rho_p = pilot_snrs(deployment, config)   # (N, K)
        self.rho_d = data_snrs(deployment, config)    # (N, K)
        self._units: dict[tuple[int, int], UnitLinkGeometry] = {}

    def unit(self, n: int, k: int) -> UnitLinkGeometry:
        key = (n, k)
        if key not in self._units:
            self._units[key] = build_unit_geometry(self.deployment, self.config, n, k)
        return self._units[key]


@dataclass(frozen=True)
class UnitBlockDraw:
    """Raw randomness of one coherence block for one unit: gating coins and
    scattered-path angles (the block's channel statistics), then fading and
    estimation noise. Coins and angles are drawn first with M-independent
    shapes so sweeps over M stay paired."""

    coins: np.ndarray    # (N, K) uniforms for the LOS gates
    angles: np.ndarray   # (N, K, P, 2) scattered-path angles
    g: np.ndarray        # (N, K, P) complex fading
    w: np.ndarray        # (M,) complex estimation noise


def draw_unit_block(rng: np.random.Generator, N: int, K: int, P: int, M: int) -> UnitBlockDraw:
    coins = rng.random((N, K))
    angles = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=(N, K, P, 2))
    g = cgauss(rng, (N, K, P))
    w = cgauss(rng, (M,))
    return UnitBlockDraw(coins=coins, angles=angles, g=g, w=w)


def contamination_weights(rho_p: np.ndarray, n: int, k: int) -> np.ndarray:
    """(N,) weights of the devices on unit (n, k)'s pilot in its channel
    estimate: the root pilot-SNR ratio sqrt(rho_p[l, k] / rho_p[n, k]) of
    the pilot-k device of every panel l, zero on the unit's own panel.

    Per-device pilot power control makes same-panel pilots cancel in the
    despread output, so only other-panel devices on the same pilot
    contaminate the estimate."""
    weights = np.sqrt(rho_p[:, k] / rho_p[n, k])
    weights[n] = 0.0
    return weights


def los_allowed(regime: str, N: int, n: int) -> np.ndarray:
    """(N, 1) mask of the panels whose links toward panel n may carry LOS.

    "rician": every panel; "nlos_inter": panel n alone, links from other
    panels are pure-scattered."""
    if regime == "rician":
        return np.ones((N, 1), dtype=bool)
    if regime == "nlos_inter":
        return np.arange(N)[:, np.newaxis] == n
    raise ValueError(f"unknown interference regime {regime!r}")


@dataclass(frozen=True)
class UnitChannelStats:
    """Conditional channel law of one block: LOS means, mixing, and
    correlation roots for every incoming link of unit (n, k)."""

    geom: UnitLinkGeometry
    kappa: np.ndarray       # (N, K) effective Rician factors (inf on own slot)
    nlos_scale: np.ndarray  # (N, K) sqrt(1/(kappa+1))
    hbar: np.ndarray        # (N, K, M) LOS means (own slot: full LOS vector)
    roots: np.ndarray       # (N, K, M, P) correlation roots

    @property
    def nlos_var(self) -> np.ndarray:
        """Scattered-power fraction 1/(kappa+1) per link."""
        return self.nlos_scale**2


def make_unit_stats(
    geom: UnitLinkGeometry,
    draw: UnitBlockDraw,
    config: SystemConfig,
    interference: str = "rician",
) -> UnitChannelStats:
    """Apply the LOS gates and build this block's channel statistics.

    A link keeps LOS when its coin falls below its LOS probability and
    ``los_allowed`` lets its panel carry LOS under `interference`; every
    gate is consumed in either regime, so draws stay aligned across them.
    """
    N = geom.p_los.shape[0]
    gated = (draw.coins < geom.p_los) & los_allowed(interference, N, geom.n)
    kappa = np.where(gated, geom.kappa_cand, 0.0)
    kappa[geom.n, geom.k] = np.inf  # serving link is deterministic LOS
    los_scale, nlos_scale = rician_mixing(kappa)
    hbar = los_scale[:, :, np.newaxis] * geom.hlos
    roots = root_matrix_from_angles(draw.angles, geom.distances, config)
    return UnitChannelStats(geom=geom, kappa=kappa, nlos_scale=nlos_scale, hbar=hbar, roots=roots)


def sample_unit_channels(stats: UnitChannelStats, g: np.ndarray) -> np.ndarray:
    """Sample all incoming link channels (N, K, M) given fading g (N, K, P):
    h = hbar + sqrt(1/(kappa+1)) * root @ g. The serving slot stays exactly
    the LOS vector."""
    scattered = np.einsum("ljmp,ljp->ljm", stats.roots, g)
    return stats.hbar + stats.nlos_scale[:, :, np.newaxis] * scattered


def slice_geometry(geom: UnitLinkGeometry, K: int) -> UnitLinkGeometry:
    """Restrict a unit's link geometry to the first K devices per panel
    (array views, no copies). Valid when the unit's own pilot index is
    below K."""
    if geom.k >= K:
        raise ValueError(f"unit pilot index {geom.k} not active with K={K}")
    return dataclasses.replace(
        geom,
        distances=geom.distances[:, :K],
        hlos=geom.hlos[:, :K],
        beta2_sum=geom.beta2_sum[:, :K],
        kappa_cand=geom.kappa_cand[:, :K],
        p_los=geom.p_los[:, :K],
    )


def slice_stats(stats: UnitChannelStats, K: int) -> UnitChannelStats:
    """Restrict a unit's block statistics to the first K devices per panel
    (array views, no copies); used for nested device-count sweeps."""
    return dataclasses.replace(
        stats,
        geom=slice_geometry(stats.geom, K),
        kappa=stats.kappa[:, :K],
        nlos_scale=stats.nlos_scale[:, :K],
        hbar=stats.hbar[:, :K],
        roots=stats.roots[:, :K],
    )


@dataclass(frozen=True)
class BlockTerms:
    """Matched-filter scalars of one coherence block for one unit.

    The receive filter is the least-squares channel estimate
    h_hat = h_los + e, with e the pilot-contamination-plus-noise error.
    X is the error's alignment with the serving LOS vector, Y the leakage
    toward each interfering link, Z the filter norm (noise beam power).
    """

    X: float
    Y: np.ndarray          # (N, K) |h_hat^H h_lj|^2, serving slot zeroed
    Z: float
    I: float               # rho-weighted composite interference
    signal: float          # (sum_m beta_m^2)^2 of the serving link
    gamma: float           # estimated-CSI SINR
    I_perfect: float       # composite when the filter is h_los itself
    gamma_perfect: float   # perfect-CSI SINR


class BlockKernel:
    """One block's sampled inner products for one unit, assembled into
    interference scalars at any pilot length.

    The estimation error is the ``contamination_weights``-weighted sum of
    the same-pilot channels plus white noise shrunk by sqrt(t * rho_p_own);
    only that shrink factor depends on t, so a pilot sweep reuses every
    sampled product.
    """

    def __init__(
        self,
        stats: UnitChannelStats,
        g: np.ndarray,
        w: np.ndarray,
        rho_p: np.ndarray,
        rho_d: np.ndarray,
    ):
        geom = stats.geom
        n, k = geom.n, geom.k
        self.n, self.k = n, k
        ch = sample_unit_channels(stats, g)
        hlos = geom.hlos[n, k]

        contam = contamination_weights(rho_p, n, k) @ ch[:, k]
        u = hlos + contam

        self.rho_p_own = float(rho_p[n, k])
        self.rho_d = np.asarray(rho_d, dtype=float)
        self.rho_d_own = float(rho_d[n, k])
        self.signal = geom.own_power**2

        self.A = ch @ np.conj(u)
        self.C = ch @ np.conj(w)
        self.Xc = complex(np.vdot(contam, hlos))
        self.Xw = complex(np.vdot(w, hlos))
        self.u_norm2 = float(np.vdot(u, u).real)
        self.uw = complex(np.vdot(u, w))
        self.w_norm2 = float(np.vdot(w, w).real)

        A_pure = ch @ np.conj(hlos)
        Y_pure = np.abs(A_pure) ** 2
        Y_pure[n, k] = 0.0
        self.I_perfect = float(np.sum(self.rho_d * Y_pure)) + geom.own_power
        self.gamma_perfect = self.rho_d_own * self.signal / self.I_perfect

    def terms(self, t) -> BlockTerms:
        s = math.sqrt(float(t) * self.rho_p_own)
        Y = np.abs(self.A + self.C / s) ** 2
        Y[self.n, self.k] = 0.0
        X = abs(self.Xc + self.Xw / s) ** 2
        Z = self.u_norm2 + 2.0 * self.uw.real / s + self.w_norm2 / (s * s)
        I = self.rho_d_own * X + float(np.sum(self.rho_d * Y)) + Z
        return BlockTerms(
            X=float(X),
            Y=Y,
            Z=float(Z),
            I=float(I),
            signal=self.signal,
            gamma=self.rho_d_own * self.signal / I,
            I_perfect=self.I_perfect,
            gamma_perfect=self.gamma_perfect,
        )

    def gamma(self, t) -> float:
        return self.terms(t).gamma
