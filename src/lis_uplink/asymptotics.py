"""Closed-form moments of the matched-filter terms and their large-M limits.

Conditioned on one coherence block's channel statistics (LOS gates and
scattered-path angles fixed), the filter-output terms X, Y, Z are quadratic
forms in complex Gaussians, so their means have closed forms. Every noise
contribution carries a 1/t factor, which makes the composite interference
mean an affine function of 1/t. In the large-M limit (fixed aperture,
refined lattice) the serving power approaches a deterministic solid-angle
expression and the SINR approaches a deterministic ratio; dropping the
vanishing fluctuation terms gives the interference-floor bound.

``build_moment_set`` returns one unit's ``MomentSet``: every moment is
stored as a t-independent coefficient and a 1/t coefficient, and
``MomentSet.mu_I_bar(t)`` assembles the composite interference at any
pilot length. The sums over pilot contaminators are BLAS matrix products
against one stacked, weight-scaled matrix of contaminator roots, so no
Python loop runs over contaminators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``stream`` is not called here; perfbench/test_tracer.py checks that its
# tracer reaches this module's binding of it
from .links import UnitChannelStats, contamination_weights, stream  # noqa: F401


def rate_log(x):
    """log2, the spectral-efficiency log (bits per channel use)."""
    return np.log2(x)


def _sq_norm(a: np.ndarray, axes: int = 1) -> np.ndarray:
    """Sum of |a|^2 over the trailing ``axes`` axes of a complex array."""
    flat = np.ascontiguousarray(a).reshape(*a.shape[: a.ndim - axes], -1).view(np.float64)
    return np.einsum("...i,...i->...", flat, flat)


def _check_t(t) -> float:
    t = float(t)
    if t <= 0:
        raise ValueError(f"pilot length must be positive, got {t}")
    return t


@dataclass(frozen=True)
class MomentSet:
    """Closed-form moments of one unit's X, Y, Z terms.

    Every variance has the shape const + noise/t; the two coefficients are
    stored separately, so the moments can be evaluated at any pilot length
    (the build t is the default).
    """

    n: int
    k: int
    t: float
    M: int
    mu_x: complex
    var_x_const: float
    var_x_noise: float          # coefficient of 1/t
    mu_y: np.ndarray            # (N, K) complex, serving slot zero
    var_y_const: np.ndarray     # (N, K)
    var_y_noise: np.ndarray     # (N, K) coefficients of 1/t
    q_bar: np.ndarray           # (M,) mean of the channel estimate
    var_z_const_m: np.ndarray   # (M,)
    var_z_noise_m: float        # per-antenna coefficient of 1/t
    rho_d: np.ndarray           # (N, K) data SNRs used in the assembly
    rho_d_own: float
    z_own: float                # device's perpendicular distance to its panel
    L: float                    # panel half-side

    def _t(self, t) -> float:
        return _check_t(self.t if t is None else t)

    def mu_X(self, t=None) -> float:
        t = self._t(t)
        return self.var_x_const + self.var_x_noise / t + abs(self.mu_x) ** 2

    def mu_Y_bar(self, t=None) -> np.ndarray:
        t = self._t(t)
        return self.var_y_const + self.var_y_noise / t + np.abs(self.mu_y) ** 2

    def mu_Z(self, t=None) -> float:
        t = self._t(t)
        return float(
            np.sum(self.var_z_const_m)
            + self.M * self.var_z_noise_m / t
            + np.sum(np.abs(self.q_bar) ** 2)
        )

    def mu_I_bar(self, t=None) -> float:
        """Composite interference mean: rho-weighted X and Y second moments
        plus the filter norm, every variance evaluated at pilot length t."""
        return (self.rho_d_own * self.mu_X(t) + float(np.sum(self.rho_d * self.mu_Y_bar(t)))
                + self.mu_Z(t))

    @property
    def mu_I_hat(self) -> float:
        """Pilot-length-independent floor: only the squared means survive."""
        return float(
            self.rho_d_own * abs(self.mu_x) ** 2
            + np.sum(self.rho_d * np.abs(self.mu_y) ** 2)
        )


def build_moment_set(
    stats: UnitChannelStats,
    t,
    pilot_snrs: np.ndarray,
    data_snrs: np.ndarray,
    z_own: float,
    L: float,
) -> MomentSet:
    """Evaluate all closed-form moments of one unit; t is the default
    pilot length of the returned set."""
    t = _check_t(t)
    pilot_snrs = np.asarray(pilot_snrs, dtype=float)
    data_snrs = np.asarray(data_snrs, dtype=float)
    geom = stats.geom
    n, k = geom.n, geom.k
    N, K = geom.p_los.shape
    M, P = stats.roots.shape[2:]
    hlos_own = geom.hlos[n, k]
    rho_p_own = float(pilot_snrs[n, k])
    hbar = stats.hbar.reshape(N * K, M)

    sqrt_ratio = contamination_weights(pilot_snrs, n, k)
    cont_w = sqrt_ratio**2 * stats.nlos_var[:, k]  # scattered-power weight per contaminator

    mu_e = sqrt_ratio @ stats.hbar[:, k]
    q_bar = hlos_own + mu_e

    # Every contaminator-weighted sum below runs over the columns of one
    # (M, C*P) matrix: the live contaminators' conjugated roots side by
    # side, each scaled by sqrt(cont_w[c]), so sum_c cont_w[c] |r_c^H v|^2
    # is the squared norm of v @ conj_roots.
    live = np.flatnonzero(cont_w > 0.0)
    conj_roots = np.conj(
        stats.roots[live, k] * np.sqrt(cont_w[live])[:, np.newaxis, np.newaxis]
    ).transpose(1, 0, 2).reshape(M, live.size * P)

    # Y_lj = |h_hat^H h_lj|^2: mean from the two fixed means; variance from
    # the estimate's fluctuation against the interferer mean (EL) plus the
    # interferer's scattered part against the full estimate (EN).
    mu_y = (hbar @ np.conj(q_bar)).reshape(N, K)
    el_const = _sq_norm(hbar @ conj_roots).reshape(N, K)
    el_noise = _sq_norm(hbar).reshape(N, K) / rho_p_own

    # EN: term_a projects every interferer root on the mean estimate;
    # term_b, the Lemma 2 cross term, is one matmul: the stacked
    # contaminator roots (C*P, M) against every interferer's (M, P) root,
    # batched over (l, j).
    proj_en = np.conj(q_bar) @ stats.roots                 # (N, K, P)
    term_a = _sq_norm(proj_en)
    term_b = _sq_norm(conj_roots.T @ stats.roots, axes=2)
    rootfrob = _sq_norm(stats.roots, axes=2)
    en_const = stats.nlos_var * (term_a + term_b)
    en_noise = stats.nlos_var * rootfrob / rho_p_own

    var_y_const = el_const + en_const
    var_y_noise = el_noise + en_noise
    mu_y[n, k] = 0.0
    var_y_const[n, k] = 0.0
    var_y_noise[n, k] = 0.0

    return MomentSet(
        n=n,
        k=k,
        t=t,
        M=M,
        # X = |e^H h_los|^2: mean of the Gaussian scalar plus its variance
        mu_x=complex(np.vdot(mu_e, hlos_own)),
        var_x_const=float(_sq_norm(hlos_own @ conj_roots)),
        var_x_noise=geom.own_power / rho_p_own,
        mu_y=mu_y,
        var_y_const=var_y_const,
        var_y_noise=var_y_noise,
        # Z = ||h_hat||^2: per-antenna mean q_bar plus per-antenna variance
        q_bar=q_bar,
        var_z_const_m=_sq_norm(conj_roots),
        var_z_noise_m=1.0 / rho_p_own,
        rho_d=data_snrs,
        rho_d_own=float(data_snrs[n, k]),
        z_own=float(z_own),
        L=float(L),
    )


def quarter_solid_angle(L: float, z: float) -> float:
    """Solid angle of one panel quadrant seen from boresight distance z."""
    if z <= 0:
        raise ValueError(f"boresight distance must be positive, got {z}")
    return math.atan(L * L / (z * math.sqrt(2.0 * L * L + z * z)))


@dataclass(frozen=True)
class AsymptoticSse:
    """Deterministic large-M SSE of one panel and its interference-floor
    bound."""

    p_bar: np.ndarray      # (K,) deterministic serving powers M^2 p^2/(16 pi^2 L^4)
    gamma_hat: np.ndarray  # (K,) floor-bound SINRs (inf if interference-free)
    sse_bar: float
    sse_hat: float


def serving_power(M: int, p, L: float):
    """Deterministic serving power M^2 p^2 / (16 pi^2 L^4) of a device whose
    unit quadrant subtends the solid angle p."""
    return M * M * p * p / (16.0 * math.pi**2 * L**4)


def floor_sinrs(rho_own: np.ndarray, p_bar: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Interference-floor SINRs rho * p_bar / floor; inf where the floor is
    zero (an interference-free device)."""
    with np.errstate(divide="ignore"):
        return np.where(floors > 0.0, rho_own * p_bar / floors, np.inf)


def sse(gammas, t, T: int) -> float:
    """Sum spectral efficiency (1 - t/T) sum_k log2(1 + gamma_k) of one
    panel at pilot length t; 0 once the pilots fill the block (t >= T)."""
    prelog = 1.0 - t / T
    if prelog <= 0.0:
        return 0.0
    return prelog * float(np.sum(rate_log(1.0 + np.asarray(gammas, dtype=float))))


def theorem1_sse(moment_sets: list[MomentSet], t, T: int) -> AsymptoticSse:
    """Deterministic SSE of one panel at pilot length t.

    moment_sets: one MomentSet per served device of the same panel.
    """
    t = _check_t(t)
    if not moment_sets:
        raise ValueError("need at least one unit's moments")
    if t > T:
        raise ValueError(f"pilot length t={t} exceeds the block length T={T}")
    M = moment_sets[0].M
    p = np.array([quarter_solid_angle(ms.L, ms.z_own) for ms in moment_sets])
    p_bar = np.array([serving_power(M, pq, ms.L) for pq, ms in zip(p, moment_sets)])
    rho_own = np.array([ms.rho_d_own for ms in moment_sets])
    mu_bar = np.array([ms.mu_I_bar(t) for ms in moment_sets])
    gamma_bar = rho_own * p_bar / mu_bar
    floors = np.array([ms.mu_I_hat for ms in moment_sets])
    gamma_hat = floor_sinrs(rho_own, p_bar, floors)
    return AsymptoticSse(p_bar=p_bar, gamma_hat=gamma_hat,
                         sse_bar=sse(gamma_bar, t, T), sse_hat=sse(gamma_hat, t, T))
