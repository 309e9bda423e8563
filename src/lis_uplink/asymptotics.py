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
stored as a t-independent coefficient and a 1/t coefficient, so a set has
no pilot length of its own, and ``MomentSet.mu_I_bar(t)`` assembles the
composite interference at whatever pilot length the caller passes. The
transmit SNRs and the serving power come from the unit's link budget
(``UnitLinkGeometry``). The moments need the roots as matrices, so
``build_moment_set`` densifies the unit's factored roots once, into an
antenna-major (M, N*K*P) array nothing else builds. One matrix product of
it with the weight-scaled contaminator roots and the mean estimate, stacked,
gives every sum over contaminators: no Python loop runs over links.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``stream`` is not called here; perfbench/test_tracer.py checks that its
# tracer reaches this module's binding of it
from .links import UnitChannelStats, contamination_weights, stream  # noqa: F401


def _sq_norm(a: np.ndarray) -> np.ndarray:
    """Sum of |a|^2 over the last axis of a complex or real array."""
    flat = np.ascontiguousarray(a).view(np.float64)
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
    stored separately, so the moments can be evaluated at any pilot length t.
    Each field is a scalar or an (N, K) array over the incoming links.
    """

    mu_x: complex
    var_x_const: float
    var_x_noise: float          # coefficient of 1/t
    mu_y: np.ndarray            # (N, K) complex, serving slot zero
    var_y_const: np.ndarray     # (N, K)
    var_y_noise: np.ndarray     # (N, K) coefficients of 1/t
    var_z_const: float
    var_z_noise: float          # coefficient of 1/t
    z_mean_sq: float            # squared norm of the channel estimate's mean
    rho_d: np.ndarray           # (N, K) data SNRs used in the assembly
    rho_d_own: float
    p_bar: float                # deterministic serving power of the unit

    def mu_X(self, t) -> float:
        return self.var_x_const + self.var_x_noise / _check_t(t) + abs(self.mu_x) ** 2

    def mu_Y_bar(self, t) -> np.ndarray:
        return self.var_y_const + self.var_y_noise / _check_t(t) + np.abs(self.mu_y) ** 2

    def mu_Z(self, t) -> float:
        return self.var_z_const + self.var_z_noise / _check_t(t) + self.z_mean_sq

    def mu_I_bar(self, t) -> float:
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

    def sse_terms(self, t) -> tuple:
        """(p_bar, rho_d_own, mu_I_bar(t), mu_I_hat): all ``theorem1_sse`` reads."""
        return self.p_bar, self.rho_d_own, self.mu_I_bar(t), self.mu_I_hat


def build_moment_set(stats: UnitChannelStats) -> MomentSet:
    """Evaluate all closed-form moments of one unit under its link budget."""
    geom = stats.geom
    n, k = geom.n, geom.k
    roots = np.moveaxis(stats.roots.dense(), 2, 0)  # dense()'s (M, N, K, P) buffer
    M, N, K, P = roots.shape
    hlos_own = geom.hlos[n, k]
    rho_p_own = float(geom.rho_p[n, k])
    hbar = stats.hbar.reshape(N * K, M)

    sqrt_ratio = contamination_weights(geom.rho_p, n, k)
    cont_w = sqrt_ratio**2 * stats.nlos_var[:, k]  # scattered-power weight per contaminator
    mu_e = sqrt_ratio @ stats.hbar[:, k]
    h_mean = hlos_own + mu_e

    # lhs rows: the live contaminators' conjugated roots scaled by
    # sqrt(cont_w[c]) (sum_c cont_w[c] |r_c^H v|^2 = ||lhs[:-1] @ v||^2),
    # then conj(h_mean). Products with lhs run over antennas [0, M - M % 128)
    # and the rest, summed in order: OpenBLAS (zgemm on Haswell) cuts a shared
    # axis past 128 that is no multiple of 128 where its thread count decides.
    live = np.flatnonzero(cont_w > 0.0)
    lhs = np.empty((live.size * P + 1, M), dtype=complex)
    np.multiply(roots[:, live, k], np.sqrt(cont_w[live])[:, np.newaxis],
                out=lhs[:-1].reshape(live.size, P, M).transpose(2, 0, 1))
    lhs[-1] = h_mean
    np.conjugate(lhs, out=lhs)
    el = cross = 0.0
    cuts = sorted({0, M - M % 128, M})
    for a, b in zip(cuts, cuts[1:]):
        el += hbar[:, a:b] @ lhs[:, a:b].T  # (N K, C P + 1)
        cross += lhs[:, a:b] @ roots[a:b].reshape(-1, N * K * P)

    # Y_lj = |h_hat^H h_lj|^2: mean from the two fixed means; variance from
    # the estimate's fluctuation against the interferer mean (EL) plus the
    # interferer's scattered part against the full estimate (EN).
    mu_y, el_const = el[:, -1].reshape(N, K).copy(), _sq_norm(el[:, :-1]).reshape(N, K)
    el_noise = _sq_norm(hbar).reshape(N, K) / rho_p_own

    # EN: lhs against every interferer's root gives the Lemma 2 cross term
    # (term_b) and the projection on the mean estimate (term_a). Each ramp
    # entry has the modulus of its row-0 gain, so a root's squared norm is
    # sum_m pathloss^2 * sum_p |ramp_v[0, p]|^2.
    parts = _sq_norm(cross.reshape(-1, N, K, P))
    term_a, term_b = parts[-1], np.sum(parts[:-1], axis=0)
    rootfrob = _sq_norm(stats.roots.pathloss) * _sq_norm(stats.roots.ramp_v[..., 0, :])
    en_const = stats.nlos_var * (term_a + term_b)
    en_noise = stats.nlos_var * rootfrob / rho_p_own

    var_y_const, var_y_noise = el_const + en_const, el_noise + en_noise
    for moment in (mu_y, var_y_const, var_y_noise):
        moment[n, k] = 0.0  # the serving slot

    return MomentSet(
        # X = |e^H h_los|^2: mean of the Gaussian scalar plus its variance
        mu_x=complex(np.vdot(mu_e, hlos_own)),
        var_x_const=float(el_const[n, k]),  # the serving link's EL: its hbar is h_los
        var_x_noise=geom.own_power / rho_p_own,
        mu_y=mu_y,
        var_y_const=var_y_const,
        var_y_noise=var_y_noise,
        # Z = ||h_hat||^2: the per-antenna variances summed, plus the mean's norm
        var_z_const=float(cont_w @ rootfrob[:, k]),
        var_z_noise=M / rho_p_own,
        z_mean_sq=float(np.sum(np.abs(h_mean) ** 2)),
        rho_d=geom.rho_d,
        rho_d_own=float(geom.rho_d[n, k]),
        p_bar=geom.p_bar,
    )


@dataclass(frozen=True)
class AsymptoticSse:
    """Deterministic large-M SSE of one panel and its interference-floor
    bound (inf if some device is interference-free)."""

    sse_bar: float
    sse_hat: float


def floor_sinrs(rho_own: np.ndarray, p_bar: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Interference-floor SINRs rho * p_bar / floor; inf where the floor is
    zero (an interference-free device)."""
    with np.errstate(divide="ignore"):
        return np.where(floors > 0.0, rho_own * p_bar / floors, np.inf)


def sse(gammas, t, T: int) -> float:
    """Sum spectral efficiency (1 - t/T) sum_k log2(1 + gamma_k) at pilot
    length t, summed over the last axis and averaged over any leading panel
    axes: one panel's SSE for (K,) SINRs, the network SE for (N, K); 0 once
    the pilots fill the block (t >= T)."""
    prelog = 1.0 - t / T
    if prelog <= 0.0:
        return 0.0
    return prelog * float(np.mean(np.sum(np.log2(1.0 + np.asarray(gammas, dtype=float)), axis=-1)))


def theorem1_sse(rows, t, T: int) -> AsymptoticSse:
    """Deterministic SSE of one panel at pilot length t.

    rows: ``MomentSet.sse_terms(t)`` of each served device of the panel,
    so a caller can keep the rows and drop the sets.
    """
    t = _check_t(t)
    if len(rows) == 0:
        raise ValueError("need at least one unit's moments")
    if t > T:
        raise ValueError(f"pilot length t={t} exceeds the block length T={T}")
    p_bar, rho_own, mu_bar, floors = np.array(rows, dtype=float).T
    gamma_bar = rho_own * p_bar / mu_bar
    gamma_hat = floor_sinrs(rho_own, p_bar, floors)
    return AsymptoticSse(sse_bar=sse(gamma_bar, t, T), sse_hat=sse(gamma_hat, t, T))
