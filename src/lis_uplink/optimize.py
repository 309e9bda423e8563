"""Pilot-length and device-count optimization on the deterministic SSE.

The pilot-length problem maximizes the prelog-weighted deterministic SSE
over t in [K, T]; the objective is unimodal (increasing SINR against a
linearly shrinking prelog), so a golden-section search plus an integer
refinement finds the global integer optimum. In the interference-floor
regime the SINR no longer depends on t and the optimum collapses to t = K.

The device-count problem scores K = 1..pool with the floor-bound SINRs,
t = K, and devices admitted in fixed priority order; LOS gates enter
through their expectation, which keeps the curve deterministic for a
given deployment. The floor table takes the pool deployment and the
system config the sampler uses for it (K = pool): each unit's transmit
SNRs and serving power come from that unit's link budget
(``UnitLinkGeometry``, built and dropped one unit at a time), and the
contamination and LOS rules come from ``links``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import floor_sinrs
from .channel import rician_mixing
from .config import SystemConfig
from .links import build_unit_geometry, contamination_weights, los_allowed
from .scenario import Deployment


@dataclass(frozen=True)
class PilotSolution:
    """Result of the pilot-length search."""

    t_opt_continuous: float
    t_opt: int
    objective_opt: float
    iterations: int


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def optimal_pilot_length(objective, T: int, K: int) -> PilotSolution:
    """Maximize objective(t), e.g. the deterministic SSE, over the pilot
    length t in [K, T].

    Golden-section search shrinks the bracket below one symbol, then the
    neighboring integers and the interval endpoints are compared; ties
    prefer the smaller t.
    """
    if K < 1 or T < K:
        raise ValueError(f"need 1 <= K <= T, got K={K}, T={T}")

    def f(t: float) -> float:
        v = float(objective(float(t)))
        if not math.isfinite(v):
            raise ValueError(f"objective is not finite at t={t}: {v}")
        return v

    a, b = float(K), float(T)
    iterations = 0
    if b - a > 0.5:
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = f(c), f(d)
        while b - a > 0.5:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = f(d)
            iterations += 1
    t_star = 0.5 * (a + b)

    candidates = {K, T, int(math.floor(t_star)), int(math.ceil(t_star)),
                  int(math.floor(a)), int(math.ceil(b))}
    best_t, best_v = None, -math.inf
    for t in sorted(c for c in candidates if K <= c <= T):
        v = f(t)
        if v > best_v + 1e-12:
            best_t, best_v = t, v
    return PilotSolution(
        t_opt_continuous=float(t_star),
        t_opt=int(best_t),
        objective_opt=float(best_v),
        iterations=iterations,
    )


@dataclass(frozen=True)
class ExpectedFloorTable:
    """Deterministic interference floors of every unit, cumulative in the
    number of admitted devices.

    floor(n, k; K) = base[n, k] + sum_{j<K} leak[n, k, j]; devices are
    admitted in placement order, so growing K only appends leak columns.
    """

    base: np.ndarray      # (N, Kp) rho-weighted expected |mu_x|^2
    leak: np.ndarray      # (N, Kp, Kp) summed-over-panels leakage per admitted j
    p_bar: np.ndarray     # (N, Kp) deterministic serving powers
    rho_d_own: np.ndarray  # (N, Kp)

    @property
    def pool(self) -> int:
        return self.base.shape[1]

    def floors(self, K: int) -> np.ndarray:
        """(N, K) floor values for the first K devices."""
        if not (1 <= K <= self.pool):
            raise ValueError(f"K={K} outside [1, {self.pool}]")
        return self.base[:, :K] + np.sum(self.leak[:, :K, :K], axis=2)

    def gamma_hat(self, K: int) -> np.ndarray:
        """(N, K) floor-bound SINRs with K admitted devices."""
        return floor_sinrs(self.rho_d_own[:, :K], self.p_bar[:, :K], self.floors(K))


def expected_floor_table(deployment: Deployment, config: SystemConfig,
                         regime: str = "rician") -> ExpectedFloorTable:
    """Build the expected-gating floor table over the deployment's device
    pool, with its links built for `config`.

    The LOS gate of each link enters through its expectation: squared
    means of sums of independently gated LOS terms expand into the squared
    expected sum plus a Bernoulli variance term. A same-pilot interferer
    shares its gate with its own contamination term, so that one term is
    pulled out of the expectation before squaring. Links that
    ``los_allowed`` bars under `regime` carry no LOS, as in the sampler.
    """
    N, Kp = deployment.N, deployment.K
    diag = np.arange(N)

    base = np.zeros((N, Kp))
    leak = np.zeros((N, Kp, Kp))
    p_bar = np.zeros((N, Kp))
    rho_d_own = np.zeros((N, Kp))
    for n in range(N):
        allowed = los_allowed(regime, N, n)
        for k in range(Kp):
            # one unit's whole-pool geometry at a time, as the sampler holds it
            geom = build_unit_geometry(deployment, config, n, k)
            rho_d = geom.rho_d
            p = geom.p_los
            s = np.where(allowed, rician_mixing(geom.kappa_cand)[0], 0.0)
            s2 = s * s
            hlos = geom.hlos
            # V[c, l, j] = hlos[c, k]^H hlos[l, j], one matrix product
            V = (np.conj(hlos[:, k]) @ hlos.reshape(N * Kp, -1).T).reshape(N, N, Kp)
            u = V[n]  # own = hlos[n, k]

            a = contamination_weights(geom.rho_p, n, k) * s[:, k]
            pk = p[:, k]

            x = a * np.conj(u[:, k])
            base[n, k] = rho_d[n, k] * (
                np.abs(np.sum(pk * x)) ** 2 + float(np.sum(pk * (1.0 - pk) * np.abs(x) ** 2))
            )

            mean_in = u + np.einsum("c,clj->lj", a * pk, V)
            var_in = np.einsum("c,clj->lj", a * a * pk * (1.0 - pk), np.abs(V) ** 2)
            # same-pilot interferer: its gate is the c=l contamination gate
            # (a is zero on panel n and on LOS-free panels, which adds zero);
            # float_power squares through pow(), as a scalar ** does, where
            # an array ** 2 multiplies and can differ in the last bit
            v_same = V[diag, diag, k]
            mean_in[:, k] += a * (1.0 - pk) * v_same
            var_in[:, k] -= (np.float_power(a, 2) * pk * (1.0 - pk)
                             * np.float_power(np.abs(v_same), 2))
            w = rho_d * p * s2 * (np.abs(mean_in) ** 2 + var_in)
            w[n, k] = 0.0
            leak[n, k] = np.einsum("lj->j", w)
            p_bar[n, k], rho_d_own[n, k] = geom.p_bar, rho_d[n, k]

    return ExpectedFloorTable(base=base, leak=leak, p_bar=p_bar, rho_d_own=rho_d_own)


@dataclass(frozen=True)
class SchedulingSolution:
    """Result of the device-count search."""

    K_opt: int
    nse_opt: float
    K_values: tuple
    nse_curve: np.ndarray


def nse_of_gammas(gammas: np.ndarray, K: int, T: int) -> float:
    """NSE for K admitted devices at t = K: prelog times the mean over
    panels of the per-panel SE sums."""
    gammas = np.asarray(gammas, dtype=float)
    prelog = 1.0 - K / T
    if prelog <= 0.0:
        return 0.0
    per_panel = np.sum(np.log2(1.0 + gammas), axis=-1)
    return float(prelog * np.mean(per_panel))


def optimal_num_devices(gamma_hat, T: int, pool: int) -> SchedulingSolution:
    """Score K = 1..pool admitted devices and return the argmax.

    gamma_hat: K -> (N, K) deterministic SINRs of the first K devices per
    panel (pilot length t = K).
    """
    K_values = list(range(1, pool + 1))
    curve = np.array([nse_of_gammas(gamma_hat(K), K, T) for K in K_values])
    # A diverging objective means some unit has a zero deterministic floor
    # at that K, so the asymptotic bound carries no scheduling information
    # there; such K are kept in the curve but excluded from the argmax.
    finite = np.isfinite(curve)
    if not np.any(finite):
        raise ValueError("no admissible device count has a finite objective")
    masked = np.where(finite, curve, -np.inf)
    best = int(np.argmax(masked))  # first index wins ties: smallest K
    return SchedulingSolution(
        K_opt=K_values[best],
        nse_opt=float(curve[best]),
        K_values=tuple(K_values),
        nse_curve=curve,
    )
