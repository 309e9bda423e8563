"""Pilot-length and device-count optimization on the deterministic SSE.

The pilot-length problem maximizes the prelog-weighted deterministic SSE
over t in [K, T] by evaluating it at every integer t: T - K + 1 objective
calls on moment sets built once, with no assumption on the curve's shape.
In the interference-floor regime the SINR no longer depends on t and the
optimum collapses to t = K.

The device-count problem scores K = 1..pool by the network SE
(``asymptotics.sse``) of the floor-bound SINRs at t = K, with devices
admitted in fixed priority order; LOS gates enter through their
expectation, which keeps the curve deterministic for a given deployment.
The floor table takes the pool deployment and the system config the
sampler uses for it (K = pool). It makes one pass per panel on the
state the sampler's units are built from, ``links.panel_view``, so it
reads the sampler's LOS probabilities, Rician factors and link budget,
and it applies the contamination and LOS rules of ``links``. It forms
only the LOS products it reads (``expected_floor_table``) and builds no
unit geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import floor_sinrs, sse
from .channel import rician_mixing
from .config import SystemConfig
# ``build_unit_geometry`` is not called here; perfbench/test_tracer.py reads this binding
from .links import (build_unit_geometry, contamination_weights, los_allowed,  # noqa: F401
                    los_vectors, panel_view)
from .scenario import Deployment


@dataclass(frozen=True)
class PilotSolution:
    """Result of the pilot-length search."""

    t_opt: int
    objective_opt: float
    values: tuple  # objective(t) for t = K..T


def optimal_pilot_length(objective, T: int, K: int) -> PilotSolution:
    """Maximize objective(t), e.g. the deterministic SSE, over the pilot
    length t in [K, T] by evaluating it once at every integer t; the
    first argmax wins, so exact ties go to the smaller t. A value that is
    not finite raises ValueError naming the first such t.
    """
    if K < 1 or T < K:
        raise ValueError(f"need 1 <= K <= T, got K={K}, T={T}")
    values = []
    for t in range(K, T + 1):
        v = float(objective(t))
        if not math.isfinite(v):
            raise ValueError(f"objective is not finite at t={t}: {v}")
        values.append(v)
    best = values.index(max(values))
    return PilotSolution(t_opt=K + best, objective_opt=values[best], values=tuple(values))


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

    One pass per panel n on its ``links.PanelView``, the state the sampler
    builds its units from (``panel_view`` rejects a device behind the
    plane): its (Kp, N, Kp) LOS probabilities p and Rician factors give
    the LOS scales s, and it holds the link budget. Unit k forms LOS vectors
    (``links.los_vectors``, into buffers allocated once per call) only for
    its live links, p > 0 and allowed by ``los_allowed``, plus its own;
    its V rows are its live pilot-k links against its live links, zeros
    elsewhere. Skipping is exact: every term a link contributes carries
    its p, s or s^2, so the LOS vector of a link that cannot carry LOS
    never reaches the table.
    """
    N, Kp = deployment.N, deployment.K
    units = np.arange(Kp)
    base = np.zeros((N, Kp))
    leak = np.zeros((N, Kp, Kp))
    p_bar = np.zeros((N, Kp))
    # per-call buffers: V of one panel's units, and los_vectors' arrays
    V = np.empty((Kp, N, N * Kp), dtype=complex)
    work = np.empty((5, N * Kp, config.M))
    for n in range(N):
        view = panel_view(deployment, config, n)
        # p (Kp, N, Kp) per link [k, l, j], from device (l, j) to panel n's unit k
        p, rho_p, rho_d = view.p_los, view.rho_p, view.rho_d
        allowed = los_allowed(regime, N, n)
        s = np.where(allowed, rician_mixing(view.kappa_cand)[0], 0.0)
        live = (p > 0.0) & allowed
        live[units, n, units] = True
        xs, ys, zs = view.devices[..., 0].ravel(), view.devices[..., 1].ravel(), view.z.ravel()
        V.fill(0.0)
        for k in range(Kp):
            # V[k, c, l*Kp + j] = hlos[c, k]^H hlos[l, j] among the live links
            idx = np.flatnonzero(live[k])
            d, h, den, re, im = work[:, :len(idx)]
            los_vectors(xs[idx], ys[idx], zs[idx], view.rows[k], config, (d, h, den, (re, im)))
            pilot = np.flatnonzero(idx % Kp == k)
            # conj(hlos[pilot]) @ hlos.T as four real products
            vr = re[pilot] @ re.T
            vr += im[pilot] @ im.T
            vi = re[pilot] @ im.T
            vi -= im[pilot] @ re.T
            V[k, idx[pilot, np.newaxis] // Kp, idx] = vr + 1j * vi
        Vn = V.reshape(Kp, N, N, Kp)
        u = Vn[:, n]  # own = hlos[n, k]
        a = contamination_weights(rho_p, n, units).T * s[units, :, units]
        pk = p[units, :, units]

        x = a * np.conj(u[units, :, units])
        base[n] = rho_d[n] * (np.abs(np.sum(pk * x, axis=1)) ** 2
                              + np.sum(pk * (1.0 - pk) * np.abs(x) ** 2, axis=1))

        mean_in = u + np.einsum("kc,kclj->klj", a * pk, Vn)
        var_in = np.einsum("kc,kclj->klj", a * a * pk * (1.0 - pk), np.abs(Vn) ** 2)
        # same-pilot interferer: its gate is the c=l contamination gate
        # (a is zero on panel n and on LOS-free panels, which adds zero)
        v_same = Vn[units[:, np.newaxis], np.arange(N), np.arange(N), units[:, np.newaxis]]
        mean_in[units, :, units] += a * (1.0 - pk) * v_same
        var_in[units, :, units] -= a * a * pk * (1.0 - pk) * np.abs(v_same) ** 2
        w = rho_d * p * (s * s) * (np.abs(mean_in) ** 2 + var_in)
        w[units, n, units] = 0.0
        leak[n] = np.einsum("klj->kj", w)
        p_bar[n] = view.p_bar

    return ExpectedFloorTable(base=base, leak=leak, p_bar=p_bar, rho_d_own=rho_d)


@dataclass(frozen=True)
class SchedulingSolution:
    """Result of the device-count search."""

    K_opt: int
    nse_opt: float
    K_values: tuple
    nse_curve: np.ndarray


def optimal_num_devices(table: ExpectedFloorTable, T: int) -> SchedulingSolution:
    """Score K = 1..table.pool admitted devices by the network SE of the
    table's (N, K) floor-bound SINRs ``table.gamma_hat(K)`` at pilot length
    t = K, and return the argmax."""
    K_values = list(range(1, table.pool + 1))
    curve = np.array([sse(table.gamma_hat(K), K, T) for K in K_values])
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
