"""Reference implementations kept as oracles for the vectorized code.

Each function here is a slower, literal transcription of a formula that the
package evaluates in a faster form. Tests compare the two.

Per-link oracles of the uplink model, one link or one unit at a time:

- ``antenna_position`` and ``los_link``: one antenna of a unit's lattice
  and one device's free-space LOS channel toward a unit, against
  ``unit_antenna_grid`` and ``links.build_unit_geometry``;
- ``steering_vector``: one planar-array steering column, against the
  columns of ``channel.root_matrix_from_angles``;
- ``pilot_book``, ``received_block`` and ``ls_despread``: the full M x t
  pilot block and its least-squares despreading, against the estimation
  shortcut inside ``links.BlockKernel``;
- ``desired_power`` and ``interference_terms``: the matched-filter X, Y, Z
  and I of one filter vector, against ``BlockKernel.terms``;
- ``to_local`` and ``subset``: a panel frame's inverse map and the
  first-K-devices view of a deployment;
- ``transmit_snr``: the power-control rule of one device toward any unit
  center, off-boresight included, against ``scenario.pilot_snrs`` and
  ``data_snrs``.

``moment_fields``, ``los_phase`` and ``kernel_products`` transcribe the
``einsum`` forms of the moment and kernel contractions.

``expected_floor_table`` is the Theorem 2 floor table built from a
deployment and a system config, with its own power control, contamination
and LOS rules and a per-panel same-pilot loop, against
``optimize.expected_floor_table`` on a ``LinkWorld``; ``mu_I_bar`` is the
composite interference mean assembled as one const + noise/t split,
against ``MomentSet.mu_I_bar``.
"""

import dataclasses
import math

import numpy as np

from lis_uplink.asymptotics import quarter_solid_angle, serving_power
from lis_uplink.links import UnitChannelStats, build_unit_geometry, sample_unit_channels
from lis_uplink.optimize import ExpectedFloorTable
from lis_uplink.scenario import Deployment, data_snrs, pilot_snrs


def moment_fields(stats: UnitChannelStats, pilot_snrs: np.ndarray) -> dict:
    """Lemma 1-3 coefficients of unit (n, k), keyed by their ``MomentSet``
    field names: one ``einsum`` per sum and one pass per contaminator for
    the Lemma 2 cross term."""
    geom = stats.geom
    n, k = geom.n, geom.k
    N, K = geom.p_los.shape
    M = geom.hlos.shape[2]
    hlos_own = geom.hlos[n, k]
    rho_p_own = float(pilot_snrs[n, k])

    sqrt_ratio = np.sqrt(pilot_snrs[:, k] / rho_p_own)
    sqrt_ratio[n] = 0.0
    ratio = sqrt_ratio**2
    cont_w = ratio * stats.nlos_var[:, k]

    mu_e = np.einsum("l,lm->m", sqrt_ratio, stats.hbar[:, k])
    q_bar = hlos_own + mu_e

    roots_k = stats.roots[:, k]
    rowpow = np.einsum("lmp->lm", np.abs(roots_k) ** 2)

    mu_x = complex(np.einsum("m,m->", np.conj(mu_e), hlos_own))
    proj_x = np.einsum("lmp,m->lp", np.conj(roots_k), hlos_own)
    var_x_const = float(np.einsum("l,lp->", cont_w, np.abs(proj_x) ** 2))
    var_x_noise = geom.own_power / rho_p_own

    mu_y = np.einsum("m,ljm->lj", np.conj(q_bar), stats.hbar)
    hbar_norm2 = np.einsum("ljm->lj", np.abs(stats.hbar) ** 2)

    proj_el = np.einsum("cmp,ljm->cljp", np.conj(roots_k), stats.hbar)
    el_const = np.einsum("c,cljp->lj", cont_w, np.abs(proj_el) ** 2)
    el_noise = hbar_norm2 / rho_p_own

    proj_en = np.einsum("m,ljmp->ljp", np.conj(q_bar), stats.roots)
    term_a = np.einsum("ljp->lj", np.abs(proj_en) ** 2)
    term_b = np.zeros((N, K))
    for c in range(N):
        if cont_w[c] == 0.0:
            continue
        cross = np.einsum("mp,ljmq->ljpq", np.conj(roots_k[c]), stats.roots)
        term_b += cont_w[c] * np.einsum("ljpq->lj", np.abs(cross) ** 2)
    rootfrob = np.einsum("ljmp->lj", np.abs(stats.roots) ** 2)
    en_const = stats.nlos_var * (term_a + term_b)
    en_noise = stats.nlos_var * rootfrob / rho_p_own

    var_y_const = el_const + en_const
    var_y_noise = el_noise + en_noise
    mu_y[n, k] = 0.0
    var_y_const[n, k] = 0.0
    var_y_noise[n, k] = 0.0

    var_z_const_m = np.einsum("c,cm->m", cont_w, rowpow)
    var_z_noise_m = 1.0 / rho_p_own

    return {
        "n": n,
        "k": k,
        "M": M,
        "mu_x": mu_x,
        "var_x_const": var_x_const,
        "var_x_noise": var_x_noise,
        "mu_y": mu_y,
        "var_y_const": var_y_const,
        "var_y_noise": var_y_noise,
        "q_bar": q_bar,
        "var_z_const_m": var_z_const_m,
        "var_z_noise_m": var_z_noise_m,
    }


def los_phase(d: np.ndarray, lam: float) -> np.ndarray:
    """LOS phase exp(-2j pi d / lambda) in its complex-arithmetic form."""
    return np.exp(-2j * np.pi * d / lam)


def kernel_products(stats: UnitChannelStats, g: np.ndarray, w: np.ndarray, pilot_snrs: np.ndarray):
    """Sampled inner products of ``BlockKernel`` for unit (n, k), one
    ``einsum`` each: A = u^H h_lj, C = w^H h_lj and A_pure = h_los^H h_lj,
    with u the noise-free LS filter."""
    geom = stats.geom
    n, k = geom.n, geom.k
    ch = sample_unit_channels(stats, g)
    hlos = geom.hlos[n, k]
    sqrt_ratio = np.sqrt(pilot_snrs[:, k] / pilot_snrs[n, k])
    sqrt_ratio[n] = 0.0
    u = hlos + np.einsum("l,lm->m", sqrt_ratio, ch[:, k])
    A = np.einsum("m,ljm->lj", np.conj(u), ch)
    C = np.einsum("m,ljm->lj", np.conj(w), ch)
    A_pure = np.einsum("m,ljm->lj", np.conj(hlos), ch)
    return A, C, A_pure


def antenna_position(deployment, config, n: int, k: int, m: int) -> np.ndarray:
    """Global position of antenna m of unit (n, k): a centered square
    lattice of pitch delta_L, index m = iv * sqrt(M) + ih (vertical major)."""
    side = config.m_side
    iv, ih = divmod(int(m), side)
    offsets = (np.arange(side) + 0.5 - 0.5 * side) * config.spacing
    local = deployment.unit_centers_local[n, k] + np.array([offsets[ih], offsets[iv], 0.0])
    return deployment.frames[n].to_global(local)


def los_link(device, antennas: np.ndarray, frame, lam: float):
    """Free-space LOS channel of one device toward the antennas of a panel
    with the given frame: (distances d_m, vector beta_m exp(-2j pi d_m /
    lambda), power sum_m beta_m^2), with beta_m = sqrt(z / d_m) /
    sqrt(4 pi d_m^2) and z the device's offset along the panel normal."""
    device = np.asarray(device, dtype=float)
    z = float(np.dot(device - frame.origin, frame.normal))
    d = np.array([math.dist(device, a) for a in antennas])
    beta = np.sqrt(z / d) / np.sqrt(4.0 * math.pi * d * d)
    return d, beta * np.exp(-2j * math.pi * d / lam), float(np.sum(beta**2))


def steering_vector(phi_v: float, phi_h: float, M: int, delta_L: float, lam: float) -> np.ndarray:
    """Planar-array steering vector (1/sqrt(M)) d_v kron d_h with phase step
    (2 pi delta_L / lambda) * phi along each axis; entry m = iv * sqrt(M) + ih."""
    side = math.isqrt(int(M))
    step = 2.0 * math.pi * delta_L / lam
    idx = np.arange(side)
    d_v = np.exp(1j * step * idx * phi_v)
    d_h = np.exp(1j * step * idx * phi_h)
    return np.einsum("v,h->vh", d_v, d_h).reshape(M) / math.sqrt(M)


def pilot_book(t: int, K: int) -> np.ndarray:
    """(t, K) pilot book: the first K columns of the unit-norm t-point DFT
    basis; column k is the pilot of device k on every panel."""
    if t < K:
        raise ValueError(f"pilot length t={t} must be >= K={K}")
    s = np.arange(t)[:, np.newaxis]
    k = np.arange(K)[np.newaxis, :]
    return np.exp(-2j * math.pi * s * k / t) / math.sqrt(t)


def received_block(channels: np.ndarray, book: np.ndarray, pilot_snrs: np.ndarray,
                   noise: np.ndarray | None = None) -> np.ndarray:
    """(M, t) received pilot block of one unit: device j of every panel l
    sends pilot column j with amplitude sqrt(t * rho_p[l, j]) through its
    channel channels[l, j]; noise, if given, is added as is."""
    t, K = book.shape
    if channels.shape[1] != K:
        raise ValueError(f"pilot book has {K} columns, need {channels.shape[1]}")
    amps = np.sqrt(t * np.asarray(pilot_snrs, dtype=float))
    y = np.einsum("lj,ljm,tj->mt", amps, channels, book)
    return y if noise is None else y + noise


def ls_despread(Y: np.ndarray, psi_k: np.ndarray, t: int, rho_p_own: float) -> np.ndarray:
    """Least-squares estimate Y conj(psi_k) / sqrt(t rho_p) of the channel
    of the device that sent pilot psi_k."""
    if rho_p_own <= 0:
        raise ValueError(f"pilot SNR must be positive, got {rho_p_own}")
    return (Y @ np.conj(psi_k)) / math.sqrt(t * rho_p_own)


def desired_power(h_los: np.ndarray) -> float:
    """Matched-filter signal power (sum_m |h_m|^2)^2 of the serving LOS
    channel."""
    return float(np.sum(np.abs(h_los) ** 2) ** 2)


def interference_terms(h_hat, h_los, channels: np.ndarray, rho_d: np.ndarray, n: int, k: int) -> dict:
    """Matched-filter terms of unit (n, k) with filter h_hat, serving LOS
    channel h_los and incoming channels (N, K, M): X = |e^H h_los|^2 with
    e = h_hat - h_los, Y[l, j] = |h_hat^H h_lj|^2 (serving slot zero),
    Z = ||h_hat||^2, the rho-weighted composite I, and the signal S."""
    e = h_hat - h_los
    X = float(np.abs(np.vdot(e, h_los)) ** 2)
    Y = np.abs(np.einsum("m,ljm->lj", np.conj(h_hat), channels)) ** 2
    Y[n, k] = 0.0
    Z = float(np.sum(np.abs(h_hat) ** 2))
    I = float(rho_d[n, k] * X + np.sum(rho_d * Y) + Z)
    return {"X": X, "Y": Y, "Z": Z, "I": I, "S": desired_power(h_los)}


def to_local(frame, points_global: np.ndarray) -> np.ndarray:
    """Inverse of ``LisFrame.to_global``: global points in the panel frame."""
    return (points_global - frame.origin) @ frame.rotation


def subset(deployment: Deployment, K: int) -> Deployment:
    """First-K-devices view of a deployment (the placement is sequential,
    so it is exactly what a K-device placement would give)."""
    if not (1 <= K <= deployment.K):
        raise ValueError(f"subset size {K} outside [1, {deployment.K}]")
    return Deployment(
        frames=deployment.frames,
        devices_local=deployment.devices_local[:, :K],
        devices=deployment.devices[:, :K],
        unit_centers_local=deployment.unit_centers_local[:, :K],
        unit_centers=deployment.unit_centers[:, :K],
    )


def transmit_snr(device, unit_center, target: float) -> float:
    """Transmit SNR that makes the received SNR at the unit-center antenna
    equal ``target``: rho * beta_center^2 = target.

    Coordinates are in the panel frame, whose plane contains the unit
    center; the center-antenna LOS gain is beta^2 = (z/d) / (4 pi d^2)
    with d the device-to-center distance and z the perpendicular offset.
    """
    delta = np.asarray(device, float) - np.asarray(unit_center, float)
    d = float(np.linalg.norm(delta))
    z = float(delta[2])
    if d <= 0.0 or z <= 0.0:
        raise ValueError("device sits on the LIS plane; channel gain undefined")
    beta2_center = (z / d) / (4.0 * math.pi * d * d)
    return float(target) / beta2_center


def expected_floor_table(deployment: Deployment, config, regime: str = "rician") -> ExpectedFloorTable:
    """Expected-gating floor table over the full device pool, one unit and
    one same-pilot panel at a time."""
    if regime not in ("rician", "nlos_inter"):
        raise ValueError(f"unknown interference regime {regime!r}")
    N, Kp = deployment.N, deployment.K
    cfg = config
    if cfg.N != N or cfg.K != Kp:
        cfg = dataclasses.replace(config, N=N, K=Kp, t=None)
    rho_p = pilot_snrs(deployment, cfg)
    rho_d = data_snrs(deployment, cfg)
    M = cfg.M

    base = np.zeros((N, Kp))
    leak = np.zeros((N, Kp, Kp))
    p_bar = np.zeros((N, Kp))
    for n in range(N):
        for k in range(Kp):
            geom = build_unit_geometry(deployment, cfg, n, k)
            p = geom.p_los
            s = np.sqrt(geom.kappa_cand / (geom.kappa_cand + 1.0))
            if regime == "nlos_inter":
                s = np.where(np.arange(N)[:, np.newaxis] == n, s, 0.0)
            s2 = s * s
            hlos = geom.hlos
            own = hlos[n, k]
            u = np.einsum("m,ljm->lj", np.conj(own), hlos)
            V = np.einsum("cm,ljm->clj", np.conj(hlos[:, k]), hlos)

            a = np.sqrt(rho_p[:, k] / rho_p[n, k]) * s[:, k]
            a[n] = 0.0
            pk = p[:, k]

            x = a * np.conj(u[:, k])
            base[n, k] = rho_d[n, k] * (
                np.abs(np.sum(pk * x)) ** 2 + float(np.sum(pk * (1.0 - pk) * np.abs(x) ** 2))
            )

            mean_in = u + np.einsum("c,clj->lj", a * pk, V)
            var_in = np.einsum("c,clj->lj", a * a * pk * (1.0 - pk), np.abs(V) ** 2)
            for l in range(N):
                if l == n or a[l] == 0.0:
                    continue
                # same-pilot interferer: its gate is the c=l contamination gate
                mean_in[l, k] += a[l] * (1.0 - pk[l]) * V[l, l, k]
                var_in[l, k] -= a[l] ** 2 * pk[l] * (1.0 - pk[l]) * np.abs(V[l, l, k]) ** 2
            w = rho_d * p * s2 * (np.abs(mean_in) ** 2 + var_in)
            w[n, k] = 0.0
            leak[n, k] = np.einsum("lj->j", w)

            z_own = deployment.devices_local[n, k, 2]
            p_bar[n, k] = serving_power(M, quarter_solid_angle(cfg.L, z_own), cfg.L)

    return ExpectedFloorTable(base=base, leak=leak, p_bar=p_bar, rho_d_own=rho_d)


def mu_I_bar(ms, t: float) -> float:
    """Composite interference mean of a ``MomentSet`` at pilot length t:
    the t-independent part of the rho-weighted X, Y and Z second moments
    plus their 1/t coefficients over t."""
    rho, rho_own = ms.rho_d, ms.rho_d_own
    const = (
        rho_own * (ms.var_x_const + abs(ms.mu_x) ** 2)
        + float(np.sum(rho * (ms.var_y_const + np.abs(ms.mu_y) ** 2)))
        + float(np.sum(ms.var_z_const_m) + np.sum(np.abs(ms.q_bar) ** 2))
    )
    noise = (
        rho_own * ms.var_x_noise
        + float(np.sum(rho * ms.var_y_noise))
        + ms.M * ms.var_z_noise_m
    )
    return const + noise / t
