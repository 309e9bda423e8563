"""Reference implementations kept as oracles for the vectorized code.

Each function here is a slower, literal transcription of a formula that the
package evaluates in a faster form. Tests compare the two.

Per-link oracles of the uplink model, one link or one unit at a time:

- ``antenna_position`` and ``los_link``: one antenna of a unit's lattice
  and one device's free-space LOS channel toward a unit, against
  ``links.build_unit_geometry``;
- ``unit_antenna_grid``, ``unit_center`` and ``center_distances``: a
  unit's antennas (``antenna_position`` for every m at once) and center in
  global coordinates, and every device's distance to that center, against
  the panel-axis lattice rows, ``kappa_cand`` and ``p_los`` of
  ``links.build_unit_geometry``;
- ``steering_vector``: one planar-array steering column, against the
  columns of a dense ``channel.root_matrix_from_angles`` root;
- ``pilot_book``, ``received_block`` and ``ls_despread``: the full M x t
  pilot block and its least-squares despreading, against the estimation
  shortcut inside ``links.BlockKernel``;
- ``desired_power`` and ``interference_terms``: the matched-filter X, Y, Z
  and I of one filter vector, against ``BlockKernel.terms``;
- ``to_local`` and ``subset``: a panel frame's inverse map and the
  first-K-devices view of a deployment, against ``Deployment.prefix``;
- ``place_devices``: the rejection placement drawing one candidate per
  attempt, against the chunked ``scenario.place_devices``;
- ``transmit_snr``: the power-control rule of one device toward any unit
  center, off-boresight included, against ``scenario.transmit_snrs``.

``moment_fields``, ``kernel_products`` and ``dense_channels`` transcribe
the ``einsum`` forms of the moment, kernel and sampling contractions on
dense (N, K, M, P) roots. ``los_phase`` is the LOS phase in complex
arithmetic, against ``channel.half_angle_phasor`` on the LOS half
angles, and ``unit_distances`` a unit's distances summed over the three
global axes of every antenna, against ``links.build_unit_geometry``.
``phase_ramp_cumprod`` (running products of one phasor) and
``phase_ramp_exp`` (one complex exponential per entry) are the steering
ramps against the doubling ramps of ``channel._phase_ramp``, and
``root_factors`` assembles the factored roots from ``np.sin``/``np.cos``
of the path angles and cumprod ramps, scaled by the path gains in a pass
of their own, against ``channel.root_matrix_from_angles``. ``with_budget``
swaps the link budget a unit's statistics carry, for tests that set their
own transmit SNRs. ``prefix_stats`` cuts a unit's statistics to the first
K devices per panel, against statistics built on ``Deployment.prefix(K)``.

As in the engine, a sweep point is a deployment and the system config its
links are built for; the oracles below take the pair.

``sampled_nse_per_count`` is the device-count sampler that redraws every
unit and builds its statistics and kernel once per admitted count K, on
the pool's first K devices alone, against ``harness._sampled_nse``'s one
kernel per unit read at every K. It scores each count with
``nse_of_gammas``, the network SE at t = K written out on its own (prelog
times the mean over panels of the per-panel SE sums), which is the oracle
of ``asymptotics.sse`` on (N, K) SINRs.

``panel`` is the single-panel view of a deployment. ``twin_blocks`` and
the three twin reductions ``se_variance``, ``panel0_sse`` and ``csi``
(fig4, fig5/fig6, fig6b) compare each multi-LIS unit with a single-LIS
twin built as a system of its own: ``panel(deployment, 0)`` under an
N = 1 config, with its own geometry, statistics, sampled channels and
moment sets, fed the panel-0 slice of every multi-LIS draw. They are the
oracle of the engine's twin, which is the panel-0 cut of the multi-LIS
unit's statistics and of its sampled channels.

``cgauss`` draws complex Gaussians with two ``standard_normal`` calls,
the real block and then the imaginary block, against ``channel.cgauss``'s
one call per layout. ``refades`` draws one fig4/oracle realization from
its own stream with two such draws at one array size, against
``harness._refades``, which draws each stream once at the sweep's
largest size. ``se_variance`` (above) and ``oracle`` are fig4 and the
moment oracle built on ``refades``, one realization and one kernel at a
time.

``expected_floor_table`` is the Theorem 2 floor table built from a
deployment and a system config, one whole-pool unit geometry at a time
with every link's LOS products, its own contamination and LOS rules and a
per-panel same-pilot loop, against ``optimize.expected_floor_table``,
which forms LOS products only for links that can carry LOS; ``mu_I_bar`` is the
composite interference mean assembled as one const + noise/t split,
against ``MomentSet.mu_I_bar``.
"""

import dataclasses
import math

import numpy as np

from lis_uplink import harness
from lis_uplink.asymptotics import build_moment_set, sse, theorem1_sse
from lis_uplink.channel import CorrelationRoot
from lis_uplink.links import (
    DOMAIN_BLOCK,
    BlockKernel,
    UnitChannelStats,
    build_unit_geometry,
    exact_sinr,
    make_unit_stats,
    panel_view,
    sample_unit_channels,
    stream,
)
from lis_uplink.optimize import ExpectedFloorTable
from lis_uplink.config import PlacementConfig
from lis_uplink.scenario import (
    Deployment,
    InfeasiblePlacementError,
    build_layout,
    quarter_solid_angle,
    serving_power,
    transmit_snrs,
)


def cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian draws: the real block, then the imaginary
    block, each from its own ``standard_normal`` call."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def refades(spec, cfg, p: int, r: int, n: int, k: int):
    """Fresh fading g (N, K, P) and noise w (M,) of realization r of unit
    (n, k), on top of the frozen block-0 condition (stream address
    b = r + 1), one realization at a time."""
    rng = stream(spec.system.seed, DOMAIN_BLOCK, p, r + 1, n, k)
    return cgauss(rng, (cfg.N, cfg.K, cfg.P)), cgauss(rng, (cfg.M,))


def with_budget(stats: UnitChannelStats, **budget) -> UnitChannelStats:
    """Block statistics whose geometry carries the given ``rho_p``,
    ``rho_d`` or ``p_bar`` in place of its own link budget."""
    return dataclasses.replace(stats, geom=dataclasses.replace(stats.geom, **budget))


def prefix_stats(stats: UnitChannelStats, K: int) -> UnitChannelStats:
    """First K devices per panel of a unit's block statistics (array views):
    the statistics of a pool's admitted prefix, every panel kept."""
    geom, roots = stats.geom, stats.roots
    per_link = ("distances", "hlos", "kappa_cand", "p_los", "rho_p", "rho_d")
    return dataclasses.replace(
        stats,
        geom=dataclasses.replace(geom, **{name: getattr(geom, name)[:, :K] for name in per_link}),
        kappa=stats.kappa[:, :K], nlos_scale=stats.nlos_scale[:, :K], hbar=stats.hbar[:, :K],
        roots=CorrelationRoot(roots.ramp_v[:, :K], roots.ramp_h[:, :K], roots.pathloss[:, :K]),
    )


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

    roots = stats.roots.dense()
    roots_k = roots[:, k]
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

    proj_en = np.einsum("m,ljmp->ljp", np.conj(q_bar), roots)
    term_a = np.einsum("ljp->lj", np.abs(proj_en) ** 2)
    term_b = np.zeros((N, K))
    for c in range(N):
        if cont_w[c] == 0.0:
            continue
        cross = np.einsum("mp,ljmq->ljpq", np.conj(roots_k[c]), roots)
        term_b += cont_w[c] * np.einsum("ljpq->lj", np.abs(cross) ** 2)
    rootfrob = np.einsum("ljmp->lj", np.abs(roots) ** 2)
    en_const = stats.nlos_var * (term_a + term_b)
    en_noise = stats.nlos_var * rootfrob / rho_p_own

    var_y_const = el_const + en_const
    var_y_noise = el_noise + en_noise
    mu_y[n, k] = 0.0
    var_y_const[n, k] = 0.0
    var_y_noise[n, k] = 0.0

    return {
        "mu_x": mu_x,
        "var_x_const": var_x_const,
        "var_x_noise": var_x_noise,
        "mu_y": mu_y,
        "var_y_const": var_y_const,
        "var_y_noise": var_y_noise,
        "var_z_const": float(np.einsum("c,cm->", cont_w, rowpow)),
        "var_z_noise": M / rho_p_own,
        "z_mean_sq": float(np.einsum("m->", np.abs(q_bar) ** 2)),
    }


def los_phase(d: np.ndarray, lam: float) -> np.ndarray:
    """LOS phase exp(-2j pi d / lambda) in its complex-arithmetic form."""
    return np.exp(-2j * np.pi * d / lam)


def phase_ramp_cumprod(phi: np.ndarray, side: int, step: float) -> np.ndarray:
    """exp(1j * step * i * phi) for i = 0..side-1 as (..., side, P): running
    products of one complex-exponential phasor per path."""
    ramp = np.empty((*phi.shape[:-1], side, phi.shape[-1]), dtype=complex)
    ramp[..., 0, :] = 1.0
    ramp[..., 1:, :] = np.exp(1j * step * phi)[..., np.newaxis, :]
    return np.cumprod(ramp, axis=-2, out=ramp)


def phase_ramp_exp(phi: np.ndarray, side: int, step: float) -> np.ndarray:
    """exp(1j * step * i * phi) for i = 0..side-1 as (..., side, P), one
    complex exponential per entry."""
    i = np.arange(side)[:, np.newaxis]
    return np.exp(1j * step * i * phi[..., np.newaxis, :])


def root_factors(angles: np.ndarray, distances: np.ndarray, config) -> CorrelationRoot:
    """Factored correlation roots from ``np.sin``/``np.cos`` of the path
    angles and cumprod ramps, the vertical ramp scaled by alpha_p / sqrt(M)
    in a pass of its own."""
    theta_v, theta_h = angles[..., 0], angles[..., 1]
    alpha = np.sqrt(np.abs(np.cos(theta_v) * np.cos(theta_h)))
    step = 2.0 * math.pi * config.spacing / config.lam
    ramp_v = phase_ramp_cumprod(np.sin(theta_v), config.m_side, step)
    ramp_v *= (alpha / math.sqrt(config.M))[..., np.newaxis, :]
    return CorrelationRoot(
        ramp_v=ramp_v,
        ramp_h=phase_ramp_cumprod(np.sin(theta_h) * np.cos(theta_h), config.m_side, step),
        pathloss=distances ** (-config.beta_PL / 2.0),
    )


def unit_distances(deployment: Deployment, config, n: int, k: int) -> np.ndarray:
    """(N, K, M) device-to-antenna distances of unit (n, k), the squared
    offsets summed one global axis at a time over every antenna, against
    the per-lattice-row sums of ``links.build_unit_geometry``."""
    antennas = unit_antenna_grid(deployment, config, n, k)
    d = np.zeros(deployment.devices.shape[:2] + antennas.shape[:1])
    for axis in range(3):
        d += np.square(deployment.devices[:, :, axis, np.newaxis] - antennas[:, axis])
    return np.sqrt(d)


def dense_channels(stats: UnitChannelStats, g: np.ndarray) -> np.ndarray:
    """All incoming link channels hbar + sqrt(1/(kappa+1)) R g with every R g
    contracted from the dense root, against ``sample_unit_channels``."""
    scattered = np.einsum("ljmp,ljp->ljm", stats.roots.dense(), g)
    return stats.hbar + stats.nlos_scale[:, :, np.newaxis] * scattered


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
    """Global position of antenna m of unit (n, k): a square lattice of
    pitch delta_L centered on the device's local (x, y) on panel n, index
    m = iv * sqrt(M) + ih (vertical major)."""
    side = config.m_side
    iv, ih = divmod(int(m), side)
    offsets = (np.arange(side) + 0.5) * config.spacing - 0.5 * side * config.spacing
    local = np.append(deployment.devices_local[n, k, :2], 0.0) + [offsets[ih], offsets[iv], 0.0]
    return deployment.frames[n].to_global(local)


def unit_antenna_grid(deployment, config, n: int, k: int) -> np.ndarray:
    """(M, 3) global positions of all antennas of unit (n, k) in the order
    m = iv * sqrt(M) + ih, ``antenna_position`` for every m at once."""
    side = config.m_side
    iv, ih = np.divmod(np.arange(config.M), side)
    offsets = (np.arange(side) + 0.5) * config.spacing - 0.5 * side * config.spacing
    local = np.zeros((config.M, 3))
    local[:, 0], local[:, 1] = offsets[ih], offsets[iv]
    return deployment.frames[n].to_global(np.append(deployment.devices_local[n, k, :2], 0.0) + local)


def unit_center(deployment, n: int, k: int) -> np.ndarray:
    """Global position of the center of unit (n, k): the device's local
    (x, y) on panel n's plane."""
    return deployment.frames[n].to_global(np.append(deployment.devices_local[n, k, :2], 0.0))


def center_distances(deployment, n: int, k: int) -> np.ndarray:
    """(N, K) distance from every device to the center of unit (n, k),
    summed over the three global axes."""
    diff = deployment.devices - unit_center(deployment, n, k)
    return np.sqrt(np.einsum("lji,lji->lj", diff, diff))


def los_link(device, antennas: np.ndarray, frame, lam: float):
    """Free-space LOS channel of one device toward the antennas of a panel
    with the given frame: (distances d_m, vector beta_m exp(-2j pi d_m /
    lambda), power sum_m beta_m^2), with beta_m = sqrt(z / d_m) /
    sqrt(4 pi d_m^2) and z the device's offset along the panel normal."""
    device = np.asarray(device, dtype=float)
    z = float(np.dot(device - frame.origin, frame.rotation[:, 2]))
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
    )


def place_devices(config, layout, rng, *, placement=None, K=None) -> Deployment:
    """Rejection placement drawing one uniform triple per attempt, against
    the chunked ``scenario.place_devices``: same acceptance rule, budget
    and truncation (a given K is a pool request), so the same deployment
    from the same generator state."""
    placement = placement or PlacementConfig()
    frames = build_layout(layout, config.N)
    pool_request = K is not None
    K = int(K) if pool_request else config.K
    half_x, half_y = 0.5 * layout.x_l, 0.5 * layout.y_l
    side = 2.0 * config.L

    per_panel = []
    for n in range(config.N):
        accepted = []
        for k in range(K):
            for _ in range(placement.attempt_budget):
                u = rng.random(3)
                x = (2.0 * u[0] - 1.0) * half_x
                y = (2.0 * u[1] - 1.0) * half_y
                z = u[2] * layout.box_height
                if z == 0.0:
                    continue  # a spent attempt
                if all(max(abs(x - q[0]), abs(y - q[1])) >= side for q in accepted):
                    accepted.append(np.array([x, y, z]))
                    break
            else:
                if pool_request:
                    break
                raise InfeasiblePlacementError(
                    f"infeasible placement: panel {n} device {k} found no "
                    f"disjoint unit square in {placement.attempt_budget} attempts"
                )
        per_panel.append(accepted)

    pool = min(len(acc) for acc in per_panel)
    if pool == 0:
        raise InfeasiblePlacementError("infeasible placement: a panel accepted no devices at all")
    devices_local = np.stack([np.stack(acc[:pool]) for acc in per_panel])
    return Deployment(
        frames=tuple(frames),
        devices_local=devices_local,
        devices=np.stack([frames[n].to_global(devices_local[n]) for n in range(config.N)]),
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
    rho_p, rho_d = transmit_snrs(deployment, cfg)
    M = cfg.M

    base = np.zeros((N, Kp))
    leak = np.zeros((N, Kp, Kp))
    p_bar = np.zeros((N, Kp))
    for n in range(N):
        for k in range(Kp):
            geom = build_unit_geometry(panel_view(deployment, cfg, n), k)
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
        + ms.var_z_const + ms.z_mean_sq
    )
    noise = (
        rho_own * ms.var_x_noise
        + float(np.sum(rho * ms.var_y_noise))
        + ms.var_z_noise
    )
    return const + noise / t


def nse_of_gammas(gammas: np.ndarray, K: int, T: int) -> float:
    """NSE for K admitted devices at t = K: prelog times the mean over
    panels of the per-panel SE sums."""
    gammas = np.asarray(gammas, dtype=float)
    prelog = 1.0 - K / T
    if prelog <= 0.0:
        return 0.0
    per_panel = np.sum(np.log2(1.0 + gammas), axis=-1)
    return float(prelog * np.mean(per_panel))


def sampled_nse_per_count(spec, pool, cfg, p: int, K_grid) -> list:
    """Monte Carlo NSE of each of the experiment's blocks for every K in
    K_grid, one count at a time: unit (n, k) is drawn again for each K > k
    under the pool config `cfg`, on the pool's first K devices, so its
    statistics and kernel cover those devices alone."""
    blocks = range(spec.experiment.realizations)
    out = [{} for _ in blocks]
    for K in K_grid:
        dep = pool.prefix(K)
        gam = np.empty((len(blocks), cfg.N, K))
        for n in range(cfg.N):
            for k in range(K):
                for i, (stats, draw) in enumerate(
                        harness._unit_blocks(spec, panel_view(dep, cfg, n), p, blocks, k)):
                    ch = sample_unit_channels(stats, draw.g)
                    gam[i, n, k] = BlockKernel(stats, ch, draw.w).gamma(K)
        for nse, gam_b in zip(out, gam):
            nse[K] = nse_of_gammas(gam_b, K, cfg.T)
    return out


def panel(deployment: Deployment, n: int) -> Deployment:
    """Single-panel view: panel n alone with its own devices (the matching
    single-LIS system for gap comparisons)."""
    if not (0 <= n < deployment.N):
        raise ValueError(f"panel index {n} outside [0, {deployment.N})")
    return Deployment(
        frames=(deployment.frames[n],),
        devices_local=deployment.devices_local[n : n + 1],
        devices=deployment.devices[n : n + 1],
    )


def twin_blocks(spec, dep, cfg, p: int, blocks, k: int):
    """For each block in `blocks`, ((stats, draw) of unit (0, k) of the
    multi-LIS system (dep, cfg), (stats, draw) of the same unit in its
    single-LIS twin): panel 0 alone under an N = 1 config, with its own
    geometry and statistics built from the panel-0 slice of the multi-LIS
    draw."""
    twin_cfg = dataclasses.replace(cfg, N=1)
    geom = build_unit_geometry(panel_view(panel(dep, 0), twin_cfg, 0), k)
    for stats, draw in harness._unit_blocks(spec, panel_view(dep, cfg, 0), p, blocks, k):
        cut = dataclasses.replace(draw, coins=draw.coins[:1], angles=draw.angles[:1],
                                  g=draw.g[:1])
        yield (stats, draw), (make_unit_stats(geom, cut, twin_cfg,
                                              spec.experiment.interference), cut)


def se_variance(spec, p: int):
    """fig4 on a twin system, one realization at a time: the twin's kernel
    samples panel 0's channels from its own statistics and the first panel
    of every ``refades`` draw, made at each array size on its own."""
    R = spec.experiment.realizations
    recs, mean_se = [], {}
    for M, dep, cfg in harness._sweep_points(spec, p):
        t = cfg.pilot_len
        (frozen,) = twin_blocks(spec, dep, cfg, p, [0], 0)
        se = np.empty((2, R))
        for r in range(R):
            g, w = refades(spec, cfg, p, r, 0, 0)
            for i, (stats, draw) in enumerate(frozen):
                ch = sample_unit_channels(stats, g[: len(draw.g)])
                se[i, r] = sse(BlockKernel(stats, ch, w).gamma(t), t, cfg.T)
        for label, row in zip(("multi-LIS SE variance", "single-LIS SE variance"), se):
            recs.append((float(M), label, p, 0, float(np.var(row, ddof=1)) if R > 1 else 0.0))
            mean_se.setdefault(label, {})[M] = float(np.mean(row))
    return recs, {"mean_se": mean_se}


def oracle(spec, p: int):
    """The moment oracle one realization at a time: unit (0, 0)'s block-0
    statistics at each array size, a kernel on every ``refades`` draw made
    at that size, and the sample means against the moment set's closed
    forms."""
    R = spec.experiment.realizations
    recs, report = [], []
    for M, dep, cfg in harness._sweep_points(spec, p):
        t, M2 = cfg.pilot_len, float(M) ** 2
        [(stats, _)] = harness._unit_blocks(spec, panel_view(dep, cfg, 0), p, [0], 0)
        ms = build_moment_set(stats)
        samples = np.empty((4, R))  # X, Y total, Z, I
        for r in range(R):
            g, w = refades(spec, cfg, p, r, 0, 0)
            terms = BlockKernel(stats, sample_unit_channels(stats, g), w).terms(t)
            samples[:, r] = terms.X, np.sum(ms.rho_d * terms.Y), terms.Z, terms.I
            recs += [(float(M), "X", p, r, float(terms.X)),
                     (float(M), "Y total", p, r, float(samples[1, r])),
                     (float(M), "Z", p, r, float(terms.Z)),
                     (float(M), "I over M^2", p, r, float(terms.I) / M2)]
        closed = (ms.mu_X(t), float(np.sum(ms.rho_d * ms.mu_Y_bar(t))), ms.mu_Z(t), ms.mu_I_bar(t))
        report.append({
            "M": M, "unit": [0, 0], "t": t,
            "kappa": [[float(v) for v in row] for row in stats.kappa],
            **{name: harness._oracle_entry(row, c)
               for name, row, c in zip(("X", "Y_total", "Z", "I"), samples, closed)},
            "I_over_M2": harness._oracle_entry(samples[3] / M2, closed[3] / M2),
        })
    return recs, {"oracle": report}


def panel0_sse(spec, p: int):
    """fig5/fig6 on a twin system: the twin's kernels and moment sets come
    from its own statistics."""
    stride, R = spec.experiment.theory_stride, spec.experiment.realizations
    recs = []
    for M, dep, cfg in harness._sweep_points(spec, p):
        t, T, K = cfg.pilot_len, cfg.T, cfg.K
        gammas = np.empty((R, 2, K))
        terms = np.empty((R, 2, K, 4))
        for k in range(K):
            for b, pairs in enumerate(twin_blocks(spec, dep, cfg, p, range(R), k)):
                for i, (stats, draw) in enumerate(pairs):
                    ch = sample_unit_channels(stats, draw.g)
                    gammas[b, i, k] = BlockKernel(stats, ch, draw.w).gamma(t)
                    if b % stride == 0:
                        terms[b, i, k] = build_moment_set(stats).sse_terms(t)
        for b in range(R):
            for row, tag in zip(gammas[b], ("multi-LIS", "single-LIS")):
                recs.append((float(M), f"{tag} imperfect CSI", p, b, sse(row, t, T)))
            if b % stride == 0:
                for rows, suffix in zip(terms[b], ("", " single-LIS")):
                    th = theorem1_sse(rows, t, T)
                    recs.append((float(M), f"Theorem 1{suffix}", p, b, th.sse_bar))
                    if math.isfinite(th.sse_hat):
                        recs.append((float(M), f"Theorem 2 bound{suffix}", p, b, th.sse_hat))
    return recs, {}


def csi(spec, p: int):
    """fig6b on a twin system: the twin's perfect- and estimated-CSI kernel
    comes from its own statistics."""
    R = spec.experiment.realizations
    recs = []
    for M, dep, cfg in harness._sweep_points(spec, p):
        t, T, K = cfg.pilot_len, cfg.T, cfg.K
        gammas = np.empty((R, 2, 2, K))
        for k in range(K):
            for b, pairs in enumerate(twin_blocks(spec, dep, cfg, p, range(R), k)):
                for i, (stats, draw) in enumerate(pairs):
                    ch = sample_unit_channels(stats, draw.g)
                    gammas[b, i, :, k] = (BlockKernel(stats, ch, draw.w).gamma(t),
                                          exact_sinr(stats, ch))
        for b in range(R):
            for (est, exact), tag in zip(gammas[b], ("multi-LIS", "single-LIS")):
                recs.append((float(M), f"{tag} imperfect CSI", p, b, sse(est, t, T)))
                recs.append((float(M), f"{tag} perfect CSI", p, b, sse(exact, t, T)))
    return recs, {}
