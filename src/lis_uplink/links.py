"""Per-unit link bundles shared by the sampling and closed-form paths.

For one receiving unit (n, k), everything about its N*K incoming links is
held in array form: LOS vectors, per-antenna distances, candidate Rician
factors, LOS probabilities. A coherence block fixes the random channel
statistics (LOS gating coins and scattered-path angles); fading and noise
are then drawn from those statistics. Both the Monte Carlo samplers and
the closed-form moment formulas consume the same objects, so the two
evaluation routes stay conditioned on identical channel laws.

A block's scattering roots stay in the factored form of
``channel.CorrelationRoot``: ``sample_unit_channels`` forms every R g as
path loss times vec(ramp_v diag(g) ramp_h^T), one batched matrix product
per block, and no (N, K, M, P) root tensor is built on the sampling path.

A sweep point is a deployment and the system config its links are built
for. ``panel_view`` turns it into one ``PanelView`` per panel: every
device on the panel's own axes, where each unit's antennas form a square
lattice around its device's local (x, y), so any panel rotation is
accepted; the LOS probability and candidate Rician factor of every link
to each of the panel's units; and the link budget that the placement
fixes, the pilot and data transmit SNRs of every device (power control)
and each unit's deterministic serving power of Theorems 1 and 2. The
sampler's reductions build one view per panel they walk, and the floor
table (``optimize.expected_floor_table``) reads the same view.
``build_unit_geometry(view, k)`` then forms only what is unit k's own:
its links' distances and LOS vectors and its serving LOS power; the rest
are views of the panel's arrays. The sampler and the Lemma moments read
the budget from the unit's geometry alone.

``los_vectors`` is the one LOS formula, called by ``build_unit_geometry``
and by the floor table, which forms a unit's LOS vectors only for the
links that can carry LOS. They are ``channel.half_angle_phasor`` values on
the half LOS phase, the gain folded into the one divide; of their powers
only the serving link's is summed (``own_power``).

The two rules of the link model live here alone: ``contamination_weights``
(which same-pilot devices contaminate a unit's channel estimate, and how
strongly) and ``los_allowed`` (which panels' links may carry LOS under an
interference regime). The sampler (``make_unit_stats``, ``BlockKernel``),
the Lemma moments (``asymptotics.build_moment_set``) and the Theorem 2
floor table (``optimize.expected_floor_table``) all read them.

A panel-0 unit's single-LIS twin is its cut to panel 0, statistics
``slice_stats(stats, N=1)`` and channels ``ch[..., :1, :, :]``, which
``BlockKernel`` and ``exact_sinr`` take as they take the unit's own.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import (CorrelationRoot, cgauss, half_angle_phasor, rician_mixing,
                      root_matrix_from_angles)
from .config import SystemConfig
from .scenario import (Deployment, los_probability, quarter_solid_angle, rician_factor,
                       serving_power, transmit_snrs)

# RNG stream domains (SeedSequence spawn keys): placement draws and
# per-unit block draws.
DOMAIN_PLACEMENT = 0
DOMAIN_BLOCK = 1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream addressed by integers; independent of worker
    scheduling because the address, not the call order, selects the state."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


_MASK32 = 0xFFFFFFFF  # numpy's SeedSequence pool hash runs on uint32 words


def _hasher(const: int, mult: int):  # SeedSequence's hashmix over uint32 arrays
    def hashmix(value):
        nonlocal const
        value, const = value ^ np.uint32(const), const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def stream_words(seed: int, *key) -> np.ndarray:
    """(*batch, 4) uint64 seeding words of ``stream(seed, *key)``, key words
    broadcast as arrays: ``SeedSequence(seed, spawn_key=key).generate_state(4,
    uint64)`` row for row, in one hash pass. ValueError for a negative seed
    or a key word past one entropy word, [0, 2**32)."""
    seed = operator.index(seed)
    if seed < 0 or any(np.any((np.asarray(w) < 0) | (np.asarray(w) > _MASK32)) for w in key):
        raise ValueError(f"seed must be >= 0 and stream key words in [0, 2**32): {seed}, {key}")
    run = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    shape = np.broadcast_shapes(*map(np.shape, key))
    # the seed's words, zero-padded to the pool, then the key's words
    entropy = [np.full(math.prod(shape), word, dtype=np.uint32)
               for word in run + [0] * (4 - len(run))]
    entropy += [np.broadcast_to(w, shape).astype(np.uint32).ravel() for w in key]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in entropy[:4]]
    for src, word in enumerate(entropy):  # the pool mixes itself, then the words past it
        for dst in (d for d in range(4) if d != src):
            mixed = pool[dst] * np.uint32(0xCA01F9DD)
            mixed -= hashmix(pool[src] if src < 4 else word) * np.uint32(0x4973F715)
            pool[dst] = mixed ^ mixed >> 16
    out = _hasher(0x8B51F9DD, 0x58F38DED)  # generate_state: 8 words cycling the pool
    state = np.stack([out(pool[i % 4]) for i in range(8)], axis=-1).astype("<u4")
    return state.view("<u8").astype(np.uint64).reshape(*shape, 4)


class _Row(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is one ``stream_words`` row: the four
    uint64 words PCG64 asks ``SeedSequence`` for."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


def substreams(words: np.ndarray) -> list[np.random.Generator]:
    """One generator per ``stream_words`` row of `words`, each in the state
    ``stream`` opens for that row's address."""
    # PCG64 reads four words off each row's buffer
    rows = np.ascontiguousarray(words, dtype=np.uint64).reshape(len(words), 4)
    return [np.random.Generator(np.random.PCG64(_Row(row))) for row in rows]


def placement_rng(seed: int, placement_idx: int) -> np.random.Generator:
    return stream(seed, DOMAIN_PLACEMENT, placement_idx)


@dataclass(frozen=True)
class UnitLinkGeometry:
    """Deterministic geometry and link budget of every link arriving at
    unit (n, k)."""

    n: int
    k: int
    distances: np.ndarray     # (N, K, M) device-to-antenna distances
    hlos: np.ndarray          # (N, K, M) LOS vectors of all incoming links
    own_power: float          # serving-link LOS power sum_m |hlos[n, k, m]|^2
    kappa_cand: np.ndarray    # (N, K) Rician factor if the link carries LOS
    p_los: np.ndarray         # (N, K) LOS probability of each link
    rho_p: np.ndarray         # (N, K) pilot transmit SNR of every device
    rho_d: np.ndarray         # (N, K) data transmit SNR of every device
    p_bar: float              # deterministic serving power M^2 p^2/(16 pi^2 L^4)


def los_vectors(x: np.ndarray, y: np.ndarray, z: np.ndarray, rows: np.ndarray,
                config: SystemConfig, out: tuple | None = None) -> tuple:
    """Distances and LOS vectors (..., M) from devices at (x, y, z) (...,)
    on a panel's own axes, z the offset in front of the plane, to a unit's
    antenna lattice whose rows run along x at rows[:, 0] and along y at
    rows[:, 1] (side, 2). `out` holds three contiguous (..., M) float
    arrays that receive the distances and two work values, then the LOS
    vectors' ``half_angle_phasor`` `out` (new arrays by default). The one
    LOS formula, which both ``build_unit_geometry`` and
    ``optimize.expected_floor_table`` call."""
    d, h, den, hlos = out or (None,) * 4
    # the squared offsets along x (ih), y (iv) and z broadcast into d
    lattice = (*z.shape, config.m_side, config.m_side)
    d = np.empty(lattice) if d is None else d.reshape(lattice)
    x, y = x[..., np.newaxis, np.newaxis], y[..., np.newaxis, np.newaxis]
    np.add(np.square(x - rows[:, 0]), np.square(y - rows[:, 1, np.newaxis]), out=d)
    d += np.square(z)[..., np.newaxis, np.newaxis]
    d = np.sqrt(d, out=d).reshape(*z.shape, config.M)
    # hlos = beta exp(-2j pi d / lam), beta = sqrt(z / d) / sqrt(4 pi d^2) =
    # sqrt(z / 4 pi) / (sqrt(d) d): a phasor on the half angle -pi d / lam
    h = np.multiply(d, -np.pi, out=h)
    h *= 1.0 / config.lam
    den = np.sqrt(d, out=den)
    den *= d
    return d, half_angle_phasor(h, np.sqrt(z / (4.0 * np.pi))[..., np.newaxis], den, hlos)


@dataclass(frozen=True)
class PanelView:
    """Panel n's view of a sweep point (a deployment and the system config
    its links are built for) on the panel's own axes, for any rotation:
    what every unit of the panel shares. ``panel_view`` builds it once per
    (sweep point, panel); ``build_unit_geometry`` and
    ``optimize.expected_floor_table`` read it."""

    n: int
    config: SystemConfig
    devices: np.ndarray     # (N, K, 3) every device on the panel's axes
    z: np.ndarray           # (N, K) each device's offset in front of the plane
    rows: np.ndarray        # (K, side, 2) antenna rows of each unit (``los_vectors``)
    p_los: np.ndarray       # (K, N, K) LOS probability of link [k, l, j] to unit k
    kappa_cand: np.ndarray  # (K, N, K) its Rician factor if it carries LOS
    rho_p: np.ndarray       # (N, K) pilot transmit SNR of every device
    rho_d: np.ndarray       # (N, K) data transmit SNR of every device
    p_bar: np.ndarray       # (K,) deterministic serving power of each unit


def panel_view(deployment: Deployment, config: SystemConfig, n: int) -> PanelView:
    """Panel n's ``PanelView`` of the deployment under `config`. Each unit's
    antennas lie around its device's local (x, y), and its center distances
    to every device give the links' LOS probabilities and Rician factors.
    ValueError when a device is not in front of the plane."""
    frame = deployment.frames[n]
    devices = deployment.devices @ frame.rotation
    origin = frame.origin @ frame.rotation
    z = devices[..., 2] - origin[2]
    if np.any(z <= 0):
        raise ValueError("every device must lie on the front side of every panel plane")
    side, local = config.m_side, deployment.devices_local[n]
    off = (np.arange(side) + 0.5) * config.spacing - 0.5 * side * config.spacing
    rows = (off[:, np.newaxis] + local[:, np.newaxis, :2]) + origin[:2]
    centers = origin + np.column_stack((local[:, :2], np.zeros(len(local))))
    # (K, N, K) per link [k, l, j], from device (l, j) to the panel's unit k
    to_center = devices - centers[:, np.newaxis, np.newaxis]
    cdist = np.sqrt(np.einsum("...i,...i->...", to_center, to_center))
    p_bar = [serving_power(config.M, quarter_solid_angle(config.L, z_own), config.L)
             for z_own in local[:, 2]]
    return PanelView(n, config, devices, z, rows, los_probability(cdist, config.d_C),
                     rician_factor(cdist), *transmit_snrs(deployment, config), np.array(p_bar))


def build_unit_geometry(view: PanelView, k: int) -> UnitLinkGeometry:
    """Unit (view.n, k)'s geometry: of its own it forms only the distances
    and LOS vectors of its links (``los_vectors``) and its serving LOS
    power; the rest are views of the panel's arrays."""
    n, devices = view.n, view.devices
    d, hlos = los_vectors(devices[..., 0], devices[..., 1], view.z, view.rows[k], view.config)
    return UnitLinkGeometry(
        n=n,
        k=k,
        distances=d,
        hlos=hlos,
        own_power=float(np.sum(hlos[n, k].real ** 2 + hlos[n, k].imag ** 2)),
        kappa_cand=view.kappa_cand[k],
        p_los=view.p_los[k],
        rho_p=view.rho_p,
        rho_d=view.rho_d,
        p_bar=float(view.p_bar[k]),
    )


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
    return UnitBlockDraw(coins, angles, *cgauss(rng, (N, K, P), (M,)))


def contamination_weights(rho_p: np.ndarray, n: int, k) -> np.ndarray:
    """(N,) weights of the devices on unit (n, k)'s pilot in its channel
    estimate: the root pilot-SNR ratio sqrt(rho_p[l, k] / rho_p[n, k]) of
    the pilot-k device of every panel l, zero on the unit's own panel. For
    an index array k, (N, len(k)): one column per unit.

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
    hbar: np.ndarray        # (N, K, M) LOS means (own slot: full LOS vector; +0.0 if ungated)
    roots: CorrelationRoot  # (N, K) factored roots; .dense(): (N, K, M, P), antenna-major

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
    # an ungated link's mean is zero: only gated rows are scaled, in place
    hbar = np.zeros(geom.hlos.shape, dtype=complex)
    los_scale = los_scale[:, :, np.newaxis]
    np.multiply(los_scale, geom.hlos, out=hbar, where=los_scale > 0.0)
    roots = root_matrix_from_angles(draw.angles, geom.distances, config)
    return UnitChannelStats(geom=geom, kappa=kappa, nlos_scale=nlos_scale, hbar=hbar, roots=roots)


def sample_unit_channels(stats: UnitChannelStats, g: np.ndarray) -> np.ndarray:
    """Sample all incoming link channels (..., N, K, M) given fading g
    (..., N, K, P), where the leading axes index independent draws on the
    same block statistics: h = hbar + sqrt(1/(kappa+1)) * root @ g. The
    serving slot stays exactly the LOS vector.

    With the root in Kronecker form, root @ g is the path loss times
    vec(ramp_v diag(g) ramp_h^T): one (side, P) @ (P, side) product per
    link and draw."""
    roots = stats.roots
    scattered = (roots.ramp_v * g[..., np.newaxis, :]) @ roots.ramp_h.swapaxes(-1, -2)
    scattered = scattered.reshape(g.shape[:-1] + stats.hbar.shape[-1:])
    scattered *= stats.nlos_scale[:, :, np.newaxis] * roots.pathloss
    scattered += stats.hbar
    return scattered


def slice_stats(stats: UnitChannelStats, N: int) -> UnitChannelStats:
    """Restrict a unit's block statistics to the first N panels (array
    views, no copies). Valid when the unit's panel is below N. Cut to panel
    0, a panel-0 unit's statistics are its single-LIS twin's bit for bit."""
    geom, roots = stats.geom, stats.roots
    if geom.n >= N:
        raise ValueError(f"unit panel {geom.n} not kept with N={N}")
    per_link = ("distances", "hlos", "kappa_cand", "p_los", "rho_p", "rho_d")
    return dataclasses.replace(
        stats,
        geom=dataclasses.replace(geom, **{name: getattr(geom, name)[:N] for name in per_link}),
        kappa=stats.kappa[:N], nlos_scale=stats.nlos_scale[:N], hbar=stats.hbar[:N],
        roots=CorrelationRoot(roots.ramp_v[:N], roots.ramp_h[:N], roots.pathloss[:N]),
    )


@dataclass(frozen=True)
class BlockTerms:
    """Matched-filter scalars of one coherence block for one unit, for
    every draw of the kernel: each field has the kernel's leading draw
    shape (a scalar for a single draw), Y adds the (N, K) link axes.

    The receive filter is the least-squares channel estimate
    h_hat = h_los + e, with e the pilot-contamination-plus-noise error.
    X is the error's alignment with the serving LOS vector, Y the leakage
    toward each interfering link, Z the filter norm (noise beam power).
    """

    X: np.ndarray
    Y: np.ndarray          # (..., N, K) |h_hat^H h_lj|^2, serving slot zeroed
    Z: np.ndarray
    I: np.ndarray          # rho-weighted composite interference
    gamma: np.ndarray      # estimated-CSI SINR


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, broadcast: a BLAS dot per pair, so a link's
    product does not depend on how many links are batched with it."""
    return (a[..., np.newaxis, :] @ b[..., :, np.newaxis])[..., 0, 0]


def exact_sinr(stats: UnitChannelStats, ch: np.ndarray) -> np.ndarray:
    """SINR of unit (n, k)'s exact (perfect-CSI) filter h_los on its sampled
    channels ch (..., N, K, M) from ``sample_unit_channels``, per leading
    draw (a scalar for a single draw)."""
    geom = stats.geom
    n, k = geom.n, geom.k
    Y = np.abs(_dot(ch, np.conj(geom.hlos[n, k]))) ** 2
    Y[..., n, k] = 0.0
    I = np.sum(geom.rho_d * Y, axis=(-2, -1)) + geom.own_power
    return float(geom.rho_d[n, k]) * geom.own_power**2 / I


class BlockKernel:
    """One block's sampled inner products for one unit, assembled into
    interference scalars at any pilot length and for any admitted prefix of
    the devices it was built on.

    ch (..., N, K, M) are the unit's incoming link channels on `stats`,
    from ``sample_unit_channels``, and w (..., M) the estimation noise.
    Leading axes index independent draws on the same statistics (fresh
    fading on a frozen block): the kernel then forms every draw's products
    in batched matrix products, and ``terms`` and ``gamma`` carry the
    leading shape. A single draw has no leading axis and gives scalars.

    The estimation error is the ``contamination_weights``-weighted sum of
    the same-pilot channels plus white noise shrunk by sqrt(t * rho_p_own);
    only that shrink factor depends on t, so a pilot sweep reuses every
    sampled product. The transmit SNRs are the link budget of ``stats.geom``.

    The single-LIS twin of a panel-0 unit is the kernel of the panel-0 cut,
    ``BlockKernel(slice_stats(stats, N=1), ch[..., :1, :, :], w)``: on one
    panel every contamination weight is zero, so its filter is u = h_los.
    """

    def __init__(self, stats: UnitChannelStats, ch: np.ndarray, w: np.ndarray):
        geom = stats.geom
        n, k = geom.n, geom.k
        self.n, self.k = n, k
        hlos = geom.hlos[n, k]

        contam = contamination_weights(geom.rho_p, n, k) @ ch[..., k, :]
        u = hlos + contam

        self.rho_p_own = float(geom.rho_p[n, k])
        self.rho_d = geom.rho_d
        self.rho_d_own = float(geom.rho_d[n, k])
        self.signal = geom.own_power**2

        u_conj, w_conj = np.conj(u), np.conj(w)
        self.A = _dot(ch, u_conj[..., np.newaxis, np.newaxis, :])
        self.C = _dot(ch, w_conj[..., np.newaxis, np.newaxis, :])
        self.Xc = _dot(np.conj(contam), hlos)
        self.Xw = _dot(w_conj, hlos)
        self.u_norm2 = _dot(u_conj, u).real
        self.uw = _dot(u_conj, w)
        self.w_norm2 = _dot(w_conj, w).real

    def terms(self, t, K: int | None = None) -> BlockTerms:
        """Block terms at pilot length t. With K, only the first K devices
        per panel are admitted: Y (..., N, K) and the interference sum cover
        those links alone. That is exact, because a link's products A and C
        do not depend on which other devices are admitted (the estimate's
        contamination uses pilot k alone), so one kernel on the largest
        admitted count serves every smaller one. ValueError when the unit's
        own pilot index k is not below K."""
        if K is not None and self.k >= K:
            raise ValueError(f"unit pilot index {self.k} not active with K={K}")
        s = math.sqrt(float(t) * self.rho_p_own)
        Y = np.abs(self.A[..., :K] + self.C[..., :K] / s) ** 2
        Y[..., self.n, self.k] = 0.0
        X = np.abs(self.Xc + self.Xw / s) ** 2
        Z = self.u_norm2 + 2.0 * self.uw.real / s + self.w_norm2 / (s * s)
        I = self.rho_d_own * X + np.sum(self.rho_d[:, :K] * Y, axis=(-2, -1)) + Z
        return BlockTerms(X=X, Y=Y, Z=Z, I=I, gamma=self.rho_d_own * self.signal / I)

    def gamma(self, t, K: int | None = None) -> np.ndarray:
        return self.terms(t, K).gamma
