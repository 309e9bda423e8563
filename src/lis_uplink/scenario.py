"""Multi-LIS geometry, device placement, and link-budget scalars.

Each LIS is a planar panel with its own local frame (panel in the local
z = 0 plane, devices at local z > 0), under any rotation. A device's LIS
unit is the 2L x 2L patch of the panel directly under the device: its
center is the device's local (x, y), so every device sits at boresight of
its own unit, and its antennas form a square lattice on the panel's own
axes (``links.build_unit_geometry``). Placement rejects draws until all
same-panel unit squares are pairwise disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LayoutConfig, PlacementConfig, SystemConfig


# uniform triples drawn per candidate chunk of the placement sampler
_CANDIDATE_CHUNK = 64


class InfeasiblePlacementError(RuntimeError):
    """Raised when the rejection sampler exhausts its attempt budget."""


@dataclass(frozen=True)
class LisFrame:
    """Rigid placement of one panel: local coordinates -> global."""

    origin: np.ndarray    # (3,) global position of the panel center
    rotation: np.ndarray  # (3, 3) local->global rotation

    def to_global(self, points_local: np.ndarray) -> np.ndarray:
        return points_local @ self.rotation.T + self.origin


def build_layout(layout: LayoutConfig, N: int) -> list[LisFrame]:
    """Construct panel frames for the requested arrangement.

    line: N coplanar panels along x, adjacent edges separated by d_x.
    quad: target panel at the origin, two coplanar side panels at
    x = +-(x_l + d_x), and a facing panel whose plane sits at z = d_z
    turned back toward the target (its devices hang between the planes).
    """
    identity = np.eye(3)
    if layout.name == "quad" or (layout.name == "auto" and N == 4):
        if N != 4:
            raise ValueError(f"quad layout requires N=4, got N={N}")
        offset = layout.x_l + layout.d_x  # center-to-center: two half-panels + gap
        facing = np.diag([-1.0, 1.0, -1.0])  # half-turn about y: local +z -> global -z
        return [
            LisFrame(np.array([0.0, 0.0, 0.0]), identity),
            LisFrame(np.array([-offset, 0.0, 0.0]), identity),
            LisFrame(np.array([+offset, 0.0, 0.0]), identity),
            LisFrame(np.array([0.0, 0.0, layout.d_z]), facing),
        ]
    pitch = layout.x_l + layout.d_x
    first = -0.5 * (N - 1) * pitch
    return [
        LisFrame(np.array([first + n * pitch, 0.0, 0.0]), identity)
        for n in range(N)
    ]


@dataclass(frozen=True)
class Deployment:
    """Placed devices for one scenario draw; device (n, k)'s unit is
    centered at devices_local[n, k, :2] on panel n."""

    frames: tuple[LisFrame, ...]
    devices_local: np.ndarray  # (N, K, 3) in each panel's frame, z > 0
    devices: np.ndarray        # (N, K, 3) global

    @property
    def N(self) -> int:
        return self.devices.shape[0]

    @property
    def K(self) -> int:
        return self.devices.shape[1]

    def prefix(self, K: int) -> "Deployment":
        """View of the first K devices of every panel (no copies): devices
        are admitted in placement order, so this is the deployment of a
        K-device admission from the same pool."""
        if not (1 <= K <= self.K):
            raise ValueError(f"prefix size {K} outside [1, {self.K}]")
        return Deployment(
            frames=self.frames,
            devices_local=self.devices_local[:, :K],
            devices=self.devices[:, :K],
        )


def place_devices(
    config: SystemConfig,
    layout: LayoutConfig,
    rng: np.random.Generator,
    *,
    placement: PlacementConfig | None = None,
    K: int | None = None,
    allow_partial: bool = False,
) -> Deployment:
    """Draw K devices per panel, uniform in the x_l x y_l x box_height box,
    resampling each device until its unit square is disjoint from the ones
    already placed on the same panel.

    Candidates are drawn in chunks of ``_CANDIDATE_CHUNK`` uniform triples
    and tried strictly one per attempt, in draw order, across devices and
    panels; a device takes the first candidate whose square clears every
    square accepted on its panel (one vectorized Chebyshev check per
    chunk). A candidate on the panel plane (z == 0) is a spent attempt. The
    accepted positions are those of drawing one triple per attempt, but the
    generator ends advanced past the unused rest of the last chunk, so the
    call owns `rng`: pass a generator dedicated to this placement.

    Deterministic given the generator state; raises
    InfeasiblePlacementError when the per-device attempt budget runs out.
    With allow_partial, budget exhaustion instead stops that panel and all
    panels are truncated to the smallest realized count, so the result is
    the largest placeable common pool (a prefix of the full draw).
    """
    placement = placement or PlacementConfig()
    frames = build_layout(layout, config.N)
    K = int(K) if K is not None else config.K
    half_x, half_y = 0.5 * layout.x_l, 0.5 * layout.y_l
    side = 2.0 * config.L

    cand = np.empty((0, 3))  # drawn candidates (x, y, z); cand[pos:] not yet tried
    pos = 0
    per_panel = []
    for n in range(config.N):
        accepted = np.empty((K, 3))
        for k in range(K):
            budget = placement.attempt_budget
            while budget:
                if pos == len(cand):
                    u = rng.random((_CANDIDATE_CHUNK, 3))
                    cand = np.column_stack(((2.0 * u[:, 0] - 1.0) * half_x,
                                            (2.0 * u[:, 1] - 1.0) * half_y,
                                            u[:, 2] * layout.box_height))
                    pos = 0
                window = cand[pos : pos + budget]
                gap = np.maximum(np.abs(window[:, np.newaxis, 0] - accepted[:k, 0]),
                                 np.abs(window[:, np.newaxis, 1] - accepted[:k, 1]))
                # z == 0 is a zero-probability boundary: a device on the
                # plane has no geometry
                ok = (window[:, 2] != 0.0) & np.all(gap >= side, axis=1)
                hit = int(np.argmax(ok))
                if ok[hit]:
                    accepted[k] = window[hit]
                    pos += hit + 1
                    break
                pos += len(window)
                budget -= len(window)
            else:
                if allow_partial:
                    accepted = accepted[:k]
                    break
                raise InfeasiblePlacementError(
                    f"infeasible placement: panel {n} device {k} found no "
                    f"disjoint unit square in {placement.attempt_budget} attempts"
                )
        per_panel.append(accepted)

    pool = min(len(acc) for acc in per_panel)
    if pool == 0:
        raise InfeasiblePlacementError(
            "infeasible placement: a panel accepted no devices at all"
        )
    devices_local = np.stack([acc[:pool] for acc in per_panel])
    return Deployment(
        frames=tuple(frames),
        devices_local=devices_local,
        devices=np.stack([frames[n].to_global(devices_local[n]) for n in range(config.N)]),
    )


def los_probability(d: np.ndarray, d_C: float) -> np.ndarray:
    """Probability that a link of center distance d carries an LOS path:
    a linear ramp from 1 at d = 0 down to 0 at the cutoff d_C and beyond."""
    return np.clip((d_C - d) / d_C, 0.0, 1.0)


def rician_factor(d: np.ndarray) -> np.ndarray:
    """Linear Rician factor of a link at center distance d meters,
    10^((13 - 0.03 d)/10)."""
    return 10.0 ** ((13.0 - 0.03 * d) / 10.0)


def pilot_snrs(deployment: Deployment, config: SystemConfig) -> np.ndarray:
    """Per-device pilot transmit SNR (N, K) from the power-control rule."""
    return config.rho_p_tgt / _center_gain(deployment)


def data_snrs(deployment: Deployment, config: SystemConfig) -> np.ndarray:
    """Per-device data transmit SNR (N, K) from the power-control rule."""
    return config.rho_tgt / _center_gain(deployment)


def _center_gain(deployment: Deployment) -> np.ndarray:
    """LOS gain beta^2 (N, K) of each device at its own unit-center antenna.

    Power control sets the transmit SNR to target / beta^2, so that the
    received SNR there equals the target. In general beta^2 =
    (z/d) / (4 pi d^2) with d the device-to-center distance and z the
    perpendicular offset; every device sits at boresight of its unit, so
    d = z and beta^2 = 1 / (4 pi z^2).
    """
    z = deployment.devices_local[..., 2]
    if np.any(z <= 0.0):
        raise ValueError("device sits on the LIS plane; channel gain undefined")
    return 1.0 / (4.0 * math.pi * z * z)


def quarter_solid_angle(L: float, z: float) -> float:
    """Solid angle of one panel quadrant seen from boresight distance z."""
    if z <= 0:
        raise ValueError(f"boresight distance must be positive, got {z}")
    return math.atan(L * L / (z * math.sqrt(2.0 * L * L + z * z)))


def serving_power(M: int, p: float, L: float) -> float:
    """Deterministic serving power M^2 p^2 / (16 pi^2 L^4) of a device whose
    unit quadrant subtends the solid angle p."""
    return M * M * p * p / (16.0 * math.pi**2 * L**4)
