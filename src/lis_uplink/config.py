"""System, layout, placement, and experiment configuration.

All scalar knobs of the simulator live here as frozen dataclasses with a
JSON-compatible schema. Dotted-path overrides (``system.M=256``) are applied
with type coercion and strict key checking so typos fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, get_args, get_type_hints

SPEED_OF_LIGHT = 299792458.0  # m/s


class ConfigError(ValueError):
    """Invalid configuration content; carries the offending key when known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class SystemConfig:
    """Scalar physical and frame parameters shared by every module.

    ``lambda`` (the carrier wavelength) is derived from ``carrier_freq`` and
    exposed as the ``lam`` property; ``t`` and ``delta_L`` default to K and
    2L/sqrt(M) when left unset.
    """

    M: int = 64              # antennas per LIS unit (perfect square)
    K: int = 4               # devices per LIS
    N: int = 1               # number of LISs
    T: int = 500             # coherence block length (symbols)
    t: int | None = None     # pilot training length (symbols), default K
    L: float = 0.25          # half side-length of an LIS unit (m)
    carrier_freq: float = 3.0e9   # Hz
    delta_L: float | None = None  # antenna spacing (m), default 2L/sqrt(M)
    P: int = 20              # dominant NLOS path count per link
    beta_PL: float = 3.7     # NLOS path-loss exponent
    d_C: float = 10.0        # LOS cutoff distance (m)
    rho_p_tgt: float = 1.0   # pilot target SNR (linear)
    rho_tgt: float = 10 ** 0.3  # data target SNR (linear)
    seed: int = 0            # root RNG seed

    def __post_init__(self):
        side = math.isqrt(int(self.M))
        if self.M < 1 or side * side != self.M:
            raise ConfigError(f"system.M must be a perfect square, got {self.M}", "system.M")
        if self.K < 1:
            raise ConfigError(f"system.K must be >= 1, got {self.K}", "system.K")
        if self.N < 1:
            raise ConfigError(f"system.N must be >= 1, got {self.N}", "system.N")
        if self.L <= 0:
            raise ConfigError(f"system.L must be > 0, got {self.L}", "system.L")
        if self.carrier_freq <= 0:
            raise ConfigError("system.carrier_freq must be > 0", "system.carrier_freq")
        if self.P < 1:
            raise ConfigError(f"system.P must be >= 1, got {self.P}", "system.P")
        if self.d_C <= 0:
            raise ConfigError(f"system.d_C must be > 0, got {self.d_C}", "system.d_C")
        if self.rho_p_tgt <= 0 or self.rho_tgt <= 0:
            raise ConfigError("SNR targets must be positive", "system.rho_p_tgt")
        if not (self.K <= self.pilot_len <= self.T):
            raise ConfigError(
                f"system.t must satisfy K <= t <= T, got t={self.pilot_len}, "
                f"K={self.K}, T={self.T}",
                "system.t",
            )
        if self.spacing <= 0:
            raise ConfigError("system.delta_L must be > 0", "system.delta_L")
        if side * self.spacing > 2 * self.L * (1 + 1e-12):
            raise ConfigError(
                f"antenna lattice sqrt(M)*delta_L = {side * self.spacing:.6g} m "
                f"exceeds the unit side 2L = {2 * self.L:.6g} m",
                "system.delta_L",
            )

    @property
    def lam(self) -> float:
        """Carrier wavelength in meters."""
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def m_side(self) -> int:
        """Lattice side count sqrt(M)."""
        return math.isqrt(int(self.M))

    @property
    def spacing(self) -> float:
        """Antenna spacing; defaults to 2L/sqrt(M) (lattice fills the unit)."""
        if self.delta_L is not None:
            return float(self.delta_L)
        return 2.0 * self.L / self.m_side

    @property
    def pilot_len(self) -> int:
        """Pilot training length; defaults to K."""
        return int(self.t) if self.t is not None else int(self.K)


@dataclass(frozen=True)
class LayoutConfig:
    """Multi-LIS geometry parameters.

    ``line`` places N coplanar panels along the x axis with an edge gap of
    ``d_x``; ``quad`` is the bundled four-panel arrangement (one target panel
    at the origin, two coplanar side panels, one facing panel at height
    ``d_z`` turned toward the target). ``auto`` resolves to quad when N = 4
    and line otherwise.
    """

    name: str = "auto"        # auto | line | quad
    x_l: float = 4.0          # panel footprint side along x (m)
    y_l: float = 4.0          # panel footprint side along y (m)
    d_x: float = 4.0          # edge-to-edge gap to the side panels (m)
    d_z: float = 6.0          # plane separation to the facing panel (m)
    box_height: float = 2.0   # device box height above the panel plane (m)

    def __post_init__(self):
        if self.name not in ("auto", "line", "quad"):
            raise ConfigError(f"layout.name must be auto|line|quad, got {self.name!r}", "layout.name")
        for key in ("x_l", "y_l", "d_x", "d_z", "box_height"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"layout.{key} must be > 0", f"layout.{key}")


@dataclass(frozen=True)
class PlacementConfig:
    """Device placement knobs for the rejection sampler."""

    attempt_budget: int = 10000   # resample attempts per device before failing
    pool_size: int | None = None  # candidate pool for device-count sweeps

    def __post_init__(self):
        if self.attempt_budget < 1:
            raise ConfigError("placement.attempt_budget must be >= 1", "placement.attempt_budget")
        if self.pool_size is not None and self.pool_size < 1:
            raise ConfigError("placement.pool_size must be >= 1", "placement.pool_size")

    def pool_target(self, T: int) -> int:
        """Devices per panel requested for a device-count sweep: pool_size,
        else min(T - 1, 40)."""
        return self.pool_size or min(T - 1, 40)


INTERFERENCE_REGIMES = ("rician", "nlos_inter")


@dataclass(frozen=True)
class ExperimentConfig:
    """What to sweep and how many samples to draw; ``harness.ExperimentSpec``
    checks the id and the sweep values against the id's ``EXPERIMENTS`` row."""

    id: str = "fig5"
    sweep_values: tuple = ()           # empty -> experiment default
    realizations: int = 100            # coherence blocks per placement
    placements: int = 2                # independent device placements
    interference: str | None = None    # rician | nlos_inter | None (id default)
    raw_records: bool = False          # also emit per-realization records
    theory_stride: int = 0             # analytic curves every n-th block (0 -> auto)

    def __post_init__(self):
        if self.realizations < 1:
            raise ConfigError("experiment.realizations must be >= 1", "experiment.realizations")
        if self.placements < 1:
            raise ConfigError("experiment.placements must be >= 1", "experiment.placements")
        if self.theory_stride < 0:
            raise ConfigError("experiment.theory_stride must be >= 0", "experiment.theory_stride")
        if self.interference is not None and self.interference not in INTERFERENCE_REGIMES:
            raise ConfigError(
                f"experiment.interference must be one of {INTERFERENCE_REGIMES}",
                "experiment.interference",
            )
        values = tuple(self.sweep_values)
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise ConfigError(
                "experiment.sweep_values must be strictly ascending",
                "experiment.sweep_values",
            )
        object.__setattr__(self, "sweep_values", values)


@dataclass(frozen=True)
class RunConfig:
    """Full configuration bundle: system + layout + placement + experiment."""

    system: SystemConfig = field(default_factory=SystemConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self):
        layout = self.layout
        if layout.name == "quad" and self.system.N != 4:
            raise ConfigError(f"quad layout requires system.N=4, got N={self.system.N}",
                              "layout.name")
        if layout.name != "line" and self.system.N == 4 and layout.box_height >= layout.d_z:
            # devices of the target panel must sit in front of the facing one
            raise ConfigError(
                f"quad layout needs layout.box_height < layout.d_z, got "
                f"box_height={layout.box_height} and d_z={layout.d_z}",
                "layout.d_z",
            )

    def to_dict(self) -> dict:
        out: dict[str, dict[str, Any]] = {}
        for section_name in ("system", "layout", "placement", "experiment"):
            section = getattr(self, section_name)
            out[section_name] = {
                f.name: _jsonable(getattr(section, f.name)) for f in fields(section)
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
        known = {"system": SystemConfig, "layout": LayoutConfig,
                 "placement": PlacementConfig, "experiment": ExperimentConfig}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown config section {key!r}", key)
        kwargs = {}
        for section_name, section_cls in known.items():
            section_data = data.get(section_name, {})
            if not isinstance(section_data, dict):
                raise ConfigError(f"config section {section_name!r} must be an object", section_name)
            annotations = get_type_hints(section_cls)
            for key in section_data:
                if key not in annotations:
                    raise ConfigError(f"unknown config key {section_name}.{key}", f"{section_name}.{key}")
            coerced = {
                key: _coerce(f"{section_name}.{key}", annotations[key], value)
                for key, value in section_data.items()
            }
            try:
                kwargs[section_name] = section_cls(**coerced)
            except TypeError as exc:
                raise ConfigError(f"bad {section_name} section: {exc}", section_name) from exc
        return cls(**kwargs)

    def with_overrides(self, overrides: dict[str, Any]) -> "RunConfig":
        """Apply dotted-path overrides like {'system.M': 256}."""
        data = self.to_dict()
        for dotted, value in overrides.items():
            parts = dotted.split(".")
            if len(parts) != 2:
                raise ConfigError(f"override key must be section.field, got {dotted!r}", dotted)
            section, key = parts
            if section not in data:
                raise ConfigError(f"unknown config section {section!r}", dotted)
            if key not in data[section]:
                raise ConfigError(f"unknown config key {dotted}", dotted)
            data[section][key] = value
        return RunConfig.from_dict(data)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Content hash of the canonical JSON, blob-style (sha1 over a
        length-prefixed payload) so identical configs hash identically
        regardless of formatting."""
        payload = self.canonical_json().encode()
        return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    return value


def _coerce(dotted: str, annotation, value: Any) -> Any:
    """Coerce a JSON/CLI value to the type of its field's annotation
    (``int``, ``float``, ``bool``, ``tuple`` or ``str``, optionally ``| None``).
    Numbers must be finite and may not be booleans."""
    if value is None or isinstance(value, str) and value.lower() in ("null", "none"):
        return None
    kind = next(t for t in get_args(annotation) or (annotation,) if t is not type(None))
    try:
        if kind in (int, float):
            if isinstance(value, bool):
                raise ValueError(f"expected a number, got {value!r}")
            out = kind(value)
            if kind is int and isinstance(value, float) and value != out:
                raise ValueError(f"expected integer, got {value}")
            if not math.isfinite(out):
                raise ValueError(f"expected a finite number, got {value!r}")
            return out
        if kind is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
            raise ValueError(f"expected boolean, got {value!r}")
        if kind is tuple:
            if isinstance(value, str):
                value = json.loads(value)
            return tuple(value)
        return value
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad value for {dotted}: {exc}", dotted) from exc


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "config" in data and "config_hash" in data:
        data = data["config"]  # a run manifest: re-run its echoed configuration
    return RunConfig.from_dict(data)


def parse_override(text: str) -> tuple[str, Any]:
    """Parse a --set key=value pair; values use JSON syntax with a string
    fallback so bare words work."""
    if "=" not in text:
        raise ConfigError(f"override must be key=value, got {text!r}", text)
    key, raw = text.split("=", 1)
    key = key.strip()
    raw = raw.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


# Config-key documentation used by the CLI --help epilog. One line per key.
CONFIG_KEY_HELP: tuple[tuple[str, str], ...] = (
    ("system.M", "antennas per LIS unit (count, perfect square)"),
    ("system.K", "devices per LIS (count)"),
    ("system.N", "number of LISs (count >= 1)"),
    ("system.T", "coherence block length (symbols)"),
    ("system.t", "pilot training length (symbols; null -> K)"),
    ("system.L", "half side-length of an LIS unit (m; unit side is 2L)"),
    ("system.carrier_freq", "carrier frequency (Hz); wavelength = c/carrier_freq"),
    ("system.delta_L", "antenna spacing (m; null -> 2L/sqrt(M))"),
    ("system.P", "dominant NLOS path count per link (count)"),
    ("system.beta_PL", "NLOS path-loss exponent (dimensionless)"),
    ("system.d_C", "LOS cutoff distance (m)"),
    ("system.rho_p_tgt", "pilot target SNR (linear)"),
    ("system.rho_tgt", "data target SNR (linear)"),
    ("system.seed", "root RNG seed (integer)"),
    ("layout.name", "multi-LIS arrangement: auto | line | quad"),
    ("layout.x_l", "panel footprint side along x (m)"),
    ("layout.y_l", "panel footprint side along y (m)"),
    ("layout.d_x", "edge-to-edge gap to side panels (m)"),
    ("layout.d_z", "plane separation to the facing panel (m)"),
    ("layout.box_height", "device box height above the panel plane (m)"),
    ("placement.attempt_budget", "resample attempts per device (count)"),
    ("placement.pool_size", "candidate device pool for K sweeps (count or null)"),
    ("experiment.id", "experiment id: a row of harness.EXPERIMENTS"),
    ("experiment.sweep_values", "ascending integers of the swept M, t or K (JSON list)"),
    ("experiment.realizations", "coherence blocks per placement (count)"),
    ("experiment.placements", "independent device placements (count)"),
    ("experiment.interference", "rician | nlos_inter | null (preset default)"),
    ("experiment.raw_records", "emit per-realization records (bool)"),
    ("experiment.theory_stride", "evaluate analytic curves every n-th block (0 -> auto)"),
)
