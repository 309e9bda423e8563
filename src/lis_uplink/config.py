"""System, layout, placement, and experiment configuration.

All scalar knobs of the simulator live here as frozen dataclasses with a
JSON-compatible schema. A section's field is the one declaration of its key
``section.field``: ``_key`` gives the field its default, its ``--help`` text
and its single-value bound, if any, and ``_check_bounds``, called first in
each section's ``__post_init__``, enforces that bound. Rules that tie keys
together are written out in ``SystemConfig`` and ``RunConfig``;
``harness.ExperimentSpec.from_run_config`` checks the experiment id and the
sweep values. Dotted-path overrides (``system.M=256``) are applied with
coercion to the field's ``dataclasses.fields`` type (annotations here are not
postponed, so that is a type object) and strict key checking so typos fail loudly.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, get_args

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


class ConfigError(ValueError):
    """Invalid configuration content; carries the offending key when known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _key(default: Any, text: str, bound: str | tuple | None = None) -> Any:
    """Declare a config key: its default, its ``--help`` text and, when it
    has one, its single-value bound: a key of ``_BOUNDS`` or a tuple of the
    allowed values. ``None`` passes every bound."""
    return field(default=default, metadata={"help": text, "bound": bound})


_BOUNDS = {">= 1": lambda v: v >= 1, ">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0}


def _check_bounds(section) -> None:
    """Raise ConfigError, keyed ``section.field``, on the first field of a
    config section that lies outside its declared bound."""
    name = type(section).__name__.removesuffix("Config").lower()
    for f in fields(section):
        bound, value = f.metadata["bound"], getattr(section, f.name)
        if bound is None or value is None:
            continue
        if isinstance(bound, tuple):
            ok, what = value in bound, "one of " + " | ".join(bound)
        else:
            ok, what = _BOUNDS[bound](value), bound
        if not ok:
            raise ConfigError(f"{name}.{f.name} must be {what}, got {value!r}",
                              f"{name}.{f.name}")


@dataclass(frozen=True)
class SystemConfig:
    """Scalar physical and frame parameters shared by every module.

    ``lambda`` (the carrier wavelength) is derived from ``carrier_freq`` and
    exposed as the ``lam`` property; ``t`` and ``delta_L`` default to K and
    2L/sqrt(M) when left unset.
    """

    M: int = _key(64, "antennas per LIS unit (count, perfect square)", ">= 1")
    K: int = _key(4, "devices per LIS (count)", ">= 1")
    N: int = _key(1, "number of LISs (count >= 1)", ">= 1")
    T: int = _key(500, "coherence block length (symbols)", ">= 1")
    t: int | None = _key(None, "pilot training length (symbols; null -> K)")
    L: float = _key(0.25, "half side-length of an LIS unit (m; unit side is 2L)", "> 0")
    carrier_freq: float = _key(3.0e9, "carrier frequency (Hz); wavelength = c/carrier_freq",
                               "> 0")
    delta_L: float | None = _key(None, "antenna spacing (m; null -> 2L/sqrt(M))", "> 0")
    P: int = _key(20, "dominant NLOS path count per link (count)", ">= 1")
    beta_PL: float = _key(3.7, "NLOS path-loss exponent (dimensionless)", "> 0")
    d_C: float = _key(10.0, "LOS cutoff distance (m)", "> 0")
    rho_p_tgt: float = _key(1.0, "pilot target SNR (linear)", "> 0")
    rho_tgt: float = _key(10 ** 0.3, "data target SNR (linear)", "> 0")
    seed: int = _key(0, "root RNG seed (integer)", ">= 0")

    def __post_init__(self):
        _check_bounds(self)
        if self.m_side ** 2 != self.M:
            raise ConfigError(f"system.M must be a perfect square, got {self.M}", "system.M")
        if self.t is None and self.K > self.T:
            raise ConfigError(f"system.K must satisfy K <= T, got K={self.K}, T={self.T}",
                              "system.K")
        if not (self.K <= self.pilot_len <= self.T):
            raise ConfigError(
                f"system.t must satisfy K <= t <= T, got t={self.pilot_len}, "
                f"K={self.K}, T={self.T}",
                "system.t",
            )
        if self.m_side * self.spacing > 2 * self.L * (1 + 1e-12):
            raise ConfigError(
                f"antenna lattice sqrt(M)*delta_L = {self.m_side * self.spacing:.6g} m "
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

    name: str = _key("auto", "multi-LIS arrangement: auto | line | quad",
                     ("auto", "line", "quad"))
    x_l: float = _key(4.0, "panel footprint side along x (m)", "> 0")
    y_l: float = _key(4.0, "panel footprint side along y (m)", "> 0")
    d_x: float = _key(4.0, "edge-to-edge gap to side panels (m)", "> 0")
    d_z: float = _key(6.0, "plane separation to the facing panel (m)", "> 0")
    box_height: float = _key(2.0, "device box height above the panel plane (m)", "> 0")

    def __post_init__(self):
        _check_bounds(self)


@dataclass(frozen=True)
class PlacementConfig:
    """Device placement knobs for the rejection sampler."""

    attempt_budget: int = _key(10000, "resample attempts per device (count)", ">= 1")
    pool_size: int | None = _key(None, "candidate device pool for K sweeps (count or null)",
                                 ">= 1")

    def __post_init__(self):
        _check_bounds(self)

    def pool_target(self, T: int) -> int:
        """Devices per panel requested for a device-count sweep: pool_size,
        else min(T - 1, 40); ConfigError when that default pool is empty."""
        if self.pool_size is None and T < 2:
            raise ConfigError(f"placement.pool_size must be set when system.T={T}: the "
                              "default pool min(T - 1, 40) is empty", "placement.pool_size")
        return self.pool_size or min(T - 1, 40)


@dataclass(frozen=True)
class ExperimentConfig:
    """What to sweep and how many samples to draw.

    ``ExperimentSpec.from_run_config`` in ``harness`` checks the id, and
    that the sweep values are integers of the id's swept variable, inside
    its range and strictly ascending."""

    id: str = _key("fig5", "experiment id: a row of harness.EXPERIMENTS")
    sweep_values: tuple = _key((), "ascending integers of the swept M, t or K (JSON list)")
    realizations: int = _key(100, "coherence blocks per placement (count)", ">= 1")
    placements: int = _key(2, "independent device placements (count)", ">= 1")
    interference: str | None = _key(None, "rician | nlos_inter | null (preset default)",
                                    ("rician", "nlos_inter"))
    raw_records: bool = _key(False, "emit per-realization records (bool)")
    theory_stride: int = _key(0, "evaluate analytic curves every n-th block (0 -> auto)",
                              ">= 0")

    def __post_init__(self):
        _check_bounds(self)
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))


@dataclass(frozen=True)
class RunConfig:
    """Full configuration bundle: system + layout + placement + experiment."""

    system: SystemConfig = field(default_factory=SystemConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self):
        pool = self.placement.pool_size
        if pool is not None and pool > self.system.T:
            # a device-count sweep builds its links with K = pool, so K <= T
            raise ConfigError(f"placement.pool_size must be <= system.T, got pool_size={pool}, "
                              f"T={self.system.T}", "placement.pool_size")
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
        return _jsonable(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
        known = {f.name: f.type for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown config section {key!r}", key)
        kwargs = {}
        for section_name, section_cls in known.items():
            section_data = data.get(section_name, {})
            if not isinstance(section_data, dict):
                raise ConfigError(f"config section {section_name!r} must be an object", section_name)
            annotations = {f.name: f.type for f in fields(section_cls)}
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
    """JSON-ready copy of a value: string keys, tuples and numpy arrays as
    lists, numpy scalars as Python ones, non-finite floats as None."""
    if isinstance(value, dict):
        return {str(key): _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.generic, np.ndarray)):
        return _jsonable(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_text(value: Any) -> str:
    """Text of every JSON file the package writes: ``_jsonable``'s copy of
    `value` as strict JSON (``null`` for non-finite), indented, keys sorted."""
    return json.dumps(_jsonable(value), allow_nan=False, indent=2, sort_keys=True)


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

