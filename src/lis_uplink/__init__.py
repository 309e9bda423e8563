"""Uplink simulator and analytical toolkit for large intelligent surfaces.

A contiguous antenna surface is split into per-device square units.
Devices transmit pilots that are reused across panels, channels are
estimated by least squares, and a matched filter recovers the data. The
package samples the resulting SINRs, evaluates the matching closed-form
moments and their large-array limits, and optimizes the pilot length and
the number of admitted devices.
"""

from .asymptotics import (
    AsymptoticSse,
    MomentSet,
    build_moment_set,
    theorem1_sse,
)
from .channel import cgauss, rician_mixing
from .config import (
    ConfigError,
    ExperimentConfig,
    LayoutConfig,
    PlacementConfig,
    RunConfig,
    SystemConfig,
    load_config,
    parse_override,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    RawRecord,
    StatSummary,
    preset_run_config,
    run_asymptotic,
    run_experiment,
    summarize,
    write_outputs,
)
from .links import (
    BlockKernel,
    BlockTerms,
    PanelView,
    UnitBlockDraw,
    UnitChannelStats,
    UnitLinkGeometry,
    build_unit_geometry,
    draw_unit_block,
    make_unit_stats,
    panel_view,
    placement_rng,
    sample_unit_channels,
)
from .optimize import (
    ExpectedFloorTable,
    PilotSolution,
    SchedulingSolution,
    expected_floor_table,
    optimal_num_devices,
    optimal_pilot_length,
)
from .scenario import (
    Deployment,
    InfeasiblePlacementError,
    LisFrame,
    build_layout,
    los_probability,
    place_devices,
    quarter_solid_angle,
    rician_factor,
    transmit_snrs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
