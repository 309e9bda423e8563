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
    ScalingDiagnostics,
    build_moment_set,
    lemma1_moments,
    lemma2_moments,
    lemma3_moments,
    moment_report,
    mu_I,
    quarter_solid_angle,
    scaling_diagnostics,
    theorem1_sse,
    theorem2_bound,
    write_moment_report,
)
from .channel import (
    CorrelationRoot,
    LosChannel,
    UnitGeometry,
    cgauss,
    correlation_root,
    dump_channels,
    load_channels,
    los_channel,
    rician_channel,
    rician_mixing,
    steering_vector,
)
from .config import (
    CONFIG_KEY_HELP,
    ConfigError,
    ExperimentConfig,
    LayoutConfig,
    PlacementConfig,
    RunConfig,
    SystemConfig,
    load_config,
    parse_override,
)
from .estimation import (
    ChannelEstimate,
    PilotBook,
    ls_estimate,
    pilot_book,
    received_pilot,
    synthesize_error_direct,
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
    LinkWorld,
    UnitBlockDraw,
    UnitChannelStats,
    UnitLinkGeometry,
    block_rng,
    build_unit_geometry,
    draw_unit_block,
    make_unit_stats,
    placement_rng,
    sample_unit_channels,
    slice_stats,
    unit_block_terms,
)
from .optimize import (
    ExpectedFloorTable,
    PilotSolution,
    SchedulingSolution,
    corollary1_t,
    expected_floor_table,
    network_nse,
    nse_of_gammas,
    optimal_num_devices,
    optimal_pilot_length,
)
from .scenario import (
    Deployment,
    InfeasiblePlacementError,
    LisFrame,
    antenna_position,
    build_layout,
    center_distances,
    data_snrs,
    los_probability,
    perpendicular_offsets,
    pilot_snrs,
    place_devices,
    rician_factor,
    transmit_snr,
    unit_antenna_grid,
)
from .sinr import (
    InterferenceBreakdown,
    SseResult,
    desired_power,
    instantaneous_sinr,
    instantaneous_sse,
    interference_power,
    rate_log,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
