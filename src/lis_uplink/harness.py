"""Monte Carlo experiment engine: one block engine, one reduction per
figure, aggregation, CSV output.

Every figure reduces the same per-unit pipeline. ``_place`` draws a
placement, ``_worlds`` builds the link world of a sweep point (plus the
panel-0 single-LIS twin on request), ``_unit_block`` draws block b of unit
(n, k) and builds its statistics in every world, and ``_kernel`` /
``_moments`` turn those into a sampled ``BlockKernel`` and a Lemma/Theorem
moment set; ``_sweep_blocks`` walks a placement's (array size, block)
grid. Only ``_place``, ``_unit_block`` and ``_refades`` (fresh
fading on a frozen block-0 condition) draw randomness. A twin never draws:
it always gets the panel-0 slice of the multi-LIS draw, so multi-vs-single
differences are paired.

Randomness is addressed, not sequenced: every placement and every
(block, unit) pair gets its own seed-derived substream (``_unit_rng`` is
the one block-stream address), so results do not depend on scheduling.
``_run`` maps a reduction over placements; records are concatenated in
placement order and aggregated with fixed-order reductions, which makes
output files byte-identical for any worker count.

To add a figure, write a module-level ``reduction(spec, p)`` returning
``(records, extras)``, with records as ``RawRecord`` field tuples, and add
one ``Experiment`` row for it to ``EXPERIMENTS``; reduce one unit at a time
so different units' roots are never alive together.

The ``lis-sim optimize-t``/``optimize-k`` front ends use the same engine:
placement 0 from ``_place``, block 0 of panel 0's units from
``_unit_block`` and ``_moments`` for the pilot-length objective, and
``_optimal_count`` for the device count.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import re
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .asymptotics import build_moment_set, sse, theorem1_sse
from .channel import cgauss
from .config import (
    ConfigError,
    ExperimentConfig,
    LayoutConfig,
    PlacementConfig,
    RunConfig,
    SystemConfig,
    _jsonable,
)
from .links import (
    DOMAIN_BLOCK,
    BlockKernel,
    LinkWorld,
    draw_unit_block,
    make_unit_stats,
    placement_rng,
    slice_geometry,
    slice_stats,
    stream,
)
from .optimize import expected_floor_table, nse_of_gammas, optimal_num_devices
from .scenario import place_devices

_MC_KSWEEP_CAP = 225  # sampled device-count curves cap the array size here


def _experiment(exp_id: str) -> Experiment:
    """The ``EXPERIMENTS`` row of an id; ConfigError on an unknown id."""
    if exp_id not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment id {exp_id!r}; choose from "
                          + ", ".join(EXPERIMENTS), "experiment.id")
    return EXPERIMENTS[exp_id]


def interference_regime(exp: ExperimentConfig) -> str:
    """The experiment's interference regime, else its row's default."""
    return exp.interference or _experiment(exp.id).interference


@dataclass(frozen=True)
class ExperimentSpec(RunConfig):
    """A fully resolved run configuration: the same sections, with the
    experiment's sweep made concrete.

    ``from_run_config`` alone resolves a config against its ``EXPERIMENTS``
    row: it rejects an unknown id, fills an empty sweep with the row's grid,
    checks each value against the swept variable, stores it as ``int`` and
    checks that the sweep strictly ascends, and fills in the interference
    regime and the theory stride. Reductions and the manifest use the
    result as is."""

    @classmethod
    def from_run_config(cls, rc: RunConfig) -> "ExperimentSpec":
        exp = rc.experiment
        row = _experiment(exp.id)
        if exp.id == "oracle" and exp.realizations < 2:
            # one sample has no standard error, so the oracle's z-gate is void
            raise ConfigError(
                f"the moment oracle needs at least 2 realizations, got {exp.realizations}",
                "experiment.realizations",
            )
        values = exp.sweep_values or row.grid
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and float(v).is_integer() for v in values):
            raise ConfigError(f"sweep values must be finite integers, got {list(values)}",
                              "experiment.sweep_values")
        values = tuple(map(int, values))
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ConfigError(f"sweep values must be strictly ascending, got {list(values)}",
                              "experiment.sweep_values")
        lo, hi = (rc.system.pilot_len, rc.system.T) if row.variable == "t" else (1, math.inf)
        bad = [v for v in values if not (lo <= v <= hi)]
        if bad:
            raise ConfigError(f"{row.variable} sweep values must lie in [{lo}, {hi}], got {bad}",
                              "experiment.sweep_values")
        if row.variable == "M":
            # every array size must make a valid system before any block runs
            for v in values:
                try:
                    dataclasses.replace(rc.system, M=v)
                except ConfigError as exc:
                    raise ConfigError(f"sweep value M={v} is invalid: {exc}",
                                      "experiment.sweep_values") from exc
        stride = exp.theory_stride or (row.stride and max(1, exp.realizations // row.stride))
        resolved = dataclasses.replace(exp, sweep_values=values, theory_stride=stride,
                                       interference=exp.interference or row.interference)
        return cls(system=rc.system, layout=rc.layout, placement=rc.placement, experiment=resolved)


@dataclass(frozen=True)
class RawRecord:
    """One per-realization sample of one curve."""

    sweep_value: float
    label: str
    placement: int
    realization: int
    value: float


@dataclass(frozen=True)
class StatSummary:
    """Aggregated statistics of one curve at one sweep point."""

    sweep_value: float
    mean: float
    variance: float
    stderr: float
    count: int
    label: str


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    records: list
    summaries: list
    extras: dict


def summarize(records) -> list[StatSummary]:
    """Group records by (label, sweep value) into StatSummary rows.

    The reduction is order-fixed (records arrive placement-major), so the
    output is deterministic for a given record set.
    """
    groups: dict[tuple[str, float], list[float]] = {}
    for r in records:
        groups.setdefault((r.label, float(r.sweep_value)), []).append(r.value)
    out = []
    for (label, sweep), vals in sorted(groups.items()):
        arr = np.asarray(vals, dtype=float)
        n = arr.size
        var = float(np.var(arr, ddof=1)) if n > 1 else 0.0
        out.append(StatSummary(sweep_value=sweep, mean=float(np.mean(arr)), variance=var,
                               stderr=math.sqrt(var / n), count=n, label=label))
    return out


# ---------------------------------------------------------------------------
# block engine


def _pmap(fn, tasks, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _place(spec: ExperimentSpec, p_idx: int, pool: bool = False):
    """Devices of placement p_idx; with pool, the largest common placeable
    pool up to ``PlacementConfig.pool_target``."""
    K = spec.placement.pool_target(spec.system.T) if pool else None
    return place_devices(spec.system, spec.layout, placement_rng(spec.system.seed, p_idx),
                         placement=spec.placement, K=K, allow_partial=pool)


def _unit_rng(seed: int, p_idx: int, b_idx: int, n_key: int, k: int):
    return stream(seed, DOMAIN_BLOCK, p_idx, b_idx, n_key, k)


def _draw_prefix(draw, N: int | None = None, K: int | None = None):
    """First N panels and first K devices per panel of a draw (None keeps
    the whole axis); the receiver noise is per antenna and kept whole.

    With N=1 this is the single-LIS twin's draw: it sees the same gates,
    angles, fading and receiver noise, so multi-vs-single differences are
    paired and carry only the inter-panel terms."""
    return dataclasses.replace(draw, coins=draw.coins[:N, :K], angles=draw.angles[:N, :K],
                               g=draw.g[:N, :K])


def _worlds(spec: ExperimentSpec, dep, twin: bool = False, **changes) -> list:
    """Link world of one sweep point (system config with `changes`); with
    twin, followed by the panel-0 single-LIS world."""
    cfg = dataclasses.replace(spec.system, **changes)
    worlds = [LinkWorld(dep, cfg)]
    if twin:
        worlds.append(LinkWorld(dep.panel(0), dataclasses.replace(cfg, N=1)))
    return worlds


def _unit_block(spec: ExperimentSpec, worlds, p: int, b: int, n: int, k: int,
                admitted: int | None = None) -> list:
    """Draw block b of unit (n, k) once and build its statistics in every
    world: one (world, stats, draw) per world, the twin on the panel-0 slice.

    With `admitted`, the draw keeps the world's full device shape (so the
    stream is consumed as for any other count), but the statistics and the
    returned draw cover only the first `admitted` devices per panel: the
    roots are never built for devices a sweep does not admit.

    Callers reduce one unit before drawing the next, so the (N, K, M, P)
    roots of different units are never alive together."""
    cfg = worlds[0].config
    draw = draw_unit_block(_unit_rng(spec.system.seed, p, b, n, k), cfg.N, cfg.K, cfg.P, cfg.M)
    if admitted is not None:
        draw = _draw_prefix(draw, K=admitted)
    draws = [draw] + [_draw_prefix(draw, N=1)] * (len(worlds) - 1)
    out = []
    for world, d in zip(worlds, draws):
        geom = world.unit(n, k)
        if admitted is not None:
            geom = slice_geometry(geom, admitted)
        out.append((world, make_unit_stats(geom, d, world.config, spec.experiment.interference), d))
    return out


def _refades(spec: ExperimentSpec, cfg: SystemConfig, p: int, r: int, n: int, k: int):
    """Fresh fading g and noise w of realization r of unit (n, k), on top
    of the frozen block-0 condition (stream address b = r + 1)."""
    rng = _unit_rng(spec.system.seed, p, r + 1, n, k)
    return cgauss(rng, (cfg.N, cfg.K, cfg.P)), cgauss(rng, (cfg.M,))


def _kernel(stats, world: LinkWorld, g, w, K=None) -> BlockKernel:
    """Sampled kernel of one unit in `world`; with K, restricted to the
    first K devices per panel."""
    rho_p, rho_d = world.rho_p, world.rho_d
    if K is not None:
        stats, g, rho_p, rho_d = slice_stats(stats, K), g[:, :K], rho_p[:, :K], rho_d[:, :K]
    return BlockKernel(stats, g, w, rho_p, rho_d)


def _moments(stats, world: LinkWorld, t: int):
    """Lemma/Theorem moment set of one unit's block statistics."""
    n, k = stats.geom.n, stats.geom.k
    return build_moment_set(
        stats, t, world.rho_p, world.rho_d,
        z_own=world.deployment.devices_local[n, k, 2], L=world.config.L,
    )


def _sweep_blocks(spec: ExperimentSpec, p: int, twin: bool):
    """(M, worlds, b) for every array size of placement p and every block."""
    dep = _place(spec, p)
    for M in spec.experiment.sweep_values:
        worlds = _worlds(spec, dep, twin, M=M)
        for b in range(spec.experiment.realizations):
            yield M, worlds, b


def _sampled_nse(spec: ExperimentSpec, worlds, p: int, b: int, K_grid) -> dict:
    """Monte Carlo NSE of block b for every admitted count K in K_grid, with
    pilot length t = K. Unit (n, k) is drawn once on the whole pool, its
    statistics are built for the first max(K_grid) devices only and then
    sliced to each K > k."""
    (world,) = worlds
    cfg = world.config
    K_max = max(K_grid)
    gam = {K: np.empty((cfg.N, K)) for K in K_grid}
    for n in range(cfg.N):
        for k in range(K_max):
            ((_, stats, draw),) = _unit_block(spec, worlds, p, b, n, k, admitted=K_max)
            for K in K_grid:
                if k < K:
                    gam[K][n, k] = _kernel(stats, world, draw.g, draw.w, K).gamma(K)
    return {K: nse_of_gammas(gam[K], K, cfg.T) for K in K_grid}


def _optimal_count(spec: ExperimentSpec, world: LinkWorld):
    """Device count maximizing the Theorem 2 floor NSE over the pool of a
    world whose config holds that pool (K = pool, t unset)."""
    table = expected_floor_table(world, spec.experiment.interference)
    return optimal_num_devices(table.gamma_hat, world.config.T, world.deployment.K)


# ---------------------------------------------------------------------------
# figure reductions: (spec, placement) -> (record tuples, extras)


def _se_variance(spec: ExperimentSpec, p: int):
    """fig4: per-device SE variance of unit (0, 0) across fast-fading draws,
    multi- and single-LIS. The slow state (gates, scattering angles) is
    frozen per placement so the statistic isolates channel hardening. One
    record per placement carries the within-placement variance; curves then
    average over placements."""
    R = spec.experiment.realizations
    dep = _place(spec, p)
    recs, mean_se = [], {}
    for M in spec.experiment.sweep_values:
        worlds = _worlds(spec, dep, twin=True, M=M)
        cfg = worlds[0].config
        t = cfg.pilot_len
        frozen = _unit_block(spec, worlds, p, 0, 0, 0)
        se = np.empty((len(worlds), R))
        for r in range(R):
            g, w = _refades(spec, cfg, p, r, 0, 0)
            for i, (world, stats, _) in enumerate(frozen):
                kern = _kernel(stats, world, g[: world.config.N], w)
                se[i, r] = sse(kern.gamma(t), t, cfg.T)
        for label, row in zip(("multi-LIS SE variance", "single-LIS SE variance"), se):
            recs.append((float(M), label, p, 0, float(np.var(row, ddof=1)) if R > 1 else 0.0))
            mean_se.setdefault(label, {})[M] = float(np.mean(row))
    return recs, {"mean_se": mean_se}


def _panel0_sse(spec: ExperimentSpec, p: int, sample: bool = True):
    """fig5/fig6: panel-0 SSE of the multi-LIS system and its single-LIS
    twin on paired draws, plus Theorem 1/2 curves every stride-th block.
    With sample=False (run_asymptotic, which resolves the stride to 1): the
    multi-LIS Theorem curves alone, with no receive-side sampling."""
    stride = spec.experiment.theory_stride
    recs = []
    for M, worlds, b in _sweep_blocks(spec, p, twin=sample):
        cfg = worlds[0].config
        t, T = cfg.pilot_len, cfg.T
        theory = b % stride == 0
        gammas = np.empty((len(worlds), cfg.K))
        sets = [[] for _ in worlds]
        for k in range(cfg.K):
            for i, (world, stats, draw) in enumerate(_unit_block(spec, worlds, p, b, 0, k)):
                if sample:
                    gammas[i, k] = _kernel(stats, world, draw.g, draw.w).gamma(t)
                if theory:
                    sets[i].append(_moments(stats, world, t))
        if sample:
            for row, tag in zip(gammas, ("multi-LIS", "single-LIS")):
                recs.append((float(M), f"{tag} imperfect CSI", p, b, sse(row, t, T)))
        if theory:
            for unit_sets, suffix in zip(sets, ("", " single-LIS")):
                th = theorem1_sse(unit_sets, t, T)
                recs.append((float(M), f"Theorem 1{suffix}", p, b, th.sse_bar))
                # an interference-free draw has an unbounded floor; such
                # blocks are excluded from the bound curve
                if math.isfinite(th.sse_hat):
                    recs.append((float(M), f"Theorem 2 bound{suffix}", p, b, th.sse_hat))
    return recs, {}


def _csi(spec: ExperimentSpec, p: int):
    """fig6b: panel-0 SSE with estimated and with exact filters, multi- and
    single-LIS, all four curves from the same paired draws."""
    recs = []
    for M, worlds, b in _sweep_blocks(spec, p, twin=True):
        cfg = worlds[0].config
        t, T = cfg.pilot_len, cfg.T
        gammas = np.empty((len(worlds), 2, cfg.K))  # world, (estimated, exact), unit
        for k in range(cfg.K):
            for i, (world, stats, draw) in enumerate(_unit_block(spec, worlds, p, b, 0, k)):
                kern = _kernel(stats, world, draw.g, draw.w)
                gammas[i, :, k] = kern.gamma(t), kern.gamma_perfect
        for (est, exact), tag in zip(gammas, ("multi-LIS", "single-LIS")):
            recs.append((float(M), f"{tag} imperfect CSI", p, b, sse(est, t, T)))
            recs.append((float(M), f"{tag} perfect CSI", p, b, sse(exact, t, T)))
    return recs, {}


def _pilot(spec: ExperimentSpec, p: int):
    """fig7: SSE versus pilot length on a fixed array size; each block's
    sampled kernels are reused across the whole t grid."""
    exp = spec.experiment
    worlds = _worlds(spec, _place(spec, p))
    cfg = worlds[0].config
    recs = []
    for b in range(exp.realizations):
        theory = b % exp.theory_stride == 0
        kernels, sets = [], []
        for k in range(cfg.K):
            ((world, stats, draw),) = _unit_block(spec, worlds, p, b, 0, k)
            kernels.append(_kernel(stats, world, draw.g, draw.w))
            if theory:
                sets.append(_moments(stats, world, cfg.pilot_len))
        for t in exp.sweep_values:
            value = sse([kern.gamma(t) for kern in kernels], t, cfg.T)
            recs.append((float(t), "multi-LIS imperfect CSI", p, b, value))
            if theory:
                recs.append((float(t), "Theorem 1", p, b, theorem1_sse(sets, t, cfg.T).sse_bar))
    return recs, {}


def _ksweep(spec: ExperimentSpec, p: int):
    """fig8: deterministic NSE(K) curve over the placeable pool plus a
    sampled cross-check curve at a tractable array size."""
    cfg, exp = spec.system, spec.experiment
    dep = _place(spec, p, pool=True)
    pool = dep.K
    sol = _optimal_count(spec, *_worlds(spec, dep, K=pool, t=None))
    recs = [(float(K), "Theorem 2 bound NSE", p, 0, float(v))
            for K, v in zip(sol.K_values, sol.nse_curve) if math.isfinite(v)]
    mc_M = cfg.M if cfg.M <= _MC_KSWEEP_CAP else 196
    K_grid = sorted({K for K in exp.sweep_values if K <= pool} | {sol.K_opt})
    worlds = _worlds(spec, dep, M=mc_M, K=pool, t=None)
    for b in range(exp.realizations):
        nse = _sampled_nse(spec, worlds, p, b, K_grid)
        recs += [(float(K), "Monte Carlo NSE", p, b, nse[K]) for K in K_grid]
    extras = {"pool": pool, "K_opt": sol.K_opt, "nse_opt": sol.nse_opt, "mc_M": mc_M,
              "K_grid": list(K_grid), "det_curve": [float(v) for v in sol.nse_curve]}
    return recs, extras


def _nse_vs_m(spec: ExperimentSpec, p: int):
    """fig9: NSE versus array size under three admission policies: the
    deterministic optimum, its sampled value, and fixed K=20."""
    exp = spec.experiment
    dep = _place(spec, p, pool=True)
    recs, K_opt = [], {}
    for M in exp.sweep_values:
        worlds = _worlds(spec, dep, M=M, K=dep.K, t=None)
        sol = _optimal_count(spec, *worlds)
        K_opt[M] = sol.K_opt
        recs.append((float(M), "Theorem 2 bound NSE at optimized K", p, 0, sol.nse_opt))
        for K, label in ((sol.K_opt, "Monte Carlo NSE at optimized K"),
                         (min(20, dep.K), "Monte Carlo NSE at K=20")):
            for b in range(exp.realizations):
                recs.append((float(M), label, p, b, _sampled_nse(spec, worlds, p, b, [K])[K]))
    return recs, {"pool": dep.K, "K_opt": K_opt}


def _oracle_entry(samples, closed: float) -> dict:
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    z = (mean - closed) / stderr if stderr > 0 else 0.0
    rel = abs(closed - mean) / abs(mean) if mean != 0 else math.inf
    return {"closed": closed, "mc_mean": mean, "mc_stderr": stderr, "z": z, "rel_err": rel}


def _oracle(spec: ExperimentSpec, p: int):
    """Sampling oracle: conditional means of X, Y, Z, I of unit (0, 0)
    versus their closed forms on one frozen channel-statistics draw per
    array size.

    The gating coins and scattered-path angles come from the same
    substream at every M (they are drawn before anything M-shaped), so the
    array sizes share one channel condition and the leakage-formula error
    can be compared across M.
    """
    R = spec.experiment.realizations
    dep = _place(spec, p)
    recs, report = [], []
    for M in spec.experiment.sweep_values:
        worlds = _worlds(spec, dep, M=M)
        cfg = worlds[0].config
        t = cfg.pilot_len
        ((world, stats, _),) = _unit_block(spec, worlds, p, 0, 0, 0)
        ms = _moments(stats, world, t)
        M2 = float(cfg.M) ** 2
        samples = np.empty((4, R))  # X, Y total, Z, I
        for r in range(R):
            g, w = _refades(spec, cfg, p, r, 0, 0)
            terms = _kernel(stats, world, g, w).terms(t)
            samples[:, r] = terms.X, float(np.sum(world.rho_d * terms.Y)), terms.Z, terms.I
            recs += [(float(M), "X", p, r, terms.X), (float(M), "Y total", p, r, samples[1, r]),
                     (float(M), "Z", p, r, terms.Z), (float(M), "I over M^2", p, r, terms.I / M2)]
        closed = (ms.mu_X(), float(np.sum(ms.rho_d * ms.mu_Y_bar())), ms.mu_Z(), ms.mu_I_bar())
        report.append({
            "M": M, "unit": [0, 0], "t": t,
            "kappa": [[float(v) for v in row] for row in stats.kappa],
            **{name: _oracle_entry(row, c)
               for name, row, c in zip(("X", "Y_total", "Z", "I"), samples, closed)},
            "I_over_M2": _oracle_entry(samples[3] / M2, closed[3] / M2),
        })
    return recs, {"oracle": report}


# ---------------------------------------------------------------------------
# experiment table


@dataclass(frozen=True)
class Experiment:
    """One row of ``EXPERIMENTS``: a figure's reduction, its sweep and its
    desk-scale preset."""

    reduce: Callable          # reduction (spec, placement) -> (records, extras)
    variable: str             # swept parameter: M, t or K
    grid: tuple               # default sweep values
    interference: str = "rician"  # default interference regime
    stride: int = 0           # theory curves every realizations // stride blocks (0: none)
    asymptotic: bool = False  # run_asymptotic accepts it
    system: dict = field(default_factory=dict)  # preset changes to the reference system
    counts: dict = field(default_factory=dict)  # preset experiment sample counts
    layout: LayoutConfig = LayoutConfig()       # preset layout


EXPERIMENTS = {
    "fig4": Experiment(_se_variance, "M", (36, 144, 400, 900), asymptotic=True,
                       system={"K": 20}, counts={"realizations": 500, "placements": 10}),
    "fig5": Experiment(_panel0_sse, "M", (100, 400, 900), stride=8, asymptotic=True,
                       counts={"realizations": 24, "placements": 4}),
    "fig6": Experiment(_panel0_sse, "M", (100, 400, 900), "nlos_inter", stride=8,
                       asymptotic=True, counts={"realizations": 24, "placements": 4}),
    "fig6b": Experiment(_csi, "M", (100, 400, 900), "nlos_inter", asymptotic=True,
                        counts={"realizations": 48, "placements": 4}),
    "fig7": Experiment(_pilot, "t", (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 500),
                       stride=2, counts={"realizations": 24, "placements": 4, "theory_stride": 12}),
    # K values above a placement's pool are skipped at run time
    "fig8": Experiment(_ksweep, "K", (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40),
                       system={"K": 20, "T": 50}, counts={"realizations": 8, "placements": 12}),
    "fig9": Experiment(_nse_vs_m, "M", (100, 196, 400), system={"M": 400, "K": 20, "T": 50},
                       counts={"realizations": 4, "placements": 3}),
    "oracle": Experiment(_oracle, "M", (16, 100), system={"M": 100, "K": 2, "N": 2, "P": 4},
                         counts={"realizations": 10000, "placements": 1},
                         layout=LayoutConfig(name="line", d_x=0.5)),
}


def _task(task):
    reduce, spec, p = task
    return reduce(spec, p)


def _run(spec: ExperimentSpec, reduce, workers: int) -> ExperimentResult:
    """Map a reduction over placements; records are concatenated in
    placement order, so outputs do not depend on the worker count."""
    tasks = [(reduce, spec, p) for p in range(spec.experiment.placements)]
    outs = _pmap(_task, tasks, workers)
    records = [RawRecord(*rec) for recs, _ in outs for rec in recs]
    extras = {"placements": [extras for _, extras in outs]}
    return ExperimentResult(spec=spec, records=records, summaries=summarize(records), extras=extras)


def run_experiment(run_config: RunConfig, workers: int = 1) -> ExperimentResult:
    """Resolve, run, and aggregate the experiment named by the config."""
    spec = ExperimentSpec.from_run_config(run_config)
    return _run(spec, EXPERIMENTS[spec.experiment.id].reduce, workers)


def run_asymptotic(rc: RunConfig, workers: int = 1) -> ExperimentResult:
    """Analytic curves of an M-sweep experiment: the panel-0 reduction with
    receive-side sampling off (gates and scattering angles are still drawn
    per block), with theory curves on every block."""
    if not _experiment(rc.experiment.id).asymptotic:
        allowed = tuple(k for k, row in EXPERIMENTS.items() if row.asymptotic)
        raise ConfigError(
            f"runner expects experiment.id in {allowed}, got {rc.experiment.id!r}",
            "experiment.id",
        )
    exp = dataclasses.replace(rc.experiment, theory_stride=1)
    spec = ExperimentSpec.from_run_config(dataclasses.replace(rc, experiment=exp))
    return _run(spec, functools.partial(_panel0_sse, sample=False), workers)


# ---------------------------------------------------------------------------
# output files

CSV_HEADER = "sweep_value,mean,variance,stderr,count,label"
RAW_HEADER = "sweep_value,placement,realization,value,label"


def _fmt(x: float) -> str:
    return repr(float(x))


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")


def write_outputs(result: ExperimentResult, out_dir) -> list[Path]:
    """Write one CSV per curve, the optional raw-record CSV, and the JSON
    manifest (config echo, seed, content hash). Bytes depend only on the
    result content, never on worker scheduling."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exp_id = result.spec.experiment.id
    rc = result.spec
    files: list[Path] = []

    def write_csv(name, header, lines):
        path = out / name
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        files.append(path)

    for label in sorted({s.label for s in result.summaries}):
        if "," in label:
            raise ValueError(f"curve label may not contain a comma: {label!r}")
        rows = sorted((s for s in result.summaries if s.label == label),
                      key=lambda s: s.sweep_value)
        write_csv(f"{exp_id}_{_slug(label)}.csv", CSV_HEADER, [
            f"{_fmt(s.sweep_value)},{_fmt(s.mean)},{_fmt(s.variance)},"
            f"{_fmt(s.stderr)},{s.count},{s.label}" for s in rows])
    if result.spec.experiment.raw_records:
        write_csv(f"{exp_id}_raw.csv", RAW_HEADER, [
            f"{_fmt(r.sweep_value)},{r.placement},{r.realization},{_fmt(r.value)},{r.label}"
            for r in result.records])

    manifest = {
        "experiment_id": exp_id,
        "sweep_variable": EXPERIMENTS[exp_id].variable,
        "seed": rc.system.seed,
        "config": rc.to_dict(),
        "config_hash": rc.content_hash(),
        "outputs": [f.name for f in files],
        "extras": _jsonable(result.extras),
    }
    mpath = out / f"{exp_id}_manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    files.append(mpath)
    return files


# ---------------------------------------------------------------------------
# presets


def preset_run_config(experiment_id: str, seed: int = 0) -> RunConfig:
    """Desk-scale defaults per figure: the reference scenario (3 GHz,
    2L = 0.5 m, 0 dB pilot and 3 dB data targets, T = 500 or 50) with
    sample counts sized for a single workstation, changed by the id's
    ``EXPERIMENTS`` row."""
    row = _experiment(experiment_id)
    return RunConfig(
        system=SystemConfig(**{"M": 900, "K": 8, "N": 4, "T": 500, "seed": seed, **row.system}),
        layout=row.layout,
        placement=PlacementConfig(),
        experiment=ExperimentConfig(id=experiment_id, **row.counts),
    )
