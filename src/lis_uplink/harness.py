"""Monte Carlo experiment engine: one block engine, one reduction per
figure, aggregation, CSV output.

Every figure reduces the same per-unit pipeline. A sweep point is a
deployment from ``_place`` and the system config its links are built for.
A reduction builds one ``panel_view`` of it for each panel it walks, and
``_unit_blocks`` draws every requested block of unit (n, k) first, then
builds the unit's geometry from its panel's view once, with LOS vectors
only on its serving link and the links some block gates (the rest reach
no statistics), and builds each block's statistics. Each statistics
object carries its unit's link budget, so it needs no further arguments:
``build_moment_set(stats)`` is its Lemma/Theorem moment set and, on
channels ``ch = sample_unit_channels(stats, g)``, ``BlockKernel(stats, ch,
w)`` is its sampled kernel and ``exact_sinr(stats, ch)`` its exact-filter
SINR. Channels are sampled only where a kernel is built. Reductions walk
units outside blocks: they fill per-block arrays of scalars unit by unit
and emit their records block by block afterwards.

fig4, fig5, fig6 and fig6b compare each multi-LIS unit with its
single-LIS twin, panel 0 alone, on paired draws. The twin is never drawn,
built or sampled on its own: it is the unit's cut to panel 0, statistics
``slice_stats(stats, N=1)`` and channels ``ch[..., :1, :, :]``, and the
reductions walk the unit and its cut alike for kernels, exact-filter
SINRs and moment sets. fig5, fig6, fig6b and fig7 share one reduction,
``_panel0_sse``; fig6b's row turns on its exact-filter (perfect-CSI)
curves, whose panel-0 products are the twin kernel's ``A``, formed once,
and fig7 reads its one array size at its t grid.

The device-count frame, ``_floor_counts``, places a placement's pool once
and yields, per floor array size, the pool config (K = pool, t unset) and
the count maximizing the Theorem 2 floor NSE. fig8 and fig9 sample under
that config, so every draw has the pool's shape, on the prefix of
admitted devices, so geometry is built for those alone. ``_sampled_nse``
walks units outermost over every (array size, K grid) point of the sweep:
it draws each unit once per block at the largest array size, where a
smaller one reads its noise through ``cgauss_prefix``, and builds one
kernel per point on the largest admitted count of its K grid; every
smaller count is read off that kernel (``BlockKernel.terms(t, K)``), so
the work is one draw per (unit, block) for the whole sweep and one kernel
per (unit, block, array size), whatever the grids hold. Only ``_place``,
``_draws`` and ``_refades`` (fresh fading on a frozen block-0 condition)
draw randomness.

fig4 and the moment oracle share one engine, ``_refades``: R refades of
unit (0, 0) on its frozen block 0, each drawn once from its own stream at
the largest M, which a smaller M reads through ``cgauss_prefix``. Each
figure's measure is called once per array size (fig4 cuts its twin there)
and returns the reader of that size's refade chunks.

Randomness is addressed, not sequenced: every placement and every
(block, unit) pair gets its own seed-derived substream (``stream(seed,
DOMAIN_BLOCK, p, b, n, k)``; a refade r is block r + 1), so results do not
depend on scheduling.
``_run`` maps a reduction over placements; records are concatenated in
placement order and aggregated with fixed-order reductions, which makes
output files byte-identical for any worker count.

To add a figure, write a module-level ``reduction(spec, p)`` returning
``(records, extras)``, with records as ``RawRecord`` field tuples, and add
one ``Experiment`` row for it to ``EXPERIMENTS``. Walk units in the outer
loop and their ``_unit_blocks`` in the inner one, and keep per-block
scalars (SINRs, a moment set's ``sse_terms``), never statistics or moment
sets: only the scalars grow with the blocks, and one unit's draws and
geometry are alive at a time.

The optimizer objectives are engine calls on a config whose interference
regime alone is resolved: ``pilot_objective`` is t -> panel 0's Theorem 1
SSE on placement 0, block 0; ``device_count`` (``lis-sim optimize-k``)
is ``_floor_counts`` at the config's array size, fig8's one point.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .asymptotics import build_moment_set, sse, theorem1_sse
from .channel import cgauss, cgauss_prefix
from .config import ConfigError, ExperimentConfig, RunConfig, SystemConfig, json_text
from .links import (
    DOMAIN_BLOCK,
    BlockKernel,
    PanelView,
    build_unit_geometry,
    draw_unit_block,
    exact_sinr,
    los_gates,
    make_unit_stats,
    panel_view,
    placement_rng,
    sample_unit_channels,
    slice_stats,
    stream,
    stream_words,
    substreams,
)
from .optimize import expected_floor_table, optimal_num_devices
from .scenario import place_devices

_MC_KSWEEP_CAP = 225  # sampled device-count curves cap the array size here
# Refade chunks: a kernel's stacked channels (16 N K M bytes per draw) and
# a shared draw at the largest M (16 (N K P + M) bytes per draw) fit this.
_REFADE_CHUNK_BYTES = 256 * 1024


def _experiment(exp_id: str) -> Experiment:
    """The ``EXPERIMENTS`` row of an id; ConfigError on an unknown id."""
    if exp_id not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment id {exp_id!r}; choose from "
                          + ", ".join(EXPERIMENTS), "experiment.id")
    return EXPERIMENTS[exp_id]


def _interference_regime(exp: ExperimentConfig) -> str:
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
        lo, hi = (rc.system.K, rc.system.T) if row.variable == "t" else (1, math.inf)
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
                                       interference=_interference_regime(exp))
        return cls(system=rc.system, layout=rc.layout, placement=rc.placement, experiment=resolved)


def _optimizer_spec(rc: RunConfig) -> ExperimentSpec:
    """The engine's view of an optimizer run: only the interference regime
    is resolved, the experiment's sweep is not used. A spec maps to an equal one."""
    exp = dataclasses.replace(rc.experiment, interference=_interference_regime(rc.experiment))
    return ExperimentSpec(rc.system, rc.layout, rc.placement, exp)


class RawRecord(NamedTuple):
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
    # imported here: the process pool is most of the package's import time
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _place(spec: ExperimentSpec, p_idx: int, K: int | None = None):
    """Devices of placement p_idx: the config's K per panel or, with K, the
    largest common placeable count up to K."""
    return place_devices(spec.system, spec.layout, placement_rng(spec.system.seed, p_idx),
                         placement=spec.placement, K=K)


def _draws(spec: ExperimentSpec, cfg: SystemConfig, p: int, blocks, n: int, k: int) -> list:
    """Unit (n, k)'s draw of each block b in `blocks`, from stream address
    (seed, DOMAIN_BLOCK, p, b, n, k), in `cfg`'s device shape and array size."""
    return [draw_unit_block(stream(spec.system.seed, DOMAIN_BLOCK, p, b, n, k),
                            cfg.N, cfg.K, cfg.P, cfg.M) for b in blocks]


def _unit_blocks(spec: ExperimentSpec, view: PanelView, p: int, blocks, k: int, draws=None):
    """Draw unit (view.n, k)'s blocks b in `blocks` first (``_draws`` under
    the view's config, or the unit's `draws` of those blocks taken at a
    larger array size), then build its geometry from its panel's view once,
    with LOS vectors on the links some block gates (``los_gates``), and
    yield (stats, draw) for each block in order.

    Each draw keeps the config's device shape (so the stream is consumed
    as for any other count) and is cut to the view's first K devices per
    panel and to its array size (``cgauss_prefix``): the admitted prefix
    in ``_sampled_nse``, every device elsewhere. The statistics hold
    factored roots; only ``build_moment_set`` densifies them, antenna-major."""
    cfg, n, K = view.config, view.n, view.z.shape[1]
    draws = [dataclasses.replace(d, coins=d.coins[:, :K], angles=d.angles[:, :K], g=d.g[:, :K],
                                 w=d.w if d.w.shape[-1] == cfg.M else cgauss_prefix(d.w, cfg.M))
             for d in draws or _draws(spec, cfg, p, blocks, n, k)]
    regime = spec.experiment.interference
    los = np.any(los_gates(np.array([d.coins for d in draws]), view.p_los[k], n, regime), axis=0)
    geom = build_unit_geometry(view, k, los)
    for draw in draws:
        yield make_unit_stats(geom, draw, cfg, regime), draw


def _refades(spec: ExperimentSpec, p: int, rows: int, measure) -> list:
    """fig4's and the oracle's engine: (cfg, stats, values) per array size
    of placement p, stats unit (0, 0)'s frozen block-0 statistics and
    values[:, r] the `rows` values that ``measure(cfg, stats)``, called once
    per array size, returns a reader of: ``read(channels, w)`` reads them
    off realization r (stream b = r + 1), on the (c, N, K, M) channels and
    (c, M) noise of c draws whose channels fit ``_REFADE_CHUNK_BYTES``.
    Each stream is drawn once at the largest M (the sweep ascends), in chunks
    of the most draws that fit that budget (at least its kernel chunk) and
    that every smaller kernel chunk divides."""
    units = [(cfg, stats) for _, dep, cfg in _sweep_points(spec, p)
             for stats, _ in _unit_blocks(spec, panel_view(dep, cfg, 0), p, [0], 0)]
    R, top = spec.experiment.realizations, units[-1][0]
    values = np.empty((len(units), rows, R))  # filled in place: kept chunks fragment the heap
    chunks = [max(1, _REFADE_CHUNK_BYTES // (16 * cfg.N * cfg.K * cfg.M)) for cfg, _ in units]
    fit = max(chunks[-1], _REFADE_CHUNK_BYTES // (16 * (top.N * top.K * top.P + top.M)))
    draws = next(d for d in range(fit, 0, -1) if all(d % c == 0 for c in chunks if c < d))
    words = stream_words(spec.system.seed, DOMAIN_BLOCK, p, np.arange(1, R + 1), 0, 0)
    readers = [measure(cfg, stats) for cfg, stats in units]
    for start in range(0, R, draws):
        g, w = cgauss(substreams(words[start:start + draws]), (top.N, top.K, top.P), (top.M,))
        for (cfg, stats), read, chunk, out in zip(units, readers, chunks,
                                                  values[..., start:start + draws]):
            w_m = cgauss_prefix(w, cfg.M)
            for a in range(0, len(g), chunk):  # one sub-chunk's channels alive at a time
                out[:, a:a + chunk] = read(sample_unit_channels(stats, g[a:a + chunk]),
                                           w_m[a:a + chunk])
    return [(*unit, out) for unit, out in zip(units, values)]


def _sweep_points(spec: ExperimentSpec, p: int):
    """(M, deployment, config) per array size of placement p: each swept M, or a t-sweep's one."""
    dep, exp = _place(spec, p), spec.experiment
    for M in exp.sweep_values if _experiment(exp.id).variable == "M" else (spec.system.M,):
        yield M, dep, dataclasses.replace(spec.system, M=M)


def _floor_counts(spec: ExperimentSpec, p: int, Ms):
    """fig8's, fig9's and ``device_count``'s frame: placement p's pool,
    placed once up to ``PlacementConfig.pool_target``, then (pool, cfg,
    sol) per floor array size M in Ms, cfg the pool config (K = pool.K, t
    unset, M) and sol the count maximizing the Theorem 2 floor NSE on it.
    ConfigError when one panel's pool is one device: with no interferer
    every floor is zero, so no count has a finite floor NSE."""
    target = spec.placement.pool_target(spec.system.T)
    if spec.system.N == 1 and target == 1:
        raise ConfigError("a device-count sweep on one panel needs a pool of at least "
                          "2 devices", "placement.pool_size")
    pool = _place(spec, p, K=target)
    for M in Ms:
        cfg = dataclasses.replace(spec.system, K=pool.K, t=None, M=M)
        # the table is not kept: it would stay alive through the caller's sampling
        yield pool, cfg, optimal_num_devices(
            expected_floor_table(pool, cfg, spec.experiment.interference), cfg.T)


def _sampled_nse(spec: ExperimentSpec, pool, p: int, points) -> list:
    """Monte Carlo NSE of each of the experiment's blocks at every point
    (cfg, K_grid) of `points`, for every count K in K_grid at pilot length
    t = K: per point, one {K: NSE} per block. Units are walked outermost:
    unit (n, k) is drawn once per block under the pool config of the
    points' largest array size, and every point with k below its largest
    count reads those draws (``_unit_blocks``). Its statistics and its one
    ``BlockKernel`` there cover the first max(K_grid) devices of `pool`
    only, and each K > k reads its SINR off that kernel with
    ``gamma(K, K)``, which sums the interference over the first K devices."""
    R, top = spec.experiment.realizations, max((cfg for cfg, _ in points), key=lambda c: c.M)
    K_top = max(max(K_grid) for _, K_grid in points)
    gam = [{K: np.empty((R, cfg.N, K)) for K in K_grid} for cfg, K_grid in points]
    for n in range(top.N):
        views = [panel_view(pool.prefix(max(K_grid)), cfg, n) for cfg, K_grid in points]
        held = max(view.z.shape[1] for view in views)  # the devices some view admits
        for k in range(K_top):
            # held through the sweep, so cut to those devices and copied
            draws = [dataclasses.replace(d, coins=d.coins[:, :held].copy(),
                                         angles=d.angles[:, :held].copy(), g=d.g[:, :held].copy())
                     for d in _draws(spec, top, p, range(R), n, k)]
            for view, (_, K_grid), gam_p in zip(views, points, gam):
                if k >= max(K_grid):
                    continue
                for i, (stats, draw) in enumerate(_unit_blocks(spec, view, p, range(R), k, draws)):
                    kern = BlockKernel(stats, sample_unit_channels(stats, draw.g), draw.w)
                    for K in K_grid:
                        if k < K:
                            gam_p[K][i, n, k] = kern.gamma(K, K)
                    # dropped here, else it is alive while the next block's
                    # statistics are built, and the two set the peak memory
                    del stats
    return [[{K: sse(gam_p[K][i], K, cfg.T) for K in K_grid} for i in range(R)]
            for (cfg, K_grid), gam_p in zip(points, gam)]


def device_count(rc: RunConfig, p: int = 0):
    """(``SchedulingSolution``, pool ``Deployment``): ``_floor_counts`` of
    placement p at the config's array size."""
    [(pool, _, sol)] = _floor_counts(_optimizer_spec(rc), p, [rc.system.M])
    return sol, pool


def pilot_objective(rc: RunConfig) -> Callable[[int], float]:
    """t -> Theorem 1 SSE (``sse_bar``) of panel 0 on placement 0, block
    0: the pilot-length objective, on moment sets built once."""
    spec = _optimizer_spec(rc)
    cfg = spec.system
    view = panel_view(_place(spec, 0), cfg, 0)
    sets = [build_moment_set(stats) for k in range(cfg.K)
            for stats, _ in _unit_blocks(spec, view, 0, [0], k)]
    return lambda t: theorem1_sse([ms.sse_terms(t) for ms in sets], t, cfg.T).sse_bar


# ---------------------------------------------------------------------------
# figure reductions: (spec, placement) -> (record tuples, extras)


def _se_variance(spec: ExperimentSpec, p: int):
    """fig4: per-device SE variance of unit (0, 0) across fast-fading draws,
    multi- and single-LIS (the panel-0 cut), one kernel each per chunk of
    refades on one sample of its channels. The slow state (gates,
    scattering angles) is frozen per placement so the statistic isolates
    channel hardening. One record per placement carries the
    within-placement variance; curves then average over placements."""
    def se(cfg, stats):
        t, systems = cfg.pilot_len, ((stats, cfg.N), (slice_stats(stats, N=1), 1))
        return lambda ch, w: [
            [sse(gamma, t, cfg.T) for gamma in BlockKernel(s, ch[..., :N, :, :], w).gamma(t)]
            for s, N in systems]
    recs, mean_se = [], {}
    for cfg, _, rows in _refades(spec, p, 2, se):
        for label, row in zip(("multi-LIS SE variance", "single-LIS SE variance"), rows):
            recs.append((float(cfg.M), label, p, 0,
                         float(np.var(row, ddof=1)) if row.size > 1 else 0.0))
            mean_se.setdefault(label, {})[cfg.M] = float(np.mean(row))
    return recs, {"mean_se": mean_se}


def _panel0_sse(spec: ExperimentSpec, p: int, sample: bool = True):
    """fig5, fig6, fig6b and fig7: panel-0 SSE under each receive filter
    of the row's ``filters``, plus Theorem 1 curves every stride-th block
    (stride 0, fig6b's default: none), at every pilot length of a sweep
    point: ``cfg.pilot_len``, or fig7's t grid on its one array size, each
    block's one kernel and moment set per unit read at every t. Only an
    M-sweep adds the single-LIS twin and the Theorem 2 bound (the large-M
    floor). Records run per (array size, block, t): sampled curves system
    by system, filter by filter, then Theorem 1 and 2 per system. With
    sample=False (run_asymptotic; stride 1): multi-LIS Theorem curves alone."""
    exp, row = spec.experiment, _experiment(spec.experiment.id)
    stride, R, by_M = exp.theory_stride, exp.realizations, row.variable == "M"
    filters = row.filters if sample else ()  # run_asymptotic samples no channels
    systems = 2 if filters and by_M else 1
    recs = []
    for M, dep, cfg in _sweep_points(spec, p):
        ts, T = (cfg.pilot_len,) if by_M else exp.sweep_values, cfg.T
        gammas = np.empty((R, len(ts), systems, len(filters), cfg.K))  # [b, t, system, filter, k]
        terms = np.empty((R, len(ts), systems, cfg.K, 4))  # theory blocks' sse_terms(t)
        view = panel_view(dep, cfg, 0)
        for k in range(cfg.K):
            for b, (stats, draw) in enumerate(_unit_blocks(spec, view, p, range(R), k)):
                ch = sample_unit_channels(stats, draw.g) if filters else None
                twin = ((slice_stats(stats, N=1), 1),) if systems == 2 else ()
                rows = None  # the exact filter's panel-0 products, once formed
                # the twin first: its kernel's A is those products, bit for bit
                for i, (s, N) in reversed(list(enumerate(((stats, cfg.N), *twin)))):
                    if filters:
                        c = ch[..., :N, :, :]
                        kern = BlockKernel(s, c, draw.w)
                        rows = kern.A if N == 1 else rows
                        for f, name in enumerate(filters):  # the exact filter reads no t
                            gammas[b, :, i, f, k] = (exact_sinr(s, c, rows) if name == "perfect CSI"
                                                     else [kern.gamma(t) for t in ts])
                    if stride and b % stride == 0:  # the set is freed before the next
                        terms[b, :, i, k] = list(map(build_moment_set(s).sse_terms, ts))
        for b in range(R):
            for t, g_t, terms_t in zip(ts, gammas[b], terms[b]):
                x = float(M if by_M else t)
                for rows, tag in zip(g_t, ("multi-LIS", "single-LIS")):
                    for g, name in zip(rows, filters):
                        recs.append((x, f"{tag} {name}", p, b, sse(g, t, T)))
                if stride and b % stride == 0:
                    for units, suffix in zip(terms_t, ("", " single-LIS")):
                        th = theorem1_sse(units, t, T)
                        recs.append((x, f"Theorem 1{suffix}", p, b, th.sse_bar))
                        # an interference-free draw's floor is unbounded: no bound
                        if by_M and math.isfinite(th.sse_hat):
                            recs.append((x, f"Theorem 2 bound{suffix}", p, b, th.sse_hat))
    return recs, {}


def _ksweep(spec: ExperimentSpec, p: int):
    """fig8: deterministic NSE(K) curve over the placeable pool plus a
    sampled cross-check curve at a tractable array size."""
    [(pool, cfg, sol)] = _floor_counts(spec, p, [spec.system.M])
    recs = [(float(K), "Theorem 2 bound NSE", p, 0, float(v))
            for K, v in zip(sol.K_values, sol.nse_curve) if math.isfinite(v)]
    mc_M = cfg.M if cfg.M <= _MC_KSWEEP_CAP else 196
    K_grid = sorted({K for K in spec.experiment.sweep_values if K <= pool.K} | {sol.K_opt})
    [nse] = _sampled_nse(spec, pool, p, [(dataclasses.replace(cfg, M=mc_M), K_grid)])
    recs += [(float(K), "Monte Carlo NSE", p, b, nse_b[K])
             for b, nse_b in enumerate(nse) for K in K_grid]
    extras = {"pool": pool.K, "K_opt": sol.K_opt, "nse_opt": sol.nse_opt, "mc_M": mc_M,
              "K_grid": list(K_grid), "det_curve": [float(v) for v in sol.nse_curve]}
    return recs, extras


def _nse_vs_m(spec: ExperimentSpec, p: int):
    """fig9: NSE versus array size under three admission policies: the
    deterministic optimum, its sampled value, and fixed K=20.

    The floor solutions of every array size come first; then one
    ``_sampled_nse`` call samples both policies at every array size, so
    each unit is drawn once per block for the whole sweep and its kernel
    built once per array size for the larger count. Records run per array
    size: the bound, every block of the optimized-K policy, then every
    block of K=20."""
    frames = list(_floor_counts(spec, p, spec.experiment.sweep_values))
    pool = frames[0][0]
    policies = [((sol.K_opt, "Monte Carlo NSE at optimized K"),
                 (min(20, pool.K), "Monte Carlo NSE at K=20")) for _, _, sol in frames]
    points = [(cfg, sorted({K for K, _ in pol})) for (_, cfg, _), pol in zip(frames, policies)]
    recs = []
    for (_, cfg, sol), pol, nse in zip(frames, policies, _sampled_nse(spec, pool, p, points)):
        recs.append((float(cfg.M), "Theorem 2 bound NSE at optimized K", p, 0, sol.nse_opt))
        for K, label in pol:
            recs += [(float(cfg.M), label, p, b, nse_b[K]) for b, nse_b in enumerate(nse)]
    return recs, {"pool": pool.K, "K_opt": {cfg.M: sol.K_opt for _, cfg, sol in frames}}


def _oracle_entry(samples, closed: float) -> dict:
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    z = (mean - closed) / stderr if stderr > 0 else 0.0
    rel = abs(closed - mean) / abs(mean) if mean != 0 else math.inf
    return {"closed": closed, "mc_mean": mean, "mc_stderr": stderr, "z": z, "rel_err": rel}


def _oracle(spec: ExperimentSpec, p: int):
    """Sampling oracle: conditional means of X, Y, Z, I of unit (0, 0)
    versus their closed forms on one frozen channel-statistics draw per
    array size. The gating coins and scattered-path angles come from the
    same substream at every M, drawn before anything M-shaped, so the array
    sizes share one channel condition and the leakage error compares across M."""
    def moments(cfg, stats):
        def read(ch, w):
            kt = BlockKernel(stats, ch, w).terms(cfg.pilot_len)
            return kt.X, np.sum(stats.geom.rho_d * kt.Y, axis=(-2, -1)), kt.Z, kt.I
        return read
    recs, report = [], []
    for cfg, stats, rows in _refades(spec, p, 4, moments):  # X, Y total, Z, I
        M, t, M2, ms = cfg.M, cfg.pilot_len, float(cfg.M) ** 2, build_moment_set(stats)
        for r, (x, y, z, i) in enumerate(rows.T.tolist()):
            recs += [(float(M), "X", p, r, x), (float(M), "Y total", p, r, y),
                     (float(M), "Z", p, r, z), (float(M), "I over M^2", p, r, i / M2)]
        closed = (ms.mu_X(t), float(np.sum(ms.rho_d * ms.mu_Y_bar(t))), ms.mu_Z(t), ms.mu_I_bar(t))
        report.append({
            "M": M, "unit": [0, 0], "t": t,
            "kappa": [[float(v) for v in row] for row in stats.kappa],
            **{name: _oracle_entry(row, c)
               for name, row, c in zip(("X", "Y_total", "Z", "I"), rows, closed)},
            "I_over_M2": _oracle_entry(rows[3] / M2, closed[3] / M2),
        })
    return recs, {"oracle": report}


# ---------------------------------------------------------------------------
# experiment table


@dataclass(frozen=True)
class Experiment:
    """One row of ``EXPERIMENTS``: a figure's reduction, its sweep and its
    desk-scale preset."""

    reduce: Callable          # reduction (spec, placement) -> (records, extras)
    variable: str             # swept parameter: M, t (at the config's one M) or K
    grid: tuple               # default sweep values
    interference: str = "rician"  # default interference regime
    stride: int = 0           # theory curves every realizations // stride blocks (0: none)
    filters: tuple = ("imperfect CSI",)  # panel-0 SSE: sampled receive filters, in record order
    asymptotic: bool = False  # run_asymptotic accepts it
    preset: dict = field(default_factory=dict)  # section.key changes to the reference run


EXPERIMENTS = {
    "fig4": Experiment(_se_variance, "M", (36, 144, 400, 900), asymptotic=True,
                       preset={"system.K": 20, "experiment.realizations": 500,
                               "experiment.placements": 10}),
    "fig5": Experiment(_panel0_sse, "M", (100, 400, 900), stride=8, asymptotic=True,
                       preset={"experiment.realizations": 24, "experiment.placements": 4}),
    "fig6": Experiment(_panel0_sse, "M", (100, 400, 900), "nlos_inter", stride=8,
                       asymptotic=True,
                       preset={"experiment.realizations": 24, "experiment.placements": 4}),
    "fig6b": Experiment(_panel0_sse, "M", (100, 400, 900), "nlos_inter", asymptotic=True,
                        filters=("imperfect CSI", "perfect CSI"),
                        preset={"experiment.realizations": 48, "experiment.placements": 4}),
    "fig7": Experiment(_panel0_sse, "t", (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 500),
                       stride=2, preset={"experiment.realizations": 24,
                                         "experiment.placements": 4,
                                         "experiment.theory_stride": 12}),
    # K values above a placement's pool are skipped at run time
    "fig8": Experiment(_ksweep, "K", (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40),
                       preset={"system.K": 20, "system.T": 50, "experiment.realizations": 8,
                               "experiment.placements": 12}),
    "fig9": Experiment(_nse_vs_m, "M", (100, 196, 400),
                       preset={"system.M": 400, "system.K": 20, "system.T": 50,
                               "experiment.realizations": 4, "experiment.placements": 3}),
    "oracle": Experiment(_oracle, "M", (16, 100),
                         preset={"system.M": 100, "system.K": 2, "system.N": 2, "system.P": 4,
                                 "experiment.realizations": 10000,
                                 "experiment.placements": 1,
                                 "layout.name": "line", "layout.d_x": 0.5}),
}


def _run(spec: ExperimentSpec, reduce, workers: int) -> ExperimentResult:
    """Map a reduction over placements; records are concatenated in
    placement order, so outputs do not depend on the worker count."""
    outs = _pmap(functools.partial(reduce, spec), range(spec.experiment.placements), workers)
    records = [RawRecord._make(rec) for recs, _ in outs for rec in recs]
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
    manifest (config echo, seed, content hash; strict JSON, ``null`` for a
    non-finite value). Bytes depend only on the result content, never on
    worker scheduling."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exp_id = result.spec.experiment.id
    files: list[Path] = []

    def write_csv(name, header, lines):
        path = out / name
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        files.append(path)

    # summarize sorts by (label, sweep value): each label's rows are one run
    for label, rows in itertools.groupby(result.summaries, key=lambda s: s.label):
        if "," in label:
            raise ValueError(f"curve label may not contain a comma: {label!r}")
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
        "seed": result.spec.system.seed,
        "config": result.spec.to_dict(),
        "config_hash": result.spec.content_hash(),
        "outputs": [f.name for f in files],
        "extras": result.extras,
    }
    mpath = out / f"{exp_id}_manifest.json"
    mpath.write_text(json_text(manifest) + "\n", encoding="utf-8")
    files.append(mpath)
    return files


# ---------------------------------------------------------------------------
# presets


def preset_run_config(experiment_id: str, seed: int = 0) -> RunConfig:
    """Desk-scale defaults per figure: the reference scenario (3 GHz,
    2L = 0.5 m, 0 dB pilot and 3 dB data targets, T = 500 or 50) with
    sample counts sized for a single workstation, changed by the dotted
    overrides of the id's ``EXPERIMENTS`` row."""
    row = _experiment(experiment_id)
    return RunConfig(
        system=SystemConfig(M=900, K=8, N=4, T=500, seed=seed),
        experiment=ExperimentConfig(id=experiment_id),
    ).with_overrides(row.preset)
