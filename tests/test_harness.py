"""Experiment engine: spec resolution, aggregation, runners, file output."""

import dataclasses
import inspect
import json
import math
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lis_uplink import (
    ConfigError,
    Deployment,
    ExperimentSpec,
    RawRecord,
    RunConfig,
    preset_run_config,
    run_asymptotic,
    run_experiment,
    summarize,
    write_outputs,
)
from lis_uplink import harness as hz
from lis_uplink import links, optimize
from lis_uplink.cli import main

import reference
from test_golden import CASES, SEED, _run_optimizer


def _rec(sweep, label, value, p=0, b=0):
    return RawRecord(sweep_value=sweep, label=label, placement=p,
                     realization=b, value=value)


def _row(summaries, label, sweep):
    hits = [s for s in summaries if s.label == label and s.sweep_value == float(sweep)]
    assert len(hits) == 1, f"expected one row for ({label!r}, {sweep})"
    return hits[0]


def _shrunk(exp_id, seed=0, *, sweep=None, realizations=None, placements=None,
            **system_kw):
    """Preset config cut down to test scale."""
    rc = preset_run_config(exp_id, seed=seed)
    exp_kw = {}
    if sweep is not None:
        exp_kw["sweep_values"] = tuple(sweep)
    if realizations is not None:
        exp_kw["realizations"] = realizations
    if placements is not None:
        exp_kw["placements"] = placements
    if exp_kw:
        rc = dataclasses.replace(rc, experiment=dataclasses.replace(rc.experiment, **exp_kw))
    if system_kw:
        rc = dataclasses.replace(rc, system=dataclasses.replace(rc.system, **system_kw))
    return rc


class TestSummarize:
    def test_group_stats_exact(self):
        records = [
            _rec(1.0, "b", 10.0, b=0),
            _rec(2.0, "a", 7.0),
            _rec(1.0, "a", 1.0, b=0),
            _rec(1.0, "a", 2.0, b=1),
            _rec(1.0, "b", 14.0, b=1),
            _rec(1.0, "a", 3.0, b=2),
            _rec(1.0, "a", 4.0, b=3),
        ]
        out = summarize(records)
        assert [(s.label, s.sweep_value) for s in out] == [
            ("a", 1.0), ("a", 2.0), ("b", 1.0)]

        a1 = _row(out, "a", 1.0)
        assert a1.count == 4
        assert a1.mean == 2.5
        assert math.isclose(a1.variance, 5.0 / 3.0, rel_tol=1e-15)
        assert math.isclose(a1.stderr, math.sqrt(5.0 / 12.0), rel_tol=1e-15)

        b1 = _row(out, "b", 1.0)
        assert (b1.mean, b1.variance, b1.stderr, b1.count) == (12.0, 8.0, 2.0, 2)

    def test_single_sample_group_has_zero_spread(self):
        (s,) = summarize([_rec(2.0, "a", 7.0)])
        assert (s.variance, s.stderr, s.count, s.mean) == (0.0, 0.0, 1, 7.0)

    def test_input_order_does_not_matter(self):
        records = [_rec(float(v % 3), "c", float(v), b=v) for v in range(12)]
        assert summarize(records) == summarize(list(reversed(records)))

    def test_empty(self):
        assert summarize([]) == []


class TestSpecResolution:
    @pytest.mark.parametrize("exp_id", list(hz.EXPERIMENTS))
    def test_defaults_fill_empty_sweep(self, exp_id):
        spec = ExperimentSpec.from_run_config(preset_run_config(exp_id))
        assert spec.experiment.sweep_values == hz.EXPERIMENTS[exp_id].grid
        expect_regime = "nlos_inter" if exp_id in ("fig6", "fig6b") else "rician"
        assert spec.experiment.interference == expect_regime

    def test_explicit_interference_wins_over_id_default(self):
        rc = preset_run_config("fig6")
        rc = dataclasses.replace(
            rc, experiment=dataclasses.replace(rc.experiment, interference="rician"))
        spec = ExperimentSpec.from_run_config(rc)
        assert spec.experiment.interference == "rician"

    def test_custom_sweep_values_kept(self):
        rc = _shrunk("fig5", sweep=(16.0, 36.0))
        spec = ExperimentSpec.from_run_config(rc)
        assert spec.experiment.sweep_values == (16, 36)
        assert all(type(v) is int for v in spec.experiment.sweep_values)

    def test_custom_device_count_grid_kept(self):
        rc = preset_run_config("fig8")
        rc = dataclasses.replace(
            rc,
            experiment=dataclasses.replace(rc.experiment, sweep_values=(2.0, 4.0)),
        )
        spec = ExperimentSpec.from_run_config(rc)
        assert spec.experiment.sweep_values == (2, 4)

    def test_theory_stride_resolved_per_experiment(self):
        def stride(exp_id, **exp_kw):
            rc = preset_run_config(exp_id)
            rc = dataclasses.replace(rc, experiment=dataclasses.replace(rc.experiment, **exp_kw))
            return ExperimentSpec.from_run_config(rc).experiment.theory_stride

        assert stride("fig5", realizations=24) == 3
        assert stride("fig6", realizations=5) == 1
        assert stride("fig7", realizations=24, theory_stride=0) == 12
        assert stride("fig7", theory_stride=5) == 5
        assert stride("fig4") == 0  # no theory curves

    def test_pilot_sweep_bounds_enforced(self):
        rc = preset_run_config("fig7")
        rc = dataclasses.replace(
            rc,
            experiment=dataclasses.replace(rc.experiment, sweep_values=(4.0, 501.0)),
        )
        with pytest.raises(ConfigError, match=r"\[8, 500\]") as err:
            ExperimentSpec.from_run_config(rc)
        assert err.value.key == "experiment.sweep_values"
        # the bounds are [K, T] whatever system.t holds: fig7 sweeps t itself
        rc = preset_run_config("fig7").with_overrides({"system.t": 16})
        assert ExperimentSpec.from_run_config(rc).experiment.sweep_values[:2] == (8, 12)
        with pytest.raises(ConfigError, match=r"\[8, 500\], got \[7\]") as err:
            ExperimentSpec.from_run_config(rc.with_overrides({"experiment.sweep_values": [7, 16]}))
        assert err.value.key == "experiment.sweep_values"

    def test_resolution_is_idempotent(self):
        spec = ExperimentSpec.from_run_config(preset_run_config("fig6", seed=9))
        again = ExperimentSpec.from_run_config(spec)
        assert again == spec
        assert spec.system.seed == 9


class TestResolveWorkers:
    def test_default_is_serial(self):
        for runner in (hz.run_experiment, hz.run_asymptotic):
            assert inspect.signature(runner).parameters["workers"].default == 1

    def test_values_clamped_to_one(self):
        # counts below one run serially (a lambda would not survive a pool)
        for workers in (0, -4):
            assert hz._pmap(lambda x: x + 1, [1, 2, 3], workers) == [2, 3, 4]

    def test_serial_map_paths(self):
        assert hz._pmap(lambda x: x + 1, [1, 2, 3], 1) == [2, 3, 4]
        # a single task never spawns a pool (a lambda would not survive one)
        assert hz._pmap(lambda x: x * 2, [5], 8) == [10]


class TestPanelZeroSlice:
    @pytest.mark.parametrize("regime", ["rician", "nlos_inter"])
    def test_panel_cut_of_stats_equals_twin_world_stats(self, quad_world, regime):
        """The single-LIS twin's statistics, built over panel 0 under an
        N = 1 config from the panel-0 slice of the draw, are the multi-LIS
        unit's statistics cut to panel 0, bit for bit and as views."""
        dep, cfg = quad_world
        twin_dep, twin_cfg = reference.panel(dep, 0), dataclasses.replace(cfg, N=1)
        spec = SimpleNamespace(system=SimpleNamespace(seed=0),
                               experiment=SimpleNamespace(interference=regime))
        for k in range(cfg.K):
            [(stats, draw)] = hz._unit_blocks(spec, links.panel_view(dep, cfg, 0), 0, [0], k)
            cut = links.slice_stats(stats, N=1)
            one = dataclasses.replace(draw, coins=draw.coins[:1], angles=draw.angles[:1],
                                      g=draw.g[:1])
            twin_geom = links.build_unit_geometry(links.panel_view(twin_dep, twin_cfg, 0), k)
            want = links.make_unit_stats(twin_geom, one, twin_cfg, regime)
            for obj, ref in ((cut, want), (cut.geom, want.geom), (cut.roots, want.roots)):
                for f in dataclasses.fields(obj):
                    a, b = getattr(obj, f.name), getattr(ref, f.name)
                    if not dataclasses.is_dataclass(a):
                        assert np.array_equal(a, b), f.name
            assert np.shares_memory(cut.hbar, stats.hbar)
            assert np.shares_memory(cut.roots.ramp_v, stats.roots.ramp_v)
        with pytest.raises(ValueError, match="panel"):
            geom = links.build_unit_geometry(links.panel_view(dep, cfg, 1), 0)
            links.slice_stats(links.make_unit_stats(geom, draw, cfg), N=1)

    def test_device_prefix_keeps_every_panel(self, quad_world, monkeypatch):
        """``_unit_blocks`` draws block b of unit (n, k) from stream address
        (seed, DOMAIN_BLOCK, p, b, n, k) in the config's device shape and
        cuts it to the deployment's first K devices per panel (views),
        every panel and the per-antenna noise kept."""
        dep, cfg = quad_world
        spec = SimpleNamespace(system=SimpleNamespace(seed=5),
                               experiment=SimpleNamespace(interference="rician"))
        drawn, draw_unit_block = [], hz.draw_unit_block

        def recording(*args):
            drawn.append(draw_unit_block(*args))
            return drawn[-1]

        monkeypatch.setattr(hz, "draw_unit_block", recording)
        p, n, k = 1, 3, 0
        blocks = list(hz._unit_blocks(spec, links.panel_view(dep.prefix(1), cfg, n), p, [2, 0], k))
        assert len(drawn) == len(blocks) == 2
        for b, (stats, cut), draw in zip((2, 0), blocks, drawn):
            want = draw_unit_block(links.stream(5, links.DOMAIN_BLOCK, p, b, n, k),
                                   cfg.N, cfg.K, cfg.P, cfg.M)
            for name in ("coins", "angles", "g", "w"):
                assert np.array_equal(getattr(draw, name), getattr(want, name)), name
            assert cut.coins.shape == (cfg.N, 1) and cut.angles.shape == (cfg.N, 1, cfg.P, 2)
            assert np.array_equal(cut.g, draw.g[:, :1])
            assert np.shares_memory(cut.g, draw.g)
            assert cut.w is draw.w
            assert stats.hbar.shape == (cfg.N, 1, cfg.M)


class TestAdmittedPrefix:
    """fig8 and fig9 sample on the admitted devices of the pool only: the
    first max(K_grid), or max(K_opt, min(20, pool))."""

    @pytest.mark.parametrize("exp_id, overrides", [
        ("fig9", {"experiment.sweep_values": [16, 36]}),
        ("fig8", {"system.M": 16, "experiment.sweep_values": [1, 2, 4]}),
    ])
    def test_prefix_world_equals_whole_pool_world(self, exp_id, overrides, monkeypatch):
        rc = preset_run_config(exp_id, seed=2).with_overrides({
            **overrides, "placement.pool_size": 24, "experiment.realizations": 2,
            "experiment.placements": 1})
        shapes = []
        build = hz.build_unit_geometry

        def recording(*args):
            geom = build(*args)
            shapes.append(geom.hlos.shape)
            return geom

        # the floor table holds its own binding
        monkeypatch.setattr(hz, "build_unit_geometry", recording)
        got = run_experiment(rc)
        extras = got.extras["placements"][0]
        pool = extras["pool"]
        if exp_id == "fig9":
            admitted = {M: max(K, min(20, pool)) for M, K in extras["K_opt"].items()}
        else:
            admitted = {16: max(extras["K_grid"])}
        assert all(K < pool for K in admitted.values()), (admitted, pool)
        assert shapes and all(shape == (4, admitted[shape[2]], shape[2]) for shape in shapes)

        # the same run with no prefix cut: every unit built over the whole pool
        monkeypatch.setattr(Deployment, "prefix", lambda dep, K: dep)
        shapes.clear()
        whole = run_experiment(rc)
        assert {shape[1] for shape in shapes} == {pool}
        assert got.records == whole.records
        assert got.extras == whole.extras


class _Recorded:
    """A generator that appends its state to `states` after every normal
    draw, which is where a refade row's stream ends."""

    def __init__(self, gen, states):
        self.gen, self.states = gen, states

    def standard_normal(self, *args, **kwargs):
        out = self.gen.standard_normal(*args, **kwargs)
        self.states.append(self.gen.bit_generator.state)
        return out


class TestRefadeChunks:
    """fig4 and the oracle draw R fresh (g, w) pairs on one frozen block,
    each from its own stream in one normal draw, and build one kernel per
    chunk of them, not one per draw. The R streams are hashed in one pass
    and opened on one generator per (unit, sweep point). fig4 builds two
    kernels per chunk on one sample of its channels: the multi-LIS unit's
    and its single-LIS twin's, the panel-0 cut."""

    @given(N=st.integers(1, 3), K=st.integers(1, 3), P=st.integers(1, 4),
           M=st.integers(1, 40), R=st.integers(1, 12), draws=st.integers(0, 5),
           spare=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
    def test_chunks_equal_per_realization_oracle(self, N, K, P, M, R, draws, spare, seed):
        # a budget of `draws` draws' channels plus a spare fraction of one
        budget = 16 * N * K * M * draws + int(16 * N * K * M * spare)
        spec = SimpleNamespace(system=SimpleNamespace(seed=seed))
        cfg = SimpleNamespace(N=N, K=K, P=P, M=M)
        p, n, k = 2, N - 1, K - 1
        ends, gens, opened = [], [], []
        iterate, unit_rng = links.Substreams.__iter__, links.stream

        def recording_rows(streams):
            for gen in iterate(streams):
                gens.append(gen)
                yield _Recorded(gen, ends)

        def recording_rng(*args):
            opened.append(unit_rng(*args))
            return opened[-1]

        with mock.patch.object(hz, "_REFADE_CHUNK_BYTES", budget), \
                mock.patch.object(links.Substreams, "__iter__", recording_rows), \
                mock.patch.object(hz, "stream", recording_rng), \
                mock.patch.object(reference, "stream", recording_rng):
            chunks = list(hz._refade_chunks(spec, cfg, p, R, n, k))
            assert opened == []
            want = [reference.refades(spec, cfg, p, r, n, k) for r in range(R)]
        assert len(opened) == len(gens) == len(ends) == R
        assert len({id(gen) for gen in gens}) == 1
        assert [(rs.start, rs.stop) for rs, _, _ in chunks] == [
            (a, min(a + max(1, draws), R)) for a in range(0, R, max(1, draws))]
        g = np.concatenate([g for _, g, _ in chunks])
        w = np.concatenate([w for _, _, w in chunks])
        assert g.shape == (R, N, K, P) and w.shape == (R, M)
        assert np.array_equal(g.view(np.uint64), np.stack([g for g, _ in want]).view(np.uint64))
        assert np.array_equal(w.view(np.uint64), np.stack([w for _, w in want]).view(np.uint64))
        # every realization's stream is left where the two-call draws leave it
        for end, rng in zip(ends, opened):
            assert end == rng.bit_generator.state

    @pytest.mark.parametrize("exp_id, systems", [("oracle", 1), ("fig4", 2)])
    def test_one_kernel_per_chunk_and_one_refade_per_realization(self, exp_id, systems,
                                                                  monkeypatch):
        R, Ms = 10, (16, 36)
        rc = preset_run_config(exp_id, seed=3).with_overrides({
            "experiment.sweep_values": list(Ms), "experiment.realizations": R,
            "experiment.placements": 1})
        N, K = rc.system.N, rc.system.K
        counts, gens = {}, []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        iterate = links.Substreams.__iter__

        def recording_rows(streams):
            for gen in iterate(streams):
                gens.append(gen)
                yield gen

        monkeypatch.setattr(hz, "BlockKernel", counting("kernels", hz.BlockKernel))
        monkeypatch.setattr(hz, "stream", counting("streams", hz.stream))
        monkeypatch.setattr(hz, "sample_unit_channels",
                            counting("channels", hz.sample_unit_channels))
        monkeypatch.setattr(hz, "stream_words", counting("hashes", hz.stream_words))
        monkeypatch.setattr(links.Substreams, "__iter__", recording_rows)
        records = []
        # the default budget, then one that splits M = 16 into chunks of 3
        # draws and leaves one draw per chunk at M = 36
        for budget in (hz._REFADE_CHUNK_BYTES, 3 * 16 * N * K * 16):
            monkeypatch.setattr(hz, "_REFADE_CHUNK_BYTES", budget)
            counts.update(kernels=0, channels=0, streams=0, hashes=0)
            gens.clear()
            records.append(run_experiment(rc).records)
            chunk = {M: max(1, budget // (16 * N * K * M)) for M in Ms}
            chunks = sum(math.ceil(R / chunk[M]) for M in Ms)
            # one sample of each chunk's channels, and one kernel on it per
            # system (fig4: the twin's on its panel-0 cut); each M opens the
            # frozen block's stream and hashes its R refade streams once,
            # whatever the chunking
            assert counts == {"kernels": systems * chunks, "channels": chunks,
                              "streams": len(Ms), "hashes": len(Ms)}
            # one generator per M, reseeded for each of its realizations
            assert len(gens) == R * len(Ms) and len({id(gen) for gen in gens}) == len(Ms)
        assert records[0] == records[1]


class TestOneKernelPerUnit:
    """fig8 and fig9 draw each (unit, block) once and build one kernel on it
    for the largest admitted count of the block's K grid; every smaller
    count is read off that kernel."""

    @pytest.mark.parametrize("exp_id, overrides", [
        ("fig8", {"experiment.sweep_values": [1, 2, 4]}),
        ("fig9", {"experiment.sweep_values": [16, 36]}),
    ])
    def test_one_draw_and_one_kernel_per_unit_and_block(self, exp_id, overrides, monkeypatch):
        R = 2
        rc = preset_run_config(exp_id, seed=2).with_overrides({
            **overrides, "system.M": 16, "placement.pool_size": 24,
            "experiment.realizations": R, "experiment.placements": 1})
        N = rc.system.N
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(hz, "BlockKernel", counting("kernels", hz.BlockKernel))
        monkeypatch.setattr(hz, "draw_unit_block", counting("draws", hz.draw_unit_block))
        counts.update(kernels=0, draws=0)
        got = run_experiment(rc)
        extras = got.extras["placements"][0]
        if exp_id == "fig9":
            pool = extras["pool"]
            grids = [{K, min(20, pool)} for K in extras["K_opt"].values()]
            # one array size admits two counts, so its units serve both
            assert any(len(grid) == 2 for grid in grids), (extras, pool)
        else:
            grids = [extras["K_grid"]]
        units = sum(R * N * max(grid) for grid in grids)
        assert counts == {"kernels": units, "draws": units}

        # the records of drawing and building every unit again per count
        monkeypatch.setattr(hz, "_sampled_nse", reference.sampled_nse_per_count)
        assert run_experiment(rc).records == got.records


class TestUnitMajorGeometry:
    """Reductions walk units outside blocks: a sweep point's one
    (deployment, config) pair builds a unit's geometry once for all its
    blocks, which is dropped before the next unit, so no more than two
    units' geometry is ever alive."""

    @pytest.mark.parametrize("case", ["fig5", "fig8", "fig9"])
    def test_one_unit_geometry_alive_per_world(self, case, monkeypatch):
        _, exp_id, overrides = CASES[case]
        rc = preset_run_config(exp_id, seed=SEED).with_overrides(overrides)
        live, peak = [], [0]
        build = hz.build_unit_geometry

        def recording(*args):
            geom = build(*args)
            live.append(weakref.ref(geom))
            peak[0] = max(peak[0], sum(ref() is not None for ref in live))
            return geom

        # the floor table holds its own binding
        monkeypatch.setattr(hz, "build_unit_geometry", recording)
        got = run_experiment(rc)
        N, K = rc.system.N, rc.system.K
        Ms = rc.experiment.sweep_values
        points = 1  # the single-LIS twin has no deployment and config of its own
        if exp_id == "fig5":
            # panel 0's units
            builds = rc.experiment.placements * len(Ms) * K
        else:
            builds = 0
            for extras in got.extras["placements"]:
                if exp_id == "fig8":
                    builds += N * max(extras["K_grid"])
                else:
                    builds += sum(N * max(K_opt, min(20, extras["pool"]))
                                  for K_opt in extras["K_opt"].values())
        assert len(live) == builds
        # the unit being built, plus the previous unit's, which the
        # reduction's loop variables still hold
        assert peak[0] <= 2 * points, (peak[0], points)

    @pytest.mark.parametrize("case", ["fig5", "fig8", "fig9"])
    def test_one_panel_view_per_sweep_point_and_panel(self, case, monkeypatch):
        """The sampler builds one ``panel_view`` per (placement, sweep
        point, panel it walks), every unit of the panel is built from it,
        and the transmit SNRs are formed once per view, the floor table's
        included, not once per unit."""
        _, exp_id, overrides = CASES[case]
        rc = preset_run_config(exp_id, seed=SEED).with_overrides(overrides)
        counts = dict.fromkeys(("sampler", "table", "snrs", "units"), 0)
        latest = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                out = fn(*args, **kwargs)
                if name == "sampler":
                    latest[:] = [out]
                return out
            return wrapper

        build = hz.build_unit_geometry

        def unit(view, k):
            # each unit is built from the view of its panel made last
            counts["units"] += 1
            assert view is latest[0]
            return build(view, k)

        monkeypatch.setattr(hz, "panel_view", counting("sampler", hz.panel_view))
        monkeypatch.setattr(optimize, "panel_view", counting("table", optimize.panel_view))
        monkeypatch.setattr(links, "transmit_snrs", counting("snrs", links.transmit_snrs))
        monkeypatch.setattr(hz, "build_unit_geometry", unit)
        run_experiment(rc)
        exp, N = rc.experiment, rc.system.N
        if exp_id == "fig5":
            sampler, table = exp.placements * len(exp.sweep_values), 0  # panel 0 alone
        elif exp_id == "fig8":
            sampler = table = exp.placements * N  # one sampled array size
        else:
            sampler = table = exp.placements * len(exp.sweep_values) * N
        assert (counts["sampler"], counts["table"]) == (sampler, table)
        assert counts["snrs"] == sampler + table
        assert counts["units"] > sampler

    @pytest.mark.parametrize("case", ["asymptotic-fig5", "fig5", "fig7"])
    def test_theory_blocks_keep_scalars_not_moment_sets(self, case, monkeypatch):
        """Theory blocks keep each moment set's ``sse_terms`` and drop the
        set, so the live sets do not grow with blocks, units or sweep points."""
        runner, exp_id, overrides = CASES[case]
        rc = preset_run_config(exp_id, seed=SEED).with_overrides(overrides)
        live, peak = [], [0]
        build = hz.build_moment_set

        def recording(stats):
            ms = build(stats)
            live.append(weakref.ref(ms))
            peak[0] = max(peak[0], sum(ref() is not None for ref in live))
            return ms

        monkeypatch.setattr(hz, "build_moment_set", recording)
        runner(rc)
        # every case builds sets on at least two theory blocks
        assert len(live) >= 2 * rc.system.K
        # the set being built, plus the previous one a loop variable holds
        assert peak[0] <= 2, peak[0]


class TestSingleLisTwin:
    """fig4, fig5, fig6 and fig6b read the single-LIS twin off the
    multi-LIS unit: its kernel from panel 0's rows of the unit's channels,
    its moment sets from the statistics cut to panel 0."""

    @pytest.mark.parametrize("case, oracle", [
        ("fig4", reference.se_variance), ("fig5", reference.panel0_sse),
        ("fig6", reference.panel0_sse), ("fig6b", reference.csi)])
    def test_records_equal_twin_world_oracle(self, case, oracle):
        _, exp_id, overrides = CASES[case]
        rc = preset_run_config(exp_id, seed=SEED).with_overrides(overrides)
        got = run_experiment(rc)
        want = hz._run(ExperimentSpec.from_run_config(rc), oracle, workers=1)
        assert any("single-LIS" in r.label for r in got.records)
        assert [tuple(r) for r in got.records] == [tuple(r) for r in want.records]
        assert got.extras == want.extras

    @pytest.mark.parametrize("case, systems, scale", [
        ("fig5", 2, (32, 128)), ("fig6", 2, (16, 64)), ("fig6b", 2, (32, 96)),
        ("fig7", 1, (8, 32))], ids=["fig5", "fig6", "fig6b", "fig7"])
    def test_work_counts(self, case, systems, scale, monkeypatch):
        """One geometry per unit; one draw, one set of statistics and one
        sample of the channels per (unit, block); one kernel per system on
        that sample: the unit's and, on fig5, fig6 and fig6b, its single-LIS
        twin's, the panel-0 cut."""
        _, exp_id, overrides = CASES[case]
        rc = preset_run_config(exp_id, seed=SEED).with_overrides(overrides)
        counts = dict.fromkeys(("geometry", "stats", "channels", "kernels"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(hz, "build_unit_geometry",
                            counting("geometry", hz.build_unit_geometry))
        monkeypatch.setattr(hz, "make_unit_stats", counting("stats", hz.make_unit_stats))
        monkeypatch.setattr(hz, "sample_unit_channels",
                            counting("channels", hz.sample_unit_channels))
        monkeypatch.setattr(hz, "BlockKernel", counting("kernels", hz.BlockKernel))
        run_experiment(rc)
        exp, K = rc.experiment, rc.system.K
        points = 1 if exp_id == "fig7" else len(exp.sweep_values)  # fig7 sweeps t
        units = exp.placements * points * K
        blocks = units * exp.realizations
        assert counts == {"geometry": units, "stats": blocks, "channels": blocks,
                          "kernels": systems * blocks}
        assert (units, blocks) == scale

    def test_analytic_runners_sample_no_channels(self, monkeypatch, tmp_path, capsys):
        """``run_asymptotic`` and ``lis-sim optimize-t`` read moment sets
        alone, and ``lis-sim optimize-k`` the floor table alone: they sample
        no channels and build no kernel."""
        counts = {"channels": 0, "kernels": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (hz, links):
            monkeypatch.setattr(mod, "sample_unit_channels",
                                counting("channels", mod.sample_unit_channels))
            monkeypatch.setattr(mod, "BlockKernel", counting("kernels", mod.BlockKernel))
        runner, exp_id, overrides = CASES["asymptotic-fig5"]
        assert runner is run_asymptotic
        assert runner(preset_run_config(exp_id, seed=SEED).with_overrides(overrides)).records
        for case in ("optimize-t-rician", "optimize-k-rician", "optimize-k-nlos_inter"):
            _run_optimizer(case, tmp_path / case)
        capsys.readouterr()
        assert counts == {"channels": 0, "kernels": 0}

    def test_fig6b_is_fig6_plus_exact_filter_curves(self):
        """fig6b and fig6 share the panel-0 reduction and read the same
        streams: with a theory stride set, fig6b's records less its
        exact-filter ones are fig6's, in order."""
        _, _, overrides = CASES["fig6"]
        assert overrides["experiment.theory_stride"] == 2
        got, want = (run_experiment(preset_run_config(exp_id, seed=SEED).with_overrides(overrides))
                     for exp_id in ("fig6b", "fig6"))
        assert any(r.label.endswith(" perfect CSI") for r in got.records)
        assert any(r.label.startswith("Theorem") for r in got.records)
        assert ([r for r in got.records if not r.label.endswith(" perfect CSI")]
                == want.records)


class TestRunExperiment:
    def test_se_variance_smoke(self):
        rc = _shrunk("fig4", seed=3, sweep=(16.0, 64.0), realizations=40,
                     placements=2)
        result = run_experiment(rc)
        labels = {s.label for s in result.summaries}
        assert labels == {"multi-LIS SE variance", "single-LIS SE variance"}
        for label in labels:
            for M in (16.0, 64.0):
                # one within-drop variance record per placement
                row = _row(result.summaries, label, M)
                assert row.count == 2
                assert math.isfinite(row.mean) and row.mean > 0.0
        for rec in result.records:
            assert rec.realization == 0
            assert rec.value >= 0.0
        assert len(result.extras["placements"]) == 2
        for per_placement in result.extras["placements"]:
            for label in labels:
                per_m = per_placement["mean_se"][label]
                assert set(per_m) == {16, 64}
                assert all(math.isfinite(v) and v > 0.0 for v in per_m.values())

    def test_se_variance_hardening_trend(self):
        # SE fluctuations around the drop-conditioned mean shrink as the
        # array grows; the aggregate interference concentrates.
        rc = _shrunk("fig4", seed=0, sweep=(36.0, 144.0, 400.0, 900.0),
                     realizations=250, placements=6)
        result = run_experiment(rc)
        for label, floor in (("multi-LIS SE variance", 3.0),
                             ("single-LIS SE variance", 1.5)):
            curve = {M: _row(result.summaries, label, M).mean
                     for M in (36.0, 144.0, 400.0, 900.0)}
            assert curve[400.0] < curve[36.0]
            assert curve[900.0] < curve[36.0]
            assert curve[36.0] / curve[900.0] >= floor

    def test_runs_are_reproducible(self):
        rc = _shrunk("fig4", seed=5, sweep=(25.0,), realizations=4, placements=1)
        first = run_experiment(rc)
        second = run_experiment(rc)
        assert first.records == second.records
        assert first.summaries == second.summaries

    def test_asymptotic_curves_grow_with_array_size(self):
        rc = _shrunk("fig5", seed=1, sweep=(16.0, 36.0), realizations=3,
                     placements=1)
        result = run_asymptotic(rc)
        labels = {s.label for s in result.summaries}
        assert "Theorem 1" in labels
        lo = _row(result.summaries, "Theorem 1", 16.0)
        hi = _row(result.summaries, "Theorem 1", 36.0)
        assert 0.0 < lo.mean < hi.mean

    def test_oracle_report_structure(self):
        rc = _shrunk("oracle", seed=2, sweep=(16.0,), realizations=40,
                     placements=1)
        result = run_experiment(rc)
        assert {s.label for s in result.summaries} == {
            "X", "Y total", "Z", "I over M^2"}
        assert _row(result.summaries, "X", 16.0).count == 40

        (report,) = result.extras["placements"][0]["oracle"]
        assert report["M"] == 16 and report["unit"] == [0, 0]
        assert np.asarray(report["kappa"]).shape == (2, 2)
        for term in ("X", "Y_total", "Z", "I", "I_over_M2"):
            entry = report[term]
            assert set(entry) == {"closed", "mc_mean", "mc_stderr", "z", "rel_err"}
            assert math.isfinite(entry["mc_mean"])
            assert entry["mc_stderr"] >= 0.0
        # the report and the summaries reduce the same sample stream
        assert math.isclose(report["X"]["mc_mean"],
                            _row(result.summaries, "X", 16.0).mean,
                            rel_tol=1e-12)
        assert abs(report["X"]["z"]) < 6.0
        assert abs(report["Z"]["z"]) < 6.0

    def test_asymptotic_runner_puts_theory_on_every_block(self):
        rc = _shrunk("fig5", sweep=(16,), realizations=3, placements=1)
        assert run_asymptotic(rc).spec.experiment.theory_stride == 1

    def test_runner_wrappers_check_experiment_id(self):
        with pytest.raises(ConfigError, match="runner expects") as err:
            run_asymptotic(_shrunk("oracle", realizations=2))
        assert err.value.key == "experiment.id"

    def test_oracle_needs_two_realizations(self):
        rc = _shrunk("oracle", sweep=(16.0,), realizations=1)
        with pytest.raises(ConfigError, match="at least 2") as err:
            ExperimentSpec.from_run_config(rc)
        assert err.value.key == "experiment.realizations"


class TestOptimizerObjectives:
    """The optimizers read the figures' engine paths: the pilot objective is
    fig7's Theorem 1 curve of placement 0, block 0, and ``optimize-k``
    writes fig8's deterministic device-count solution of placement 0."""

    def test_pilot_objective_is_fig7_theorem1_of_block_0(self):
        ts = (3, 5, 9, 20, 41, 60)
        rc = preset_run_config("fig7", seed=3).with_overrides({
            "system.M": 36, "system.K": 3, "system.T": 60,
            "experiment.sweep_values": list(ts), "experiment.theory_stride": 1,
            "experiment.realizations": 2, "experiment.placements": 2})
        theory = {r.sweep_value: r.value for r in run_experiment(rc).records
                  if r.label == "Theorem 1" and (r.placement, r.realization) == (0, 0)}
        objective = hz.pilot_objective(rc)
        assert theory == {float(t): objective(t) for t in ts}

    def test_optimize_k_writes_fig8_solution_of_placement_0(self, tmp_path, capsys):
        rc = preset_run_config("fig8", seed=3).with_overrides({
            "system.M": 36, "system.T": 20, "placement.pool_size": 8,
            "experiment.realizations": 1, "experiment.placements": 2})
        # fig8 hands device_count its resolved spec, which must resolve to itself
        spec = ExperimentSpec.from_run_config(rc)
        assert hz._optimizer_spec(spec) == spec
        write_outputs(run_experiment(rc), tmp_path / "fig8")
        manifest = json.loads((tmp_path / "fig8" / "fig8_manifest.json").read_text(encoding="utf-8"))
        fig8 = manifest["extras"]["placements"][0]
        config = tmp_path / "fig8.json"
        config.write_text(json.dumps(rc.to_dict()), encoding="utf-8")
        assert main(["optimize-k", "--config", str(config), "--out", str(tmp_path / "k")]) == 0
        capsys.readouterr()
        got = json.loads((tmp_path / "k" / "optimize_k.json").read_text(encoding="utf-8"))
        assert {key: got[key] for key in ("K_opt", "nse_opt", "nse_curve", "pool")} == {
            "K_opt": fig8["K_opt"], "nse_opt": fig8["nse_opt"],
            "nse_curve": fig8["det_curve"], "pool": fig8["pool"]}


class TestPlacementRequests:
    """The device-count figures request their pool as ``place_devices``'s
    keyword ``K``, and every other placement passes ``K=None``: a tracer
    that reports realized over requested devices reads that keyword."""

    @pytest.mark.parametrize("case", ["fig9", "fig8", "fig5"])
    def test_pool_target_is_the_keyword_k(self, case, monkeypatch):
        _, exp_id, overrides = CASES[case]
        rc = preset_run_config(exp_id, seed=SEED).with_overrides(overrides)
        calls, place = [], hz.place_devices

        def recording(*args, **kwargs):
            calls.append((len(args), kwargs["K"]))
            return place(*args, **kwargs)

        monkeypatch.setattr(hz, "place_devices", recording)
        run_experiment(rc)
        pool = rc.placement.pool_target(rc.system.T)
        want = pool if case in ("fig8", "fig9") else None
        assert pool != rc.system.K
        assert calls == [(3, want)] * rc.experiment.placements


class TestWriteOutputs:
    @staticmethod
    def _result(tmp_records=None, raw=False, extras=None):
        rc = preset_run_config("fig5")
        if raw:
            rc = dataclasses.replace(
                rc, experiment=dataclasses.replace(rc.experiment, raw_records=True))
        spec = ExperimentSpec.from_run_config(rc)
        records = tmp_records if tmp_records is not None else [
            _rec(400.0, "Theorem 1", 1.0 / 3.0, p=0, b=0),
            _rec(100.0, "Theorem 1", 0.5, p=0, b=0),
            _rec(100.0, "multi-LIS imperfect CSI", 2.0, p=0, b=0),
            _rec(100.0, "multi-LIS imperfect CSI", 4.0, p=1, b=0),
        ]
        return hz.ExperimentResult(
            spec=spec, records=records, summaries=summarize(records),
            extras=extras if extras is not None else {})

    def test_one_csv_per_curve_with_sorted_rows(self, tmp_path):
        files = write_outputs(self._result(), tmp_path)
        names = [f.name for f in files]
        assert names == [
            "fig5_theorem-1.csv",
            "fig5_multi-lis-imperfect-csi.csv",
            "fig5_manifest.json",
        ]
        theory = (tmp_path / "fig5_theorem-1.csv").read_text().splitlines()
        assert theory[0] == "sweep_value,mean,variance,stderr,count,label"
        assert theory[1] == "100.0,0.5,0.0,0.0,1,Theorem 1"
        assert theory[2] == f"400.0,{1.0 / 3.0!r},0.0,0.0,1,Theorem 1"
        mc = (tmp_path / "fig5_multi-lis-imperfect-csi.csv").read_text().splitlines()
        assert mc[1] == "100.0,3.0,2.0,1.0,2,multi-LIS imperfect CSI"

    def test_manifest_contents(self, tmp_path):
        extras = {"placements": [{"gain": np.float64(1.5),
                                  "grid": np.arange(3)}]}
        result = self._result(extras=extras)
        files = write_outputs(result, tmp_path)
        manifest = json.loads((tmp_path / "fig5_manifest.json").read_text())
        assert set(manifest) == {
            "config", "config_hash", "experiment_id", "extras", "outputs", "seed",
            "sweep_variable"}
        assert manifest["experiment_id"] == "fig5"
        assert manifest["sweep_variable"] == "M"
        assert manifest["seed"] == 0
        rc = result.spec
        assert manifest["config"] == json.loads(json.dumps(rc.to_dict()))
        assert manifest["config_hash"] == rc.content_hash()
        assert manifest["outputs"] == [f.name for f in files[:-1]]
        assert manifest["extras"] == {"placements": [{"gain": 1.5, "grid": [0, 1, 2]}]}
        raw_text = (tmp_path / "fig5_manifest.json").read_text()
        assert raw_text.endswith("\n") and raw_text.startswith('{\n  "config"')

    def test_raw_records_csv_is_opt_in(self, tmp_path):
        files = write_outputs(self._result(), tmp_path / "no_raw")
        assert not any(f.name.endswith("_raw.csv") for f in files)

        files = write_outputs(self._result(raw=True), tmp_path / "raw")
        raw = next(f for f in files if f.name == "fig5_raw.csv")
        lines = raw.read_text().splitlines()
        assert lines[0] == "sweep_value,placement,realization,value,label"
        assert lines[1] == "400.0,0,0,0.3333333333333333,Theorem 1"
        assert len(lines) == 5

    def test_comma_in_label_rejected(self, tmp_path):
        result = self._result(tmp_records=[_rec(1.0, "a,b", 0.0)])
        with pytest.raises(ValueError, match="comma"):
            write_outputs(result, tmp_path)

    def test_label_slugs(self):
        assert hz._slug("Theorem 2 bound NSE") == "theorem-2-bound-nse"
        assert hz._slug("I over M^2") == "i-over-m-2"
        assert hz._slug("multi-LIS imperfect CSI") == "multi-lis-imperfect-csi"


class TestWorkerCountInvariance:
    # each task carries its reduction function across the process boundary
    CASES = {
        "fig4": (run_experiment, lambda: _shrunk(
            "fig4", seed=0, sweep=(16.0, 36.0), realizations=5, placements=3)),
        "fig9-pool": (run_experiment, lambda: _shrunk(
            "fig9", seed=1, sweep=(16.0,), realizations=2, placements=2,
        ).with_overrides({"placement.pool_size": 6})),
        "asymptotic": (run_asymptotic, lambda: _shrunk(
            "fig5", seed=2, sweep=(16.0,), realizations=2, placements=2)),
        "fig6b": (run_experiment, lambda: _shrunk(
            "fig6b", seed=4, sweep=(16.0,), realizations=2, placements=2)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_are_byte_identical_across_worker_counts(self, tmp_path, case):
        runner, make_rc = self.CASES[case]
        rc = make_rc()
        serial = runner(rc, workers=1)
        pooled = runner(rc, workers=2)
        assert serial.records == pooled.records

        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        f1 = write_outputs(serial, d1)
        f2 = write_outputs(pooled, d2)
        assert [f.name for f in f1] == [f.name for f in f2]
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes()


class TestPresets:
    @pytest.mark.parametrize("exp_id", list(hz.EXPERIMENTS))
    def test_every_preset_resolves(self, exp_id):
        rc = preset_run_config(exp_id, seed=7)
        assert rc.system.seed == 7
        assert RunConfig.from_dict(rc.to_dict()) == rc
        spec = ExperimentSpec.from_run_config(rc)
        assert spec.experiment.id == exp_id
        assert spec.experiment.sweep_values == hz.EXPERIMENTS[exp_id].grid
        assert RunConfig.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_reference_scales(self):
        base = preset_run_config("fig5")
        assert (base.system.M, base.system.K, base.system.N, base.system.T) == (
            900, 8, 4, 500)
        fig4 = preset_run_config("fig4")
        assert fig4.system.K == 20
        assert (fig4.experiment.realizations, fig4.experiment.placements) == (500, 10)
        fig8 = preset_run_config("fig8")
        assert (fig8.system.K, fig8.system.T) == (20, 50)
        fig9 = preset_run_config("fig9")
        assert (fig9.system.M, fig9.system.K, fig9.system.T) == (400, 20, 50)
        oracle = preset_run_config("oracle")
        assert (oracle.system.M, oracle.system.K, oracle.system.N) == (100, 2, 2)
        assert oracle.layout.name == "line" and oracle.layout.d_x == 0.5
        assert oracle.experiment.placements == 1

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment id") as err:
            preset_run_config("fig1")
        assert err.value.key == "experiment.id"

    @pytest.mark.parametrize("runner", [run_experiment, run_asymptotic])
    def test_unknown_id_rejected_before_placement(self, runner, monkeypatch):
        monkeypatch.setattr(hz, "place_devices", None)  # any placement would fail
        rc = RunConfig().with_overrides({"experiment.id": "fig1"})
        with pytest.raises(ConfigError, match="unknown experiment id") as err:
            runner(rc)
        assert err.value.key == "experiment.id"

    def test_optimizer_rejects_unknown_id(self, capsys):
        assert main(["optimize-t", "--set", "experiment.id=fig1"]) == 2
        assert capsys.readouterr().err.startswith("config error (experiment.id)")
