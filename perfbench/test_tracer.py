"""Self-test of the span tracer on tiny configs of the three workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py

For each workload shape it checks that span call counts equal the counts
the config implies, that traced summaries equal untraced ones, and that
every patched binding is restored afterwards, including after a raise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from lis_uplink import asymptotics, channel, harness, links, optimize  # noqa: E402
from lis_uplink.harness import preset_run_config, run_experiment  # noqa: E402
from measure import rows_match, summary_rows  # noqa: E402
from tracer import SPAN_NAMES, Tracer, leftover_wrappers  # noqa: E402

# bindings the tracer must reach: names imported into other modules
IMPORTED = (
    (harness, "make_unit_stats"), (harness, "build_moment_set"),
    (harness, "theorem1_sse"), (harness, "draw_unit_block"), (harness, "cgauss"),
    (harness, "stream"), (harness, "slice_stats"), (harness, "place_devices"),
    (harness, "expected_floor_table"), (harness, "optimal_num_devices"),
    (links, "root_matrix_from_angles"), (links, "cgauss"),
    (optimize, "build_unit_geometry"), (asymptotics, "stream"),
)


def _bindings():
    return {(mod.__name__, name): getattr(mod, name) for mod, name in IMPORTED} | {
        ("BlockKernel", "__init__"): links.BlockKernel.__dict__["__init__"],
        ("BlockKernel", "terms"): links.BlockKernel.__dict__["terms"],
        ("links", "build_unit_geometry"): links.build_unit_geometry,
        ("channel", "root_matrix_from_angles"): channel.root_matrix_from_angles,
    }


def _traced(rc):
    before = _bindings()
    plain = run_experiment(rc, workers=1)
    tracer = Tracer()
    with tracer.installed():
        assert all(_bindings()[key] is not fn for key, fn in before.items())
        traced = run_experiment(rc, workers=1)
    assert _bindings() == before
    assert leftover_wrappers() == []
    assert rows_match(summary_rows(traced), summary_rows(plain))
    calls = {name: span.calls for name, span in tracer.spans.items()}
    return calls, tracer, traced


def _expect(**counts):
    out = dict.fromkeys(SPAN_NAMES, 0)
    out["harness.summarize"] = 1
    out["scenario.place_devices"] = 1
    out.update({key if "." in key else key.replace("__", ".", 1): v for key, v in counts.items()})
    return out


def test_oracle_counts():
    R, Ms = 5, (16, 36)
    rc = preset_run_config("oracle", 3).with_overrides(
        {"experiment.realizations": R, "experiment.sweep_values": list(Ms)})
    calls, tracer, _ = _traced(rc)
    m = len(Ms)
    assert calls == _expect(
        links__stream=1 + m * (1 + R), channel__cgauss=m * (2 + 2 * R),
        links__build_unit_geometry=m, links__draw_unit_block=m,
        links__make_unit_stats=m, channel__root_matrix_from_angles=m,
        asymptotics__build_moment_set=m,
        **{"links.BlockKernel.__init__": m * R, "links.BlockKernel.terms": m * R},
    )
    assert tracer.pool_realized == tracer.pool_requested == 2


def test_ergodic_counts():
    R, K, Ms = 2, 2, (16,)
    rc = preset_run_config("fig5", 4).with_overrides({
        "system.K": K, "experiment.realizations": R, "experiment.placements": 1,
        "experiment.theory_stride": 1, "experiment.sweep_values": list(Ms)})
    calls, tracer, _ = _traced(rc)
    units = len(Ms) * R * K  # every (M, block, unit), multi and single twin
    assert calls == _expect(
        links__build_unit_geometry=2 * K * len(Ms), links__stream=1 + units,
        links__draw_unit_block=units, channel__cgauss=2 * units,
        links__make_unit_stats=2 * units, channel__root_matrix_from_angles=2 * units,
        asymptotics__build_moment_set=2 * units, asymptotics__theorem1_sse=2 * len(Ms) * R,
        **{"links.BlockKernel.__init__": 2 * units, "links.BlockKernel.terms": 2 * units},
    )
    spans = tracer.metrics()
    assert spans["links.make_unit_stats.total_s"] >= spans["links.make_unit_stats.self_s"] > 0


def test_kpool_counts():
    R, N, pool, Ms = 1, 4, 6, (16, 36)
    rc = preset_run_config("fig9", 5).with_overrides({
        "experiment.realizations": R, "experiment.placements": 1,
        "placement.pool_size": pool, "experiment.sweep_values": list(Ms)})
    calls, tracer, result = _traced(rc)
    extras = result.extras["placements"][0]
    assert extras["pool"] == pool
    k_pairs = [(extras["K_opt"][M], min(20, pool)) for M in Ms]
    units = sum(R * N * (k_opt + k_fix) for k_opt, k_fix in k_pairs)
    assert calls == _expect(
        optimize__expected_floor_table=len(Ms), optimize__optimal_num_devices=len(Ms),
        # floor table over the whole pool, then the sampled units' geometry
        links__build_unit_geometry=sum(N * pool + N * max(p) for p in k_pairs),
        links__stream=1 + units, links__draw_unit_block=units, channel__cgauss=2 * units,
        links__make_unit_stats=units, channel__root_matrix_from_angles=units,
        links__slice_stats=units,
        **{"links.BlockKernel.__init__": units, "links.BlockKernel.terms": units},
    )
    assert tracer.pool_realized == tracer.pool_requested == pool
    assert tracer.root_bytes > 0


def test_restored_after_raise():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _bindings() == before
    assert leftover_wrappers() == []
