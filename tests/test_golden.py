"""Golden outputs: every experiment id, plus the analytic-only runner and
the ``lis-sim optimize-t``/``optimize-k`` front ends, at a pinned seed and
tiny scale, compared against stored expectations.

Each case's summary rows (label, sweep value and count exactly; mean,
variance and stderr at rtol 1e-12) and its manifest ``extras`` are kept
in ``tests/golden/<case>.json``; an optimizer case keeps the JSON file the
command writes. Extras are kept as the manifest writes them, strict JSON
with ``null`` for a non-finite value. A refactor of the engine must leave
these unchanged. Regenerate them only for an intended change of outputs,
and record that change in CHANGES.md. Name the cases whose outputs the
change meant to move; with no name, every case is rewritten (an unknown
name exits non-zero and lists the known cases):

    PYTHONPATH=src python tests/test_golden.py [case ...]

The stored numbers are compared at rtol 1e-12, so a host with another
BLAS or libm may rewrite the last digits of a case it regenerates: keep
a regeneration to the cases that changed.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lis_uplink import preset_run_config, run_asymptotic, run_experiment, write_outputs
from lis_uplink.cli import main
from lis_uplink.config import _jsonable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 3
RTOL = 1e-12

M_SWEEP = {"experiment.sweep_values": [16, 36]}

# case name -> (runner, experiment id, overrides)
CASES = {
    "fig4": (run_experiment, "fig4", {
        **M_SWEEP, "experiment.realizations": 10, "experiment.placements": 2}),
    "fig5": (run_experiment, "fig5", {
        **M_SWEEP, "experiment.realizations": 4, "experiment.placements": 2,
        "experiment.theory_stride": 2}),
    "fig6": (run_experiment, "fig6", {
        **M_SWEEP, "experiment.realizations": 4, "experiment.placements": 1,
        "experiment.theory_stride": 2}),
    "fig6b": (run_experiment, "fig6b", {
        **M_SWEEP, "experiment.realizations": 3, "experiment.placements": 2}),
    "fig7": (run_experiment, "fig7", {
        "system.M": 36,
        "experiment.sweep_values": [8, 16, 64, 500],
        "experiment.realizations": 4, "experiment.placements": 1,
        "experiment.theory_stride": 2}),
    "fig8": (run_experiment, "fig8", {
        "system.M": 36, "placement.pool_size": 8,
        "experiment.realizations": 2, "experiment.placements": 2}),
    "fig9": (run_experiment, "fig9", {
        **M_SWEEP, "placement.pool_size": 8,
        "experiment.realizations": 2, "experiment.placements": 1}),
    "oracle": (run_experiment, "oracle", {
        **M_SWEEP, "experiment.realizations": 30, "experiment.placements": 1}),
    "asymptotic-fig5": (run_asymptotic, "fig5", {
        **M_SWEEP, "experiment.realizations": 3, "experiment.placements": 2}),
    "asymptotic-fig6": (run_asymptotic, "fig6", {
        **M_SWEEP, "experiment.realizations": 3, "experiment.placements": 1}),
    # large arrays, where a reordering of floating-point sums in the moment
    # contractions would show
    "asymptotic-fig5-large": (run_asymptotic, "fig5", {
        "experiment.sweep_values": [100, 400],
        "experiment.realizations": 1, "experiment.placements": 1}),
}


# optimizer case -> (subcommand, --set overrides); four panels so the
# interference regime matters
_OPT_SMALL = ["system.N=4", "system.M=36"]
OPTIMIZER_CASES = {
    "optimize-t-rician": ("optimize-t", [*_OPT_SMALL, "system.K=4", "system.T=100"]),
    "optimize-t-nlos_inter": ("optimize-t", [
        *_OPT_SMALL, "system.K=4", "system.T=100", "experiment.interference=nlos_inter"]),
    "optimize-k-rician": ("optimize-k", [*_OPT_SMALL, "system.T=20", "placement.pool_size=12"]),
    "optimize-k-nlos_inter": ("optimize-k", [
        *_OPT_SMALL, "system.T=20", "placement.pool_size=12",
        "experiment.interference=nlos_inter"]),
}


def _observe(case: str) -> dict:
    runner, exp_id, overrides = CASES[case]
    result = runner(preset_run_config(exp_id, seed=SEED).with_overrides(overrides))
    rows = [[s.label, s.sweep_value, s.count, s.mean, s.variance, s.stderr]
            for s in result.summaries]
    # the manifest's view of the extras: JSON types, string keys, None for
    # a non-finite value
    extras = json.loads(json.dumps(_jsonable(result.extras)))
    return {"rows": rows, "extras": extras}


def _assert_same(actual, expected, where="extras"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0.0,
                                   equal_nan=True, err_msg=where)
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case):
    expected = json.loads((GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8"))
    actual = _observe(case)
    got = [(r[0], r[1], r[2]) for r in actual["rows"]]
    want = [(r[0], r[1], r[2]) for r in expected["rows"]]
    assert got == want
    for a, e in zip(actual["rows"], expected["rows"]):
        for col, name in zip((3, 4, 5), ("mean", "variance", "stderr")):
            assert math.isclose(a[col], e[col], rel_tol=RTOL, abs_tol=0.0), (
                f"{case} {e[0]!r} at {e[1]}: {name} {a[col]!r} != {e[col]!r}")
    _assert_same(actual["extras"], expected["extras"])


def _run_optimizer(case: str, out_dir) -> str:
    sub, sets = OPTIMIZER_CASES[case]
    argv = [sub, "--seed", str(SEED), "--out", str(out_dir)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    return (Path(out_dir) / f"{sub.replace('-', '_')}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(OPTIMIZER_CASES))
def test_optimizer_matches_golden(case, tmp_path, capsys):
    expected = json.loads((GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8"))
    actual = json.loads(_run_optimizer(case, tmp_path))
    capsys.readouterr()
    _assert_same(actual, expected, case)


def _strict_loads(text: str):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``,
    as ``JSON.parse`` and ``jq`` do."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


# case -> where a non-finite value lands in its JSON: the oracle's
# serving-link Rician factor, and the unbounded floor NSE of one device
# with no interferer on fig8's (placement 1) and optimize-k's curves
NULL_AT = {
    "oracle": lambda doc: doc["extras"]["placements"][0]["oracle"][0]["kappa"][0][0],
    "fig8": lambda doc: doc["extras"]["placements"][1]["det_curve"][0],
    "optimize-k-nlos_inter": lambda doc: doc["nse_curve"][0],
}


@pytest.mark.parametrize("case", sorted(NULL_AT))
def test_json_outputs_are_strict(case, tmp_path, capsys):
    if case in CASES:
        runner, exp_id, overrides = CASES[case]
        files = write_outputs(runner(preset_run_config(exp_id, seed=SEED).with_overrides(
            overrides)), tmp_path)
        [manifest] = [f for f in files if f.suffix == ".json"]
        texts = [manifest.read_text(encoding="utf-8")]
    else:
        # the file and the copy printed on stdout
        texts = [_run_optimizer(case, tmp_path), capsys.readouterr().out]
    for text in texts:
        assert NULL_AT[case](_strict_loads(text)) is None


def _records(case: str) -> list:
    """Every raw record of a golden case, in run order."""
    runner, exp_id, overrides = CASES[case]
    result = runner(preset_run_config(exp_id, seed=SEED).with_overrides(overrides))
    return [tuple(r) for r in result.records]


def test_records_independent_of_blas_thread_count():
    # channel sampling and the kernels run through BLAS matrix products,
    # batched over a chunk of draws in fig4 and the oracle; fig8 and fig9
    # read every admitted count off slices of one product over the largest
    # count, and fig4, fig5 and fig6b build the single-LIS twin's kernel on
    # panel 0's rows of the multi-LIS channels. The records of those cases must not
    # depend on how many threads BLAS uses
    here = Path(__file__).resolve().parent
    script = ("import json, test_golden; print(json.dumps({case: test_golden._records(case) "
              "for case in ('fig4', 'fig5', 'fig6b', 'fig8', 'fig9', 'oracle')}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    outputs = [
        subprocess.run([sys.executable, "-c", script], env={**env, "OPENBLAS_NUM_THREADS": n},
                       cwd=here, capture_output=True, text=True, check=True).stdout
        for n in ("1", "2")
    ]
    assert all(json.loads(outputs[0]).values()), "no records"
    assert outputs[0] == outputs[1]


def test_regeneration_rejects_an_unknown_case():
    here = Path(__file__).resolve()
    env = {**os.environ, "PYTHONPATH": str(here.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(here), "fig10"], env=env,
                          capture_output=True, text=True)
    assert done.returncode != 0
    assert "fig10" in done.stderr and all(case in done.stderr for case in (*CASES, *OPTIMIZER_CASES))


if __name__ == "__main__":
    import tempfile

    known = [*sorted(CASES), *sorted(OPTIMIZER_CASES)]
    names = sys.argv[1:] or known
    unknown = [name for name in names if name not in known]
    if unknown:
        sys.exit(f"unknown golden case {', '.join(unknown)}; known cases: {', '.join(known)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            path = GOLDEN_DIR / f"{name}.json"
            if name in CASES:
                path.write_text(json.dumps(_observe(name), indent=1) + "\n", encoding="utf-8")
            else:
                path.write_text(_run_optimizer(name, tmp), encoding="utf-8")
            print(path)
