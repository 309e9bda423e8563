"""One workload in one fresh process: import lis_uplink from the checkout,
resolve the workload, then time, check and optionally trace
``run_experiment(rc, workers=1)``.

``run.py`` starts this script with the BLAS thread counts pinned to 1 and
reads the JSON object it prints last. Phases:

  --phase setup   print the CLOCK_MONOTONIC time at which the import has
                  finished and the ExperimentSpec is resolved, and the
                  host-speed factor measured right after, then exit;
  --phase run     warm up, then time untraced runs for --seconds (trace 0)
                  or alternate untraced and traced runs (trace 1);
  --write-reference   store this seed's summaries under refs/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
from lis_uplink.harness import (  # noqa: E402  (the import setup_s measures)
    ExperimentSpec,
    run_experiment,
    write_outputs,
)
from hostspeed import HostSpeed, factor_now  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFS = HERE / "refs"
RTOL = 1e-12  # ROADMAP's bound for a change in floating-point order
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def summary_rows(result) -> list:
    return [
        [s.label, s.sweep_value, s.mean, s.variance, s.stderr, s.count]
        for s in result.summaries
    ]


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def rows_match(got: list, want: list) -> bool:
    """Labels, sweep values and counts exact; statistics to RTOL."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g[0] != w[0] or g[1] != w[1] or g[5] != w[5]:
            return False
        if not all(_close(float(x), float(y)) for x, y in zip(g[2:5], w[2:5])):
            return False
    return True


def csv_sha256(result) -> str:
    """Hash of the curve CSVs exactly as write_outputs writes them."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix=".perfbench-csv-", dir=ROOT) as tmp:
        for path in sorted(write_outputs(result, tmp)):
            if path.suffix == ".csv":
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def reference_path(workload: str, seed: int) -> Path:
    return REFS / f"{workload}-seed{seed}.json"


class Checker:
    """Judges each run's summaries: against the stored reference when this
    seed has one, otherwise against the first run of this process (the
    status is then "unchecked"). Also requires the workload's curves and
    finite statistics."""

    def __init__(self, workload: str, labels, seed: int):
        self.labels = set(labels)
        path = reference_path(workload, seed)
        self.reference = json.loads(path.read_text()) if path.is_file() else None
        self.expected = self.reference["summaries"] if self.reference else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.csv_sha256 = None

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def warm_up(self, rc) -> None:
        """Untimed, unjudged run that fills lazy caches; counts only if it raises."""
        self.attempted += 1
        try:
            run_experiment(rc, workers=1)
        except Exception as exc:  # reported as a failed run
            self._fail(f"warm-up raised {type(exc).__name__}: {exc}")

    def run(self, rc, tracer=None):
        """One checked run_experiment; returns (wall time, host-speed
        factor) or None when it raised."""
        self.attempted += 1
        try:
            with tracer.installed() if tracer else contextlib.nullcontext(), \
                    HostSpeed() as speed:
                t0 = time.perf_counter()
                result = run_experiment(rc, workers=1)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a raising run is a failed run, not a crash
            self._fail(f"raised {type(exc).__name__}: {exc}")
            return None
        rows = summary_rows(result)
        missing = self.labels - {row[0] for row in rows}
        if missing:
            self._fail(f"missing curves {sorted(missing)}")
        elif not all(math.isfinite(v) for row in rows for v in row[2:5]):
            self._fail("non-finite curve statistic")
        elif self.expected is None:
            self.expected = rows
        elif not rows_match(rows, self.expected):
            self._fail("curve summaries differ from the "
                       + ("stored reference" if self.reference else "first run"))
        if self.csv_sha256 is None:
            self.csv_sha256 = csv_sha256(result)
        return wall, speed.factor()

    def status(self) -> str:
        if self.failed:
            return "FAILED"
        return "ok" if self.reference else "unchecked"


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {k: deps[k].get("openblas configuration") or deps[k].get("name")
                 for k in ("blas", "lapack") if k in deps},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers": 1,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    rc = workload.run_config(seed)
    spec = ExperimentSpec.from_run_config(rc)
    checker = Checker(name, workload.labels, seed)
    checker.warm_up(workload.warmup_config(seed))

    walls: list[float] = []          # raw seconds
    factors: list[float] = []        # host-speed factor of each run
    traced: list[float] = []         # traced runs, at reference speed
    layers: list[dict] = []
    tracer = Tracer() if trace else None
    # trace 1 alternates which of the pair runs first
    pairs = ((None, tracer), (tracer, None)) if trace else ((None,),)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for tr in pairs[rounds % len(pairs)]:
            if tr is not None:
                tr.reset()
            timed = checker.run(rc, tr)
            if timed is None:
                continue
            wall, factor = timed
            if tr is None:
                walls.append(wall)
                factors.append(factor)
            else:
                traced.append(wall * factor)
                sample = tr.metrics()
                sample["harness.unattributed_s"] = wall - tr.top_s
                layers.append(sample)
        rounds += 1

    out = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "check": checker.status(),
        "csv_sha256": checker.csv_sha256,
        "csv_identical": (checker.csv_sha256 == checker.reference["csv_sha256"])
        if checker.reference else None,
        "walls": walls,
        "factors": factors,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": spec.to_dict(),
        "env": environment(),
    }
    if trace:
        leftovers = leftover_wrappers()
        if leftovers:
            out["failed"] += 1
            out["errors"].append(f"left patched: {leftovers}")
        keys = layers[0].keys() if layers else ()
        # counts repeat exactly across runs, so the first run's count stands
        out["layers"] = {
            k: layers[0][k] if k.endswith(".calls")
            else statistics.median(sample[k] for sample in layers)
            for k in keys
        }
        if walls and traced:
            out["layers"]["trace.overhead_s"] = statistics.median(traced) - statistics.median(
                w * f for w, f in zip(walls, factors))
        out["traced_runs"] = len(traced)
    return out


def write_reference(name: str, seed: int) -> Path:
    result = run_experiment(WORKLOADS[name].run_config(seed), workers=1)
    path = reference_path(name, seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "rtol": RTOL,
        "csv_sha256": csv_sha256(result),
        "summaries": summary_rows(result),
    }, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if args.phase == "setup":
        ExperimentSpec.from_run_config(WORKLOADS[args.workload].run_config(args.seed))
        done = time.clock_gettime(time.CLOCK_MONOTONIC)
        print(json.dumps({"done": done, "factor": factor_now()}))
        return 0
    if args.write_reference:
        print(write_reference(args.workload, args.seed))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
