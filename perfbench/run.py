"""Benchmark of lis_uplink's run_experiment on three figure-shaped workloads.

    python3 perfbench/run.py --workload ergodic_moments --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload runs in fresh processes with the BLAS thread counts pinned
to 1 and ``workers=1``. With ``--trace 0`` the result carries the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); with ``--trace 1`` the
per-layer span metrics of a traced run. Every metric is printed by name
with its unit; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"
WORKLOADS = ("ergodic_moments", "kpool_floor", "oracle_small")
SETUP_PROBES = 7
DEADLINE_S = 170.0  # whole invocation per workload and trace mode

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PERCENTILES = (99, 95, 90, 75, 50)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LIS_SIM_WORKERS")}
    env.update(PINNED)
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run measure.py in a fresh interpreter and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-I", str(MEASURE), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(timeout, 1.0), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout read from .git, or a note when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def src_sha256() -> str:
    """Content hash of the package sources, which identifies the code under
    test when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lis_uplink").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def measure_setup(workload: str, seed: int, deadline: float) -> list[tuple[float, float]]:
    """(raw seconds, host-speed factor) from fresh interpreter start until
    the import and the spec resolution are done, per probe."""
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = run_child(["--workload", workload, "--seed", str(seed), "--phase", "setup"],
                        deadline - time.monotonic())
        probes.append((out["done"] - t0, out["factor"]))
    return probes


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setup = [] if trace else measure_setup(workload, seed, deadline)
    out = run_child(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        deadline - time.monotonic(),
    )
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  "
        f"git {git_sha()}  src_sha256 {src_sha256()[:16]}",
        f"environment {json.dumps(out['env'], sort_keys=True)}",
        f"inputs {json.dumps(out['inputs'], sort_keys=True)}",
        f"check {out['check']}  failed_frac {out['failed'] / out['attempted']:.4g} "
        f"({out['failed']}/{out['attempted']})  csv_sha256 {out['csv_sha256']}"
        + ("" if out["csv_identical"] is None else f"  csv_identical {out['csv_identical']}"),
    ]
    lines += [f"error {e}" for e in out["errors"]]
    if not out["walls"] or (trace and not out["traced_runs"]):
        raise RuntimeError("no run completed: " + "; ".join(out["errors"]))
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in out["layers"].items()}
        lines.append(f"traced runs {out['traced_runs']}, untraced runs {len(out['walls'])}")
    else:
        walls = [w * f for w, f in zip(out["walls"], out["factors"])]
        setups = [s * f for s, f in setup]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mib"], "unit": "MiB"},
        }
        tail = tail_percentile(walls)
        lines += [
            f"wall_s samples {len(walls)}  min {min(walls):.4f} s  max {max(walls):.4f} s  "
            + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has ten samples beyond it"),
            f"wall_s raw (uncorrected) median {statistics.median(out['walls']):.4f} s  "
            f"host-speed factor median {statistics.median(out['factors']):.3f}",
            f"setup_s samples {len(setups)}  min {min(setups):.4f} s  max {max(setups):.4f} s  "
            f"raw median {statistics.median(s for s, _ in setup):.4f} s",
        ]
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    return {
        "lines": lines,
        "result": {
            "correct": out["failed"] == 0,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": metrics,
        },
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_mb"):
        return "MiB"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="default: 0 for one workload, both for 'all'")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lis_uplink" / "__init__.py").is_file():
        print(f"error: no lis_uplink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (args.trace,) if args.trace is not None else ((0, 1) if args.workload == "all" else (0,))
    results = []
    for name in names:
        for trace in traces:
            try:
                res = bench(name, args.seed, args.seconds, bool(trace))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                print(f"error: {name} trace {trace}: {exc}", file=sys.stderr)
                return 1
            print("\n".join(res["lines"]), flush=True)
            results.append((name, res["result"]))
    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{k}": v for name, r in results for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
