"""The benchmark's workloads: a figure preset plus fixed overrides.

Each workload is shaped like one ``harness.preset_run_config`` preset and
scaled down (one block, fewer placements or realizations), so a single
``run_experiment`` takes seconds. Only ``system.seed`` comes from the
benchmark's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from lis_uplink.config import RunConfig
from lis_uplink.harness import preset_run_config


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict
    # tiny run of the same experiment that fills lazy caches before timing
    warmup: dict
    # curves every run must produce
    labels: tuple

    def run_config(self, seed: int) -> RunConfig:
        return preset_run_config(self.preset, seed).with_overrides(self.overrides)

    def warmup_config(self, seed: int) -> RunConfig:
        return self.run_config(seed).with_overrides(self.warmup)


WORKLOADS = {
    # fig5: quad layout, N=4, K=8, M in {100, 400, 900}, closed-form moment
    # sets on every block; asymptotics.build_moment_set dominates.
    "ergodic_moments": Workload(
        preset="fig5",
        overrides={
            "experiment.sweep_values": [100, 400, 900],
            "experiment.realizations": 1,
            "experiment.placements": 1,
            "experiment.theory_stride": 1,
        },
        warmup={"experiment.sweep_values": [16]},
        # the Theorem 2 bound curves are left out of the required set: a
        # block whose floor is infinite is dropped from them by design
        labels=(
            "Theorem 1", "Theorem 1 single-LIS", "multi-LIS imperfect CSI",
            "single-LIS imperfect CSI",
        ),
    ),
    # fig9: pool of 40 candidates per panel, K_opt and K=20 sampled, T=50,
    # M in {100, 196, 400}; no moment sets, correlation roots dominate.
    "kpool_floor": Workload(
        preset="fig9",
        overrides={
            "experiment.sweep_values": [100, 196, 400],
            "experiment.realizations": 1,
            # the preset's three placements average the seed-dependent
            # pool and K_opt, which set how many units are sampled
            "experiment.placements": 3,
            "placement.pool_size": 40,
        },
        warmup={"experiment.sweep_values": [16], "placement.pool_size": 4},
        labels=(
            "Monte Carlo NSE at K=20", "Monte Carlo NSE at optimized K",
            "Theorem 2 bound NSE at optimized K",
        ),
    ),
    # oracle: line layout, N=2, K=2, P=4, M in {16, 100}; 3000 realizations
    # give 24,000 records of tiny per-call kernels plus one summarize.
    "oracle_small": Workload(
        preset="oracle",
        overrides={
            "experiment.sweep_values": [16, 100],
            "experiment.realizations": 3000,
            "experiment.placements": 1,
        },
        warmup={"experiment.realizations": 20},
        labels=("I over M^2", "X", "Y total", "Z"),
    ),
}
