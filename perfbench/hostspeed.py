"""Host-speed correction for timings taken on a shared virtual machine.

On the 2-vCPU VM this benchmark was built on, the speed of each vCPU
changed by up to 2x within seconds, independently on the two vCPUs and
invisibly to the guest (process CPU time grows with wall time). Medians of
raw wall times then differed by 15-25% between runs of identical work.

While a timed region runs, a SIGALRM handler times a fixed pure-Python
kernel every INTERVAL_S seconds on the same vCPU. A timing multiplied by
``REFERENCE_S / median(kernel times)`` is that timing expressed at the
speed of a reference host on which the kernel takes REFERENCE_S. Run by
run, raw wall time and kernel time correlated at 0.83-0.95 on the three
workloads. A kernel that also made small numpy calls tracked oracle_small
better, but ran 40% slower inside ergodic_moments than inside oracle_small
(the workload's own cache traffic), so it would also have moved with the
program under test; the pure-Python kernel's time differed by 5% between
the two. The handler costs about 1.5% of a run, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_S = 2.7e-4  # median kernel time on the VM the benchmark was built on


def kernel() -> int:
    total = 0
    for i in range(4000):
        total += i * i
    return total


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager that samples the kernel time while its body runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(time_kernel())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """REFERENCE_S over the median kernel time; a region too short for
        three alarms is judged by timing the kernel now."""
        if len(self.samples) < 3:
            return factor_now()
        return REFERENCE_S / statistics.median(self.samples)


def factor_now(repeats: int = 51) -> float:
    """Host-speed factor from kernel timings taken back to back."""
    return REFERENCE_S / statistics.median(time_kernel() for _ in range(repeats))
