"""Machine-speed calibration for the benchmark's timings.

On a shared host the same Python code runs up to a third faster or slower
from one minute to the next, so raw run medians of one workload spread by
13-42% across runs.  A fixed pure-Python kernel slows down and speeds up
with the package's code; timing it between the package's calls gives the
machine's speed at that moment.  Every raw time is multiplied by
REFERENCE_KERNEL_S over the median of the kernel times around it, which
reports it at the reference speed, at which the kernel takes
REFERENCE_KERNEL_S.  The kernel never changes with the package, so a
faster package shows as faster at the reference speed.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REFERENCE_KERNEL_S = 0.005
PROBE_EVERY_S = 0.05    # at most this much call time between two probes
NEIGHBOURS = 2          # probes on each side of a call that set its speed


def _kernel() -> int:
    """Work in the package's style: small tuples, sorting, bit masks, set
    and dict traffic."""
    seen: dict = {}
    total = 0
    for i in range(2500):
        block = tuple(sorted((i * 7 % 13, i * 5 % 11, i % 9)))
        mask = (1 << block[0]) | (1 << block[1]) | (1 << block[2])
        key = (block, mask & 0xFF)
        seen[key] = seen.get(key, 0) + 1
        total += len({b for b in block if mask >> b & 1})
    return total


class SpeedProbe:
    """Kernel times in time order.  A call made after the first `mark`
    probes is scaled by the probes nearest to it."""

    def __init__(self):
        self.times: list[float] = []
        self._since = 0.0

    def probe(self, count: int = 1) -> None:
        # the collector would charge the package's garbage to the kernel
        gc.disable()
        try:
            for _ in range(count):
                start = perf_counter()
                _kernel()
                self.times.append(perf_counter() - start)
        finally:
            gc.enable()
        self._since = 0.0

    def after_call(self, seconds: float) -> None:
        """Account for a call's time and probe when enough has passed."""
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.probe()

    @property
    def mark(self) -> int:
        return len(self.times)

    def factor(self, mark: int, neighbours: int = NEIGHBOURS) -> float:
        """Raw-to-reference factor for a call made after `mark` probes."""
        window = self.times[max(0, mark - neighbours):mark + neighbours]
        return REFERENCE_KERNEL_S / statistics.median(window)
