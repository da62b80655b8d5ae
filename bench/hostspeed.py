"""Host speed calibration: timings scaled to a reference speed of the machine.

On a shared host the speed of the same code drifts by 20-50% in phases of
seconds to minutes while other tenants compete for the cores' shared
resources. A run of a few tens of seconds averages only a few of those
phases, so raw run medians scatter by more than any useful regression bound.
The benchmark therefore times a fixed kernel of its own (a Python loop, a
streaming numpy pass and small matrix products: the kinds of work qpattn
does) at least every ``HostSpeed.EVERY_S`` seconds, between operations, and reports each
timed interval scaled by ``REFERENCE_S / kernel time`` around it. The kernel
never runs inside a timed operation and does not touch qpattn, so a change
to the program moves the scaled times in proportion to the raw ones; the
raw times are kept in every result record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the reference host (a 2-vCPU 2.1 GHz Xeon virtual machine,
# quiet phase): scaled timings read as seconds on that host.
REFERENCE_S = 0.020

_rng = np.random.default_rng(0)
_STREAM_A, _STREAM_B = _rng.random(400_000), _rng.random(400_000)
_SMALL = _rng.random((64, 64))


def kernel() -> float:
    """The fixed calibration work; returns a value so nothing is optimised away."""
    total = 0.0
    for i in range(20_000):
        total += (i * 0.5) % 7
    x = _STREAM_A
    for _ in range(5):
        x = np.sqrt(x * _STREAM_B + 1.0)
    m = _SMALL
    for _ in range(300):
        m = np.tanh(m @ _SMALL * 0.01)
    return total + float(x[0]) + float(m[0, 0])


class HostSpeed:
    """Kernel timings taken between operations, and timings scaled by them.

    A single 20 ms kernel run scatters by up to 1.5x from one second to the
    next, so the host's speed around an interval is the median of the kernel
    runs within ``WINDOW_S`` seconds of it.
    """

    EVERY_S = 0.5
    WINDOW_S = 1.5

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.measure()

    def measure(self) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def tick(self) -> None:
        """Time the kernel if ``EVERY_S`` seconds have passed since it last ran."""
        if time.perf_counter() - self.ends[-1] >= self.EVERY_S:
            self.measure()

    def kernel_s(self) -> list[float]:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the host's kernel time around [start, end]."""
        runs = list(zip(self.starts, self.ends))
        near = [b - a for a, b in runs if start - self.WINDOW_S <= b and a <= end + self.WINDOW_S]
        if not near:
            a, b = min(runs, key=lambda r: min(abs(r[0] - end), abs(r[1] - start)))
            near = [b - a]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start: float, end: float) -> float:
        """Seconds in [start, end], less the kernel runs inside it, at the reference speed."""
        inside = sum(max(0.0, min(end, b) - max(start, a)) for a, b in zip(self.starts, self.ends))
        return (end - start - inside) * self.factor(start, end)
