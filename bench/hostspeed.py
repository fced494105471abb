"""The host's current speed, from a fixed reference kernel.

The host this benchmark was built on (2 shared vCPUs) changes speed by
up to 2x over minutes: the same pure-Python loop took 13 ms in one 2-s
window and 22 ms in another.  Thread CPU time follows wall time, so the
CPU itself is slower, not descheduled, and wall times taken minutes apart
are not comparable.

Every end-to-end run times the kernel below between its operations.  It
does the kinds of work the package does: interpreter-bound scalar
arithmetic; numpy elementwise work and matrix-vector products (OpenBLAS,
with its default threads) on a (512, 15) complex array, the shape of one
boundary panel; and one broadcast over 4096 columns, as in containment.
The products take about 5 % of the kernel, about their share of a
``boundary`` operation: when the other core is busy, the two-thread
product slows 2.3x while the rest slows by under 5 %, and a larger share
made the kernel, but not the operations, slow down.
Over a 10-minute recording in 20-s windows, a round's wall time spread by
13 % (boundary) and 17 % (classify) between windows, and by 3.6 % and
5.1 % once divided by the first two parts of this kernel.

The host's speed also jumps within a run, and single kernel samples
spike, so ``HostSpeed.factors`` gives the speed at each operation's
start from the samples around it, not one factor for the whole run.
In eight `classify` runs the quartile spread of p50 was 18.5 % when
divided by the run's mean kernel time and 3.6 % when each operation
was divided by its own factor.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: The kernel's time at the reference speed: its time on the development
#: host (Intel Xeon, 2.1 GHz, 2 vCPUs) in a fast period.
KERNEL_REF_S = 0.009

#: Least time between two kernel samples during a timed loop.
INTERVAL_S = 0.25

#: The same for the child-process kernel that the ``cli`` workload uses:
#: its time at the reference speed, and its least interval.
CHILD_KERNEL_REF_S = 0.12
CHILD_INTERVAL_S = 1.0

_Z = np.exp(1j * np.linspace(0.0, 1.0, 512 * 15)).reshape(512, 15)
_W = np.linspace(0.5, 1.5, 15)
_WIDE = np.exp(1j * np.linspace(0.0, 2.0, 4096))
_TALL = np.exp(1j * np.linspace(0.0, 3.0, 32))


def kernel() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    for _ in range(20):
        np.log((1.0 + 0.5 * _Z) / (1.0 - 0.5 * _Z))
    for _ in range(60):
        _Z @ _W
    np.min(np.abs(_TALL[:, None] - _WIDE[None, :]), axis=1)
    return time.perf_counter() - start


def child_kernel() -> float:
    """Start a fixed child that only imports numpy; return its wall time.

    Operations that are whole processes (the ``cli`` workload) spend most
    of their time starting the interpreter and importing numpy, which the
    in-process kernel does not see.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


class HostSpeed:
    """Samples of one kernel, taken at most every ``interval_s`` seconds,
    and the host's speed at any moment of the run they span."""

    #: A sample's speed is the median of the samples this many places
    #: before and after it: one slow sample is not the host's speed.
    SMOOTHING = 2

    def __init__(self, children: bool = False):
        if children:
            self._kernel, self._reference_s, self._interval_s = (
                child_kernel, CHILD_KERNEL_REF_S, CHILD_INTERVAL_S)
        else:
            self._kernel, self._reference_s, self._interval_s = kernel, KERNEL_REF_S, INTERVAL_S
        self.times: list[float] = []  # perf_counter() at each sample's start
        self.samples: list[float] = []  # each sample's kernel time, seconds
        self._last = -float("inf")

    def sample_due(self) -> float:
        """Time the kernel if a sample is due; return the seconds spent."""
        now = time.perf_counter()
        if now - self._last < self._interval_s:
            return 0.0
        self.times.append(now)
        self.samples.append(self._kernel())
        self._last = time.perf_counter()
        return self._last - now

    def factors(self, at) -> np.ndarray:
        """How many times slower than the reference speed the host ran at
        each perf_counter() time in ``at``: the smoothed samples,
        interpolated between the two around each time."""
        k = self.SMOOTHING
        samples = np.array(self.samples)
        smoothed = [np.median(samples[max(0, i - k):i + k + 1]) for i in range(len(samples))]
        return np.interp(at, self.times, smoothed) / self._reference_s
