"""A clock that runs at the host's pace, so timings taken minutes apart compare.

The benchmark shares its CPUs with other machines' work. That changes the
speed of every instruction it runs, by up to half, from one tenth of a
second to the next, so two timings of the same code taken minutes apart can
differ by a quarter. :class:`PacedClock` corrects for this. Every
``INTERVAL_S`` a timer signal interrupts the run and times one pass of a
fixed reference :func:`kernel`. Until the next pass, the clock advances by
``REFERENCE_S / pass time`` seconds per second: a reading is the time the
interval would have taken on a host that runs the kernel in ``REFERENCE_S``.
The passes themselves are left out of every reading.

The kernel uses only numpy and Python, not ``layermoe``, so a change to the
program cannot move it. It mixes what the program does most: small matrix
products, elementwise maths, row gathers and scatters, and interpreter work.
The signal handler runs on the main thread: the run stays one thread.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median time of one kernel pass on a quiet 2-vCPU Intel Xeon virtual
# machine with one BLAS thread. It fixes the unit: a paced second is the
# time this host would take when it runs the kernel this fast.
REFERENCE_S = 0.0022
# Wall time between kernel passes.
INTERVAL_S = 0.05

_rng = np.random.default_rng(20250528)
_A = _rng.normal(size=(240, 32))
_B = _rng.normal(size=(32, 64))
_ROWS = _rng.integers(0, 240, size=96)


def kernel() -> float:
    """Run the reference kernel once; return its duration in seconds."""
    start = time.perf_counter()
    for _ in range(10):
        h = np.maximum(_A @ _B, 0.0)
        s = np.exp(h[:, :32] - h.max(axis=1, keepdims=True))
        s /= s.sum(axis=1, keepdims=True)
        np.add.at(s, _ROWS, s[_ROWS])
        table = {i: float(i) * 0.5 for i in range(48)}
        sum(table.values())
    return time.perf_counter() - start


class PacedClock:
    """Paced seconds since the clock started. Use as a context manager: the
    timer runs only inside the ``with`` block, and :meth:`now` is valid
    there and after it."""

    def __init__(self):
        self.passes = 0
        self.kernel_s = 0.0
        self._raw = time.perf_counter()
        self._paced = 0.0
        self._factor = 1.0
        self._previous = None

    def now(self) -> float:
        return self._paced + (time.perf_counter() - self._raw) * self._factor

    def calibrate(self, *_signal) -> None:
        """Time one kernel pass and set the pace until the next one."""
        paced = self.now()
        duration = kernel()
        self._paced = paced
        self._factor = REFERENCE_S / duration
        self._raw = time.perf_counter()
        self.passes += 1
        self.kernel_s += duration

    def __enter__(self) -> "PacedClock":
        self._previous = signal.signal(signal.SIGALRM, self.calibrate)
        # Restart system calls the timer interrupts, also those made from C.
        signal.siginterrupt(signal.SIGALRM, False)
        self.calibrate()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
