"""Host-speed probe: a side thread that times a fixed kernel.

The machines this benchmark was written on share their cores with other
tenants. While a neighbour is busy, every instruction stream on the core runs
up to ~1.9x slower, for stretches of seconds to a minute, and CPU time grows
with wall time (it is not descheduling). Identical 16x16 solves in one
process took 2.9 to 4.9 s. A median over one run cannot remove a slowdown
that lasts the whole run.

The probe measures the host's speed while the workload runs. A daemon thread
wakes every `PERIOD` seconds, takes the GIL, and times `_kernel`, a fixed mix
of small NumPy calls like the program's own. Speed at a sample is
`REFERENCE_KERNEL_S` over the kernel's time there, smoothed by a rolling
median. `elapsed(t0, t1)` integrates the speed over [t0, t1]: the seconds the
interval would have taken at the development host's idle speed. The kernel
never calls the program, so a faster program still shows as a shorter
interval. On another host the scale differs; commits compared on one host
compare correctly.

The thread costs about 1% of the main thread's time, the same on every
commit. Pin the process to one CPU first (see `pin_to_one_cpu`), so that the
probe samples the core the workload runs on.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

_RNG = np.random.default_rng(20140912)
_ROWS = _RNG.random((24, 16))
_LEVELS = np.sort(_RNG.random(17))

# Kernel time on an idle core of the development host (Intel Xeon, 2 vCPU,
# numpy 2.4, Python 3.11): the speed that reads as 1.0.
REFERENCE_KERNEL_S = 170e-6
# Seconds between samples, and samples per rolling median (~0.1 s window).
PERIOD = 0.02
SMOOTHING = 5


def _kernel() -> float:
    acc = 0.0
    for row in _ROWS:
        c = np.cumsum(row)
        idx = np.searchsorted(_LEVELS, c / c[-1], side="left")
        acc += float(np.dot(row, row)) + int(idx.sum())
    return acc


def pin_to_one_cpu() -> int:
    """Restrict this process (and its children) to the CPU it is running on."""
    allowed = os.sched_getaffinity(0)
    try:
        stat = open("/proc/self/stat", encoding="ascii").read()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    except (OSError, ValueError, IndexError):
        cpu = min(allowed)
    if cpu not in allowed:
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Context manager that samples host speed while the block runs."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)
        self._cum_t: np.ndarray | None = None
        self._cum_v: np.ndarray | None = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self._samples.append((t0, time.perf_counter() - t0))

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        for _ in range(3):
            _kernel()  # warm the code path before the first sample counts
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        self._finish()

    def _finish(self) -> None:
        t = np.array([s[0] for s in self._samples])
        dt = np.array([s[1] for s in self._samples])
        if dt.size >= SMOOTHING:
            pad = SMOOTHING // 2
            padded = np.concatenate([np.repeat(dt[0], pad), dt, np.repeat(dt[-1], pad)])
            windows = np.lib.stride_tricks.sliding_window_view(padded, SMOOTHING)
            dt = np.median(windows, axis=1)
        speed = REFERENCE_KERNEL_S / dt
        # trapezoid integral of the speed between consecutive samples
        steps = 0.5 * (speed[1:] + speed[:-1]) * np.diff(t)
        self._cum_t = t
        self._cum_v = np.concatenate([[0.0], np.cumsum(steps)])
        self.samples = int(t.size)
        self.median_kernel_s = float(np.median(dt))

    def elapsed(self, t0, t1):
        """Seconds [t0, t1] would take at the reference speed (vectorised)."""
        if self._cum_t is None:
            raise RuntimeError("the probe has not finished")
        c0 = np.interp(t0, self._cum_t, self._cum_v)
        c1 = np.interp(t1, self._cum_t, self._cum_v)
        return c1 - c0
