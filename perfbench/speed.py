"""The machine's speed, measured beside every timed call.

The benchmark's host is shared: the same code runs up to 1.4x slower for
seconds or minutes at a time, as other tenants load the cores and
memory, and CPU time tracks wall time, so the slowdown is not time spent
descheduled. The run therefore probes a fixed reference job after every
timed call, and the speed-corrected time of a call is

    call time x REFERENCE_S / (mean reference time within WINDOW_S of it)

that is, the time the call would take on this machine when the
reference takes REFERENCE_S. A single probe is noisy (the speed changes
within a second); the probes of the surrounding seconds average that out
and still follow the slower drift.

The reference is plain Python and numpy on fixed inputs and calls nothing
of netwarden, so a change to the library moves the corrected times and
not the reference. It runs with the garbage collector off, so that the
size of the library's heap does not move it either.
"""

from __future__ import annotations

import gc
import struct
import time
from bisect import bisect_left, bisect_right
from statistics import mean, median

import numpy as np

# The reference's median time on the machine the benchmark was tuned on
# (2 shared vCPUs of an Intel Xeon host, Python 3.11, numpy 2.4, one
# BLAS thread). It only sets the scale of the corrected figures.
REFERENCE_S = 0.0053
REPEATS = 3      # a probe is the median of this many runs of the reference
WINDOW_S = 2.0   # probes this close to a call set its correction

_RECORD = struct.Struct("!HHIIBBH")
_BYTES = np.random.default_rng(0).integers(0, 256, 64 * 800,
                                           dtype=np.uint8).tobytes()
_POINTS = np.random.default_rng(1).standard_normal((500, 11))


def _reference() -> float:
    """Parse fixed records into a keyed table (interpreter work), then
    take nearest-neighbour distances of a fixed point block and per-row
    reductions (numpy work)."""
    table = {}
    acc = 0.0
    unpack = _RECORD.unpack_from
    for off in range(0, len(_BYTES) - _RECORD.size, 64):
        a, b, c, _, e, _, g = unpack(_BYTES, off)
        key = (a, b, e & 7)
        st = table.get(key)
        if st is None:
            st = table[key] = [0, 0.0, []]
        st[0] += 1
        st[1] += (c % 1000) * 0.001
        st[2].append(g)
        acc += st[1] / st[0]
    acc += sorted((v[0], k) for k, v in table.items())[-1][0]
    g = _POINTS @ _POINTS.T
    sq = np.diag(g)
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    acc += float(np.partition(d2, 20, axis=1)[:, :20].sum())
    acc += sum(np.sqrt(np.abs(r)).mean() for r in _POINTS[:100])
    return acc


class Speed:
    """Reference probes of one run, as (time taken, reference time).

    A timed call is kept as (start, seconds); `timed` runs one and probes
    after it, and `factor` gives the correction for it from the probes
    around it. `spent` is the wall time of every probe so far."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._at: list[float] = []  # the probes' times, for bisection
        self.spent = 0.0
        self.probe()

    def probe(self) -> None:
        """Time the reference: the median of REPEATS runs, so that one
        interrupted run does not move it."""
        was_enabled = gc.isenabled()
        gc.disable()
        times = []
        try:
            for _ in range(REPEATS):
                t = time.perf_counter()
                _reference()
                times.append(time.perf_counter() - t)
        finally:
            if was_enabled:
                gc.enable()
        self.probes.append((time.perf_counter(), median(times)))
        self._at.append(self.probes[-1][0])
        self.spent += sum(times)

    def timed(self, call):
        """Run `call`, then probe; returns its result and (start, seconds)."""
        t = time.perf_counter()
        out = call()
        dt = time.perf_counter() - t
        self.probe()
        return out, (t, dt)

    def factor(self, start: float, seconds: float) -> float:
        """REFERENCE_S over the mean reference time of the probes within
        WINDOW_S of the call, the last one before it and the first one
        after it included."""
        lo = min(bisect_left(self._at, start - WINDOW_S),
                 bisect_right(self._at, start) - 1)
        hi = max(bisect_right(self._at, start + seconds + WINDOW_S),
                 bisect_left(self._at, start + seconds) + 1)
        return REFERENCE_S / mean(ref for _, ref in
                                  self.probes[max(lo, 0):hi])

    def correct(self, timing: tuple[float, float]) -> float:
        """The speed-corrected seconds of a (start, seconds) timing."""
        return timing[1] * self.factor(*timing)

    def reference_times(self) -> list[float]:
        return [ref for _, ref in self.probes]
