"""Machine-speed reference: a fixed computation timed between sessions.

On a shared host the speed of one core drifts by a quarter or more within
a minute, and a whole run can land in a slow spell.  Wall times of the same
code then spread more across runs than the changes a benchmark should see.
So after every session the worker runs a fixed reference computation for
a tenth of that session's time (at least once).  Reference runs are then
spread over the timed phase in step with the sessions, and every session
is bracketed by them.

A session's cost in reference units ("ref") is its wall time divided by the
median time of the reference runs that start within max(seconds / 2,
MIN_PAD_S) of it.  Both are timed on the same core a moment apart, so most
of the drift cancels in that ratio.

The reference is the program's own kind of work, a sparse product over Q
of dicts keyed by exponent tuples with Fraction values, but it is written
here: no change to the program moves it.  It runs with the cyclic garbage
collector off (it makes no cycles), so a program that keeps a large heap
cannot slow the reference through collections and hide its own cost.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

SHARE = 0.1        # reference time after a session, as a share of the session's time
MIN_PAD_S = 0.25   # a session's reference window reaches at least this far each side
NOMINAL_S = 0.005  # the reference's time on the guest the benchmark was written on;
                   # set-up seconds are reported at this reference speed

_A = {(i, j, k): Fraction(i + 1, j + 2) for i in range(5) for j in range(4) for k in range(2)}
_B = {(i, j, 0): Fraction(j + 1, i + 3) for i in range(5) for j in range(5)}


def reference() -> int:
    """The fixed computation: a 40-term by 25-term sparse product over Q."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return len(out)


class SpeedReference:
    """Runs the reference in blocks and keeps [start, seconds] of each run,
    start counted from `t_zero` (a time.perf_counter() value)."""

    def __init__(self, t_zero: float):
        self.t_zero = t_zero
        self.runs: list[list[float]] = []

    def block(self, session_s: float) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            end = time.perf_counter() + SHARE * session_s
            while True:
                t0 = time.perf_counter()
                reference()
                t1 = time.perf_counter()
                self.runs.append([t0 - self.t_zero, t1 - t0])
                if t1 >= end:
                    break
        finally:
            if collecting:
                gc.enable()


def normalized(samples: list[list], runs: list[list[float]]) -> list[float]:
    """Each session's cost in reference units.

    `samples` holds [session index, start, seconds] and `runs` the reference
    runs as [start, seconds], both in the order they ran.  A session's time
    is divided by the median of the reference runs that start within
    max(seconds / 2, MIN_PAD_S) before it began or after it ended; the block
    that follows each session always falls in that window.
    """
    starts = [start for start, _ in runs]
    out = []
    for _, start, seconds in samples:
        pad = max(seconds / 2, MIN_PAD_S)
        lo = bisect.bisect_left(starts, start - pad)
        hi = bisect.bisect_right(starts, start + seconds + pad)
        if lo == hi:
            raise ValueError(f"no reference run near the session at {start:.3f} s")
        out.append(seconds / statistics.median(dt for _, dt in runs[lo:hi]))
    return out
