"""Times put on one scale: the program's time against a fixed reference kernel.

On a shared host the same pure-Python code runs up to 60 % slower for
stretches of seconds to minutes (README, Noise), and whole runs fall into
such stretches, so their fastest and their median times move together.
What stays put is the ratio between the program's time and the time of
other pure-Python code run interleaved with it.  `timed` therefore runs a
small reference kernel (RREF over F_7 of fixed matrices, with the
benchmark's own arithmetic in checks.py, which no change to jordannil
touches) just before and just after a call and, while the call runs, every
PERIOD seconds from a SIGALRM handler.  The call's reference time is its
wall time, less the handler's, divided by the mean kernel time and
multiplied by REF_KERNEL_S: the seconds it would take on a machine where
the kernel takes REF_KERNEL_S.  It is the mean, not the median, that tracks
the call: a slow stretch slows some samples a lot and others not at all,
and the call pays for all of them.
"""

import random
import signal
import statistics
from time import perf_counter

from checks import rank

# The kernel's mean time, sampled inside calls, on the 2-core VM the
# benchmark was written on when it ran at its fastest: reference seconds
# read as the seconds a user sees on that machine at that speed.
REF_KERNEL_S = 0.0045
PERIOD = 0.1

_rng = random.Random(0)
_MOD7 = [[[_rng.randrange(7) for _ in range(8)] for _ in range(8)]
         for _ in range(50)]


def kernel():
    """Seconds of one run of the reference kernel."""
    t0 = perf_counter()
    for m in _MOD7:
        rank(7, m)
    return perf_counter() - t0


_handler_s = 0.0   # time spent in the SIGALRM handler, over the process


def program_time():
    """perf_counter() less the time the handler took: the clock of spans,
    so that no span holds kernel time."""
    return perf_counter() - _handler_s


def timed(fn, *args):
    """(fn's result, its wall seconds, its reference seconds)."""
    kernels = [kernel()]
    handler_s = 0.0

    def on_alarm(signum, frame):
        global _handler_s
        nonlocal handler_s
        t0 = perf_counter()
        kernels.append(kernel())
        signal.setitimer(signal.ITIMER_REAL, PERIOD)
        took = perf_counter() - t0
        handler_s += took
        _handler_s += took

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD)
    t0 = perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    kernels.append(kernel())
    wall -= handler_s
    return result, wall, wall / statistics.fmean(kernels) * REF_KERNEL_S
