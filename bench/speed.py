"""The machine's speed, sampled while the program runs, to scale its times.

A shared host can run every process on it up to twice as slow, in
spells that last from seconds to an hour.  CPU time slows as
much as wall time, so neither compares two commits measured at
different moments.  This module measures the speed beside the program
instead.  A ``Sampler`` runs a fixed pure-Python loop, the reference
slice, from a ``SIGALRM`` handler every ``INTERVAL_S`` while the
program works in the same thread, and records how long each slice took.

A duration is then scaled to the reference speed: the time the work
would have taken on a machine where one slice takes ``REF_S``.  That is
the measured duration, less the time spent in the handler, times the
mean of ``REF_S / slice time`` over the slices taken during the work
and ``PAD_S`` either side of it.  The mean drops the highest and lowest
tenth of the ratios, so a slice stretched by an interrupt counts for
nothing.

Nothing here imports ``pvb3``.  The slice runs with the garbage
collector off, so collector settings that the program changes do not
change the reference.
"""

from __future__ import annotations

import gc
import signal
import time

REF_S = 0.001       # a slice's time at the reference speed
INTERVAL_S = 0.02   # time between slices
PAD_S = 0.25        # slices this close to an interval also scale it
TRIM = 0.1          # share of ratios dropped at each end


def _reference_loop():
    """Fixed work of the kind the program does most: short integer
    vectors combined in list comprehensions and walked through a stack
    of small tuples."""
    acc = 0
    for j in range(125):
        w = [a + b * (j & 3) for a, b in zip(_VECTOR, reversed(_VECTOR))]
        stack = [(i, w[i]) for i in range(0, 60, 3)]
        while stack:
            i, x = stack.pop()
            acc += x if i & 1 else -x
    return acc


_VECTOR = [(i * 37) % 101 - 50 for i in range(60)]


def reference_slice():
    """Seconds one run of the reference loop takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def factor(samples, start, end):
    """Trimmed mean of REF_S / slice time over the samples near [start, end].

    ``samples`` holds (time taken, slice seconds) pairs.  When no sample
    lies within PAD_S of the interval, all of them are used.
    """
    near = [dt for t, dt in samples if start - PAD_S <= t <= end + PAD_S]
    if not near:
        near = [dt for _, dt in samples]
    if not near:
        raise ValueError("no speed samples")
    ratios = sorted(REF_S / dt for dt in near)
    cut = int(len(ratios) * TRIM)
    kept = ratios[cut:len(ratios) - cut]
    return sum(kept) / len(kept)


def scaled(samples, start, end, spent):
    """Seconds from start to end, less ``spent`` in the handler, at the
    reference speed."""
    return (end - start - spent) * factor(samples, start, end)


class Sampler:
    """Reference slices taken every INTERVAL_S between start and stop.

    The slices run in the main thread, between the program's bytecodes,
    so ``spent`` (the handler's total time) has to be taken out of any
    duration measured meanwhile.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, reference_slice()))
        self.spent += time.perf_counter() - t

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
