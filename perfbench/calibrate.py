"""Reference-speed timing for a shared host.

On the shared machine the benchmark was built on, other tenants slow this
CPU by up to ~1.8x, in stretches from seconds to over a minute, so raw wall
times of one run depend mostly on how much of it fell in such a stretch.
A fixed piece of work timed next to the operations slows by nearly the same
factor: the ratio of a fuzz operation to the rational-arithmetic kernel
below stayed within +-3% while both moved 1.7x. Each operation's time is
therefore scaled by reference / (probe time measured next to it), which
reads as the operation's time on that machine when it is not contended.

Two probes: the kernel, for operations that run in this process, and a bare
interpreter start, for operations that are fresh processes (process start
and imports slow by a smaller factor than arithmetic does).
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

_M = [[Fraction(2, 3), Fraction(-1, 2), Fraction(5, 7)],
      [Fraction(1, 3), Fraction(3, 4), Fraction(-2, 5)],
      [Fraction(-7, 9), Fraction(1, 6), Fraction(4, 11)]]


def _kernel():
    """Ten 3x3 rational matrix products: the engine's kind of work, fixed."""
    for _ in range(10):
        [[sum((_M[i][k] * _M[k][j] for k in range(3)), Fraction(0)) for j in range(3)]
         for i in range(3)]


def kernel_seconds() -> float:
    """Best of three kernel timings."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def start_seconds(env=None) -> float:
    """Best of two starts of a bare interpreter that runs nothing."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        best = min(best, perf_counter() - t0)
    return best


class Probe:
    """A speed probe and its uncontended time on the reference machine.

    The references are the fast-state medians on the 2-CPU machine the
    figures in README.md come from.
    """

    def __init__(self, measure, reference_s: float):
        self.measure, self.reference_s = measure, reference_s

    def scale(self, seconds: float, probe_s: float) -> float:
        """A raw duration expressed at the reference speed."""
        return seconds * self.reference_s / probe_s


KERNEL = Probe(kernel_seconds, 0.00080)
START = Probe(start_seconds, 0.042)
