"""A fixed reference kernel that tracks the machine's speed.

On the 2-core machine the benchmark was built on, the speed of identical
work drifts by up to a factor of two over periods of seconds to minutes,
because of other load on the host. A run's raw times then depend more on
when it ran than on the program. So run.py times this kernel just before and
just after every operation, and scales the operation's time by REFERENCE_S
over the kernel's mean time. The kernel is work of the same kind as the
program's: small numpy arrays behind Python method calls and dictionary
lookups. It never changes with the program, so a change in the program still
shows in full. REFERENCE_S is a round figure close to the kernel's time on
that machine at full speed (0.42-0.47 ms), so scaled times read as seconds
at about full speed.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 5e-4
_SIZE = 15
_PAIRS = np.arange(70) % _SIZE


class _Coefficients:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        return _Coefficients(np.bincount(
            _PAIRS, weights=self.c[_PAIRS] * other.c[_PAIRS[::-1]], minlength=_SIZE))

    def __add__(self, other):
        return _Coefficients(self.c + other.c)


def _kernel_seconds():
    env = {"a": _Coefficients(np.linspace(0.1, 1.0, _SIZE)),
           "b": _Coefficients(np.full(_SIZE, 0.01))}
    start = time.perf_counter()
    acc = env["a"]
    for _ in range(180):
        acc = acc * env["b"] + env["a"]
    return time.perf_counter() - start


def reference_seconds():
    """The kernel's time now: the median of five runs, since one run is
    short enough for an interrupt to double it."""
    return statistics.median(_kernel_seconds() for _ in range(5))
