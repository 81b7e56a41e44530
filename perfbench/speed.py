"""Times at the nominal speed of the machine, whatever its speed right now.

A shared host changes the speed of its virtual CPUs by up to 1.4x, for
seconds to minutes, as its other tenants come and go.  The package's work
(Python driving many small numpy operations) and a fixed loop of the same
kind of operations slow down together, so the benchmark times
:func:`reference` next to each part it measures and reports the part's
time as :func:`at_nominal_speed` gives it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_STEPS = 800
# The time reference() stands for: on a 2-vCPU Xeon VM (2.1 GHz, Python
# 3.11.7, numpy 2.4.6) it took 2.5-4.6 ms, with a median of 3.8 ms, next to
# the calls of twenty benchmark runs; 4.5 ms is near the slow end of that.
NOMINAL_REFERENCE_S = 0.0045
_MATRICES = [np.random.default_rng(0).standard_normal((16, 16)) for _ in range(4)]


def reference() -> float:
    """Seconds a fixed loop of small numpy matrix operations takes right now.

    It touches nothing of the package, so changes to the package do not
    change it.
    """
    start = time.perf_counter()
    x = _MATRICES[0]
    for i in range(REFERENCE_STEPS):
        x = np.tanh(x @ _MATRICES[i % 4]) * 0.5 + _MATRICES[(i + 1) % 4]
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while reference() took ``reference_s``, at nominal speed."""
    return seconds * NOMINAL_REFERENCE_S / reference_s
