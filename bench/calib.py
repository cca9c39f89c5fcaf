"""Machine-speed calibration for the benchmark's gated times.

On a shared machine the speed of one CPU changes by half or more over
minutes, which moves every raw time by the same share.  Each timed sample
is therefore taken between two runs of a fixed pure-Python kernel (tuple
dot products and dict stores, the engine's inner-loop mix), and the gated
figures are in calibrated seconds:

    calibrated = measured seconds * REFERENCE_S / kernel seconds beside them

A change to the engine moves the measured seconds and not the kernel, so
it shows; a slower machine moves both, so it cancels.  The raw seconds
are printed next to every calibrated figure.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the kernel time on the faster CPU of a shared 2-vCPU Xeon VM with
# Python 3.11 (5.3-6 ms; the slower CPU took 10 ms at the same moment), so
# calibrated seconds read close to seconds on a fast CPU.  A constant of
# the benchmark: changing it rescales every gated time.
REFERENCE_S = 0.0055

_VECS = [tuple((i * 7 + j) % 11 - 5 for j in range(12)) for i in range(64)]


def _kernel() -> float:
    t0 = perf_counter()
    acc = 0
    seen = {}
    for _ in range(3):
        for a in _VECS:
            for b in _VECS[:24]:
                acc += sum(x * y for x, y in zip(a, b))
            seen[a] = acc
    return perf_counter() - t0


def kernel_s() -> float:
    """Median of five kernel runs, in seconds."""
    return statistics.median(_kernel() for _ in range(5))
