"""Machine-speed calibration: a fixed loop timed beside every operation.

The shared machine the reference figures come from runs the same
pure-Python code up to 2x slower for stretches of seconds to minutes, with
no steal time, so a wall time alone says as much about the machine's state
as about the program.  A short loop of the same kind of work (frozenset
intersections, dict stores, `Fraction` additions), none of it in the
package, is timed before every operation.  Each operation's wall time is
scaled by `REFERENCE_S` over the median loop time of the operations around
it: the result is the operation's time on the machine in its reference
state, and a later change to the package cannot change the loop.
"""
from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# The loop's median time on the machine the README's figures come from
# (Intel Xeon vCPU, Python 3.11).  A scale constant only: it sets the unit,
# so that scaled times read close to wall times there.
REFERENCE_S = 0.0014
# Loop samples on each side of an operation that set its speed factor.
WINDOW = 3

_SETS = [frozenset(range(i, i + 3)) for i in range(60)]
_TERMS = [Fraction(i, i + 1) for i in range(1, 60)]


def loop_s() -> float:
    """Wall time of one pass of the fixed calibration loop.  The collector
    is paused for it, so the loop's time does not grow with the heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        disjoint = {}
        for a in _SETS:
            for b in _SETS:
                if not a & b:
                    disjoint[a, b] = True
        total = Fraction(0)
        for term in _TERMS:
            total += term
        took = perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if len(disjoint) != 3306 or total.denominator == 0:
        raise RuntimeError("calibration loop computed a wrong result")
    return took


def factor(loop_samples: list[float]) -> float:
    """Scale from wall seconds to reference seconds, from nearby loop times."""
    return REFERENCE_S / statistics.median(loop_samples)


def scale(walls: list[float | None], loops: list[float]) -> list[float | None]:
    """Scale each wall time by the median of the loop times within WINDOW
    places of it; `walls` and `loops` are in the order they were taken, and
    a None wall time (a failed operation) stays None."""
    scaled: list[float | None] = []
    for j, wall in enumerate(walls):
        if wall is None:
            scaled.append(None)
            continue
        nearby = loops[max(0, j - WINDOW) : j + WINDOW + 1]
        scaled.append(wall * factor(nearby))
    return scaled
