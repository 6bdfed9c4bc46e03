"""Machine-speed calibration for timings on a shared, drifting box.

On the 2-core shared machine the benchmark was built on, the speed of
identical pure-Python work drifts by 15-20% over minutes (3-second medians
of one loop ranged 63-89 ms over 90 s). The benchmark therefore runs this
fixed kernel next to every timed operation and reports calibrated seconds:

    calibrated = raw * NOMINAL_S / (kernel seconds measured beside it)

which is the time the operation would take if the kernel took NOMINAL_S.
In one 60-sample test, 6-sample block medians of a cold N=15 analysis
spread 17% raw, 8.6% calibrated by an integer loop and 5.2% calibrated by
this kernel, which does the same kind of work as the analytic path. The
drift is not shared between the two cores, so the kernel must run in the
timed process, next to the operation. Raw times stay in the run record.
"""

from __future__ import annotations

import math
import time

NOMINAL_S = 0.03    # about the kernel's time on that machine
_LOOPS = 25_000


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _weight(p: _Point, table: dict) -> float:
    return table.get((p.a, p.b), 0.5) * math.exp(-p.a * 1e-3)


def _kernel(n: int) -> float:
    """Interpreter-bound work of the kind the analytic path does: small
    objects, tuple-keyed dict lookups, float math and an fsum."""
    table: dict[tuple[int, int], float] = {}
    terms = []
    for i in range(n):
        p = _Point(i & 63, i % 7)
        key = (p.a, p.b)
        table[key] = _weight(p, table) + 1e-3
        terms.append(table[key])
    return math.fsum(terms)


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    _kernel(_LOOPS)
    return time.perf_counter() - t0


def calibrated(raw_s: float, kernel_s: float) -> float:
    return raw_s * NOMINAL_S / kernel_s
