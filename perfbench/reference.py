"""A fixed reference loop that the timed passes are measured against.

The machine this benchmark was built on is shared: its speed drifts by up to
±25% between 25-second windows, and CPU time tracks wall time, so the drift
is contention for the cores, not waiting.  Running this loop right before
every CLI invocation and reporting pass time in units of its duration
cancels most of that drift (a same-seed experiment: spread of pass time 0.20,
of the ratio 0.04).

The loop imitates orimat's mix of work without calling orimat: frozen
dataclass and NamedTuple churn with bit operations (as in ort), subset
ranking with ``math.comb`` and tuple slicing (as in circuit derivation) and
a small numpy popcount kernel (as in o_vector).  It is part of the
benchmark's definition: change it and earlier figures stop being comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from time import perf_counter
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class _Vector:
    n: int
    plus: int
    minus: int


class _Degree(NamedTuple):
    sep: int
    agr: int


_MASKS = np.arange(1 << 15, dtype=np.uint64)


def _python_part() -> int:
    best, seen = 99, {}
    for subset in combinations(range(1, 13), 6):
        plus = minus = 0
        for i, e in enumerate(subset):
            if i % 2:
                minus |= 1 << e
            else:
                plus |= 1 << e
        x, y = _Vector(12, plus, minus), _Vector(12, minus, plus)
        d = _Degree((x.plus & y.minus).bit_count(), (x.plus & y.plus).bit_count())
        seen[(x.plus, x.minus)] = d
        best = min(best, d.sep + d.agr)
    return best + len(seen)


def _rank_part() -> int:
    total = 0
    for support in combinations(range(1, 11), 5):
        for i in range(5):
            subset = support[:i] + support[i + 1 :]
            rank = prev = 0
            for j, c in enumerate(subset):
                for k in range(prev + 1, c):
                    rank += comb(10 - k, 3 - j)
                prev = c
            total += rank
    return total


def _numpy_part() -> int:
    best = np.full(_MASKS.size, 64, dtype=np.int64)
    for x in range(60):
        mask = np.uint64(x * 2654435761 & 0xFFFF)
        np.minimum(best, np.bitwise_count(_MASKS & mask).astype(np.int64), out=best)
    return int(best.sum())


def reference_seconds() -> float:
    """Wall time of one run of the reference loop (about 30 ms)."""
    start = perf_counter()
    for _ in range(2):
        _python_part()
        _rank_part()
    _numpy_part()
    return perf_counter() - start
