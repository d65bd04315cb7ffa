"""Analytics for the alternating (cyclic) matroid C_r(n): the closed-form
o-vector, the n = r+1 formula, the exact tope count, the brute-force o-vector
and c-value, and the memoized c_r(n,k) dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .chirotope import alternating_chirotope
from .circuits import CircuitSet, circuits_from_chirotope
from .errors import DomainError
from .neighborly import (
    OVector,
    check_cell,
    check_enumeration_size,
    check_k,
    m_value,
    o_vector,
)


@lru_cache(maxsize=None)
def alternating_circuits(r: int, n: int) -> CircuitSet:
    return circuits_from_chirotope(alternating_chirotope(r, n))


def tope_count_uniform(r: int, n: int) -> int:
    """2 * sum_{i<r} C(n-1, i): tope count of every uniform rank-r matroid."""
    if n < r:
        raise DomainError(f"need n >= r, got (r={r}, n={n})")
    return 2 * sum(comb(n - 1, i) for i in range(r))


def o_vector_closed(r: int, n: int, k: int) -> tuple[int, ...]:
    """Closed-form entries o(C_r(n), i) = 2*C(n, r-1-2i) for i = k..floor((r-1)/2).

    Valid only under n >= 2(r-k)+1 >= r+2; the threshold is sharp.
    """
    check_k(r, k)
    if not (n >= 2 * (r - k) + 1 and 2 * (r - k) + 1 >= r + 2):
        raise DomainError(
            f"closed form needs n >= 2(r-k)+1 >= r+2; got (r={r}, n={n}, k={k})"
        )
    return tuple(2 * comb(n, r - 1 - 2 * i) for i in range(k, (r - 1) // 2 + 1))


def o_vector_small(r: int) -> OVector:
    """o-vector of C_r(r+1): C(r+1, k+1) at k = (r-1)/2, twice that otherwise."""
    if r < 3:
        raise DomainError("n = r+1 formula needs r >= 3")
    entries = []
    for k in range((r - 1) // 2 + 1):
        if 2 * k == r - 1:
            entries.append(comb(r + 1, k + 1))
        else:
            entries.append(2 * comb(r + 1, k + 1))
    return OVector(r, r + 1, tuple(entries))


# The benchmark's traced run (perfbench/spans.py) looks this up by name.
def o_vector_brute(r: int, n: int) -> OVector:
    """Full enumeration on the alternating matroid (independent of the
    closed forms; the authority when formulas disagree)."""
    check_enumeration_size(r, n)
    return o_vector(alternating_circuits(r, n))


def c_value_brute(r: int, n: int, k: int) -> int:
    """c_r(n,k) = m(C_r(n),k) by enumeration, independent of the closed
    forms; an over-budget (r, n) is refused before any circuit is built."""
    check_enumeration_size(r, n)
    return m_value(alternating_circuits(r, n), k)


@dataclass(frozen=True)
class CEntry:
    value: int
    provenance: str  # closed-form | n=r+1-formula | brute-force


class CValueTable:
    """Memo for c_r(n,k) = m(C_r(n), k) with per-entry provenance.

    Dispatch prefers exact closed forms where their hypotheses hold and falls
    back to brute-force enumeration.
    """

    def __init__(self):
        self._memo: dict[tuple[int, int, int], CEntry] = {}

    def entry(self, r: int, n: int, k: int) -> CEntry:
        check_cell(r, n, k)
        key = (r, n, k)
        if key not in self._memo:
            self._memo[key] = self._compute(r, n, k)
        return self._memo[key]

    def c_value(self, r: int, n: int, k: int) -> int:
        return self.entry(r, n, k).value

    def _compute(self, r: int, n: int, k: int) -> CEntry:
        return _formula_entry(r, n, k) or CEntry(c_value_brute(r, n, k), "brute-force")


def _formula_entry(r: int, n: int, k: int) -> CEntry | None:
    """The entry of a cell with a closed form or the n = r+1 formula, each
    O(1); None where only brute force gives the value."""
    if k == 0:
        return CEntry(tope_count_uniform(r, n), "closed-form")
    if n == r + 1:
        return CEntry(o_vector_small(r).m(k), "n=r+1-formula")
    if n >= 2 * (r - k) + 1 and 2 * (r - k) + 1 >= r + 2:
        return CEntry(sum(o_vector_closed(r, n, k)), "closed-form")
    return None


_default_table = CValueTable()


def c_value(r: int, n: int, k: int) -> int:
    """c_r(n,k) via the shared module-level memo table."""
    return _default_table.c_value(r, n, k)
