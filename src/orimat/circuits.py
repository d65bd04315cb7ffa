"""Circuits and cocircuits of a uniform chirotope, derived with one gather
through a cached facet table and packed into sign masks.

Circuits are stored one representative per antipodal pair, normalized so the
smallest support element carries +.  In a uniform rank-r matroid the circuit
supports are exactly the (r+1)-subsets of [n].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .chirotope import Chirotope
from .errors import DomainError, EmptyCircuitSetError
from .signvec import SignVector


@dataclass(frozen=True, eq=False)
class CircuitSet:
    """Normalized circuits of a uniform matroid (one per antipodal pair), as
    read-only uint64 ``plus``/``minus`` mask arrays, one entry per support in
    lex order.  Masks that break any of this are refused."""

    n: int
    r: int
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        if len(self.plus) != (comb(self.n, self.r + 1) if self.n > self.r else 0):
            raise DomainError("wrong number of circuits for a uniform matroid")
        if len(self.minus) != len(self.plus):
            raise DomainError("plus and minus mask arrays differ in length")
        if self.empty:
            return
        support = self.plus | self.minus
        if not np.array_equal(support, _facet_table(self.r, self.n)[2]):
            raise DomainError("circuit supports are not the (r+1)-subsets of [n] in lex order")
        if (self.plus & self.minus).any():
            raise DomainError("a circuit has an element in both plus and minus")
        if (self.minus & support & (~support + np.uint64(1))).any():
            raise DomainError("a circuit is not normalized: its smallest element is not +")

    def __eq__(self, other):
        return (
            isinstance(other, CircuitSet)
            and (self.n, self.r) == (other.n, other.r)
            and np.array_equal(self.plus, other.plus)
            and np.array_equal(self.minus, other.minus)
        )

    @cached_property
    def members(self) -> tuple[SignVector, ...]:
        return tuple(
            SignVector(self.n, p, m)
            for p, m in zip(self.plus.tolist(), self.minus.tolist())
        )

    @property
    def empty(self) -> bool:
        return not len(self.plus)

    def require_nonempty(self):
        require_circuits(self.r, self.n)


def require_circuits(r: int, n: int):
    """Refuse rank r on n <= r elements: a uniform matroid there has no
    circuits, so ort, o-vectors and m(M,k) are undefined."""
    if n <= r:
        raise EmptyCircuitSetError(
            f"rank {r} on {n} elements has no circuits; orthogonality statistics are undefined"
        )


@lru_cache(maxsize=32)
def _facet_table(r: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each (r+1)-support of [n] in lex order: the lex ranks of its r+1
    facets (the support minus its i-th element), the bit of each element and
    the support mask; plus the alternating signs (-1)^i of the positions."""
    rank = {s: i for i, s in enumerate(combinations(range(n), r))}
    supports = list(combinations(range(n), r + 1))
    facets = np.array(
        [[rank[s[:i] + s[i + 1 :]] for i in range(r + 1)] for s in supports],
        dtype=np.intp,
    )
    bits = np.array([[1 << e for e in s] for s in supports], dtype=np.uint64)
    alternating = np.array([(-1) ** i for i in range(r + 1)], dtype=np.int8)
    table = facets, bits, bits.sum(axis=1, dtype=np.uint64), alternating
    for array in table:
        array.flags.writeable = False
    return table


def circuit_negatives(r: int, n: int, signs: np.ndarray, count: int | None = None) -> np.ndarray:
    """Which elements of each circuit are -, from lex-order chirotope signs
    (int8, C(n, r) on the last axis): bool, one row of r+1 per support
    B = b_1 < ... < b_{r+1} in lex order, leading axes carried through; only
    the first ``count`` supports if it is given (the first C(n-1, r) are
    those that hold element 1).

    The recurrence X_{b_{i+1}} = -X_{b_i} * chi(B - b_i) * chi(B - b_{i+1}),
    seeded with X_{b_1} = +, telescopes to X_{b_i} = (-1)^(i-1) *
    chi(B - b_1) * chi(B - b_i).  Removing one element from a sorted tuple
    keeps it sorted, so one gather through the cached facet table gives
    every circuit at once.
    """
    facets, _, _, alternating = _facet_table(r, n)
    h = signs[..., facets[:count]] * alternating
    return h != h[..., :1]


def pack_signs(negative: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The sum of ``weights`` where the bool ``negative`` is set, over the
    last axis: the minus masks with element bits (``circuit_minus``), a
    uint8 of r+1 <= 8 signs with weights 1 << i.  einsum is 2-7x faster
    than a sum or a uint8 matmul over such a short axis."""
    return np.einsum("...i,...i->...", negative.view(np.uint8), weights)


def circuit_minus(r: int, n: int, signs: np.ndarray) -> np.ndarray:
    """The minus masks (uint64) of the normalized circuits, one per support
    in lex order, of the chirotopes whose lex-order signs are the int8 array
    ``signs`` (``circuit_negatives``); leading axes are carried through."""
    return pack_signs(circuit_negatives(r, n, signs), _facet_table(r, n)[1])


def circuits_from_chirotope(chi: Chirotope) -> CircuitSet:
    """The normalized circuits of chi on every (r+1)-subset of [n]
    (``circuit_minus``).  The derivation gives lex-order supports, disjoint
    plus and minus and a + smallest element, so the set is built without
    ``CircuitSet``'s check."""
    if chi.n == chi.r:
        minus = np.zeros(0, dtype=np.uint64)
        plus = minus
    else:
        minus = circuit_minus(chi.r, chi.n, chi.signs)
        plus = _facet_table(chi.r, chi.n)[2] - minus
    plus.flags.writeable = minus.flags.writeable = False
    cs = object.__new__(CircuitSet)
    cs.__dict__.update(n=chi.n, r=chi.r, plus=plus, minus=minus)
    return cs


def cocircuits(chi: Chirotope) -> CircuitSet:
    """Cocircuits of chi = circuits of its dual (supports of size n-r+1)."""
    return circuits_from_chirotope(chi.dual())
