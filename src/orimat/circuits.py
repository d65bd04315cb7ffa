"""Circuits and cocircuits of a uniform chirotope, the circuit-axiom oracle,
and the Las Vergnas face test.

Circuits are stored one representative per antipodal pair, normalized so the
smallest support element carries +.  In a uniform rank-r matroid the circuit
supports are exactly the (r+1)-subsets of [n].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .chirotope import Chirotope
from .errors import DomainError, EmptyCircuitSetError
from .signvec import SignVector, _mask_from_elements


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
        if self.empty:
            raise EmptyCircuitSetError(
                f"rank {self.r} on {self.n} elements has no circuits; "
                "orthogonality statistics are undefined"
            )

    def with_antipodes(self) -> tuple[SignVector, ...]:
        return self.members + tuple(-x for x in self.members)


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


def circuit_negatives(r: int, n: int, signs: np.ndarray) -> np.ndarray:
    """Which elements of each circuit are -, from lex-order chirotope signs
    (int8, C(n, r) on the last axis): bool, one row of r+1 per support
    B = b_1 < ... < b_{r+1} in lex order, leading axes carried through.

    The recurrence X_{b_{i+1}} = -X_{b_i} * chi(B - b_i) * chi(B - b_{i+1}),
    seeded with X_{b_1} = +, telescopes to X_{b_i} = (-1)^(i-1) *
    chi(B - b_1) * chi(B - b_i).  Removing one element from a sorted tuple
    keeps it sorted, so one gather through the cached facet table gives
    every circuit at once.
    """
    facets, _, _, alternating = _facet_table(r, n)
    h = signs[..., facets] * alternating
    return h != h[..., :1]


def circuits_from_signs(r: int, n: int, signs: np.ndarray) -> CircuitSet:
    """The normalized circuits of the chirotope whose lex-order signs are
    the int8 array ``signs`` (``circuit_negatives``)."""
    if n == r:
        none = np.zeros(0, dtype=np.uint64)
        return CircuitSet(n, r, none, none)
    _, bits, support, _ = _facet_table(r, n)
    minus = np.where(circuit_negatives(r, n, signs), bits, 0).sum(axis=1, dtype=np.uint64)
    plus = support - minus
    plus.flags.writeable = minus.flags.writeable = False
    return CircuitSet(n, r, plus, minus)


def circuits_from_chirotope(chi: Chirotope) -> CircuitSet:
    """The circuit signs on every (r+1)-subset of [n] (``circuits_from_signs``)."""
    return circuits_from_signs(chi.r, chi.n, np.array(chi.signs, dtype=np.int8))


def cocircuits(chi: Chirotope) -> CircuitSet:
    """Cocircuits of chi = circuits of its dual (supports of size n-r+1)."""
    return circuits_from_chirotope(chi.dual())


@dataclass
class AxiomReport:
    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_circuit_axioms(members: tuple[SignVector, ...]) -> AxiomReport:
    """Brute-force check of the circuit axioms on a set closed-under-negation
    candidate family:

    (C0) no empty member, (C1) closure under negation, (C2) support-comparable
    members equal up to sign, (C3) elimination for every pair and pivot.
    """
    violations = []
    family = set(members)
    for x in members:
        if x.support_mask == 0:
            violations.append("C0: empty sign vector present")
            break
    for x in members:
        if -x not in family:
            violations.append(f"C1: negation of {x} missing")
    for x, y in combinations(members, 2):
        if x.support_mask & ~y.support_mask == 0 or y.support_mask & ~x.support_mask == 0:
            if x != y and x != -y:
                violations.append(f"C2: comparable supports, {x} vs {y}")
    for x in members:
        for y in members:
            if x == -y:
                continue
            pivots = x.plus & y.minus
            while pivots:
                e_bit = pivots & -pivots
                pivots ^= e_bit
                zp_bound = (x.plus | y.plus) & ~e_bit
                zm_bound = (x.minus | y.minus) & ~e_bit
                if not any(
                    z.plus & ~zp_bound == 0 and z.minus & ~zm_bound == 0
                    for z in members
                ):
                    violations.append(
                        f"C3: no eliminant for {x}, {y} at element {e_bit.bit_length()}"
                    )
    return AxiomReport(not violations, violations)


def is_face(cs: CircuitSet, f_set) -> bool:
    """Las Vergnas face test: the vector positive off F and zero on F must be
    orthogonal to every circuit X, that is X^+ and X^- meet [n] \\ F both or
    neither."""
    off = np.uint64(((1 << cs.n) - 1) & ~_mask_from_elements(f_set, cs.n))
    return bool((((cs.plus & off) == 0) == ((cs.minus & off) == 0)).all())
