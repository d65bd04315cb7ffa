"""Sign vectors in {+,-,0}^[n] as pairs of bit masks, plus the bit-parallel
primitives everything else is built on: separation/agreement counts,
orthogonality degree and reorientation.

Elements are named 1..n in all public I/O; internally bit i of a mask stands
for element i+1.  n is capped at 64 so a single machine word suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import DimensionError, DomainError

MAX_GROUND_SET = 64


def check_element(e: int, n: int):
    """Refuse an element outside the ground set [1..n]."""
    if not 1 <= e <= n:
        raise DomainError(f"element {e} outside ground set [1..{n}]")


def _mask_from_elements(elements: Iterable[int], n: int) -> int:
    mask = 0
    for e in elements:
        check_element(e, n)
        mask |= 1 << (e - 1)
    return mask


def _elements_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class SignVector:
    """Immutable sign vector: ``plus`` and ``minus`` are disjoint bit masks."""

    n: int
    plus: int
    minus: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise DomainError(f"ground set size {self.n} not in [1..{MAX_GROUND_SET}]")
        full = (1 << self.n) - 1
        if self.plus & ~full or self.minus & ~full:
            raise DomainError("mask bits outside the ground set")
        if self.plus & self.minus:
            raise DomainError("plus and minus masks overlap")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_elements(cls, n: int, plus: Iterable[int] = (), minus: Iterable[int] = ()) -> "SignVector":
        """Build from 1-based element collections."""
        return cls(n, _mask_from_elements(plus, n), _mask_from_elements(minus, n))

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        """Parse the textual form, e.g. ``"+-+-0"`` (position i = element i)."""
        n = len(text)
        plus = minus = 0
        for i, ch in enumerate(text):
            if ch == "+":
                plus |= 1 << i
            elif ch == "-":
                minus |= 1 << i
            elif ch != "0":
                raise DomainError(f"invalid sign character {ch!r}")
        return cls(n, plus, minus)

    # -- basic structure -----------------------------------------------

    @property
    def support_mask(self) -> int:
        return self.plus | self.minus

    @property
    def support(self) -> tuple[int, ...]:
        """Support as sorted 1-based elements."""
        return _elements_from_mask(self.support_mask)

    @property
    def plus_elements(self) -> tuple[int, ...]:
        return _elements_from_mask(self.plus)

    @property
    def minus_elements(self) -> tuple[int, ...]:
        return _elements_from_mask(self.minus)

    def is_full(self) -> bool:
        """True iff there is no zero entry (tope candidate)."""
        return self.support_mask == (1 << self.n) - 1

    def sign(self, e: int) -> int:
        """Sign at 1-based element e as +1, -1 or 0."""
        check_element(e, self.n)
        bit = 1 << (e - 1)
        if self.plus & bit:
            return 1
        if self.minus & bit:
            return -1
        return 0

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.minus, self.plus)

    def __str__(self) -> str:
        return "".join(
            "+" if self.plus >> i & 1 else "-" if self.minus >> i & 1 else "0"
            for i in range(self.n)
        )

    # -- operations ----------------------------------------------------

    def reorient(self, r_set: Iterable[int]) -> "SignVector":
        """Flip the signs on R (1-based subset of [n]); an involution."""
        mask = _mask_from_elements(r_set, self.n)
        return self.reorient_mask(mask)

    def reorient_mask(self, mask: int) -> "SignVector":
        if mask & ~((1 << self.n) - 1):
            raise DomainError("reorientation set outside the ground set")
        plus = (self.plus & ~mask) | (self.minus & mask)
        minus = (self.minus & ~mask) | (self.plus & mask)
        return SignVector(self.n, plus, minus)


class OrthogonalityDegree(NamedTuple):
    sep: int
    agr: int
    degree: int


# The benchmark's traced run (perfbench/spans.py) looks this up by name.
def orthogonality_degree(x: SignVector, y: SignVector) -> OrthogonalityDegree:
    """Separation |S(X,Y)|, agreement |H(X,Y)| and their minimum.

    S(X,Y) = {e : X_e * Y_e = -},  H(X,Y) = {e : X_e * Y_e = +}.
    """
    if x.n != y.n:
        raise DimensionError(f"length mismatch: {x.n} != {y.n}")
    sep = ((x.plus & y.minus) | (x.minus & y.plus)).bit_count()
    agr = ((x.plus & y.plus) | (x.minus & y.minus)).bit_count()
    return OrthogonalityDegree(sep, agr, min(sep, agr))
