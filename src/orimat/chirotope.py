"""Chirotopes of uniform oriented matroids.

A chirotope is stored as one sign per sorted r-subset of [n], indexed by the
lexicographic rank of the subset.  Evaluation on arbitrary ordered tuples
applies the permutation parity; reorientation, duality and minors are all
exact combinatorial operations on the stored signs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import DomainError, FormatError, NonUniformError
from .signvec import MAX_GROUND_SET, _mask_from_elements


def lex_rank(subset: tuple[int, ...], n: int) -> int:
    """Rank of a sorted 1-based r-subset in lexicographic order."""
    r = len(subset)
    rank = 0
    prev = 0
    for i, c in enumerate(subset):
        for j in range(prev + 1, c):
            rank += comb(n - j, r - 1 - i)
        prev = c
    return rank


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [row[:] for row in rows]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclass(frozen=True)
class Chirotope:
    """Uniform rank-r chirotope on [n]; ``signs[i]`` in {+1,-1} is the value on
    the i-th sorted r-subset in lex order."""

    n: int
    r: int
    signs: tuple[int, ...]

    def __post_init__(self):
        check_shape(self.r, self.n)
        if len(self.signs) != comb(self.n, self.r):
            raise DomainError(
                f"expected {comb(self.n, self.r)} signs, got {len(self.signs)}"
            )
        if not set(self.signs) <= {1, -1}:
            raise NonUniformError("chirotope signs must be +1/-1 (uniform only)")

    # -- evaluation ----------------------------------------------------

    def sign_of_sorted(self, subset: tuple[int, ...]) -> int:
        return self.signs[lex_rank(subset, self.n)]

    def eval_basis(self, tup: tuple[int, ...]) -> int:
        """Chirotope value on an ordered r-tuple; 0 iff an entry repeats."""
        if len(tup) != self.r:
            raise DomainError(f"expected an r-tuple of arity {self.r}")
        for e in tup:
            if not 1 <= e <= self.n:
                raise DomainError(f"element {e} outside ground set [1..{self.n}]")
        if len(set(tup)) != self.r:
            return 0
        inversions = sum(
            1
            for i in range(self.r)
            for j in range(i + 1, self.r)
            if tup[i] > tup[j]
        )
        parity = -1 if inversions % 2 else 1
        return parity * self.sign_of_sorted(tuple(sorted(tup)))

    # -- structural operations -----------------------------------------

    def _gather(self, n: int, r: int, index, factor) -> "Chirotope":
        """Minor or relabeling whose i-th sign is signs[index[i]] * factor[i]."""
        signs = np.array(self.signs, dtype=np.int8)[index] * factor
        return Chirotope(n, r, tuple(signs.tolist()))

    def reorient(self, r_set) -> "Chirotope":
        """Multiply each basis sign by (-1)^{|basis ∩ R|}."""
        mask = np.uint64(_mask_from_elements(r_set, self.n))
        masks = _subset_masks(self.r, self.n)
        return self._gather(self.n, self.r, slice(None), _parity_sign(masks & mask))

    def dual(self) -> "Chirotope":
        """Rank n-r chirotope with chi*(S) = chi(comp(S)) * sign(S, comp(S)).

        Complementation reverses lex order, so comp(S) of the i-th
        (n-r)-subset is the i-th r-subset from the end.  sign(S, comp(S)) is
        (-1)^(sum over a in S of (a-1), minus C(|S|, 2)), and the sum is
        odd iff S holds an odd number of even elements.
        """
        if self.r == self.n:
            raise DomainError("dual of a rank-n chirotope on n elements is degenerate")
        m = self.n - self.r
        even = np.uint64(_EVEN_ELEMENTS & ((1 << self.n) - 1))
        factor = _parity_sign(_subset_masks(m, self.n) & even) * (-1) ** (m * (m - 1) // 2)
        return self._gather(self.n, m, slice(None, None, -1), factor)

    def delete(self, e: int) -> "Chirotope":
        """Restrict to [n] \\ e; elements above e renumbered down by one.

        The r-subsets avoiding e, in lex order, are the r-subsets of the
        renumbered ground set in lex order.
        """
        if not 1 <= e <= self.n:
            raise DomainError(f"element {e} outside ground set [1..{self.n}]")
        if self.n - 1 < self.r:
            raise DomainError("deletion would collapse the rank")
        bit = np.uint64(1 << (e - 1))
        avoid = np.flatnonzero((_subset_masks(self.r, self.n) & bit) == 0)
        return self._gather(self.n - 1, self.r, avoid, 1)

    def contract(self, e: int) -> "Chirotope":
        """Contract e: new sign of S is chi(e, S) on original labels.

        The r-subsets holding e, in lex order, are e joined to the
        (r-1)-subsets of the renumbered ground set in lex order; moving e to
        the front of one passes the elements below e.
        """
        if not 1 <= e <= self.n:
            raise DomainError(f"element {e} outside ground set [1..{self.n}]")
        if self.r < 2:
            raise DomainError("contraction would collapse the rank")
        bit = np.uint64(1 << (e - 1))
        masks = _subset_masks(self.r, self.n)
        hold = np.flatnonzero(masks & bit)
        below = masks[hold] & (bit - np.uint64(1))
        return self._gather(self.n - 1, self.r - 1, hold, _parity_sign(below))

    def contract_set(self, elements) -> tuple["Chirotope", tuple[int, ...]]:
        """Contract several elements; returns the minor and the surviving
        original labels in order (label i+1 of the minor = labels[i])."""
        chi = self
        labels = list(range(1, self.n + 1))
        for e in sorted(set(elements), reverse=True):
            idx = labels.index(e) + 1
            chi = chi.contract(idx)
            labels.pop(idx - 1)
        return chi, tuple(labels)

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


def check_shape(r: int, n: int):
    """Refuse a rank/size outside 1 <= r <= n <= MAX_GROUND_SET, before any
    sign is counted or allocated."""
    if not 1 <= r <= n <= MAX_GROUND_SET:
        raise DomainError(f"invalid rank/size ({r}, {n})")


def alternating_chirotope(r: int, n: int) -> Chirotope:
    """The alternating (cyclic) matroid: + on every sorted r-subset."""
    check_shape(r, n)
    return Chirotope(n, r, (1,) * comb(n, r))


# bit i set for i odd: the masks of the even elements 2, 4, ...
_EVEN_ELEMENTS = int("10" * (MAX_GROUND_SET // 2), 2)


@lru_cache(maxsize=32)
def _subset_masks(r: int, n: int) -> np.ndarray:
    """Bit mask of each sorted r-subset of [n], in lex order."""
    masks = np.array(
        [sum(1 << e for e in s) for s in combinations(range(n), r)], dtype=np.uint64
    )
    masks.flags.writeable = False
    return masks


def _parity_sign(masks: np.ndarray) -> np.ndarray:
    """+1 (int8) where a mask has an even number of bits, -1 where odd."""
    return 1 - 2 * (np.bitwise_count(masks) & 1).astype(np.int8)


# bytes.translate table: '+' -> 1 and '-' -> -1 as int8
_INT8_OF_CHAR = bytes((1 if c == ord("+") else 255 if c == ord("-") else 0) for c in range(256))


@lru_cache(maxsize=32)
def _colex_of_lex(r: int, n: int) -> np.ndarray:
    """Entry i is the colex position of the i-th r-subset in lex order."""
    subsets = list(combinations(range(n), r))
    colex = sorted(range(len(subsets)), key=lambda i: subsets[i][::-1])
    table = np.argsort(np.array(colex, dtype=np.intp))
    table.flags.writeable = False
    return table


def parse_signs(text: str, r: int, n: int, base_order: str = "lex") -> bytes:
    """Validate a +/- chirotope string of length C(n,r) and return its signs
    in lex order, one int8 (1 or -1) per byte.

    ``base_order`` names the subset order of the text: "lex" (our native
    order) or "colex" for databases using colexicographic subset order.
    """
    check_shape(r, n)
    if base_order not in ("lex", "colex"):
        raise DomainError(f"unknown base order {base_order!r}")
    expected = comb(n, r)
    if len(text) != expected:
        raise FormatError(f"expected {expected} characters for (r={r}, n={n}), got {len(text)}")
    # one byte per character; a character that is not + or - becomes 0
    signs = text.encode("ascii", "replace").translate(_INT8_OF_CHAR)
    if 0 in signs:
        if "0" in text:
            raise NonUniformError("non-uniform chirotopes (containing '0') are unsupported")
        bad = sorted(set(text) - {"+", "-"})
        raise FormatError(f"invalid characters {bad!r} in chirotope text")
    if base_order == "colex":
        signs = np.frombuffer(signs, dtype=np.int8)[_colex_of_lex(r, n)].tobytes()
    return signs


def parse_chirotope(text: str, r: int, n: int, base_order: str = "lex") -> Chirotope:
    """Parse a +/- chirotope string of length C(n,r) whose positions follow
    ``base_order`` (see ``parse_signs``)."""
    return Chirotope(n, r, tuple(memoryview(parse_signs(text, r, n, base_order)).cast("b")))


def from_points(coords: list[list[int]]) -> Chirotope:
    """Chirotope of an integer point configuration (rows = elements).

    Signs are exact integer determinant signs of the r x r row minors; any
    zero minor means the configuration is degenerate.
    """
    n = len(coords)
    if n == 0:
        raise DomainError("empty point configuration")
    r = len(coords[0])
    if any(len(row) != r for row in coords):
        raise DomainError("rows must all have the same length")
    if n < r:
        raise DomainError(f"need at least r={r} points, got {n}")
    signs = []
    for subset in combinations(range(n), r):
        det = _det_bareiss([coords[i] for i in subset])
        if det == 0:
            raise DomainError(
                f"degenerate configuration: zero minor on rows {tuple(i + 1 for i in subset)}"
            )
        signs.append(1 if det > 0 else -1)
    return Chirotope(n, r, tuple(signs))


def random_realizable(r: int, n: int, seed: int) -> Chirotope:
    """Random realizable uniform chirotope from integer points in general
    position, coordinates in [-1000, 1000]; rejection-samples on zero minors
    with an explicit seed."""
    rng = random.Random(seed)
    while True:
        coords = [[rng.randint(-1000, 1000) for _ in range(r)] for _ in range(n)]
        try:
            return from_points(coords)
        except DomainError:
            continue
