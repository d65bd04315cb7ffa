"""Chirotopes of uniform oriented matroids.

A chirotope is stored as one sign per sorted r-subset of [n], indexed by the
lexicographic rank of the subset.  Evaluation on arbitrary ordered tuples
applies the permutation parity; reorientation, duality and minors are all
exact combinatorial operations on the stored signs.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from operator import xor

import numpy as np

from .errors import DomainError, FormatError, NonUniformError
from .signvec import MAX_GROUND_SET, _mask_from_elements, check_element


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


@dataclass(frozen=True, eq=False)
class Chirotope:
    """Uniform rank-r chirotope on [n]; ``signs[i]`` in {+1,-1} is the value on
    the i-th sorted r-subset in lex order.  Built from any sequence of +1/-1
    (tuple, list or array), ``signs`` is a read-only int8 copy: the row that
    ``parse_sign_rows`` returns."""

    n: int
    r: int
    signs: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs)
        check_signs(self.r, self.n, signs[None])
        signs = signs.astype(np.int8)
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)

    def __eq__(self, other):
        if not isinstance(other, Chirotope):
            return NotImplemented
        return (self.n, self.r) == (other.n, other.r) and np.array_equal(self.signs, other.signs)

    def __hash__(self):
        return hash((self.n, self.r, self.signs.tobytes()))

    # -- evaluation ----------------------------------------------------

    def sign_of_sorted(self, subset: tuple[int, ...]) -> int:
        return int(self.signs[lex_rank(subset, self.n)])

    def eval_basis(self, tup: tuple[int, ...]) -> int:
        """Chirotope value on an ordered r-tuple; 0 iff an entry repeats."""
        if len(tup) != self.r:
            raise DomainError(f"expected an r-tuple of arity {self.r}")
        for e in tup:
            check_element(e, self.n)
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
        return Chirotope(n, r, self.signs[index] * factor)

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
        """Restrict to [n] \\ e; elements above e renumbered down by one
        (``minor_gather``)."""
        check_element(e, self.n)
        if self.n - 1 < self.r:
            raise DomainError("deletion would collapse the rank")
        return self._gather(self.n - 1, self.r, *minor_gather(self.r, self.n, [e], contract=False))

    def contract(self, e: int) -> "Chirotope":
        """Contract e: new sign of S is chi(e, S) on original labels
        (``contract_set``)."""
        return self.contract_set([e])[0]

    def contract_set(self, elements) -> tuple["Chirotope", tuple[int, ...]]:
        """Contract a set S of elements in one gather (``minor_gather``);
        returns the minor and the surviving original labels in order (label
        i+1 of the minor = labels[i])."""
        contracted = set(elements)
        for e in contracted:
            check_element(e, self.n)
        if len(contracted) >= self.r:
            raise DomainError("contraction would collapse the rank")
        index, factor = minor_gather(self.r, self.n, contracted, contract=True)
        labels = tuple(e for e in range(1, self.n + 1) if e not in contracted)
        return self._gather(len(labels), self.r - len(contracted), index, factor), labels

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        return self.signs.tobytes().translate(_CHAR_OF_INT8).decode("ascii")


def check_shape(r: int, n: int, where: str = ""):
    """Refuse a rank/size outside 1 <= r <= n <= MAX_GROUND_SET, before any
    sign is counted or allocated; the message starts with ``where``."""
    if not 1 <= r <= n <= MAX_GROUND_SET:
        raise DomainError(f"{where}invalid rank/size ({r}, {n})")


def check_signs(r: int, n: int, signs: np.ndarray, where=lambda row: ""):
    """The one rule for chirotope signs of rank r on [n], in the rows of the
    2-D array ``signs``: the shape ``check_shape`` passes, rows of C(n, r)
    lex-order signs, then signs of +1/-1 only in each row.  The message of
    the first bad row starts with ``where(row)``."""
    if not 1 <= r <= n <= MAX_GROUND_SET or signs.shape[1:] != (comb(n, r),):
        check_shape(r, n, where(0))
        raise DomainError(f"{where(0)}expected {comb(n, r)} signs, got {signs.shape[1]}")
    uniform = ((signs == 1) | (signs == -1)).all(axis=1)
    if not uniform.all():
        raise NonUniformError(f"{where(np.argmin(uniform))}chirotope signs must be +1/-1 (uniform only)")


def alternating_chirotope(r: int, n: int) -> Chirotope:
    """The alternating (cyclic) matroid: + on every sorted r-subset."""
    check_shape(r, n)
    return Chirotope(n, r, np.ones(comb(n, r), dtype=np.int8))


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


def minor_gather(r: int, n: int, elements, contract: bool) -> tuple[np.ndarray, np.ndarray]:
    """(index, factor): the lex-order signs of M \\ S, or of M / S when
    ``contract``, for the set S of ``elements`` are signs[index] * factor.

    Removing S keeps lex order, so the r-subsets avoiding S are those of the
    renumbered ground set in lex order, and the r-subsets holding S, with S
    taken out, are its (r-|S|)-subsets in lex order.  The sign of T in M / S
    is chi(S in descending order, T), as contracting S one element at a
    time, the largest first, gives it: C(|S|, 2) inversions within S, and
    per e in S the elements of T below e, whose parity is that of T & B for
    B the xor over e of the masks below e."""
    masks = _subset_masks(r, n)
    contracted = set(elements)
    held = np.uint64(sum(1 << (e - 1) for e in contracted))
    index = np.flatnonzero((masks & held) == (held if contract else 0))
    if not contract:
        return index, np.ones(len(index), dtype=np.int8)
    below = np.uint64(reduce(xor, ((1 << (e - 1)) - 1 for e in contracted), 0)) & ~held
    return index, _parity_sign(masks[index] & below) * (-1) ** comb(len(contracted), 2)


def _parity_sign(masks: np.ndarray) -> np.ndarray:
    """+1 (int8) where a mask has an even number of bits, -1 where odd."""
    return 1 - 2 * (np.bitwise_count(masks) & 1).astype(np.int8)


# bytes.translate tables: '+' -> 1 and '-' -> -1 as int8, and back
_INT8_OF_CHAR = bytes((1 if c == ord("+") else 255 if c == ord("-") else 0) for c in range(256))
_CHAR_OF_INT8 = bytes.maketrans(b"\x01\xff", b"+-")


@lru_cache(maxsize=32)
def _colex_of_lex(r: int, n: int) -> np.ndarray:
    """Entry i is the colex position of the i-th r-subset in lex order."""
    subsets = list(combinations(range(n), r))
    colex = sorted(range(len(subsets)), key=lambda i: subsets[i][::-1])
    table = np.argsort(np.array(colex, dtype=np.intp))
    table.flags.writeable = False
    return table


def parse_sign_rows(texts: Sequence[str], r: int, n: int, base_order: str = "lex") -> np.ndarray:
    """The lex-order signs of +/- chirotope strings of length C(n, r), a row
    each (int8, 1 or -1, rows x C(n, r)): one translate over the joined text
    and, for colex text, one gather.  ``base_order`` names the subset order
    of the text: "lex" (our native order) or "colex" for databases using
    colexicographic subset order.  The first bad text raises its error."""
    check_shape(r, n)
    if base_order not in ("lex", "colex"):
        raise DomainError(f"unknown base order {base_order!r}")
    expected = comb(n, r)
    # one byte per character; a character that is not + or - becomes 0
    signs = "".join(texts).encode("ascii", "replace").translate(_INT8_OF_CHAR)
    if not set(map(len, texts)) <= {expected} or 0 in signs:
        for text in texts:
            if len(text) != expected:
                raise FormatError(
                    f"expected {expected} characters for (r={r}, n={n}), got {len(text)}"
                )
            bad = sorted(set(text) - {"+", "-"})
            if "0" in bad:
                raise NonUniformError("non-uniform chirotopes (containing '0') are unsupported")
            if bad:
                raise FormatError(f"invalid characters {bad!r} in chirotope text")
    rows = np.frombuffer(signs, dtype=np.int8).reshape(len(texts), expected)
    return rows[:, _colex_of_lex(r, n)] if base_order == "colex" else rows


def parse_chirotope(text: str, r: int, n: int, base_order: str = "lex") -> Chirotope:
    """Parse a +/- chirotope string of length C(n,r) whose positions follow
    ``base_order`` (see ``parse_sign_rows``)."""
    return Chirotope(n, r, parse_sign_rows([text], r, n, base_order)[0])


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
    return Chirotope(n, r, signs)


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
