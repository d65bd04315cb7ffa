"""The enumeration core: ort, topes, o-vectors, m(M,k), the hypercube-ball
criterion, and tope-graph export.

Enumerations cover the sign vectors with element 1 fixed to + (antipodal
symmetry is exact, so every count is doubled).  ``_ort_of`` is the one
vectorized kernel: it broadcasts a slice of circuit masks against candidate
sign vectors tile by tile and counts separations with bitwise_count.  Every
ort query, from one sign vector to the whole enumeration, goes through it.

The enumeration (``_grow``) is a growth fold.  Every circuit has a largest
element j, and a tope restricts to a tope of the deletion, so candidates on
[j-1] are extended by +-j and only the circuits whose largest element is j
are folded into their running minimum; a candidate is dropped once that
minimum falls below the level asked for (1 for o-vectors and the tope
list, k+1 for m(M,k) and the search).  The first j0 elements are a dense
prefix: all n of them, one kernel call with no reorder or filter, while the
full sweep stays within DENSE_PAIRS pairs; otherwise the first r+1.  Sizes
are refused before anything is allocated by closed forms for the kernel
pairs and the largest candidate array (``_enumeration_cost``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .circuits import CircuitSet, _facet_table
from .errors import DimensionError, DomainError
from .signvec import MAX_GROUND_SET, SignVector

TOPE_GRAPH_MAX_N = 16
# Entries per circuits x candidates tile of the kernel.
BLOCK_ELEMENTS = 1 << 13
# An enumeration whose full sweep is at most this many circuit x sign-vector
# pairs is one dense kernel call; a larger one grows from its first r+1
# elements.
DENSE_PAIRS = 1 << 15
# Limits on an enumeration, checked before anything is allocated: kernel
# pairs and the largest candidate array.
PAIR_BUDGET = 1 << 32
CANDIDATE_BUDGET = 1 << 24


def ort(cs: CircuitSet, t: SignVector) -> int:
    """Minimum orthogonality degree of t against all circuits.

    0 iff t is not a tope; symmetric under t -> -t.
    """
    cs.require_nonempty()
    if t.n != cs.n:
        raise DimensionError(f"length mismatch: {t.n} != {cs.n}")
    if not t.is_full():
        raise DomainError("ort requires a full-support sign vector")
    return int(_ort_of(cs.plus, cs.minus, np.array([t.minus], dtype=np.uint64))[0])


def is_tope(cs: CircuitSet, t: SignVector) -> bool:
    """True iff t is full and orthogonal to every circuit."""
    cs.require_nonempty()
    return t.is_full() and ort(cs, t) > 0


def _ort_of(plus: np.ndarray, minus: np.ndarray, minus_masks: np.ndarray) -> np.ndarray:
    """Minimum orthogonality degree (uint8) of each full sign vector, given by
    its uint64 minus-mask, against the circuits with the (non-empty) plus/minus
    mask arrays ``plus`` and ``minus``.

    For a full sign vector T with minus-mask M, the separation of a circuit
    X is |supp(X) & (X^- xor M)| and its agreement is |supp(X)| minus that.
    Both are evaluated on tiles of circuits x candidates holding about
    BLOCK_ELEMENTS entries, folded into a running minimum per candidate.
    """
    support = (plus | minus)[:, None]
    xminus = minus[:, None]
    size = np.bitwise_count(support)
    total = len(minus_masks)
    cols = max(1, min(total, BLOCK_ELEMENTS))
    rows = max(1, BLOCK_ELEMENTS // cols)
    best = np.empty(total, dtype=np.uint8)
    for start in range(0, total, cols):
        chunk = minus_masks[start : start + cols]
        run = None
        for lo in range(0, len(plus), rows):
            tile = slice(lo, lo + rows)
            sep = np.bitwise_count(support[tile] & (xminus[tile] ^ chunk))
            np.minimum(sep, size[tile] - sep, out=sep)
            low = sep.min(axis=0)
            run = low if run is None else np.minimum(run, low, out=run)
        best[start : start + len(chunk)] = run
    return best


def check_k(r: int, k: int, lo: int = 0):
    """Refuse a level k outside [lo, floor((r-1)/2)], the range at rank r."""
    if not lo <= k <= (r - 1) // 2:
        raise DomainError(f"k={k} outside [{lo}, {(r - 1) // 2}]")


def check_enumeration_size(r: int, n: int):
    """Refuse an over-budget enumeration at (r, n) before any chirotope is
    built; an invalid (r, n) is left to the constructors."""
    if 1 <= r < n <= MAX_GROUND_SET:
        _plan(r, n)


def _check_budget(pairs: int, candidates: int):
    """Refuse, before anything is allocated, a kernel run beyond the limits."""
    if pairs > PAIR_BUDGET or candidates > CANDIDATE_BUDGET:
        raise DomainError(
            f"{pairs} circuit x sign-vector pairs and {candidates} candidates "
            f"exceed the enumeration budget of {PAIR_BUDGET} pairs and "
            f"{CANDIDATE_BUDGET} candidates"
        )


@lru_cache(maxsize=None)
def _plan(r: int, n: int) -> int:
    """j0, the number of leading elements whose sign vectors are swept
    densely: all n when the full sweep is small, otherwise the first r+1.
    An enumeration beyond the budget is refused first."""
    j0 = n if comb(n, r + 1) << (n - 1) <= DENSE_PAIRS else r + 1
    _check_budget(*_enumeration_cost(r, n, j0))
    return j0


def _enumeration_cost(r: int, n: int, j0: int) -> tuple[int, int]:
    """Closed-form cost of ``_grow`` at (r, n) with a dense prefix of j0
    elements: (kernel pairs, largest candidate array).

    The prefix costs 2^(j0-1) * C(j0, r+1) pairs.  Level j > j0 extends the
    T(j-1) survivors on [j-1], where T(m) = sum_{i<r} C(m-1, i) is the halved
    tope count of a uniform rank-r matroid on m elements, by +-j and folds in
    the C(j-1, r) circuits whose largest element is j.  Sign data that is not
    a chirotope can leave more survivors, but at most C(j-1, r)/2 more: they
    shatter no (r+1)-set, so Sauer-Shelah applies.
    """

    def halved_topes(m):
        return sum(comb(m - 1, i) for i in range(r))

    levels = [2 * halved_topes(j - 1) for j in range(j0 + 1, n + 1)]
    pairs = (1 << (j0 - 1)) * comb(j0, r + 1) + sum(
        size * comb(j - 1, r) for j, size in zip(range(j0 + 1, n + 1), levels)
    )
    candidates = max([1 << (j0 - 1)] + levels)
    return pairs, candidates


@lru_cache(maxsize=32)
def _growth_order(r: int, n: int) -> np.ndarray:
    """The permutation that sorts the lex-ordered circuits of a uniform
    rank-r matroid on [n] by support mask.  Sorting by mask groups them by
    largest element: the first C(j, r+1) lie inside [j], so the circuits
    whose largest element is j are positions C(j-1, r+1)..C(j, r+1)-1."""
    order = np.argsort(_facet_table(r, n)[2], kind="stable")
    order.flags.writeable = False
    return order


def _grow(cs: CircuitSet, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Minus-masks (uint64, ascending) and ort values (uint8) of sign
    vectors with element 1 fixed to +, among them every one whose ort is at
    least ``level``; candidates below ``level`` may or may not be present.

    The growth fold of the module docstring.  A running minimum only falls,
    so dropping one below ``level`` loses nothing, and after element n it is
    the exact ort.  The +j copies go after the -j ones, so the masks stay
    ascending.  With j0 = n this is one unfiltered kernel call.
    """
    cs.require_nonempty()
    r, n = cs.r, cs.n
    j0 = _plan(r, n)
    masks = np.arange(1 << (j0 - 1), dtype=np.uint64) << np.uint64(1)
    if j0 == n:
        return masks, _ort_of(cs.plus, cs.minus, masks)
    order = _growth_order(r, n)
    plus, minus = cs.plus[order], cs.minus[order]
    lo = comb(j0, r + 1)
    run = _ort_of(plus[:lo], minus[:lo], masks)
    for j in range(j0 + 1, n + 1):
        keep = run >= level
        masks, run = masks[keep], run[keep]
        if not len(masks):
            break
        masks = np.concatenate([masks, masks | np.uint64(1 << (j - 1))])
        hi = comb(j, r + 1)
        run = np.minimum(np.tile(run, 2), _ort_of(plus[lo:hi], minus[lo:hi], masks))
        lo = hi
    keep = run >= level
    return masks[keep], run[keep]


def first_index_at_least(cs: CircuitSet, level: int) -> int | None:
    """Enumeration index (minus-mask over elements 2..n, shifted down by one
    bit) of the first sign vector with element 1 fixed to + whose ort is at
    least ``level``; None if there is none."""
    masks, orts = _grow(cs, level)
    hits = np.flatnonzero(orts >= level)
    return int(masks[hits[0]]) >> 1 if hits.size else None


@dataclass(frozen=True)
class OVector:
    """Entry k counts topes with ort exactly k+1, for k = 0..floor((r-1)/2)."""

    r: int
    n: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != (self.r - 1) // 2 + 1:
            raise DomainError("o-vector has one entry per k = 0..floor((r-1)/2)")

    def m(self, k: int) -> int:
        """Number of at-least-k-neighborly reorientations (tail sum)."""
        check_k(self.r, k)
        return sum(self.entries[k:])

    @property
    def tope_count(self) -> int:
        return sum(self.entries)

    def m_values(self) -> tuple[int, ...]:
        return tuple(self.m(k) for k in range(len(self.entries)))


def o_vector(cs: CircuitSet) -> OVector:
    """Count topes by exact ort over the halved enumeration space; entries are
    doubled for the antipodal half."""
    counts = np.bincount(_grow(cs, 1)[1], minlength=cs.n + 2)
    kmax = (cs.r - 1) // 2
    entries = [2 * int(counts[k + 1]) for k in range(kmax + 1)]
    # ort is capped at floor((r+1)/2) = kmax + 1, so nothing overflows the
    # last entry; assert rather than silently fold.
    if counts[kmax + 2 :].sum():
        raise AssertionError("ort exceeded floor((r+1)/2); circuit set corrupt")
    return OVector(cs.r, cs.n, tuple(entries))


def enumerate_topes(cs: CircuitSet):
    """Yield every tope (both antipodes), element-1-positive ones first."""
    masks, orts = _grow(cs, 1)
    full = (1 << cs.n) - 1
    positives = [SignVector(cs.n, full & ~m, m) for m in masks[orts > 0].tolist()]
    yield from positives
    yield from (-t for t in positives)


def tope_count(cs: CircuitSet) -> int:
    return m_value(cs, 0)


def m_value(cs: CircuitSet, k: int) -> int:
    """Number of k-neighborly reorientations, m(M,k): the topes with ort at
    least k+1, grown at that level.  k is checked before any enumeration."""
    check_k(cs.r, k)
    return 2 * int((_grow(cs, k + 1)[1] > k).sum())


def ball_k_neighborly(cs: CircuitSet, t: SignVector, k: int) -> bool:
    """True iff every sign vector within Hamming distance k of t is a tope,
    i.e. the radius-k ball around t in the tope graph is a full cube ball."""
    if not is_tope(cs, t):
        raise DomainError("ball criterion requires a tope")
    # k beyond floor((r-1)/2) is allowed and simply comes out False
    if not 0 <= k <= cs.n:
        raise DomainError(f"k={k} outside [0, {cs.n}]")
    flips = sum(comb(cs.n, d) for d in range(1, k + 1))
    _check_budget(len(cs.plus) * flips, flips)
    flipped = np.uint64(t.minus) ^ _flip_masks(cs.n, k)
    return bool((_ort_of(cs.plus, cs.minus, flipped) > 0).all())


def _flip_masks(n: int, k: int) -> np.ndarray:
    """Every mask over n elements with 1..k bits set (uint64), built one
    bit count at a time by adding a bit above the highest one."""
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    level = np.zeros(1, dtype=np.uint64)
    levels = [np.zeros(0, dtype=np.uint64)]
    for _ in range(k):
        level = np.concatenate([level[level < bit] | bit for bit in bits])
        levels.append(level)
    return np.concatenate(levels)


def tope_graph_edges(cs: CircuitSet) -> list[tuple[SignVector, SignVector]]:
    """Edges between topes differing in a single coordinate."""
    cs.require_nonempty()
    if cs.n > TOPE_GRAPH_MAX_N:
        raise DomainError(
            f"tope graph export capped at n <= {TOPE_GRAPH_MAX_N} (got n={cs.n})"
        )
    topes = list(enumerate_topes(cs))
    index = {(t.plus, t.minus) for t in topes}
    edges = []
    for t in topes:
        for i in range(cs.n):
            other = t.reorient_mask(1 << i)
            if (other.plus, other.minus) in index and (t.plus < other.plus):
                edges.append((t, other))
    return edges
