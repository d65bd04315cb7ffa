"""The enumeration core: ort, topes, o-vectors, m(M,k), the hypercube-ball
criterion, and tope-graph export.

The o-vector pass iterates the 2^(n-1) sign vectors with element 1 fixed to +
(antipodal symmetry is exact, so every count is doubled).  ``_ort_of`` is the
one vectorized kernel: it broadcasts circuit masks against candidate topes
tile by tile and counts separations with bitwise_count.  Every ort query, from
one sign vector to the whole enumeration, goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .circuits import CircuitSet
from .errors import DimensionError, DomainError
from .signvec import SignVector

TOPE_GRAPH_MAX_N = 16
# Kernel limits: entries per circuits x candidates tile, and the largest
# enumeration accepted (checked before anything is allocated).
BLOCK_ELEMENTS = 1 << 13
PAIR_BUDGET = 1 << 32
CANDIDATE_BUDGET = 1 << 27


def ort(cs: CircuitSet, t: SignVector) -> int:
    """Minimum orthogonality degree of t against all circuits.

    0 iff t is not a tope; symmetric under t -> -t.
    """
    cs.require_nonempty()
    if t.n != cs.n:
        raise DimensionError(f"length mismatch: {t.n} != {cs.n}")
    if not t.is_full():
        raise DomainError("ort requires a full-support sign vector")
    return int(_ort_of(cs, np.array([t.minus], dtype=np.uint64))[0])


def is_tope(cs: CircuitSet, t: SignVector) -> bool:
    """True iff t is full and orthogonal to every circuit."""
    cs.require_nonempty()
    return t.is_full() and ort(cs, t) > 0


def _ort_of(cs: CircuitSet, minus_masks: np.ndarray) -> np.ndarray:
    """ort value (uint8) of each full sign vector, given by its uint64
    minus-mask (any mask over the n elements, element 1 included).

    For a full sign vector T with minus-mask M, the separation of a circuit
    X is |supp(X) & (X^- xor M)| and its agreement is |supp(X)| minus that.
    Both are evaluated on tiles of circuits x candidates holding about
    BLOCK_ELEMENTS entries, folded into a running minimum per candidate.
    """
    support = (cs.plus | cs.minus)[:, None]
    xminus = cs.minus[:, None]
    size = np.bitwise_count(support)
    total = len(minus_masks)
    cols = max(1, min(total, BLOCK_ELEMENTS))
    rows = max(1, BLOCK_ELEMENTS // cols)
    best = np.empty(total, dtype=np.uint8)
    for start in range(0, total, cols):
        minus = minus_masks[start : start + cols]
        run = None
        for lo in range(0, len(cs.plus), rows):
            tile = slice(lo, lo + rows)
            sep = np.bitwise_count(support[tile] & (xminus[tile] ^ minus))
            np.minimum(sep, size[tile] - sep, out=sep)
            low = sep.min(axis=0)
            run = low if run is None else np.minimum(run, low, out=run)
        best[start : start + len(minus)] = run
    return best


def _check_budget(count: int, candidates: int):
    """Refuse, before anything is allocated, an evaluation of ``count``
    circuits against ``candidates`` sign vectors beyond the kernel limits."""
    if candidates > CANDIDATE_BUDGET or count * candidates > PAIR_BUDGET:
        raise DomainError(
            f"{count} circuits x {candidates} sign vectors exceeds the enumeration "
            f"budget of {PAIR_BUDGET} pairs and {CANDIDATE_BUDGET} candidates"
        )


def _candidates(start: int, stop: int) -> np.ndarray:
    """Minus-masks of enumeration indices start..stop-1 (index i is the
    minus-mask over elements 2..n, shifted down by one bit)."""
    return np.arange(start, stop, dtype=np.uint64) << np.uint64(1)


def _ort_array(cs: CircuitSet) -> np.ndarray:
    """ort value (uint8) for every sign vector with element 1 fixed to +,
    in enumeration order."""
    total = 1 << (cs.n - 1)
    _check_budget(len(cs.plus), total)
    if total <= BLOCK_ELEMENTS:  # a single tile needs no staging buffer
        return _ort_of(cs, _candidates(0, total))
    best = np.empty(total, dtype=np.uint8)
    for start in range(0, total, BLOCK_ELEMENTS):
        stop = min(start + BLOCK_ELEMENTS, total)
        best[start:stop] = _ort_of(cs, _candidates(start, stop))
    return best


def first_index_at_least(cs: CircuitSet, level: int) -> int | None:
    """Enumeration index of the first sign vector with element 1 fixed to +
    whose ort is at least ``level``; None if there is none.  Tiles are
    evaluated in order and the walk stops at the first tile with a hit."""
    cs.require_nonempty()
    total = 1 << (cs.n - 1)
    _check_budget(len(cs.plus), total)
    for start in range(0, total, BLOCK_ELEMENTS):
        stop = min(start + BLOCK_ELEMENTS, total)
        hits = np.flatnonzero(_ort_of(cs, _candidates(start, stop)) >= level)
        if hits.size:
            return start + int(hits[0])
    return None


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
        if not 0 <= k <= (self.r - 1) // 2:
            raise DomainError(f"k={k} outside [0, {(self.r - 1) // 2}]")
        return sum(self.entries[k:])

    @property
    def tope_count(self) -> int:
        return sum(self.entries)

    def m_values(self) -> tuple[int, ...]:
        return tuple(self.m(k) for k in range(len(self.entries)))


def o_vector(cs: CircuitSet) -> OVector:
    """Count topes by exact ort over the halved enumeration space; entries are
    doubled for the antipodal half."""
    cs.require_nonempty()
    counts = np.bincount(_ort_array(cs), minlength=cs.n + 2)
    kmax = (cs.r - 1) // 2
    entries = [2 * int(counts[k + 1]) for k in range(kmax + 1)]
    # ort is capped at floor((r+1)/2) = kmax + 1, so nothing overflows the
    # last entry; assert rather than silently fold.
    if counts[kmax + 2 :].sum():
        raise AssertionError("ort exceeded floor((r+1)/2); circuit set corrupt")
    return OVector(cs.r, cs.n, tuple(entries))


def enumerate_topes(cs: CircuitSet):
    """Yield every tope (both antipodes), element-1-positive ones first."""
    cs.require_nonempty()
    orts = _ort_array(cs)
    full = (1 << cs.n) - 1
    positives = [
        SignVector(cs.n, full & ~(int(i) << 1), int(i) << 1)
        for i in np.nonzero(orts > 0)[0]
    ]
    yield from positives
    yield from (-t for t in positives)


def tope_count(cs: CircuitSet) -> int:
    cs.require_nonempty()
    return 2 * int((_ort_array(cs) > 0).sum())


def m_value(cs: CircuitSet, k: int) -> int:
    """Number of k-neighborly reorientations, m(M,k)."""
    if not 0 <= k <= (cs.r - 1) // 2:
        raise DomainError(f"k={k} outside [0, {(cs.r - 1) // 2}]")
    return o_vector(cs).m(k)


def ball_k_neighborly(cs: CircuitSet, t: SignVector, k: int) -> bool:
    """True iff every sign vector within Hamming distance k of t is a tope,
    i.e. the radius-k ball around t in the tope graph is a full cube ball."""
    if not is_tope(cs, t):
        raise DomainError("ball criterion requires a tope")
    # k beyond floor((r-1)/2) is allowed and simply comes out False
    if not 0 <= k <= cs.n:
        raise DomainError(f"k={k} outside [0, {cs.n}]")
    flips = sum(comb(cs.n, d) for d in range(1, k + 1))
    _check_budget(len(cs.plus), flips)
    return bool((_ort_of(cs, np.uint64(t.minus) ^ _flip_masks(cs.n, k)) > 0).all())


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
