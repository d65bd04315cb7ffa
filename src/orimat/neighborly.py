"""The enumeration core: ort, topes, o-vectors, m(M,k), the hypercube-ball
criterion, and tope-graph export.

The o-vector pass iterates the 2^(n-1) sign vectors with element 1 fixed to +
(antipodal symmetry is exact, so every count is doubled).  ``_ort_array`` is
the one vectorized kernel: it broadcasts circuit masks against candidate
topes tile by tile and counts separations with bitwise_count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circuits import CircuitSet
from .errors import DimensionError, DomainError
from .signvec import SignVector, orthogonality_degree

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
    best = cs.n + 1
    for x in cs.members:
        deg = orthogonality_degree(x, t).degree
        if deg < best:
            best = deg
            if best == 0:
                break
    return best


def is_tope(cs: CircuitSet, t: SignVector) -> bool:
    """True iff t is orthogonal to every circuit (early exit on degree 0)."""
    cs.require_nonempty()
    if not t.is_full():
        return False
    for x in cs.members:
        if orthogonality_degree(x, t).degree == 0:
            return False
    return True


def _ort_array(cs: CircuitSet) -> np.ndarray:
    """ort value (uint8) for every sign vector with element 1 fixed to +,
    indexed by the minus-mask over elements 2..n (shifted down by one bit).

    For a full sign vector T with minus-mask M, the separation of a circuit
    X is |supp(X) & (X^- xor M)| and its agreement is |supp(X)| minus that.
    Both are evaluated on tiles of circuits x candidates holding about
    BLOCK_ELEMENTS entries, folded into a running minimum per candidate.
    """
    n = cs.n
    total = 1 << (n - 1)
    count = len(cs.plus)
    if total > CANDIDATE_BUDGET or count * total > PAIR_BUDGET:
        raise DomainError(
            f"{count} circuits x 2^{n - 1} candidates exceeds the enumeration "
            f"budget of {PAIR_BUDGET} pairs and {CANDIDATE_BUDGET} candidates"
        )
    support = (cs.plus | cs.minus)[:, None]
    xminus = cs.minus[:, None]
    size = np.bitwise_count(support)
    cols = min(total, BLOCK_ELEMENTS)
    rows = max(1, BLOCK_ELEMENTS // cols)
    best = np.empty(total, dtype=np.uint8)
    for start in range(0, total, cols):
        minus = np.arange(start, min(start + cols, total), dtype=np.uint64) << np.uint64(1)
        run = None
        for lo in range(0, count, rows):
            tile = slice(lo, lo + rows)
            sep = np.bitwise_count(support[tile] & (xminus[tile] ^ minus))
            np.minimum(sep, size[tile] - sep, out=sep)
            low = sep.min(axis=0)
            run = low if run is None else np.minimum(run, low, out=run)
        best[start : start + len(minus)] = run
    return best


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
    for d in range(1, k + 1):
        for flip in combinations(range(cs.n), d):
            mask = 0
            for i in flip:
                mask |= 1 << i
            if not is_tope(cs, t.reorient_mask(mask)):
                return False
    return True


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
