"""The enumeration core: ort, topes, o-vectors, m(M,k), the hypercube-ball
criterion, and tope-graph export.

Enumerations cover the sign vectors with element 1 fixed to + (antipodal
symmetry is exact, so every count is doubled).  ``_ort_of`` is the one
kernel, and every ort verdict, from one sign vector to a batch of database
records, comes from it.  It counts separations as sep =
bitwise_count(table ^ pattern) and folds over the circuit axis as
ort = min over circuits of min(sep, r+1 - sep): every circuit of a uniform
rank-r matroid has r+1 elements, so its agreements with a full sign vector
are r+1 - sep.  It is used in two ways:

- Every ``CircuitSet`` enumeration, single sign vectors and the ball test
  pass uint64 masks in tiles of about BLOCK_ELEMENTS entries:
  table = supp(X) & M and pattern = X^-.
- Database batches at a dense size (``is_dense``: the full sweep is at most
  DENSE_PAIRS pairs and r <= DENSE_RANK = 7; 37 sizes, all with n <= 10)
  build the level-bit table.  A circuit's pattern is its r+1 signs packed
  into one uint8, smallest element first; that element is always +, so 2^r
  patterns per circuit cover them all.  For each circuit, pattern and level
  t = 1..floor((r+1)/2), ``_level_table`` holds the bitset of the 2^(n-1)
  candidates whose ort against that circuit is at least t, in uint64
  words.  It is built one circuit at a time on first use and cached per
  (r, n): C(n, r+1) * 2^r * floor((r+1)/2) * ceil(2^(n-1)/64) words, 29 KB
  at (4,8), 258 KB at (5,9) and at most 1.5 MB, at (7,10).  A chirotope's
  counts are then one gathered row per circuit, an AND over the circuits
  and a popcount per level (``_dense_fold``): level t counts the candidates
  with ort at least t, m(M,t-1)/2.  ``m_values`` folds up to
  _BATCH_ENTRIES = 2^15 gathered words per call (``records_per_call``: 146
  records at (4,8), 32 at (5,9)); database rows come out at about 340k
  rows/s at (4,8) and 195k rows/s at (5,9) (2 vCPU, Python 3.11, numpy
  2.4).  At any other size ``m_values`` grows one record per call.

The enumeration (``_grow``) is a growth fold.  Every circuit has a largest
element j, and a tope restricts to a tope of the deletion, so candidates on
[j-1] are extended by +-j and only the circuits whose largest element is j
are folded into their running minimum; a candidate is dropped once that
minimum falls below the level asked for (1 for o-vectors and the tope
list, k+1 for m(M,k) and the search).  The sign vectors on the first r+1
elements are swept against their one circuit.  Sizes are refused before
anything is allocated by closed forms for the kernel pairs and the largest
candidate array (``_enumeration_cost``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .circuits import CircuitSet, _facet_table, circuit_negatives, circuits_from_signs
from .errors import DimensionError, DomainError
from .signvec import MAX_GROUND_SET, SignVector

TOPE_GRAPH_MAX_N = 16
# Entries per circuits x candidates tile of the kernel.
BLOCK_ELEMENTS = 1 << 13
# A database batch at a size whose full sweep is at most this many circuit x
# sign-vector pairs, at a rank up to DENSE_RANK, reads the level-bit table;
# every other enumeration grows.
DENSE_PAIRS = 1 << 15
DENSE_RANK = 7
# uint64 words gathered from the level-bit table per ``m_values`` call: it
# bounds the working arrays of one call to a few hundred KB.
_BATCH_ENTRIES = 1 << 15
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
    masks = np.array([t.minus], dtype=np.uint64)
    return int(_ort_masks(cs.plus, cs.minus, masks, cs.r + 1)[0])


def is_tope(cs: CircuitSet, t: SignVector) -> bool:
    """True iff t is full and orthogonal to every circuit."""
    cs.require_nonempty()
    return t.is_full() and ort(cs, t) > 0


def _ort_of(table: np.ndarray, pattern: np.ndarray, width: int) -> np.ndarray:
    """The kernel: minimum orthogonality degree (uint8) of each candidate
    against circuits of ``width`` = r+1 elements each, folded over the
    circuit axis (axis -2) of ``table ^ pattern``.

    Each entry of ``table`` holds a candidate's signs on one circuit's
    support and each entry of ``pattern`` that circuit's signs, bit set for
    -.  Their xor counts the separations sep, and the agreements are
    width - sep.  That is min(min sep, width - max sep) over circuits, but
    one reduction is cheaper than two on tiles a few candidates wide.  Any
    leading axis, such as one per database record, is carried through.
    """
    sep = np.bitwise_count(table ^ pattern)
    return np.minimum(sep, width - sep, out=sep).min(axis=-2)


def _ort_masks(
    plus: np.ndarray, minus: np.ndarray, masks: np.ndarray, width: int
) -> np.ndarray:
    """ort (uint8) of each full sign vector, given by its uint64 minus-mask,
    against the circuits of ``width`` elements with the (non-empty) plus and
    minus mask arrays ``plus`` and ``minus``.

    Each tile of about BLOCK_ELEMENTS circuit x candidate entries feeds the kernel
    with table = supp(X) & M and pattern = X^-: |supp(X) & (X^- xor M)|
    is the popcount of their xor, because X^- lies inside supp(X).
    """
    minus = minus[:, None]
    support = plus[:, None] | minus
    total = len(masks)
    cols = max(1, min(total, BLOCK_ELEMENTS))
    rows = max(1, BLOCK_ELEMENTS // cols)
    best = np.empty(total, dtype=np.uint8)
    for start in range(0, total, cols):
        chunk = masks[start : start + cols]
        run = None
        for lo in range(0, len(minus), rows):
            tile = slice(lo, lo + rows)
            low = _ort_of(support[tile] & chunk, minus[tile], width)
            run = low if run is None else np.minimum(run, low, out=run)
        best[start : start + len(chunk)] = run
    return best


def is_dense(r: int, n: int) -> bool:
    """True iff database batches at (r, n) fold the level-bit table
    (``m_values``): the full sweep is at most DENSE_PAIRS pairs and a
    circuit's r+1 signs fit one uint8 (r <= DENSE_RANK)."""
    return 1 <= r <= DENSE_RANK and r < n and comb(n, r + 1) << (n - 1) <= DENSE_PAIRS


def _pack(negative: np.ndarray) -> np.ndarray:
    """Bit i set iff ``negative[..., i]``: the r+1 <= 8 signs of a
    circuit's support, smallest element first, packed into one uint8.  A
    product with the bit weights is 2-3x faster than ``np.packbits`` over
    such a short last axis at (4,8) and (5,9)."""
    weights = np.uint8(1) << np.arange(negative.shape[-1], dtype=np.uint8)
    return negative.view(np.uint8) @ weights


def _dense_words(r: int, n: int) -> int:
    """uint64 words that one record gathers from the level-bit table at a
    dense size: one row of levels x words per circuit."""
    return comb(n, r + 1) * ((r + 1) // 2) * -(-(1 << (n - 1)) // 64)


@lru_cache(maxsize=32)
def _level_table(r: int, n: int) -> np.ndarray:
    """The level-bit table of a dense size, built on first use.

    Row c * 2^r + (p >> 1) belongs to circuit c (lex order of supports, as
    ``circuit_negatives`` gives them) with pattern p, its r+1 signs
    packed by ``_pack``; bit 0 of p, the smallest element, is always +.
    The row holds one bitset per level t = 1..floor((r+1)/2), each of
    ceil(2^(n-1) / 64) uint64 words: bit j % 8 of its byte j // 8 is set iff
    candidate j (minus-mask 2j, element 1 fixed to +) has ort at least t
    against that circuit.  Padding bits are 0.  Every verdict comes from
    ``_ort_of``, one circuit at a time, so the build needs little memory
    beyond the table itself.
    """
    bits = _facet_table(r, n)[1]
    masks = np.arange(1 << (n - 1), dtype=np.uint64) << np.uint64(1)
    patterns = np.arange(0, 1 << (r + 1), 2, dtype=np.uint8)[:, None, None]
    levels = np.arange(1, (r + 1) // 2 + 1, dtype=np.uint8)[:, None]
    words = -(-len(masks) // 64)
    table = np.zeros((len(bits) << r, len(levels), 8 * words), dtype=np.uint8)
    for c, circuit in enumerate(bits):
        signs = _pack((masks[:, None] & circuit) != 0)
        orts = _ort_of(signs[None], patterns, r + 1)
        at_least = np.packbits(orts[:, None] >= levels, axis=-1, bitorder="little")
        table[c << r : (c + 1) << r, :, : at_least.shape[-1]] = at_least
    table = table.view(np.uint64).reshape(len(table), -1)
    table.flags.writeable = False
    return table


def _dense_fold(r: int, n: int, patterns: np.ndarray) -> np.ndarray:
    """The AND over circuits of the level-bit table rows that the circuit
    patterns (records x circuits, uint8, bit 0 clear) select: per record,
    the bitsets (levels x words, flattened) of the candidates whose ort is at
    least each level."""
    rows = (np.arange(patterns.shape[-1]) << r) + (patterns >> 1)
    return np.bitwise_and.reduce(np.take(_level_table(r, n), rows.T, axis=0), axis=0)


def records_per_call(r: int, n: int) -> int:
    """The records that one ``m_values`` call takes at (r, n): as many as
    _BATCH_ENTRIES gathered table words allow at a dense size, otherwise
    one, so the rows of a grown size come out one record at a time."""
    return max(1, _BATCH_ENTRIES // _dense_words(r, n)) if is_dense(r, n) else 1


def m_values(r: int, n: int, signs: np.ndarray) -> np.ndarray:
    """m(M,k) for k = 0..floor((r-1)/2) (K x levels, int64) of the K
    chirotopes whose lex-order signs are the rows of the int8 array
    ``signs``.

    At a dense size (``is_dense``) that is one fold over the level-bit
    table: the popcount of level t's bitset is the number of candidates
    with ort at least t, m(M,t-1)/2.  At any other size each record grows
    (``o_vector``).
    """
    levels = (r + 1) // 2
    if not is_dense(r, n):
        rows = [o_vector(circuits_from_signs(r, n, row)).m_values() for row in signs]
        return np.array(rows, dtype=np.int64).reshape(len(signs), levels)
    at_least = np.bitwise_count(_dense_fold(r, n, _pack(circuit_negatives(r, n, signs))))
    return 2 * at_least.reshape(len(signs), levels, -1).sum(axis=-1, dtype=np.int64)


def check_k(r: int, k: int, lo: int = 0):
    """Refuse a level k outside [lo, floor((r-1)/2)], the range at rank r."""
    if not lo <= k <= (r - 1) // 2:
        raise DomainError(f"k={k} outside [{lo}, {(r - 1) // 2}]")


def check_enumeration_size(r: int, n: int):
    """Refuse an over-budget enumeration at (r, n) before any chirotope is
    built; an invalid (r, n) is left to the constructors."""
    if 1 <= r < n <= MAX_GROUND_SET:
        _check_budget(*_enumeration_cost(r, n))


def _check_budget(pairs: int, candidates: int):
    """Refuse, before anything is allocated, a kernel run beyond the limits."""
    if pairs > PAIR_BUDGET or candidates > CANDIDATE_BUDGET:
        raise DomainError(
            f"{pairs} circuit x sign-vector pairs and {candidates} candidates "
            f"exceed the enumeration budget of {PAIR_BUDGET} pairs and "
            f"{CANDIDATE_BUDGET} candidates"
        )


@lru_cache(maxsize=None)
def _enumeration_cost(r: int, n: int) -> tuple[int, int]:
    """Closed-form cost of ``_grow`` at (r, n): (kernel pairs, largest
    candidate array).

    The 2^r sign vectors on the first r+1 elements meet their one circuit.
    Level j > r+1 extends the T(j-1) survivors on [j-1], where T(m) =
    sum_{i<r} C(m-1, i) is the halved tope count of a uniform rank-r
    matroid on m elements, by +-j and folds in the C(j-1, r) circuits whose
    largest element is j.  Sign data that is not a chirotope can leave more
    survivors, but at most C(j-1, r)/2 more: they shatter no (r+1)-set, so
    Sauer-Shelah applies.
    """

    def halved_topes(m):
        return sum(comb(m - 1, i) for i in range(r))

    levels = [2 * halved_topes(j - 1) for j in range(r + 2, n + 1)]
    pairs = (1 << r) + sum(size * comb(j - 1, r) for j, size in zip(range(r + 2, n + 1), levels))
    return pairs, max([1 << r] + levels)


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
    ascending.
    """
    cs.require_nonempty()
    r, n = cs.r, cs.n
    check_enumeration_size(r, n)
    order = _growth_order(r, n)
    plus, minus = cs.plus[order], cs.minus[order]
    masks = np.arange(1 << r, dtype=np.uint64) << np.uint64(1)
    run = _ort_masks(plus[:1], minus[:1], masks, r + 1)
    lo = 1
    for j in range(r + 2, n + 1):
        keep = run >= level
        masks, run = masks[keep], run[keep]
        if not len(masks):
            break
        masks = np.concatenate([masks, masks | np.uint64(1 << (j - 1))])
        hi = comb(j, r + 1)
        run = np.minimum(np.tile(run, 2), _ort_masks(plus[lo:hi], minus[lo:hi], masks, r + 1))
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
    # the kernel's fold caps ort at floor((r+1)/2), the last entry's level
    counts = np.bincount(_grow(cs, 1)[1], minlength=(cs.r + 1) // 2 + 1)
    return OVector(cs.r, cs.n, tuple((2 * counts[1:]).tolist()))


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
    return bool((_ort_masks(cs.plus, cs.minus, flipped, cs.r + 1) > 0).all())


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


def check_tope_graph_size(n: int):
    """Refuse a tope-graph export on more than TOPE_GRAPH_MAX_N elements."""
    if n > TOPE_GRAPH_MAX_N:
        raise DomainError(f"tope graph export capped at n <= {TOPE_GRAPH_MAX_N} (got n={n})")


def tope_graph_edges(cs: CircuitSet) -> list[tuple[SignVector, SignVector]]:
    """Edges between topes differing in a single coordinate."""
    cs.require_nonempty()
    check_tope_graph_size(cs.n)
    topes = list(enumerate_topes(cs))
    index = {(t.plus, t.minus) for t in topes}
    edges = []
    for t in topes:
        for i in range(cs.n):
            other = t.reorient_mask(1 << i)
            if (other.plus, other.minus) in index and (t.plus < other.plus):
                edges.append((t, other))
    return edges
