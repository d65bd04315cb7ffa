"""The enumeration core: ort, topes, o-vectors, m(M,k) and tope-graph
export.

Enumerations cover the sign vectors with element 1 fixed to + (antipodal
symmetry is exact, so every count is doubled).  ``_ort_of`` is the one
kernel, and every ort verdict, from one sign vector to a batch of database
records, comes from it.  It counts separations as sep =
bitwise_count(table ^ pattern) and folds over the circuit axis as
ort = min over circuits of min(sep, r+1 - sep): every circuit of a uniform
rank-r matroid has r+1 elements, so its agreements with a full sign vector
are r+1 - sep.  It is used in two ways:

- Single sign vectors and every enumeration outside the dense database
  batches pass masks (``_ort_masks``) in tiles of about TILE_BYTES of
  masks: table = supp(X) & M and pattern = X^-.
- Database batches at a dense size (``is_dense``: the full sweep is at most
  DENSE_PAIRS pairs and r <= DENSE_RANK = 7; 37 sizes, all with n <= 10)
  read the level-bit table (``_level_table``), the bitsets of the
  candidates whose ort against each circuit with each sign pattern is at
  least each level.  A chirotope's counts are then one gathered row per
  circuit, an AND over the circuits and a popcount per level
  (``_dense_fold``): level t counts the candidates with ort at least t,
  m(M,t-1)/2.

The enumeration (``_grow``) is a growth fold over a stack of K chirotopes
of one (r, n), a ``CircuitSet`` being K = 1.  Every circuit has a largest
element j, and a tope restricts to a tope of the deletion, so candidates on
[j-1] are extended by +-j and only the circuits whose largest element is j
are folded into their running minimum; a candidate is dropped once that
minimum falls below the level asked for (1 for o-vectors, k+1 for m(M,k)
and the search).  The records share their circuit supports, so their
candidates are one flat array with a record index, and each tile repeats
every record's circuit minus masks over its candidates.  Masks take the
narrowest unsigned dtype that holds n bits.  ``m_values`` takes any number
of records and owns every batch below it: table gathers of _BATCH_ENTRIES
words, or growth groups whose largest candidate arrays fit _BATCH_ENTRIES
together (``_group_size``), each batch's circuits derived as it runs.
Sizes are refused before anything is allocated by closed forms for the
kernel pairs and the largest candidate array (``_enumeration_cost``).  In
process on 2 vCPU (Python 3.11, numpy 2.4), grown database rows come out at
about 16k rows/s at (5,10), 4.8k at (6,11) and 1.4k at (6,12); ``o_vector``
takes about 11 ms on C_7(14) and 18 ms on C_5(16), and the audit of a
(6,12) chirotope 5.2, 1.8 and 0.65 ms at k = 0, 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .circuits import CircuitSet, _facet_table, circuit_minus, circuit_negatives
from .circuits import pack_signs, require_circuits
from .errors import DimensionError, DomainError
from .signvec import MAX_GROUND_SET, SignVector

TOPE_GRAPH_MAX_N = 16
# Bytes of candidate masks per circuits x candidates tile of the kernel;
# 256 KB ran faster on the largest enumerations but took more memory.
TILE_BYTES = 1 << 17
# A database batch at a size whose full sweep is at most this many circuit x
# sign-vector pairs, at a rank up to DENSE_RANK, reads the level-bit table;
# every other enumeration grows.
DENSE_PAIRS = 1 << 15
DENSE_RANK = 7
# Entries of the largest array of one ``m_values`` call: table words
# gathered at a dense size, candidates of one growth group otherwise.
_BATCH_ENTRIES = 1 << 15
# Limits on an enumeration, checked before anything is allocated: kernel
# pairs and the largest candidate array.
PAIR_BUDGET = 1 << 32
CANDIDATE_BUDGET = 1 << 24
# A brute-force c-value read from a cache file is enumerated again when its
# size takes at most this many kernel pairs (under 0.1 s); a line of a larger
# size is trusted as read.
RECHECK_PAIRS = 1 << 24


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
    return int(_ort_masks(cs.plus | cs.minus, cs.minus[:, None], masks, None, cs.r + 1)[0])


def _ort_of(separated: np.ndarray, width: int) -> np.ndarray:
    """The kernel: minimum orthogonality degree (uint8) of each candidate
    against circuits of ``width`` = r+1 elements each, folded over the
    circuit axis (axis -2).

    Each entry of ``separated`` is table ^ pattern, a candidate's signs on
    one circuit's support xor that circuit's signs, bit set for -: its
    popcount is the separations sep, and the agreements are width - sep.
    ort = min(min sep, width - max sep) over circuits, so no second array
    of the tile's size is built.  Any leading axis is carried through.

    numpy counts uint8 bits with SIMD but uint16 bits one element at a
    time, about 15x slower, so a uint16 tile (n = 9..16) is counted on its
    byte view and in place: each byte becomes its popcount, and the high
    byte of x * 0x0101 is the sum of the two, at most 16.  That tile, which
    must be C-contiguous, is consumed.
    """
    if separated.dtype == np.uint16:
        pairs = separated.view(np.uint8)
        np.bitwise_count(pairs, out=pairs)
        separated *= np.uint16(0x0101)
        separated >>= np.uint16(8)
        sep = separated
    else:
        sep = np.bitwise_count(separated)
    return np.minimum(sep.min(axis=-2), width - sep.max(axis=-2)).astype(np.uint8, copy=False)


def _ort_masks(
    support: np.ndarray, minus: np.ndarray, masks: np.ndarray, records, width: int
) -> np.ndarray:
    """ort (uint8) of full sign vectors, given by their minus-masks and
    ascending record indices, against circuits of ``width`` elements with
    the masks ``support`` and, per record, ``minus`` (circuits x records),
    all of one dtype: each tile has table = supp(X) & M and pattern = X^- of
    the candidate's record, as |supp(X) & (X^- xor M)| is the popcount of
    their xor.  A record's pattern column is repeated over its consecutive
    candidates; a single record's column broadcasts and ``records`` is not
    read."""
    per_tile = max(1, TILE_BYTES // masks.itemsize)
    total, stacked = len(masks), minus.shape[1] > 1
    cols = max(1, min(total, per_tile))
    rows = max(1, per_tile // cols)
    best = np.empty(total, dtype=np.uint8)
    for start in range(0, total, cols):
        chunk = masks[start : start + cols]
        if stacked:
            repeats = np.bincount(records[start : start + cols], minlength=minus.shape[1])
        run = None
        for lo in range(0, len(support), rows):
            pattern = minus[lo : lo + rows]
            if stacked:
                pattern = np.repeat(pattern, repeats, axis=1)
            table = support[lo : lo + rows, None] & chunk
            low = _ort_of(np.bitwise_xor(table, pattern, out=table), width)
            run = low if run is None else np.minimum(run, low, out=run)
        best[start : start + len(chunk)] = run
    return best


def is_dense(r: int, n: int) -> bool:
    """True iff database batches at (r, n) fold the level-bit table
    (``m_values``): the full sweep is at most DENSE_PAIRS pairs and a
    circuit's r+1 signs fit one uint8 (r <= DENSE_RANK)."""
    return 1 <= r <= DENSE_RANK and r < n and comb(n, r + 1) << (n - 1) <= DENSE_PAIRS


def _dense_words(r: int, n: int) -> int:
    """uint64 words that one record gathers from the level-bit table at a
    dense size: one row of levels x words per circuit."""
    return comb(n, r + 1) * ((r + 1) // 2) * -(-(1 << (n - 1)) // 64)


@lru_cache(maxsize=32)
def _level_table(r: int, n: int) -> np.ndarray:
    """The level-bit table of a dense size, built on first use.

    Row c * 2^r + (p >> 1) belongs to circuit c (lex order of supports, as
    ``circuit_negatives`` gives them) with pattern p, its r+1 signs
    packed by ``pack_signs``; bit 0 of p, the smallest element, is always +.
    The row holds one bitset per level t = 1..floor((r+1)/2), each of
    ceil(2^(n-1) / 64) uint64 words: bit j % 8 of its byte j // 8 is set iff
    candidate j (minus-mask 2j, element 1 fixed to +) has ort at least t
    against that circuit.  Padding bits are 0.  Every verdict comes from
    ``_ort_of``, one circuit at a time, so the build needs little memory
    beyond the table itself.
    """
    bits = _facet_table(r, n)[1]
    weights = np.uint8(1) << np.arange(r + 1, dtype=np.uint8)
    masks = np.arange(1 << (n - 1), dtype=np.uint64) << np.uint64(1)
    patterns = np.arange(0, 1 << (r + 1), 2, dtype=np.uint8)[:, None, None]
    levels = np.arange(1, (r + 1) // 2 + 1, dtype=np.uint8)[:, None]
    words = -(-len(masks) // 64)
    table = np.zeros((len(bits) << r, len(levels), 8 * words), dtype=np.uint8)
    for c, circuit in enumerate(bits):
        signs = pack_signs((masks[:, None] & circuit) != 0, weights)
        orts = _ort_of(signs[None] ^ patterns, r + 1)
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


def m_values(r: int, n: int, signs: np.ndarray) -> np.ndarray:
    """m(M,k) for k = 0..floor((r-1)/2) (K x levels, int64) of the K
    chirotopes whose lex-order signs are the rows of the int8 array
    ``signs``, any K: level-bit table folds of _BATCH_ENTRIES gathered words
    at a dense size, otherwise the tail sums of the ort counts grown at
    level 1 (``_grown_counts``), circuits derived a batch at a time."""
    require_circuits(r, n)
    if not is_dense(r, n):
        counts = _grown_counts(r, n, len(signs), lambda rows: circuit_minus(r, n, signs[rows]), 1)
        return 2 * counts[:, :0:-1].cumsum(axis=1)[:, ::-1]
    levels, size = (r + 1) // 2, max(1, _BATCH_ENTRIES // _dense_words(r, n))
    weights = np.uint8(1) << np.arange(r + 1, dtype=np.uint8)
    m = []
    for batch in np.split(signs, range(size, len(signs), size)):
        fold = _dense_fold(r, n, pack_signs(circuit_negatives(r, n, batch), weights))
        at_least = np.bitwise_count(fold).reshape(len(batch), levels, fold.shape[-1] // levels)
        m.append(at_least.sum(axis=-1, dtype=np.int64))
    return 2 * np.concatenate(m)


def m_counts(r: int, n: int, signs: np.ndarray, k: int) -> np.ndarray:
    """m(M,k) (int64) of each of the K chirotopes whose lex-order signs are
    the rows of the int8 array ``signs`` (``m_counts_of``, circuits derived a
    growth group at a time)."""
    return m_counts_of(r, n, len(signs), lambda rows: circuit_minus(r, n, signs[rows]), k)


def m_counts_of(r: int, n: int, count: int, minus_of, k: int) -> np.ndarray:
    """m(M,k) (int64) of ``count`` chirotopes at (r, n), grown at level k+1
    (``_grown_counts``); ``minus_of(rows)`` gives the circuit minus masks
    of the records in the slice ``rows``.  k is checked before any
    enumeration."""
    check_k(r, k)
    return 2 * _grown_counts(r, n, count, minus_of, k + 1)[:, k + 1 :].sum(axis=1)


def _grown_counts(r: int, n: int, count: int, minus_of, level: int) -> np.ndarray:
    """``_ort_counts`` of ``count`` records, one growth group
    (``_group_size``) at a time, each group's circuit minus masks from
    ``minus_of(rows)``; an over-budget size is refused before ``minus_of``
    is called.  No records make one empty group."""
    size = _group_size(r, n)
    starts = range(0, max(count, 1), size)
    return np.concatenate([_ort_counts(r, n, minus_of(slice(lo, lo + size)), level) for lo in starts])


def check_k(r: int, k: int, lo: int = 0):
    """Refuse a rank below 1, then a level k outside [lo, floor((r-1)/2)],
    the range at rank r; only the constructions ask for lo > 0, and that
    range can be empty."""
    if r < 1:
        raise DomainError(f"invalid rank r={r}: need r >= 1")
    hi = (r - 1) // 2
    if lo > hi:
        raise DomainError(f"rank {r} admits only k <= {hi}, and the construction needs k >= {lo}")
    if not lo <= k <= hi:
        raise DomainError(f"k={k} outside [{lo}, {hi}]")


def check_cell(r: int, n: int, k: int, lo: int = 0):
    """Refuse a cell (r, n, k) with n <= r, then one whose k ``check_k``
    refuses."""
    if n < r + 1:
        raise DomainError(f"need n >= r+1, got (r={r}, n={n})")
    check_k(r, k, lo)


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


def _group_size(r: int, n: int) -> int:
    """Records per ``_grow`` at (r, n), sized from the closed form: at
    least one, and as many as fit _BATCH_ENTRIES and the budget."""
    pairs, candidates = _enumeration_cost(r, n)
    _check_budget(pairs, candidates)
    return max(1, min(_BATCH_ENTRIES, CANDIDATE_BUDGET) // candidates)


@lru_cache(maxsize=32)
def _growth_order(r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutation that sorts the lex-ordered circuits of a uniform
    rank-r matroid on [n] by support mask, and the sorted supports in the
    narrowest unsigned dtype that holds n bits.  The first C(j, r+1) lie
    inside [j], so those with largest element j are C(j-1, r+1)..C(j, r+1)-1."""
    supports = _facet_table(r, n)[2]
    order = np.argsort(supports, kind="stable")
    support = supports[order].astype(np.min_scalar_type((1 << n) - 1))
    order.flags.writeable = support.flags.writeable = False
    return order, support


def _grow(r: int, n: int, minus: np.ndarray, level: int) -> tuple[np.ndarray, ...]:
    """Record indices, minus-masks and ort values (uint8) of sign vectors
    with element 1 fixed to + of the K chirotopes at (r, n) whose circuit
    minus masks are the rows of ``minus`` (uint64, lex order): every one
    with ort at least ``level``, and maybe some below it.

    A running minimum only falls, so dropping one below ``level`` loses
    nothing, and after element n it is the exact ort.  Each candidate is
    followed by its copy with j negative, so a record's candidates stay
    consecutive, but its masks are not ascending.
    """
    pairs, candidates = _enumeration_cost(r, n)
    _check_budget(pairs, len(minus) * candidates)
    order, support = _growth_order(r, n)
    dtype = support.dtype
    stack = minus.T[order].astype(dtype)
    records = np.repeat(np.arange(len(minus), dtype=np.min_scalar_type(len(minus) - 1)), 1 << r)
    masks = np.tile(np.arange(1 << r, dtype=dtype) << dtype.type(1), len(minus))
    run = _ort_masks(support[:1], stack[:1], masks, records, r + 1)
    lo = 1
    for j in range(r + 2, n + 1):
        keep = run >= level
        masks, records, run = masks[keep], records[keep], run[keep]
        if not len(masks):
            break
        masks = masks.repeat(2)
        masks[1::2] |= dtype.type(1 << (j - 1))
        records = records.repeat(2)
        hi = comb(j, r + 1)
        low = _ort_masks(support[lo:hi], stack[lo:hi], masks, records, r + 1)
        run = np.minimum(run.repeat(2), low, out=low)
        lo = hi
    keep = run >= level
    return records[keep], masks[keep], run[keep]


def _ort_counts(r: int, n: int, minus: np.ndarray, level: int) -> np.ndarray:
    """Per record, the sign vectors with element 1 fixed to + of each ort
    (int64, K x (floor((r+1)/2) + 1); the fold caps ort at the last
    column), exact from ``level`` up: one ``_grow`` of the K records whose
    circuit minus masks are the rows of ``minus``."""
    width = (r + 1) // 2 + 1
    records, _, orts = _grow(r, n, minus, level)
    cells = records.astype(np.intp) * width + orts
    return np.bincount(cells, minlength=len(minus) * width).reshape(len(minus), width)


def first_index_at_least(cs: CircuitSet, level: int) -> int | None:
    """Enumeration index (minus-mask over elements 2..n, shifted down by one
    bit) of the first sign vector with element 1 fixed to + whose ort is at
    least ``level``; None if there is none."""
    cs.require_nonempty()
    _, masks, orts = _grow(cs.r, cs.n, cs.minus[None], level)
    hits = masks[orts >= level]
    return int(hits.min()) >> 1 if hits.size else None


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
    cs.require_nonempty()
    counts = _ort_counts(cs.r, cs.n, cs.minus[None], 1)[0]
    return OVector(cs.r, cs.n, tuple((2 * counts[1:]).tolist()))


def enumerate_topes(cs: CircuitSet):
    """Yield every tope (both antipodes), element-1-positive ones first."""
    cs.require_nonempty()
    _, masks, orts = _grow(cs.r, cs.n, cs.minus[None], 1)
    full = (1 << cs.n) - 1
    positives = [SignVector(cs.n, full & ~m, m) for m in np.sort(masks[orts > 0]).tolist()]
    yield from positives
    yield from (-t for t in positives)


def tope_count(cs: CircuitSet) -> int:
    return m_value(cs, 0)


def m_value(cs: CircuitSet, k: int) -> int:
    """Number of k-neighborly reorientations, m(M,k): the topes with ort at
    least k+1, grown at that level.  k is checked before any enumeration."""
    check_k(cs.r, k)
    cs.require_nonempty()
    return int(2 * _ort_counts(cs.r, cs.n, cs.minus[None], k + 1)[0, k + 1 :].sum())


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
