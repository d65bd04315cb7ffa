"""The enumeration core: ort, topes, o-vectors, m(M,k) and tope-graph
export.

Enumerations cover the sign vectors with element 1 fixed to + (antipodal
symmetry is exact, so every count is doubled).  ``_separations`` is the
one count, and every ort verdict, from one sign vector to a batch of
database records, comes from it: sep = bitwise_count(table ^ pattern), the
separations of a sign vector and a circuit.  Every circuit of a uniform
rank-r matroid has r+1 elements, so the agreements are r+1 - sep, and
ort = min over circuits of min(sep, r+1 - sep).  It is used in two ways:

- Masks, in tiles of about TILE_BYTES of masks with table = supp(X) & M
  and pattern = X^-, give each sign vector's least separations and least
  agreements over the circuits (``_least_counts``).  For single sign
  vectors and the seed of every grow, ort is the lesser of the two
  (``_ort_masks``); at a grown level they give the ort of both children of
  each survivor (``_child_orts``).
- Database batches at a dense size (``is_dense``: the full sweep is at most
  DENSE_PAIRS pairs and r <= DENSE_RANK = 7; 37 sizes, all with n <= 10)
  read the level-bit table (``_level_table``, built one ``_separations``
  call per circuit), the bitsets of the candidates whose ort against each
  circuit through element 1 with each sign pattern is at least each
  level.  A chirotope's counts are then one gathered row per circuit
  through element 1, an AND over those circuits, a slice of circuits at a
  time, and a popcount per level (``_dense_fold``): level t counts the
  candidates with ort at least t, m(M,t-1)/2.

The dense fold reads C(n-1, r) circuits, not C(n, r+1), by this lemma: in
a uniform oriented matroid M of rank r on [n], for every full sign vector X
and every element e, ort(X) is the minimum over the circuits whose support
holds e.

Proof (a rank-2 dual rotation, as in Björner et al., Oriented Matroids,
7.1): let C attain ort(X) = t with e not in C, and reorient M by X, which
changes no ort, so that X is all + and t is the size of the smaller side
of C.  The restriction M|(C ∪ e) is uniform of rank r on r+2 elements, and
its circuits are those of M inside C ∪ e.  Its dual has rank 2 and, as
every rank-2 oriented matroid, is realized by r+2 vectors v_f in the
plane, no two parallel.  Its circuits are the dual's cocircuits: for each
g, the sides of the other vectors of the line through v_g.  C is the line
through v_e, with t vectors on its smaller side.  Rotate that line about
the origin, in the sense that carries v_e to the larger side, until it
first meets another vector v_g.  No vector crosses the line on the way, so
the circuit (C ∪ e) - g holds e, and its smaller side holds at most the t
vectors of C's, less g if g was one of them: it has at most t elements on
one side, and ort(X) is attained by a circuit through e.

The lemma needs an oriented matroid, and a database row need not be one.
The fold checks each row's m(M,0) against the tope count of a uniform
matroid, which every oriented matroid meets, and a row that misses it is
counted again over every circuit (``m_values``), so its refusal reads the
same tope count as on every other engine.

The enumeration (``_grow``) is a growth fold over a stack of K chirotopes
of one (r, n), a ``CircuitSet`` being K = 1.  It is seeded with one kernel
call over every sign vector on the first j0 elements against the circuits
inside them, j0 the largest size whose sweep fits SEED_PAIRS
(``_seed_size``).  Then every circuit has a largest element j, and a tope
restricts to a tope of the deletion, so candidates on [j-1] are extended by
+-j and only the circuits whose largest element is j are folded into their
running minimum; a candidate is dropped once that minimum falls below the
level asked for (1 for o-vectors, k+1 for m(M,k) and the search).  Each
circuit is oriented with its largest element positive first, so at level j
one kernel pass over the survivors, not over their children, decides the
verdicts of both children.  The records share their circuit supports, so
their candidates are one flat array with a record index, and each tile
repeats every record's circuit minus masks over its candidates.  Masks take
the narrowest unsigned dtype that holds n bits.  Every grown m(M,k), of
``o_vector``, ``m_value``, ``m_counts``, the audit and the grown rows of
``m_values``, comes from ``grown_m_values``, the one function that turns
``_grow`` output into counts.  ``m_values`` takes any number of records
and owns every batch below it: at a dense size, batches
of as many records as fit _BATCH_ENTRIES patterns of circuits through
element 1 (936 at (4,8) and 585 at (5,9), so a block of 256 is one batch),
each folded in gathers of at most _BATCH_ENTRIES table words (for 256
records, 2 slices of up to 32 circuits at (4,8) and 6 of up to 10 at
(5,9)); otherwise growth groups whose largest candidate arrays fit
_BATCH_ENTRIES together (``_group_size``); each batch's circuits derived as
it runs.  Sizes are refused before anything is allocated by closed forms
for the kernel pairs and the largest candidate array
(``_enumeration_cost``).  In process on 2 vCPU (Python 3.11, numpy 2.4),
grown database rows come out at about 32k rows/s at (5,10), 9.8k at
(6,11) and 2.6k at (6,12); the m-values of 2000 (4,8) records in blocks of
256 take a median of 0.74-0.80 ms, of 500 (5,9) records 0.46-0.51 ms and
of 500 (7,10) records 0.68-0.71 ms, against 1.09-1.17, 0.93-0.95 and
0.87-0.91 ms when the fold read every circuit; ``o_vector`` takes about
4.6 ms on C_7(14) and 7 ms on C_5(16), and the audit of a (6,12)
chirotope 2.8, 1.1 and 0.47 ms at k = 0, 1 and 2.
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
# The most pairs of the one kernel call that seeds every grow
# (``_seed_size``); 2^15 ran slower on the audit's stacks.
SEED_PAIRS = 1 << 14
# Entries of the largest array of one ``m_values`` call: circuit patterns of
# a batch and table words of one gather at a dense size, candidates of one
# growth group otherwise.
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
    return int(_ort_masks(cs.plus | cs.minus, cs.minus[:, None], masks, None, cs.r + 1)[0])


def _separations(separated: np.ndarray) -> np.ndarray:
    """The kernel's one count: the separations sep of each entry of
    ``separated``, table ^ pattern, a candidate's signs on one circuit's
    support xor that circuit's signs, bit set for -; sep is its popcount.

    numpy counts uint8 bits with SIMD but uint16 bits one element at a
    time, about 15x slower, so a uint16 tile (n = 9..16) is counted on its
    byte view and in place: each byte becomes its popcount, and the high
    byte of x * 0x0101 is the sum of the two, at most 16.  That tile, which
    must be C-contiguous, is consumed and returned.
    """
    if separated.dtype == np.uint16:
        pairs = separated.view(np.uint8)
        np.bitwise_count(pairs, out=pairs)
        separated *= np.uint16(0x0101)
        separated >>= np.uint16(8)
        return separated
    return np.bitwise_count(separated)


def _least_counts(
    support: np.ndarray, minus: np.ndarray, masks: np.ndarray, records, width: int
) -> np.ndarray:
    """The least separations and the least agreements (uint8, 2 x
    candidates) of full sign vectors, given by their minus-masks and
    ascending record indices, with circuits whose masks are ``support`` and,
    per record, ``minus`` (circuits x records), all of one dtype, counted on
    ``width`` elements of each circuit: all r+1 of them, or all but j at
    grown level j, where no survivor holds j.  The agreements are
    width - sep, so their least is width - the most separations.

    Tiles of circuits x candidates hold about TILE_BYTES of masks each:
    table = supp(X) & M and pattern = X^- of the candidate's record, as
    |supp(X) & (X^- xor M)| is the popcount of their xor.  A record's
    pattern column is repeated over its consecutive candidates; a single
    record's column broadcasts and ``records`` is not read."""
    per_tile = max(1, TILE_BYTES // masks.itemsize)
    total, stacked = len(masks), minus.shape[1] > 1
    cols = max(1, min(total, per_tile))
    rows = max(1, per_tile // cols)
    least = np.empty((2, total), dtype=np.uint8)
    low, most = least[0], least[1]
    for start in range(0, total, cols):
        chunk = masks[start : start + cols]
        where = slice(start, start + len(chunk))
        if stacked:
            repeats = np.bincount(records[where], minlength=minus.shape[1])
        for lo in range(0, len(support), rows):
            pattern = minus[lo : lo + rows]
            if stacked:
                pattern = np.repeat(pattern, repeats, axis=1)
            table = support[lo : lo + rows, None] & chunk
            sep = _separations(np.bitwise_xor(table, pattern, out=table))
            if lo == 0:
                low[where] = sep.min(axis=0)
                most[where] = sep.max(axis=0)
            else:
                np.minimum(low[where], sep.min(axis=0), out=low[where])
                np.maximum(most[where], sep.max(axis=0), out=most[where])
    np.subtract(width, most, out=most)
    return least


def _ort_masks(
    support: np.ndarray, minus: np.ndarray, masks: np.ndarray, records, width: int
) -> np.ndarray:
    """ort (uint8) of full sign vectors against circuits of ``width``
    elements: the lesser of their least separations and least agreements
    (``_least_counts``)."""
    least = _least_counts(support, minus, masks, records, width)
    return np.minimum(least[0], least[1])


def _child_orts(least: np.ndarray, run: np.ndarray) -> np.ndarray:
    """The running minimum (uint8) of both children of each survivor at a
    grown level j, the child with j positive first, from the survivor's
    least separations s and least agreements a (``_least_counts``) with the
    circuits folded in at j, each holding j positive, and its own running
    minimum ``run``: min(run, s, a+1) and min(run, s+1, a).  ``least`` is
    consumed."""
    np.minimum(least, run, out=least)
    children = np.empty((len(run), 2), dtype=np.uint8)
    np.minimum(least, (least + 1)[::-1], out=children.T)
    return children.ravel()


def is_dense(r: int, n: int) -> bool:
    """True iff database batches at (r, n) fold the level-bit table
    (``m_values``): the full sweep is at most DENSE_PAIRS pairs and a
    circuit's r+1 signs fit one uint8 (r <= DENSE_RANK)."""
    return 1 <= r <= DENSE_RANK and r < n and comb(n, r + 1) << (n - 1) <= DENSE_PAIRS


def _row_words(r: int, n: int) -> int:
    """uint64 words of one row of the level-bit table at a dense size:
    levels x words."""
    return ((r + 1) // 2) * -(-(1 << (n - 1)) // 64)


@lru_cache(maxsize=32)
def _level_table(r: int, n: int) -> np.ndarray:
    """The level-bit table of a dense size, built on first use.

    Row c * 2^r + (p >> 1) belongs to circuit c, one of the C(n-1, r)
    circuits through element 1 (the first in lex order of supports, as
    ``circuit_negatives`` gives them), with pattern p, its r+1 signs
    packed by ``pack_signs``; bit 0 of p, element 1, is always +.
    The row holds one bitset per level t = 1..floor((r+1)/2), each of
    ceil(2^(n-1) / 64) uint64 words: bit j % 8 of its byte j // 8 is set iff
    candidate j (minus-mask 2j, element 1 fixed to +) has ort at least t
    against that circuit.  Padding bits are 0.  Every verdict is
    min(sep, r+1 - sep) of one ``_separations`` call per circuit, so the
    build needs little memory beyond the table itself.
    """
    bits = _facet_table(r, n)[1][: comb(n - 1, r)]
    weights = np.uint8(1) << np.arange(r + 1, dtype=np.uint8)
    masks = np.arange(1 << (n - 1), dtype=np.uint64) << np.uint64(1)
    patterns = np.arange(0, 1 << (r + 1), 2, dtype=np.uint8)[:, None]
    levels = np.arange(1, (r + 1) // 2 + 1, dtype=np.uint8)[:, None]
    words = -(-len(masks) // 64)
    table = np.zeros((len(bits) << r, len(levels), 8 * words), dtype=np.uint8)
    for c, circuit in enumerate(bits):
        signs = pack_signs((masks[:, None] & circuit) != 0, weights)
        sep = _separations(signs ^ patterns)
        orts = np.minimum(sep, r + 1 - sep)
        at_least = np.packbits(orts[:, None] >= levels, axis=-1, bitorder="little")
        table[c << r : (c + 1) << r, :, : at_least.shape[-1]] = at_least
    table = table.view(np.uint64).reshape(len(table), -1)
    table.flags.writeable = False
    return table


def _dense_fold(r: int, n: int, patterns: np.ndarray) -> np.ndarray:
    """The AND over circuits of the level-bit table rows that the circuit
    patterns (records x circuits through element 1, uint8, bit 0 clear)
    select: per record, the bitsets (levels x words, flattened) of the
    candidates whose ort against those circuits is at least each level.
    The rows are gathered and ANDed a slice of circuits at a time, as many
    circuits as fit _BATCH_ENTRIES words over all the records (at least
    one), and each slice's AND is ANDed into the first."""
    table = _level_table(r, n)
    rows = (np.arange(patterns.shape[-1])[:, None] << r) + (patterns.T >> 1)
    step = max(1, _BATCH_ENTRIES // (max(1, len(patterns)) * table.shape[1]))
    fold = np.bitwise_and.reduce(np.take(table, rows[:step], axis=0), axis=0)
    for lo in range(step, len(rows), step):
        part = np.bitwise_and.reduce(np.take(table, rows[lo : lo + step], axis=0), axis=0)
        np.bitwise_and(fold, part, out=fold)
    return fold


def m_values(r: int, n: int, signs: np.ndarray) -> np.ndarray:
    """m(M,k) for k = 0..floor((r-1)/2) (K x levels, int64) of the K
    chirotopes whose lex-order signs are the rows of the int8 array
    ``signs``, any K, circuits derived a batch at a time.

    At a dense size only the C(n-1, r) circuits through element 1 are
    derived and folded over the level-bit table (``_dense_fold``), which by
    the lemma of the module docstring gives m of an oriented matroid.  A
    batch is as many records as fit _BATCH_ENTRIES circuit patterns, and
    _BATCH_ENTRIES words of one table row each (at least one record).  A
    record whose folded m(M,0) is not the tope count of a uniform matroid
    is no oriented matroid, and its row is counted again over every
    circuit, grown at level 1 (``grown_m_values``), so that its tope count
    is the one every engine gives.  At any other size every row is grown
    at level 1."""
    require_circuits(r, n)
    if not is_dense(r, n):
        return grown_m_values(r, n, len(signs), lambda rows: circuit_minus(r, n, signs[rows]), 1)
    levels, circuits = (r + 1) // 2, comb(n - 1, r)
    size = max(1, _BATCH_ENTRIES // max(circuits, _row_words(r, n)))
    weights = np.uint8(1) << np.arange(r + 1, dtype=np.uint8)
    m = []
    for batch in np.split(signs, range(size, len(signs), size)):
        fold = _dense_fold(r, n, pack_signs(circuit_negatives(r, n, batch, circuits), weights))
        at_least = np.bitwise_count(fold).reshape(len(batch), levels, fold.shape[-1] // levels)
        m.append(at_least.sum(axis=-1, dtype=np.int64))
    m = 2 * np.concatenate(m)
    wrong = np.flatnonzero(m[:, 0] != tope_count_uniform(r, n))
    if len(wrong):
        m[wrong] = grown_m_values(r, n, len(wrong), lambda rows: circuit_minus(r, n, signs[wrong[rows]]), 1)
    return m


def m_counts(r: int, n: int, signs: np.ndarray, k: int) -> np.ndarray:
    """m(M,k) (int64) of each of the K chirotopes whose lex-order signs are
    the rows of the int8 array ``signs``, grown at level k+1 over every
    circuit (``grown_m_values``, circuits derived a growth group at a
    time).  k is checked before any enumeration."""
    check_k(r, k)
    return grown_m_values(r, n, len(signs), lambda rows: circuit_minus(r, n, signs[rows]), k + 1)[:, 0]


def grown_m_values(r: int, n: int, count: int, minus_of, level: int) -> np.ndarray:
    """m(M,k) for k = level-1..floor((r-1)/2) (int64, count x columns) of
    ``count`` chirotopes at (r, n), grown at ``level`` one growth group
    (``_group_size``) at a time: ``minus_of(rows)`` gives the circuit minus
    masks of the records in the slice ``rows``, ``_grow`` keeps their sign
    vectors with ort at least ``level``, and m(M,k) is twice the number
    with ort above k, a reversed cumulative sum of their ort counts.  An
    over-budget size is refused before ``minus_of`` is called."""
    size = _group_size(r, n)
    width = (r + 1) // 2 + 1 - level
    m = np.empty((count, width), dtype=np.int64)
    for lo in range(0, count, size):
        minus = minus_of(slice(lo, lo + size))
        records, _, orts = _grow(r, n, minus, level)
        cells = records.astype(np.intp) * width + (orts - level)
        counts = np.bincount(cells, minlength=len(minus) * width).reshape(len(minus), width)
        m[lo : lo + len(minus)] = 2 * counts[:, ::-1].cumsum(axis=1)[:, ::-1]
    return m


def tope_count_uniform(r: int, n: int) -> int:
    """2 * sum_{i<r} C(n-1, i): tope count of every uniform rank-r matroid."""
    if n < r:
        raise DomainError(f"need n >= r, got (r={r}, n={n})")
    return 2 * sum(comb(n - 1, i) for i in range(r))


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


def _seed_size(r: int, n: int) -> int:
    """j0, the elements that ``_grow`` sweeps in one call at (r, n): the
    largest j <= n whose full sweep is at most SEED_PAIRS pairs, and at
    least r+1.  It depends on (r, n) only, so a stack of records grows as
    each record does alone."""
    j0 = r + 1
    while j0 < n and comb(j0 + 1, r + 1) << j0 <= SEED_PAIRS:
        j0 += 1
    return j0


@lru_cache(maxsize=None)
def _enumeration_cost(r: int, n: int) -> tuple[int, int]:
    """Closed-form cost of ``_grow`` at (r, n): (sign-vector x circuit
    pairs, largest candidate array).

    The seed meets the 2^(j0-1) sign vectors on the first j0 elements
    (``_seed_size``) with the C(j0, r+1) circuits inside them.  Level
    j > j0 extends the T(j-1) survivors on [j-1], where T(m) =
    sum_{i<r} C(m-1, i) is the halved tope count of a uniform rank-r
    matroid on m elements (``tope_count_uniform``), by +-j and folds in the C(j-1, r) circuits whose
    largest element is j.  Sign data that is not a chirotope can leave more
    survivors, but at most C(j-1, r)/2 more: they shatter no (r+1)-set, so
    Sauer-Shelah applies.  A level's pairs are its 2 T(j-1) children times
    its circuits, though one popcount per survivor and circuit decides the
    verdicts of both children: each circuit is negated, where needed, to
    hold j positive, which changes no verdict as ort is symmetric under
    C -> -C, and then the separations of the child with j negative are
    those of the child with j positive plus one.
    """
    j0 = _seed_size(r, n)
    levels = [tope_count_uniform(r, j - 1) for j in range(j0 + 1, n + 1)]
    pairs = (comb(j0, r + 1) << (j0 - 1)) + sum(
        size * comb(j - 1, r) for j, size in zip(range(j0 + 1, n + 1), levels)
    )
    return pairs, max([1 << (j0 - 1)] + levels)


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


@lru_cache(maxsize=32)
def _seed_candidates(j0: int, dtype: np.dtype, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Record indices and minus-masks (read-only, masks of ``dtype``) of the
    sign vectors that seed a grow of ``count`` records: each record's
    2^(j0-1) sign vectors with element 1 fixed to + on its first j0
    elements, in ascending order."""
    seed = 1 << (j0 - 1)
    records = np.repeat(np.arange(count, dtype=np.min_scalar_type(count - 1)), seed)
    masks = np.tile(np.arange(0, 2 * seed, 2, dtype=dtype), count)
    records.flags.writeable = masks.flags.writeable = False
    return records, masks


def _grow(r: int, n: int, minus: np.ndarray, level: int) -> tuple[np.ndarray, ...]:
    """Record indices, minus-masks and ort values (uint8) of sign vectors
    with element 1 fixed to + of the K chirotopes at (r, n) whose circuit
    minus masks are the rows of ``minus`` (uint64, lex order): every one
    with ort at least ``level``.

    Each circuit is first oriented with its largest element positive: of C
    and -C, the one with the smaller minus mask, which changes no verdict.
    The seed is one kernel call: every record's 2^(j0-1) sign vectors on
    the first j0 elements (``_seed_size``), in ascending order, against the
    C(j0, r+1) circuits inside them.  Then each element j > j0 extends the
    survivors by +-j.  A survivor does not hold j and every circuit folded
    in at j holds j positive, so one kernel pass over the survivors
    (``_least_counts``) gives the ort of both children (``_child_orts``).
    A running minimum only falls, so dropping one below ``level`` loses
    nothing, and after element n it is the exact ort.  Each grown candidate
    is followed by its copy with j negative, so a record's candidates stay
    consecutive, but its masks are not ascending.
    """
    pairs, candidates = _enumeration_cost(r, n)
    _check_budget(pairs, len(minus) * candidates)
    order, support = _growth_order(r, n)
    dtype = support.dtype
    oriented = np.take(minus, order, axis=1).astype(dtype)
    np.minimum(oriented, oriented ^ support, out=oriented)
    stack = oriented.T
    j0 = _seed_size(r, n)
    lo = comb(j0, r + 1)
    records, masks = _seed_candidates(j0, dtype, len(minus))
    run = _ort_masks(support[:lo], stack[:lo], masks, records, r + 1)
    for j in range(j0 + 1, n + 1):
        keep = np.flatnonzero(run >= level)
        if not len(keep):
            break
        masks, records, run = masks[keep], records[keep], run[keep]
        hi = comb(j, r + 1)
        run = _child_orts(_least_counts(support[lo:hi], stack[lo:hi], masks, records, r), run)
        masks = masks.repeat(2)
        masks[1::2] |= dtype.type(1 << (j - 1))
        records = records.repeat(2)
        lo = hi
    keep = np.flatnonzero(run >= level)
    return records[keep], masks[keep], run[keep]


def first_index_at_least(cs: CircuitSet, level: int) -> int | None:
    """Enumeration index (minus-mask over elements 2..n, shifted down by one
    bit) of the first sign vector with element 1 fixed to + whose ort is at
    least ``level``; None if there is none."""
    cs.require_nonempty()
    masks = _grow(cs.r, cs.n, cs.minus[None], level)[1]
    return int(masks.min()) >> 1 if masks.size else None


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
    """Count topes by exact ort over the halved enumeration space: entry k is
    m(M,k) - m(M,k+1), the differences of the m-values grown at level 1
    (``grown_m_values``), which are doubled for the antipodal half."""
    cs.require_nonempty()
    m = grown_m_values(cs.r, cs.n, 1, lambda rows: cs.minus[None], 1)[0]
    return OVector(cs.r, cs.n, tuple((m - np.append(m[1:], 0)).tolist()))


def enumerate_topes(cs: CircuitSet):
    """Yield every tope (both antipodes), element-1-positive ones first."""
    cs.require_nonempty()
    masks = _grow(cs.r, cs.n, cs.minus[None], 1)[1]
    full = (1 << cs.n) - 1
    positives = [SignVector(cs.n, full & ~m, m) for m in np.sort(masks).tolist()]
    yield from positives
    yield from (-t for t in positives)


def tope_count(cs: CircuitSet) -> int:
    return m_value(cs, 0)


def m_value(cs: CircuitSet, k: int) -> int:
    """Number of k-neighborly reorientations, m(M,k): the topes with ort at
    least k+1, grown at that level.  k is checked before any enumeration."""
    check_k(cs.r, k)
    cs.require_nonempty()
    return int(grown_m_values(cs.r, cs.n, 1, lambda rows: cs.minus[None], k + 1)[0, 0])


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
