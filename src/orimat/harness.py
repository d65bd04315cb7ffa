"""Database ingestion and batch verification: o-vector rows per chirotope
record, Roudneff- and McMullen-style aggregates, the deletion/contraction
audit, and the finite reduction check.

Databases are plain text: one +/- chirotope string per line, '#' comments and
blank lines skipped; line numbers double as record ids.  The unit of work is
a block of records, from the input text to the output text:

- ``parse_database`` reads ``BLOCK_LINES`` lines at a time and checks a
  block's signs with one translate (``chirotope.parse_sign_rows``) into a
  ``RecordBlock``: the record ids (int64) and their lex-order signs (int8,
  rows x C(n, r)).  The base order of the text is settled there, so nothing
  after the parse takes an order, and the check is paid once per block.
  It yields one ``DatabaseRecord`` at a time, or, as the CLI reads them,
  the blocks themselves.
- ``compute_rows`` hands ``neighborly.m_values`` row slices of a block's
  signs, at most ``BLOCK_LINES`` records of one (r, n) at a time, and makes
  each result a ``RowBlock``: record ids and m(M,k) as arrays.  The
  o-vector and ``attains`` follow from m, so a block formats the text of
  each distinct m row once.
- ``report_rows`` is the one report loop of the library and the CLI: it
  merges the rows of a checkpoint with the computed ones in record order,
  appends each block's computed rows to the checkpoint before yielding it,
  and folds each block into one aggregate per verdict, with c-values from
  the module memo ``cyclic.c_value``.  Before a verdict that fails, it
  counts the records the verdict names again from their signs.
- ``load_checkpoint`` reads exactly the lines ``append_checkpoint``
  writes, one row per line, with one ``json.loads`` per ``BLOCK_LINES``
  lines; any other line, blank or a row in another layout, is refused.

Records given one at a time (``DatabaseRecord``) are packed into blocks once,
where they enter ``compute_rows`` or ``report_rows`` (``_record_blocks``).
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, compress, groupby, islice, takewhile
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .chirotope import Chirotope, check_shape, minor_gather, parse_sign_rows, parse_signs
from .cyclic import c_value, c_value_brute, o_vector_closed, tope_count_uniform
from .errors import DomainError, FormatError, NonUniformError
from .neighborly import check_k, m_counts, m_values
from .signvec import MAX_GROUND_SET

# The lines of a block: database lines that ``parse_database`` checks
# together, records that ``compute_rows`` counts in one ``m_values`` call,
# the most rows that ``report_rows`` puts in one block, and checkpoint lines
# that ``load_checkpoint`` checks together.  It bounds the memory a block
# takes beside the records and rows a run keeps.
BLOCK_LINES = 1 << 8


class DatabaseRecord(namedtuple("DatabaseRecord", "id r n signs")):
    """One database line, checked when built: ``signs`` holds C(n, r) signs
    in lex order, each byte 1 or -1 (0xff), as ``parse_signs`` returns
    them, so the record is never parsed again."""

    __slots__ = ()

    def __new__(cls, id: int, r: int, n: int, signs: bytes):
        if not (
            1 <= r <= n <= MAX_GROUND_SET
            and len(signs) == comb(n, r)
            and not signs.strip(b"\x01\xff")
        ):
            try:
                check_shape(r, n)
                if len(signs) != comb(n, r):
                    raise DomainError(f"expected {comb(n, r)} signs, got {len(signs)}")
                raise NonUniformError("chirotope signs must be +1/-1 (uniform only)")
            except (DomainError, NonUniformError) as exc:
                raise type(exc)(f"record {id}: {exc}") from None
        return super().__new__(cls, id, r, n, signs)


# a record from signs that ``parse_sign_rows`` has checked, without checking
# them again: the tuple constructor, not ``DatabaseRecord.__new__``
_checked_record = partial(tuple.__new__, DatabaseRecord)


@dataclass(frozen=True, eq=False)
class RecordBlock:
    """Consecutive database records of one (r, n): their ids (int64) and
    their lex-order signs (int8, rows x C(n, r)), each 1 or -1.  A block
    built by hand is checked when built, each record as ``DatabaseRecord``
    checks the bytes of its signs, and the first bad record raises naming
    it; ids must be an int64 array.  Blocks from the block parser of ``parse_database``, which checks
    the text, from ``_record_blocks``, which packs records checked when
    built, and the cuts ``report_rows`` makes of them are built by
    ``_checked_block``, so no sign is checked again."""

    r: int
    n: int
    ids: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.ids, np.ndarray) and self.ids.dtype == np.int64 and self.ids.ndim == 1):
            raise DomainError("record ids must be a 1-D int64 numpy array")
        rows = np.ascontiguousarray(self.signs).view(np.uint8)  # the bytes of each record's signs
        if rows.ndim != 2 or len(rows) > len(self.ids):
            shape = np.shape(self.signs)
            raise DomainError(f"{len(self.ids)} records need one row of signs each, not shape {shape}")
        fits = 1 <= self.r <= self.n <= MAX_GROUND_SET and rows.shape[1] == comb(self.n, self.r)
        bad = np.flatnonzero(~(np.isin(rows, (1, 0xFF)).all(axis=1) & fits))
        first = int(bad[0]) if len(bad) else len(rows)
        if first < len(self.ids):  # raises: the record's signs do not pass
            signs = rows[first].tobytes() if first < len(rows) else b""
            DatabaseRecord(int(self.ids[first]), self.r, self.n, signs)

    def records(self) -> Iterator[DatabaseRecord]:
        """The records one at a time, built from the checked signs."""
        for row_id, signs in zip(self.ids.tolist(), self.signs):
            yield _checked_record((row_id, self.r, self.n, signs.tobytes()))


def _checked_block(r: int, n: int, ids: np.ndarray, signs: np.ndarray) -> RecordBlock:
    """The block of signs that are already checked, built without checking
    them again."""
    block = object.__new__(RecordBlock)
    block.__dict__.update(r=r, n=n, ids=ids, signs=signs)
    return block


def parse_database(
    lines: Iterable[str], r: int, n: int, base_order: str = "lex", *, blocks: bool = False
) -> Iterator[DatabaseRecord] | Iterator[RecordBlock]:
    """The records of chirotope lines whose positions follow
    ``base_order``, parsed ``BLOCK_LINES`` lines at a time as they are
    read: one ``DatabaseRecord`` at a time, or with ``blocks`` one
    ``RecordBlock`` per parsed block.  A malformed line raises with its line
    number, after the records before it."""
    for block in _parse_blocks(iter(lines), r, n, base_order):
        if blocks:
            yield block
        else:
            yield from block.records()


def _parse_blocks(lines: Iterator[str], r: int, n: int, base_order: str) -> Iterator[RecordBlock]:
    """One ``RecordBlock`` per ``BLOCK_LINES`` lines that hold a record,
    its signs checked with one ``parse_sign_rows``.  A block that holds a
    bad line is parsed again one line at a time, to name the first bad
    line: the records before it come out as a block, then it raises."""
    start = 1
    while block := list(islice(lines, BLOCK_LINES)):
        stripped = [line.strip() for line in block]
        texts = [line for line in stripped if line and line[0] != "#"]
        ids = np.arange(start, start + len(block), dtype=np.int64)
        if len(texts) < len(block):
            ids = ids[[bool(line) and line[0] != "#" for line in stripped]]
        start += len(block)
        if not texts:
            continue
        try:
            signs = parse_sign_rows(texts, r, n, base_order)
        except FormatError:
            for good, text in enumerate(texts):
                try:
                    parse_signs(text, r, n, base_order)
                except FormatError as exc:
                    if good:
                        signs = parse_sign_rows(texts[:good], r, n, base_order)
                        yield _record_block(r, n, ids[:good], signs)
                    raise type(exc)(f"line {ids[good]}: {exc}") from exc
        yield _record_block(r, n, ids, signs)


def _record_block(r: int, n: int, ids, signs: bytes) -> RecordBlock:
    """The block of the records ``ids`` whose checked signs are ``signs``,
    one record after another."""
    rows = np.frombuffer(signs, dtype=np.int8).reshape(len(ids), -1)
    return _checked_block(r, n, np.asarray(ids, dtype=np.int64), rows)


def _record_blocks(items: Iterable[DatabaseRecord | RecordBlock]) -> Iterator[RecordBlock]:
    """``items`` as ``RecordBlock``s: a block as it is, and each run of
    records of one (r, n) packed ``BLOCK_LINES`` at a time.  This is the one
    place where records are taken apart."""
    for (r, n, packed), run in groupby(items, key=lambda x: (x.r, x.n, isinstance(x, RecordBlock))):
        if packed:
            yield from run
            continue
        while chunk := list(islice(run, BLOCK_LINES)):
            ids, _, _, signs = zip(*chunk)
            yield _record_block(r, n, ids, b"".join(signs))


@dataclass(frozen=True, eq=False)
class RowBlock:
    """The report rows of consecutive records at one (r, n): each record's
    id (int64) and m(M,k) for k = 0..floor((r-1)/2) (int64, rows x
    levels).  The o-vector entries are the differences of m, and
    ``attains`` is m against the c-values.  ``stored`` marks the rows read
    back from a checkpoint (none when it is None); ``append_checkpoint``
    writes the others."""

    r: int
    n: int
    ids: np.ndarray
    m: np.ndarray
    stored: np.ndarray | None = None
    _lines: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def ovector(self) -> np.ndarray:
        entries = self.m.copy()
        entries[:, :-1] -= self.m[:, 1:]
        return entries

    @property
    def attains(self) -> np.ndarray:
        return self.m == _c_values(self.r, self.n)

    def lines(self, fmt: str = "json") -> list[str]:
        """One line per row, without its newline, as ``--format fmt``
        prints it: "json" (the checkpoint's format too) or "csv".  Each
        format is built once per block, and the text after the id once per
        distinct m row."""
        if fmt not in self._lines:
            self._lines[fmt] = _format_rows(self, fmt)
        return self._lines[fmt]


def _c_values(r: int, n: int) -> list[int]:
    return [c_value(r, n, k) for k in range((r + 1) // 2)]


def _format_rows(block: RowBlock, fmt: str) -> list[str]:
    if not len(block.ids):
        return []
    m = np.ascontiguousarray(block.m)
    keys = m.view(np.dtype((np.void, m.itemsize * m.shape[1]))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    c = _c_values(block.r, block.n)
    tails = []
    for row in m[first].tolist():
        ovector = [a - b for a, b in zip(row, row[1:] + [0])]
        attains = [a == b for a, b in zip(row, c)]
        if fmt == "json":
            tails.append(f'"ovector": {ovector}, "m": {row}, "attains": {str(attains).lower()}}}')
        else:
            fields = (ovector, row, map(int, attains))
            tails.append(",".join(" ".join(map(str, values)) for values in fields))
    rows = zip(block.ids.tolist(), which.tolist())
    if fmt == "json":
        return [f'{{"id": {i}, {tails[j]}' for i, j in rows]
    return [f"{i},{tails[j]}" for i, j in rows]


def compute_rows(records: Iterable[DatabaseRecord | RecordBlock]) -> Iterator[RowBlock]:
    """The rows of ``records``, records or ``RecordBlock``s, in record
    order: one ``neighborly.m_values`` call on a row slice of a block's
    signs, and one block of rows, per ``BLOCK_LINES`` records of a block
    (``_record_blocks`` packs runs of records that many at a time).  Record
    order does not change any row.  A record whose tope count m(M,0) is
    wrong raises after the block of the rows before it.
    """
    for block in _record_blocks(records):
        r, n = block.r, block.n
        topes = tope_count_uniform(r, n)
        for start in range(0, len(block.ids), BLOCK_LINES):
            ids = block.ids[start : start + BLOCK_LINES]
            m = m_values(r, n, block.signs[start : start + BLOCK_LINES])
            wrong = np.flatnonzero(m[:, 0] != topes)
            upto = int(wrong[0]) if len(wrong) else len(ids)
            if upto:
                yield RowBlock(r, n, ids[:upto], m[:upto])
            if upto < len(ids):
                raise FormatError(
                    f"record {ids[upto]}: tope count {int(m[upto, 0])} != {topes}; "
                    "wrong base order or corrupt data"
                )


@dataclass
class RoudneffAggregate:
    r: int
    n: int
    k: int
    c_bound: int
    max_m: int = 0
    argmax_ids: list[int] = field(default_factory=list)
    attaining: int = 0

    def add(self, block: RowBlock):
        m = block.m[:, self.k]
        if not len(m):
            return
        top = int(m.max())
        if top > self.max_m:
            self.max_m, self.argmax_ids = top, []
        if top == self.max_m:
            self.argmax_ids += block.ids[m == top].tolist()
        self.attaining += int(np.count_nonzero(m == self.c_bound))

    @property
    def holds(self) -> bool:
        return self.max_m <= self.c_bound

    def named(self, m: np.ndarray) -> np.ndarray:
        """Which of the m(M,k) values ``m`` a counterexample names."""
        return m == self.max_m

    def summary(self) -> dict:
        return {
            "verdict": "holds" if self.holds else "counterexample",
            "max_m": self.max_m,
            "c": self.c_bound,
            "attaining": self.attaining,
            "argmax_ids": self.argmax_ids,
        }


@dataclass
class McMullenAggregate:
    r: int
    n: int
    k: int
    min_m: int | None = None  # None until the first row
    zero_ids: list[int] = field(default_factory=list)

    def add(self, block: RowBlock):
        m = block.m[:, self.k]
        if not len(m):
            return
        low = int(m.min())
        self.min_m = low if self.min_m is None else min(self.min_m, low)
        self.zero_ids += block.ids[m == 0].tolist()

    @property
    def holds(self) -> bool:
        """True iff every record has a k-neighborly reorientation (evidence
        that n <= nu(r,k)); each zero id witnesses nu(r,k) < n."""
        return self.min_m is not None and self.min_m > 0

    def named(self, m: np.ndarray) -> np.ndarray:
        """Which of the m(M,k) values ``m`` are zero-m witnesses."""
        return m == 0

    def summary(self) -> dict:
        return {
            "verdict": "all-have-witness" if self.holds else "zero-m-witnesses",
            "min_m": self.min_m,
            "zero_ids": self.zero_ids,
        }


def new_aggregate(kind: str, r: int, n: int, k: int):
    """The empty "roudneff" or "mcmullen" aggregate at (r, n); k, and the
    roudneff bound c_r(n,k), are checked here, before any row is computed."""
    check_k(r, k)
    if kind == "roudneff":
        return RoudneffAggregate(r, n, k, c_value(r, n, k))
    return McMullenAggregate(r, n, k)


def roudneff_report(records: Iterable[DatabaseRecord | RecordBlock], k: int) -> RoudneffAggregate:
    """Max m(M,k) over the database against the bound c_r(n,k)."""
    return _report("roudneff", records, k)


def mcmullen_report(records: Iterable[DatabaseRecord | RecordBlock], k: int) -> McMullenAggregate:
    """Min m(M,k) over the database; zero-m records bound nu(r,k) from above."""
    return _report("mcmullen", records, k)


def _report(kind, records, k):
    records = list(records)
    if not any(len(x.ids) if isinstance(x, RecordBlock) else 1 for x in records):
        raise DomainError("empty database")
    agg = new_aggregate(kind, records[0].r, records[0].n, k)
    for _ in report_rows(agg, records):
        pass
    return agg


def report_rows(
    agg: RoudneffAggregate | McMullenAggregate,
    records: Iterable[DatabaseRecord | RecordBlock],
    checkpoint: str | Path | None = None,
    *,
    source: str = "the database",
) -> Iterator[RowBlock]:
    """The rows of ``records``, records or ``RecordBlock``s, in record
    order, a block at a time, each block added to ``agg``: the one report
    loop of the library and the CLI.  Before any row, records of another
    (r, n) than the aggregate's, and checkpoint ids that are not records of
    ``source``, are refused.  Only the rows the checkpoint lacks are
    computed; a block's computed rows are appended to it and flushed before
    the block is yielded.

    A block holds at most ``BLOCK_LINES`` rows and ends where the rows
    computed so far end, so rows are appended ``BLOCK_LINES`` at a time
    (about 0.4 s of work at (6,12)), and the rows before a record with a
    wrong tope count come out before its error.  After the last block, a
    verdict that fails is checked (``_recount_named``) before it is left to
    the caller.
    """
    r, n = agg.r, agg.n
    empty = _checked_block(r, n, np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int8))
    blocks = list(_record_blocks(records)) or [empty]
    shapes = {(block.r, block.n) for block in blocks} | {(r, n)}
    if len(shapes) > 1:
        raise DomainError(f"mixed (r, n) in one database: {sorted(shapes)}")
    # the whole database as one block, so that the records not stored are
    # one cut from it
    whole = _checked_block(
        r, n, np.concatenate([b.ids for b in blocks]), np.concatenate([b.signs for b in blocks])
    )
    ids = whole.ids
    m = np.zeros((len(ids), (r + 1) // 2), dtype=np.int64)
    line = np.zeros(len(ids), dtype=np.int64)  # each record's checkpoint line, 0 for none
    if checkpoint:
        prior = load_checkpoint(checkpoint, r, n)  # one row per line, in file order
        order = np.argsort(prior.ids, kind="stable")
        known = prior.ids[order]  # ids of the stored rows, sorted; each once
        unknown = known[~np.isin(known, ids)]
        if len(unknown):
            raise FormatError(
                f"checkpoint {checkpoint} holds ids {unknown.tolist()} that are not records of {source}"
            )
        if len(known):
            at = np.minimum(np.searchsorted(known, ids), len(known) - 1)
            found = known[at] == ids
            line[found] = order[at[found]] + 1
            m[found] = prior.m[line[found] - 1]
    stored = line > 0
    sink = None  # the checkpoint, opened for the first computed row
    try:
        todo = whole if not stored.any() else _checked_block(r, n, ids[~stored], whole.signs[~stored])
        computed = compute_rows([todo])
        for block in _merged_blocks(r, n, ids, m, stored, computed):
            if checkpoint and not block.stored.all():
                sink = sink or open(checkpoint, "a")
                append_checkpoint(sink, block)
            agg.add(block)
            yield block
    finally:
        if sink:
            sink.close()
    if not agg.holds:
        _recount_named(agg, whole, m, line)


def _merged_blocks(r, n, ids, m, stored, computed) -> Iterator[RowBlock]:
    """Blocks of the rows in record order: the stored rows already in
    ``m``, and the others filled in as ``computed`` yields them.  Each block
    ends before the first record whose row is not known yet."""
    todo = np.flatnonzero(~stored)
    done = taken = 0
    while True:
        ready = int(todo[taken]) if taken < len(todo) else len(ids)
        for start in range(done, ready, BLOCK_LINES):
            stop = min(start + BLOCK_LINES, ready)
            yield RowBlock(r, n, ids[start:stop], m[start:stop], stored[start:stop])
        done = ready
        if taken == len(todo):
            return
        block = next(computed)  # raises the error of the record at ``ready``
        m[todo[taken : taken + len(block.ids)]] = block.m
        taken += len(block.ids)


def _recount_named(agg, whole: RecordBlock, m, line):
    """Refuse a failing verdict unless each record it names counts again,
    from its signs, to the m(M,k) of its row.  ``m_counts`` grows at level
    k+1: at a dense size another engine than the table fold that made the
    rows, and at any size a check that a stored row belongs to its record.
    A mismatch raises naming the record and, for a stored row, its
    checkpoint line (``line``, 0 for a computed row)."""
    k = agg.k
    named = np.flatnonzero(agg.named(m[:, k]))
    if not len(named):
        return
    recount = m_counts(agg.r, agg.n, whole.signs[named], k)
    wrong = np.flatnonzero(recount != m[named, k])
    if len(wrong):
        i = int(named[wrong[0]])
        row_id = int(whole.ids[i])
        row = f"checkpoint line {line[i]}" if line[i] else "its computed row"
        got, kept = int(recount[wrong[0]]), int(m[i, k])
        raise FormatError(f"record {row_id}: m(M,{k}) recounts to {got}, not the {kept} of {row}")


@dataclass(frozen=True)
class AuditTriple:
    element: int
    m_full: int
    m_delete: int
    m_contract: int

    @property
    def holds(self) -> bool:
        return self.m_full <= self.m_delete + self.m_contract


def deletion_contraction_audit(chi: Chirotope, k: int) -> list[AuditTriple]:
    """Per element e: m(M,k) <= m(M\\e,k) + m(M/e,k).

    The n deletions are one stack of chirotopes and the n contractions
    another (``chirotope.minor_gather``), each counted by one batched grow
    at level k+1.  When k is inadmissible at the contractions' rank r-1
    they are not built and contribute 0.
    """
    if chi.n < chi.r + 2:
        raise DomainError("audit needs n >= r+2 so both minors keep circuits")
    check_k(chi.r, k)
    r, n, elements = chi.r, chi.n, range(1, chi.n + 1)
    signs = np.array(chi.signs, dtype=np.int8)
    m_full = int(m_counts(r, n, signs[None], k)[0])
    index, factor = minor_gather(r, n, elements, contract=False)
    m_del = m_counts(r, n - 1, signs[index] * factor, k).tolist()
    m_con = [0] * n
    if k <= (r - 2) // 2:
        index, factor = minor_gather(r, n, elements, contract=True)
        m_con = m_counts(r - 1, n - 1, signs[index] * factor, k).tolist()
    return [AuditTriple(e, m_full, d, c) for e, d, c in zip(elements, m_del, m_con)]


@dataclass
class ReductionVerdict:
    r: int
    k: int
    confirmed: bool
    detail: list[str]
    missing: list[tuple[int, int]]  # (rank, elements) base databases not supplied

    @property
    def incomplete(self) -> bool:
        return bool(self.missing)


def finite_reduction_check(
    r: int,
    k: int,
    db_map: dict[tuple[int, int], Iterable[DatabaseRecord | RecordBlock]] | None = None,
) -> ReductionVerdict:
    """Reduce the bound m(M,k) <= c_r(n,k) for all n >= 2(r-k)+1 to its base
    cases: every rank r' <= r at n' = 2(r'-k)+1 elements.

    Base cases with n' <= r'+2 hold from the single-reorientation-class
    argument; ranks with k inadmissible contribute nothing.  Remaining base
    cases need a supplied database and are checked record by record.  The
    inductive step's recurrence is checked on the cells above each base case
    (``_recurrence_mismatches``); a mismatch also withholds "confirmed".
    A ``db_map`` key the reduction does not read, or an entry with records
    at another (r, n) than its key, is refused before any row.
    """
    db_map = {size: list(records) for size, records in (db_map or {}).items()}
    check_reduction_inputs(r, k, db_map)
    for size, records in db_map.items():
        others = {(rec.r, rec.n) for rec in records} - {size}
        if others:
            raise DomainError(f"the database for (r, n) = {size} holds records at {sorted(others)}")
    detail: list[str] = []
    missing: list[tuple[int, int]] = []
    confirmed = True
    for r_prime in range(3, r + 1):
        if k > (r_prime - 1) // 2:
            detail.append(f"rank {r_prime}: k inadmissible, o-entries are 0")
            continue
        n_prime = 2 * (r_prime - k) + 1
        if n_prime <= r_prime + 2:
            detail.append(
                f"rank {r_prime}, n={n_prime}: single reorientation class, holds"
            )
            continue
        if (r_prime, n_prime) not in db_map:
            missing.append((r_prime, n_prime))
            detail.append(f"rank {r_prime}, n={n_prime}: database missing")
            continue
        agg = roudneff_report(db_map[(r_prime, n_prime)], k)
        if agg.holds:
            detail.append(
                f"rank {r_prime}, n={n_prime}: max m = {agg.max_m} <= c = {agg.c_bound}"
            )
        else:
            confirmed = False
            detail.append(
                f"rank {r_prime}, n={n_prime}: COUNTEREXAMPLE max m = {agg.max_m} > {agg.c_bound}"
            )
    mismatches = _recurrence_mismatches(r, k)
    detail.extend(mismatches)
    confirmed = confirmed and not mismatches
    return ReductionVerdict(r, k, confirmed and not missing, detail, missing)


def check_reduction_inputs(r: int, k: int, sizes: Iterable[tuple[int, int]]):
    """Refuse, before any database is read, a rank below 1, a k outside its
    range at rank r, or a database size other than the base cases the
    reduction reads, (r', 2(r'-k)+1) for 3 <= r' <= r with k admissible and
    more than r'+2 elements, that is r' >= 2k+2; the refusal names both."""
    if r < 1:
        raise DomainError(f"invalid rank r={r}: the reduction needs r >= 1")
    check_k(r, k)
    read = [(r_prime, 2 * (r_prime - k) + 1) for r_prime in range(max(3, 2 * k + 2), r + 1)]
    for size in sizes:
        if size not in read:
            raise DomainError(
                f"the reduction at rank {r}, k={k} reads no database at (r, n) = {size}; "
                f"it reads {', '.join(map(str, read)) or 'none'}"
            )


def _recurrence_mismatches(r: int, k: int) -> list[str]:
    """The inductive step's c_r'(n,k) = c_r'(n-1,k) + c_{r'-1}(n-1,k), checked
    for every admissible rank r' <= r on the two cells n = 2(r'-k)+2 and
    2(r'-k)+3 just above its base case, against the closed form and, within
    the enumeration budget, brute force.  The right-hand side comes from the
    module memo; c_{r'-1} is 0 where k is inadmissible at rank r'-1.  One
    line per disagreement."""
    lines = []
    for r_prime in range(2 * k + 1, r + 1):
        for n in (2 * (r_prime - k) + 2, 2 * (r_prime - k) + 3):
            value = c_value(r_prime, n - 1, k)
            if k <= (r_prime - 2) // 2:
                value += c_value(r_prime - 1, n - 1, k)
            checks = [("closed form", sum(o_vector_closed(r_prime, n, k)))]
            try:
                checks.append(("brute force", c_value_brute(r_prime, n, k)))
            except DomainError:
                pass  # refused before any work: the closed form stands alone
            lines.extend(
                f"rank {r_prime}, n={n}: RECURRENCE MISMATCH c = {value} != {name} {other}"
                for name, other in checks
                if other != value
            )
    return lines


# -- checkpointing -----------------------------------------------------


def load_checkpoint(path: str | Path, r: int, n: int) -> RowBlock:
    """Stored rows of an interrupted run at (r, n), one per line, in file
    order, as one block; none if the file does not exist.

    Each append writes whole lines, so a final line without its newline was
    cut short.  Once every other line has passed, it is dropped and cut from
    the file, so the next append starts a fresh line; its record is simply
    computed again.  The first other line that is not the line
    ``append_checkpoint`` writes for a row of a new id raises
    ``FormatError`` naming it, and leaves the file as it was."""
    p = Path(path)
    if not p.exists():
        return _stored_block(r, n, [], [])
    data = p.read_bytes()
    *lines, tail = data.decode("utf-8", "surrogateescape").split("\n")
    chunks = (lines[start : start + BLOCK_LINES] for start in range(0, len(lines), BLOCK_LINES))
    passed = takewhile(lambda block: block is not None, (_rows_at_once(chunk, r, n) for chunk in chunks))
    blocks = [_stored_block(r, n, [], []), *passed]
    # a line that repeats an id comes before any line of a refused chunk
    ids = np.concatenate([block.ids for block in blocks])
    first = np.unique(ids, return_index=True)[1]  # the first line of each id
    if len(first) < len(ids):
        i = int(np.flatnonzero(~np.isin(np.arange(len(ids)), first))[0])
        raise FormatError(f"checkpoint line {i + 1}: duplicate id {ids[i]}")
    if len(ids) < len(lines):  # a chunk was refused; each line before it holds a row
        _refuse_line(lines[len(ids) : len(ids) + BLOCK_LINES], len(ids), set(ids.tolist()), r, n)
    if tail:
        os.truncate(p, len(data) - len(tail.encode("utf-8", "surrogateescape")))
    return _stored_block(r, n, ids, np.concatenate([block.m for block in blocks]))


def _stored_block(r: int, n: int, ids, m) -> RowBlock:
    m = np.array(m, dtype=np.int64).reshape(len(ids), (r + 1) // 2)
    return RowBlock(r, n, np.array(ids, dtype=np.int64), m, np.ones(len(ids), dtype=bool))


def _rows_at_once(chunk: list[str], r: int, n: int) -> RowBlock | None:
    """The rows of checkpoint lines that are each exactly the line that
    ``append_checkpoint`` writes for its row, with one ``json.loads`` and
    array checks; None for any other chunk.  Such a line holds an integer
    id, m with m(M,0) the tope count, and the o-vector (non-negative) and
    ``attains`` that follow from m."""
    try:
        parsed = json.loads(f"[{','.join(chunk)}]")
        block = _stored_block(r, n, [row["id"] for row in parsed], [row["m"] for row in parsed])
    except (ValueError, TypeError, KeyError, OverflowError):
        return None
    if (block.m[:, 0] != tope_count_uniform(r, n)).any() or (block.ovector < 0).any():
        return None
    return block if block.lines("json") == chunk else None


def _refuse_line(chunk: list[str], start: int, seen: set[int], r: int, n: int):
    """Raise naming the first line of a chunk that ``_rows_at_once``
    refused (numbered from ``start`` + 1) that is not a row at (r, n),
    repeats an id of ``seen``, or is a row in another layout; every refused
    chunk holds one."""
    topes, c_values = tope_count_uniform(r, n), _c_values(r, n)
    for lineno, line in enumerate(chunk, start + 1):
        try:
            d = json.loads(line)
            row_id, ovector, m, attains = d["id"], tuple(d["ovector"]), tuple(d["m"]), tuple(d["attains"])
        except (ValueError, TypeError, KeyError) as exc:
            raise FormatError(f"checkpoint line {lineno}: not a report row ({exc})") from None
        if type(row_id) is not int:
            raise FormatError(f"checkpoint line {lineno}: id {json.dumps(row_id)} is not an integer")
        if not -(2**63) <= row_id < 2**63:
            raise FormatError(f"checkpoint line {lineno}: id {row_id} is out of range")
        error = _checkpoint_error(ovector, m, attains, topes, c_values)
        if error:
            raise FormatError(f"checkpoint line {lineno}: {error} at (r, n) = ({r}, {n})")
        if row_id in seen:
            raise FormatError(f"checkpoint line {lineno}: duplicate id {row_id}")
        if line != _stored_block(r, n, [row_id], [m]).lines("json")[0]:
            raise FormatError(f"checkpoint line {lineno}: row {row_id} is not in the layout a run writes")
        seen.add(row_id)


def _checkpoint_error(
    ovector: tuple, m: tuple, attains: tuple, topes: int, c_values: list[int]
) -> str | None:
    """What makes a stored row unfit for a run at (r, n), if anything, given
    the tope count of every uniform matroid there and c_r(n,k) for k = 0..
    floor((r-1)/2): one count per k in ``ovector`` and ``m`` and one bool
    in ``attains``, m the tail sums of the o-vector, m(M,0) the tope count,
    and attains true exactly where m equals the c-value."""
    width = len(c_values)
    if not len(ovector) == len(m) == len(attains) == width:
        return f"not {width} entries in each of ovector, m and attains"
    if {type(v) for v in ovector + m} != {int} or min(ovector) < 0:
        return "an o-vector or m entry is not a non-negative integer"
    if {type(a) for a in attains} != {bool}:
        return "an attains entry is not true or false"
    if m != tuple(accumulate(reversed(ovector)))[::-1]:
        return "m is not the tail sums of the o-vector"
    if m[0] != topes:
        return f"tope count {m[0]} != {topes}"
    if attains != tuple(a == c for a, c in zip(m, c_values)):
        return "attains does not match the c-values"
    return None


def append_checkpoint(sink: str | Path | TextIO, block: RowBlock):
    """Append the block's rows that are not ``stored`` as whole lines: to
    the file named by ``sink``, or, flushed at once, to ``sink`` itself, a
    text file open for appending that a run keeps for all its blocks."""
    lines = block.lines("json")
    if block.stored is not None:
        lines = list(compress(lines, ~block.stored))
    text = "".join(f"{line}\n" for line in lines)
    if isinstance(sink, (str, Path)):
        with open(sink, "a") as fh:
            fh.write(text)
        return
    sink.write(text)
    sink.flush()
