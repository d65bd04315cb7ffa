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
  after the parse takes an order, and the check is paid once per block, not
  again by ``RecordBlock``'s own rule.  It yields one ``DatabaseRecord`` at
  a time, or, as the CLI reads them, the blocks themselves.
- ``compute_rows`` hands ``neighborly.m_values`` row slices of a block's
  signs, at most ``BLOCK_LINES`` records of one (r, n) at a time, and makes
  each result a ``RowBlock``: record ids and m(M,k) as arrays.  The
  o-vector and ``attains`` follow from m, so a block formats the text of
  each distinct m row once.
- ``report_rows`` is the one report loop of the library and the CLI.  It
  refuses a database with no records, then yields the rows of a
  checkpoint, then the rest computed and appended to it a block at a time,
  each block folded into one aggregate per verdict (c-values from the
  module memo ``cyclic.c_value``).  Before a verdict that fails, it counts
  the records the verdict names again from their signs.
- ``load_checkpoint`` holds a checkpoint to one rule before it touches the
  file: line i is the line ``append_checkpoint`` writes for the row of
  record i.  It checks ``BLOCK_LINES`` lines with one ``json.loads``, and
  the blocks it returns keep those lines as their json text.

``RecordBlock`` holds the one rule of a record built by hand, and a
``DatabaseRecord`` is held to it as a block of one.  Records given one at a
time are packed into blocks once, where they enter ``compute_rows`` or
``report_rows`` (``_record_blocks``).
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import groupby, islice, takewhile
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .chirotope import Chirotope, check_signs, parse_sign_rows
from .circuits import _facet_table, circuit_minus
from .cyclic import c_value, c_value_brute, o_vector_closed, tope_count_uniform
from .errors import DomainError, FormatError
from .neighborly import check_enumeration_size, check_k, m_counts, m_counts_of, m_values

# The lines of a block: database lines that ``parse_database`` checks
# together, records that ``compute_rows`` counts in one ``m_values`` call,
# the most rows that ``report_rows`` puts in one block, and checkpoint lines
# that ``load_checkpoint`` checks together.  It bounds the memory a block
# takes beside the records and rows a run keeps.
BLOCK_LINES = 1 << 8


class DatabaseRecord(namedtuple("DatabaseRecord", "id r n signs")):
    """One database line, checked when built by the rule of ``RecordBlock``
    for a block of one: an integer id in the int64 range, and ``signs`` as
    bytes of C(n, r) lex-order signs, each 1 or -1 (0xff): a row of
    ``parse_sign_rows`` as bytes, so the record is never parsed again."""

    __slots__ = ()

    def __new__(cls, id: int, r: int, n: int, signs: bytes):
        if not (isinstance(id, (int, np.integer)) and -(1 << 63) <= id < 1 << 63):
            raise DomainError(f"record id {id!r} is not an integer in the int64 range")
        if not isinstance(signs, bytes):
            raise DomainError(f"record {id}: signs must be bytes, not {type(signs).__name__}")
        RecordBlock(r, n, np.array([id], dtype=np.int64), np.frombuffer(signs, dtype=np.int8)[None])
        return super().__new__(cls, id, r, n, signs)


# a record from signs that ``parse_sign_rows`` has checked, without checking
# them again: the tuple constructor, not ``DatabaseRecord.__new__``
_checked_record = partial(tuple.__new__, DatabaseRecord)


@dataclass(frozen=True, eq=False)
class RecordBlock:
    """Consecutive database records of one (r, n), checked when built by the
    one record rule: ``ids`` is a 1-D int64 array, ``signs`` a 2-D int8
    array with a row per id, and each row holds C(n, r) lex-order signs,
    each 1 or -1, at a valid (r, n) (``chirotope.check_signs``).  The first
    bad record raises naming it.  Blocks from the block parser of
    ``parse_database``, which checks the text, from ``_record_blocks``, which
    packs records checked when built, and the cuts ``report_rows`` makes of
    them are built by ``_checked_block``, so no sign is checked again."""

    r: int
    n: int
    ids: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        ids, signs = self.ids, self.signs
        if not (isinstance(ids, np.ndarray) and ids.dtype == np.int64 and ids.ndim == 1):
            raise DomainError("record ids must be a 1-D int64 numpy array")
        rows = isinstance(signs, np.ndarray) and signs.ndim == 2 and len(signs) == len(ids)
        if not (rows and signs.dtype == np.int8):
            kind = getattr(signs, "dtype", type(signs).__name__)
            raise DomainError(
                f"{len(ids)} records need one int8 row of signs each, not {kind} of shape {np.shape(signs)}"
            )
        if len(ids):
            check_signs(self.r, self.n, signs, lambda row: f"record {ids[row]}: ")

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
                    parse_sign_rows([text], r, n, base_order)
                except FormatError as exc:
                    if good:
                        yield _checked_block(r, n, ids[:good], parse_sign_rows(texts[:good], r, n, base_order))
                    raise type(exc)(f"line {ids[good]}: {exc}") from exc
        yield _checked_block(r, n, ids, signs)


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
            rows = np.frombuffer(b"".join(signs), dtype=np.int8).reshape(len(ids), -1)
            yield _checked_block(r, n, np.array(ids, dtype=np.int64), rows)


@dataclass(frozen=True, eq=False)
class RowBlock:
    """The report rows of consecutive records at one (r, n): each record's
    id (int64) and m(M,k) for k = 0..floor((r-1)/2) (int64, rows x
    levels).  The o-vector entries are the differences of m, and
    ``attains`` is m against the c-values.  A block is stored rows read
    back from a checkpoint or computed rows, never both.

    The one row rule, checked when built, before any difference is taken:
    each m is non-negative and non-increasing in k, as tail sums of counts
    are.  So no o-vector entry wraps or is negative, and the first row that
    breaks the rule raises naming its id."""

    r: int
    n: int
    ids: np.ndarray
    m: np.ndarray
    _lines: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        bad = (self.m[:, -1] < 0) | (self.m[:, 1:] > self.m[:, :-1]).any(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise DomainError(
                f"record {self.ids[row]}: m(M,k) {self.m[row].tolist()} is not non-negative and non-increasing in k"
            )

    @property
    def ovector(self) -> np.ndarray:
        entries = self.m.copy()
        entries[:, :-1] -= self.m[:, 1:]
        return entries

    @property
    def attains(self) -> np.ndarray:
        return self.m == [c_value(self.r, self.n, k) for k in range((self.r + 1) // 2)]

    def lines(self, fmt: str = "json") -> list[str]:
        """One line per row, without its newline, as ``--format fmt``
        prints it: "json" (the checkpoint's format too) or "csv".  Each
        format is built once per block, and the text after the id once per
        distinct m row."""
        if fmt not in self._lines:
            self._lines[fmt] = _format_rows(self, fmt)
        return self._lines[fmt]


def _computed_rows(r: int, n: int, ids: np.ndarray, m: np.ndarray) -> RowBlock:
    """The block of rows that ``m_values`` computed, built without checking
    them: m is a tail sum of counts, so it keeps the rule of ``RowBlock``."""
    block = object.__new__(RowBlock)
    block.__dict__.update(r=r, n=n, ids=ids, m=m, _lines={})
    return block


def _format_rows(block: RowBlock, fmt: str) -> list[str]:
    if not len(block.ids):
        return []
    m = np.ascontiguousarray(block.m)
    keys = m.view(np.dtype((np.void, m.itemsize * m.shape[1]))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    tails = []
    distinct = zip(block.ovector[first].tolist(), m[first].tolist(), block.attains[first].tolist())
    for ovector, row, attains in distinct:
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
                yield _computed_rows(r, n, ids[:upto], m[:upto])
            if upto < len(ids):
                check_tope_count(int(m[upto, 0]), r, n, f"record {ids[upto]}: ")


def check_tope_count(got: int, r: int, n: int, where: str = ""):
    """Refuse a tope count m(M,0) = ``got`` other than that of every uniform
    rank-r matroid on [n], as signs in the wrong base order or corrupt signs
    give; the message starts with ``where``."""
    topes = tope_count_uniform(r, n)
    if got != topes:
        raise FormatError(f"{where}tope count {got} != {topes}; wrong base order or corrupt data")


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


def roudneff_report(
    records: Iterable[DatabaseRecord | RecordBlock], k: int, *, source: str = "the database"
) -> RoudneffAggregate:
    """Max m(M,k) over the database against the bound c_r(n,k); an empty
    database is refused naming ``source``."""
    return _report("roudneff", records, k, source)


def mcmullen_report(records: Iterable[DatabaseRecord | RecordBlock], k: int) -> McMullenAggregate:
    """Min m(M,k) over the database; zero-m records bound nu(r,k) from above."""
    return _report("mcmullen", records, k)


def _report(kind, records, k, source="the database"):
    records = list(records)
    _refuse_empty(records, source)  # else there is no first record to read (r, n) from
    agg = new_aggregate(kind, records[0].r, records[0].n, k)
    for _ in report_rows(agg, records, source=source):
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
    loop of the library and the CLI.

    Before any row, records of another (r, n) than the aggregate's are
    refused, then a database with no records (naming ``source``), and the
    checkpoint is loaded (``load_checkpoint``).  Its blocks come first; the
    records after them are cut from the blocks of ``records``, and each
    block of their rows is appended to the file (``append_checkpoint``)
    before it is yielded.

    A block holds at most ``BLOCK_LINES`` rows, so rows are appended
    ``BLOCK_LINES`` at a time (about 0.4 s of work at (6,12)), and the rows
    before a record with a wrong tope count come out before its error.
    After the last block, a verdict that fails is checked
    (``_recount_named``) before it is left to the caller.
    """
    r, n = agg.r, agg.n
    blocks = list(_record_blocks(records))
    shapes = {(block.r, block.n) for block in blocks} | {(r, n)}
    if len(shapes) > 1:
        raise DomainError(f"mixed (r, n) in one database: {sorted(shapes)}")
    ids = np.concatenate([np.zeros(0, dtype=np.int64)] + [block.ids for block in blocks])
    _refuse_empty(ids, source)
    prior = load_checkpoint(checkpoint, r, n, ids, source) if checkpoint else []
    m = [block.m for block in prior]
    stored = sum(map(len, m))
    prior.reverse()
    while prior:  # each stored block, its lines included, let go once yielded
        block = prior.pop()
        agg.add(block)
        yield block
    for block in compute_rows(_records_after(blocks, stored)):
        if checkpoint:
            append_checkpoint(checkpoint, block)
        agg.add(block)
        m.append(block.m)
        yield block
    if not agg.holds:
        _recount_named(agg, blocks, ids, np.concatenate(m), stored)


def _refuse_empty(records, source: str):
    """Refuse a database with no records: no rows, so no verdict."""
    if not len(records):
        raise DomainError(f"empty database: no chirotope lines in {source}")


def _records_after(blocks: list[RecordBlock], stored: int) -> Iterator[RecordBlock]:
    """The records of ``blocks`` after the first ``stored``, one block cut."""
    for block in blocks:
        if stored < len(block.ids):
            yield _checked_block(block.r, block.n, block.ids[stored:], block.signs[stored:])
        stored = max(stored - len(block.ids), 0)


def _recount_named(agg, blocks: list[RecordBlock], ids: np.ndarray, m: np.ndarray, stored: int):
    """Refuse a failing verdict unless each record it names, its signs
    gathered from ``blocks``, counts again to the m(M,k) of its row.
    ``m_counts`` grows at level k+1: at a dense size another engine than
    the table fold that made the rows, and at any size a check that a
    stored row belongs to its record.  A mismatch raises naming the record
    and, for one of the first ``stored`` records, whose rows came from the
    checkpoint, its line."""
    k = agg.k
    named = np.flatnonzero(agg.named(m[:, k]))
    if not len(named):
        return
    starts = np.cumsum([0] + [len(block.ids) for block in blocks])
    parts = np.split(named, np.searchsorted(named, starts[1:-1]))
    signs = np.concatenate([block.signs[i - s] for block, i, s in zip(blocks, parts, starts) if len(i)])
    recount = m_counts(agg.r, agg.n, signs, k)
    wrong = np.flatnonzero(recount != m[named, k])
    if len(wrong):
        i = int(named[wrong[0]])
        row = f"checkpoint line {i + 1}" if i < stored else "its computed row"
        got, kept = int(recount[wrong[0]]), int(m[i, k])
        raise FormatError(f"record {ids[i]}: m(M,{k}) recounts to {got}, not the {kept} of {row}")


def minor_minus(r: int, n: int, minus: np.ndarray, elements: np.ndarray, contract: bool) -> np.ndarray:
    """The circuit minus masks (uint64, one row per e of ``elements``, lex
    order of supports) of M \\ e, or of M / e when ``contract``, from those
    of M (``minus``, as ``circuit_minus`` gives them): one gather through
    the cached ``_minor_table`` and the bit squeeze.

    Removing e keeps lex order, and squeezing bit e out of a mask renumbers
    the elements above e.  The circuits of M \\ e are those of M whose
    support avoids e.  Those of M / e are the circuits of M holding e,
    restricted to the rest of their support (X^{M/e} = X^M on supp X - e
    for any +-1 signs), then negated where the smallest element is -.  In
    process on 2 vCPU (Python 3.11, numpy 2.4), the 12 deletions and the 12
    contractions of a (6,12) chirotope take about 18 and 36 us.
    """
    index, below, rest, smallest = _minor_table(r, n, contract)
    rows = elements - 1
    minor, keep = minus[index[rows]], below[rows]
    minor = (minor & keep) | ((minor >> np.uint64(1)) & ~keep)
    if contract:
        minor = np.where(minor & smallest, rest ^ minor, minor)
    return minor


@lru_cache(maxsize=32)
def _minor_table(r: int, n: int, contract: bool) -> tuple[np.ndarray, ...]:
    """What ``minor_minus`` at (r, n) reads besides M's circuits, read-only:
    per element e (row e-1), the lex positions of M's circuits whose
    support avoids e, or holds it when ``contract``, and the mask of the
    elements below e; for a contraction also the supports of M / e's
    circuits and the mask of their smallest elements (None otherwise)."""
    supports = _facet_table(r, n)[2]
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    index = np.nonzero(((supports & bits[:, None]) != 0) == contract)[1].reshape(n, -1)
    below = (bits - np.uint64(1))[:, None]
    index.flags.writeable = below.flags.writeable = False
    if not contract:
        return index, below, None, None
    rest = _facet_table(r - 1, n - 1)[2]
    smallest = rest & (~rest + np.uint64(1))
    smallest.flags.writeable = False
    return index, below, rest, smallest


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

    M's circuit minus masks are derived once, after the size is checked,
    and count m(M,k).  The circuits of the n deletions and of the n
    contractions are taken from them (``minor_minus``), so no minor's
    signs are gathered, and each stack is counted by the grown engine at
    level k+1, a growth group at a time (``m_counts_of``), each grow seeded
    by one kernel call.  When k is inadmissible at the contractions' rank
    r-1 they are not counted and contribute 0.  In process on 2 vCPU
    (Python 3.11, numpy 2.4) the audit of a (6,12) chirotope takes about
    2.8, 1.1 and 0.47 ms at k = 0, 1 and 2.
    """
    if chi.n < chi.r + 2:
        raise DomainError("audit needs n >= r+2 so both minors keep circuits")
    check_k(chi.r, k)
    r, n, elements = chi.r, chi.n, np.arange(1, chi.n + 1)
    check_enumeration_size(r, n)
    minus = circuit_minus(r, n, chi.signs)
    m_full = int(m_counts_of(r, n, 1, lambda rows: minus[None], k)[0])
    m_del = m_counts_of(r, n - 1, n, lambda rows: minor_minus(r, n, minus, elements[rows], False), k).tolist()
    m_con = [0] * n
    if k <= (r - 2) // 2:
        m_con = m_counts_of(r - 1, n - 1, n, lambda rows: minor_minus(r, n, minus, elements[rows], True), k).tolist()
    return [AuditTriple(e, m_full, d, c) for e, d, c in zip(elements.tolist(), m_del, m_con)]


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
    *,
    sources: dict[tuple[int, int], str] | None = None,
) -> ReductionVerdict:
    """Reduce the bound m(M,k) <= c_r(n,k) for all n >= 2(r-k)+1 to its base
    cases: every rank r' <= r at n' = 2(r'-k)+1 elements.

    Base cases with n' <= r'+2 hold from the single-reorientation-class
    argument; ranks with k inadmissible contribute nothing.  Remaining base
    cases need a supplied database and are checked record by record.  The
    inductive step's recurrence is checked on the cells above each base case
    (``_recurrence_mismatches``); a mismatch also withholds "confirmed".
    A ``db_map`` key the reduction does not read, or an entry with records
    at another (r, n) than its key, is refused before any row.  An empty
    database is refused naming its entry of ``sources`` (its file name in
    the CLI), or "the database".
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
        source = (sources or {}).get((r_prime, n_prime), "the database")
        agg = roudneff_report(db_map[(r_prime, n_prime)], k, source=source)
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
    range at rank r, a database size other than the base cases the
    reduction reads, (r', 2(r'-k)+1) for 3 <= r' <= r with k admissible and
    more than r'+2 elements, that is r' >= 2k+2 (the refusal names both),
    or a size given twice, which would leave one of its databases unread."""
    check_k(r, k)
    read = [(r_prime, 2 * (r_prime - k) + 1) for r_prime in range(max(3, 2 * k + 2), r + 1)]
    seen = set()
    for size in sizes:
        if size not in read:
            raise DomainError(
                f"the reduction at rank {r}, k={k} reads no database at (r, n) = {size}; "
                f"it reads {', '.join(map(str, read)) or 'none'}"
            )
        if size in seen:
            raise DomainError(f"two databases at (r, n) = {size}; the reduction reads one per size")
        seen.add(size)


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


def load_checkpoint(
    path: str | Path, r: int, n: int, ids: np.ndarray, source: str = "the database"
) -> list[RowBlock]:
    """The stored rows of a run at (r, n) over the records ``ids`` of
    ``source``: the blocks of ``BLOCK_LINES`` lines as they were checked,
    each line kept as the block's json text, so that it is formatted once;
    none if the file does not exist.  Line i must be the line
    ``append_checkpoint`` writes for the row of record i.  The first line
    that is not raises ``FormatError`` naming it, as no line a run writes or
    as a row out of place (a gap, a swap, a repeated id, a row past the
    records), and the file is left as it was.  Only then is a final line
    without its newline, cut short by an append, cut from the file; its
    record is computed again."""
    p = Path(path)
    if not p.exists():
        return []
    data = p.read_bytes()
    *lines, tail = data.decode("utf-8", "surrogateescape").split("\n")
    blocks, rows = [], []
    for start in range(0, len(lines), BLOCK_LINES):
        chunk = lines[start : start + BLOCK_LINES]
        block = _rows_at_once(chunk, r, n)
        if block is None:  # the rows of its lines up to the first that is none
            rows = takewhile(lambda row: row is not None, (_rows_at_once([line], r, n) for line in chunk))
            break
        blocks.append(block)
    got = np.concatenate([np.zeros(0, dtype=np.int64)] + [row.ids for row in [*blocks, *rows]])
    wrong = np.flatnonzero(got[: len(ids)] != ids[: len(got)])
    i = int(wrong[0]) if len(wrong) else len(ids)
    if i < len(got):  # a row out of place, named before a later line that is no row
        place = f"{source} has {len(ids)} records"
        if i < len(ids):
            place = f"record {i + 1} of {source} is id {ids[i]}"
        raise FormatError(f"checkpoint line {i + 1}: id {got[i]}, but {place}")
    if len(got) < len(lines):
        raise FormatError(f"checkpoint line {len(got) + 1}: not a line a run writes at (r, n) = ({r}, {n})")
    if tail:
        os.truncate(p, len(data) - len(tail.encode("utf-8", "surrogateescape")))
    return blocks


def _rows_at_once(chunk: list[str], r: int, n: int) -> RowBlock | None:
    """The rows of checkpoint lines that are each exactly the line that
    ``append_checkpoint`` writes for its row, with one ``json.loads`` and
    array checks; None for any other chunk.  Such a line holds an integer
    id, m that keeps the rule of ``RowBlock`` with m(M,0) the tope count,
    and the o-vector and ``attains`` that follow from m."""
    try:
        parsed = json.loads(f"[{','.join(chunk)}]")
        ids = np.array([row["id"] for row in parsed], dtype=np.int64)
        m = np.array([row["m"] for row in parsed], dtype=np.int64).reshape(len(ids), (r + 1) // 2)
        block = RowBlock(r, n, ids, m)
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None
    if (m[:, 0] != tope_count_uniform(r, n)).any():
        return None
    return block if block.lines("json") == chunk else None


def append_checkpoint(path: str | Path, block: RowBlock):
    """Append every row of the block to the file at ``path`` as whole
    lines; the file is opened for each block."""
    with open(path, "a") as fh:
        fh.write("".join(f"{line}\n" for line in block.lines("json")))
