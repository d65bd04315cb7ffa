"""Database ingestion and batch verification: o-vector rows per chirotope
record, Roudneff- and McMullen-style aggregates, the deletion/contraction
audit, and the finite reduction check.

Databases are plain text: one +/- chirotope string per line, '#' comments and
blank lines skipped; line numbers double as record ids.  The base order of the
text is settled when a line is parsed: ``DatabaseRecord.signs`` is in lex
order, and nothing after ``parse_database`` takes an order.  Rows stream into
one aggregate per verdict, shared by the library and the CLI, with c-values
from the module memo ``cyclic.c_value``; an optional checkpoint file makes
interrupted runs resumable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import accumulate, groupby, islice
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .chirotope import Chirotope, check_shape, parse_signs
from .circuits import circuits_from_chirotope
from .cyclic import c_value, c_value_brute, o_vector_closed, tope_count_uniform
from .errors import DomainError, FormatError, NonUniformError, OrimatError
from .neighborly import check_k, m_value, m_values, records_per_call


@dataclass(frozen=True, slots=True)
class DatabaseRecord:
    """One validated database line; ``signs`` holds its parsed signs in lex
    order (``parse_signs``), so the record is never parsed again."""

    id: int
    r: int
    n: int
    signs: bytes

    def chirotope(self) -> Chirotope:
        return Chirotope(self.n, self.r, tuple(memoryview(self.signs).cast("b")))


@dataclass(frozen=True)
class ReportRow:
    id: int
    ovector: tuple[int, ...]
    m: tuple[int, ...]
    attains: tuple[bool, ...]

    def to_json(self) -> str:
        """The bytes of ``json.dumps(vars(self))``: the fields in order,
        tuples as arrays.  A list of ints prints as its JSON array, and a
        list of bools does once lowercased."""
        return (
            f'{{"id": {self.id}, "ovector": {list(self.ovector)}, "m": {list(self.m)}, '
            f'"attains": {str(list(self.attains)).lower()}}}'
        )

    def to_csv(self) -> str:
        fields = (self.ovector, self.m, map(int, self.attains))
        return ",".join([str(self.id)] + [" ".join(map(str, values)) for values in fields])


def parse_database(
    lines: Iterable[str], r: int, n: int, base_order: str = "lex"
) -> Iterator[DatabaseRecord]:
    """Stream records from chirotope lines whose positions follow
    ``base_order``; malformed lines raise with the offending line number."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            signs = parse_signs(line, r, n, base_order)
        except NonUniformError as exc:
            raise NonUniformError(f"line {lineno}: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        yield DatabaseRecord(lineno, r, n, signs)


def compute_rows(records: Iterable[DatabaseRecord]) -> Iterator[ReportRow]:
    """Per-record rows in record order; record order does not change any row.

    Consecutive records of one (r, n) go through ``neighborly.m_values``,
    ``records_per_call`` of them per call.  Each record is checked when its
    row is due, so the rows before a bad record still come out.
    """
    for (r, n), same in groupby(records, key=lambda rec: (rec.r, rec.n)):
        size = records_per_call(r, n)
        while group := list(islice(same, size)):
            yield from _group_rows(group)


# bytes.translate table: 0 for the sign bytes 1 and -1 (0xff), 1 for any other
_NOT_A_SIGN = bytes(int(b not in (0x01, 0xFF)) for b in range(256))


def _group_rows(group: list[DatabaseRecord]) -> Iterator[ReportRow]:
    """Rows of consecutive records of one (r, n), up to the first record
    with a ``_sign_error``; that one raises after them.  The rows are
    assembled column by column: m and the o-vector entries (its differences)
    as arrays, one tope-count compare and one c-value compare per group."""
    r, n = group[0].r, group[0].n
    try:
        check_shape(r, n)
    except DomainError as exc:
        raise DomainError(f"record {group[0].id}: {exc}") from None
    size = comb(n, r)
    bad = next((i for i, rec in enumerate(group) if len(rec.signs) != size), len(group))
    joined = b"".join(rec.signs for rec in group[:bad])
    first = joined.translate(_NOT_A_SIGN).find(1)
    bad = bad if first < 0 else first // size
    good = group[:bad]
    if good:
        signs = np.frombuffer(joined, dtype=np.int8, count=bad * size).reshape(bad, size)
        m = m_values(r, n, signs)
        entries = m.copy()
        entries[:, :-1] -= m[:, 1:]
        yield from _rows(good, entries, m)
    if bad < len(group):
        raise _sign_error(group[bad])


def _sign_error(rec: DatabaseRecord) -> OrimatError | None:
    """The error, naming the record, for signs that ``Chirotope`` refuses:
    not C(n, r) of them, or one that is not +1 or -1 (byte 0xff)."""
    expected = comb(rec.n, rec.r)
    if len(rec.signs) != expected:
        return DomainError(f"record {rec.id}: expected {expected} signs, got {len(rec.signs)}")
    if rec.signs.strip(b"\x01\xff"):
        return NonUniformError(f"record {rec.id}: chirotope signs must be +1/-1 (uniform only)")
    return None


def _rows(
    records: list[DatabaseRecord], entries: np.ndarray, m: np.ndarray
) -> Iterator[ReportRow]:
    """The rows of records of one (r, n) from their o-vector entries and m
    columns, up to the first record whose tope count m(M,0) is not that of
    every uniform matroid at (r, n); that one raises after them."""
    r, n = records[0].r, records[0].n
    topes = tope_count_uniform(r, n)
    wrong = np.flatnonzero(m[:, 0] != topes)
    upto = int(wrong[0]) if len(wrong) else len(records)
    attains = m[:upto] == [c_value(r, n, k) for k in range(m.shape[1])]
    for rec, *columns in zip(records[:upto], entries.tolist(), m.tolist(), attains.tolist()):
        yield ReportRow(rec.id, *map(tuple, columns))
    if upto < len(records):
        raise FormatError(
            f"record {records[upto].id}: tope count {int(m[upto, 0])} != {topes}; "
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

    def add(self, row: ReportRow):
        m = row.m[self.k]
        if m > self.max_m:
            self.max_m, self.argmax_ids = m, []
        if m == self.max_m:
            self.argmax_ids.append(row.id)
        self.attaining += m == self.c_bound

    @property
    def holds(self) -> bool:
        return self.max_m <= self.c_bound

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

    def add(self, row: ReportRow):
        m = row.m[self.k]
        self.min_m = m if self.min_m is None else min(self.min_m, m)
        if m == 0:
            self.zero_ids.append(row.id)

    @property
    def holds(self) -> bool:
        """True iff every record has a k-neighborly reorientation (evidence
        that n <= nu(r,k)); each zero id witnesses nu(r,k) < n."""
        return self.min_m is not None and self.min_m > 0

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


def roudneff_report(records: Iterable[DatabaseRecord], k: int) -> RoudneffAggregate:
    """Max m(M,k) over the database against the bound c_r(n,k)."""
    return _report("roudneff", records, k)


def mcmullen_report(records: Iterable[DatabaseRecord], k: int) -> McMullenAggregate:
    """Min m(M,k) over the database; zero-m records bound nu(r,k) from above."""
    return _report("mcmullen", records, k)


def _report(kind, records, k):
    records = list(records)
    shapes = {(rec.r, rec.n) for rec in records}
    if len(shapes) > 1:
        raise DomainError(f"mixed (r, n) in one database: {sorted(shapes)}")
    if not records:
        raise DomainError("empty database")
    agg = new_aggregate(kind, *shapes.pop(), k)
    for row in compute_rows(records):
        agg.add(row)
    return agg


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

    When the contraction's rank makes k inadmissible its contribution is 0.
    """
    if chi.n < chi.r + 2:
        raise DomainError("audit needs n >= r+2 so both minors keep circuits")
    check_k(chi.r, k)
    m_full = m_value(circuits_from_chirotope(chi), k)
    out = []
    for e in range(1, chi.n + 1):
        m_del = m_value(circuits_from_chirotope(chi.delete(e)), k)
        contracted = chi.contract(e)
        if k <= (contracted.r - 1) // 2:
            m_con = m_value(circuits_from_chirotope(contracted), k)
        else:
            m_con = 0
        out.append(AuditTriple(e, m_full, m_del, m_con))
    return out


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
    db_map: dict[tuple[int, int], Iterable[DatabaseRecord]] | None = None,
) -> ReductionVerdict:
    """Reduce the bound m(M,k) <= c_r(n,k) for all n >= 2(r-k)+1 to its base
    cases: every rank r' <= r at n' = 2(r'-k)+1 elements.

    Base cases with n' <= r'+2 hold from the single-reorientation-class
    argument; ranks with k inadmissible contribute nothing.  Remaining base
    cases need a supplied database and are checked record by record.  The
    inductive step's recurrence is checked on the cells above each base case
    (``_recurrence_mismatches``); a mismatch also withholds "confirmed".
    """
    if r < 1:
        raise DomainError(f"invalid rank r={r}: the reduction needs r >= 1")
    check_k(r, k)
    db_map = db_map or {}
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


def load_checkpoint(path: str | Path, r: int, n: int) -> list[ReportRow]:
    """Stored rows of an interrupted run at (r, n), in file order; none if
    the file does not exist.

    Each append writes one whole line, so a final line without its newline
    was cut short: it is dropped, and cut from the file so the next append
    starts a fresh line.  Its record is simply computed again.  Any other
    line that is not a complete row of a uniform matroid at (r, n)
    (``_checkpoint_error``), or repeats an id, raises ``FormatError`` with
    its line number.
    """
    p = Path(path)
    if not p.exists():
        return []
    data = p.read_bytes()
    *lines, tail = data.decode("utf-8", "surrogateescape").split("\n")
    if tail:
        os.truncate(p, len(data) - len(tail.encode("utf-8", "surrogateescape")))
    rows: list[ReportRow] = []
    seen: set[int] = set()
    if any(map(str.strip, lines)):
        topes = tope_count_uniform(r, n)
        c_values = [c_value(r, n, k) for k in range((r - 1) // 2 + 1)]
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            row = ReportRow(
                int(d["id"]), tuple(d["ovector"]), tuple(d["m"]), tuple(d["attains"])
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise FormatError(f"checkpoint line {lineno}: not a report row ({exc})") from None
        error = _checkpoint_error(row, topes, c_values)
        if error:
            raise FormatError(f"checkpoint line {lineno}: {error} at (r, n) = ({r}, {n})")
        if row.id in seen:
            raise FormatError(f"checkpoint line {lineno}: duplicate id {row.id}")
        seen.add(row.id)
        rows.append(row)
    return rows


def _checkpoint_error(row: ReportRow, topes: int, c_values: list[int]) -> str | None:
    """What makes a stored row unfit for a run at (r, n), if anything, given
    the tope count of every uniform matroid there and c_r(n,k) for k = 0..
    floor((r-1)/2): one count per k in ``ovector`` and ``m`` and one bool
    in ``attains``, m the tail sums of the o-vector, m(M,0) the tope count,
    and attains true exactly where m equals the c-value."""
    width = len(c_values)
    if not len(row.ovector) == len(row.m) == len(row.attains) == width:
        return f"not {width} entries in each of ovector, m and attains"
    if {type(v) for v in row.ovector + row.m} != {int} or min(row.ovector) < 0:
        return "an o-vector or m entry is not a non-negative integer"
    if {type(a) for a in row.attains} != {bool}:
        return "an attains entry is not true or false"
    if row.m != tuple(accumulate(reversed(row.ovector)))[::-1]:
        return "m is not the tail sums of the o-vector"
    if row.m[0] != topes:
        return f"tope count {row.m[0]} != {topes}"
    if row.attains != tuple(m == c for m, c in zip(row.m, c_values)):
        return "attains does not match the c-values"
    return None


def append_checkpoint(sink: str | Path | TextIO, row: ReportRow):
    """Append the row as one whole line: to the file named by ``sink``, or,
    flushed at once, to ``sink`` itself, a text file open for appending that
    a run keeps for all its rows."""
    if isinstance(sink, (str, Path)):
        with open(sink, "a") as fh:
            fh.write(row.to_json() + "\n")
        return
    sink.write(row.to_json() + "\n")
    sink.flush()
