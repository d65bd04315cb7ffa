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
from typing import Iterable, Iterator

import numpy as np

from .chirotope import Chirotope, check_shape, parse_signs
from .circuits import circuits_from_chirotope
from .cyclic import c_value, c_value_brute, o_vector_closed, tope_count_uniform
from .errors import DomainError, FormatError, NonUniformError, OrimatError
from .neighborly import check_k, dense_o_vectors, is_dense, m_value, o_vector


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
        return json.dumps(vars(self))  # the fields in order, tuples as arrays

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


# Kernel entries (records x circuits x candidates) per batched call at the
# dense sizes: it bounds the working arrays of one call to a few hundred KB.
BATCH_ENTRIES = 1 << 18


def compute_rows(records: Iterable[DatabaseRecord]) -> Iterator[ReportRow]:
    """Per-record rows in record order; record order does not change any row.

    Consecutive records of one dense (r, n) are batched, as many per kernel
    call as BATCH_ENTRIES allows (``neighborly.dense_o_vectors``); any other
    size goes record by record through ``o_vector``.  Each record is checked
    when its row is due, so the rows before a bad record still come out.
    """
    for (r, n), same in groupby(records, key=lambda rec: (rec.r, rec.n)):
        dense = is_dense(r, n)
        size = max(1, BATCH_ENTRIES // (comb(n, r + 1) << (n - 1))) if dense else 1
        while group := list(islice(same, size)):
            yield from _group_rows(group, dense)


def _group_rows(group: list[DatabaseRecord], dense: bool) -> Iterator[ReportRow]:
    """Rows of consecutive records of one (r, n), up to the first record
    with a ``_sign_error``; that one raises after them."""
    r, n = group[0].r, group[0].n
    try:
        check_shape(r, n)
    except DomainError as exc:
        raise DomainError(f"record {group[0].id}: {exc}") from None
    bad = next((i for i, rec in enumerate(group) if _sign_error(rec)), len(group))
    good = group[:bad]
    if good and dense:
        signs = np.frombuffer(b"".join(rec.signs for rec in good), dtype=np.int8)
        rows = zip(good, dense_o_vectors(r, n, signs.reshape(bad, -1)).tolist())
    else:
        rows = ((rec, o_vector(circuits_from_chirotope(rec.chirotope())).entries) for rec in good)
    topes = tope_count_uniform(r, n)
    for rec, entries in rows:
        yield _row(rec, tuple(entries), topes)
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


def _row(rec: DatabaseRecord, entries: tuple[int, ...], topes: int) -> ReportRow:
    """The row of a record's o-vector entries, after the corruption check
    against ``topes``, the tope count of every uniform matroid at (r, n)."""
    if sum(entries) != topes:
        raise FormatError(
            f"record {rec.id}: tope count {sum(entries)} != {topes}; "
            "wrong base order or corrupt data"
        )
    m = tuple(accumulate(reversed(entries)))[::-1]  # m(M,k) = the tail sums
    attains = tuple(m[k] == c_value(rec.r, rec.n, k) for k in range(len(m)))
    return ReportRow(rec.id, entries, m, attains)


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


def load_checkpoint(path: str | Path) -> list[ReportRow]:
    """Stored rows of an interrupted run, in file order; none if the file
    does not exist.

    Each append writes one whole line, so a final line without its newline
    was cut short: it is dropped, and cut from the file so the next append
    starts a fresh line.  Its record is simply computed again.  Any other
    line that is not a complete row, or repeats an id, raises
    ``FormatError`` with its line number.
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
        if row.id in seen:
            raise FormatError(f"checkpoint line {lineno}: duplicate id {row.id}")
        seen.add(row.id)
        rows.append(row)
    return rows


def append_checkpoint(path: str | Path, row: ReportRow):
    with open(path, "a") as fh:
        fh.write(row.to_json() + "\n")
