"""Database ingestion and batch verification: o-vector rows per chirotope
record, Roudneff- and McMullen-style aggregates, the deletion/contraction
audit, and the finite reduction check.

Databases are plain text: one +/- chirotope string per line, '#' comments and
blank lines skipped; line numbers double as record ids.  Rows stream into one
aggregate per verdict, shared by the library and the CLI, and an optional
checkpoint file makes interrupted runs resumable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Iterator

from .chirotope import Chirotope, lex_signs, parse_signs
from .circuits import circuits_from_chirotope
from .cyclic import CValueTable, tope_count_uniform
from .errors import DomainError, FormatError, NonUniformError
from .neighborly import check_k, o_vector


@dataclass(frozen=True, slots=True)
class DatabaseRecord:
    """One validated database line; ``signs`` holds its parsed signs in text
    order (``parse_signs``), so the record is never parsed again."""

    id: int
    r: int
    n: int
    signs: bytes

    @property
    def text(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.signs)

    def chirotope(self, base_order: str = "lex") -> Chirotope:
        return Chirotope(self.n, self.r, lex_signs(self.signs, self.r, self.n, base_order))


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


def parse_database(lines: Iterable[str], r: int, n: int) -> Iterator[DatabaseRecord]:
    """Stream records from chirotope lines; malformed lines raise with the
    offending line number."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            signs = parse_signs(line, r, n)
        except NonUniformError as exc:
            raise NonUniformError(f"line {lineno}: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        yield DatabaseRecord(lineno, r, n, signs)


def _compute_row(
    record: DatabaseRecord, base_order: str, table: CValueTable
) -> ReportRow:
    ov = o_vector(circuits_from_chirotope(record.chirotope(base_order)))
    # cheap corruption check before trusting the expensive pass
    expected = tope_count_uniform(record.r, record.n)
    if ov.tope_count != expected:
        raise FormatError(
            f"record {record.id}: tope count {ov.tope_count} != {expected}; "
            "wrong base order or corrupt data"
        )
    m = ov.m_values()
    attains = tuple(
        m[k] == table.c_value(record.r, record.n, k) for k in range(len(m))
    )
    return ReportRow(record.id, ov.entries, m, attains)


def compute_rows(
    records: Iterable[DatabaseRecord],
    base_order: str = "lex",
    table: CValueTable | None = None,
    done_ids: Collection[int] = (),
) -> Iterator[ReportRow]:
    """Per-record rows in record order, skipping the records whose id is in
    ``done_ids``; record order does not change any row."""
    table = table if table is not None else CValueTable()
    for rec in records:
        if rec.id not in done_ids:
            yield _compute_row(rec, base_order, table)


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


def new_aggregate(kind: str, r: int, n: int, k: int, table: CValueTable):
    """The empty "roudneff" or "mcmullen" aggregate at (r, n); k, and the
    roudneff bound c_r(n,k), are checked here, before any row is computed."""
    check_k(r, k)
    if kind == "roudneff":
        return RoudneffAggregate(r, n, k, table.c_value(r, n, k))
    return McMullenAggregate(r, n, k)


def roudneff_report(
    records: Iterable[DatabaseRecord],
    k: int,
    base_order: str = "lex",
    table: CValueTable | None = None,
) -> RoudneffAggregate:
    """Max m(M,k) over the database against the bound c_r(n,k)."""
    return _report("roudneff", records, k, base_order, table)


def mcmullen_report(
    records: Iterable[DatabaseRecord],
    k: int,
    base_order: str = "lex",
    table: CValueTable | None = None,
) -> McMullenAggregate:
    """Min m(M,k) over the database; zero-m records bound nu(r,k) from above."""
    return _report("mcmullen", records, k, base_order, table)


def _report(kind, records, k, base_order, table):
    table = table if table is not None else CValueTable()
    records = list(records)
    shapes = {(rec.r, rec.n) for rec in records}
    if len(shapes) > 1:
        raise DomainError(f"mixed (r, n) in one database: {sorted(shapes)}")
    if not records:
        raise DomainError("empty database")
    agg = new_aggregate(kind, *shapes.pop(), k, table)
    for row in compute_rows(records, base_order, table):
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
    m_full = o_vector(circuits_from_chirotope(chi)).m(k)
    out = []
    for e in range(1, chi.n + 1):
        m_del = o_vector(circuits_from_chirotope(chi.delete(e))).m(k)
        contracted = chi.contract(e)
        if k <= (contracted.r - 1) // 2:
            m_con = o_vector(circuits_from_chirotope(contracted)).m(k)
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
    base_order: str = "lex",
    table: CValueTable | None = None,
) -> ReductionVerdict:
    """Reduce the bound m(M,k) <= c_r(n,k) for all n >= 2(r-k)+1 to its base
    cases: every rank r' <= r at n' = 2(r'-k)+1 elements.

    Base cases with n' <= r'+2 hold from the single-reorientation-class
    argument; ranks with k inadmissible contribute nothing.  Remaining base
    cases need a supplied database and are checked record by record.
    """
    check_k(r, k)
    table = table if table is not None else CValueTable()
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
        agg = roudneff_report(db_map[(r_prime, n_prime)], k, base_order, table)
        if agg.holds:
            detail.append(
                f"rank {r_prime}, n={n_prime}: max m = {agg.max_m} <= c = {agg.c_bound}"
            )
        else:
            confirmed = False
            detail.append(
                f"rank {r_prime}, n={n_prime}: COUNTEREXAMPLE max m = {agg.max_m} > {agg.c_bound}"
            )
    # the inductive step itself: recurrence on brute-force-accessible cells
    for n in range(2 * (r - k) + 2, 2 * (r - k) + 4):
        table.seed_recurrence(r, n, k)
    return ReductionVerdict(r, k, confirmed and not missing, detail, missing)


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
