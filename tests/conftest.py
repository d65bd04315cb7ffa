import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import strategies as st

from orimat import (
    Chirotope,
    DomainError,
    FormatError,
    OrimatError,
    SignVector,
    c_value,
    circuits_from_chirotope,
    neighborly,
    orthogonality_degree,
    ort,
    parse_chirotope,
    random_realizable,
    tope_count_uniform,
)
from orimat.chirotope import parse_sign_rows
from orimat.circuits import CircuitSet
from orimat.cyclic import alternating_circuits


def all_full_vectors(n):
    """Every zero-free sign vector of length n."""
    full = (1 << n) - 1
    for minus in range(1 << n):
        yield SignVector(n, full & ~minus, minus)


def ort_oracle(members, t):
    """Brute-force ort via the scalar degree, independent of the vectorized
    enumeration path."""
    return min(orthogonality_degree(x, t).degree for x in members)


def o_vector_oracle(cs):
    """o-vector by enumerating all 2^n full sign vectors (no halving)."""
    kmax = (cs.r - 1) // 2
    entries = [0] * (kmax + 1)
    for t in all_full_vectors(cs.n):
        o = ort_oracle(cs.members, t)
        if o > 0:
            entries[min(o - 1, kmax)] += 1
    return tuple(entries)


def record_chirotope(rec):
    """The chirotope of a database record, from its lex-order signs."""
    return Chirotope(rec.n, rec.r, tuple(memoryview(rec.signs).cast("b")))


def with_antipodes(cs):
    """Every circuit of ``cs`` and its negative: the whole circuit set, which
    ``CircuitSet`` halves by keeping the normalized member of each pair."""
    return cs.members + tuple(-x for x in cs.members)


def circuit_masks_oracle(chi):
    """(plus, minus) mask pairs of the normalized circuits, one support at a
    time through per-subset lex ranks: the reference for the table-driven
    derivation."""
    masks = []
    for support in itertools.combinations(range(1, chi.n + 1), chi.r + 1):
        signs = [1]
        for i in range(chi.r):
            b = chi.sign_of_sorted(support[:i] + support[i + 1 :])
            b_next = chi.sign_of_sorted(support[: i + 1] + support[i + 2 :])
            signs.append(-signs[-1] * b * b_next)
        plus = minus = 0
        for e, s in zip(support, signs):
            if s > 0:
                plus |= 1 << (e - 1)
            else:
                minus |= 1 << (e - 1)
        masks.append((plus, minus))
    return masks


def first_index_oracle(cs, level):
    """Enumeration index of the first sign vector with element 1 positive
    whose scalar ort is at least ``level``, one candidate at a time."""
    full = (1 << cs.n) - 1
    for index in range(1 << (cs.n - 1)):
        minus = index << 1
        if ort_oracle(cs.members, SignVector(cs.n, full & ~minus, minus)) >= level:
            return index
    return None


def sign_product_orts(cs, minus_masks):
    """ort of the full sign vectors with the given minus-masks against the
    circuits of ``cs``, from int8 sign products and none of the kernel's
    bit masks: a circuit X of r+1 elements and a full sign vector T agree on
    (r+1 + X.T)/2 elements and separate on (r+1 - X.T)/2, so ort is the
    minimum over circuits of (r+1 - |X.T|)/2."""
    elements = range(1, cs.n + 1)
    circuits = np.array([[x.sign(e) for e in elements] for x in cs.members], dtype=np.int8)
    minus = np.array([[m >> (e - 1) & 1 for e in elements] for m in minus_masks], dtype=np.int8)
    products = (1 - 2 * minus).reshape(-1, cs.n) @ circuits.T.astype(np.int16)
    return ((cs.r + 1 - np.abs(products)) // 2).min(axis=1, initial=cs.r + 1)


def full_sweep_orts(cs):
    """ort of every sign vector with element 1 positive, in enumeration
    order (minus-mask 2j for candidate j), by ``sign_product_orts``: the
    full sweep that the growth fold replaces, and an independent check on
    it and on the dense table."""
    return sign_product_orts(cs, [2 * j for j in range(1 << (cs.n - 1))])


def m_sweep_oracle(chi, k):
    """m(M,k) of a chirotope from the full sweep over its circuits as
    ``circuit_masks_oracle`` derives them, one support at a time."""
    masks = circuit_masks_oracle(chi)
    cs = CircuitSet(chi.n, chi.r, *(np.array(m, dtype=np.uint64) for m in zip(*masks)))
    return 2 * int((full_sweep_orts(cs) > k).sum())


def audit_oracle(chi, k):
    """(e, m(M,k), m(M\\e,k), m(M/e,k)) per element, one minor at a time
    through the per-subset minors and the full sweep; a contraction where k
    is inadmissible at rank r-1 counts 0."""
    m_full = m_sweep_oracle(chi, k)
    triples = []
    for e in range(1, chi.n + 1):
        deleted = Chirotope(chi.n - 1, chi.r, delete_oracle(chi, e))
        m_con = 0
        if k <= (chi.r - 2) // 2:
            m_con = m_sweep_oracle(Chirotope(chi.n - 1, chi.r - 1, contract_oracle(chi, e)), k)
        triples.append((e, m_full, m_sweep_oracle(deleted, k), m_con))
    return triples


def pattern_orts_oracle(r, n):
    """min(sep, r+1-sep) of every candidate (element 1 +, minus-mask 2j)
    against a circuit on every (r+1)-support of [n], in lex order, carrying
    every sign pattern p with bit 0 clear (bit i set: the support's i-th
    element is -), as an array (supports, patterns, candidates).  The
    separations are counted one support element at a time."""
    j = np.arange(1 << (n - 1))
    p = np.arange(0, 1 << (r + 1), 2)[:, None]
    out = []
    for support in itertools.combinations(range(n), r + 1):
        sep = sum(((p >> i) & 1) != ((2 * j >> e) & 1) for i, e in enumerate(support))
        out.append(np.minimum(sep, r + 1 - sep))
    return np.array(out)


def face_oracle(cs, f_set):
    """Las Vergnas face test one circuit at a time through the scalar
    degree: the vector positive off F and zero on F is orthogonal to every
    circuit (separations and agreements both zero or both nonzero)."""
    f_mask = SignVector.from_elements(cs.n, plus=f_set).plus
    y = SignVector(cs.n, ((1 << cs.n) - 1) & ~f_mask, 0)
    for x in cs.members:
        sep, agr, _ = orthogonality_degree(x, y)
        if (sep == 0) != (agr == 0):
            return False
    return True


def ball_oracle(cs, t, k):
    """Every flip of 1..k coordinates of the tope t is a tope, by the scalar
    ort: the radius-k ball around t in the tope graph is a full cube ball.
    A sign vector that is not a tope has no such ball and is refused."""
    if ort_oracle(cs.members, t) == 0:
        raise DomainError("ball criterion requires a tope")
    return all(
        ort_oracle(cs.members, t.reorient(flip)) > 0
        for d in range(1, k + 1)
        for flip in itertools.combinations(range(1, cs.n + 1), d)
    )


@dataclass
class AxiomReport:
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_circuit_axioms(members):
    """Brute-force check of the circuit axioms on a set closed-under-negation
    candidate family:

    (C0) no empty member, (C1) closure under negation, (C2) support-comparable
    members equal up to sign, (C3) elimination for every pair and pivot.
    """
    violations = []
    family = set(members)
    for x in members:
        if x.support_mask == 0:
            violations.append("C0: empty sign vector present")
            break
    for x in members:
        if -x not in family:
            violations.append(f"C1: negation of {x} missing")
    for x, y in itertools.combinations(members, 2):
        if x.support_mask & ~y.support_mask == 0 or y.support_mask & ~x.support_mask == 0:
            if x != y and x != -y:
                violations.append(f"C2: comparable supports, {x} vs {y}")
    for x in members:
        for y in members:
            if x == -y:
                continue
            pivots = x.plus & y.minus
            while pivots:
                e_bit = pivots & -pivots
                pivots ^= e_bit
                zp_bound = (x.plus | y.plus) & ~e_bit
                zm_bound = (x.minus | y.minus) & ~e_bit
                if not any(
                    z.plus & ~zp_bound == 0 and z.minus & ~zm_bound == 0
                    for z in members
                ):
                    violations.append(
                        f"C3: no eliminant for {x}, {y} at element {e_bit.bit_length()}"
                    )
    return AxiomReport(not violations, violations)


# Block structure of full sign vectors and the alternating matroid's block
# formulas: the references for the ort of the topes of C_r(n).


@dataclass(frozen=True)
class BlockProfile:
    """Maximal runs of equal consecutive signs in a full sign vector."""

    m: int
    sizes: tuple
    b_even: int
    b_odd: int


def block_profile(t):
    """Left-to-right blocks of a full sign vector."""
    if not t.is_full():
        raise DomainError("block profile requires a zero-free sign vector")
    sizes = []
    run = 1
    for i in range(1, t.n):
        same = bool(t.plus >> i & 1) == bool(t.plus >> (i - 1) & 1)
        if same:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    b_even = sum(1 for s in sizes if s % 2 == 0)
    return BlockProfile(len(sizes), tuple(sizes), b_even, len(sizes) - b_even)


def is_cyclic_tope(t, r):
    """A full sign vector is a tope of C_r(n) iff it has at most r blocks."""
    return block_profile(t).m <= r


def big_O(m, r):
    """ceil((r+1-m)/2): the exact ort of a cyclic tope with m blocks whenever
    r+1 <= n - B_e, and a lower bound always."""
    if m < 1:
        raise DomainError("block count must be positive")
    return max(0, -(-(r + 1 - m) // 2))


def ort_cyclic(t, r):
    """ort of a tope of C_r(n): block formula when r+1 <= n - B_e, otherwise
    brute force over the alternating circuits."""
    profile = block_profile(t)
    if profile.m > r:
        raise DomainError("not a tope of the alternating matroid (too many blocks)")
    if r + 1 <= t.n - profile.b_even:
        return big_O(profile.m, r)
    return ort(alternating_circuits(r, t.n), t)


# Per-subset minors and reorientation: the references for the table-driven
# Chirotope methods.  Each returns the signs in lex order.


def reorient_oracle(chi, r_set):
    return tuple(
        chi.sign_of_sorted(s) * (-1) ** sum(1 for e in s if e in r_set)
        for s in itertools.combinations(range(1, chi.n + 1), chi.r)
    )


def dual_oracle(chi):
    ground = set(range(1, chi.n + 1))
    signs = []
    for subset in itertools.combinations(range(1, chi.n + 1), chi.n - chi.r):
        complement = tuple(sorted(ground - set(subset)))
        inversions = sum(1 for a in subset for b in complement if a > b)
        signs.append(chi.sign_of_sorted(complement) * (-1) ** inversions)
    return tuple(signs)


def delete_oracle(chi, e):
    return tuple(
        chi.sign_of_sorted(tuple(x if x < e else x + 1 for x in subset))
        for subset in itertools.combinations(range(1, chi.n), chi.r)
    )


def contract_oracle(chi, e):
    return tuple(
        chi.eval_basis((e,) + tuple(x if x < e else x + 1 for x in subset))
        for subset in itertools.combinations(range(1, chi.n), chi.r - 1)
    )


def contract_chain_oracle(chi, elements):
    """M / S as a chain of single contractions, the largest element of S
    first, and the surviving original labels in order."""
    labels = list(range(1, chi.n + 1))
    for e in sorted(set(elements), reverse=True):
        position = labels.index(e) + 1
        chi = chi.contract(position)
        labels.pop(position - 1)
    return chi, tuple(labels)


# (7, 9) signs that are no chirotope: 476 topes, where a uniform rank-7
# matroid on 9 elements has 494
CORRUPT_7_9 = "-+------+-+++-+-------+-+-+-++--++--"


@st.composite
def minor_sources(draw):
    """Signs to take minors of, at 2 <= r <= 7 and r+2 <= n <= 11: a
    realizable chirotope, random +-1 signs, or the (7, 9) line that is no
    chirotope."""
    kind = draw(st.sampled_from(["realizable", "random", "corrupt"]))
    if kind == "corrupt":
        return parse_chirotope(CORRUPT_7_9, 7, 9)
    r = draw(st.integers(2, 7))
    n = draw(st.integers(r + 2, min(r + 5, 11)))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "realizable":
        return random_realizable(r, n, seed=seed)
    return Chirotope(n, r, np.random.default_rng(seed).choice([-1, 1], comb(n, r)))


def serialize_colex(chi):
    """Chirotope text with r-subsets in colexicographic order."""
    subsets = sorted(
        itertools.combinations(range(1, chi.n + 1), chi.r), key=lambda s: s[::-1]
    )
    return "".join("+" if chi.sign_of_sorted(s) > 0 else "-" for s in subsets)


@pytest.fixture
def c_values_off_by_1000(monkeypatch):
    """Every c-value that a ``CValueTable`` computes comes out 1000 too
    large, and the module memo starts empty so no correct entry survives."""
    from orimat import cyclic

    compute = cyclic.CValueTable._compute

    def wrong(self, r, n, k):
        return cyclic.CEntry(compute(self, r, n, k).value + 1000, "wrong")

    monkeypatch.setattr(cyclic.CValueTable, "_compute", wrong)
    monkeypatch.setattr(cyclic, "_default_table", cyclic.CValueTable())


# -- the per-record report path: the reference for the block pass ----------


@dataclass(frozen=True)
class ReportRow:
    """One report row, as the per-record path builds and prints it."""

    id: int
    ovector: tuple[int, ...]
    m: tuple[int, ...]
    attains: tuple[bool, ...]

    def to_json(self) -> str:
        return json.dumps(
            {"id": self.id, "ovector": list(self.ovector), "m": list(self.m), "attains": list(self.attains)}
        )

    def to_csv(self) -> str:
        fields = (self.ovector, self.m, map(int, self.attains))
        return ",".join([str(self.id)] + [" ".join(map(str, values)) for values in fields])


def rows_of(blocks):
    """The rows of ``harness.RowBlock``s, one ``ReportRow`` each."""
    return [
        ReportRow(row_id, tuple(ovector), tuple(m), tuple(attains))
        for block in blocks
        for row_id, ovector, m, attains in zip(
            block.ids.tolist(), block.ovector.tolist(), block.m.tolist(), block.attains.tolist()
        )
    ]


def parse_database_oracle(lines, r, n, base_order="lex"):
    """(line number, lex-order signs as bytes) of each record line, one
    ``parse_sign_rows`` per line; a bad line raises naming it."""
    records = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append((lineno, parse_sign_rows([line], r, n, base_order).tobytes()))
        except FormatError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
    return records


@lru_cache(maxsize=None)
def m_oracle(r, n, signs):
    """m(M,k) per k of one record, grown on its own circuits."""
    chi = Chirotope(n, r, tuple(memoryview(signs).cast("b")))
    return neighborly.o_vector(circuits_from_chirotope(chi)).m_values()


def row_oracle(row_id, r, n, signs):
    """The report row of one record; a wrong tope count raises."""
    m = m_oracle(r, n, signs)
    if m[0] != tope_count_uniform(r, n):
        raise FormatError(
            f"record {row_id}: tope count {m[0]} != {tope_count_uniform(r, n)}; "
            "wrong base order or corrupt data"
        )
    ovector = tuple(a - b for a, b in zip(m, m[1:] + (0,)))
    attains = tuple(mk == c_value(r, n, k) for k, mk in enumerate(m))
    return ReportRow(row_id, ovector, m, attains)


def checkpoint_row_oracle(line, topes, c_values):
    """The row of a checkpoint line, rule by rule and one entry at a time,
    for a run whose rows have the tope count ``topes`` and the c-values
    ``c_values``; None unless the line is ``ReportRow.to_json()`` of its id,
    an integer within 64 bits, and its m, one integer per c-value with m(M,0)
    the tope count and no o-vector entry negative."""
    try:
        d = json.loads(line)
        row_id, m = d["id"], tuple(d["m"])
    except (ValueError, TypeError, KeyError, RecursionError):
        return None
    if type(row_id) is not int or not -(2**63) <= row_id < 2**63:
        return None
    if len(m) != len(c_values) or any(type(v) is not int for v in m) or m[0] != topes:
        return None
    ovector = tuple(a - b for a, b in zip(m, m[1:] + (0,)))
    if any(v < 0 for v in ovector):
        return None
    row = ReportRow(row_id, ovector, m, tuple(a == c for a, c in zip(m, c_values)))
    return row if line == row.to_json() else None


def load_checkpoint_oracle(path, r, n, ids, source="the database"):
    """The stored rows of a checkpoint over the records ``ids`` of
    ``source``, in file order, one line at a time: the first line that is
    not a row (``checkpoint_row_oracle``), or whose id is not that of the
    record at its place, raises naming it.  A torn final line is cut once
    every other line has passed."""
    if not path.exists():
        return []
    data = path.read_bytes()
    *lines, tail = data.decode("utf-8", "surrogateescape").split("\n")
    c_values = [c_value(r, n, k) for k in range((r + 1) // 2)]
    rows = []
    for lineno, line in enumerate(lines, 1):
        row = checkpoint_row_oracle(line, tope_count_uniform(r, n), c_values)
        if row is None:
            raise FormatError(f"checkpoint line {lineno}: not a line a run writes at (r, n) = ({r}, {n})")
        if lineno > len(ids):
            raise FormatError(f"checkpoint line {lineno}: id {row.id}, but {source} has {len(ids)} records")
        if row.id != ids[lineno - 1]:
            place = f"record {lineno} of {source} is id {ids[lineno - 1]}"
            raise FormatError(f"checkpoint line {lineno}: id {row.id}, but {place}")
        rows.append(row)
    if tail:
        path.write_bytes(data[: len(data) - len(tail.encode("utf-8", "surrogateescape"))])
    return rows


@dataclass
class AggregateOracle:
    """The roudneff or mcmullen verdict folded one row at a time."""

    kind: str
    r: int
    n: int
    k: int
    ms: list = field(default_factory=list)  # (id, m(M,k)) per row

    def summary(self):
        ms = [m for _, m in self.ms]
        if self.kind == "roudneff":
            c, top = c_value(self.r, self.n, self.k), max(ms, default=0)
            return {
                "verdict": "holds" if top <= c else "counterexample",
                "max_m": top,
                "c": c,
                "attaining": ms.count(c),
                "argmax_ids": [i for i, m in self.ms if m == top],
            }
        low = min(ms, default=None)
        return {
            "verdict": "all-have-witness" if low else "zero-m-witnesses",
            "min_m": low,
            "zero_ids": [i for i, m in self.ms if m == 0],
        }

    @property
    def holds(self):
        return self.summary()["verdict"] in ("holds", "all-have-witness")


def report_oracle(command, r, n, k, path, fmt="json", base_order="lex", checkpoint=None):
    """(exit code, stdout, stderr) of ``orimat roudneff|mcmullen`` over the
    database file ``path``, one record at a time.  The checkpoint (a path)
    holds the rows of the first records, line i the row of record i; each
    row after them is appended to it before it is printed."""
    out = []
    try:
        if not 0 <= k <= (r - 1) // 2:
            raise DomainError(f"k={k} outside [0, {(r - 1) // 2}]")
        agg = AggregateOracle(command, r, n, k)
        with open(path, encoding="utf-8") as fh:
            records = parse_database_oracle(fh, r, n, base_order)
        if not records:
            raise DomainError(f"empty database: no chirotope lines in {path}")
        ids = [row_id for row_id, _ in records]
        prior = load_checkpoint_oracle(checkpoint, r, n, ids, path) if checkpoint else []
        for i, (row_id, signs) in enumerate(records):
            if i < len(prior):
                row = prior[i]
            else:
                row = row_oracle(row_id, r, n, signs)
                if checkpoint:
                    with open(checkpoint, "a") as fh:
                        fh.write(row.to_json() + "\n")
            agg.ms.append((row.id, row.m[k]))
            out.append((row.to_json() if fmt == "json" else row.to_csv()) + "\n")
    except OrimatError as exc:
        return 2, "".join(out), f"error: {exc}\n"
    return (0 if agg.holds else 1), "".join(out), json.dumps(agg.summary()) + "\n"
