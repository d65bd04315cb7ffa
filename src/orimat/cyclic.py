"""Analytics for the alternating (cyclic) matroid C_r(n): block-based tope
tests, the closed-form o-vector, the n = r+1 formula, the exact tope count,
the brute-force c-value and the memoized c_r(n,k) dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from pathlib import Path

from .chirotope import alternating_chirotope
from .circuits import CircuitSet, circuits_from_chirotope
from .errors import DomainError, FormatError
from .neighborly import OVector, check_enumeration_size, check_k, m_value, o_vector, ort
from .signvec import SignVector, block_profile


def is_cyclic_tope(t: SignVector, r: int) -> bool:
    """A full sign vector is a tope of C_r(n) iff it has at most r blocks."""
    return block_profile(t).m <= r


def big_O(m: int, r: int) -> int:
    """ceil((r+1-m)/2): the exact ort of a cyclic tope with m blocks whenever
    r+1 <= n - B_e, and a lower bound always."""
    if m < 1:
        raise DomainError("block count must be positive")
    return max(0, -(-(r + 1 - m) // 2))


@lru_cache(maxsize=None)
def alternating_circuits(r: int, n: int) -> CircuitSet:
    return circuits_from_chirotope(alternating_chirotope(r, n))


def ort_cyclic(t: SignVector, r: int) -> int:
    """ort of a tope of C_r(n): block formula when r+1 <= n - B_e, otherwise
    brute force over the alternating circuits."""
    profile = block_profile(t)
    if profile.m > r:
        raise DomainError("not a tope of the alternating matroid (too many blocks)")
    if r + 1 <= t.n - profile.b_even:
        return big_O(profile.m, r)
    return ort(alternating_circuits(r, t.n), t)


def tope_count_uniform(r: int, n: int) -> int:
    """2 * sum_{i<r} C(n-1, i): tope count of every uniform rank-r matroid."""
    if n < r:
        raise DomainError(f"need n >= r, got (r={r}, n={n})")
    return 2 * sum(comb(n - 1, i) for i in range(r))


def o_vector_closed(r: int, n: int, k: int) -> tuple[int, ...]:
    """Closed-form entries o(C_r(n), i) = 2*C(n, r-1-2i) for i = k..floor((r-1)/2).

    Valid only under n >= 2(r-k)+1 >= r+2; the threshold is sharp.
    """
    check_k(r, k)
    if not (n >= 2 * (r - k) + 1 and 2 * (r - k) + 1 >= r + 2):
        raise DomainError(
            f"closed form needs n >= 2(r-k)+1 >= r+2; got (r={r}, n={n}, k={k})"
        )
    return tuple(2 * comb(n, r - 1 - 2 * i) for i in range(k, (r - 1) // 2 + 1))


def o_vector_small(r: int) -> OVector:
    """o-vector of C_r(r+1): C(r+1, k+1) at k = (r-1)/2, twice that otherwise."""
    if r < 3:
        raise DomainError("n = r+1 formula needs r >= 3")
    entries = []
    for k in range((r - 1) // 2 + 1):
        if 2 * k == r - 1:
            entries.append(comb(r + 1, k + 1))
        else:
            entries.append(2 * comb(r + 1, k + 1))
    return OVector(r, r + 1, tuple(entries))


def o_vector_brute(r: int, n: int) -> OVector:
    """Full enumeration on the alternating matroid (independent of the
    closed forms; the authority when formulas disagree)."""
    check_enumeration_size(r, n)
    return o_vector(alternating_circuits(r, n))


def c_value_brute(r: int, n: int, k: int) -> int:
    """c_r(n,k) = m(C_r(n),k) by enumeration, independent of the closed
    forms; an over-budget (r, n) is refused before any circuit is built."""
    check_enumeration_size(r, n)
    return m_value(alternating_circuits(r, n), k)


def literature_c1(r: int, n: int) -> int:
    """The transcribed prior-work closed form for c_r(n,1).

    Unverified: it disagrees with brute force already at (r,n) = (3,4) and
    (3,5).  Never used as an authority; see literature_c1_validity.
    """
    return 2 * (
        comb(r - 1, n - r + 1)
        + comb(r, n - r)
        + sum(comb(n - 1, i) for i in range(r - 2))
    )


def literature_c1_validity(r: int, n_max: int) -> dict[int, bool]:
    """Empirical validity of literature_c1 against the trusted c-value,
    per n in r+1..n_max."""
    return {
        n: literature_c1(r, n) == c_value(r, n, 1)
        for n in range(r + 1, n_max + 1)
        if (r - 1) // 2 >= 1
    }


@dataclass(frozen=True)
class CEntry:
    value: int
    provenance: str  # closed-form | n=r+1-formula | brute-force


class CValueTable:
    """Memo for c_r(n,k) = m(C_r(n), k) with per-entry provenance.

    Dispatch prefers exact closed forms where their hypotheses hold and falls
    back to brute-force enumeration; entries can be persisted to a cache file
    ("r n k value provenance" per line).
    """

    def __init__(self):
        self._memo: dict[tuple[int, int, int], CEntry] = {}

    def entry(self, r: int, n: int, k: int) -> CEntry:
        _check_cell(r, n, k)
        key = (r, n, k)
        if key not in self._memo:
            self._memo[key] = self._compute(r, n, k)
        return self._memo[key]

    def c_value(self, r: int, n: int, k: int) -> int:
        return self.entry(r, n, k).value

    def _compute(self, r: int, n: int, k: int) -> CEntry:
        return _formula_entry(r, n, k) or CEntry(c_value_brute(r, n, k), "brute-force")

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path):
        lines = [
            f"{r} {n} {k} {e.value} {e.provenance}"
            for (r, n, k), e in sorted(self._memo.items())
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    def load(self, path: str | Path):
        """Add the entries of a cache file; a line that ``_compute`` could
        not have written (``_cache_error``) raises ``FormatError`` naming it."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"cache {path} is not UTF-8 text ({exc.reason})") from None
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 5:
                raise FormatError(f"cache line {lineno}: expected 5 fields")
            try:
                r, n, k, value = map(int, parts[:4])
            except ValueError:
                raise FormatError(f"cache line {lineno}: non-integer field") from None
            entry = CEntry(value, parts[4])
            error = _cache_error(r, n, k, entry)
            if error:
                raise FormatError(f"cache line {lineno}: {error}")
            self._memo[(r, n, k)] = entry


def _check_cell(r: int, n: int, k: int):
    """Refuse an (r, n, k) with no c-value: n <= r or k outside its range."""
    if n < r + 1:
        raise DomainError(f"need n >= r+1, got (r={r}, n={n})")
    check_k(r, k)


def _formula_entry(r: int, n: int, k: int) -> CEntry | None:
    """The entry of a cell with a closed form or the n = r+1 formula, each
    O(1); None where only brute force gives the value."""
    if k == 0:
        return CEntry(tope_count_uniform(r, n), "closed-form")
    if n == r + 1:
        return CEntry(o_vector_small(r).m(k), "n=r+1-formula")
    if n >= 2 * (r - k) + 1 and 2 * (r - k) + 1 >= r + 2:
        return CEntry(sum(o_vector_closed(r, n, k)), "closed-form")
    return None


def _cache_error(r: int, n: int, k: int, entry: CEntry) -> str | None:
    """What makes a cache entry one that ``_compute`` could not have written,
    if anything: a cell that ``entry`` refuses, a formula cell whose entry is
    not the formula's, any other provenance than brute-force elsewhere, or a
    brute-force value that no m(M,k) at (r, n) takes (odd, or outside
    [0, tope count])."""
    try:
        _check_cell(r, n, k)
    except DomainError as exc:
        return str(exc)
    formula = _formula_entry(r, n, k)
    if formula is not None:
        if entry != formula:
            return f"({r}, {n}, {k}) is {formula.value} {formula.provenance}"
        return None
    if entry.provenance != "brute-force":
        return f"({r}, {n}, {k}) has no {entry.provenance}"
    topes = tope_count_uniform(r, n)
    if entry.value % 2 or not 0 <= entry.value <= topes:
        return f"brute-force value {entry.value} is odd or outside [0, {topes}]"
    return None


_default_table = CValueTable()


def c_value(r: int, n: int, k: int) -> int:
    """c_r(n,k) via the shared module-level memo table."""
    return _default_table.c_value(r, n, k)
