"""Output checks behind ``failed``/``error_rate``.

Each check takes the exit code and captured output of one CLI invocation and
returns ``None`` when the output is right, otherwise a one-line reason.  The
expected values come from closed forms computed here with ``math.comb`` and
from the untimed facts stored with the inputs, never from the timed call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path


@dataclass(frozen=True)
class Outcome:
    rc: int
    stdout: str
    stderr: str


def tope_count(r: int, n: int) -> int:
    """2 * sum_{i<r} C(n-1, i): the tope count of every uniform rank-r matroid."""
    return 2 * sum(comb(n - 1, i) for i in range(r))


def c_value(r: int, n: int, k: int) -> int:
    """c_r(n, k) = m(C_r(n), k) from the closed forms: the tope count at
    k = 0, else the sum of o(C_r(n), i) = 2*C(n, r-1-2i) over i >= k, valid
    when n >= 2(r-k)+1 >= r+2."""
    if k == 0:
        return tope_count(r, n)
    if not n >= 2 * (r - k) + 1 >= r + 2:
        raise ValueError(f"no closed form for c_{r}({n},{k})")
    return sum(2 * comb(n, r - 1 - 2 * i) for i in range(k, (r - 1) // 2 + 1))


def _tails(entries) -> list[int]:
    return [sum(entries[k:]) for k in range(len(entries))]


def ovector_problem(r: int, n: int, entries, m) -> str | None:
    """Invariants every o-vector row must satisfy."""
    if len(entries) != (r - 1) // 2 + 1:
        return f"o-vector has {len(entries)} entries"
    if any(e < 0 or e % 2 for e in entries):
        return f"o-vector entries not even and non-negative: {entries}"
    if sum(entries) != tope_count(r, n):
        return f"o-vector sums to {sum(entries)}, expected {tope_count(r, n)}"
    if list(m) != _tails(entries):
        return f"m-values {m} are not the tail sums of {entries}"
    return None


def _c_values(r: int, n: int) -> list[int]:
    return [c_value(r, n, k) for k in range((r - 1) // 2 + 1)]


def check_report(command: str, r: int, n: int, k: int, count: int, checkpoint: Path | None = None):
    """roudneff/mcmullen: one valid row per record id 1..count, and a verdict
    line that matches what the rows imply."""
    cs = _c_values(r, n)

    def check(out: Outcome) -> str | None:
        rows = [json.loads(line) for line in out.stdout.splitlines()]
        if [row["id"] for row in rows] != list(range(1, count + 1)):
            return f"{len(rows)} rows, ids not 1..{count}"
        for row in rows:
            problem = ovector_problem(r, n, row["ovector"], row["m"])
            if problem:
                return f"row {row['id']}: {problem}"
            if row["attains"] != [m == c for m, c in zip(row["m"], cs)]:
                return f"row {row['id']}: attains {row['attains']} wrong"
        ms = [row["m"][k] for row in rows]
        if command == "roudneff":
            top = max(ms)
            expected = {
                "verdict": "holds" if top <= cs[k] else "counterexample",
                "max_m": top,
                "c": cs[k],
                "attaining": ms.count(cs[k]),
                "argmax_ids": [row["id"] for row in rows if row["m"][k] == top],
            }
            rc = 0 if top <= cs[k] else 1
        else:
            low = min(ms)
            expected = {
                "verdict": "all-have-witness" if low > 0 else "zero-m-witnesses",
                "min_m": low,
                "zero_ids": [row["id"] for row in rows if row["m"][k] == 0],
            }
            rc = 0 if low > 0 else 1
        if json.loads(out.stderr) != expected:
            return f"verdict {out.stderr.strip()} != {json.dumps(expected)}"
        if out.rc != rc:
            return f"exit code {out.rc}, expected {rc}"
        if checkpoint is not None:
            saved = sorted(json.loads(line)["id"] for line in checkpoint.read_text().splitlines())
            if saved != list(range(1, count + 1)):
                return f"checkpoint holds {len(saved)} rows, not ids 1..{count}"
        return None

    return check


def check_search(k: int):
    """search on an input whose untimed o-vector gave m(M, k) = 0 must print
    ``none`` and exit 1."""

    def check(out: Outcome) -> str | None:
        text = out.stdout.strip()
        return None if (out.rc, text) == (1, "none") else f"expected none for k={k}, got {text!r}"

    return check


def alternating_ort(r: int, n: int, r_set) -> int:
    """ort of the tope negative on R for C_r(n), whose circuit on every
    (r+1)-subset has alternating signs starting with +."""
    neg = set(r_set)
    best = n + 1
    for support in combinations(range(1, n + 1), r + 1):
        agree = sum(1 for i, e in enumerate(support) if (i % 2 == 1) == (e in neg))
        best = min(best, agree, r + 1 - agree)
    return best


def check_alternating_witness(r: int, n: int, k: int):
    """construct on C_r(n): the printed level is the witness's true ort - 1,
    recomputed here, and reaches k."""

    def check(out: Outcome) -> str | None:
        if out.rc != 0:
            return f"exit code {out.rc}"
        r_text, level_text = out.stdout.split()
        r_set = [] if r_text == "R=-" else [int(e) for e in r_text[2:].split(",")]
        level = int(level_text.removeprefix("level="))
        true_level = alternating_ort(r, n, r_set) - 1
        if level != true_level or level < k:
            return f"level {level}, recomputed {true_level}, k={k}"
        return None

    return check


def check_audit(n: int, m_k: int):
    """audit: one line per element, the untimed m(M, k) on each, and holds
    and the exit code consistent with m <= m_delete + m_contract."""

    def check(out: Outcome) -> str | None:
        lines = out.stdout.splitlines()
        if len(lines) != n:
            return f"{len(lines)} audit lines, expected {n}"
        all_hold = True
        for e, line in enumerate(lines, 1):
            f = dict(part.split("=") for part in line.split())
            holds = m_k <= int(f["m_delete"]) + int(f["m_contract"])
            if int(f["e"]) != e or int(f["m"]) != m_k or f["holds"] != str(holds):
                return f"audit line {line!r} inconsistent with m={m_k}"
            all_hold = all_hold and holds
        if out.rc != (0 if all_hold else 1):
            return f"exit code {out.rc}"
        return None

    return check
