"""The workloads: each a fixed list of ``orimat`` CLI invocations over the
seeded inputs, with the check for each output.

Why each workload exists (see NOTES.md for the layer map):

- database: batch verification with the write path (checkpoint resume), where
  circuit derivation and per-record call overhead dominate.
- construct: per-tope search with m(M, k) = 0 (a full scan), the alternating
  constructions (contract, dual) and the deletion/contraction audit.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    Outcome,
    check_alternating_witness,
    check_audit,
    check_report,
    check_search,
)
from inputs import DB_RESUME, DB_SMALL, SEARCH_CASES


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[Outcome], str | None]
    rows: int = 1  # chirotopes this call answers (report rows it computes)
    prepare: Callable[[], None] | None = None  # untimed, before every call


def _database(d: Path, meta: dict) -> list[Invocation]:
    r, n, count = DB_SMALL
    roudneff = Invocation(
        ("roudneff", "-r", str(r), "-n", str(n), "--k", "1", "--file", str(d / meta["db_r4n8"])),
        check_report("roudneff", r, n, 1, count),
        rows=count,
    )
    r, n, count = DB_RESUME
    prepared = d / meta["ckpt_r5n9"]
    work = d / "work" / prepared.name

    def restore():
        work.parent.mkdir(exist_ok=True)
        shutil.copyfile(prepared, work)

    mcmullen = Invocation(
        ("mcmullen", "-r", str(r), "-n", str(n), "--k", "1", "--file", str(d / meta["db_r5n9"]),
         "--checkpoint", str(work)),
        check_report("mcmullen", r, n, 1, count, checkpoint=work),
        rows=count - count // 2,
        prepare=restore,
    )
    return [roudneff, mcmullen]


def _construct(d: Path, meta: dict) -> list[Invocation]:
    calls = []
    for r, n, k in SEARCH_CASES:
        name = f"r{r}n{n}"
        argv = ("construct", "-r", str(r), "-n", str(n), "--k", str(k), "--method", "search",
                "--file", str(d / meta[name]))
        calls.append(Invocation(argv, check_search(k)))
    for r, n, k, method in ((12, 15, 3, "composite"), (13, 16, 3, "cocircuits")):
        argv = ("construct", "-r", str(r), "-n", str(n), "--k", str(k), "--method", method)
        calls.append(Invocation(argv, check_alternating_witness(r, n, k)))
    argv = ("audit", "-r", "6", "-n", "12", "--k", "1", "--file", str(d / meta["r6n12"]))
    calls.append(Invocation(argv, check_audit(12, meta["r6n12_m"][1])))
    return calls


BUILDERS = {
    "database": _database,
    "construct": _construct,
}

# The CLI's direct callees on each workload: a traced run that never enters
# one of these has missed an import site.
EXPECTED_SPANS = {
    "database": (
        "cli.main",
        "harness.parse_database",
        "harness.compute_rows",
        "harness.checkpoint.load",
        "harness.checkpoint.append",
        "cyclic.c_value",
    ),
    "construct": (
        "cli.main",
        "chirotope.parse_chirotope",
        "constructions.search_k_neighborly",
        "constructions.composite_construction",
        "constructions.disjoint_cocircuit_construction",
        "harness.deletion_contraction_audit",
    ),
}


def build(workload: str, d: Path) -> list[Invocation]:
    meta = json.loads((d / "meta.json").read_text())
    return BUILDERS[workload](d, meta)
