"""Seeded inputs for the benchmark workloads.

Every chirotope comes from ``orimat.random_realizable`` with a seed drawn from
``random.Random(f"{workload}:{seed}")``, so one ``--seed`` always yields the
same files.  Generation is never timed: files are written once per
(workload, seed) under ``perfbench/.cache`` and reused by later runs.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

# Bump when a generator changes, so stale cache entries are not reused.
GENERATOR_VERSION = 1
CACHE = Path(__file__).resolve().parent / ".cache"

DB_SMALL = (4, 8, 2000)  # roudneff --k 1: (r, n, records)
DB_RESUME = (5, 9, 1000)  # mcmullen --k 1 --checkpoint: first half prepared
SEARCH_CASES = ((6, 12, 2), (7, 12, 3))  # (r, n, k) with m(M, k) = 0
SEARCH_TRIES = 64


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def _write_chirotope(path: Path, chi) -> str:
    path.write_text(chi.serialize() + "\n")
    return path.name


def write_database(path: Path, r: int, n: int, count: int, rng: random.Random) -> str:
    """One random-realizable chirotope per line; line numbers are record ids."""
    from orimat import random_realizable

    lines = [random_realizable(r, n, seed=_seed(rng)).serialize() for _ in range(count)]
    path.write_text("\n".join(lines) + "\n")
    return path.name


def write_checkpoint(path: Path, db_path: Path, r: int, n: int, upto: int) -> str:
    """Checkpoint holding the rows of records 1..upto, as a resumed run finds it."""
    from orimat import harness

    with open(db_path) as fh:
        records = [rec for rec in harness.parse_database(fh, r, n) if rec.id <= upto]
    for row in harness.compute_rows(records):
        harness.append_checkpoint(path, row)
    return path.name


def _database(d: Path, rng: random.Random) -> dict:
    r, n, count = DB_SMALL
    small = write_database(d / "db_r4n8.txt", r, n, count, rng)
    r, n, count = DB_RESUME
    resume = write_database(d / "db_r5n9.txt", r, n, count, rng)
    ckpt = write_checkpoint(d / "ckpt_r5n9.jsonl", d / resume, r, n, count // 2)
    return {"db_r4n8": small, "db_r5n9": resume, "ckpt_r5n9": ckpt}


def _construct(d: Path, rng: random.Random) -> dict:
    """Search inputs with m(M, k) = 0, so search scans every tope; the (6,12)
    one doubles as the audit input."""
    from orimat import circuits_from_chirotope, o_vector, random_realizable

    meta = {}
    for r, n, k in SEARCH_CASES:
        for _ in range(SEARCH_TRIES):
            chi = random_realizable(r, n, seed=_seed(rng))
            ov = o_vector(circuits_from_chirotope(chi))
            if ov.m(k) == 0:
                break
        else:
            raise RuntimeError(f"no ({r},{n}) chirotope with m(M,{k}) = 0 in {SEARCH_TRIES} tries")
        name = f"r{r}n{n}"
        meta[name] = _write_chirotope(d / f"{name}.txt", chi)
        meta[f"{name}_m"] = list(ov.m_values())
    return meta


GENERATORS = {
    "database": _database,
    "construct": _construct,
}


def inputs_dir(workload: str, seed: int, cache: Path = CACHE) -> Path:
    """Directory holding the workload's files and ``meta.json`` for this seed,
    generated on first use."""
    d = cache / f"v{GENERATOR_VERSION}-{workload}-{seed}"
    if (d / "meta.json").exists():
        return d
    tmp = cache / f"tmp-{workload}-{seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = GENERATORS[workload](tmp, random.Random(f"{workload}:{seed}"))
    (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True))
    shutil.rmtree(d, ignore_errors=True)
    tmp.rename(d)
    return d
