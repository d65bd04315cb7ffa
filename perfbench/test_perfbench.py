"""Tests of the benchmark itself: input determinism, failure accounting and
exact traced counts.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from math import comb
from pathlib import Path

import pytest

import worker  # puts src/ on sys.path
from checks import Outcome, check_alternating_witness, check_report
from inputs import inputs_dir, write_checkpoint, write_database
from workloads import Invocation

from orimat import Chirotope, cli, harness

HERE = Path(__file__).resolve().parent


def _cocircuits_call(file=None):
    """construct on C_5(6) with k = 2: a call of a few milliseconds."""
    argv = ("construct", "-r", "5", "-n", "6", "--k", "2", "--method", "cocircuits")
    if file is not None:
        argv += ("--file", str(file))
    return Invocation(argv, check_alternating_witness(5, 6, 2))


def _roudneff_call(db, count):
    argv = ("roudneff", "-r", "4", "-n", "8", "--k", "1", "--file", str(db))
    return Invocation(argv, check_report("roudneff", 4, 8, 1, count), rows=count)


def _run_cli(argv):
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli.main(argv) == 0
    return out.getvalue(), err.getvalue()


def test_generator_is_deterministic(tmp_path):
    a = inputs_dir("construct", 7, cache=tmp_path / "a")
    b = inputs_dir("construct", 7, cache=tmp_path / "b")
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    meta = json.loads((a / "meta.json").read_text())
    assert meta["r6n12_m"][2] == 0 and meta["r7n12_m"][3] == 0

    db = [write_database(tmp_path / f"db{i}.txt", 4, 8, 10, random.Random("database:7")) for i in "12"]
    assert (tmp_path / db[0]).read_bytes() == (tmp_path / db[1]).read_bytes()
    write_database(tmp_path / "db3.txt", 4, 8, 10, random.Random("database:8"))
    assert (tmp_path / "db3.txt").read_bytes() != (tmp_path / db[0]).read_bytes()


def test_corrupted_ovector_entry_is_a_failure(tmp_path, monkeypatch):
    db = tmp_path / write_database(tmp_path / "db.txt", 4, 8, 5, random.Random("x"))
    calls = [_roudneff_call(db, 5)]
    assert worker.run_pass(calls)["failures"] == []

    real = harness.ReportRow.to_json

    def off_by_two(row):
        return real(replace(row, ovector=(row.ovector[0] + 2,) + row.ovector[1:]))

    monkeypatch.setattr(harness.ReportRow, "to_json", off_by_two)
    result = worker.run_pass(calls)
    assert result["attempted"] == 1
    assert len(result["failures"]) == 1 and "sums to" in result["failures"][0]


def test_wrong_witness_level_is_a_failure():
    check = check_alternating_witness(5, 6, 2)
    assert check(Outcome(0, "R=- level=2\n", "")) is None
    assert "recomputed 2" in check(Outcome(0, "R=- level=3\n", ""))


def test_wrong_verdict_is_a_failure(tmp_path):
    db = tmp_path / write_database(tmp_path / "db.txt", 4, 8, 6, random.Random("x"))
    out, err = _run_cli(["roudneff", "-r", "4", "-n", "8", "--k", "1", "--file", str(db)])
    check = check_report("roudneff", 4, 8, 1, 6)
    assert check(Outcome(0, out, err)) is None
    verdict = json.loads(err)
    verdict["argmax_ids"] = verdict["argmax_ids"][1:] + [99]
    assert "verdict" in check(Outcome(0, out, json.dumps(verdict)))


def test_exception_in_main_is_counted_and_the_pass_goes_on(tmp_path, monkeypatch):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    calls = [_cocircuits_call(empty), _cocircuits_call()]
    result = worker.run_pass(calls)
    assert result["attempted"] == 2
    assert len(result["failures"]) == 1 and str(empty) in result["failures"][0]

    def boom(chi, k):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "disjoint_cocircuit_construction", boom)
    result = worker.run_pass([_cocircuits_call()])
    assert result["failures"] == [
        "construct -r 5 -n 6 --k 2 --method cocircuits: raised RuntimeError: boom"
    ]


@pytest.fixture
def small_database(tmp_path):
    r, n, count = 4, 8, 12
    db = tmp_path / write_database(tmp_path / "db.txt", r, n, count, random.Random("db"))
    ckpt = tmp_path / write_checkpoint(tmp_path / "ckpt.jsonl", db, r, n, count // 2)
    work = tmp_path / "work.jsonl"
    roudneff = _roudneff_call(db, count)
    mcmullen = Invocation(
        ("mcmullen", "-r", "4", "-n", "8", "--k", "1", "--file", str(db), "--checkpoint", str(work)),
        check_report("mcmullen", r, n, 1, count, checkpoint=work),
        rows=count // 2,
        prepare=lambda: shutil.copyfile(ckpt, work),
    )
    return [roudneff, mcmullen], count


def test_traced_counts_repeat_exactly(small_database):
    calls, count = small_database
    computed = count + count // 2  # roudneff rows, then the resumed half
    expected = ("cli.main", "harness.compute_rows", "harness.checkpoint.append")
    runs = [worker.traced_pass(calls, expected) for _ in range(2)]
    for result, layers in runs:
        assert result["failures"] == []
        assert layers["circuits.members"] == computed * comb(8, 5)
        assert layers["chirotope.lex_rank.calls"] == computed * 2 * 4 * comb(8, 5)
        assert layers["harness.checkpoint.append.calls"] == count // 2
        assert 0.95 <= layers["trace.coverage"] <= 1.0
    first, second = (layers for _, layers in runs)
    for metric in first:
        if not metric.endswith(("_s", "coverage")):
            assert first[metric] == second[metric], metric


def test_missed_span_fails_the_traced_pass():
    with pytest.raises(RuntimeError, match="never entered"):
        worker.traced_pass([_cocircuits_call()], ("harness.compute_rows",))


def test_wrappers_are_removed_after_a_traced_pass():
    before = (cli.main, cli.o_vector, harness.o_vector, Chirotope.dual)
    worker.traced_pass([_cocircuits_call()], ("cli.main",))
    assert (cli.main, cli.o_vector, harness.o_vector, Chirotope.dual) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
