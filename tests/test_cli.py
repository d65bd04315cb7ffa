import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orimat import (
    alternating_chirotope,
    c_value,
    circuits_from_chirotope,
    mcmullen_report,
    parse_database,
    random_realizable,
    roudneff_report,
)
from orimat import cli
from orimat.cli import main

from conftest import o_vector_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCircuits:
    def test_alternating(self, capsys):
        code, out, _ = run(capsys, "circuits", "-r", "3", "-n", "4")
        assert code == 0
        assert out.strip() == "+-+-"

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "chi.txt"
        path.write_text(alternating_chirotope(3, 5).serialize() + "\n")
        code, out, _ = run(capsys, "circuits", "-r", "3", "-n", "5", "--file", str(path))
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_bad_file_contents(self, capsys, tmp_path):
        path = tmp_path / "chi.txt"
        path.write_text("++x+\n")
        code, _, err = run(capsys, "circuits", "-r", "3", "-n", "4", "--file", str(path))
        assert code == 2
        assert "error" in err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "chi.txt"
        path.write_text("\n")
        code, out, err = run(capsys, "circuits", "-r", "3", "-n", "4", "--file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_missing_file(self, capsys, tmp_path):
        absent = str(tmp_path / "absent.txt")
        code, out, err = run(capsys, "circuits", "-r", "3", "-n", "4", "--file", absent)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestOVector:
    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "ovector", "-r", "3", "-n", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"r": 3, "n": 5, "ovector": [20, 2], "m": [22, 2]}

    def test_threads_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "ovector", "-r", "4", "-n", "7", "--threads", "4")
        assert code == 2

    def test_infeasible_size_refused(self, capsys):
        # 91390 circuits x 2^39 candidates: refused before the kernel allocates
        code, out, err = run(capsys, "ovector", "-r", "3", "-n", "40")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err

    def test_huge_alternating_refused_before_building(self, capsys):
        # C(40, 20) signs: the chirotope itself would not fit in memory
        code, out, err = run(capsys, "ovector", "-r", "20", "-n", "40")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err and len(err.splitlines()) == 1

    def test_tope_graph_export(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        code, _, _ = run(
            capsys, "ovector", "-r", "3", "-n", "4", "--tope-graph", str(path)
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines and all(len(line.split()) == 2 for line in lines)


class TestMValue:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "mvalue", "-r", "3", "-n", "5", "--k", "1")
        assert code == 0 and out.strip() == "2"

    def test_k_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mvalue", "-r", "3", "-n", "5", "--k", "2")
        assert code == 2 and "error" in err


class TestMinorsAndReorient:
    def test_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "-r", "5", "-n", "6")
        assert code == 0 and len(out.strip()) == 6

    def test_minor_delete(self, capsys):
        code, out, _ = run(capsys, "minor", "-r", "3", "-n", "5", "--delete", "5")
        assert code == 0
        assert out.strip() == alternating_chirotope(3, 4).serialize()

    def test_minor_contract(self, capsys):
        code, out, _ = run(capsys, "minor", "-r", "3", "-n", "5", "--contract", "1")
        assert code == 0
        assert out.strip() == alternating_chirotope(2, 4).serialize()

    def test_minor_delete_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "minor", "-r", "3", "-n", "5", "--delete", "0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_minor_requires_choice(self, capsys):
        code, _, _ = run(capsys, "minor", "-r", "3", "-n", "5")
        assert code == 2

    def test_reorient(self, capsys):
        code, out, _ = run(capsys, "reorient", "-r", "3", "-n", "4", "--set", "1")
        assert code == 0 and out.strip() == "---+"

    def test_reorient_bad_set_is_usage_error(self, capsys):
        code, out, err = run(capsys, "reorient", "-r", "3", "-n", "4", "--set", "a")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--set" in err and len(err.splitlines()) == 1

    def test_reorient_involution(self, capsys):
        _, once, _ = run(capsys, "reorient", "-r", "3", "-n", "6", "--set", "2,5")
        path_out = once.strip()
        assert path_out != alternating_chirotope(3, 6).serialize()


class TestConstruct:
    def test_search_success(self, capsys):
        code, out, _ = run(
            capsys, "construct", "-r", "3", "-n", "5", "--k", "1", "--method", "search"
        )
        assert code == 0 and out.startswith("R=") and "level=" in out

    def test_search_none_exits_one(self, capsys, tmp_path):
        path = tmp_path / "chi.txt"
        path.write_text(random_realizable(3, 6, seed=1).serialize() + "\n")
        code, out, _ = run(
            capsys,
            "construct", "-r", "3", "-n", "6", "--k", "1",
            "--file", str(path),
        )
        assert code == 1 and out.strip() == "none"

    def test_cocircuit_method(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "-r", "5", "-n", "6", "--k", "2", "--method", "cocircuits",
        )
        assert code == 0 and "level=2" in out

    def test_composite_method(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "-r", "6", "-n", "8", "--k", "2", "--method", "composite",
        )
        assert code == 0 and "level=" in out

    def test_precondition_violation_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "construct", "-r", "5", "-n", "7", "--k", "2", "--method", "cocircuits",
        )
        assert code == 2 and "error" in err


class TestCValue:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "cvalue", "-r", "6", "-n", "9", "--k", "2")
        assert code == 0 and out.strip() == "18"

    def test_provenance(self, capsys):
        code, out, _ = run(
            capsys, "cvalue", "-r", "6", "-n", "9", "--k", "2", "--show-provenance"
        )
        assert code == 0 and out.strip() == "18 closed-form"

    def test_cache_file(self, capsys, tmp_path):
        path = tmp_path / "cvalues.cache"
        run(capsys, "cvalue", "-r", "3", "-n", "5", "--k", "1", "--cache", str(path))
        assert "3 5 1 2" in path.read_text()
        code, out, _ = run(
            capsys,
            "cvalue", "-r", "3", "-n", "5", "--k", "1",
            "--cache", str(path), "--show-provenance",
        )
        assert code == 0 and out.strip().startswith("2 ")

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "cvalue", "-r", "3", "-n", "3", "--k", "0")
        assert code == 2 and "error" in err

    def test_cache_non_integer_field(self, capsys, tmp_path):
        path = tmp_path / "cvalues.cache"
        path.write_text("3 5 1 x closed-form\n")
        code, out, err = run(
            capsys, "cvalue", "-r", "3", "-n", "5", "--k", "1", "--cache", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "line 1" in err and len(err.splitlines()) == 1

    def test_brute_force_size_refused_before_building(self, capsys):
        # (20, 38, k=1) has no closed form; C(38, 20) signs would not fit in memory
        code, out, err = run(capsys, "cvalue", "-r", "20", "-n", "38", "--k", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err and len(err.splitlines()) == 1


@pytest.fixture
def db36(tmp_path):
    lines = [alternating_chirotope(3, 6).serialize()]
    lines += [random_realizable(3, 6, seed=s).serialize() for s in range(3)]
    path = tmp_path / "db.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReports:
    def test_roudneff_holds(self, capsys, db36):
        code, out, err = run(
            capsys, "roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(db36)
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 4
        assert set(rows[0]) == {"id", "ovector", "m", "attains"}
        verdict = json.loads(err.strip().splitlines()[-1])
        assert verdict["verdict"] == "holds" and verdict["c"] == 2

    def test_mcmullen_zero_witness(self, capsys, db36):
        # seed 1 (record id 3) has no 1-neighborly reorientation
        code, _, err = run(
            capsys, "mcmullen", "-r", "3", "-n", "6", "--k", "1", "--file", str(db36)
        )
        assert code == 1
        verdict = json.loads(err.strip().splitlines()[-1])
        assert verdict["verdict"] == "zero-m-witnesses" and 3 in verdict["zero_ids"]

    def test_csv_format(self, capsys, db36):
        code, out, _ = run(
            capsys,
            "roudneff", "-r", "3", "-n", "6", "--k", "1",
            "--file", str(db36), "--format", "csv",
        )
        assert code == 0
        first = out.strip().splitlines()[0]
        assert first.split(",")[0] == "1"

    def test_checkpoint_resume(self, capsys, db36, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        _, full_out, _ = run(
            capsys, "roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(db36)
        )
        code, _, _ = run(
            capsys,
            "roudneff", "-r", "3", "-n", "6", "--k", "1",
            "--file", str(db36), "--checkpoint", str(ckpt),
        )
        assert code == 0
        # a second run resumes from the checkpoint and reproduces the report
        code, out, _ = run(
            capsys,
            "roudneff", "-r", "3", "-n", "6", "--k", "1",
            "--file", str(db36), "--checkpoint", str(ckpt),
        )
        assert code == 0 and out == full_out

    def test_checkpoint_with_gap_computes_missing_records(self, capsys, tmp_path):
        db = tmp_path / "db.txt"
        db.write_text(
            "\n".join(random_realizable(3, 6, seed=s).serialize() for s in range(3)) + "\n"
        )
        argv = ["roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(db)]
        _, full_out, full_err = run(capsys, *argv)
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text(full_out.splitlines()[1] + "\n")  # only id 2
        code, out, err = run(capsys, *argv, "--checkpoint", str(ckpt))
        assert (code, out, err) == (0, full_out, full_err)
        ids = sorted(json.loads(line)["id"] for line in ckpt.read_text().splitlines())
        assert ids == [1, 2, 3]

    def test_checkpoint_id_not_in_database(self, capsys, db36, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text('{"id": 99, "ovector": [1, 1], "m": [2, 1], "attains": [true, false]}\n')
        code, out, err = run(
            capsys,
            "roudneff", "-r", "3", "-n", "6", "--k", "1",
            "--file", str(db36), "--checkpoint", str(ckpt),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "[99]" in err and len(err.splitlines()) == 1

    def test_torn_final_checkpoint_line_recomputed(self, capsys, db36, tmp_path):
        argv = ["roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(db36)]
        _, full_out, _ = run(capsys, *argv)
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text(full_out.splitlines()[0] + "\n" + '{"id": 2, "ovector": [3')
        code, out, _ = run(capsys, *argv, "--checkpoint", str(ckpt))
        assert code == 0 and out == full_out

    def test_malformed_checkpoint_line(self, capsys, db36, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text('{"id": 1, "ovector": [3\n{"id": 2}\n')
        code, out, err = run(
            capsys,
            "roudneff", "-r", "3", "-n", "6", "--k", "1",
            "--file", str(db36), "--checkpoint", str(ckpt),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "line 1" in err and len(err.splitlines()) == 1

    def test_malformed_database(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("++++++++++++++++++++\n++0+\n")
        code, _, err = run(
            capsys, "roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(path)
        )
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize("text", ["", "# comment only\n\n"])
    def test_empty_database(self, capsys, tmp_path, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        code, out, err = run(
            capsys, "roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_missing_database_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "roudneff", "-r", "3", "-n", "6", "--k", "1",
            "--file", str(tmp_path / "absent.txt"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


    @pytest.mark.parametrize("command", ["roudneff", "mcmullen"])
    def test_bad_k_refused_before_any_row(self, capsys, tmp_path, command):
        db = tmp_path / "db.txt"
        db.write_text(
            "\n".join(random_realizable(4, 8, seed=s).serialize() for s in range(2)) + "\n"
        )
        ckpt = tmp_path / "ckpt.jsonl"
        code, out, err = run(
            capsys,
            command, "-r", "4", "-n", "8", "--k", "5",
            "--file", str(db), "--checkpoint", str(ckpt),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not ckpt.exists()

    def test_rows_stream_before_a_failing_record(self, capsys, tmp_path):
        # record 2 has valid syntax but the wrong tope count
        db = tmp_path / "db.txt"
        db.write_text(alternating_chirotope(3, 5).serialize() + "\n-+---+---+\n")
        ckpt = tmp_path / "ckpt.jsonl"
        code, out, err = run(
            capsys,
            "roudneff", "-r", "3", "-n", "5", "--k", "1",
            "--file", str(db), "--checkpoint", str(ckpt),
        )
        assert code == 2
        assert [json.loads(line)["id"] for line in out.splitlines()] == [1]
        assert ckpt.read_text() == out
        assert err.startswith("error:") and "record 2" in err and len(err.splitlines()) == 1


@st.composite
def report_cases(draw):
    r, n = draw(st.sampled_from([(3, 6), (4, 7)]))
    k = draw(st.integers(0, (r - 1) // 2))
    seeds = draw(st.lists(st.integers(0, 200), min_size=1, max_size=4))
    return draw(st.sampled_from(["roudneff", "mcmullen"])), r, n, k, seeds


@settings(max_examples=40, deadline=None)
@given(report_cases())
def test_exit_one_only_on_verified_counterexample(case):
    """The CLI's verdict is the library aggregate's, and exit code 1 happens
    exactly when the scalar o-vector oracle finds a counterexample."""
    command, r, n, k, seeds = case
    lines = [random_realizable(r, n, seed=s).serialize() for s in seeds]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "db.txt"
        db.write_text("\n".join(lines) + "\n")
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "-r", str(r), "-n", str(n), "--k", str(k), "--file", str(db)])
    records = list(parse_database(lines, r, n))
    agg = (roudneff_report if command == "roudneff" else mcmullen_report)(records, k)
    assert json.loads(err.getvalue()) == agg.summary()
    assert code == (0 if agg.holds else 1)
    assert len(out.getvalue().splitlines()) == len(records)
    ms = [sum(o_vector_oracle(circuits_from_chirotope(rec.chirotope()))[k:]) for rec in records]
    if command == "roudneff":
        counterexample = max(ms) > c_value(r, n, k)
    else:
        counterexample = min(ms) == 0
    assert (code == 1) == counterexample


class TestAuditAndReduce:
    def test_audit_holds(self, capsys):
        code, out, _ = run(capsys, "audit", "-r", "4", "-n", "6", "--k", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6 and all("holds=True" in line for line in lines)

    def test_reduce_confirmed(self, capsys):
        code, out, _ = run(capsys, "reduce", "-r", "3", "--k", "1")
        assert code == 0 and out.strip().splitlines()[-1] == "confirmed"

    def test_reduce_incomplete(self, capsys):
        code, out, _ = run(capsys, "reduce", "-r", "5", "--k", "1")
        assert code == 0 and "incomplete-evidence" in out

    def test_reduce_with_databases(self, capsys, tmp_path):
        for r, n in [(4, 7), (5, 9)]:
            lines = [alternating_chirotope(r, n).serialize()]
            lines += [random_realizable(r, n, seed=s).serialize() for s in range(2)]
            (tmp_path / f"db{r}_{n}.txt").write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys,
            "reduce", "-r", "5", "--k", "1",
            "--db", f"4:7:{tmp_path}/db4_7.txt",
            "--db", f"5:9:{tmp_path}/db5_9.txt",
        )
        assert code == 0 and out.strip().splitlines()[-1] == "confirmed"


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["ovector", "-r", "3", "-n", "5", "--nope"]) == 2

    def test_stray_memory_error_is_one_line(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "circuits", exhausted)
        code, out, err = run(capsys, "circuits", "-r", "3", "-n", "4")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_missing_required(self, capsys):
        assert main(["ovector", "-r", "3"]) == 2
