import io
import json
import tempfile
from math import ceil
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
    o_vector_closed,
    parse_chirotope,
    parse_database,
    random_realizable,
    roudneff_report,
)
from orimat import cli, cyclic, harness, neighborly
from orimat.cli import main

from conftest import o_vector_oracle, serialize_colex


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

    def test_infeasible_size_refused(self, capsys, monkeypatch):
        # (5, 30) grows through about 1.9e10 pairs: refused before the kernel runs
        def allocate(*args):
            raise AssertionError("kernel ran before the budget check")

        monkeypatch.setattr(neighborly, "_ort_of", allocate)
        code, out, err = run(capsys, "ovector", "-r", "5", "-n", "30")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err and len(err.splitlines()) == 1

    def test_grown_size_matches_closed_form(self, capsys):
        # 91390 circuits x 2^39 sign vectors as a full sweep; grown, about 9e7 pairs
        code, out, _ = run(capsys, "ovector", "-r", "3", "-n", "40")
        assert code == 0
        entries = list(o_vector_closed(3, 40, 0))
        assert json.loads(out) == {"r": 3, "n": 40, "ovector": entries, "m": [sum(entries), 2]}

    def test_huge_alternating_refused_before_building(self, capsys):
        # C(40, 20) signs: the chirotope itself would not fit in memory
        code, out, err = run(capsys, "ovector", "-r", "20", "-n", "40")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err and len(err.splitlines()) == 1

    def test_tope_graph_size_refused_before_the_o_vector(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        code, out, err = run(capsys, "ovector", "-r", "3", "-n", "17", "--tope-graph", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("error: tope graph") and len(err.splitlines()) == 1

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

    def test_k_refused_before_the_kernel(self, capsys, monkeypatch):
        def kernel(*args):
            raise AssertionError("the kernel ran before k was checked")

        monkeypatch.setattr(neighborly, "_ort_of", kernel)
        code, out, err = run(capsys, "mvalue", "-r", "3", "-n", "5", "--k", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_grown_size_matches_closed_form(self, capsys):
        # level 2 grown at (4, 22): m(C_4(22), 1) is the closed form's last entry
        code, out, _ = run(capsys, "mvalue", "-r", "4", "-n", "22", "--k", "1")
        assert code == 0 and int(out) == sum(o_vector_closed(4, 22, 1)) == 44


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

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("3 5 1 999 closed-form", "is 2 closed-form"),  # the true value is 2
            ("3 5 1 2 brute-force", "is 2 closed-form"),  # a closed-form cell
            ("3 4 1 6 closed-form", "is 6 n=r+1-formula"),
            ("3 5 1 2 guessed", "is 2 closed-form"),
            ("6 8 2 32 guessed", "has no guessed"),
            ("3 3 0 2 closed-form", "need n >= r+1"),
            ("3 5 2 0 closed-form", "k=2 outside"),
            ("6 8 2 32 closed-form", "has no closed-form"),  # brute force only
            ("6 8 2 33 brute-force", "odd or outside [0, 240]"),  # 240 topes
            ("6 8 2 242 brute-force", "odd or outside [0, 240]"),
            ("6 8 2 -2 brute-force", "odd or outside [0, 240]"),
        ],
    )
    def test_cache_entry_compute_could_not_write(self, capsys, tmp_path, line, reason):
        path = tmp_path / "cvalues.cache"
        path.write_text("6 9 2 18 closed-form\n" + line + "\n")
        code, out, err = run(capsys, "cvalue", "-r", "3", "-n", "5", "--k", "1", "--cache", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cache line 2: ") and reason in err
        assert len(err.splitlines()) == 1

    def test_cache_brute_force_entry_used(self, capsys, monkeypatch, tmp_path):
        def enumerate_again(*args):
            raise AssertionError("a cached brute-force cell was enumerated again")

        monkeypatch.setattr(cyclic, "c_value_brute", enumerate_again)
        path = tmp_path / "cvalues.cache"
        path.write_text("6 8 2 32 brute-force\n")
        code, out, _ = run(capsys, "cvalue", "-r", "6", "-n", "8", "--k", "2", "--cache", str(path))
        assert code == 0 and out == "32\n"

    def test_brute_force_size_refused_before_building(self, capsys):
        # (20, 38, k=1) has no closed form; C(38, 20) signs would not fit in memory
        code, out, err = run(capsys, "cvalue", "-r", "20", "-n", "38", "--k", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err and len(err.splitlines()) == 1


def colex_copy(path, r, n):
    """The database at ``path`` (lex lines) rewritten in colex order, next to it."""
    lines = path.read_text().split()
    colex = path.with_name("colex_" + path.name)
    colex.write_text("".join(serialize_colex(parse_chirotope(w, r, n)) + "\n" for w in lines))
    assert colex.read_text() != path.read_text()
    return colex


@pytest.fixture
def db36(tmp_path):
    lines = [alternating_chirotope(3, 6).serialize()]
    lines += [random_realizable(3, 6, seed=s).serialize() for s in range(3)]
    path = tmp_path / "db.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def db47(tmp_path):
    lines = [random_realizable(4, 7, seed=s).serialize() for s in range(4)]
    path = tmp_path / "db47.txt"
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

    # At n = 2r colex text read as lex is a relabelled dual with the same
    # rows, so the base-order cases use (4, 7), where a lost order fails.

    def test_colex_base_order(self, capsys, db47):
        argv = ["roudneff", "-r", "4", "-n", "7", "--k", "1"]
        lex = run(capsys, *argv, "--file", str(db47))
        colex = run(capsys, *argv, "--file", str(colex_copy(db47, 4, 7)), "--base-order", "colex")
        assert colex == lex and lex[0] == 0

    def test_colex_base_order_resumed(self, capsys, db47, tmp_path):
        argv = ["mcmullen", "-r", "4", "-n", "7", "--k", "1"]
        _, full_out, _ = run(capsys, *argv, "--file", str(db47))
        outcomes = []
        for order, db in [("lex", db47), ("colex", colex_copy(db47, 4, 7))]:
            ckpt = tmp_path / f"{order}.jsonl"
            ckpt.write_text(full_out.splitlines()[0] + "\n")
            code, out, err = run(
                capsys, *argv, "--file", str(db), "--base-order", order, "--checkpoint", str(ckpt)
            )
            outcomes.append((code, out, err, ckpt.read_text()))
        assert outcomes[1] == outcomes[0] and outcomes[0][1] == full_out

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
        # a row that fits (3, 6), so only its id is foreign
        ckpt.write_text('{"id": 99, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}\n')
        code, out, err = run(
            capsys,
            "roudneff", "-r", "3", "-n", "6", "--k", "1",
            "--file", str(db36), "--checkpoint", str(ckpt),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "[99]" in err and len(err.splitlines()) == 1

    def test_checkpoint_of_another_rank_exits_two(self, capsys, tmp_path):
        files = {}
        for r, n in [(3, 6), (5, 8)]:
            files[r] = tmp_path / f"db{r}.txt"
            files[r].write_text(
                "\n".join(random_realizable(r, n, seed=s).serialize() for s in range(3)) + "\n"
            )
        ckpt = tmp_path / "ck.jsonl"
        argv = ["--file", str(files[3]), "--checkpoint", str(ckpt)]
        assert run(capsys, "roudneff", "-r", "3", "-n", "6", "--k", "1", *argv)[0] == 0
        argv = ["--file", str(files[5]), "--checkpoint", str(ckpt)]
        code, out, err = run(capsys, "roudneff", "-r", "5", "-n", "8", "--k", "2", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: checkpoint line 1: not 3 entries") and "(5, 8)" in err
        assert len(err.splitlines()) == 1

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


    def test_corrupt_record_in_the_middle_of_a_group(self, capsys, tmp_path):
        # ten (4, 8) records, one kernel group; record 6 has one sign of a
        # chirotope flipped, which breaks its tope count
        lines = [random_realizable(4, 8, seed=s).serialize() for s in range(10)]
        lines[5] = ("+" if lines[0][0] == "-" else "-") + lines[0][1:]
        db = tmp_path / "db.txt"
        db.write_text("\n".join(lines) + "\n")
        ckpt = tmp_path / "ckpt.jsonl"
        code, out, err = run(
            capsys,
            "roudneff", "-r", "4", "-n", "8", "--k", "1",
            "--file", str(db), "--checkpoint", str(ckpt),
        )
        assert code == 2
        assert [json.loads(line)["id"] for line in out.splitlines()] == [1, 2, 3, 4, 5]
        assert ckpt.read_text() == out
        assert err.startswith("error: record 6: tope count") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("signs", [b"\x01" * 69, b"\x01" * 69 + b"\x00"])
    def test_hand_built_bad_record_exits_two(self, capsys, monkeypatch, tmp_path, signs):
        good = next(parse_database([random_realizable(4, 8, seed=0).serialize()], 4, 8))
        records = [good, harness.DatabaseRecord(2, 4, 8, signs)]
        monkeypatch.setattr(harness, "parse_database", lambda *args: iter(records))
        db = tmp_path / "db.txt"
        db.write_text("unread\n")
        code, out, err = run(capsys, "roudneff", "-r", "4", "-n", "8", "--k", "1", "--file", str(db))
        assert code == 2 and [json.loads(line)["id"] for line in out.splitlines()] == [1]
        assert err.startswith("error: record 2: ") and len(err.splitlines()) == 1

    def test_rows_batched_per_kernel_call(self, capsys, monkeypatch, tmp_path):
        # (4, 8): 56 circuits x 2 levels x 2 words per record, 146 records per fold
        per_call = neighborly.records_per_call(4, 8)
        count = 2 * per_call + 3
        db = tmp_path / "db.txt"
        db.write_text(
            "\n".join(random_realizable(4, 8, seed=s).serialize() for s in range(count)) + "\n"
        )
        calls = []
        fold = neighborly._dense_fold
        monkeypatch.setattr(neighborly, "_dense_fold", lambda *args: calls.append(1) or fold(*args))
        code, out, _ = run(capsys, "roudneff", "-r", "4", "-n", "8", "--k", "1", "--file", str(db))
        assert code == 0 and len(out.splitlines()) == count
        recs = parse_database(db.read_text().splitlines(), 4, 8)
        oracle = [o_vector_oracle(circuits_from_chirotope(rec.chirotope())) for rec in recs]
        assert [tuple(json.loads(line)["ovector"]) for line in out.splitlines()] == oracle
        assert len(calls) == ceil(count / per_call) == 3


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
        dbs = {}
        for r, n in [(4, 7), (5, 9)]:
            lines = [alternating_chirotope(r, n).serialize()]
            lines += [random_realizable(r, n, seed=s).serialize() for s in range(2)]
            dbs[r, n] = tmp_path / f"db{r}_{n}.txt"
            dbs[r, n].write_text("\n".join(lines) + "\n")
        argv = ["reduce", "-r", "5", "--k", "1"]
        lex = run(capsys, *argv, *(f"--db={r}:{n}:{p}" for (r, n), p in dbs.items()))
        code, out, _ = lex
        assert code == 0 and out.strip().splitlines()[-1] == "confirmed"
        colex = run(
            capsys,
            *argv,
            "--base-order", "colex",
            *(f"--db={r}:{n}:{colex_copy(p, r, n)}" for (r, n), p in dbs.items()),
        )
        assert colex == lex

    def test_reduce_invalid_rank(self, capsys):
        code, out, err = run(capsys, "reduce", "-r", "0", "--k", "0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "rank" in err and len(err.splitlines()) == 1
        assert "k=0" not in err

    def test_reduce_fails_on_wrong_c_values(self, capsys, c_values_off_by_1000):
        # the recurrence over wrong c-values no longer meets the closed form
        code, out, _ = run(capsys, "reduce", "-r", "7", "--k", "3")
        assert code == 1 and "RECURRENCE MISMATCH" in out
        assert out.strip().splitlines()[-1] == "counterexample"


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_parser_built_once_keeps_no_state(self, capsys, tmp_path):
        # the appended --db list of one call is not a default of the next
        assert cli.build_parser() is cli.build_parser()
        db = tmp_path / "db.txt"
        db.write_text(alternating_chirotope(4, 7).serialize() + "\n")
        code, out, _ = run(capsys, "reduce", "-r", "5", "--k", "1", f"--db=4:7:{db}")
        assert code == 0 and "database missing" in out and "rank 4, n=7: max m" in out
        code, out, _ = run(capsys, "reduce", "-r", "5", "--k", "1")
        assert code == 0 and "rank 4, n=7: database missing" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("roudneff", "-r", "3", "-n", "4", "--k", "1", "--file"),
            ("mcmullen", "-r", "3", "-n", "4", "--k", "1", "--file"),
            ("ovector", "-r", "3", "-n", "4", "--file"),
            ("reduce", "-r", "5", "--k", "1", "--db=4:7:"),
            ("cvalue", "-r", "3", "-n", "5", "--k", "1", "--cache"),
        ],
    )
    def test_non_utf8_file_exits_two_naming_it(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\n")
        *head, last = argv
        argv = (*head, last + str(path)) if last.endswith(":") else (*argv, str(path))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err and "UTF-8" in err
        assert len(err.splitlines()) == 1

    def test_non_utf8_stdin_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"))
        code, out, err = run(capsys, "roudneff", "-r", "3", "-n", "4", "--k", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: stdin is not UTF-8") and len(err.splitlines()) == 1

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("ovector", "-r", "3", "-n", "-1"),
            ("mcmullen", "-r", "3", "-n", "-1", "--k", "0"),
            ("dual", "-r", "-3", "-n", "4"),
        ],
    )
    def test_invalid_shape_with_file(self, capsys, tmp_path, argv):
        path = tmp_path / "f.txt"
        path.write_text("++++\n")
        code, out, err = run(capsys, *argv, "--file", str(path))
        r, n = argv[2], argv[4]
        assert (code, out, err) == (2, "", f"error: invalid rank/size ({r}, {n})\n")
