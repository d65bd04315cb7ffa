import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
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
from orimat import cli, harness, neighborly
from orimat.cli import main

from conftest import o_vector_oracle, record_chirotope, report_oracle, serialize_colex


# signs that are no oriented matroid: the (7, 9) line has 476 of the 494
# topes, and the (6, 8) line has a 5-element contraction with no
# 1-neighborly reorientation
CORRUPT_7_9 = "-+------+-+++-+-------+-+-+-++--++--"
CORRUPT_6_8 = "+-+-++---+++---++-+++++---++"


def fake_stdin(data: bytes) -> io.TextIOWrapper:
    """A stdin that holds ``data``, opened as Python opens it in UTF-8 mode."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


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

    def test_comment_and_blank_lines_skipped(self, capsys, tmp_path):
        # the database line rule: a '# header' line is no chirotope
        path = tmp_path / "chi.txt"
        path.write_text("# alternating (3, 5)\n\n  " + alternating_chirotope(3, 5).serialize() + "  \n\n")
        code, out, err = run(capsys, "ovector", "-r", "3", "-n", "5", "--file", str(path))
        assert (code, err) == (0, "")
        assert out == '{"r": 3, "n": 5, "ovector": [20, 2], "m": [22, 2]}\n'

    def test_second_chirotope_refused(self, capsys, tmp_path):
        path = tmp_path / "chi.txt"
        path.write_text("# two\n++++\n\n+++-\n")
        code, out, err = run(capsys, "circuits", "-r", "3", "-n", "4", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path} holds 2 chirotope lines; expected one\n"

    def test_trailing_text_refused(self, capsys, tmp_path):
        # a second word on the line is part of the chirotope text, not ignored
        path = tmp_path / "chi.txt"
        path.write_text("++++ ++++\n")
        code, out, err = run(capsys, "circuits", "-r", "3", "-n", "4", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: expected 4 characters for (r=3, n=4), got 9\n"

    def test_only_comments(self, capsys, tmp_path):
        path = tmp_path / "chi.txt"
        path.write_text("# nothing here\n\n")
        code, out, err = run(capsys, "circuits", "-r", "3", "-n", "4", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: no chirotope in {path}\n"


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

        monkeypatch.setattr(neighborly, "_separations", allocate)
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

    def test_wrong_tope_count_refused(self, capsys, tmp_path):
        # signs that are no oriented matroid: refused as the database refuses
        # the same line, and before the tope graph is written
        path = tmp_path / "chi.txt"
        path.write_text(CORRUPT_7_9 + "\n")
        graph = tmp_path / "graph.txt"
        code, out, err = run(capsys, "ovector", "-r", "7", "-n", "9", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: tope count 476 != 494; wrong base order or corrupt data\n"
        code, out, err = run(capsys, "roudneff", "-r", "7", "-n", "9", "--k", "1", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: record 1: tope count 476 != 494; wrong base order or corrupt data\n"
        code, out, _ = run(
            capsys, "ovector", "-r", "7", "-n", "9", "--file", str(path), "--tope-graph", str(graph)
        )
        assert (code, out) == (2, "") and not graph.exists()

    def test_tope_graph_path_that_fails_prints_nothing(self, capsys, tmp_path):
        # the file is written before the o-vector line is printed
        path = tmp_path / "absent" / "graph.txt"
        code, out, err = run(capsys, "ovector", "-r", "3", "-n", "5", "--tope-graph", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1


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

        monkeypatch.setattr(neighborly, "_separations", kernel)
        code, out, err = run(capsys, "mvalue", "-r", "3", "-n", "5", "--k", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_grown_size_matches_closed_form(self, capsys):
        # level 2 grown at (4, 22): m(C_4(22), 1) is the closed form's last entry
        code, out, _ = run(capsys, "mvalue", "-r", "4", "-n", "22", "--k", "1")
        assert code == 0 and int(out) == sum(o_vector_closed(4, 22, 1)) == 44

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_wrong_tope_count_refused(self, capsys, tmp_path, k):
        # signs that are no oriented matroid: refused as ovector refuses them,
        # not answered with a count (476 topes at k = 0, 258 at k = 1)
        path = tmp_path / "chi.txt"
        path.write_text(CORRUPT_7_9 + "\n")
        code, out, err = run(capsys, "mvalue", "-r", "7", "-n", "9", "--k", k, "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: tope count 476 != 494; wrong base order or corrupt data\n"


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

    @pytest.mark.parametrize(
        "r,n,method,text,message",
        [
            (7, 9, "cocircuits", CORRUPT_7_9, "disjoint-cocircuits witness R=6,8 reaches level 1 < k=2"),
            (
                6, 8, "composite", CORRUPT_6_8,
                "composite: the contraction to 1,2,3,4,7 has no 1-neighborly reorientation",
            ),
        ],
    )
    def test_short_witness_exits_two(self, capsys, tmp_path, r, n, method, text, message):
        # signs that are no oriented matroid are bad input: one line, never
        # a traceback or exit 1; the alternating matroid at the same size succeeds
        path = tmp_path / "chi.txt"
        path.write_text(text + "\n")
        argv = ("construct", "-r", str(r), "-n", str(n), "--k", "2", "--method", method)
        code, out, err = run(capsys, *argv, "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {message}; wrong base order or corrupt data\n"
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("R=")

    def test_precondition_violation_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "construct", "-r", "5", "-n", "7", "--k", "2", "--method", "cocircuits",
        )
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("method", ["cocircuits", "composite"])
    @pytest.mark.parametrize("r,n", [(3, 6), (4, 6)])
    def test_rank_without_an_admissible_k(self, capsys, method, r, n):
        # the constructions need k >= 2, which no rank below 5 admits
        code, out, err = run(
            capsys,
            "construct", "-r", str(r), "-n", str(n), "--k", "1", "--method", method,
        )
        assert (code, out) == (2, "")
        assert err == f"error: rank {r} admits only k <= 1, and the construction needs k >= 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("cvalue", "-r", "0", "-n", "1", "--k", "0"),
        ("cvalue", "-r", "-1", "-n", "3", "--k", "0"),
        ("roudneff", "-r", "0", "-n", "3", "--k", "0", "--file", "unread.txt"),
        ("mcmullen", "-r", "-1", "-n", "3", "--k", "0", "--file", "unread.txt"),
    ],
)
def test_rank_below_one_refused_as_a_rank(capsys, argv):
    # refused as a rank, before any k is read against it or any file opened
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: invalid rank r={argv[2]}: need r >= 1\n"


class TestCValue:
    def test_value(self, capsys):
        # a closed-form cell and a brute-force one
        for r, n, k, value in [(6, 9, 2, "18"), (10, 15, 1, "20096")]:
            code, out, _ = run(capsys, "cvalue", "-r", str(r), "-n", str(n), "--k", str(k))
            assert (code, out) == (0, value + "\n")

    def test_provenance(self, capsys):
        code, out, _ = run(
            capsys, "cvalue", "-r", "6", "-n", "9", "--k", "2", "--show-provenance"
        )
        assert code == 0 and out.strip() == "18 closed-form"

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "cvalue", "-r", "3", "-n", "3", "--k", "0")
        assert code == 2 and "error" in err

    def test_cache_is_an_unknown_argument(self, capsys, tmp_path):
        # every c-value is computed; no file is read or written
        path = tmp_path / "P"
        code, out, err = run(capsys, "cvalue", "-r", "3", "-n", "5", "--k", "1", "--cache", str(path))
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cache" in err
        assert not path.exists()

    def test_brute_force_size_refused_before_building(self, capsys):
        # none of these cells has a closed form; C(38, 20) signs would not fit in memory
        for r, n, reason in [
            (20, 38, "exceed the enumeration budget"),
            (20, 30, "exceed the enumeration budget"),
            (40, 70, "invalid rank/size (40, 70)"),
        ]:
            code, out, err = run(capsys, "cvalue", "-r", str(r), "-n", str(n), "--k", "1")
            assert code == 2 and out == ""
            assert err.startswith("error:") and reason in err and len(err.splitlines()) == 1


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

    @pytest.mark.parametrize("kept,line", [((1,), 1), ((0, 2), 2)], ids=["line 1", "line 2"])
    def test_checkpoint_with_gap_refused(self, capsys, tmp_path, kept, line):
        # the rows of ids 2, or 1 and 3: a checkpoint holds the rows of the
        # first records, so the line after the gap is out of place
        db = tmp_path / "db.txt"
        db.write_text(
            "\n".join(random_realizable(3, 6, seed=s).serialize() for s in range(3)) + "\n"
        )
        argv = ["roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(db)]
        _, full_out, _ = run(capsys, *argv)
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text("".join(full_out.splitlines(keepends=True)[i] for i in kept))
        stored = ckpt.read_bytes()
        code, out, err = run(capsys, *argv, "--checkpoint", str(ckpt))
        assert (code, out) == (2, "")
        assert err == f"error: checkpoint line {line}: id {kept[-1] + 1}, but record {line} of {db} is id {line}\n"
        assert ckpt.read_bytes() == stored

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
        assert err == f"error: checkpoint line 1: id 99, but record 1 of {db36} is id 1\n"

    def test_many_foreign_ids_named_in_one_short_line(self, capsys, tmp_path):
        # a 3000-row checkpoint given to a 10-record database: the first
        # line past the records, not every foreign id
        db, ckpt = tmp_path / "db.txt", tmp_path / "ckpt.jsonl"
        db.write_text("\n".join(random_realizable(3, 6, seed=s).serialize() for s in range(10)) + "\n")
        row = ', "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}\n'
        ckpt.write_text("".join(f'{{"id": {i}{row}' for i in range(1, 3001)))
        stored = ckpt.read_bytes()
        argv = ["roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(db), "--checkpoint", str(ckpt)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err) < 200 + len(str(db))
        assert err == f"error: checkpoint line 11: id 11, but {db} has 10 records\n"
        assert ckpt.read_bytes() == stored

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
        assert err == "error: checkpoint line 1: not a line a run writes at (r, n) = (5, 8)\n"

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
    def test_hand_built_bad_record_exits_two_before_any_row(
        self, capsys, monkeypatch, tmp_path, signs
    ):
        # a record is checked when it is built, before the report loop starts
        good = next(parse_database([random_realizable(4, 8, seed=0).serialize()], 4, 8))

        def records():
            yield good
            yield harness.DatabaseRecord(2, 4, 8, signs)

        def blocks(*args, **kwargs):
            yield from harness._record_blocks(records())

        monkeypatch.setattr(harness, "parse_database", blocks)
        db = tmp_path / "db.txt"
        db.write_text("unread\n")
        code, out, err = run(capsys, "roudneff", "-r", "4", "-n", "8", "--k", "1", "--file", str(db))
        assert code == 2 and out == ""
        assert err.startswith("error: record 2: ") and len(err.splitlines()) == 1

    def test_rows_batched_per_kernel_call(self, capsys, monkeypatch, tmp_path):
        # (4, 8): 56 circuits x 2 levels x 2 words per record, 146 records
        # per fold; 295 records are blocks of 256 and 39, one ``m_values``
        # call each, and folds of 146, 110 and 39
        per_fold = neighborly._BATCH_ENTRIES // neighborly._dense_words(4, 8)
        count = 2 * per_fold + 3
        db = tmp_path / "db.txt"
        db.write_text(
            "\n".join(random_realizable(4, 8, seed=s).serialize() for s in range(count)) + "\n"
        )
        calls, blocks = [], []
        fold, m_values = neighborly._dense_fold, harness.m_values
        monkeypatch.setattr(
            neighborly, "_dense_fold", lambda r, n, p: calls.append(len(p)) or fold(r, n, p)
        )
        monkeypatch.setattr(
            harness, "m_values", lambda r, n, signs: blocks.append(len(signs)) or m_values(r, n, signs)
        )
        code, out, _ = run(capsys, "roudneff", "-r", "4", "-n", "8", "--k", "1", "--file", str(db))
        assert code == 0 and len(out.splitlines()) == count
        recs = parse_database(db.read_text().splitlines(), 4, 8)
        oracle = [
            o_vector_oracle(circuits_from_chirotope(record_chirotope(rec))) for rec in recs
        ]
        assert [tuple(json.loads(line)["ovector"]) for line in out.splitlines()] == oracle
        assert blocks == [harness.BLOCK_LINES, count - harness.BLOCK_LINES] == [256, 39]
        assert calls == [per_fold, 256 - per_fold, 39] == [146, 110, 39]

    @pytest.mark.parametrize("command,m", [("roudneff", 18), ("mcmullen", 0)])
    def test_forged_consistent_checkpoint_row_exits_two(self, capsys, tmp_path, command, m):
        # record 1 of these 20 (4, 8) records has m(M,1) = 4; its stored row
        # is edited to a counterexample (c = 16) or a zero-m witness that
        # still passes every check of the checkpoint loader
        db = tmp_path / "db.txt"
        db.write_text("\n".join(random_realizable(4, 8, seed=s).serialize() for s in range(20)) + "\n")
        ckpt = tmp_path / "ck.jsonl"
        argv = [command, "-r", "4", "-n", "8", "--k", "1", "--file", str(db), "--checkpoint", str(ckpt)]
        _, fresh, _ = run(capsys, *argv)
        lines = ckpt.read_text().splitlines()
        assert json.loads(lines[0])["m"] == [128, 4]
        lines[0] = json.dumps({"id": 1, "ovector": [128 - m, m], "m": [128, m], "attains": [True, False]})
        ckpt.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: record 1: m(M,1) recounts to 4, not the {m} of checkpoint line 1\n"
        assert out.splitlines()[1:] == fresh.splitlines()[1:]


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
    ms = [
        sum(o_vector_oracle(circuits_from_chirotope(record_chirotope(rec)))[k:])
        for rec in records
    ]
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

    def test_audit_at_rank_one_counts_no_contraction(self, capsys):
        # M/e has rank 0, where no k is admissible: it contributes 0
        code, out, err = run(capsys, "audit", "-r", "1", "-n", "3", "--k", "0")
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 3 and all("m_contract=0 " in line for line in lines)

    def test_grown_database_record_over_the_budget_exits_two(self, capsys, monkeypatch, tmp_path):
        def kernel(*args):
            raise AssertionError("the kernel ran before the budget check")

        db = tmp_path / "db.txt"
        db.write_text("\n".join(_record_text(5, 10, s, "lex") for s in range(3)) + "\n")
        monkeypatch.setattr(neighborly, "_separations", kernel)
        monkeypatch.setattr(
            neighborly, "CANDIDATE_BUDGET", neighborly._enumeration_cost(5, 10)[1] - 1
        )
        code, out, err = run(capsys, "roudneff", "-r", "5", "-n", "10", "--k", "1", "--file", str(db))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_mcmullen_without_circuits_exits_two(self, capsys, tmp_path, r):
        # a rank-r matroid on r elements has no circuits: refused before any
        # row, and before the checkpoint is opened
        db, checkpoint = tmp_path / "one.txt", tmp_path / "ck.jsonl"
        db.write_text("+\n")
        argv = ["mcmullen", "-r", str(r), "-n", str(r), "--k", "0", "--file", str(db)]
        code, out, err = run(capsys, *argv, "--checkpoint", str(checkpoint))
        assert (code, out) == (2, "")
        assert err == f"error: rank {r} on {r} elements has no circuits; orthogonality statistics are undefined\n"
        assert not checkpoint.exists()

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

    @pytest.mark.parametrize(
        "r,k,size,reads",
        [(4, 1, "4:8", "(4, 7)"), (3, 1, "3:5", "none"), (6, 1, "6:12", "(4, 7), (5, 9), (6, 11)")],
    )
    def test_reduce_refuses_a_database_it_does_not_read(self, capsys, tmp_path, r, k, size, reads):
        # refused before any file is opened: neither path exists
        absent = tmp_path / "absent.txt"
        argv = ["reduce", "-r", str(r), "--k", str(k), f"--db={size}:{absent}"]
        code, out, err = run(capsys, *argv, f"--db=4:7:{absent}")
        named = "(" + size.replace(":", ", ") + ")"
        assert (code, out) == (2, "")
        assert err == f"error: the reduction at rank {r}, k={k} reads no database at (r, n) = {named}; it reads {reads}\n"

    def test_reduce_refuses_a_size_given_twice(self, capsys, tmp_path):
        # two (4, 7) databases, of which only the last would be read: refused
        # before any file is opened, naming the size
        absent = tmp_path / "absent.txt"
        argv = ["reduce", "-r", "4", "--k", "1", f"--db=4:7:{absent}", f"--db=4:7:{absent}"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: two databases at (r, n) = (4, 7); the reduction reads one per size\n"

    @pytest.mark.parametrize("full", [False, True])
    def test_reduce_names_the_empty_database(self, capsys, monkeypatch, tmp_path, full):
        # the empty file is named, with the (4,7) database before it read or not
        monkeypatch.chdir(tmp_path)
        Path("empty.txt").write_text("")
        Path("full.txt").write_text(random_realizable(4, 7, seed=0).serialize() + "\n")
        argv = ["reduce", "-r", "5", "--k", "1"]
        argv += ["--db", "4:7:full.txt", "--db", "5:9:empty.txt"] if full else ["--db", "4:7:empty.txt"]
        want = "error: empty database: no chirotope lines in empty.txt\n"
        assert run(capsys, *argv) == (2, "", want)

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
        # stdin as Python opens it in UTF-8 mode, where a bad byte would
        # decode to a lone surrogate
        for data in (b"\xff\n", b"+" * 69 + b"\xff\n"):
            monkeypatch.setattr("sys.stdin", fake_stdin(data))
            code, out, err = run(capsys, "roudneff", "-r", "4", "-n", "8", "--k", "1")
            assert code == 2 and out == ""
            assert err.startswith("error: stdin is not UTF-8 text") and len(err.splitlines()) == 1

    def test_stdin_named_stdin(self, capsys, monkeypatch, tmp_path):
        text = "".join(random_realizable(4, 8, seed=s).serialize() + "\n" for s in range(3))
        path, ckpt = tmp_path / "db.txt", tmp_path / "ckpt.jsonl"
        path.write_text(text)
        argv = ("roudneff", "-r", "4", "-n", "8", "--k", "1")
        assert run(capsys, *argv, "--file", str(path), "--checkpoint", str(ckpt))[0] == 0
        lines = ckpt.read_text().splitlines(keepends=True)
        ckpt.write_text("".join(lines[1:]))
        cases = [
            (text, ("--checkpoint", str(ckpt)), "error: checkpoint line 1: id 2, but record 1 of stdin is id 1\n"),
            ("# no records\n", (), "error: empty database: no chirotope lines in stdin\n"),
        ]
        for data, extra, want in cases:
            monkeypatch.setattr("sys.stdin", fake_stdin(data.encode()))
            assert run(capsys, *argv, "--file", "-", *extra) == (2, "", want)
        monkeypatch.setattr("sys.stdin", fake_stdin(b"\n"))
        assert run(capsys, "dual", "-r", "4", "-n", "8", "--file", "-") == (2, "", "error: no chirotope in stdin\n")

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("short", [False, True])
    def test_file_and_stdin_split_lines_alike(self, capsys, monkeypatch, tmp_path, newline, short):
        # one newline rule: the same bytes give the same stdout, stderr and
        # exit code from a file and from stdin, and a short fourth line is
        # named as line 4 by both
        lines = [random_realizable(4, 8, seed=s).serialize().encode() for s in range(3)]
        data = b"".join(line + newline for line in lines + ([b"+" * 69] if short else []))
        path = tmp_path / "db.txt"
        path.write_bytes(data)
        argv = ("roudneff", "-r", "4", "-n", "8", "--k", "1", "--file")
        code, out, err = run(capsys, *argv, str(path))
        monkeypatch.setattr("sys.stdin", fake_stdin(data))
        assert run(capsys, *argv, "-") == (code, out, err)
        if short:
            assert (code, out) == (2, "")
            assert err == "error: line 4: expected 70 characters for (r=4, n=8), got 69\n"
        else:
            assert code == 0 and len(out.splitlines()) == 3

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


# -- the block pass against the per-record path ------------------------------


@lru_cache(maxsize=None)
def _record_text(r, n, seed, order):
    chi = random_realizable(r, n, seed=seed)
    return chi.serialize() if order == "lex" else serialize_colex(chi)


def _flipped(text):
    """The text with its first sign flipped: the syntax of a chirotope,
    usually not its tope count."""
    return ("+" if text[0] == "-" else "-") + text[1:]


def _database_text(lines, comments, crlf):
    out = []
    for i, line in enumerate(lines):
        if comments and i % 3 == 1:
            out += ["# comment", "   "]
        out.append(line)
    return "".join(line + ("\r\n" if crlf else "\n") for line in out)


def assert_block_pass_matches_oracle(tmp, argv, database, checkpoint=None):
    """``main(argv + --file db [--checkpoint ck])`` and ``report_oracle``
    give the same exit code, stdout, stderr and checkpoint bytes.
    ``checkpoint`` is None (no checkpoint), "" (a fresh one) or the text of
    the checkpoint to resume from."""
    tmp = Path(tmp)
    db = tmp / "db.txt"
    db.write_bytes(database.encode())
    command, r, n, k = argv[0], int(argv[2]), int(argv[4]), int(argv[6])
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    order = argv[argv.index("--base-order") + 1] if "--base-order" in argv else "lex"
    outcomes = []
    for side in ("block", "oracle"):
        ckpt = tmp / f"{side}.jsonl"
        if checkpoint:
            ckpt.write_bytes(checkpoint.encode())
        if side == "block":
            out, err = io.StringIO(), io.StringIO()
            extra = ["--checkpoint", str(ckpt)] if checkpoint is not None else []
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, "--file", str(db), *extra])
            got = (code, out.getvalue(), err.getvalue())
        else:
            got = report_oracle(
                command, r, n, k, db, fmt, order, ckpt if checkpoint is not None else None
            )
        outcomes.append((got, ckpt.read_bytes() if ckpt.exists() else None))
    block, oracle = outcomes
    assert block[0] == oracle[0]
    assert block[1] == oracle[1]
    return block[0][0]


@st.composite
def database_cases(draw):
    r, n = draw(st.sampled_from([(4, 8), (3, 6), (5, 9)]))
    command = draw(st.sampled_from(["roudneff", "mcmullen"]))
    k = draw(st.integers(0, (r - 1) // 2))
    fmt = draw(st.sampled_from(["json", "csv"]))
    order = draw(st.sampled_from(["lex", "colex"]))
    seeds = draw(st.lists(st.integers(0, 12), min_size=1, max_size=9))
    lines = [_record_text(r, n, s, order) for s in seeds]
    fault = draw(st.sampled_from([None, "bad character", "wrong tope count"]))
    if fault:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at][:-1] + "x" if fault == "bad character" else _flipped(lines[at])
    database = _database_text(lines, draw(st.booleans()), draw(st.booleans()))
    argv = [command, "-r", str(r), "-n", str(n), "--k", str(k), "--format", fmt, "--base-order", order]
    # None: no checkpoint; "": a fresh one; else resumed from the first
    # rows of a complete one, the last of them torn or not, or from rows
    # out of place (``_compare_in_blocks``)
    mode = draw(st.sampled_from([None, "", "resumed", "torn", *MISPLACED]))
    return argv, database, mode, draw(st.integers(0, len(seeds))), draw(st.integers(2, 5))


# checkpoints whose rows are not the rows of the first records, each made
# from the rows of a complete run (``_compare_in_blocks``)
MISPLACED = ["gap", "swapped", "more rows"]


def _compare_in_blocks(argv, database, mode, keep, block):
    """``assert_block_pass_matches_oracle`` with blocks of ``block`` lines,
    rows and records per ``m_values`` call.  ``mode`` is None (no
    checkpoint), "" (a fresh one), or a checkpoint made of the rows of a
    complete run: "resumed" or "torn", the first ``keep`` rows, the last of
    them torn in half; "gap", the first ``keep`` + 1 rows less the middle
    one; "swapped", those rows with the middle two swapped; or "more rows",
    every row and one more, of an id that is no record.  The last three
    end in a torn line too, the first half of their first row."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BLOCK_LINES", block)
        checkpoint = mode
        if mode:
            whole = Path(tmp) / "whole.jsonl"
            db = Path(tmp) / "whole.txt"
            db.write_text(database)
            fmt = argv[argv.index("--format") + 1]
            order = argv[argv.index("--base-order") + 1]
            report_oracle(argv[0], int(argv[2]), int(argv[4]), int(argv[6]), db, fmt, order, whole)
            rows = whole.read_text().splitlines(keepends=True) if whole.exists() else []
            middle = (min(keep + 1, len(rows)) - 1) // 2
            if mode in ("resumed", "torn"):
                rows = rows[:keep]
            elif mode == "gap":
                rows = rows[:middle] + rows[middle + 1 : keep + 1]
            elif mode == "swapped":
                rows = rows[:middle] + rows[middle : middle + 2][::-1] + rows[middle + 2 : keep + 1]
            elif rows:  # more rows
                rows.append(rows[-1].replace(f'"id": {json.loads(rows[-1])["id"]},', '"id": 1000000,', 1))
            if mode == "torn" and rows:
                rows[-1] = rows[-1][: len(rows[-1]) // 2]
            elif mode in MISPLACED and rows:
                rows.append(rows[0][: len(rows[0]) // 2])
            checkpoint = "".join(rows)
        return assert_block_pass_matches_oracle(tmp, argv, database, checkpoint)


@settings(max_examples=150, deadline=None)
@given(database_cases())
def test_block_pass_matches_the_per_record_path(case):
    """stdout, stderr, exit code and checkpoint bytes of the block pass are
    those of the per-record path: databases around the block sizes,
    comments, blank lines and CRLF, lex and colex, json and csv, k = 0 and
    1, fresh, resumed and torn checkpoints, a bad character in any line and
    a wrong tope count anywhere in a group."""
    _compare_in_blocks(*case)


# (4, 8) in blocks of 4 lines, rows and records per ``m_values`` call:
# (records, comments/blanks/CRLF, fault, its index, checkpoint, rows kept)
BLOCK_CASES = [
    (3, False, None, 0, "", 0),
    (4, False, None, 0, "", 0),
    (5, False, None, 0, "", 0),
    (5, True, None, 0, None, 0),
    (7, True, None, 0, "resumed", 2),
    (7, False, None, 0, "torn", 5),
    (9, False, None, 0, "resumed", 9),
    (6, False, "bad character", 5, "", 0),
    (6, True, "bad character", 5, "resumed", 3),
    (8, False, "wrong tope count", 4, "", 0),
    (8, False, "wrong tope count", 6, "", 0),
    (8, False, "wrong tope count", 4, "resumed", 4),
    (8, True, "wrong tope count", 4, "torn", 3),
    (7, True, None, 0, "gap", 4),
    (2, False, None, 0, "gap", 1),
    (7, False, None, 0, "swapped", 5),
    (9, True, None, 0, "swapped", 8),
    (6, False, None, 0, "more rows", 0),
    (8, False, "wrong tope count", 4, "more rows", 0),
]


@pytest.mark.parametrize("records,messy,fault,at,mode,keep", BLOCK_CASES)
@pytest.mark.parametrize("command,k,fmt,order", [
    ("roudneff", 1, "json", "lex"),
    ("mcmullen", 0, "csv", "colex"),
])
def test_block_pass_matches_the_per_record_path_cases(
    command, k, fmt, order, records, messy, fault, at, mode, keep
):
    lines = [_record_text(4, 8, s, order) for s in range(records)]
    if fault:
        lines[at] = lines[at][:-1] + "x" if fault == "bad character" else _flipped(lines[at])
    argv = [command, "-r", "4", "-n", "8", "--k", str(k), "--format", fmt, "--base-order", order]
    code = _compare_in_blocks(argv, _database_text(lines, messy, messy), mode, keep, 4)
    assert code == (2 if fault or mode in MISPLACED else 0)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["roudneff", "mcmullen"])
def test_grown_size_matches_the_per_record_path(tmp_path, monkeypatch, command, fmt):
    # (5, 10) grows its records together; with the candidate budget at three
    # records' largest arrays the one block of 4 grows in groups of 3 and 1,
    # resumed from a torn row
    lines = [_record_text(5, 10, s, "lex") for s in range(4)]
    database = _database_text(lines, True, False)
    argv = [command, "-r", "5", "-n", "10", "--k", "1", "--format", fmt]
    candidates = neighborly._enumeration_cost(5, 10)[1]
    monkeypatch.setattr(neighborly, "CANDIDATE_BUDGET", 3 * candidates)
    assert not neighborly.is_dense(5, 10) and neighborly._group_size(5, 10) == 3
    assert assert_block_pass_matches_oracle(tmp_path, argv, database, "") in (0, 1)
    rows = (tmp_path / "oracle.jsonl").read_text().splitlines(keepends=True)
    assert len(rows) == 4
    torn = rows[0] + rows[1][:20]
    assert_block_pass_matches_oracle(tmp_path, argv, database, torn)


@pytest.mark.parametrize("row_id", ["1.9", '"1"', "true"])
def test_checkpoint_id_not_an_integer_exits_two(capsys, db36, tmp_path, row_id):
    ckpt = tmp_path / "ckpt.jsonl"
    data = f'{{"id": {row_id}, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}}\n{{"id": 2'
    ckpt.write_text(data)
    argv = ["roudneff", "-r", "3", "-n", "6", "--k", "1", "--file", str(db36)]
    code, out, err = run(capsys, *argv, "--checkpoint", str(ckpt))
    assert code == 2 and out == ""
    assert err == "error: checkpoint line 1: not a line a run writes at (r, n) = (3, 6)\n"
    assert ckpt.read_text() == data


# the block pass around ``BLOCK_LINES`` = 256 records: distinct records
# repeat every GRID_SEEDS lines, so the per-record oracle counts each once
GRID_SEEDS = 50


@pytest.mark.parametrize("mode", ["fresh", "torn", "wrong tope count"])
@pytest.mark.parametrize("count", [1, 255, 256, 257, 600])
@pytest.mark.parametrize("r,n,command", [(4, 8, "roudneff"), (5, 9, "mcmullen"), (5, 10, "roudneff")])
def test_block_pass_matches_the_per_record_path_around_a_block(r, n, command, count, mode):
    # fresh: a new checkpoint; torn: resumed from the first half of the
    # rows, the last of them torn; a wrong tope count: the middle record is
    # the first with one sign flipped, which breaks its tope count
    lines = [_record_text(r, n, s % GRID_SEEDS, "lex") for s in range(count)]
    if mode == "wrong tope count":
        lines[count // 2] = _flipped(lines[0])
    argv = [command, "-r", str(r), "-n", str(n), "--k", "1", "--format", "json", "--base-order", "lex"]
    checkpoint = "torn" if mode == "torn" else ""
    code = _compare_in_blocks(argv, _database_text(lines, False, False), checkpoint, count // 2 + 1, 256)
    assert (code == 2) == (mode == "wrong tope count")


@pytest.mark.parametrize("mode", MISPLACED)
@pytest.mark.parametrize("count", [257, 600])
def test_misplaced_checkpoint_rows_refused_as_the_per_record_path_refuses(count, mode):
    # a checkpoint made of the first 257 rows, one of them left out or two
    # of them swapped, or of every row and one more: refused at the line out
    # of place, before any row, as the per-record path refuses it
    lines = [_record_text(4, 8, s % GRID_SEEDS, "lex") for s in range(count)]
    argv = ["roudneff", "-r", "4", "-n", "8", "--k", "1", "--format", "json", "--base-order", "lex"]
    assert _compare_in_blocks(argv, _database_text(lines, False, False), mode, 256, 256) == 2


def count_records(monkeypatch):
    """The ``DatabaseRecord``s built from now on, checked or not, as a
    growing list."""
    built = []
    new, checked = harness.DatabaseRecord.__new__, harness._checked_record
    monkeypatch.setattr(
        harness.DatabaseRecord, "__new__", staticmethod(lambda cls, *args: built.append(args) or new(cls, *args))
    )
    monkeypatch.setattr(harness, "_checked_record", lambda fields: built.append(fields) or checked(fields))
    return built


@pytest.mark.parametrize("command", ["roudneff", "mcmullen"])
def test_database_pass_builds_no_record(capsys, monkeypatch, tmp_path, command):
    # 600 records run fresh, then resumed from the first 300 rows, the last
    # of them torn
    lines = [_record_text(4, 8, s % GRID_SEEDS, "lex") for s in range(600)]
    db, ckpt = tmp_path / "db.txt", tmp_path / "ck.jsonl"
    db.write_text("\n".join(lines) + "\n")
    argv = [command, "-r", "4", "-n", "8", "--k", "1", "--file", str(db), "--checkpoint", str(ckpt)]
    built = count_records(monkeypatch)
    fresh = run(capsys, *argv)
    rows = ckpt.read_text().splitlines(keepends=True)
    ckpt.write_text("".join(rows[:299]) + rows[299][:20])
    assert run(capsys, *argv) == fresh and len(fresh[1].splitlines()) == 600
    assert built == []
    # both ways of building a record are counted
    rec = next(parse_database(lines, 4, 8))
    harness.DatabaseRecord(rec.id, 4, 8, rec.signs)
    assert len(built) == 2


def test_resumed_json_run_formats_each_row_once(capsys, monkeypatch, tmp_path):
    # 600 records resumed from the rows of the first 300: the stored lines
    # the loader checked are printed as they are, and each computed row is
    # formatted once for its append and its print
    lines = [_record_text(4, 8, s % GRID_SEEDS, "lex") for s in range(600)]
    db, ckpt = tmp_path / "db.txt", tmp_path / "ck.jsonl"
    db.write_text("\n".join(lines) + "\n")
    argv = ["mcmullen", "-r", "4", "-n", "8", "--k", "1", "--format", "json", "--file", str(db)]
    fresh = run(capsys, *argv, "--checkpoint", str(ckpt))
    ckpt.write_text("".join(ckpt.read_text().splitlines(keepends=True)[:300]))
    formatted, format_rows = [], harness._format_rows

    def counted(block, fmt):
        formatted.extend(block.ids.tolist())
        return format_rows(block, fmt)

    monkeypatch.setattr(harness, "_format_rows", counted)
    assert run(capsys, *argv, "--checkpoint", str(ckpt)) == fresh
    assert formatted == list(range(1, 601))


def test_reduce_builds_no_record(capsys, monkeypatch, tmp_path):
    db = tmp_path / "db47.txt"
    db.write_text("\n".join(_record_text(4, 7, s, "lex") for s in range(300)) + "\n")
    built = count_records(monkeypatch)
    code, out, _ = run(capsys, "reduce", "-r", "5", "--k", "1", f"--db=4:7:{db}")
    assert code == 0 and "rank 4, n=7: max m" in out
    assert built == []
