import json
import re
import tempfile
from dataclasses import replace
from math import ceil, comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orimat import (
    Chirotope,
    DomainError,
    EmptyCircuitSetError,
    FormatError,
    NonUniformError,
    alternating_chirotope,
    append_checkpoint,
    c_value,
    circuits_from_chirotope,
    compute_rows,
    cyclic,
    deletion_contraction_audit,
    finite_reduction_check,
    harness,
    load_checkpoint,
    m_value,
    mcmullen_report,
    neighborly,
    o_vector,
    parse_chirotope,
    parse_database,
    random_realizable,
    report_rows,
    roudneff_report,
    tope_count_uniform,
)
from orimat.harness import DatabaseRecord, RowBlock, new_aggregate

from conftest import (
    CORRUPT_7_9,
    ReportRow,
    audit_oracle,
    load_checkpoint_oracle,
    o_vector_oracle,
    record_chirotope,
    row_oracle,
    rows_of,
    serialize_colex,
)


def read_until_error(items):
    """The items read before a ``FormatError``, and its message (None if
    none was raised)."""
    got = []
    try:
        for item in items:
            got.append(item)
    except FormatError as exc:
        return got, str(exc)
    return got, None


def db_lines(r, n, seeds, with_alternating=True):
    lines = ["# synthetic database"]
    if with_alternating:
        lines.append(alternating_chirotope(r, n).serialize())
    lines.extend(random_realizable(r, n, seed=s).serialize() for s in seeds)
    return lines


class TestParseDatabase:
    def test_comments_and_blanks_skipped(self):
        lines = ["# header", "", "++++", "  ", "++++"]
        recs = list(parse_database(lines, 3, 4))
        assert [rec.id for rec in recs] == [3, 5]
        assert all(record_chirotope(rec).serialize() == "++++" for rec in recs)

    def test_bad_character_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            list(parse_database(["# x", "++++", "++x+"], 3, 4))

    def test_zero_names_line(self):
        with pytest.raises(NonUniformError, match="line 2"):
            list(parse_database(["++++", "++0+"], 3, 4))

    def test_wrong_length_names_line(self):
        with pytest.raises(FormatError, match="line 1"):
            list(parse_database(["+++"], 3, 4))

    def test_invalid_shape_refused(self):
        with pytest.raises(DomainError, match=r"invalid rank/size \(3, -1\)"):
            list(parse_database(["+++"], 3, -1))

    def test_unknown_base_order_refused(self):
        with pytest.raises(DomainError, match="unknown base order 'revlex'"):
            list(parse_database(["++++"], 3, 4, base_order="revlex"))

    def test_bad_line_in_a_later_block_raises_after_the_records_before_it(self, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_LINES", 3)
        lines = ["# x", "++++", "", "++++", "++++", "+-x+", "++++"]
        parsed = []
        with pytest.raises(FormatError, match=r"^line 6: invalid characters \['x'\]"):
            for rec in parse_database(lines, 3, 4):
                parsed.append(rec.id)
        assert parsed == [2, 4, 5]

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_records_do_not_depend_on_the_block_size(self, monkeypatch, size):
        lines = db_lines(4, 7, range(6)) + ["", "# y"] + db_lines(4, 7, range(6, 9))
        whole = list(parse_database(lines, 4, 7, "lex"))
        monkeypatch.setattr(harness, "BLOCK_LINES", size)
        assert list(parse_database(lines, 4, 7, "lex")) == whole
        assert [rec.id for rec in whole] == [2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15]

    def test_colex_signs_held_in_lex_order(self):
        chi = random_realizable(3, 5, seed=4)
        (rec,) = parse_database([serialize_colex(chi)], 3, 5, base_order="colex")
        assert record_chirotope(rec) == chi

    @pytest.mark.parametrize("bad", [None, 12])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_records_are_the_rows_of_the_blocks(self, monkeypatch, size, bad):
        # 15 lines with comments and a blank; a bad character on line 13
        # lies in a later block at every size
        lines = db_lines(4, 7, range(6)) + ["", "# y"] + db_lines(4, 7, range(6, 9))
        if bad is not None:
            lines[bad] = lines[bad][:-1] + "x"
        monkeypatch.setattr(harness, "BLOCK_LINES", size)
        records, record_error = read_until_error(parse_database(lines, 4, 7))
        blocks, block_error = read_until_error(parse_database(lines, 4, 7, blocks=True))
        assert record_error == block_error == (None if bad is None else "line 13: invalid characters ['x'] in chirotope text")
        assert {(block.r, block.n) for block in blocks} == {(4, 7)}
        assert all(0 < len(block.ids) <= size for block in blocks)
        rows = [(i, row.tobytes()) for block in blocks for i, row in zip(block.ids.tolist(), block.signs)]
        assert [(rec.id, rec.signs) for rec in records] == rows
        assert [rec.id for rec in records] == [2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15][: 8 if bad else None]


class TestComputeRows:
    def test_row_values(self):
        recs = list(parse_database(db_lines(3, 5, []), 3, 5))
        (row,) = rows_of(compute_rows(recs))
        assert row.ovector == (20, 2)
        assert row.m == (22, 2)
        assert row.attains == (True, True)

    def test_corruption_detected(self):
        # a valid-looking sign string that is not a chirotope of (3, 5)
        recs = [next(iter(parse_database(["-+---+---+"], 3, 5)))]
        with pytest.raises(FormatError, match="tope count"):
            list(compute_rows(recs))

    def test_record_order_independent(self):
        recs = list(parse_database(db_lines(3, 6, range(5)), 3, 6))
        forward = rows_of(compute_rows(recs))
        backward = rows_of(compute_rows(reversed(recs)))
        assert backward == forward[::-1]

    def test_colex_database_rows(self):
        chis = [random_realizable(4, 7, seed=s) for s in range(4)]
        lex = parse_database([chi.serialize() for chi in chis], 4, 7)
        colex = parse_database([serialize_colex(chi) for chi in chis], 4, 7, base_order="colex")
        assert rows_of(compute_rows(colex)) == rows_of(compute_rows(lex))

    def test_records_parsed_once(self, monkeypatch):
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))

        def parse_again(*args):
            raise AssertionError("record parsed a second time")

        monkeypatch.setattr(harness, "parse_sign_rows", parse_again)
        assert [row.id for row in rows_of(compute_rows(recs))] == [rec.id for rec in recs]

    def test_skip_ids(self):
        recs = list(parse_database(db_lines(3, 5, [0, 1]), 3, 5))
        rows = rows_of(compute_rows(rec for rec in recs if rec.id != recs[1].id))
        assert [row.id for row in rows] == [recs[0].id, recs[2].id]

    def test_blocks_cut_at_block_lines_within_each_shape(self, monkeypatch):
        # runs of 4 (3,6), 2 (4,7) and 5 (3,6) records in blocks of 3: one
        # ``m_values`` call per block, and no block spans two runs
        runs = [(3, 6, range(4)), (4, 7, range(2)), (3, 6, range(4, 9))]
        recs = [rec for r, n, seeds in runs for rec in parse_database(db_lines(r, n, seeds, False), r, n)]
        calls, m_values = [], harness.m_values
        monkeypatch.setattr(
            harness, "m_values", lambda r, n, signs: calls.append((r, n, len(signs))) or m_values(r, n, signs)
        )
        monkeypatch.setattr(harness, "BLOCK_LINES", 3)
        blocks = list(compute_rows(recs))
        shapes = [(3, 6, 3), (3, 6, 1), (4, 7, 2), (3, 6, 3), (3, 6, 2)]
        assert [(block.r, block.n, len(block.ids)) for block in blocks] == calls == shapes
        assert rows_of(blocks) == [row_oracle(rec.id, rec.r, rec.n, rec.signs) for rec in recs]

    @pytest.mark.parametrize("block", [4, 256])
    def test_wrong_tope_count_in_a_block_raises_after_the_rows_before_it(self, monkeypatch, block):
        # the record of line 8 is the third of its block of 4, and the
        # seventh of 9 in one block of 256
        lines = db_lines(4, 7, range(9), False)
        lines[7] = ("+" if lines[7][0] == "-" else "-") + lines[7][1:]
        recs = list(parse_database(lines, 4, 7))
        monkeypatch.setattr(harness, "BLOCK_LINES", block)
        rows = compute_rows(recs)
        sizes = []
        with pytest.raises(FormatError, match=r"^record 8: tope count \d+ != 84; "):
            for rows_block in rows:
                sizes.append(len(rows_block.ids))
        assert sizes == ([4, 2] if block == 4 else [6])

    def test_json_round_trip(self):
        recs = list(parse_database(db_lines(3, 5, []), 3, 5))
        (block,) = compute_rows(recs)
        (line,) = block.lines("json")
        payload = json.loads(line)
        assert payload == {
            "id": recs[0].id,
            "ovector": [20, 2],
            "m": [22, 2],
            "attains": [True, True],
        }


# every (r, n) whose full sweep is at most DENSE_PAIRS; the dense ones also
# have r <= DENSE_RANK, and the others grow from r+1
SWEEP_SIZES = [
    (r, n)
    for n in range(2, 17)
    for r in range(1, n)
    if comb(n, r + 1) << (n - 1) <= neighborly.DENSE_PAIRS
]
DENSE_SIZES = [(r, n) for r, n in SWEEP_SIZES if neighborly.is_dense(r, n)]


def records_of(shapes_and_chirotopes):
    """Hand-numbered records, ids 1, 2, ..., from (r, n, chirotope) triples."""
    return [
        DatabaseRecord(i, r, n, next(parse_database([chi.serialize()], r, n)).signs)
        for i, (r, n, chi) in enumerate(shapes_and_chirotopes, 1)
    ]


def oracle_rows(recs):
    return [
        (rec.id, o_vector_oracle(circuits_from_chirotope(record_chirotope(rec)))) for rec in recs
    ]


def fold_calls(monkeypatch):
    """Calls of the batched dense fold from now on, as a growing list."""
    calls = []
    fold = neighborly._dense_fold

    def counted(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(neighborly, "_dense_fold", counted)
    return calls


class TestBatchedRows:
    """Rows from the batched fold over the level-bit table against the
    scalar o-vector oracle."""

    def test_dense_sizes(self):
        # every (r, n) with r <= 7 whose full sweep is at most 2^15 pairs
        assert len(DENSE_SIZES) == 37 and max(n for _, n in DENSE_SIZES) == 10
        assert DENSE_SIZES == [(r, n) for r, n in SWEEP_SIZES if r <= neighborly.DENSE_RANK == 7]
        # the sizes left out grow from r+1: at most 12 circuits on n <= r+2
        left = [(r, n) for r, n in SWEEP_SIZES if (r, n) not in DENSE_SIZES]
        assert len(left) == 11 and all(n <= r + 2 and comb(n, r + 1) <= 12 for r, n in left)

    # the dense sizes through the fold; the 11 beyond the dense rank, and
    # (5, 10) with two levels, grow
    @pytest.mark.parametrize("r,n", SWEEP_SIZES + [(5, 10)])
    def test_every_dense_size_matches_oracle(self, r, n):
        recs = records_of(
            [(r, n, alternating_chirotope(r, n))]
            + [(r, n, random_realizable(r, n, seed=s)) for s in range(2)]
        )
        rows = rows_of(compute_rows(recs))
        assert [(row.id, row.ovector) for row in rows] == oracle_rows(recs)

    @pytest.mark.parametrize("count", [1, 3, 5, 8, 9])
    def test_group_sizes_around_the_cap(self, monkeypatch, count):
        # a cap of 4 records, 4 x 15 patterns of the circuits through
        # element 1: groups of 1, cap-1, cap+1, 2 caps, 2 caps + 1
        monkeypatch.setattr(neighborly, "_BATCH_ENTRIES", 4 * comb(6, 4))
        calls = fold_calls(monkeypatch)
        recs = records_of([(4, 7, random_realizable(4, 7, seed=s)) for s in range(count)])
        rows = rows_of(compute_rows(recs))
        assert [(row.id, row.ovector) for row in rows] == oracle_rows(recs)
        assert len(calls) == ceil(count / 4)

    def test_mixed_shapes_in_one_call(self, monkeypatch):
        # (2, 10) and (8, 10) are grown sizes: one record per group, grown;
        # (8, 10) has 9 bits per circuit, beyond the dense rank
        assert not neighborly.is_dense(2, 10) and not neighborly.is_dense(8, 10)
        shapes = [(3, 5), (3, 5), (4, 7), (4, 7), (4, 7), (3, 5), (2, 10), (8, 10), (8, 10), (4, 7)]
        recs = records_of([(r, n, random_realizable(r, n, seed=i)) for i, (r, n) in enumerate(shapes)])
        calls = fold_calls(monkeypatch)
        rows = rows_of(compute_rows(recs))
        assert [(row.id, row.ovector) for row in rows] == oracle_rows(recs)
        # one fold with a record axis per run of equal dense shapes
        assert [len(patterns) for _, _, patterns in calls] == [2, 3, 1, 1]

    def test_colex_input(self):
        chis = [random_realizable(5, 9, seed=s) for s in range(3)]
        colex = list(parse_database([serialize_colex(chi) for chi in chis], 5, 9, "colex"))
        rows = rows_of(compute_rows(colex))
        assert [(row.id, row.ovector) for row in rows] == oracle_rows(colex)
        assert rows == rows_of(compute_rows(parse_database([chi.serialize() for chi in chis], 5, 9)))

    @pytest.mark.parametrize("r,n", [(4, 7), (2, 10)])
    @pytest.mark.parametrize(
        "signs,error",
        [
            (lambda size: b"\x01" * (size - 1), DomainError),
            (lambda size: b"\x01" * (size + 1), DomainError),
            (lambda size: b"\x01" * (size - 1) + b"\x00", NonUniformError),
            (lambda size: b"\x02" + b"\xff" * (size - 1), NonUniformError),
        ],
    )
    def test_hand_built_bad_record_refused_when_built(self, r, n, signs, error):
        size = comb(n, r)
        got = len(signs(size))
        if got != size:
            message = f"expected {size} signs, got {got}"
        else:
            message = r"chirotope signs must be \+1/-1 \(uniform only\)"
        with pytest.raises(error, match=f"^record 7: {message}$"):
            DatabaseRecord(7, r, n, signs(size))

    @pytest.mark.parametrize("bad_id", [1.5, "a", 2**70, -(2**63) - 1, None])
    def test_hand_built_record_with_a_bad_id_refused(self, bad_id):
        # an id that is no int64 would print as another id (1.5 as 1) or fail
        # in the row pass; it is refused when the record is built
        signs = next(parse_database(db_lines(4, 8, [0], with_alternating=False), 4, 8)).signs
        message = f"record id {re.escape(repr(bad_id))} is not an integer in the int64 range"
        with pytest.raises(DomainError, match=f"^{message}$"):
            DatabaseRecord(bad_id, 4, 8, signs)

    def test_hand_built_bad_shape_named(self):
        with pytest.raises(DomainError, match=r"^record 7: invalid rank/size \(0, 4\)$"):
            DatabaseRecord(7, 0, 4, b"\x01")

    @pytest.mark.parametrize("kind", [np.ndarray, str])
    def test_hand_built_signs_that_are_not_bytes_refused(self, kind):
        # the int8 array of signs, as Chirotope holds them, or their text
        chi = random_realizable(4, 8, seed=0)
        signs = chi.signs if kind is np.ndarray else chi.serialize()
        with pytest.raises(DomainError, match=f"^record 1: signs must be bytes, not {kind.__name__}$"):
            DatabaseRecord(1, 4, 8, signs)

    @pytest.mark.parametrize(
        "case",
        [
            "signs x2", "second record's signs x2", "an id without signs", "rows 69 wide", "int64 signs",
            "uint8 signs", "signs in a list", "float ids", "ids in a list", "rank 0",
        ],
    )
    def test_hand_built_bad_block_refused_when_built(self, case):
        # the one record rule: int64 ids, int8 signs with a row per id, and
        # C(n, r) signs of +1/-1 per row at a valid (r, n); the first bad
        # record is named
        rec = next(parse_database(db_lines(4, 8, [0], with_alternating=False), 4, 8))
        row = np.frombuffer(rec.signs, dtype=np.int8)[None]
        one, two = np.array([1]), np.array([1, 2])
        uniform = r"chirotope signs must be \+1/-1 \(uniform only\)"
        not_ids = "record ids must be a 1-D int64 numpy array"
        not_rows = "{} records need one int8 row of signs each, not {} of shape \\({}, 70\\)"
        ids, signs, error, message, r = {
            "signs x2": (one, row * 2, NonUniformError, f"record 1: {uniform}", 4),
            "second record's signs x2": (two, np.vstack([row, row * 2]), NonUniformError, f"record 2: {uniform}", 4),
            "an id without signs": (two, row, DomainError, not_rows.format(2, "int8", 1), 4),
            "rows 69 wide": (one, row[:, :69], DomainError, "record 1: expected 70 signs, got 69", 4),
            "int64 signs": (one, row.astype(np.int64), DomainError, not_rows.format(1, "int64", 1), 4),
            "uint8 signs": (one, row.view(np.uint8), DomainError, not_rows.format(1, "uint8", 1), 4),
            "signs in a list": (one, row.tolist(), DomainError, not_rows.format(1, "list", 1), 4),
            "float ids": (np.array([1.5]), row, DomainError, not_ids, 4),
            "ids in a list": ([1], row, DomainError, not_ids, 4),
            "rank 0": (one, row, DomainError, r"record 1: invalid rank/size \(0, 8\)", 0),
        }[case]
        with pytest.raises(error, match=f"^{message}$"):
            harness.RecordBlock(r, 8, ids, signs)

    def test_parsed_blocks_and_their_cuts_not_checked_again(self, tmp_path, monkeypatch):
        lines = db_lines(4, 8, range(5))
        blocks = list(parse_database(lines, 4, 8, blocks=True))
        recs = list(parse_database(lines, 4, 8))
        fresh = rows_of(report_rows(new_aggregate("roudneff", 4, 8, 1), recs))
        path = tmp_path / "ckpt.jsonl"
        append_checkpoint(path, next(compute_rows(recs[:2])))
        monkeypatch.setattr(harness.RecordBlock, "__post_init__", lambda self: pytest.fail("checked again"))
        for database in (blocks, recs):
            assert rows_of(report_rows(new_aggregate("roudneff", 4, 8, 1), database, path)) == fresh


def take(block, rows):
    """The rows ``rows`` (an index or slice) of a block, as a block."""
    return RowBlock(block.r, block.n, block.ids[rows], block.m[rows])


class TestReportRows:
    """The one report loop, with a checkpoint: (4, 8), ten records in one
    kernel call."""

    @pytest.fixture
    def recs(self):
        return list(parse_database(db_lines(4, 8, range(9)), 4, 8))

    def test_cut_run_resumes_to_the_fresh_rows(self, recs, tmp_path, monkeypatch):
        fresh_agg = new_aggregate("roudneff", 4, 8, 1)
        fresh = rows_of(report_rows(fresh_agg, recs))
        assert len(fresh) == 10
        # blocks of three rows: a run cut after its first block has
        # checkpointed those three rows
        monkeypatch.setattr(harness, "BLOCK_LINES", 3)
        path = tmp_path / "ckpt.jsonl"
        cut = report_rows(new_aggregate("roudneff", 4, 8, 1), recs, path)
        assert rows_of([next(cut)]) == fresh[:3]
        cut.close()
        assert path.read_text() == "".join(row.to_json() + "\n" for row in fresh[:3])
        appended = []
        append = harness.append_checkpoint

        def counted(sink, block):
            appended.extend(block.ids.tolist())
            append(sink, block)

        monkeypatch.setattr(harness, "append_checkpoint", counted)
        agg = new_aggregate("roudneff", 4, 8, 1)
        blocks = list(report_rows(agg, recs, path))
        assert rows_of(blocks) == fresh
        assert [len(block.ids) for block in blocks] == [3, 3, 3, 1]
        assert appended == [row.id for row in fresh[3:]]
        assert path.read_text() == "".join(row.to_json() + "\n" for row in fresh)
        assert agg.summary() == fresh_agg.summary()

    def test_foreign_id_raises_before_any_row(self, recs, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        block = next(compute_rows(recs))
        append_checkpoint(path, RowBlock(4, 8, np.array([99]), block.m[:1]))
        stored = path.read_bytes() + block.lines()[1][:9].encode()  # and a torn line
        path.write_bytes(stored)
        agg = new_aggregate("mcmullen", 4, 8, 1)
        message = r"^checkpoint line 1: id 99, but record 1 of the database is id 2$"
        with pytest.raises(FormatError, match=message):
            next(report_rows(agg, recs, path))
        assert path.read_bytes() == stored
        assert agg.min_m is None

    def test_records_of_another_shape_refused(self, recs):
        agg = new_aggregate("roudneff", 3, 6, 1)
        with pytest.raises(DomainError, match=r"mixed \(r, n\) .*\[\(3, 6\), \(4, 8\)\]"):
            next(report_rows(agg, recs))

    # the records' order in the tests that give them out of id order
    SHUFFLED = (7, 2, 9, 0, 5, 1, 8, 3, 6, 4)

    def test_ids_in_database_order_resume_to_the_fresh_rows(self, recs, tmp_path):
        # records out of id order: the checkpoint holds the rows of the first
        # three in the order given, and only the others are computed and
        # appended
        shuffled = [recs[i] for i in self.SHUFFLED]
        fresh = rows_of(report_rows(new_aggregate("mcmullen", 4, 8, 1), shuffled))
        path = tmp_path / "ckpt.jsonl"
        append_checkpoint(path, next(compute_rows(shuffled[:3])))
        stored = path.read_text()
        agg = new_aggregate("mcmullen", 4, 8, 1)
        assert rows_of(report_rows(agg, shuffled, path)) == fresh
        appended = path.read_text()[len(stored) :].splitlines()
        assert [json.loads(line)["id"] for line in appended] == [rec.id for rec in shuffled[3:]]

    @pytest.mark.parametrize(
        "order,message",
        [
            ((0, 1, 2), "checkpoint line 1: id 2, but record 1 of the database is id 9"),
            ((7, 9, 2), "checkpoint line 2: id 11, but record 2 of the database is id 4"),
            ((7, 2, 5), "checkpoint line 3: id 7, but record 3 of the database is id 11"),
        ],
        ids=["id order", "swapped", "gap"],
    )
    def test_ids_out_of_database_order_refused(self, recs, tmp_path, order, message):
        # the rows of the first three records in id order, two of them
        # swapped, or with a gap: refused before any row, the file, torn
        # final line included, as it was
        shuffled = [recs[i] for i in self.SHUFFLED]
        path = tmp_path / "ckpt.jsonl"
        append_checkpoint(path, next(compute_rows([recs[i] for i in order])))
        stored = path.read_bytes() + b'{"id": 5, "ov'
        path.write_bytes(stored)
        agg = new_aggregate("mcmullen", 4, 8, 1)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            next(report_rows(agg, shuffled, path))
        assert path.read_bytes() == stored
        assert agg.min_m is None

    def test_more_rows_than_records_refused(self, recs, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        append_checkpoint(path, next(compute_rows(recs)))
        stored = path.read_bytes() + b'{"id": 12, "ov'
        path.write_bytes(stored)
        with pytest.raises(FormatError, match="^checkpoint line 10: id 11, but the database has 9 records$"):
            next(report_rows(new_aggregate("roudneff", 4, 8, 1), recs[:9], path))
        assert path.read_bytes() == stored

    def test_repeated_ids_resume_by_position(self, recs, tmp_path):
        # a hand-built block may repeat an id: line i of its checkpoint is
        # still the row of record i, so a resumed run is the fresh one
        signs = np.frombuffer(b"".join(rec.signs for rec in recs[:4]), dtype=np.int8).reshape(4, -1)
        block = harness.RecordBlock(4, 8, np.array([2, 2, 3, 2], dtype=np.int64), signs)
        fresh = rows_of(report_rows(new_aggregate("roudneff", 4, 8, 1), [block]))
        path = tmp_path / "ckpt.jsonl"
        path.write_text("".join(row.to_json() + "\n" for row in fresh[:3]))
        assert rows_of(report_rows(new_aggregate("roudneff", 4, 8, 1), [block], path)) == fresh
        assert path.read_text() == "".join(row.to_json() + "\n" for row in fresh)


class TestVerdictRecount:
    """A failing verdict is recounted from the signs of the records it
    names before it is left to the caller."""

    @pytest.fixture
    def recs(self):
        # (4, 8) at k = 1, c = 16: record 1 has m(M,1) = 4
        return list(parse_database([random_realizable(4, 8, seed=s).serialize() for s in range(20)], 4, 8))

    @pytest.mark.parametrize(
        "kind,forged,blank",
        [
            ("roudneff", '{"id": 1, "ovector": [110, 18], "m": [128, 18], "attains": [true, false]}', False),
            ("mcmullen", '{"id": 1, "ovector": [128, 0], "m": [128, 0], "attains": [true, false]}', False),
            ("roudneff", '{"id": 1, "ovector": [110, 18], "m": [128, 18], "attains": [true, false]}', True),
        ],
    )
    def test_forged_stored_row_named_with_its_line(self, recs, tmp_path, kind, forged, blank):
        path = tmp_path / "ckpt.jsonl"
        for block in compute_rows(recs):
            append_checkpoint(path, block)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["m"] == [128, 4]
        lines[0] = forged
        # a blank first line is no line append_checkpoint writes: refused at load
        path.write_text("\n" * blank + "\n".join(lines) + "\n")
        stored = path.read_bytes()
        m = json.loads(forged)["m"][1]
        message = f"^record 1: m\\(M,1\\) recounts to 4, not the {m} of checkpoint line 1$"
        if blank:
            message = r"^checkpoint line 1: not a line a run writes at \(r, n\) = \(4, 8\)$"
        agg = new_aggregate(kind, 4, 8, 1)
        with pytest.raises(FormatError, match=message):
            list(report_rows(agg, recs, path))
        assert path.read_bytes() == stored

    def test_forged_stored_row_named_with_a_later_line(self, recs, tmp_path):
        # the last record's row forged to a counterexample: the recount
        # names it by its own line
        path = tmp_path / "ckpt.jsonl"
        for block in compute_rows(recs):
            append_checkpoint(path, block)
        lines = path.read_text().splitlines()
        m = json.loads(lines[-1])["m"][1]
        lines[-1] = '{"id": 20, "ovector": [110, 18], "m": [128, 18], "attains": [true, false]}'
        path.write_text("\n".join(lines) + "\n")
        message = f"^record 20: m\\(M,1\\) recounts to {m}, not the 18 of checkpoint line 20$"
        with pytest.raises(FormatError, match=message):
            list(report_rows(new_aggregate("roudneff", 4, 8, 1), recs, path))

    def test_computed_row_that_does_not_recount_raises(self, recs, monkeypatch):
        # with the bound at 0, every record is a counterexample at k = 0
        monkeypatch.setattr(harness, "m_counts", lambda r, n, signs, k: np.full(len(signs), 2))
        monkeypatch.setattr(harness, "c_value", lambda r, n, k: 0)
        with pytest.raises(FormatError, match=r"^record 1: m\(M,0\) recounts to 2, not the 128 of its computed row$"):
            roudneff_report(recs, 0)

    def test_genuine_witnesses_recount_and_stand(self, monkeypatch):
        # seed 1 at (3, 6) has m(M,1) = 0 (line 4); the recount agrees,
        # unless it is made to disagree
        recs = list(parse_database(db_lines(3, 6, [0, 1, 2]), 3, 6))
        agg = mcmullen_report(recs, 1)
        assert agg.summary()["verdict"] == "zero-m-witnesses" and agg.zero_ids == [recs[2].id] == [4]
        monkeypatch.setattr(harness, "m_counts", lambda r, n, signs, k: np.full(len(signs), 2))
        with pytest.raises(FormatError, match=r"^record 4: m\(M,1\) recounts to 2, not the 0 of its computed row$"):
            mcmullen_report(recs, 1)

    @pytest.mark.parametrize("kind,k", [("roudneff", 1), ("mcmullen", 0)])
    def test_verdict_that_holds_recounts_nothing(self, recs, monkeypatch, kind, k):
        monkeypatch.setattr(harness, "m_counts", lambda *args: pytest.fail("a record was recounted"))
        agg = new_aggregate(kind, 4, 8, k)
        list(report_rows(agg, recs))
        assert agg.holds


class TestRoudneffReport:
    def test_bound_holds_on_realizable_sample(self):
        recs = list(parse_database(db_lines(3, 6, range(6)), 3, 6))
        agg = roudneff_report(recs, 1)
        assert agg.c_bound == c_value(3, 6, 1) == 2
        assert agg.holds
        assert agg.max_m == 2
        assert agg.attaining >= 1
        # the alternating record (first non-comment line) attains
        assert recs[0].id in agg.argmax_ids

    def test_mixed_shapes_rejected(self):
        recs = list(parse_database(db_lines(3, 5, []), 3, 5))
        recs += list(parse_database(db_lines(3, 6, []), 3, 6))
        with pytest.raises(DomainError, match="mixed"):
            roudneff_report(recs, 1)

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            roudneff_report([], 1)

    @pytest.mark.parametrize("blocks", [0, 2])
    def test_database_without_rows_refused(self, blocks, tmp_path):
        # no records, or only blocks of none: no verdict from no rows
        def database(r, n):
            empty = harness.RecordBlock(r, n, np.zeros(0, dtype=np.int64), np.zeros((0, comb(n, r)), dtype=np.int8))
            return [empty] * blocks

        empty = "^empty database: no chirotope lines in the database$"
        for report in (roudneff_report, mcmullen_report):
            with pytest.raises(DomainError, match=empty):
                report(database(4, 8), 1)
        with pytest.raises(DomainError, match=empty):
            finite_reduction_check(5, 1, {(4, 7): database(4, 7), (5, 9): database(5, 9)})
        # the report loop itself, before any row and before the checkpoint
        # is read: a line that is no row would be refused there
        path = tmp_path / "ckpt.jsonl"
        path.write_text("garbage\n")
        for kind in ("roudneff", "mcmullen"):
            for checkpoint, source in ((None, "the database"), (path, "db.txt")):
                rows = report_rows(new_aggregate(kind, 4, 8, 1), database(4, 8), checkpoint, source=source)
                with pytest.raises(DomainError, match=f"^empty database: no chirotope lines in {source}$"):
                    next(rows)
        assert path.read_text() == "garbage\n"

    def test_k_out_of_range(self):
        recs = list(parse_database(db_lines(3, 5, []), 3, 5))
        with pytest.raises(DomainError):
            roudneff_report(recs, 2)


class TestMcMullenReport:
    def test_zero_record_breaks_it(self):
        # seed 1 at (3, 6) has no 1-neighborly reorientation
        recs = list(parse_database(db_lines(3, 6, [0, 1, 2]), 3, 6))
        agg = mcmullen_report(recs, 1)
        assert not agg.holds
        assert agg.min_m == 0
        zero_rec = recs[2]
        assert m_value(circuits_from_chirotope(record_chirotope(zero_rec)), 1) == 0
        assert zero_rec.id in agg.zero_ids

    def test_holds_when_all_positive(self):
        recs = list(parse_database(db_lines(3, 5, [0, 1, 2]), 3, 5))
        agg = mcmullen_report(recs, 1)
        assert agg.holds and agg.min_m >= 2 and agg.zero_ids == []

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_no_circuits_refused_before_any_row(self, r):
        # a rank-r matroid on r elements has no circuits, so m(M,k) is undefined
        recs = list(parse_database(["+"], r, r))
        for call in (lambda: mcmullen_report(recs, 0), lambda: next(compute_rows(recs))):
            with pytest.raises(EmptyCircuitSetError, match=f"^rank {r} on {r} elements has no circuits"):
                call()


def hand_row(row_id, m):
    """A block of one row, of the given id and m-values, at (3, 6)."""
    return RowBlock(3, 6, np.array([row_id]), np.array([m]))


class TestAggregateFold:
    def test_roudneff_add_counts_ties_and_exceedance(self):
        agg = new_aggregate("roudneff", 3, 6, 1)
        assert agg.c_bound == c_value(3, 6, 1) == 2
        assert agg.holds and agg.summary()["argmax_ids"] == []
        for row_id, m1 in [(1, 2), (2, 1), (3, 3), (4, 2), (5, 3)]:
            agg.add(hand_row(row_id, (22, m1)))
        assert not agg.holds
        assert agg.summary() == {
            "verdict": "counterexample",
            "max_m": 3,
            "c": 2,
            "attaining": 2,
            "argmax_ids": [3, 5],
        }
        assert list(agg.summary()) == ["verdict", "max_m", "c", "attaining", "argmax_ids"]

    def test_roudneff_all_zero_rows_tie(self):
        agg = new_aggregate("roudneff", 3, 6, 1)
        agg.add(hand_row(7, (22, 0)))
        agg.add(hand_row(9, (22, 0)))
        assert agg.holds and (agg.max_m, agg.argmax_ids, agg.attaining) == (0, [7, 9], 0)

    def test_mcmullen_add(self):
        agg = new_aggregate("mcmullen", 3, 6, 1)
        assert agg.min_m is None and not agg.holds
        agg.add(hand_row(1, (22, 2)))
        agg.add(hand_row(2, (22, 1)))
        assert agg.holds and agg.summary() == {
            "verdict": "all-have-witness",
            "min_m": 1,
            "zero_ids": [],
        }
        agg.add(hand_row(3, (22, 0)))
        agg.add(hand_row(4, (22, 4)))
        agg.add(hand_row(5, (22, 0)))
        assert not agg.holds
        assert agg.summary() == {"verdict": "zero-m-witnesses", "min_m": 0, "zero_ids": [3, 5]}

    @pytest.mark.parametrize("verdict", ["roudneff", "mcmullen"])
    @pytest.mark.parametrize("k", [-1, 2])
    def test_factory_checks_k(self, verdict, k):
        with pytest.raises(DomainError, match=f"k={k} outside \\[0, 1\\]"):
            new_aggregate(verdict, 3, 6, k)

    def test_report_checks_k_before_any_row(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("the fold ran")

        recs = list(parse_database(db_lines(3, 5, [0]), 3, 5))
        list(compute_rows(recs))  # the level-bit table is cached from here on
        monkeypatch.setattr(neighborly, "_dense_fold", no_rows)
        for report in (roudneff_report, mcmullen_report):
            with pytest.raises(DomainError, match="k=2"):
                report(recs, 2)


class TestAudit:
    def test_equality_case(self):
        triples = deletion_contraction_audit(alternating_chirotope(4, 6), 0)
        assert all(t.holds for t in triples)
        last = triples[-1]
        assert (last.m_full, last.m_delete, last.m_contract) == (52, 30, 22)
        assert last.m_full == last.m_delete + last.m_contract

    def test_inadmissible_contraction_counts_zero(self):
        triples = deletion_contraction_audit(alternating_chirotope(5, 8), 2)
        assert all(t.m_contract == 0 for t in triples)
        assert all(t.holds for t in triples)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_classes(self, seed):
        chi = random_realizable(4, 7, seed=seed)
        for k in (0, 1):
            assert all(t.holds for t in deletion_contraction_audit(chi, k))

    @pytest.mark.parametrize(
        "r,n,seed",
        [(1, 3, 0), (1, 6, 1), (2, 4, 2), (2, 7, 3), (3, 5, 4), (3, 7, 5), (4, 7, 6),
         (5, 8, 7), (6, 9, 8), (7, 10, 9)],
    )
    def test_stacked_minors_match_the_per_minor_oracle(self, r, n, seed):
        chi = random_realizable(r, n, seed=seed)
        for k in range((r - 1) // 2 + 1):
            triples = deletion_contraction_audit(chi, k)
            got = [(t.element, t.m_full, t.m_delete, t.m_contract) for t in triples]
            assert got == audit_oracle(chi, k), k

    def test_signs_that_are_no_chirotope_match_the_per_minor_oracle(self):
        # the minors' circuits come from M's for any +-1 signs: random rows
        # and the (7, 9) line
        rng = np.random.default_rng(0)
        sizes = [(2, 5), (3, 7), (4, 8), (5, 8), (6, 9), (7, 10)]
        sources = [Chirotope(n, r, rng.choice([-1, 1], comb(n, r))) for r, n in sizes]
        for chi in sources + [parse_chirotope(CORRUPT_7_9, 7, 9)]:
            for k in range((chi.r - 1) // 2 + 1):
                got = [(t.element, t.m_full, t.m_delete, t.m_contract) for t in deletion_contraction_audit(chi, k)]
                assert got == audit_oracle(chi, k), (chi.r, chi.n, k)

    def test_too_few_elements(self):
        with pytest.raises(DomainError):
            deletion_contraction_audit(alternating_chirotope(3, 4), 0)

    def test_over_budget_refused_before_any_circuit(self, monkeypatch):
        monkeypatch.setattr(harness, "circuit_minus", lambda *args: pytest.fail("circuits derived"))
        with pytest.raises(DomainError, match="exceed the enumeration budget"):
            deletion_contraction_audit(alternating_chirotope(5, 30), 0)

    def test_single_levels_build_no_o_vector(self, monkeypatch):
        # the audit and the reduction's brute-force cells count one level
        chi = alternating_chirotope(5, 8)
        triples = deletion_contraction_audit(chi, 2)
        detail = finite_reduction_check(5, 1).detail

        def whole_vector(cs):
            raise AssertionError("o-vector built for a single level")

        monkeypatch.setattr(neighborly, "o_vector", whole_vector)
        monkeypatch.setattr(cyclic, "o_vector", whole_vector)
        assert deletion_contraction_audit(chi, 2) == triples
        assert finite_reduction_check(5, 1).detail == detail


class TestFiniteReduction:
    def test_rank3_k1_confirmed_without_databases(self):
        verdict = finite_reduction_check(3, 1)
        assert verdict.confirmed and not verdict.incomplete

    def test_odd_rank_max_k_confirmed(self):
        verdict = finite_reduction_check(5, 2)
        assert verdict.confirmed and not verdict.incomplete
        assert any("inadmissible" in line for line in verdict.detail)
        assert any("single reorientation class" in line for line in verdict.detail)

    def test_missing_databases_reported(self):
        verdict = finite_reduction_check(5, 1)
        assert not verdict.confirmed
        assert verdict.incomplete
        assert set(verdict.missing) == {(4, 7), (5, 9)}

    def test_invalid_rank_named_before_k(self):
        with pytest.raises(DomainError, match="invalid rank r=0"):
            finite_reduction_check(0, 0)

    @pytest.mark.parametrize("r,k", [(7, 3), (5, 1), (6, 2), (7, 1)])
    def test_recurrence_check_can_fail(self, request, r, k):
        assert not any("MISMATCH" in line for line in finite_reduction_check(r, k).detail)
        request.getfixturevalue("c_values_off_by_1000")
        verdict = finite_reduction_check(r, k)
        assert not verdict.confirmed
        assert any("RECURRENCE MISMATCH" in line for line in verdict.detail)

    def test_recurrence_checked_against_both_references(self, monkeypatch):
        # a wrong reference is named alone; (5, 1) enumerates all its cells
        closed, brute = cyclic.o_vector_closed, cyclic.c_value_brute
        monkeypatch.setattr(
            harness, "o_vector_closed", lambda r, n, k: tuple(e + 2 for e in closed(r, n, k))
        )
        detail = finite_reduction_check(5, 1).detail
        assert sum("!= closed form" in line for line in detail) == 6
        assert not any("!= brute force" in line for line in detail)
        monkeypatch.setattr(harness, "o_vector_closed", closed)
        monkeypatch.setattr(harness, "c_value_brute", lambda r, n, k: brute(r, n, k) + 2)
        detail = finite_reduction_check(5, 1).detail
        assert sum("!= brute force" in line for line in detail) == 6
        assert not any("!= closed form" in line for line in detail)

    def test_records_at_another_size_than_their_key_refused_before_any_row(self, monkeypatch):
        # (5, 9) records given as the (6, 11) base case would be checked
        # against c_5(9, 1) under the heading of rank 6
        db_map = {
            (4, 7): list(parse_database(db_lines(4, 7, range(2)), 4, 7)),
            (6, 11): list(parse_database(db_lines(5, 9, range(2)), 5, 9)),
        }

        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(harness, "m_values", no_rows)
        message = r"^the database for \(r, n\) = \(6, 11\) holds records at \[\(5, 9\)\]$"
        with pytest.raises(DomainError, match=message):
            finite_reduction_check(6, 1, db_map)

    @pytest.mark.parametrize(
        "r,k,size,reads",
        [(4, 1, (4, 8), "(4, 7)"), (5, 1, (5, 10), "(4, 7), (5, 9)"), (3, 1, (3, 5), "none"),
         (4, 0, (4, 7), "(3, 7), (4, 9)")],
    )
    def test_database_the_reduction_does_not_read_refused(self, monkeypatch, r, k, size, reads):
        monkeypatch.setattr(harness, "m_values", lambda *args: pytest.fail("a row was computed"))
        db_map = {size: [], (4, 7): list(parse_database(db_lines(4, 7, range(2)), 4, 7))}
        message = f"the reduction at rank {r}, k={k} reads no database at (r, n) = {size}; it reads {reads}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            finite_reduction_check(r, k, db_map)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_databases_read_are_the_missing_ones(self, r):
        for k in range((r - 1) // 2 + 1):
            missing = finite_reduction_check(r, k).missing
            harness.check_reduction_inputs(r, k, missing)
            for r_prime, n_prime in missing:
                for other in ((r_prime, n_prime - 1), (r_prime, n_prime + 1), (r_prime + 1, n_prime)):
                    if other not in missing:
                        with pytest.raises(DomainError, match="reads no database"):
                            harness.check_reduction_inputs(r, k, [other])

    def test_supplied_base_databases(self):
        db_map = {
            (4, 7): list(parse_database(db_lines(4, 7, range(3)), 4, 7)),
            (5, 9): list(parse_database(db_lines(5, 9, range(2)), 5, 9)),
        }
        verdict = finite_reduction_check(5, 1, db_map=db_map)
        assert verdict.confirmed and not verdict.incomplete


# the refusal of a (3, 6) checkpoint line, as a pattern
NOT_A_RUN_LINE = re.escape("not a line a run writes at (r, n) = (3, 6)")


class TestCheckpoint:
    def test_missing_file(self, tmp_path):
        assert load_checkpoint(tmp_path / "none.jsonl", 3, 6, np.arange(1, 3)) == []

    def test_append_and_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(4)), 3, 6))
        (block,) = compute_rows(recs)
        rows = rows_of([block])
        append_checkpoint(path, take(block, slice(0, 2)))
        stored = rows_of(load_checkpoint(path, 3, 6, block.ids))
        assert stored == rows[:2]
        done = {row.id for row in stored}
        resumed = rows_of(compute_rows(rec for rec in recs if rec.id not in done))
        assert [r.id for r in resumed] == [r.id for r in rows[2:]]
        assert stored + resumed == rows

    def test_torn_final_line_dropped_and_cut(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))
        (block,) = compute_rows(recs)
        rows = rows_of([block])
        append_checkpoint(path, take(block, slice(0, 1)))
        whole = path.read_bytes()
        path.write_bytes(whole + block.lines()[1][:9].encode())
        assert rows_of(load_checkpoint(path, 3, 6, block.ids)) == rows[:1]
        assert path.read_bytes() == whole  # the next append starts a fresh line
        append_checkpoint(path, take(block, slice(1, 2)))
        assert rows_of(load_checkpoint(path, 3, 6, block.ids)) == rows[:2]

    @pytest.mark.parametrize(
        "bad", ['{"id": 1, "ovector": [3', '{"id": 1}', "[1, 2]", "\xff"]
    )
    def test_malformed_line_raises_with_line_number(self, tmp_path, bad):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))
        line = next(compute_rows(recs[1:])).lines()[0]
        path.write_bytes(bad.encode("latin-1") + b"\n" + line.encode() + b"\n")
        with pytest.raises(FormatError, match="line 1"):
            load_checkpoint(path, 3, 6, np.arange(1, 3))

    @pytest.mark.parametrize("row_id", ["1.9", '"1"', "true", "1.0", "null"])
    def test_id_that_is_not_a_json_integer_raises(self, tmp_path, row_id):
        path = tmp_path / "ckpt.jsonl"
        line = json.dumps(self.FITS).replace('"id": 1,', f'"id": {row_id},')
        path.write_text(json.dumps(dict(self.FITS, id=2)) + "\n" + line + "\n")
        with pytest.raises(FormatError, match=rf"^checkpoint line 2: {NOT_A_RUN_LINE}$"):
            load_checkpoint(path, 3, 6, np.array([2, 1]))

    @pytest.mark.parametrize("row_id", [2**63, -(2**63) - 1, 10**30])
    def test_id_beyond_64_bits_raises(self, tmp_path, row_id):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(json.dumps(dict(self.FITS, id=row_id)) + "\n")
        with pytest.raises(FormatError, match=rf"^checkpoint line 1: {NOT_A_RUN_LINE}$"):
            load_checkpoint(path, 3, 6, np.array([1]))

    @pytest.mark.parametrize(
        "bad",
        [
            '{"id": 1, "ovector": [3',
            '{"id": true, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}',
            '{"id": 2, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}',
            '{"id": 1, "ovector": [31, 1], "m": [32, 1], "attains": [true, true]}',
        ],
    )
    def test_refused_file_is_left_as_it_was(self, tmp_path, bad):
        # a torn final line is cut only once every other line has passed
        path = tmp_path / "ckpt.jsonl"
        data = (json.dumps(dict(self.FITS, id=2)) + "\n" + bad + "\n" + '{"id": 3, "ov').encode()
        path.write_bytes(data)
        with pytest.raises(FormatError, match="^checkpoint line 2: "):
            load_checkpoint(path, 3, 6, np.array([2, 1, 3]))
        assert path.read_bytes() == data

    def test_lines_in_another_layout_refused(self, tmp_path):
        # a checkpoint holds only the lines append_checkpoint writes: a
        # valid row in another layout, or a blank line, is refused naming
        # its line, and the file, torn final line included, is left as it was
        first, row = json.dumps(dict(self.FITS, id=4)), dict(self.FITS, id=2)
        for line in [
            json.dumps(row, separators=(",", ":")),
            json.dumps(row) + "\r",
            json.dumps(dict(row, note="x")),
            "",
            "[" * 100000,  # nested past the parser's recursion limit
        ]:
            path = tmp_path / "ckpt.jsonl"
            data = f"{first}\n{line}\n{json.dumps(dict(self.FITS, id=9))}\n" + '{"id": 3, "ov'
            path.write_bytes(data.encode())
            with pytest.raises(FormatError, match=rf"^checkpoint line 2: {NOT_A_RUN_LINE}$"):
                load_checkpoint(path, 3, 6, np.array([4, 2, 9]))
            assert path.read_bytes() == data.encode()

    # line 2 of a (3, 6) checkpoint that holds some numbers of a row, each
    # beside the id of the record at that place, which the numbers would
    # give if read one by one
    @pytest.mark.parametrize(
        "line,row_id",
        [
            ('{"id":1,"ovector":[30,2],"m":[32,2],"attains":[true,true]}', 1),
            ('{"id":  1, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}', 1),
            ('{"id": 1, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]} ', 1),
            ('{"id": 1e2, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}', 100),
            ('{"id": +3, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}', 3),
            ('{"id": 07, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}', 7),
            ('{"id": -0, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}', 0),
            ('{"id": 1, "ovector": [30, 2], "m": [32, 2e0], "attains": [true, true]}', 1),
            ('{"ovector": [30, 2], "id": 1, "m": [32, 2], "attains": [true, true]}', 1),
            ('{"id": 1, "m": [32, 2], "ovector": [30, 2], "attains": [true, true]}', 1),
            ('{"id": 1, "ovector": [30, 2], "m": [32, 2], "attains": [true, true], "k": 1}', 1),
            ('{"id": 1, "ovector": [30, 2, 0], "m": [32, 2, 0], "attains": [true, true]}', 1),
            ('{"id": 1, "ovector": [30, 2], "m": [32, 2, 0], "attains": [true, true]}', 1),
            ('{"id": 9223372036854775808, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}', 1),
            ('{"id": \u0661, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}', 1),
            ('{"id": 1, "ovector": [30, 2], "m": [\u0663\u0662, 2], "attains": [true, true]}', 1),
            ('{"id": 1, "ovector": [30, 2], "m": [32, 2], "attains": [true, true]}\r', 1),
        ],
    )
    def test_line_not_written_by_a_run_refused(self, tmp_path, line, row_id):
        # only the exact text of a run's line is a row, whatever numbers
        # the line holds; the file, torn final line included, is left as it
        # was, whether the line is checked in a block or alone
        first, last = json.dumps(dict(self.FITS, id=4)), json.dumps(dict(self.FITS, id=9))
        data = f"{first}\n{line}\n{last}\n" + '{"id": 3, "ov'
        path = tmp_path / "ckpt.jsonl"
        path.write_bytes(data.encode())
        for block_lines in (harness.BLOCK_LINES, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "BLOCK_LINES", block_lines)
                with pytest.raises(FormatError, match=rf"^checkpoint line 2: {NOT_A_RUN_LINE}$"):
                    load_checkpoint(path, 3, 6, np.array([4, row_id, 9]))
            assert path.read_bytes() == data.encode()

    def test_duplicate_id_raises(self, tmp_path):
        # a repeated id is a row out of place: line 2 is the row of record 2
        path = tmp_path / "ckpt.jsonl"
        first = take(next(compute_rows(parse_database(db_lines(3, 6, range(1)), 3, 6))), slice(0, 1))
        append_checkpoint(path, first)
        append_checkpoint(path, first)
        stored = path.read_bytes() + b'{"id": 3, "ov'
        path.write_bytes(stored)
        with pytest.raises(FormatError, match="^checkpoint line 2: id 2, but record 2 of db.txt is id 3$"):
            load_checkpoint(path, 3, 6, np.arange(2, 5), "db.txt")
        assert path.read_bytes() == stored

    @pytest.mark.parametrize("ids,line", [((1, 2, 3, 1, 5), 4), ((1, 2, 3, 4, 1), 5)])
    def test_first_repeat_named_before_a_later_bad_line(self, tmp_path, monkeypatch, ids, line):
        # blocks of two lines, the last block refused for its bad line 6: a
        # repeat in an earlier block, or earlier in that block, is named as
        # out of place
        monkeypatch.setattr(harness, "BLOCK_LINES", 2)
        path = tmp_path / "ckpt.jsonl"
        path.write_text("".join(json.dumps(dict(self.FITS, id=i)) + "\n" for i in ids) + "{\n")
        message = f"^checkpoint line {line}: id 1, but record {line} of the database is id {line}$"
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path, 3, 6, np.arange(1, 7))

    # a (3, 6) row: 32 topes, c_3(6, 0) = 32 and c_3(6, 1) = 2
    FITS = {"id": 1, "ovector": [30, 2], "m": [32, 2], "attains": [True, True]}

    # ``rule``: the rule of a run's line that the change breaks
    @pytest.mark.parametrize(
        "change,rule",
        [
            (
                {"ovector": [30, 2, 0], "m": [32, 2, 0], "attains": [True, True, False]},
                "not 2 entries",
            ),
            ({"attains": [True]}, "not 2 entries"),
            ({"ovector": [30.0, 2], "m": [32.0, 2]}, "not a non-negative integer"),
            ({"ovector": [34, -2], "m": [32, -2]}, "not a non-negative integer"),
            ({"attains": [1, 1]}, "not true or false"),
            ({"m": [32, 3]}, "tail sums"),
            ({"ovector": [28, 2], "m": [30, 2]}, "tope count 30 != 32"),
            ({"ovector": [31, 1], "m": [32, 1]}, "attains does not match"),
            # each line as append_checkpoint would write it
            ({"ovector": [34, -2], "m": [32, -2], "attains": [True, False]}, "not a non-negative integer"),
            ({"ovector": [-2, 34], "m": [32, 34], "attains": [True, False]}, "not a non-negative integer"),
            ({"ovector": [28, 2], "m": [30, 2], "attains": [False, True]}, "tope count 30 != 32"),
        ],
    )
    def test_row_that_does_not_fit_the_shape_raises(self, tmp_path, change, rule):
        path = tmp_path / "ckpt.jsonl"
        rows = [dict(self.FITS, id=2), dict(self.FITS, **change)]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(FormatError, match=rf"^checkpoint line 2: {NOT_A_RUN_LINE}$"):
            load_checkpoint(path, 3, 6, np.array([2, 1]))

    def test_row_of_another_shape_raises(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(json.dumps(self.FITS) + "\n")
        row = ReportRow(1, (30, 2), (32, 2), (True, True))
        assert rows_of(load_checkpoint(path, 3, 6, np.array([1]))) == [row]
        for r, n in [(5, 8), (3, 7), (4, 6)]:
            message = rf"^checkpoint line 1: not a line a run writes at \(r, n\) = \({r}, {n}\)$"
            with pytest.raises(FormatError, match=message):
                load_checkpoint(path, r, n, np.array([1]))

    def test_each_append_leaves_whole_lines(self, tmp_path):
        # the file is opened for each block: after each append it holds the
        # lines of the rows appended so far, each ended by its newline
        path = tmp_path / "ckpt.jsonl"
        (block,) = compute_rows(parse_database(db_lines(3, 6, range(2)), 3, 6))
        rows = rows_of([block])
        for i in range(1, len(rows) + 1):
            append_checkpoint(path, take(block, slice(i - 1, i)))
            assert path.read_text() == "".join(line + "\n" for line in block.lines()[:i])
            assert rows_of(load_checkpoint(path, 3, 6, block.ids)) == rows[:i]

    def test_o_vector_consistency_with_direct(self):
        recs = list(parse_database(db_lines(4, 6, [0, 1]), 4, 6))
        for rec, row in zip(recs, rows_of(compute_rows(recs))):
            direct = o_vector(circuits_from_chirotope(record_chirotope(rec)))
            assert row.ovector == direct.entries


INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(1, 3), (3, 6), (5, 9), (7, 14), (11, 12)]).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            st.lists(st.tuples(INT64, st.lists(INT64, min_size=(shape[0] + 1) // 2, max_size=(shape[0] + 1) // 2)), max_size=6),
        )
    ),
    st.booleans(),
)
def test_to_json_is_json_dumps(case, fit):
    # any int64 ids and m, and with ``fit`` the same m made non-negative
    # (sign bit cleared) and sorted non-increasing: a block whose every m
    # keeps that rule formats each line as json.dumps of its row, the csv
    # line holds the same fields and rows sharing m share their text; any
    # other block is refused naming its first bad row, before an o-vector
    # entry could wrap
    (r, n), rows = case
    if fit:
        rows = [(row_id, sorted((x & (2**63 - 1) for x in ms), reverse=True)) for row_id, ms in rows]
    ids = [row_id for row_id, _ in rows]
    m = np.array([ms for _, ms in rows], dtype=np.int64).reshape(len(rows), (r + 1) // 2)
    bad = [row_id for row_id, ms in rows if ms[-1] < 0 or any(a < b for a, b in zip(ms, ms[1:]))]
    if bad:
        with pytest.raises(DomainError, match=rf"^record {bad[0]}: m\(M,k\) \[.*\] is not non-negative"):
            RowBlock(r, n, np.array(ids, dtype=np.int64), m)
        return
    block = RowBlock(r, n, np.array(ids, dtype=np.int64), m)
    c = [c_value(r, n, k) for k in range((r + 1) // 2)]
    expected = [
        ReportRow(row_id, tuple(a - b for a, b in zip(ms, ms[1:] + [0])), tuple(ms), tuple(x == y for x, y in zip(ms, c)))
        for row_id, ms in rows
    ]
    assert block.lines("json") == [json.dumps(vars(row)) for row in expected]
    assert block.lines("csv") == [row.to_csv() for row in expected]


@st.composite
def fitting_rows(draw, shape=None):
    """A row that fits its (r, n), ``shape`` or drawn: non-negative entries
    summing to the tope count, m their tail sums, attains against the
    c-values."""
    r, n = shape or draw(st.sampled_from([(1, 3), (3, 6), (4, 8), (5, 9), (6, 12), (3, 40)]))
    width, topes = (r - 1) // 2 + 1, tope_count_uniform(r, n)
    cuts = sorted(draw(st.lists(st.integers(0, topes), min_size=width - 1, max_size=width - 1)))
    entries = [b - a for a, b in zip([0] + cuts, cuts + [topes])]
    m = [sum(entries[k:]) for k in range(width)]
    attains = [m[k] == c_value(r, n, k) for k in range(width)]
    row = ReportRow(draw(st.integers(0, 2**40)), tuple(entries), tuple(m), tuple(attains))
    return r, n, row


@settings(max_examples=100, deadline=None)
@given(fitting_rows(), st.booleans())
def test_checkpoint_round_trip(case, flip):
    r, n, row = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.jsonl"
        append_checkpoint(path, RowBlock(r, n, np.array([row.id]), np.array([row.m])))
        assert path.read_text() == json.dumps(vars(row)) + "\n"
        assert rows_of(load_checkpoint(path, r, n, np.array([row.id]))) == [row]
        if flip:  # any other attains is refused
            wrong = replace(row, attains=(not row.attains[0],) + row.attains[1:])
            path.write_text(wrong.to_json() + "\n")
            message = rf"^checkpoint line 1: not a line a run writes at \(r, n\) = \({r}, {n}\)$"
            with pytest.raises(FormatError, match=message):
                load_checkpoint(path, r, n, np.array([row.id]))


@settings(max_examples=100, deadline=None)
@given(
    fitting_rows().flatmap(
        lambda case: st.tuples(
            st.just(case[:2]),
            st.lists(fitting_rows(case[:2]), max_size=5).map(lambda more: [case[2]] + [row for _, _, row in more]),
            st.lists(INT64, min_size=6, max_size=6, unique=True),
            st.integers(1, 3),
        )
    )
)
def test_checkpoint_reads_back_what_was_appended(case):
    # any int64 ids and rows that fit (r, n), appended a block at a time
    # and read back in blocks of two lines: the same ids and m
    (r, n), rows, ids, per_append = case
    ids = np.array(ids[: len(rows)], dtype=np.int64)
    m = np.array([row.m for row in rows], dtype=np.int64)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BLOCK_LINES", 2)
        path = Path(tmp) / "ckpt.jsonl"
        for lo in range(0, len(ids), per_append):
            append_checkpoint(path, RowBlock(r, n, ids[lo : lo + per_append], m[lo : lo + per_append]))
        blocks = load_checkpoint(path, r, n, ids)
    assert np.concatenate([block.ids for block in blocks]).tolist() == ids.tolist()
    assert np.concatenate([block.m for block in blocks]).tolist() == m.tolist()


# how a stored (3, 6) row's line can differ from the line append_checkpoint
# writes: some keep it a row, the others make it unfit
LINE_EDITS = {
    "none": lambda line: line,
    "compact": lambda line: line.replace(", ", ","),
    "crlf": lambda line: line + "\r",
    "extra key": lambda line: line[:-1] + ', "note": 1}',
    "float id": lambda line: line.replace(", ", ".0, ", 1),
    "string id": lambda line: line.replace('{"id": ', '{"id": "', 1).replace(", ", '", ', 1),
    "m edited": lambda line: line.replace('"m": [32, ', '"m": [32, 1', 1),
    "attains flipped": lambda line: line.replace('"attains": [true', '"attains": [false', 1),
    "cut": lambda line: line[: len(line) // 2],
}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            # the id of the record at the line's place (None), or any id
            st.one_of(st.none(), st.none(), st.integers(0, 12)),
            # m: a row of (3, 6), or in the last two a row with a wrong tope
            # count or a negative o-vector entry, its line as a run writes it
            st.sampled_from([(32, 0), (32, 1), (32, 2), (32, 2), (30, 2), (32, 34)]),
            # mostly unedited, so that whole files take the block check
            st.one_of(st.just("none"), st.sampled_from(sorted(LINE_EDITS))),
        ),
        max_size=8,
    ),
    # the database's record ids, in record order
    st.sets(st.integers(0, 12), max_size=9).map(sorted),
    st.sampled_from(["", "\n", '{"id": 9, "ovec']),
)
def test_load_checkpoint_matches_one_line_at_a_time(rows, ids, tail):
    # the rows, the refusal and the file left behind, torn tail included,
    # are those of the per-line reader, for files checked three lines at a
    # time
    c = [c_value(3, 6, k) for k in range(2)]
    lines = []
    for place, (row_id, (m0, m1), edit) in enumerate(rows):
        if row_id is None:
            row_id = ids[place] if place < len(ids) else 13
        attains = [m0 == c[0], m1 == c[1]]
        line = json.dumps({"id": row_id, "ovector": [m0 - m1, m1], "m": [m0, m1], "attains": attains})
        lines.append(LINE_EDITS[edit](line))
    data = ("".join(line + "\n" for line in lines) + tail).encode()
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BLOCK_LINES", 3)  # rows out of place across blocks too
        for load in (load_checkpoint, load_checkpoint_oracle):
            path = Path(tmp) / "ckpt.jsonl"
            path.write_bytes(data)
            try:
                got = load(path, 3, 6, np.array(ids, dtype=np.int64), "db.txt")
                got = rows_of(got) if load is load_checkpoint else got
            except FormatError as exc:
                got = str(exc)
            outcomes.append((got, path.read_bytes()))
    assert outcomes[0] == outcomes[1]
