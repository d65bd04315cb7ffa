import json
import tempfile
from dataclasses import replace
from math import ceil, comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orimat import (
    DomainError,
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
    parse_database,
    random_realizable,
    report_rows,
    roudneff_report,
    tope_count_uniform,
)
from orimat.harness import DatabaseRecord, ReportRow, new_aggregate

from conftest import o_vector_oracle, record_chirotope, serialize_colex


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

    def test_colex_signs_held_in_lex_order(self):
        chi = random_realizable(3, 5, seed=4)
        (rec,) = parse_database([serialize_colex(chi)], 3, 5, base_order="colex")
        assert record_chirotope(rec) == chi


class TestComputeRows:
    def test_row_values(self):
        recs = list(parse_database(db_lines(3, 5, []), 3, 5))
        (row,) = compute_rows(recs)
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
        forward = list(compute_rows(recs))
        backward = list(compute_rows(reversed(recs)))
        assert backward == forward[::-1]

    def test_colex_database_rows(self):
        chis = [random_realizable(4, 7, seed=s) for s in range(4)]
        lex = parse_database([chi.serialize() for chi in chis], 4, 7)
        colex = parse_database([serialize_colex(chi) for chi in chis], 4, 7, base_order="colex")
        assert list(compute_rows(colex)) == list(compute_rows(lex))

    def test_records_parsed_once(self, monkeypatch):
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))

        def parse_again(*args):
            raise AssertionError("record parsed a second time")

        monkeypatch.setattr(harness, "parse_signs", parse_again)
        assert [row.id for row in compute_rows(recs)] == [rec.id for rec in recs]

    def test_skip_ids(self):
        recs = list(parse_database(db_lines(3, 5, [0, 1]), 3, 5))
        rows = list(compute_rows(rec for rec in recs if rec.id != recs[1].id))
        assert [row.id for row in rows] == [recs[0].id, recs[2].id]

    def test_json_round_trip(self):
        recs = list(parse_database(db_lines(3, 5, []), 3, 5))
        (row,) = compute_rows(recs)
        payload = json.loads(row.to_json())
        assert payload == {
            "id": row.id,
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
        rows = list(compute_rows(recs))
        assert [(row.id, row.ovector) for row in rows] == oracle_rows(recs)

    @pytest.mark.parametrize("count", [1, 3, 5, 8, 9])
    def test_group_sizes_around_the_cap(self, monkeypatch, count):
        # a cap of 4 records: groups of 1, cap-1, cap+1, 2 caps, 2 caps + 1
        monkeypatch.setattr(neighborly, "_BATCH_ENTRIES", 4 * neighborly._dense_words(4, 7))
        calls = fold_calls(monkeypatch)
        recs = records_of([(4, 7, random_realizable(4, 7, seed=s)) for s in range(count)])
        rows = list(compute_rows(recs))
        assert [(row.id, row.ovector) for row in rows] == oracle_rows(recs)
        assert len(calls) == ceil(count / 4)

    def test_mixed_shapes_in_one_call(self, monkeypatch):
        # (2, 10) and (8, 10) are grown sizes: one record per group, grown;
        # (8, 10) has 9 bits per circuit, beyond the dense rank
        assert not neighborly.is_dense(2, 10) and not neighborly.is_dense(8, 10)
        shapes = [(3, 5), (3, 5), (4, 7), (4, 7), (4, 7), (3, 5), (2, 10), (8, 10), (8, 10), (4, 7)]
        recs = records_of([(r, n, random_realizable(r, n, seed=i)) for i, (r, n) in enumerate(shapes)])
        calls = fold_calls(monkeypatch)
        rows = list(compute_rows(recs))
        assert [(row.id, row.ovector) for row in rows] == oracle_rows(recs)
        # one fold with a record axis per run of equal dense shapes
        assert [len(patterns) for _, _, patterns in calls] == [2, 3, 1, 1]

    def test_colex_input(self):
        chis = [random_realizable(5, 9, seed=s) for s in range(3)]
        colex = list(parse_database([serialize_colex(chi) for chi in chis], 5, 9, "colex"))
        rows = list(compute_rows(colex))
        assert [(row.id, row.ovector) for row in rows] == oracle_rows(colex)
        assert rows == list(compute_rows(parse_database([chi.serialize() for chi in chis], 5, 9)))

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

    def test_hand_built_bad_shape_named(self):
        with pytest.raises(DomainError, match=r"^record 7: invalid rank/size \(0, 4\)$"):
            DatabaseRecord(7, 0, 4, b"\x01")


class TestReportRows:
    """The one report loop, with a checkpoint: (4, 8), ten records in one
    kernel call."""

    @pytest.fixture
    def recs(self):
        return list(parse_database(db_lines(4, 8, range(9)), 4, 8))

    def test_cut_run_resumes_to_the_fresh_rows(self, recs, tmp_path, monkeypatch):
        fresh_agg = new_aggregate("roudneff", 4, 8, 1)
        fresh = list(report_rows(fresh_agg, recs))
        assert len(fresh) == 10
        path = tmp_path / "ckpt.jsonl"
        cut = report_rows(new_aggregate("roudneff", 4, 8, 1), recs, path)
        assert [next(cut) for _ in range(3)] == fresh[:3]
        cut.close()
        assert path.read_text() == "".join(row.to_json() + "\n" for row in fresh[:3])
        appended = []
        append = harness.append_checkpoint

        def counted(sink, row):
            appended.append(row.id)
            append(sink, row)

        monkeypatch.setattr(harness, "append_checkpoint", counted)
        agg = new_aggregate("roudneff", 4, 8, 1)
        assert list(report_rows(agg, recs, path)) == fresh
        assert appended == [row.id for row in fresh[3:]]
        assert path.read_text() == "".join(row.to_json() + "\n" for row in fresh)
        assert agg.summary() == fresh_agg.summary()

    def test_foreign_id_raises_before_any_row(self, recs, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        row = next(compute_rows(recs))
        append_checkpoint(path, replace(row, id=99))
        stored = path.read_bytes()
        agg = new_aggregate("mcmullen", 4, 8, 1)
        message = r"^checkpoint .* holds ids \[99\] that are not records of the database$"
        with pytest.raises(FormatError, match=message):
            next(report_rows(agg, recs, path))
        assert path.read_bytes() == stored
        assert agg.min_m is None

    def test_records_of_another_shape_refused(self, recs):
        agg = new_aggregate("roudneff", 3, 6, 1)
        with pytest.raises(DomainError, match=r"mixed \(r, n\) .*\[\(3, 6\), \(4, 8\)\]"):
            next(report_rows(agg, recs))


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


def hand_row(row_id, m):
    """A report row whose only meaningful fields are its id and m-values."""
    return ReportRow(row_id, (0,) * len(m), tuple(m), (False,) * len(m))


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

    def test_too_few_elements(self):
        with pytest.raises(DomainError):
            deletion_contraction_audit(alternating_chirotope(3, 4), 0)

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

    def test_supplied_base_databases(self):
        db_map = {
            (4, 7): list(parse_database(db_lines(4, 7, range(3)), 4, 7)),
            (5, 9): list(parse_database(db_lines(5, 9, range(2)), 5, 9)),
        }
        verdict = finite_reduction_check(5, 1, db_map=db_map)
        assert verdict.confirmed and not verdict.incomplete


class TestCheckpoint:
    def test_missing_file(self, tmp_path):
        assert load_checkpoint(tmp_path / "none.jsonl", 3, 6) == []

    def test_append_and_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(4)), 3, 6))
        rows = list(compute_rows(recs))
        for row in rows[:2]:
            append_checkpoint(path, row)
        stored = load_checkpoint(path, 3, 6)
        assert stored == rows[:2]
        done = {row.id for row in stored}
        resumed = list(compute_rows(rec for rec in recs if rec.id not in done))
        assert [r.id for r in resumed] == [r.id for r in rows[2:]]
        assert stored + resumed == rows

    def test_torn_final_line_dropped_and_cut(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))
        rows = list(compute_rows(recs))
        append_checkpoint(path, rows[0])
        whole = path.read_bytes()
        path.write_bytes(whole + rows[1].to_json()[:9].encode())
        assert load_checkpoint(path, 3, 6) == rows[:1]
        assert path.read_bytes() == whole  # the next append starts a fresh line
        append_checkpoint(path, rows[1])
        assert load_checkpoint(path, 3, 6) == rows[:2]

    @pytest.mark.parametrize(
        "bad", ['{"id": 1, "ovector": [3', '{"id": 1}', "[1, 2]", "\xff"]
    )
    def test_malformed_line_raises_with_line_number(self, tmp_path, bad):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))
        row = next(compute_rows(recs[1:]))
        path.write_bytes(bad.encode("latin-1") + b"\n" + row.to_json().encode() + b"\n")
        with pytest.raises(FormatError, match="line 1"):
            load_checkpoint(path, 3, 6)

    def test_duplicate_id_raises(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        row = next(compute_rows(parse_database(db_lines(3, 6, range(1)), 3, 6)))
        append_checkpoint(path, row)
        append_checkpoint(path, row)
        with pytest.raises(FormatError, match="line 2: duplicate id"):
            load_checkpoint(path, 3, 6)

    # a (3, 6) row: 32 topes, c_3(6, 0) = 32 and c_3(6, 1) = 2
    FITS = {"id": 1, "ovector": [30, 2], "m": [32, 2], "attains": [True, True]}

    @pytest.mark.parametrize(
        "change,error",
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
        ],
    )
    def test_row_that_does_not_fit_the_shape_raises(self, tmp_path, change, error):
        path = tmp_path / "ckpt.jsonl"
        rows = [dict(self.FITS, id=2), dict(self.FITS, **change)]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        message = rf"^checkpoint line 2: .*{error}.* at \(r, n\) = \(3, 6\)$"
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path, 3, 6)

    def test_row_of_another_shape_raises(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(json.dumps(self.FITS) + "\n")
        assert load_checkpoint(path, 3, 6) == [ReportRow(1, (30, 2), (32, 2), (True, True))]
        for r, n in [(5, 8), (3, 7), (4, 6)]:
            message = rf"^checkpoint line 1: .* \(r, n\) = \({r}, {n}\)$"
            with pytest.raises(FormatError, match=message):
                load_checkpoint(path, r, n)

    def test_append_to_an_open_file_flushes_each_line(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        rows = list(compute_rows(parse_database(db_lines(3, 6, range(2)), 3, 6)))
        with open(path, "a") as fh:
            for i, row in enumerate(rows, 1):
                append_checkpoint(fh, row)
                assert load_checkpoint(path, 3, 6) == rows[:i]

    def test_o_vector_consistency_with_direct(self):
        recs = list(parse_database(db_lines(4, 6, [0, 1]), 4, 6))
        for rec, row in zip(recs, compute_rows(recs)):
            direct = o_vector(circuits_from_chirotope(record_chirotope(rec)))
            assert row.ovector == direct.entries


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(2**70), 2**70),
    st.lists(st.integers(-(2**70), 2**70), max_size=6),
    st.lists(st.integers(-(2**70), 2**70), max_size=6),
    st.lists(st.booleans(), max_size=6),
)
def test_to_json_is_json_dumps(row_id, ovector, m, attains):
    row = ReportRow(row_id, tuple(ovector), tuple(m), tuple(attains))
    assert row.to_json() == json.dumps(vars(row))


@st.composite
def fitting_rows(draw):
    """A row that fits its (r, n): non-negative entries summing to the tope
    count, m their tail sums, attains against the c-values."""
    r, n = draw(st.sampled_from([(1, 3), (3, 6), (4, 8), (5, 9), (6, 12), (3, 40)]))
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
        append_checkpoint(path, row)
        assert path.read_text() == json.dumps(vars(row)) + "\n"
        assert load_checkpoint(path, r, n) == [row]
        if flip:  # any other attains is refused
            wrong = replace(row, attains=(not row.attains[0],) + row.attains[1:])
            path.write_text(wrong.to_json() + "\n")
            with pytest.raises(FormatError, match="attains"):
                load_checkpoint(path, r, n)
