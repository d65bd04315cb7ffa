import json

import pytest

from orimat import (
    DomainError,
    FormatError,
    NonUniformError,
    alternating_chirotope,
    append_checkpoint,
    c_value,
    circuits_from_chirotope,
    compute_rows,
    deletion_contraction_audit,
    finite_reduction_check,
    harness,
    load_checkpoint,
    m_value,
    mcmullen_report,
    o_vector,
    parse_database,
    random_realizable,
    roudneff_report,
)
from orimat.cyclic import CValueTable
from orimat.harness import ReportRow, new_aggregate

from conftest import serialize_colex


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
        assert all(rec.text == "++++" for rec in recs)

    def test_bad_character_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            list(parse_database(["# x", "++++", "++x+"], 3, 4))

    def test_zero_names_line(self):
        with pytest.raises(NonUniformError, match="line 2"):
            list(parse_database(["++++", "++0+"], 3, 4))

    def test_wrong_length_names_line(self):
        with pytest.raises(FormatError, match="line 1"):
            list(parse_database(["+++"], 3, 4))


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
        colex = parse_database([serialize_colex(chi) for chi in chis], 4, 7)
        assert list(compute_rows(colex, base_order="colex")) == list(compute_rows(lex))

    def test_records_parsed_once(self, monkeypatch):
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))

        def parse_again(*args):
            raise AssertionError("record parsed a second time")

        monkeypatch.setattr(harness, "parse_signs", parse_again)
        assert [row.id for row in compute_rows(recs)] == [rec.id for rec in recs]

    def test_skip_ids(self):
        recs = list(parse_database(db_lines(3, 5, [0, 1]), 3, 5))
        rows = list(compute_rows(recs, done_ids={recs[1].id}))
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
        assert m_value(circuits_from_chirotope(zero_rec.chirotope()), 1) == 0
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
        agg = new_aggregate("roudneff", 3, 6, 1, CValueTable())
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
        agg = new_aggregate("roudneff", 3, 6, 1, CValueTable())
        agg.add(hand_row(7, (22, 0)))
        agg.add(hand_row(9, (22, 0)))
        assert agg.holds and (agg.max_m, agg.argmax_ids, agg.attaining) == (0, [7, 9], 0)

    def test_mcmullen_add(self):
        agg = new_aggregate("mcmullen", 3, 6, 1, CValueTable())
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
            new_aggregate(verdict, 3, 6, k, CValueTable())

    def test_report_checks_k_before_any_row(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(harness, "_compute_row", no_rows)
        recs = list(parse_database(db_lines(3, 5, [0]), 3, 5))
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

    def test_supplied_base_databases(self):
        db_map = {
            (4, 7): list(parse_database(db_lines(4, 7, range(3)), 4, 7)),
            (5, 9): list(parse_database(db_lines(5, 9, range(2)), 5, 9)),
        }
        verdict = finite_reduction_check(5, 1, db_map=db_map)
        assert verdict.confirmed and not verdict.incomplete


class TestCheckpoint:
    def test_missing_file(self, tmp_path):
        assert load_checkpoint(tmp_path / "none.jsonl") == []

    def test_append_and_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(4)), 3, 6))
        rows = list(compute_rows(recs))
        for row in rows[:2]:
            append_checkpoint(path, row)
        stored = load_checkpoint(path)
        assert stored == rows[:2]
        resumed = list(compute_rows(recs, done_ids={row.id for row in stored}))
        assert [r.id for r in resumed] == [r.id for r in rows[2:]]
        assert stored + resumed == rows

    def test_torn_final_line_dropped_and_cut(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))
        rows = list(compute_rows(recs))
        append_checkpoint(path, rows[0])
        whole = path.read_bytes()
        path.write_bytes(whole + rows[1].to_json()[:9].encode())
        assert load_checkpoint(path) == rows[:1]
        assert path.read_bytes() == whole  # the next append starts a fresh line
        append_checkpoint(path, rows[1])
        assert load_checkpoint(path) == rows[:2]

    @pytest.mark.parametrize(
        "bad", ['{"id": 1, "ovector": [3', '{"id": 1}', "[1, 2]", "\xff"]
    )
    def test_malformed_line_raises_with_line_number(self, tmp_path, bad):
        path = tmp_path / "ckpt.jsonl"
        recs = list(parse_database(db_lines(3, 6, range(2)), 3, 6))
        row = next(compute_rows(recs[1:]))
        path.write_bytes(bad.encode("latin-1") + b"\n" + row.to_json().encode() + b"\n")
        with pytest.raises(FormatError, match="line 1"):
            load_checkpoint(path)

    def test_duplicate_id_raises(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        row = next(compute_rows(parse_database(db_lines(3, 6, range(1)), 3, 6)))
        append_checkpoint(path, row)
        append_checkpoint(path, row)
        with pytest.raises(FormatError, match="line 2: duplicate id"):
            load_checkpoint(path)

    def test_o_vector_consistency_with_direct(self):
        recs = list(parse_database(db_lines(4, 6, [0, 1]), 4, 6))
        for rec, row in zip(recs, compute_rows(recs)):
            direct = o_vector(circuits_from_chirotope(rec.chirotope()))
            assert row.ovector == direct.entries
