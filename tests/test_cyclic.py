from math import comb

import pytest

from orimat import (
    DomainError,
    SignVector,
    c_value,
    o_vector_closed,
    o_vector_small,
    tope_count_uniform,
)
from orimat.cyclic import (
    CValueTable,
    alternating_circuits,
    c_value_brute,
    o_vector_brute,
)

from conftest import all_full_vectors, big_O, block_profile, is_cyclic_tope, ort_cyclic, ort_oracle


def sv(text):
    return SignVector.from_string(text)


class TestCyclicTopeTest:
    def test_alternating_five_blocks(self):
        assert not is_cyclic_tope(sv("+-+-+"), 3)

    def test_all_plus(self):
        for r in (1, 3, 6):
            assert is_cyclic_tope(sv("+++++"), r)

    def test_three_blocks(self):
        assert is_cyclic_tope(sv("++--+"), 3)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            is_cyclic_tope(sv("+0-"), 3)


class TestBigO:
    @pytest.mark.parametrize("m,r,expected", [(1, 3, 2), (3, 3, 1), (4, 3, 0), (1, 5, 3)])
    def test_values(self, m, r, expected):
        assert big_O(m, r) == expected

    def test_invalid_block_count(self):
        with pytest.raises(DomainError):
            big_O(0, 3)

    @pytest.mark.parametrize("r,n", [(r, n) for r in range(3, 7) for n in range(r + 1, 11)])
    def test_lower_bound_exhaustive(self, r, n):
        cs = alternating_circuits(r, n)
        for t in all_full_vectors(n):
            profile = block_profile(t)
            if profile.m <= r:
                assert ort_oracle(cs.members, t) >= big_O(profile.m, r)


class TestOrtCyclic:
    def test_fast_path(self):
        assert ort_cyclic(sv("+" * 7), 5) == 3

    def test_both_paths_small(self):
        assert ort_cyclic(sv("++---"), 3) == 1

    def test_fallback_path(self):
        # n = r+1 = 4: the fast-path hypothesis 4 <= 4 - B_e fails for all-+
        assert ort_cyclic(sv("++++"), 3) == 2

    def test_non_tope_rejected(self):
        with pytest.raises(DomainError):
            ort_cyclic(sv("+-+-+"), 3)

    @pytest.mark.parametrize("r,n", [(3, 6), (4, 7), (5, 8), (6, 9)])
    def test_agrees_with_brute_force(self, r, n):
        cs = alternating_circuits(r, n)
        for t in all_full_vectors(n):
            if block_profile(t).m <= r:
                assert ort_cyclic(t, r) == ort_oracle(cs.members, t)


class TestBlockLemmas:
    @pytest.mark.parametrize("r,n", [(r, n) for r in range(3, 8) for n in range(r + 2, 11)])
    def test_upper_bound_when_fast_path_fails(self, r, n):
        cs = alternating_circuits(r, n)
        for t in all_full_vectors(n):
            profile = block_profile(t)
            if profile.m > r or r + 1 <= n - profile.b_even:
                continue
            bound = (
                (n - profile.b_even - profile.m) // 2
                + (r + 1)
                - (n - profile.b_even)
                + profile.b_odd // 2
            )
            assert ort_oracle(cs.members, t) <= bound

    @pytest.mark.parametrize(
        "r,n,k",
        [
            (r, n, k)
            for r in range(3, 8)
            for k in range((r - 1) // 2 + 1)
            for n in range(max(r + 2, 2 * (r - k) + 3), 11)
        ],
    )
    def test_dichotomy(self, r, n, k):
        cs = alternating_circuits(r, n)
        for t in all_full_vectors(n):
            profile = block_profile(t)
            if profile.m > r:
                continue
            o = ort_oracle(cs.members, t)
            if big_O(profile.m, r) >= k:
                assert o == big_O(profile.m, r)
            else:
                assert o <= k - 1

    @pytest.mark.parametrize("r,n", [(3, 7), (4, 9), (5, 10)])
    def test_block_census_sums_to_tope_count(self, r, n):
        total = sum(2 * comb(n - 1, m - 1) for m in range(1, r + 1))
        assert total == tope_count_uniform(r, n)


class TestClosedForms:
    def test_r3_n7(self):
        entries = o_vector_closed(3, 7, 0)
        assert entries == (42, 2)
        assert sum(entries) == tope_count_uniform(3, 7)

    def test_r5_n9_partial(self):
        assert o_vector_closed(5, 9, 1) == (72, 2)

    def test_out_of_validity(self):
        with pytest.raises(DomainError):
            o_vector_closed(4, 6, 1)
        # the threshold is sharp: brute force disagrees with the formula there
        assert o_vector_brute(4, 6).entries[1] == 16 != 2 * comb(6, 1)

    @pytest.mark.parametrize(
        "r,n,k",
        [
            (r, n, k)
            for r in range(3, 8)
            for k in range((r - 1) // 2 + 1)
            for n in range(r + 2, 12)
            if n >= 2 * (r - k) + 1 and 2 * (r - k) + 1 >= r + 2
        ],
    )
    def test_agrees_with_enumeration(self, r, n, k):
        brute = o_vector_brute(r, n)
        assert o_vector_closed(r, n, k) == brute.entries[k:]


class TestSmallFormula:
    @pytest.mark.parametrize(
        "r,entries", [(3, (8, 6)), (4, (10, 20)), (5, (12, 30, 20))]
    )
    def test_values(self, r, entries):
        ov = o_vector_small(r)
        assert ov.entries == entries
        assert ov.tope_count == 2 * (2**r - 1)

    @pytest.mark.parametrize("r", range(3, 8))
    def test_agrees_with_enumeration(self, r):
        assert o_vector_small(r).entries == o_vector_brute(r, r + 1).entries

    def test_low_rank_rejected(self):
        with pytest.raises(DomainError):
            o_vector_small(2)


class TestTopeCount:
    @pytest.mark.parametrize("r,n,count", [(3, 5, 22), (4, 6, 52)])
    def test_values(self, r, n, count):
        assert tope_count_uniform(r, n) == count

    @pytest.mark.parametrize("r", range(2, 8))
    def test_n_equals_r_plus_one(self, r):
        assert tope_count_uniform(r, r + 1) == 2 * (2**r - 1)


class TestCValue:
    @pytest.mark.parametrize(
        "r,n,k,value",
        [(6, 9, 2, 18), (7, 10, 3, 2), (6, 10, 2, 20), (5, 8, 2, 2), (5, 9, 2, 2)],
    )
    def test_published_values(self, r, n, k, value):
        assert c_value(r, n, k) == value

    def test_provenance_dispatch(self):
        table = CValueTable()
        assert table.entry(4, 8, 0).provenance == "closed-form"
        assert table.entry(5, 6, 1).provenance == "n=r+1-formula"
        assert table.entry(6, 9, 2).provenance == "closed-form"
        assert table.entry(6, 8, 2).provenance == "brute-force"

    def test_monotone_in_k(self):
        table = CValueTable()
        for r, n in [(5, 8), (6, 9), (7, 10)]:
            values = [table.c_value(r, n, k) for k in range((r - 1) // 2 + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_brute_force_c_value(self):
        # the recurrence's two closed-form terms against the enumeration
        assert c_value_brute(6, 10, 2) == c_value(6, 9, 2) + c_value(5, 9, 2) == 20
        # the table's brute-force cell, against the whole o-vector's tail
        assert c_value_brute(6, 8, 2) == o_vector_brute(6, 8).m(2) == 32

    def test_domain_errors(self):
        table = CValueTable()
        with pytest.raises(DomainError):
            table.c_value(3, 3, 0)
        with pytest.raises(DomainError):
            table.c_value(3, 5, 2)

    def test_brute_force_refused_before_building(self):
        # no closed form at (20, 38, k=1); C(38, 20) signs would not fit in memory
        with pytest.raises(DomainError, match="budget"):
            CValueTable().c_value(20, 38, 1)

    def test_cache_round_trip(self, tmp_path):
        table = CValueTable()
        table.c_value(6, 9, 2)
        table.c_value(3, 5, 1)
        path = tmp_path / "cvalues.cache"
        table.save(path)
        fresh = CValueTable()
        fresh.load(path)
        assert fresh.entry(6, 9, 2).value == 18
        assert fresh.entry(6, 9, 2).provenance == "closed-form"


def literature_c1(r, n):
    """The transcribed prior-work closed form for c_r(n,1), kept as data:
    it disagrees with brute force already at (r,n) = (3,4) and (3,5)."""
    return 2 * (
        comb(r - 1, n - r + 1)
        + comb(r, n - r)
        + sum(comb(n - 1, i) for i in range(r - 2))
    )


def literature_c1_validity(r, n_max):
    """Whether literature_c1 agrees with the trusted c-value, per n in
    r+1..n_max."""
    return {
        n: literature_c1(r, n) == c_value(r, n, 1)
        for n in range(r + 1, n_max + 1)
        if (r - 1) // 2 >= 1
    }


class TestLiteratureFormula:
    def test_known_misprints(self):
        assert literature_c1(3, 5) == 8
        assert literature_c1(3, 4) == 10
        assert c_value(3, 5, 1) == 2
        assert c_value(3, 4, 1) == 6

    def test_validity_report(self):
        validity = literature_c1_validity(3, 8)
        assert validity[4] is False and validity[5] is False
