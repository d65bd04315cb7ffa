import itertools
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orimat import (
    DimensionError,
    DomainError,
    EmptyCircuitSetError,
    OVector,
    SignVector,
    alternating_chirotope,
    ball_k_neighborly,
    circuits_from_chirotope,
    enumerate_topes,
    is_tope,
    m_value,
    neighborly,
    o_vector,
    ort,
    random_realizable,
    search_k_neighborly,
    tope_count,
    tope_count_uniform,
    tope_graph_edges,
)

from orimat.signvec import _elements_from_mask

from conftest import (
    all_full_vectors,
    ball_oracle,
    first_index_oracle,
    full_sweep_orts,
    o_vector_oracle,
    ort_oracle,
    pattern_orts_oracle,
)


def alt(r, n):
    return circuits_from_chirotope(alternating_chirotope(r, n))


def sv(text):
    return SignVector.from_string(text)


class TestOrt:
    def test_all_plus_c35(self):
        assert ort(alt(3, 5), sv("+++++")) == 2

    def test_alternating_vector_is_not_tope(self):
        assert ort(alt(3, 5), sv("+-+-+")) == 0

    def test_mid_vector(self):
        assert ort(alt(3, 5), sv("++---")) == 1

    def test_antipodal_symmetry(self):
        cs = alt(4, 6)
        for t in all_full_vectors(6):
            assert ort(cs, t) == ort(cs, -t)

    def test_cap(self):
        cs = alt(5, 8)
        cap = (5 + 1) // 2
        assert all(ort(cs, t) <= cap for t in all_full_vectors(8))

    def test_poisoned_empty_set(self):
        with pytest.raises(EmptyCircuitSetError):
            ort(circuits_from_chirotope(alternating_chirotope(3, 3)), sv("+++"))

    def test_partial_support_rejected(self):
        with pytest.raises(DomainError):
            ort(alt(3, 5), sv("+++0+"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ort(alt(3, 5), sv("++++"))
        with pytest.raises(DimensionError):
            is_tope(alt(3, 5), sv("++++"))

    @pytest.mark.parametrize("r,n", [(3, 6), (4, 8), (5, 9)])
    def test_matches_oracle_on_every_full_vector(self, r, n):
        # includes the half with element 1 negative
        cs = circuits_from_chirotope(random_realizable(r, n, seed=n))
        for t in all_full_vectors(n):
            expected = ort_oracle(cs.members, t)
            assert ort(cs, t) == expected, str(t)
            assert is_tope(cs, t) == (expected > 0), str(t)


class TestTopes:
    @pytest.mark.parametrize(
        "r,n,count", [(3, 4, 14), (3, 5, 22), (4, 6, 52)]
    )
    def test_alternating_tope_counts(self, r, n, count):
        assert tope_count(alt(r, n)) == count
        assert tope_count_uniform(r, n) == count

    def test_enumerate_matches_count(self):
        cs = alt(3, 5)
        topes = list(enumerate_topes(cs))
        assert len(topes) == 22
        assert len({str(t) for t in topes}) == 22
        assert all(is_tope(cs, t) for t in topes)

    @pytest.mark.parametrize("seed", range(4))
    def test_tope_count_invariant_across_uniform(self, seed):
        chi = random_realizable(4, 7, seed=seed)
        assert tope_count(circuits_from_chirotope(chi)) == tope_count_uniform(4, 7)


class TestOVector:
    @pytest.mark.parametrize(
        "r,n,entries",
        [(3, 5, (20, 2)), (4, 5, (10, 20)), (4, 6, (36, 16)), (3, 4, (8, 6))],
    )
    def test_published_alternating_values(self, r, n, entries):
        assert o_vector(alt(r, n)).entries == entries

    @pytest.mark.parametrize("r,n", [(3, 5), (3, 6), (4, 6), (5, 7)])
    def test_matches_independent_oracle(self, r, n):
        cs = alt(r, n)
        assert o_vector(cs).entries == o_vector_oracle(cs)

    def test_block_split_deterministic(self, monkeypatch):
        cs = circuits_from_chirotope(random_realizable(5, 9, seed=3))
        expected = o_vector(cs)
        for block in (1, 7, 64, 1 << 20):
            monkeypatch.setattr(neighborly, "BLOCK_ELEMENTS", block)
            assert o_vector(cs) == expected, block

    @pytest.mark.parametrize(
        "r,n,seed", [(3, 6, 0), (3, 7, 1), (4, 7, 2), (4, 8, 3), (5, 8, 4), (6, 9, 5)]
    )
    def test_random_matches_oracle(self, monkeypatch, r, n, seed):
        cs = circuits_from_chirotope(random_realizable(r, n, seed=seed))
        monkeypatch.setattr(neighborly, "BLOCK_ELEMENTS", 32)  # several tiles
        assert o_vector(cs).entries == o_vector_oracle(cs)

    def test_infeasible_size_refused(self, monkeypatch):
        # one circuit, but 2^39 candidates: refused before anything is allocated
        def allocate(*args):
            raise AssertionError("kernel ran before the budget check")

        cs = alt(39, 40)
        monkeypatch.setattr(neighborly, "_ort_of", allocate)
        with pytest.raises(DomainError, match="budget"):
            o_vector(cs)

    def test_entries_even_and_monotone_m(self):
        ov = o_vector(alt(5, 8))
        assert all(e % 2 == 0 for e in ov.entries)
        ms = ov.m_values()
        assert all(a >= b for a, b in zip(ms, ms[1:]))
        assert ov.m(0) == ov.tope_count

    def test_entry_count_validated(self):
        with pytest.raises(DomainError):
            OVector(5, 8, (1, 2))


GROWTH_SIZES = [(3, 6), (4, 7), (4, 8), (5, 8), (5, 9), (6, 9)]


@lru_cache(maxsize=None)
def growth_case(r, n, m):
    """The restriction to [m] of a random chirotope at (r, n), its circuits
    and its oracles: the scalar o-vector, the scalar first index at each
    level k+1, and the enumeration indices of the topes with element 1
    positive from the full sweep."""
    chi = random_realizable(r, n, seed=r * n)
    for e in range(n, m, -1):
        chi = chi.delete(e)
    cs = circuits_from_chirotope(chi)
    kmax = (r - 1) // 2
    first = tuple(first_index_oracle(cs, k + 1) for k in range(kmax + 1))
    return chi, cs, o_vector_oracle(cs), first, np.flatnonzero(full_sweep_orts(cs) > 0)


class TestGrowth:
    """The growth path on every restriction M|[m], m = r+1..n, of a random
    chirotope at (r, n), the sizes its fold passes through, with tiles of 1
    and 7 entries included, against the oracles."""

    @pytest.mark.parametrize(
        "r,n,m,block",
        [
            (r, n, m, block)
            for r, n in GROWTH_SIZES
            for m in range(r + 1, n + 1)
            # 1-entry tiles cost one Python iteration per pair: kept to n <= 8
            for block in ([1] if n <= 8 else []) + [7, neighborly.BLOCK_ELEMENTS]
        ],
    )
    def test_matches_oracles(self, monkeypatch, r, n, m, block):
        chi, cs, entries, first, topes = growth_case(r, n, m)
        monkeypatch.setattr(neighborly, "BLOCK_ELEMENTS", block)
        assert o_vector(cs).entries == entries
        for k, index in enumerate(first):
            assert m_value(cs, k) == sum(entries[k:])
            w = search_k_neighborly(chi, k)
            if index is None:
                assert w is None, k
            else:
                assert w.r_set == _elements_from_mask(index << 1) and w.k >= k, k
        positives = list(enumerate_topes(cs))[: len(topes)]
        assert [t.minus >> 1 for t in positives] == topes.tolist()
        assert tope_count(cs) == 2 * len(topes) == sum(entries)

    def test_database_sizes_take_the_dense_call(self):
        # (4,8) and (5,9) sweep 7168 and 21504 pairs and fold 146 and 32
        # records per call; (6,12) sweeps about 1.6e6 and grows one at a time
        assert neighborly.is_dense(4, 8) and neighborly.is_dense(5, 9)
        assert not neighborly.is_dense(6, 12)
        assert neighborly.records_per_call(4, 8) == 146
        assert neighborly.records_per_call(5, 9) == 32
        assert neighborly.records_per_call(6, 12) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_growth_equals_sweep(self, data):
        r = data.draw(st.integers(2, 6), label="r")
        n = data.draw(st.integers(r + 1, r + 5), label="n")
        level = data.draw(st.integers(1, (r + 1) // 2 + 1), label="level")
        cs = circuits_from_chirotope(random_realizable(r, n, seed=data.draw(st.integers(0, 999))))
        orts = full_sweep_orts(cs)
        masks, got = neighborly._grow(cs, level)
        m = [m_value(cs, k) for k in range((r - 1) // 2 + 1)]
        keep = got >= level
        expected = np.flatnonzero(orts >= level)
        assert (masks[keep] >> np.uint64(1)).tolist() == expected.tolist()
        assert got[keep].tolist() == orts[expected].tolist()
        assert m == [2 * int((orts > k).sum()) for k in range(len(m))]

    def test_enumeration_cost_is_the_sum_of_levels(self):
        # (4, 8) grown from its first 5 elements: 16 x 1 pairs, then
        # 2 T(j-1) C(j-1, 4) at j = 6, 7, 8 with T(5, 6, 7) = 15, 26, 42
        pairs, candidates = neighborly._enumeration_cost(4, 8)
        assert pairs == 16 + 2 * 15 * 5 + 2 * 26 * 15 + 2 * 42 * 35
        assert candidates == 2 * 42

    def test_largest_runnable_size_per_rank(self):
        # the table in the README's "Enumeration limits"; ranks 1-3 run up
        # to MAX_GROUND_SET = 64 and from rank 25 on no size runs
        largest = {}
        for r in range(1, 64):
            for n in range(r + 1, 65):
                try:
                    neighborly.check_enumeration_size(r, n)
                except DomainError:
                    break
                largest[r] = n
        assert largest == {
            1: 64, 2: 64, 3: 64, 4: 37, 5: 26, 6: 21, 7: 19,
            8: 18, 9: 18, 10: 18, 11: 18, 12: 18, 13: 19, 14: 19,
            15: 20, 16: 20, 17: 21, 18: 22, 19: 22, 20: 23, 21: 24,
            22: 24, 23: 25, 24: 25,
        }


LEVEL_SIZES = [(r, n) for n in range(2, 11) for r in range(1, n) if neighborly.is_dense(r, n)]


class TestLevelTable:
    """The level-bit table that every dense database batch reads."""

    @pytest.mark.parametrize("r,n", LEVEL_SIZES)
    def test_every_bit_matches_the_oracle(self, r, n):
        orts = pattern_orts_oracle(r, n)
        supports, patterns, candidates = orts.shape
        levels = (r + 1) // 2
        table = neighborly._level_table(r, n)
        assert table.dtype == np.uint64 and table.shape[0] == supports * patterns == supports << r
        assert table.nbytes == 8 * neighborly._dense_words(r, n) << r
        bits = np.unpackbits(
            table.view(np.uint8).reshape(supports, patterns, levels, -1), axis=-1, bitorder="little"
        )
        at_least = orts[:, :, None, :] >= np.arange(1, levels + 1)[:, None]
        assert (bits[..., :candidates] == at_least).all()
        assert not bits[..., candidates:].any()  # padding, at n <= 6

    @pytest.mark.parametrize("r,n", [(r, n) for r, n in LEVEL_SIZES if n <= 5])
    def test_oracle_matches_the_scalar_degree(self, r, n):
        orts = pattern_orts_oracle(r, n)
        full = (1 << n) - 1
        supports = itertools.combinations(range(n), r + 1)
        for c, support in enumerate(supports):
            for q in range(1 << r):
                minus = sum(1 << e for i, e in enumerate(support) if (2 * q) >> i & 1)
                circuit = SignVector(n, sum(1 << e for e in support) & ~minus, minus)
                for j in range(1 << (n - 1)):
                    t = SignVector(n, full & ~(2 * j), 2 * j)
                    assert orts[c, q, j] == ort_oracle([circuit], t)

    def test_built_one_circuit_at_a_time_through_the_kernel(self, monkeypatch):
        calls = []
        kernel = neighborly._ort_of

        def counted(table, pattern, width):
            calls.append(table.shape)
            return kernel(table, pattern, width)

        monkeypatch.setattr(neighborly, "_ort_of", counted)
        table = neighborly._level_table.__wrapped__(4, 8)
        assert calls == [(1, 128)] * comb(8, 5)
        assert np.array_equal(table, neighborly._level_table(4, 8))

    def test_database_sizes(self):
        # 29 KB at (4, 8), 258 KB at (5, 9), 1.5 MB at (7, 10), the largest
        sizes = {(r, n): 8 * neighborly._dense_words(r, n) << r for r, n in LEVEL_SIZES}
        assert (sizes[4, 8], sizes[5, 9]) == (28672, 258048)
        assert max(sizes.values()) == sizes[7, 10] == 1474560


class TestMValue:
    def test_tope_count_at_zero(self):
        assert m_value(alt(3, 5), 0) == 22

    def test_neighborly_count(self):
        assert m_value(alt(3, 5), 1) == 2

    def test_max_level_alternating(self):
        assert m_value(alt(5, 8), 2) == 2

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            m_value(alt(3, 5), 2)


class TestBallCriterion:
    def test_radius_one_true(self):
        assert ball_k_neighborly(alt(3, 5), sv("+++++"), 1)

    def test_radius_two_false(self):
        assert not ball_k_neighborly(alt(3, 5), sv("+++++"), 2)

    def test_radius_zero(self):
        cs = alt(4, 6)
        for t in itertools.islice(enumerate_topes(cs), 5):
            assert ball_k_neighborly(cs, t, 0)

    def test_non_tope_rejected(self):
        with pytest.raises(DomainError):
            ball_k_neighborly(alt(3, 5), sv("+-+-+"), 1)

    @pytest.mark.parametrize("r,n", [(3, 5), (3, 6), (4, 6), (5, 7)])
    def test_bridge_equivalence(self, r, n):
        # ort threshold == ball flip test for every tope and admissible k
        cs = alt(r, n)
        for t in enumerate_topes(cs):
            o = ort(cs, t)
            for k in range((r - 1) // 2 + 1):
                assert ball_k_neighborly(cs, t, k) == (o >= k + 1)

    @pytest.mark.parametrize("r,n,seed", [(3, 6, 0), (4, 7, 1)])
    def test_matches_per_flip_oracle(self, r, n, seed):
        cs = circuits_from_chirotope(random_realizable(r, n, seed=seed))
        for t in enumerate_topes(cs):
            for k in range(4):
                assert ball_k_neighborly(cs, t, k) == ball_oracle(cs, t, k), (str(t), k)

    def test_ball_size_refused_before_allocation(self, monkeypatch):
        # one circuit on 40 elements; the radius-20 ball holds about 2^39 flips
        def allocate(*args):
            raise AssertionError("flip array built before the budget check")

        monkeypatch.setattr(neighborly, "_flip_masks", allocate)
        with pytest.raises(DomainError, match="budget"):
            ball_k_neighborly(alt(39, 40), sv("+" * 40), 20)


class TestTopeGraph:
    def test_vertex_counts(self):
        edges = tope_graph_edges(alt(3, 4))
        vertices = {str(t) for e in edges for t in e}
        assert len(vertices) == 14
        degree = {v: 0 for v in vertices}
        for a, b in edges:
            degree[str(a)] += 1
            degree[str(b)] += 1
        assert min(degree.values()) >= 1

    def test_c35_vertices(self):
        edges = tope_graph_edges(alt(3, 5))
        assert len({str(t) for e in edges for t in e}) == 22

    def test_antipodal_edge_symmetry(self):
        edges = tope_graph_edges(alt(3, 5))
        keys = {frozenset((str(a), str(b))) for a, b in edges}
        for a, b in edges:
            assert frozenset((str(-a), str(-b))) in keys

    def test_size_cap(self):
        with pytest.raises(DomainError):
            tope_graph_edges(alt(3, 17))


class TestStructuralLemmas:
    @pytest.mark.parametrize("r,n", [(3, 6), (3, 9), (5, 8), (5, 9)])
    def test_odd_rank_isolation(self, r, n):
        # max-ort topes have all single-flip neighbors at ort (r-1)/2
        cs = alt(r, n)
        top = (r + 1) // 2
        seen = 0
        for t in enumerate_topes(cs):
            if ort(cs, t) == top:
                seen += 1
                for i in range(n):
                    assert ort(cs, t.reorient_mask(1 << i)) == (r - 1) // 2
        assert seen > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_deletion_monotonicity(self, seed):
        chi = random_realizable(4, 7, seed=seed)
        cs = circuits_from_chirotope(chi)
        for e in (1, 4, 7):
            cs_del = circuits_from_chirotope(chi.delete(e))
            for t in itertools.islice(enumerate_topes(cs), 20):
                deleted = _drop(t, e)
                assert ort_oracle(cs_del.members, deleted) >= ort(cs, t)

    @pytest.mark.parametrize("seed", range(3))
    def test_contraction_monotonicity(self, seed):
        chi = random_realizable(5, 8, seed=seed)
        cs = circuits_from_chirotope(chi)
        for e in (2, 6):
            cs_con = circuits_from_chirotope(chi.contract(e))
            for t in itertools.islice(enumerate_topes(cs), 30):
                k = min(ort(cs, t), ort(cs, t.reorient_mask(1 << (e - 1))))
                if k >= (5 + 1) // 2 or k == 0:
                    continue
                assert ort_oracle(cs_con.members, _drop(t, e)) >= k

    @pytest.mark.parametrize("r,n", [(4, 6)])
    def test_deletion_contraction_equality_witness(self, r, n):
        m_full = o_vector(alt(4, 6)).m(0)
        m_del = o_vector(alt(4, 5)).m(0)
        m_con = o_vector(alt(3, 5)).m(0)
        assert m_full == 52 and m_del == 30 and m_con == 22
        assert m_full == m_del + m_con

    def test_o_level_analogue_fails_strictly(self):
        o_full = o_vector(alt(4, 6)).entries[0]
        o_del = o_vector(alt(4, 5)).entries[0]
        o_con = o_vector(alt(3, 5)).entries[0]
        assert o_full == 36
        assert o_full > o_del + o_con == 30


def _drop(t, e):
    """Tope image under deleting/contracting element e (restriction)."""
    bit = 1 << (e - 1)
    low = bit - 1
    plus = (t.plus & low) | ((t.plus & ~low & ~bit) >> 1)
    minus = (t.minus & low) | ((t.minus & ~low & ~bit) >> 1)
    return SignVector(t.n - 1, plus, minus)
