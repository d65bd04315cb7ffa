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
    circuits_from_chirotope,
    enumerate_topes,
    m_value,
    neighborly,
    o_vector,
    o_vector_closed,
    ort,
    parse_chirotope,
    random_realizable,
    search_k_neighborly,
    tope_count,
    tope_count_uniform,
    tope_graph_edges,
)

from orimat.circuits import _facet_table, circuit_minus
from orimat.signvec import _elements_from_mask

from conftest import (
    CORRUPT_7_9,
    all_full_vectors,
    ball_oracle,
    first_index_oracle,
    full_sweep_orts,
    o_vector_oracle,
    ort_oracle,
    pattern_orts_oracle,
    sign_product_orts,
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

    @pytest.mark.parametrize("r,n", [(3, 6), (4, 8), (5, 9)])
    def test_matches_oracle_on_every_full_vector(self, r, n):
        # includes the half with element 1 negative
        cs = circuits_from_chirotope(random_realizable(r, n, seed=n))
        for t in all_full_vectors(n):
            assert ort(cs, t) == ort_oracle(cs.members, t), str(t)


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
        assert all(ort(cs, t) > 0 for t in topes)

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
        for tile in (1, 7, 64, 1 << 20):
            monkeypatch.setattr(neighborly, "TILE_BYTES", tile)
            assert o_vector(cs) == expected, tile

    @pytest.mark.parametrize(
        "r,n,seed", [(3, 6, 0), (3, 7, 1), (4, 7, 2), (4, 8, 3), (5, 8, 4), (6, 9, 5)]
    )
    def test_random_matches_oracle(self, monkeypatch, r, n, seed):
        cs = circuits_from_chirotope(random_realizable(r, n, seed=seed))
        monkeypatch.setattr(neighborly, "TILE_BYTES", 32)  # several tiles
        assert o_vector(cs).entries == o_vector_oracle(cs)

    def test_infeasible_size_refused(self, monkeypatch):
        # one circuit, but 2^39 candidates: refused before anything is allocated
        def allocate(*args):
            raise AssertionError("kernel ran before the budget check")

        cs = alt(39, 40)
        monkeypatch.setattr(neighborly, "_separations", allocate)
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
    chirotope at (r, n), the sizes its fold passes through, with tiles of 1,
    7 and 8192 bytes, against the oracles."""

    @pytest.mark.parametrize(
        "r,n,m,tile",
        [
            (r, n, m, tile)
            for r, n in GROWTH_SIZES
            for m in range(r + 1, n + 1)
            # 1-byte tiles cost one Python iteration per pair: kept to n <= 8
            for tile in ([1] if n <= 8 else []) + [7, 8192]
        ],
    )
    def test_matches_oracles(self, monkeypatch, r, n, m, tile):
        chi, cs, entries, first, topes = growth_case(r, n, m)
        monkeypatch.setattr(neighborly, "TILE_BYTES", tile)
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
        # (4,8) and (5,9) sweep 7168 and 21504 pairs; the fold reads the
        # C(7, 4) = 35 and C(8, 5) = 56 circuits through element 1, so a
        # batch holds 2^15 // 35 = 936 and 2^15 // 56 = 585 records and a
        # block of 256 is one fold, gathered over slices of
        # 2^15 // (256 x 4) = 32 circuits (rows of 2 levels x 2 words) and
        # 2^15 // (256 x 12) = 10 (3 levels x 4 words), and no gather
        # exceeds 2^15 words
        cases = {(4, 8): (936, [32, 3]), (5, 9): (585, [10] * 5 + [6])}
        for (r, n), (batch, slices) in cases.items():
            assert neighborly.is_dense(r, n)
            assert neighborly._BATCH_ENTRIES // comb(n - 1, r) == batch
            signs, _ = record_stack(r, n, range(256))
            singles = [neighborly.m_values(r, n, signs[i : i + 1])[0].tolist() for i in range(256)]
            with pytest.MonkeyPatch.context() as mp:
                folds, takes = dense_calls(mp)
                m = neighborly.m_values(r, n, signs)
            assert folds == [256]
            assert takes == [size * 256 * neighborly._row_words(r, n) for size in slices]
            assert max(takes) <= neighborly._BATCH_ENTRIES
            assert m.tolist() == singles

    def test_grown_database_size(self):
        # (6,12) sweeps about 1.6e6 pairs and grows 25 records at a time,
        # 2^15 // 1276 candidates
        assert not neighborly.is_dense(6, 12)
        assert neighborly._enumeration_cost(6, 12)[1] == 1276
        assert neighborly._group_size(6, 12) == 25

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_growth_equals_sweep(self, data):
        r = data.draw(st.integers(2, 6), label="r")
        n = data.draw(st.integers(r + 1, r + 5), label="n")
        level = data.draw(st.integers(1, (r + 1) // 2 + 1), label="level")
        cs = circuits_from_chirotope(random_realizable(r, n, seed=data.draw(st.integers(0, 999))))
        orts = full_sweep_orts(cs)
        _, masks, got = neighborly._grow(r, n, cs.minus[None], level)
        m = [m_value(cs, k) for k in range((r - 1) // 2 + 1)]
        keep = got >= level
        expected = np.flatnonzero(orts >= level)
        order = np.argsort(masks[keep])
        assert (masks[keep][order] >> np.uint64(1)).tolist() == expected.tolist()
        assert got[keep][order].tolist() == orts[expected].tolist()
        assert m == [2 * int((orts > k).sum()) for k in range(len(m))]

    def test_enumeration_cost_is_the_sum_of_levels(self):
        # the seed sweeps j0 elements, C(j0, r+1) 2^(j0-1) <= 2^14 pairs;
        # then 2 T(j-1) C(j-1, r) pairs at each j > j0, where
        # T(m) = sum_{i<r} C(m-1, i)
        # (4, 8): j0 = 8 = n, 56 circuits x 128 sign vectors, no level
        assert neighborly._enumeration_cost(4, 8) == (56 * 128, 128)
        # (4, 10): j0 = 8 (C(9, 5) 2^8 = 32256 > 2^14), then j = 9, 10
        # with T(8, 9) = 64, 93
        pairs, candidates = neighborly._enumeration_cost(4, 10)
        assert pairs == 56 * 128 + 2 * 64 * 70 + 2 * 93 * 126
        assert candidates == 2 * 93
        # (6, 12): j0 = 9 (C(10, 7) 2^9 = 61440 > 2^14), 36 x 256, then
        # j = 10, 11, 12 with T(9, 10, 11) = 219, 382, 638
        pairs, candidates = neighborly._enumeration_cost(6, 12)
        assert pairs == 36 * 256 + 2 * 219 * 84 + 2 * 382 * 210 + 2 * 638 * 462
        assert candidates == 2 * 638

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


def record_stack(r, n, seeds):
    """The lex-order signs (int8, one row per seed) of random chirotopes at
    (r, n) and their circuit minus masks (``circuit_minus``)."""
    signs = np.array([random_realizable(r, n, seed=s).signs for s in seeds], dtype=np.int8)
    return signs, circuit_minus(r, n, signs)


def record_slices(count, records, *arrays):
    """Per record index 0..count-1, the entries of each array that belong
    to it."""
    return [tuple(a[records == i] for a in arrays) for i in range(count)]


class TestRecordAxis:
    """One grow over a stack of K chirotopes of one (r, n): record by
    record it matches the K = 1 grow and the kernel-free oracle."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_stack_matches_single_records_and_oracle(self, data):
        # a tile of 3 or 7 bytes holds 1-7 candidates, and the kernel loops
        # over its tiles one circuit at a time, so tiny tiles stop at n = 9
        # (uint8 and uint16 masks) and stacks of 2 records; the larger tiles
        # go on to n = 11 and 4 records
        tile = data.draw(st.sampled_from([3, 7, 64, neighborly.TILE_BYTES]), label="tile")
        tiny = tile < 64
        r = data.draw(st.integers(1, 6), label="r")
        n = data.draw(st.integers(r + 1, min(r + 5, 9 if tiny else 11)), label="n")
        level = data.draw(st.integers(1, (r + 1) // 2 + 1), label="level")
        seeds = data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=2 if tiny else 4), label="seeds")
        signs, minus = record_stack(r, n, seeds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighborly, "TILE_BYTES", tile)
            records, masks, orts = neighborly._grow(r, n, minus, level)
            singles = [neighborly._grow(r, n, minus[i : i + 1], level)[1:] for i in range(len(seeds))]
        m_levels = neighborly.m_values(r, n, signs)
        per_k = [neighborly.m_counts(r, n, signs, k) for k in range((r - 1) // 2 + 1)]
        assert masks.dtype == np.min_scalar_type((1 << n) - 1)
        for i, (got, single) in enumerate(zip(record_slices(len(seeds), records, masks, orts), singles)):
            assert all(np.array_equal(a, b) for a, b in zip(got, single)), i
            cs = circuits_from_chirotope(random_realizable(r, n, seed=seeds[i]))
            oracle = full_sweep_orts(cs)
            keep = got[1] >= level
            order = np.argsort(got[0][keep])
            expected = np.flatnonzero(oracle >= level)
            assert (got[0][keep][order] >> 1).tolist() == expected.tolist()
            assert got[1][keep][order].tolist() == oracle[expected].tolist()
            m = [2 * int((oracle > k).sum()) for k in range(len(per_k))]
            assert m_levels[i].tolist() == m == [int(c[i]) for c in per_k]
            first = neighborly.first_index_at_least(cs, level)
            assert first == (int(expected[0]) if expected.size else None)

    @pytest.mark.parametrize(
        "n,dtype",
        [(8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32),
         (32, np.uint32), (33, np.uint64), (64, np.uint64)],
    )
    @pytest.mark.parametrize("r", [1, 2])
    def test_mask_dtype_boundaries(self, r, n, dtype):
        # every tope is found: the grown masks are distinct, each has the
        # oracle's ort, and there are as many as a uniform matroid has
        signs, minus = record_stack(r, n, range(3))
        records, masks, orts = neighborly._grow(r, n, minus, 1)
        assert masks.dtype == dtype and neighborly._growth_order(r, n)[1].dtype == dtype
        for i, (got_masks, got_orts) in enumerate(record_slices(3, records, masks, orts)):
            single = neighborly._grow(r, n, minus[i : i + 1], 1)[1:]
            assert np.array_equal(got_masks, single[0]) and np.array_equal(got_orts, single[1])
            topes = got_masks[got_orts > 0]
            assert 2 * len(np.unique(topes)) == 2 * len(topes) == tope_count_uniform(r, n)
            cs = circuits_from_chirotope(random_realizable(r, n, seed=i))
            oracle = sign_product_orts(cs, topes.tolist())
            assert oracle.tolist() == got_orts[got_orts > 0].tolist()
            assert neighborly.first_index_at_least(cs, 1) == int(topes.min()) >> 1
        assert neighborly.m_counts(r, n, signs, 0).tolist() == [tope_count_uniform(r, n)] * 3


@pytest.fixture
def seed_bound(monkeypatch):
    """Set SEED_PAIRS so that grows at (r, n) seed at j0; the cached closed
    form follows the bound, so its cache is cleared on the way in and out."""

    def set_seed(r, n, j0):
        monkeypatch.setattr(neighborly, "SEED_PAIRS", comb(j0, r + 1) << (j0 - 1))
        neighborly._enumeration_cost.cache_clear()
        assert neighborly._seed_size(r, n) == j0

    yield set_seed
    neighborly._enumeration_cost.cache_clear()


class TestSeed:
    """Every grow sweeps its first j0 elements in one call.  Whatever j0 the
    bound picks, r+1 (the one circuit inside [r+1]) up to n (the full
    sweep), the grown candidates at ort >= level and every count are those
    of j0 = r+1, on stacks and on single records."""

    @pytest.mark.parametrize("r,n", [(1, 6), (2, 6), (3, 10), (5, 10), (6, 10)])
    def test_every_seed_size_grows_the_same(self, seed_bound, r, n):
        seeds = range(3)
        signs, minus = record_stack(r, n, seeds)
        sets = [circuits_from_chirotope(random_realizable(r, n, seed=s)) for s in seeds]
        levels = range(1, (r + 1) // 2 + 2)

        def grown():
            stack = {}
            for level in levels:
                records, masks, orts = neighborly._grow(r, n, minus, level)
                keep = orts >= level
                stack[level] = sorted(zip(records[keep].tolist(), masks[keep].tolist(), orts[keep].tolist()))
                for i in range(len(minus)):
                    _, masks, orts = neighborly._grow(r, n, minus[i : i + 1], level)
                    keep = orts >= level
                    single = sorted((i, m, o) for m, o in zip(masks[keep].tolist(), orts[keep].tolist()))
                    assert single == [row for row in stack[level] if row[0] == i], (level, i)
            firsts = [[neighborly.first_index_at_least(cs, level) for level in levels] for cs in sets]
            m_counts = [neighborly.m_counts(r, n, signs, k).tolist() for k in range((r + 1) // 2)]
            return stack, firsts, [o_vector(cs) for cs in sets], neighborly.m_values(r, n, signs).tolist(), m_counts

        # m_values grows at n = 10 and reads the level-bit table at n = 6
        seed_bound(r, n, r + 1)
        expected = grown()
        for j0 in range(r + 2, n + 1):
            seed_bound(r, n, j0)
            assert grown() == expected, j0


class TestOrientation:
    """Every grow orients each circuit with its largest element positive.
    ort is symmetric under C -> -C, so negating any circuits of the input
    changes no array a grow returns and no count."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_negated_circuits_grow_the_same(self, data):
        # uint8, uint16, uint32 and uint64 masks
        r, n = data.draw(st.sampled_from([(3, 8), (5, 12), (3, 20), (2, 40)]), label="r, n")
        seeds = data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=3), label="seeds")
        level = data.draw(st.integers(1, (r + 1) // 2 + 1), label="level")
        k = data.draw(st.integers(0, (r - 1) // 2), label="k")
        share = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="share negated")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="negation seed"))
        _, minus = record_stack(r, n, seeds)
        negated = np.where(rng.random(minus.shape) < share, minus ^ _facet_table(r, n)[2], minus)
        assert share == 0.0 or not np.array_equal(negated, minus)
        stacks = [(minus, negated)] + [(minus[i : i + 1], negated[i : i + 1]) for i in range(len(seeds))]
        for given_minus, given_negated in stacks:
            grown = neighborly._grow(r, n, given_minus, level)
            assert grown[1].dtype == np.min_scalar_type((1 << n) - 1)
            for a, b in zip(grown, neighborly._grow(r, n, given_negated, level)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        counts = [
            neighborly.grown_m_values(r, n, len(seeds), lambda rows, m=m: m[rows], k + 1) for m in (minus, negated)
        ]
        assert counts[0].tobytes() == counts[1].tobytes()


class TestChildStep:
    """At a grown level j, one kernel pass over the survivors gives the ort
    of both children: with every circuit folded in at j oriented with j
    positive, a survivor's least separations s and least agreements a on
    the circuits' other r elements give min(run, s, a+1) for its child
    with j positive and min(run, s+1, a) for its child with j negative."""

    @pytest.mark.parametrize(
        "chi,last",
        [
            # every circuit of C_5(n) reads + - + - + -: its largest element is -
            (alternating_chirotope(5, 11), True),
            # every circuit of C_4(n) reads + - + - +: its largest element is +
            (alternating_chirotope(4, 10), False),
            (random_realizable(6, 12, seed=5), None),
        ],
        ids=["C_5(11)", "C_4(10)", "random(6,12)"],
    )
    def test_both_children_match_the_scalar_oracle(self, chi, last):
        r, n = chi.r, chi.n
        cs = circuits_from_chirotope(chi)
        full = (1 << n) - 1
        dtype = np.min_scalar_type(full)
        for j in (neighborly._seed_size(r, n) + 1, n):
            top = 1 << (j - 1)
            inner = [x for x in cs.members if x.plus | x.minus < top]
            folded = [x for x in cs.members if top <= x.plus | x.minus < 2 * top]
            assert len(folded) == comb(j - 1, r)
            negative = [bool(x.minus & top) for x in folded]
            assert (any(negative) and not all(negative)) if last is None else set(negative) == {last}
            oriented = [-x if x.minus & top else x for x in folded]
            support = np.array([x.plus | x.minus for x in oriented], dtype=dtype)
            minus = np.array([[x.minus] for x in oriented], dtype=dtype)
            # random sign vectors on [j-1] with element 1 positive, 48 topes of
            # M|[j-1] and 16 others, and their running minimum: their ort
            # against the circuits inside [j-1]
            drawn = (np.random.default_rng(j).integers(0, 1 << (j - 2), size=512) << 1).tolist()
            run = {m: ort_oracle(inner, SignVector(n, full & ~m, m)) for m in drawn}
            picked = [m for m in run if run[m]][:48] + [m for m in run if not run[m]][:16]
            masks = np.array(picked, dtype=dtype)
            run = np.array([run[m] for m in picked], dtype=np.uint8)
            assert len(picked) == 64 and len(set(run.tolist())) > 2
            expected = [
                ort_oracle(inner + folded, SignVector(n, full & ~child, child))
                for m in masks.tolist()
                for child in (m, m | top)
            ]
            got = neighborly._child_orts(neighborly._least_counts(support, minus, masks, None, r), run)
            assert got.dtype == np.uint8 and got.tolist() == expected, j
            # a running minimum held lower is kept: both children take it
            cap = np.minimum(run, np.random.default_rng(j).integers(0, 3, size=len(run), dtype=np.uint8))
            got = neighborly._child_orts(neighborly._least_counts(support, minus, masks, None, r), cap)
            assert got.tolist() == np.minimum(expected, cap.repeat(2)).tolist(), j

    @pytest.mark.parametrize("r,n", [(4, 10), (5, 12), (6, 13)])
    def test_one_pass_over_the_survivors_per_level(self, monkeypatch, r, n):
        # one seed call over the 2^(j0-1) sign vectors on [j0]; an o-vector
        # grows at level 1, so the survivors that reach level j are the
        # topes with element 1 positive of the uniform matroid on [j-1]:
        # each level counts them once against its C(j-1, r) circuits
        calls, kernel = [], neighborly._least_counts

        def counted(support, minus, masks, records, width):
            calls.append((len(support), len(masks)))
            return kernel(support, minus, masks, records, width)

        monkeypatch.setattr(neighborly, "_least_counts", counted)
        assert o_vector(alt(r, n)).entries == o_vector_closed(r, n, 0)
        j0 = neighborly._seed_size(r, n)
        levels = [(comb(j - 1, r), tope_count_uniform(r, j - 1) // 2) for j in range(j0 + 1, n + 1)]
        assert calls == [(comb(j0, r + 1), 1 << (j0 - 1))] + levels


class TestSixteenBitKernel:
    """uint16 tiles (n = 9..16) are counted on their byte view, in place."""

    @pytest.mark.parametrize("rows", [1, 3, 256])
    @pytest.mark.parametrize("width", range(2, 9))
    def test_every_value_matches_the_native_count(self, width, rows):
        # every uint16 value, bits kept on a support of ``width`` elements at
        # each offset, some straddling the byte boundary, as table ^ pattern
        # is; two tiles of ``rows`` circuits, in shuffled order
        values = np.arange(1 << 16, dtype=np.uint16)
        supports = [((1 << width) - 1) << shift for shift in range(17 - width)]
        entries = np.concatenate([values & np.uint16(s) for s in supports])
        entries = np.random.default_rng(width).permutation(entries)
        table = np.resize(entries, (2, rows, -(-len(entries) // (2 * rows))))
        expected = np.bitwise_count(table)
        for dtype in (np.uint16, np.uint32, np.uint64):
            tile = table.astype(dtype)
            got = neighborly._separations(tile)
            assert np.array_equal(got, expected), dtype
            assert (got is tile) == (dtype == np.uint16), dtype  # a uint16 tile is consumed

    @pytest.mark.parametrize("r,n", [(6, 12), (7, 12)])
    def test_grown_sizes_match_the_full_sweep(self, r, n):
        # circuits of r+1 elements on 12: most supports straddle bits 7 | 8
        for chi in (alternating_chirotope(r, n), random_realizable(r, n, seed=r * n)):
            cs = circuits_from_chirotope(chi)
            orts = full_sweep_orts(cs)
            kmax = (r - 1) // 2
            entries = tuple(2 * int((orts == k + 1).sum()) for k in range(kmax))
            entries += (2 * int((orts > kmax).sum()),)
            assert o_vector(cs).entries == entries
            m = [sum(entries[k:]) for k in range(kmax + 1)]
            assert [m_value(cs, k) for k in range(kmax + 1)] == m
            assert neighborly.m_values(r, n, np.array([chi.signs], dtype=np.int8)).tolist() == [m]

    def test_largest_uint16_size_matches_the_closed_form(self):
        # (5, 16) is too large for the sweep: C_5(16) against o_vector_closed
        cs = alt(5, 16)
        entries = o_vector_closed(5, 16, 0)
        assert o_vector(cs).entries == entries
        m = [sum(entries[k:]) for k in range(3)]
        assert [m_value(cs, k) for k in range(3)] == m
        signs = np.array([alternating_chirotope(5, 16).signs], dtype=np.int8)
        assert neighborly.m_values(5, 16, signs).tolist() == [m]


class TestGrowthGroups:
    """Records grow in groups sized from the closed-form cost before any
    array is allocated."""

    def test_groups_split_within_the_candidate_budget(self, monkeypatch):
        signs, minus = record_stack(5, 10, range(7))
        expected = neighborly.m_values(5, 10, signs)
        candidates = neighborly._enumeration_cost(5, 10)[1]
        grow, stacks = neighborly._grow, []

        def counted(r, n, group, level):
            stacks.append(len(group))
            return grow(r, n, group, level)

        monkeypatch.setattr(neighborly, "_grow", counted)
        monkeypatch.setattr(neighborly, "CANDIDATE_BUDGET", 3 * candidates)
        assert neighborly._group_size(5, 10) == 3
        assert np.array_equal(neighborly.m_values(5, 10, signs), expected)
        assert stacks == [3, 3, 1]
        stacks.clear()
        assert neighborly.m_counts(5, 10, signs, 1).tolist() == expected[:, 1].tolist()
        assert stacks == [3, 3, 1]

    def test_one_record_over_the_budget_is_refused_before_the_kernel(self, monkeypatch):
        def kernel(*args):
            raise AssertionError("the kernel ran before the budget check")

        signs, _ = record_stack(5, 10, range(2))
        monkeypatch.setattr(neighborly, "_separations", kernel)
        monkeypatch.setattr(
            neighborly, "CANDIDATE_BUDGET", neighborly._enumeration_cost(5, 10)[1] - 1
        )
        for count in (lambda: neighborly.m_values(5, 10, signs), lambda: neighborly.m_counts(5, 10, signs, 0)):
            with pytest.raises(DomainError, match="budget"):
                count()

    @pytest.mark.parametrize("count,group", [(0, None), (1, None), (5, 2)])
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_grown_columns_from_each_level(self, count, group, data):
        # grown_m_values at level L gives m(M,k) for k = L-1..floor((r-1)/2),
        # one column each, equal to m_counts and to the full-sweep oracle:
        # for no records, for one growth group, and for groups of 2 records
        # (5 records in 3 groups); past the last level it has no columns
        r = data.draw(st.integers(1, 6), label="r")
        n = data.draw(st.integers(r + 1, min(r + 4, 9)), label="n")
        signs, minus = (a[:count] for a in record_stack(r, n, range(max(count, 1))))
        kmax = (r - 1) // 2
        per_k = np.stack([neighborly.m_counts(r, n, signs, k) for k in range(kmax + 1)], axis=1)
        sweeps = [full_sweep_orts(circuits_from_chirotope(random_realizable(r, n, seed=s))) for s in range(count)]
        oracle = [[2 * int((orts > k).sum()) for k in range(kmax + 1)] for orts in sweeps]
        with pytest.MonkeyPatch.context() as mp:
            if group:
                mp.setattr(neighborly, "CANDIDATE_BUDGET", group * neighborly._enumeration_cost(r, n)[1])
            size = neighborly._group_size(r, n)
            assert size == group or count <= size
            for level in range(1, (r + 1) // 2 + 2):
                groups = []

                def minus_of(rows):
                    groups.append((rows.start, rows.stop))
                    return minus[rows]

                m = neighborly.grown_m_values(r, n, count, minus_of, level)
                assert m.dtype == np.int64 and m.shape == (count, (r + 1) // 2 - level + 1)
                assert m.tolist() == per_k[:, level - 1 :].tolist() == [row[level - 1 :] for row in oracle]
                assert groups == [(lo, lo + size) for lo in range(0, count, size)]


LEVEL_SIZES = [(r, n) for n in range(2, 11) for r in range(1, n) if neighborly.is_dense(r, n)]


class CountedTakes:
    """numpy as ``neighborly`` sees it, with the size of each ``take``
    result recorded in ``sizes``."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, *args, **kwargs):
        out = np.take(*args, **kwargs)
        self.sizes.append(out.size)
        return out


def dense_calls(monkeypatch):
    """The records of each ``_dense_fold`` call and the words of each table
    gather from now on, as two growing lists."""
    folds, numpy = [], CountedTakes()
    fold = neighborly._dense_fold

    def counted(r, n, patterns):
        folds.append(len(patterns))
        return fold(r, n, patterns)

    monkeypatch.setattr(neighborly, "_dense_fold", counted)
    monkeypatch.setattr(neighborly, "np", numpy)
    return folds, numpy.sizes


class TestMValuesBatches:
    """``m_values`` takes any K records and batches the kernel itself: at a
    dense size, batches of as many records as fit _BATCH_ENTRIES circuit
    patterns, each folded in table gathers of at most _BATCH_ENTRIES words;
    growth groups at any other size; each batch's circuits derived on their
    own."""

    @pytest.mark.parametrize("count", [1, 2, 3, 6, 7])
    @pytest.mark.parametrize("r,n", [(4, 8), (5, 10)])
    def test_any_count_matches_single_records_and_oracle(self, monkeypatch, r, n, count):
        # batches of 3 records: a partial one (1, 2), one (3), several (6),
        # several and a partial one (7)
        signs, _ = record_stack(r, n, range(count))
        singles = [neighborly.m_values(r, n, signs[i : i + 1]) for i in range(count)]
        dense = neighborly.is_dense(r, n)
        assert dense == (n == 8)
        if dense:  # 3 records of 35 circuits through element 1, and slices of 105 // (3 x 4) = 8
            monkeypatch.setattr(neighborly, "_BATCH_ENTRIES", 3 * comb(n - 1, r))
        else:
            monkeypatch.setattr(neighborly, "CANDIDATE_BUDGET", 3 * neighborly._enumeration_cost(r, n)[1])
        derived, kernel = [], []
        derive = neighborly.circuit_negatives if dense else neighborly.circuit_minus
        run = neighborly._dense_fold if dense else neighborly._grow

        def derived_per_batch(r, n, batch, *count):
            derived.append(len(batch))
            return derive(r, n, batch, *count)

        def kernel_per_batch(r, n, batch, *level):
            kernel.append(len(batch))
            return run(r, n, batch, *level)

        monkeypatch.setattr(neighborly, derive.__name__, derived_per_batch)
        monkeypatch.setattr(neighborly, run.__name__, kernel_per_batch)
        m = neighborly.m_values(r, n, signs)
        batches = [3] * (count // 3) + [count % 3] * (count % 3 > 0)
        assert derived == kernel == batches
        assert m.shape == (count, (r + 1) // 2) and m.dtype == np.int64
        for i in range(count):
            chi = random_realizable(r, n, seed=i)
            oracle = full_sweep_orts(circuits_from_chirotope(chi))
            expected = [2 * int((oracle > k).sum()) for k in range((r + 1) // 2)]
            assert m[i].tolist() == singles[i][0].tolist() == expected, i
        assert neighborly.m_values(r, n, signs[:0]).shape == (0, (r + 1) // 2)

    @pytest.mark.parametrize("r,n", LEVEL_SIZES)
    def test_slices_and_batches_match_the_grown_engine(self, monkeypatch, r, n):
        # a random record and the alternating one, in one batch or split in
        # two, each batch folded over slices of one circuit, of several
        # with a short last slice, and of every circuit at once
        signs = np.array(
            [random_realizable(r, n, seed=16 * r + n).signs, alternating_chirotope(r, n).signs], dtype=np.int8
        )
        grown = np.stack([neighborly.m_counts(r, n, signs, k) for k in range((r + 1) // 2)], axis=1)
        circuits, words = comb(n - 1, r), neighborly._row_words(r, n)
        folds, takes = dense_calls(monkeypatch)
        fold = neighborly._dense_fold
        for batch in (1, 2):
            for per_slice in sorted({1, circuits // 2 + 1, circuits}):
                entries = batch * max(circuits, words)

                def sliced(r, n, patterns):
                    # the fold reads the patterns of one batch over slices of
                    # per_slice circuits; the batch was cut from ``entries``
                    monkeypatch.setattr(neighborly, "_BATCH_ENTRIES", per_slice * len(patterns) * words)
                    try:
                        return fold(r, n, patterns)
                    finally:
                        monkeypatch.setattr(neighborly, "_BATCH_ENTRIES", entries)

                monkeypatch.setattr(neighborly, "_dense_fold", sliced)
                monkeypatch.setattr(neighborly, "_BATCH_ENTRIES", entries)
                del folds[:], takes[:]
                m = neighborly.m_values(r, n, signs)
                assert m.tolist() == grown.tolist(), (batch, per_slice)
                assert folds == [batch] * (2 // batch)
                cuts = list(range(0, circuits, per_slice))
                sizes = [min(per_slice, circuits - lo) * batch * words for lo in cuts]
                assert takes == sizes * (2 // batch), (batch, per_slice)

    @pytest.mark.parametrize("r,n", LEVEL_SIZES)
    def test_rows_that_are_no_oriented_matroid_are_counted_over_every_circuit(self, monkeypatch, r, n):
        # realizable rows, the same with one or two signs flipped, and
        # random +-1 rows: the fold over the circuits through element 1,
        # with its recount over every circuit where m(M,0) is wrong, reads
        # as the grown engine at every k; realizable rows are never recounted
        rng = np.random.default_rng(16 * r + n)
        realizable, _ = record_stack(r, n, range(100 * n + r, 100 * n + r + 6))
        one, two = realizable.copy(), realizable.copy()
        width = realizable.shape[1]
        for i in range(len(realizable)):
            one[i, rng.integers(width)] *= -1
            two[i, rng.choice(width, size=min(2, width), replace=False)] *= -1
        signs = np.concatenate([realizable, one, two, rng.choice(np.array([-1, 1], dtype=np.int8), size=(6, width))])
        grown = np.stack([neighborly.m_counts(r, n, signs, k) for k in range((r + 1) // 2)], axis=1)
        # the fold derives circuits through element 1 (circuit_negatives),
        # so every circuit_minus call is a recount over every circuit
        recounted, derive = [], neighborly.circuit_minus

        def counted(r, n, rows):
            recounted.append(rows.copy())
            return derive(r, n, rows)

        monkeypatch.setattr(neighborly, "circuit_minus", counted)
        assert neighborly.m_values(r, n, signs).tolist() == grown.tolist()
        again = np.concatenate([np.zeros((0, width), dtype=np.int8)] + recounted)
        assert not (again[:, None] == realizable).all(axis=-1).any()
        wrong = signs[grown[:, 0] != tope_count_uniform(r, n)]
        assert (wrong[:, None] == again).all(axis=-1).any(axis=1).all()

    def test_corrupt_row_is_counted_over_every_circuit(self):
        # 476 topes over every circuit, not the 494 of a uniform (7, 9)
        signs = np.array([parse_chirotope(CORRUPT_7_9, 7, 9).signs], dtype=np.int8)
        m = neighborly.m_values(7, 9, signs)
        assert m[0, 0] == 476 != tope_count_uniform(7, 9) == 494
        assert m.tolist() == [[neighborly.m_counts(7, 9, signs, k)[0] for k in range(4)]]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_no_circuits_refused(self, r):
        signs = np.ones((2, 1), dtype=np.int8)
        with pytest.raises(EmptyCircuitSetError, match=f"rank {r} on {r} elements has no circuits"):
            neighborly.m_values(r, r, signs)


class TestLevelTable:
    """The level-bit table that every dense database batch reads."""

    @pytest.mark.parametrize("r,n", LEVEL_SIZES)
    def test_every_bit_matches_the_oracle(self, r, n):
        # the table holds the circuits through element 1, the first
        # C(n-1, r) supports in lex order
        orts = pattern_orts_oracle(r, n)[: comb(n - 1, r)]
        supports, patterns, candidates = orts.shape
        levels = (r + 1) // 2
        table = neighborly._level_table(r, n)
        assert table.dtype == np.uint64 and table.shape[0] == supports * patterns == supports << r
        assert table.nbytes == 8 * supports * neighborly._row_words(r, n) << r
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
        kernel = neighborly._separations

        def counted(separated):
            calls.append(separated.shape)
            return kernel(separated)

        monkeypatch.setattr(neighborly, "_separations", counted)
        table = neighborly._level_table.__wrapped__(4, 8)
        # one circuit through element 1 per call: its 2^4 patterns against
        # the 128 candidates
        assert calls == [(16, 128)] * comb(7, 4)
        assert np.array_equal(table, neighborly._level_table(4, 8))

    def test_database_sizes(self):
        # 18 KB at (4, 8), 172 KB at (5, 9), 1.2 MB at (7, 10), the largest
        sizes = {(r, n): 8 * comb(n - 1, r) * neighborly._row_words(r, n) << r for r, n in LEVEL_SIZES}
        assert (sizes[4, 8], sizes[5, 9]) == (17920, 172032)
        assert max(sizes.values()) == sizes[7, 10] == 1179648
        assert all(neighborly._level_table(r, n).nbytes == sizes[r, n] for r, n in [(4, 8), (5, 9)])


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
        assert ball_oracle(alt(3, 5), sv("+++++"), 1)

    def test_radius_two_false(self):
        assert not ball_oracle(alt(3, 5), sv("+++++"), 2)

    def test_radius_zero(self):
        cs = alt(4, 6)
        for t in itertools.islice(enumerate_topes(cs), 5):
            assert ball_oracle(cs, t, 0)

    def test_non_tope_rejected(self):
        with pytest.raises(DomainError):
            ball_oracle(alt(3, 5), sv("+-+-+"), 1)

    @pytest.mark.parametrize("r,n", [(3, 5), (3, 6), (4, 6), (5, 7)])
    def test_bridge_equivalence(self, r, n):
        # ort threshold == ball flip test for every tope and admissible k
        cs = alt(r, n)
        for t in enumerate_topes(cs):
            o = ort(cs, t)
            for k in range((r - 1) // 2 + 1):
                assert ball_oracle(cs, t, k) == (o >= k + 1)

    @pytest.mark.parametrize("r,n,seed", [(3, 6, 0), (4, 7, 1)])
    def test_matches_per_flip_oracle(self, r, n, seed):
        # the same beyond the admissible k, where no ball is full
        cs = circuits_from_chirotope(random_realizable(r, n, seed=seed))
        for t in enumerate_topes(cs):
            for k in range(4):
                assert ball_oracle(cs, t, k) == (ort(cs, t) >= k + 1), (str(t), k)


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
    @pytest.mark.parametrize("r,n", [(r, n) for n in range(2, 9) for r in range(1, min(5, n - 1) + 1)])
    def test_ort_is_attained_through_every_element(self, r, n):
        # the lemma behind the dense fold: in a uniform oriented matroid,
        # the circuits through any one element e give ort(X) for every X
        for chi in [alternating_chirotope(r, n)] + [random_realizable(r, n, seed=s) for s in (2 * n, 2 * n + 1)]:
            members = circuits_from_chirotope(chi).members
            for t in all_full_vectors(n):
                expected = ort_oracle(members, t)
                for e in range(n):
                    through = [x for x in members if (x.plus | x.minus) >> e & 1]
                    assert ort_oracle(through, t) == expected, (chi.serialize(), t, e + 1)

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
