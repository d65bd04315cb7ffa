from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orimat import (
    DimensionError,
    DomainError,
    SignVector,
    orthogonality_degree,
)

from conftest import BlockProfile, all_full_vectors, block_profile


def sv(text):
    return SignVector.from_string(text)


sign_vectors = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=(1 << n) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
    )
).map(lambda t: SignVector(t[0], t[1] & ~t[2], t[2]))


class TestSignVector:
    def test_string_round_trip(self):
        for text in ["+-+-0", "+++++", "0-0+0", "-"]:
            assert str(sv(text)) == text

    def test_masks_and_elements(self):
        x = sv("+-0+-")
        assert x.plus_elements == (1, 4)
        assert x.minus_elements == (2, 5)
        assert x.support == (1, 2, 4, 5)
        assert not x.is_full()
        assert x.sign(1) == 1 and x.sign(2) == -1 and x.sign(3) == 0

    def test_disjointness_enforced(self):
        with pytest.raises(DomainError):
            SignVector(3, 0b011, 0b001)

    def test_ground_set_cap(self):
        SignVector(64, 0, 0)
        with pytest.raises(DomainError):
            SignVector(65, 0, 0)

    def test_from_elements_validates(self):
        with pytest.raises(DomainError):
            SignVector.from_elements(3, plus=[4])


class TestOrthogonalityDegree:
    def test_mixed_example(self):
        assert orthogonality_degree(sv("+-+-0"), sv("+++++")) == (2, 2, 2)

    def test_self_has_no_separation(self):
        x = sv("+-0+-")
        assert orthogonality_degree(x, x) == (0, 4, 0)

    def test_disjoint_supports(self):
        assert orthogonality_degree(sv("+-00"), sv("00+-")) == (0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            orthogonality_degree(sv("+-"), sv("+-+"))

    @given(sign_vectors, sign_vectors)
    def test_symmetric(self, x, y):
        if x.n != y.n:
            return
        assert orthogonality_degree(x, y) == orthogonality_degree(y, x)

    @given(sign_vectors)
    def test_negating_one_swaps_sep_agr(self, x):
        y = SignVector(x.n, (1 << x.n) - 1, 0)
        sep, agr, deg = orthogonality_degree(x, y)
        assert orthogonality_degree(-x, y) == (agr, sep, deg)

    @given(sign_vectors, st.integers(min_value=0))
    def test_reorient_preserves_degree(self, x, seed):
        y = SignVector(x.n, (1 << x.n) - 1, 0)
        mask = seed % (1 << x.n)
        a = orthogonality_degree(x, y)
        b = orthogonality_degree(x.reorient_mask(mask), y.reorient_mask(mask))
        assert a == b

    def test_simultaneous_negation_invariant(self):
        x, y = sv("+-+0-"), sv("-+0+-")
        assert orthogonality_degree(x, y) == orthogonality_degree(-x, -y)


class TestReorient:
    def test_identity(self):
        t = sv("+-+")
        assert t.reorient([]) == t

    def test_single_flip(self):
        assert sv("+-0").reorient([2]) == sv("++0")

    def test_full_set_negates(self):
        t = sv("+-0-")
        assert t.reorient([1, 2, 3, 4]) == -t

    def test_involution(self):
        t = sv("+-+0-")
        assert t.reorient([1, 3]).reorient([1, 3]) == t

    def test_only_support_changes(self):
        assert sv("+0-").reorient([2]) == sv("+0-")

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            sv("+-").reorient([3])


class TestBlockProfile:
    def test_single_block(self):
        assert block_profile(sv("+++++")) == BlockProfile(1, (5,), 0, 1)

    def test_three_blocks(self):
        assert block_profile(sv("++--+")) == BlockProfile(3, (2, 2, 1), 2, 1)

    def test_alternating(self):
        assert block_profile(sv("+-+-+")).m == 5

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            block_profile(sv("+0-"))

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_block_census(self, n):
        counts = {}
        for t in all_full_vectors(n):
            m = block_profile(t).m
            counts[m] = counts.get(m, 0) + 1
        for m in range(1, n + 1):
            assert counts.get(m, 0) == 2 * comb(n - 1, m - 1)
