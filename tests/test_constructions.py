import pytest

from orimat import (
    DomainError,
    alternating_chirotope,
    circuits_from_chirotope,
    composite_construction,
    disjoint_cocircuit_construction,
    m_value,
    ort,
    random_realizable,
    search_k_neighborly,
)
from orimat import neighborly
from orimat.constructions import _witness_tope
from orimat.signvec import _elements_from_mask

from conftest import first_index_oracle, ort_oracle


def recheck(chi, witness):
    """Independent verification of a witness via the scalar ort oracle."""
    cs = circuits_from_chirotope(chi)
    tope = _witness_tope(chi.n, witness.r_set)
    return ort_oracle(cs.members, tope) - 1


class TestSearch:
    def test_finds_known_neighborly(self):
        chi = alternating_chirotope(3, 5)
        w = search_k_neighborly(chi, 1)
        assert w is not None and w.verified and w.k >= 1
        assert recheck(chi, w) >= 1

    def test_zero_level_always_exists(self):
        w = search_k_neighborly(alternating_chirotope(4, 7), 0)
        assert w is not None and w.verified

    def test_none_when_absent(self):
        # this seeded realizable class at (r=3, n=6) has no 1-neighborly
        # reorientation: one point sits inside the hull of the others in
        # every reorientation class representative
        chi = random_realizable(3, 6, seed=1)
        assert m_value(circuits_from_chirotope(chi), 1) == 0
        assert search_k_neighborly(chi, 1) is None

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            search_k_neighborly(alternating_chirotope(3, 5), 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_uniform(self, seed):
        chi = random_realizable(4, 6, seed=seed)
        w = search_k_neighborly(chi, 1)
        assert w is not None and recheck(chi, w) >= 1

    def test_infeasible_size_refused(self, monkeypatch):
        # one circuit, but 2^39 candidates: refused before any tile is built
        def allocate(*args):
            raise AssertionError("tile built before the budget check")

        monkeypatch.setattr(neighborly, "_ort_of", allocate)
        with pytest.raises(DomainError, match="budget"):
            search_k_neighborly(alternating_chirotope(39, 40), 0)

    @pytest.mark.parametrize("block", [8, neighborly.BLOCK_ELEMENTS])
    @pytest.mark.parametrize("r,n", [(3, 6), (4, 7), (5, 8), (6, 9)])
    def test_first_witness_matches_scan_oracle(self, monkeypatch, r, n, block):
        # with 8, the walk crosses tiles before most first hits
        monkeypatch.setattr(neighborly, "BLOCK_ELEMENTS", block)
        for seed in range(3):
            chi = random_realizable(r, n, seed=seed)
            cs = circuits_from_chirotope(chi)
            for k in range((r - 1) // 2 + 1):
                index = first_index_oracle(cs, k + 1)
                w = search_k_neighborly(chi, k)
                if index is None:
                    assert w is None, (seed, k)
                else:
                    assert w.r_set == _elements_from_mask(index << 1), (seed, k)
                    assert w.k >= k and w.verified


class TestDisjointCocircuits:
    @pytest.mark.parametrize(
        "r,k", [(5, 2), (6, 2), (7, 2), (7, 3), (8, 2), (8, 3)]
    )
    def test_admissible_cases(self, r, k):
        n = r - 1 + (r - 1) // k
        chi = alternating_chirotope(r, n)
        w = disjoint_cocircuit_construction(chi, k)
        assert w.verified and w.k >= k
        assert w.method == "disjoint-cocircuits"
        assert recheck(chi, w) >= k

    def test_wrong_n_rejected(self):
        with pytest.raises(DomainError):
            disjoint_cocircuit_construction(alternating_chirotope(5, 7), 2)

    def test_k_below_two_rejected(self):
        with pytest.raises(DomainError):
            disjoint_cocircuit_construction(alternating_chirotope(5, 6), 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_uniform_class(self, seed):
        chi = random_realizable(5, 6, seed=seed)
        w = disjoint_cocircuit_construction(chi, 2)
        assert w.verified and recheck(chi, w) >= 2


class TestComposite:
    @pytest.mark.parametrize("r,k,n", [(6, 2, 8), (8, 2, 11), (8, 3, 10)])
    def test_admissible_cases(self, r, k, n):
        assert n == r + (r - 1) // k
        chi = alternating_chirotope(r, n)
        w = composite_construction(chi, k)
        assert w.verified and w.k >= k
        assert w.method == "composite"
        assert recheck(chi, w) >= k

    def test_bad_residue_rejected(self):
        # r=5, k=2: beta = 0 falls below ceil((k-1)/2) = 1
        with pytest.raises(DomainError):
            composite_construction(alternating_chirotope(5, 7), 2)

    def test_wrong_n_rejected(self):
        with pytest.raises(DomainError):
            composite_construction(alternating_chirotope(6, 9), 2)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_uniform_class(self, seed):
        chi = random_realizable(6, 8, seed=seed)
        w = composite_construction(chi, 2)
        assert w.verified and recheck(chi, w) >= 2


class TestWitnessShape:
    def test_r_set_sorted_and_in_range(self):
        chi = alternating_chirotope(6, 7)
        w = disjoint_cocircuit_construction(chi, 2)
        assert list(w.r_set) == sorted(w.r_set)
        assert all(1 <= e <= chi.n for e in w.r_set)

    def test_witness_tope_matches_r_set(self):
        t = _witness_tope(5, (2, 4))
        assert str(t) == "+-+-+"

    def test_level_reported_exactly(self):
        chi = alternating_chirotope(5, 6)
        w = disjoint_cocircuit_construction(chi, 2)
        cs = circuits_from_chirotope(chi)
        assert w.k == ort(cs, _witness_tope(6, w.r_set)) - 1
