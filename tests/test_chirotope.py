import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orimat import (
    Chirotope,
    DomainError,
    FormatError,
    NonUniformError,
    alternating_chirotope,
    circuits_from_chirotope,
    from_points,
    orthogonality_degree,
    parse_chirotope,
    random_realizable,
)

from conftest import (
    CORRUPT_7_9,
    check_circuit_axioms,
    contract_chain_oracle,
    contract_oracle,
    delete_oracle,
    dual_oracle,
    minor_sources,
    reorient_oracle,
    with_antipodes,
)


class TestAlternating:
    def test_sizes(self):
        assert alternating_chirotope(3, 5).serialize() == "+" * 10
        assert alternating_chirotope(3, 4).serialize() == "++++"
        assert alternating_chirotope(5, 5).serialize() == "+"

    def test_domain(self):
        with pytest.raises(DomainError):
            alternating_chirotope(0, 4)
        with pytest.raises(DomainError):
            alternating_chirotope(5, 4)
        # C(100, 30) signs could never be allocated: the shape check comes first
        with pytest.raises(DomainError, match=r"invalid rank/size \(30, 100\)"):
            alternating_chirotope(30, 100)


class TestEvalBasis:
    def test_sorted_tuple(self):
        assert alternating_chirotope(3, 5).eval_basis((1, 2, 3)) == 1

    def test_transposition_flips(self):
        assert alternating_chirotope(3, 5).eval_basis((2, 1, 3)) == -1

    def test_repeat_is_zero(self):
        assert alternating_chirotope(3, 5).eval_basis((1, 1, 3)) == 0

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            alternating_chirotope(3, 5).eval_basis((1, 2))

    def test_full_alternation(self):
        chi = random_realizable(3, 5, seed=1)
        for perm in itertools.permutations((2, 4, 5)):
            inv = sum(
                1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
            )
            expected = chi.sign_of_sorted((2, 4, 5)) * (-1) ** inv
            assert chi.eval_basis(perm) == expected


class TestReorient:
    def test_empty_set(self):
        chi = alternating_chirotope(3, 4)
        assert chi.reorient([]) == chi

    def test_single_element(self):
        assert alternating_chirotope(3, 4).reorient([1]).serialize() == "---+"

    def test_full_set_parity(self):
        even = alternating_chirotope(4, 6)
        assert even.reorient(range(1, 7)) == even
        odd = alternating_chirotope(3, 6)
        assert tuple(odd.reorient(range(1, 7)).signs.tolist()) == tuple(-s for s in odd.signs.tolist())

    def test_involution(self):
        chi = random_realizable(4, 6, seed=3)
        assert chi.reorient([2, 5]).reorient([2, 5]) == chi


class TestDual:
    def test_rank(self):
        d = alternating_chirotope(3, 5).dual()
        assert (d.r, d.n) == (2, 5)

    def test_identity_permutation_sign(self):
        d = alternating_chirotope(3, 5).dual()
        assert d.sign_of_sorted((1, 2)) == 1

    def test_one_inversion(self):
        d = alternating_chirotope(3, 5).dual()
        # chi*(1,3) = chi(2,4,5) * sign(1,3,2,4,5) = -1
        assert d.sign_of_sorted((1, 3)) == -1

    def test_degenerate(self):
        with pytest.raises(DomainError):
            alternating_chirotope(4, 4).dual()

    @pytest.mark.parametrize("seed", range(3))
    def test_circuit_cocircuit_orthogonality(self, seed):
        chi = random_realizable(3, 6, seed=seed)
        for x in circuits_from_chirotope(chi).members:
            for y in circuits_from_chirotope(chi.dual()).members:
                sep, agr, _ = orthogonality_degree(x, y)
                assert (sep == 0) == (agr == 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_delete_contract_exchange(self, seed):
        chi = random_realizable(4, 7, seed=seed)
        for e in (1, 4, 7):
            lhs = chi.delete(e).dual()
            rhs = chi.dual().contract(e)
            rhs_signs = tuple(rhs.signs.tolist())
            assert tuple(lhs.signs.tolist()) in (rhs_signs, tuple(-s for s in rhs_signs))

    def test_reorient_commutes_with_dual_on_circuits(self):
        chi = random_realizable(3, 6, seed=11)
        r_set = [2, 5]
        lhs = {
            str(x)
            for c in circuits_from_chirotope(chi.reorient(r_set).dual()).members
            for x in (c, -c)
        }
        rhs = {
            str(x.reorient(r_set))
            for c in circuits_from_chirotope(chi.dual()).members
            for x in (c, -c)
        }
        assert lhs == rhs


class TestTableDrivenAgainstOracles:
    @pytest.mark.parametrize("r,n", [(4, 8), (5, 9), (6, 12), (7, 11)])
    def test_minors_and_reorientation(self, r, n):
        chi = random_realizable(r, n, seed=r * n)
        assert tuple(chi.dual().signs.tolist()) == dual_oracle(chi)
        for e in range(1, n + 1):
            assert tuple(chi.delete(e).signs.tolist()) == delete_oracle(chi, e), e
            assert tuple(chi.contract(e).signs.tolist()) == contract_oracle(chi, e), e
        for r_set in [(), (1,), (2, 5), (1, 3, n), tuple(range(1, n + 1))]:
            assert tuple(chi.reorient(r_set).signs.tolist()) == reorient_oracle(chi, r_set), r_set


class TestMinors:
    def test_delete_alternating(self):
        assert alternating_chirotope(3, 5).delete(5) == alternating_chirotope(3, 4)
        assert alternating_chirotope(3, 5).delete(1) == alternating_chirotope(3, 4)

    def test_delete_rank_collapse(self):
        with pytest.raises(DomainError):
            alternating_chirotope(3, 3).delete(1)

    def test_contract_alternating(self):
        assert alternating_chirotope(3, 5).contract(1) == alternating_chirotope(2, 4)
        assert alternating_chirotope(2, 4).contract(1) == alternating_chirotope(1, 3)

    def test_contract_rank_collapse(self):
        with pytest.raises(DomainError):
            alternating_chirotope(1, 3).contract(1)

    def test_contract_set_labels(self):
        chi = alternating_chirotope(4, 7)
        minor, labels = chi.contract_set([2, 5])
        assert (minor.r, minor.n) == (2, 5)
        assert labels == (1, 3, 4, 6, 7)

    @pytest.mark.parametrize("bad", [0, 8])
    def test_contract_set_refuses_an_element_outside_the_ground_set(self, bad):
        with pytest.raises(DomainError, match=rf"^element {bad} outside ground set \[1\.\.7\]$"):
            alternating_chirotope(4, 7).contract_set([2, bad])

    def test_contract_set_rank_collapse(self):
        with pytest.raises(DomainError, match="^contraction would collapse the rank$"):
            alternating_chirotope(4, 7).contract_set([1, 2, 3, 4])

    @settings(max_examples=80, deadline=None)
    @given(minor_sources(), st.data())
    def test_contract_set_is_the_chain_of_single_contractions(self, chi, data):
        size = data.draw(st.integers(0, chi.r - 1))
        elements = data.draw(st.lists(st.integers(1, chi.n), min_size=size, max_size=size, unique=True))
        minor, labels = chi.contract_set(elements)
        chain, chain_labels = contract_chain_oracle(chi, elements)
        assert (minor.n, minor.r, labels) == (chain.n, chain.r, chain_labels)
        assert minor.signs.tobytes() == chain.signs.tobytes()

    def test_contract_set_of_the_corrupt_line_is_the_chain(self):
        # every set of up to r-1 elements of (7, 9) signs that are no chirotope
        chi = parse_chirotope(CORRUPT_7_9, 7, 9)
        for size in range(7):
            for elements in itertools.combinations(range(1, 10), size):
                minor, labels = chi.contract_set(elements)
                chain, chain_labels = contract_chain_oracle(chi, elements)
                assert labels == chain_labels and minor.signs.tobytes() == chain.signs.tobytes(), elements


class TestFromPoints:
    def test_identity_matrix(self):
        chi = from_points([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert chi.sign_of_sorted((1, 2, 3)) == 1

    def test_moment_curve_is_alternating(self):
        coords = [[1, t, t * t] for t in range(1, 6)]
        assert from_points(coords) == alternating_chirotope(3, 5)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            from_points([[1, 0], [1, 0], [0, 1]])

    def test_row_swap_is_relabelling(self):
        coords = [[1, t, t * t] for t in (1, 3, 4, 7)]
        chi = from_points(coords)
        swapped = from_points([coords[1], coords[0], coords[2], coords[3]])
        relabel = {1: 2, 2: 1, 3: 3, 4: 4}
        for subset in itertools.combinations(range(1, 5), 3):
            mapped = tuple(relabel[e] for e in subset)
            assert swapped.sign_of_sorted(subset) == chi.eval_basis(mapped)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_satisfy_circuit_axioms(self, seed):
        chi = random_realizable(3, 6, seed=seed)
        cs = circuits_from_chirotope(chi)
        assert check_circuit_axioms(with_antipodes(cs))

    def test_seeded_reproducible(self):
        assert random_realizable(3, 5, seed=42) == random_realizable(3, 5, seed=42)


class TestParseSerialize:
    def test_round_trip(self):
        chi = random_realizable(3, 6, seed=5)
        assert parse_chirotope(chi.serialize(), 3, 6) == chi

    def test_parse_alternating(self):
        assert parse_chirotope("++++", 3, 4) == alternating_chirotope(3, 4)

    def test_wrong_length(self):
        with pytest.raises(FormatError):
            parse_chirotope("+" * 9, 3, 4)

    def test_zero_rejected(self):
        with pytest.raises(NonUniformError):
            parse_chirotope("++0+", 3, 4)

    def test_bad_character(self):
        with pytest.raises(FormatError):
            parse_chirotope("++x+", 3, 4)

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("++0+", NonUniformError, "non-uniform chirotopes (containing '0') are unsupported"),
            ("+0x+", NonUniformError, "non-uniform chirotopes (containing '0') are unsupported"),
            ("+x-y", FormatError, "invalid characters ['x', 'y'] in chirotope text"),
            ("+\u00e9+\x00", FormatError, "invalid characters ['\\x00', '\u00e9'] in chirotope text"),
        ],
    )
    def test_error_messages(self, text, error, message):
        with pytest.raises(error) as info:
            parse_chirotope(text, 3, 4)
        assert str(info.value) == message

    def test_colex_reordering(self):
        chi = random_realizable(2, 4, seed=9)
        subsets_lex = list(itertools.combinations(range(1, 5), 2))
        subsets_colex = sorted(subsets_lex, key=lambda s: tuple(reversed(s)))
        colex_text = "".join(
            "+" if chi.sign_of_sorted(s) > 0 else "-" for s in subsets_colex
        )
        assert parse_chirotope(colex_text, 2, 4, base_order="colex") == chi


class TestSignArray:
    def test_any_sequence_of_signs_gives_one_chirotope(self):
        signs = random_realizable(4, 7, seed=2).signs.tolist()
        chis = [Chirotope(7, 4, tuple(signs)), Chirotope(7, 4, signs), Chirotope(7, 4, np.array(signs, dtype=np.int8))]
        assert chis[0] == chis[1] == chis[2]
        assert len({hash(chi) for chi in chis}) == 1
        assert all(chi.signs.dtype == np.int8 and chi.signs.tolist() == signs for chi in chis)

    def test_unequal_chirotopes(self):
        chi = alternating_chirotope(3, 4)
        assert chi != chi.reorient([1])
        assert alternating_chirotope(1, 4) != alternating_chirotope(3, 4)
        assert chi != "++++"

    def test_signs_read_only(self):
        chi = alternating_chirotope(3, 5)
        assert not chi.signs.flags.writeable
        with pytest.raises(ValueError):
            chi.signs[0] = -1

    def test_caller_array_copied(self):
        signs = np.ones(4, dtype=np.int8)
        chi = Chirotope(4, 3, signs)
        signs[0] = -1
        assert chi.serialize() == "++++" and chi == alternating_chirotope(3, 4)

    @pytest.mark.parametrize(
        "signs,error,message",
        [
            ((1, 2, 1, 1), NonUniformError, r"chirotope signs must be \+1/-1 \(uniform only\)"),
            ([1, 1, 0, -1], NonUniformError, r"chirotope signs must be \+1/-1 \(uniform only\)"),
            (np.array([1.5, 1, 1, 1]), NonUniformError, r"chirotope signs must be \+1/-1 \(uniform only\)"),
            (np.ones((2, 2), dtype=np.int8), DomainError, "expected 4 signs, got 2"),
            ((1, 1, 1), DomainError, "expected 4 signs, got 3"),
        ],
    )
    def test_bad_signs_refused(self, signs, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Chirotope(4, 3, signs)

    def test_evaluation_returns_int(self):
        chi = random_realizable(3, 5, seed=4)
        assert type(chi.sign_of_sorted((1, 2, 4))) is int
        assert type(chi.eval_basis((4, 1, 2))) is int


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7).flatmap(lambda r: st.tuples(st.just(r), st.integers(r, 12))), st.integers(0, 1 << 32))
def test_text_and_tuple_round_trip(shape, seed):
    r, n = shape
    chi = random_realizable(r, n, seed)
    assert parse_chirotope(chi.serialize(), r, n) == chi
    assert Chirotope(n, r, tuple(chi.signs.tolist())) == chi
