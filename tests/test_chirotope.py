import itertools
from math import comb

import pytest

from orimat import (
    Chirotope,
    DomainError,
    FormatError,
    NonUniformError,
    alternating_chirotope,
    check_circuit_axioms,
    circuits_from_chirotope,
    from_points,
    orthogonality_degree,
    parse_chirotope,
    random_realizable,
)

from conftest import contract_oracle, delete_oracle, dual_oracle, reorient_oracle


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
        assert odd.reorient(range(1, 7)).signs == tuple(-s for s in odd.signs)

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
            assert lhs.signs in (rhs.signs, tuple(-s for s in rhs.signs))

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
        assert chi.dual().signs == dual_oracle(chi)
        for e in range(1, n + 1):
            assert chi.delete(e).signs == delete_oracle(chi, e), e
            assert chi.contract(e).signs == contract_oracle(chi, e), e
        for r_set in [(), (1,), (2, 5), (1, 3, n), tuple(range(1, n + 1))]:
            assert chi.reorient(r_set).signs == reorient_oracle(chi, r_set), r_set


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
        assert check_circuit_axioms(cs.with_antipodes())

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
