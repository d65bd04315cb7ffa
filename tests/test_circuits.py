import itertools
from math import comb

import numpy as np
import pytest

from orimat import (
    CircuitSet,
    DomainError,
    EmptyCircuitSetError,
    SignVector,
    alternating_chirotope,
    check_circuit_axioms,
    circuits_from_chirotope,
    cocircuits,
    is_face,
    ort,
    parse_chirotope,
    random_realizable,
)

from conftest import circuit_masks_oracle, face_oracle, serialize_colex


class TestCircuitsFromChirotope:
    @pytest.mark.parametrize("r,n", [(3, 6), (4, 8), (5, 9), (6, 12)])
    @pytest.mark.parametrize("order", ["lex", "colex"])
    def test_table_matches_per_subset_oracle(self, r, n, order):
        for seed in range(3):
            chi = random_realizable(r, n, seed=seed)
            text = chi.serialize() if order == "lex" else serialize_colex(chi)
            parsed = parse_chirotope(text, r, n, base_order=order)
            assert parsed == chi
            cs = circuits_from_chirotope(parsed)
            assert list(zip(cs.plus.tolist(), cs.minus.tolist())) == circuit_masks_oracle(chi)
            assert [(x.plus, x.minus) for x in cs.members] == circuit_masks_oracle(chi)

    def test_alternating_single_circuit(self):
        cs = circuits_from_chirotope(alternating_chirotope(3, 4))
        assert [str(x) for x in cs.members] == ["+-+-"]

    def test_reoriented_circuit_normalized(self):
        chi = alternating_chirotope(3, 4).reorient([1])
        cs = circuits_from_chirotope(chi)
        assert [str(x) for x in cs.members] == ["++-+"]

    def test_empty_at_n_equals_r(self):
        cs = circuits_from_chirotope(alternating_chirotope(4, 4))
        assert cs.empty
        with pytest.raises(EmptyCircuitSetError):
            cs.require_nonempty()

    def test_supports_cover_all_subsets(self):
        cs = circuits_from_chirotope(alternating_chirotope(3, 6))
        supports = {x.support for x in cs.members}
        assert supports == set(itertools.combinations(range(1, 7), 4))
        assert len(cs.members) == comb(6, 4)

    def test_normalization(self):
        chi = random_realizable(4, 7, seed=2)
        for x in circuits_from_chirotope(chi).members:
            assert x.sign(x.support[0]) == 1

    def test_alternating_circuits_alternate(self):
        cs = circuits_from_chirotope(alternating_chirotope(4, 7))
        for x in cs.members:
            signs = [x.sign(e) for e in x.support]
            assert all(a == -b for a, b in zip(signs, signs[1:]))

    @pytest.mark.parametrize("seed", range(4))
    def test_recurrence_soundness(self, seed):
        chi = random_realizable(3, 6, seed=seed)
        for x in circuits_from_chirotope(chi).members:
            sup = x.support
            for i in range(len(sup) - 1):
                b = tuple(e for e in sup if e != sup[i])
                b_next = tuple(e for e in sup if e != sup[i + 1])
                assert chi.sign_of_sorted(b) == (
                    -x.sign(sup[i]) * x.sign(sup[i + 1]) * chi.sign_of_sorted(b_next)
                )

    def test_reorientation_commutes(self):
        chi = random_realizable(3, 7, seed=8)
        r_set = [1, 4, 6]
        lhs = {
            str(y)
            for x in circuits_from_chirotope(chi.reorient(r_set)).members
            for y in (x, -x)
        }
        rhs = {
            str(x.reorient(r_set))
            for c in circuits_from_chirotope(chi).members
            for x in (c, -c)
        }
        assert lhs == rhs


class TestCircuitSetMasks:
    """Masks that are not the normalized circuits in lex support order are
    refused: the enumeration sorts circuits by their lex position and the
    level-bit table reads one pattern per lex support, so such masks gave
    silently wrong counts, (4,8)'s o-vector (124, 4) coming out (24, 0)
    when permuted and (92, 0) with plus and minus swapped."""

    @pytest.mark.parametrize("r,n", [(4, 8), (6, 12)])
    def test_permuted_circuits_refused(self, r, n):
        cs = circuits_from_chirotope(random_realizable(r, n, seed=0))
        p = np.random.default_rng(0).permutation(len(cs.plus))
        with pytest.raises(DomainError, match="lex order"):
            CircuitSet(n, r, cs.plus[p], cs.minus[p])

    def test_swapped_signs_refused(self):
        cs = circuits_from_chirotope(random_realizable(4, 8, seed=0))
        with pytest.raises(DomainError, match="smallest element"):
            CircuitSet(8, 4, cs.minus, cs.plus)

    def test_element_in_both_refused(self):
        cs = circuits_from_chirotope(random_realizable(4, 8, seed=0))
        with pytest.raises(DomainError, match="both"):
            CircuitSet(8, 4, cs.plus | cs.minus, cs.minus)

    def test_wrong_support_refused(self):
        cs = circuits_from_chirotope(alternating_chirotope(3, 5))
        plus = cs.plus.copy()
        plus[0] |= np.uint64(1 << 4)  # {1, 2, 3, 4} gains element 5
        with pytest.raises(DomainError, match="lex order"):
            CircuitSet(5, 3, plus, cs.minus)

    def test_copy_of_derived_circuits_accepted(self):
        cs = circuits_from_chirotope(random_realizable(6, 12, seed=0))
        assert CircuitSet(12, 6, cs.plus.copy(), cs.minus.copy()) == cs


class TestCocircuits:
    def test_rank_one_dual_supports(self):
        cs = cocircuits(alternating_chirotope(5, 6))
        assert {x.support for x in cs.members} == set(
            itertools.combinations(range(1, 7), 2)
        )

    def test_support_size(self):
        cs = cocircuits(alternating_chirotope(3, 5))
        assert all(len(x.support) == 3 for x in cs.members)

    def test_equals_circuits_of_dual(self):
        chi = random_realizable(3, 6, seed=4)
        assert cocircuits(chi) == circuits_from_chirotope(chi.dual())


class TestAxiomOracle:
    def test_alternating_passes(self):
        cs = circuits_from_chirotope(alternating_chirotope(3, 4))
        assert check_circuit_axioms(cs.with_antipodes())

    def test_broken_c2_fails(self):
        a = SignVector.from_string("++0")
        b = SignVector.from_string("+-0")
        report = check_circuit_axioms((a, b, -a, -b))
        assert not report.ok
        assert any(v.startswith("C2") for v in report.violations)

    def test_c1_violation_detected(self):
        a = SignVector.from_string("++0")
        report = check_circuit_axioms((a,))
        assert any(v.startswith("C1") for v in report.violations)

    @pytest.mark.parametrize(
        "r,n,seed", [(3, 5, 0), (3, 6, 1), (4, 6, 2), (4, 7, 3), (5, 7, 4), (5, 8, 5)]
    )
    def test_generated_chirotopes_pass(self, r, n, seed):
        cs = circuits_from_chirotope(random_realizable(r, n, seed=seed))
        assert check_circuit_axioms(cs.with_antipodes())


class TestIsFace:
    def setup_method(self):
        self.cs = circuits_from_chirotope(alternating_chirotope(3, 5))

    def test_last_element_is_face(self):
        assert is_face(self.cs, {5})

    def test_two_gap_set_is_not(self):
        assert not is_face(self.cs, {2, 4})

    def test_empty_set_is_face(self):
        for r, n in [(3, 5), (4, 6), (2, 5)]:
            assert is_face(circuits_from_chirotope(alternating_chirotope(r, n)), set())

    def test_out_of_range_element(self):
        with pytest.raises(DomainError):
            is_face(self.cs, {6})

    @pytest.mark.parametrize(
        "chi",
        [random_realizable(r, n, seed=n) for r, n in [(3, 6), (4, 7), (5, 8)]]
        + [alternating_chirotope(4, 7)],
        ids=["random(3,6)", "random(4,7)", "random(5,8)", "C_4(7)"],
    )
    def test_masks_match_per_circuit_oracle(self, chi):
        cs = circuits_from_chirotope(chi)
        verdicts = set()
        for f_mask in range(1 << chi.n):
            f_set = {e for e in range(1, chi.n + 1) if f_mask >> (e - 1) & 1}
            expected = face_oracle(cs, f_set)
            assert is_face(cs, f_set) == expected, f_set
            verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("r,n", [(3, 5), (3, 6), (4, 6), (4, 7)])
    def test_neighborliness_definitions_agree(self, r, n):
        # k-neighborly via faces == ort threshold, over all reorientations
        chi0 = alternating_chirotope(r, n)
        full = (1 << n) - 1
        for minus in range(1 << (n - 1)):
            tope = SignVector(n, full & ~(minus << 1), minus << 1)
            cs_reoriented = circuits_from_chirotope(
                chi0.reorient(tope.minus_elements)
            )
            cs_base = circuits_from_chirotope(chi0)
            for k in range((r - 1) // 2 + 1):
                via_faces = all(
                    is_face(cs_reoriented, f)
                    for size in range(k + 1)
                    for f in itertools.combinations(range(1, n + 1), size)
                )
                via_ort = ort(cs_base, tope) >= k + 1
                assert via_faces == via_ort
