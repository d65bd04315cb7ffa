import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orimat import (
    CircuitSet,
    DomainError,
    EmptyCircuitSetError,
    SignVector,
    alternating_chirotope,
    circuits_from_chirotope,
    cocircuits,
    enumerate_topes,
    ort,
    parse_chirotope,
    random_realizable,
)
from orimat.circuits import circuit_minus
from orimat.harness import minor_minus

from conftest import (
    check_circuit_axioms,
    circuit_masks_oracle,
    face_oracle,
    minor_sources,
    serialize_colex,
    with_antipodes,
)


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
        assert check_circuit_axioms(with_antipodes(cs))

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
        assert check_circuit_axioms(with_antipodes(cs))


class TestIsFace:
    def setup_method(self):
        self.cs = circuits_from_chirotope(alternating_chirotope(3, 5))

    def test_last_element_is_face(self):
        assert face_oracle(self.cs, {5})

    def test_two_gap_set_is_not(self):
        assert not face_oracle(self.cs, {2, 4})

    def test_empty_set_is_face(self):
        for r, n in [(3, 5), (4, 6), (2, 5)]:
            assert face_oracle(circuits_from_chirotope(alternating_chirotope(r, n)), set())

    def test_out_of_range_element(self):
        with pytest.raises(DomainError):
            face_oracle(self.cs, {6})

    @pytest.mark.parametrize(
        "chi",
        [random_realizable(r, n, seed=n) for r, n in [(3, 6), (4, 7), (5, 8)]]
        + [alternating_chirotope(4, 7)],
        ids=["random(3,6)", "random(4,7)", "random(5,8)", "C_4(7)"],
    )
    def test_masks_match_per_circuit_oracle(self, chi):
        # F of at most r elements is a face of the reorientation whose tope
        # is T iff every flip of T on a subset of F is a tope, by ort; a
        # larger F can hold a circuit's support, which no flip on F escapes
        cs = circuits_from_chirotope(chi)
        t = next(iter(enumerate_topes(cs)))
        cs_reoriented = circuits_from_chirotope(chi.reorient(t.minus_elements))
        verdicts = set()
        for size in range(chi.r + 1):
            for f in itertools.combinations(range(1, chi.n + 1), size):
                expected = all(
                    ort(cs, t.reorient(flip)) > 0
                    for d in range(size + 1)
                    for flip in itertools.combinations(f, d)
                )
                assert face_oracle(cs_reoriented, set(f)) == expected, f
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
                    face_oracle(cs_reoriented, f)
                    for size in range(k + 1)
                    for f in itertools.combinations(range(1, n + 1), size)
                )
                via_ort = ort(cs_base, tope) >= k + 1
                assert via_faces == via_ort


@settings(max_examples=80, deadline=None)
@given(minor_sources(), st.data())
def test_minor_masks_are_the_circuits_of_the_gathered_minors(chi, data):
    # the audit's minor masks, taken from M's circuits, against
    # ``circuit_minus`` of each minor's gathered signs, byte for byte, for
    # elements in any order
    r, n = chi.r, chi.n
    elements = np.array(data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(1, n))])
    minus = circuit_minus(r, n, chi.signs)
    deleted = np.stack([chi.delete(e).signs for e in elements.tolist()])
    contracted = np.stack([chi.contract(e).signs for e in elements.tolist()])
    for contract, want in ((False, circuit_minus(r, n - 1, deleted)), (True, circuit_minus(r - 1, n - 1, contracted))):
        got = minor_minus(r, n, minus, elements, contract)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), contract
