import itertools
from math import comb

import numpy as np
import pytest

from orimat import SignVector, neighborly, orthogonality_degree


def all_full_vectors(n):
    """Every zero-free sign vector of length n."""
    full = (1 << n) - 1
    for minus in range(1 << n):
        yield SignVector(n, full & ~minus, minus)


def ort_oracle(members, t):
    """Brute-force ort via the scalar degree, independent of the vectorized
    enumeration path."""
    return min(orthogonality_degree(x, t).degree for x in members)


def o_vector_oracle(cs):
    """o-vector by enumerating all 2^n full sign vectors (no halving)."""
    kmax = (cs.r - 1) // 2
    entries = [0] * (kmax + 1)
    for t in all_full_vectors(cs.n):
        o = ort_oracle(cs.members, t)
        if o > 0:
            entries[min(o - 1, kmax)] += 1
    return tuple(entries)


def circuit_masks_oracle(chi):
    """(plus, minus) mask pairs of the normalized circuits, one support at a
    time through per-subset lex ranks: the reference for the table-driven
    derivation."""
    masks = []
    for support in itertools.combinations(range(1, chi.n + 1), chi.r + 1):
        signs = [1]
        for i in range(chi.r):
            b = chi.sign_of_sorted(support[:i] + support[i + 1 :])
            b_next = chi.sign_of_sorted(support[: i + 1] + support[i + 2 :])
            signs.append(-signs[-1] * b * b_next)
        plus = minus = 0
        for e, s in zip(support, signs):
            if s > 0:
                plus |= 1 << (e - 1)
            else:
                minus |= 1 << (e - 1)
        masks.append((plus, minus))
    return masks


def first_index_oracle(cs, level):
    """Enumeration index of the first sign vector with element 1 positive
    whose scalar ort is at least ``level``, one candidate at a time."""
    full = (1 << cs.n) - 1
    for index in range(1 << (cs.n - 1)):
        minus = index << 1
        if ort_oracle(cs.members, SignVector(cs.n, full & ~minus, minus)) >= level:
            return index
    return None


def full_sweep_orts(cs):
    """ort of every sign vector with element 1 positive, in enumeration
    order: all 2^(n-1) candidates against all circuits through the uint64
    mask producer, the full sweep that the growth fold replaces beyond small
    sizes and an independent check on the dense table."""
    masks = np.arange(1 << (cs.n - 1), dtype=np.uint64) << np.uint64(1)
    return neighborly._ort_masks(cs.plus, cs.minus, masks, cs.r + 1)


def pattern_orts_oracle(r, n):
    """min(sep, r+1-sep) of every candidate (element 1 +, minus-mask 2j)
    against a circuit on every (r+1)-support of [n], in lex order, carrying
    every sign pattern p with bit 0 clear (bit i set: the support's i-th
    element is -), as an array (supports, patterns, candidates).  The
    separations are counted one support element at a time."""
    j = np.arange(1 << (n - 1))
    p = np.arange(0, 1 << (r + 1), 2)[:, None]
    out = []
    for support in itertools.combinations(range(n), r + 1):
        sep = sum(((p >> i) & 1) != ((2 * j >> e) & 1) for i, e in enumerate(support))
        out.append(np.minimum(sep, r + 1 - sep))
    return np.array(out)


def face_oracle(cs, f_set):
    """Las Vergnas face test one circuit at a time through the scalar
    degree: the vector positive off F and zero on F is orthogonal to every
    circuit (separations and agreements both zero or both nonzero)."""
    f_mask = sum(1 << (e - 1) for e in f_set)
    y = SignVector(cs.n, ((1 << cs.n) - 1) & ~f_mask, 0)
    for x in cs.members:
        sep, agr, _ = orthogonality_degree(x, y)
        if (sep == 0) != (agr == 0):
            return False
    return True


def ball_oracle(cs, t, k):
    """Every flip of 1..k coordinates of t is a tope, by the scalar ort."""
    return all(
        ort_oracle(cs.members, t.reorient(flip)) > 0
        for d in range(1, k + 1)
        for flip in itertools.combinations(range(1, cs.n + 1), d)
    )


# Per-subset minors and reorientation: the references for the table-driven
# Chirotope methods.  Each returns the signs in lex order.


def reorient_oracle(chi, r_set):
    return tuple(
        chi.sign_of_sorted(s) * (-1) ** sum(1 for e in s if e in r_set)
        for s in itertools.combinations(range(1, chi.n + 1), chi.r)
    )


def dual_oracle(chi):
    ground = set(range(1, chi.n + 1))
    signs = []
    for subset in itertools.combinations(range(1, chi.n + 1), chi.n - chi.r):
        complement = tuple(sorted(ground - set(subset)))
        inversions = sum(1 for a in subset for b in complement if a > b)
        signs.append(chi.sign_of_sorted(complement) * (-1) ** inversions)
    return tuple(signs)


def delete_oracle(chi, e):
    return tuple(
        chi.sign_of_sorted(tuple(x if x < e else x + 1 for x in subset))
        for subset in itertools.combinations(range(1, chi.n), chi.r)
    )


def contract_oracle(chi, e):
    return tuple(
        chi.eval_basis((e,) + tuple(x if x < e else x + 1 for x in subset))
        for subset in itertools.combinations(range(1, chi.n), chi.r - 1)
    )


def serialize_colex(chi):
    """Chirotope text with r-subsets in colexicographic order."""
    subsets = sorted(
        itertools.combinations(range(1, chi.n + 1), chi.r), key=lambda s: s[::-1]
    )
    return "".join("+" if chi.sign_of_sorted(s) > 0 else "-" for s in subsets)


@pytest.fixture(scope="session")
def circuit_cache():
    from orimat.cyclic import alternating_circuits

    return alternating_circuits


@pytest.fixture
def c_values_off_by_1000(monkeypatch):
    """Every c-value that a ``CValueTable`` computes comes out 1000 too
    large, and the module memo starts empty so no correct entry survives."""
    from orimat import cyclic

    compute = cyclic.CValueTable._compute

    def wrong(self, r, n, k):
        return cyclic.CEntry(compute(self, r, n, k).value + 1000, "wrong")

    monkeypatch.setattr(cyclic.CValueTable, "_compute", wrong)
    monkeypatch.setattr(cyclic, "_default_table", cyclic.CValueTable())
