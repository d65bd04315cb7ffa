"""Procedures producing k-neighborly reorientations: exhaustive search, the
disjoint-cocircuit construction, and the composite (partition + contraction)
construction.  ``_verify`` counts every witness's level with the exact ort
kernel, itself tested against the scalar oracle, and refuses a witness below
k (signs that are no oriented matroid) with ``FormatError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chirotope import Chirotope
from .circuits import CircuitSet, circuits_from_chirotope, cocircuits
from .errors import DomainError, FormatError
from .neighborly import check_cell, first_index_at_least, ort
from .signvec import SignVector, _elements_from_mask, _mask_from_elements


@dataclass(frozen=True)
class ReorientationWitness:
    """A reorientation set R and its level k, counted by ``_verify``."""

    r_set: tuple[int, ...]
    k: int
    method: str  # search | disjoint-cocircuits | composite


def _witness_tope(n: int, r_set) -> SignVector:
    """The tope that is negative exactly on R."""
    minus = _mask_from_elements(r_set, n)
    return SignVector(n, ((1 << n) - 1) & ~minus, minus)


def _verify(cs: CircuitSet, r_set, method: str, k: int) -> ReorientationWitness:
    """The witness R of ``method`` at its level ort - 1 on the circuits
    ``cs``; a level below ``k`` raises ``FormatError``."""
    r_set = tuple(sorted(r_set))
    level = ort(cs, _witness_tope(cs.n, r_set)) - 1
    if level < k:
        shown = ",".join(map(str, r_set)) or "-"
        raise FormatError(
            f"{method} witness R={shown} reaches level {level} < k={k}; wrong base order or corrupt data"
        )
    return ReorientationWitness(r_set, level, method)


def _minus_on_support(cs: CircuitSet, support) -> tuple[int, ...]:
    """Negative elements of the member of ``cs`` with the given support."""
    mask = np.uint64(_mask_from_elements(support, cs.n))
    (index,) = np.flatnonzero((cs.plus | cs.minus) == mask)
    return _elements_from_mask(int(cs.minus[index]))


def search_k_neighborly(chi: Chirotope, k: int) -> ReorientationWitness | None:
    """First tope (in enumeration order, element 1 positive) with ort >= k+1,
    reported as R = T^-; None iff m(chi, k) = 0."""
    check_cell(chi.r, chi.n, k)
    cs = circuits_from_chirotope(chi)
    index = first_index_at_least(cs, k + 1)
    if index is None:
        return None
    return _verify(cs, _elements_from_mask(index << 1), "search", k)


def disjoint_cocircuit_construction(chi: Chirotope, k: int) -> ReorientationWitness:
    """Reorient so that k+1 cocircuits with pairwise disjoint supports become
    positive; every k-set then misses one of them and is a face.

    Requires n = r-1+floor((r-1)/k), where cocircuit supports have size
    floor((r-1)/k) and k+1 disjoint supports fit; chunks are chosen as the
    leftmost consecutive blocks for determinism.
    """
    check_cell(chi.r, chi.n, k, lo=2)
    s = (chi.r - 1) // k
    if chi.n != chi.r - 1 + s:
        raise DomainError(
            f"construction needs n = r-1+floor((r-1)/k) = {chi.r - 1 + s}, got n={chi.n}"
        )
    cs = cocircuits(chi)
    r_set: set[int] = set()
    for i in range(k + 1):
        r_set.update(_minus_on_support(cs, range(i * s + 1, (i + 1) * s + 1)))
    return _verify(circuits_from_chirotope(chi), r_set, "disjoint-cocircuits", k)


def composite_construction(chi: Chirotope, k: int) -> ReorientationWitness:
    """Partition the ground set, make each contracted part 1-neighborly by
    exhaustive search, and assemble the union (plus one positive cocircuit for
    even k) into a k-neighborly reorientation.

    Requires n = r+floor((r-1)/k) and r-1 = alpha*k + beta with
    beta in {ceil((k-1)/2), ..., k-1}.
    """
    check_cell(chi.r, chi.n, k, lo=2)
    r = chi.r
    alpha, beta = divmod(r - 1, k)
    if chi.n != r + alpha:
        raise DomainError(
            f"construction needs n = r+floor((r-1)/k) = {r + alpha}, got n={chi.n}"
        )
    if beta < -(-(k - 1) // 2):
        raise DomainError(f"residue beta={beta} outside [{-(-(k - 1) // 2)}, {k - 1}]")
    # identity layout: A_i are consecutive alpha-chunks, B the last beta+1 elements
    a_parts = [
        tuple(range(i * alpha + 1, (i + 1) * alpha + 1)) for i in range(k + 1)
    ]
    b_part = tuple(range((k + 1) * alpha + 1, chi.n + 1))
    r_set: set[int] = set()
    for i in range(1, (k + 1) // 2 + 1):
        d_i = a_parts[2 * i - 2] + a_parts[2 * i - 1] + (b_part[i - 1],)
        outside = [e for e in range(1, chi.n + 1) if e not in d_i]
        minor, labels = chi.contract_set(outside)
        inner = search_k_neighborly(minor, 1)
        if inner is None:
            raise FormatError(
                f"composite: the contraction to {','.join(map(str, d_i))} has no 1-neighborly "
                "reorientation; wrong base order or corrupt data"
            )
        r_set.update(labels[e - 1] for e in inner.r_set)
    if k % 2 == 0:
        d_last = a_parts[k] + (b_part[k // 2],)
        r_set.update(_minus_on_support(cocircuits(chi), d_last))
    return _verify(circuits_from_chirotope(chi), r_set, "composite", k)
