"""Scarf complexes and homological invariants, closed-form and computed.

Betti numbers, projective dimension, and regularity can be read off any
minimal resolution; for dominant and semidominant ideals they also have
closed forms in terms of the generators alone. Every closed form here is
cross-checkable against the resolution-derived values, and the report
records which route produced each number; `invariants_with_cross_check`
computes both routes and raises if they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .cancellation import minimize_generic
from .dominance import _dominance_split, _largest_dominant_subset_with, classify
from .monomials import IdealError, MonomialIdeal, lcm
from .taylor import (
    Face,
    Resolution,
    _face_from_mask,
    _mdeg_by_mask,
    _subsets_by_lcm,
    build_taylor,
    strip_trailing_zeros,
)
from .verify import OracleDisagreementError, betti_oracle, minimality_check


@dataclass(frozen=True)
class InvariantsReport:
    """Betti numbers, projective dimension, regularity, and their sources."""

    betti: tuple[int, ...]
    pd: int
    reg: int
    sources: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if self.betti[0] != 1:
            raise IdealError("betti[0] must be 1")
        if self.pd != len(self.betti) - 1 or self.betti[self.pd] == 0:
            raise IdealError("pd must index the last nonzero Betti number")

    def source_of(self, which: str) -> str:
        return dict(self.sources)[which]


def _sources(tag: str) -> tuple[tuple[str, str], ...]:
    return (("betti", tag), ("pd", tag), ("reg", tag))


def scarf_complex(ideal: MonomialIdeal) -> list[Face]:
    """Faces whose multidegree no other face shares, by (degree, members).

    This is the intersection of all minimal resolutions of the ideal; it
    supports a minimal resolution by itself exactly for Scarf ideals.
    """
    mdegs, classes = _subsets_by_lcm(ideal)
    faces = [_face_from_mask(masks[0], mdegs) for masks in classes if len(masks) == 1]
    return sorted(faces, key=Face.sort_key)


def scarf_face_counts(ideal: MonomialIdeal) -> tuple[int, ...]:
    counts = [0] * (len(ideal) + 1)
    for face in scarf_complex(ideal):
        counts[face.hdeg] += 1
    return strip_trailing_zeros(counts)


def is_scarf(ideal: MonomialIdeal) -> bool:
    """Operational test: minimal Betti numbers equal Scarf face counts.

    Total over every ideal the Taylor cap admits; the closed-form parity
    and divisibility criteria below cover only small nondominant counts.
    """
    return betti_oracle(ideal) == scarf_face_counts(ideal)


def betti_dominant(ideal: MonomialIdeal) -> InvariantsReport:
    """Closed-form invariants of a dominant ideal: binomial Betti numbers.

    The Taylor complex of a dominant ideal is already minimal, so
    betti[i] = C(q, i), pd = q, and reg = deg(lcm of all generators) - q.
    """
    if classify(ideal).p != 0:
        raise IdealError(
            "closed form requires a dominant ideal; use the resolution-derived"
            " path for general ideals"
        )
    return _betti_dominant(ideal)


def _betti_dominant(ideal: MonomialIdeal) -> InvariantsReport:
    q = len(ideal)
    betti = tuple(comb(q, i) for i in range(q + 1))
    reg = lcm(ideal.generators).total_degree() - q
    return InvariantsReport(betti, q, reg, _sources("closed-form (dominant)"))


def invariants_semidominant(ideal: MonomialIdeal) -> InvariantsReport:
    """Closed-form invariants of a semidominant ideal.

    With n the nondominant generator and B_j the j-subsets of the
    dominant generators whose lcm n does not divide:
    betti[i] = #B_i + #B_{i-1}; pd is the size of the largest dominant
    subset containing n; reg maximizes deg(mdeg) - size over dominant
    subsets containing n. Each dominant generator stays dominant in any
    subset (dominance is hereditary), so S plus n is dominant iff n does
    not divide lcm(S), iff S is in B: one pass over the subsets of the
    dominant generators counts B and, adding n, finds reg. pd is read
    from `largest_dominant_subset_with` and must equal len(betti) - 1.
    Subset lcms are read from one table of all 2^q, so the Taylor cap
    applies.
    """
    (n_index,), _ = _dominance_split(
        ideal, 1, "closed form requires a semidominant ideal"
    )
    return _invariants_semidominant(ideal, n_index)


def _invariants_semidominant(ideal: MonomialIdeal, n_index: int) -> InvariantsReport:
    n = ideal.generators[n_index]
    n_bit = 1 << n_index
    mdegs = _mdeg_by_mask(ideal)

    # The empty subset comes first: n never divides 1, and {n} is dominant.
    b_counts = [0] * len(ideal)
    reg = 0
    for mask in range(1 << len(ideal)):
        if mask & n_bit or n.divides(mdegs[mask]):
            continue
        size = mask.bit_count()
        b_counts[size] += 1
        reg = max(reg, mdegs[mask | n_bit].total_degree() - size - 1)

    betti = strip_trailing_zeros(a + b for a, b in zip(b_counts + [0], [0] + b_counts))
    pd, _witness = _largest_dominant_subset_with(ideal, n_index)
    if len(betti) - 1 != pd:
        raise OracleDisagreementError(
            "semidominant closed forms disagree on projective dimension"
        )
    return InvariantsReport(betti, pd, reg, _sources("closed-form (semidominant)"))


def pd_equals_two_test(ideal: MonomialIdeal) -> bool:
    """For semidominant ideals: pd = 2 iff n divides every pairwise lcm."""
    (n_index,), dominant_indices = _dominance_split(
        ideal, 1, "pairwise divisibility test requires a semidominant ideal"
    )
    gens = ideal.generators
    n = gens[n_index]
    return all(
        n.divides(gens[i].lcm(gens[j]))
        for i, j in combinations(dominant_indices, 2)
    )


_NOT_2_SEMIDOMINANT = "test requires a 2-semidominant ideal"


def scarf_parity_test_2semidominant(ideal: MonomialIdeal) -> bool:
    """A 2-semidominant ideal is Scarf iff every repeated multidegree class
    has even size (vacuously true with no repeats)."""
    _dominance_split(ideal, 2, _NOT_2_SEMIDOMINANT)
    _, classes = _subsets_by_lcm(ideal)
    return all(len(masks) % 2 == 0 for masks in classes if len(masks) >= 2)


def scarf_necessary_divisibility(ideal: MonomialIdeal) -> bool:
    """Necessary for Scarf: both nondominant generators divide the lcm of
    the dominant ones (the lcm of no dominant generators is 1)."""
    (n1, n2), dominant = _dominance_split(ideal, 2, _NOT_2_SEMIDOMINANT)
    gens = ideal.generators
    dom_lcm = lcm((gens[i] for i in dominant), vars=ideal.vars)
    return gens[n1].divides(dom_lcm) and gens[n2].divides(dom_lcm)


def scarf_sufficient_exponents(ideal: MonomialIdeal) -> bool:
    """Sufficient for Scarf: no variable has the same nonzero exponent in
    both nondominant generators."""
    (n1, n2), _ = _dominance_split(ideal, 2, _NOT_2_SEMIDOMINANT)
    a = ideal.generators[n1].exponents
    b = ideal.generators[n2].exponents
    return all(ea != eb or ea == 0 for ea, eb in zip(a, b))


def invariants_from_resolution(res: Resolution) -> InvariantsReport:
    """Read Betti numbers, pd, and reg off a minimal resolution."""
    if not minimality_check(res):
        raise IdealError(
            "resolution has invertible entries; minimize before reading invariants"
        )
    betti = strip_trailing_zeros(res.ranks())
    pd = len(betti) - 1
    reg = max(
        face.mdeg.total_degree() - face.hdeg
        for module in res.modules
        for face in module
    )
    return InvariantsReport(betti, pd, reg, _sources("minimal-resolution"))


def _closed_form(ideal: MonomialIdeal) -> InvariantsReport | None:
    nondominant = classify(ideal).nondominant_indices
    if not nondominant:
        return _betti_dominant(ideal)
    if len(nondominant) == 1:
        return _invariants_semidominant(ideal, nondominant[0])
    return None


def invariants_with_cross_check(ideal: MonomialIdeal) -> dict:
    """Closed-form and resolution-derived invariants; raises if they differ."""
    derived = invariants_from_resolution(minimize_generic(build_taylor(ideal)))
    closed = _closed_form(ideal)
    if closed is not None and (
        closed.betti != derived.betti
        or closed.pd != derived.pd
        or closed.reg != derived.reg
    ):
        raise OracleDisagreementError(
            f"closed-form invariants {closed} disagree with resolution-derived"
            f" {derived}"
        )
    return {"closed_form": closed, "derived": derived}
