"""Scarf complexes and homological invariants, closed-form and computed.

Betti numbers, projective dimension, and regularity can be read off any
minimal resolution; for dominant and semidominant ideals they also have
closed forms in terms of the generators alone. Every closed form here is
cross-checkable against the resolution-derived values, and the report
records which route produced each number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .cancellation import minimize_generic
from .dominance import (
    classify,
    is_dominant_subset,
    largest_dominant_subset_with,
)
from .monomials import IdealError, MonomialIdeal, lcm
from .taylor import (
    Face,
    Resolution,
    _check_cap,
    _mask_of,
    _mdeg_by_mask,
    build_taylor,
    strip_trailing_zeros,
)
from .verify import OracleDisagreementError, minimality_check


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
    _check_cap(ideal)
    q = len(ideal)
    mdegs = _mdeg_by_mask(ideal)
    counts: dict[tuple[int, ...], int] = {}
    for mask in range(1 << q):
        key = mdegs[mask].exponents
        counts[key] = counts.get(key, 0) + 1
    faces = [
        Face(members, mdegs[_mask_of(members)])
        for degree in range(q + 1)
        for members in combinations(range(q), degree)
        if counts[mdegs[_mask_of(members)].exponents] == 1
    ]
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
    minimal = minimize_generic(build_taylor(ideal))
    return strip_trailing_zeros(minimal.ranks()) == scarf_face_counts(ideal)


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
    subsets containing n. Subset lcms are read from one table of all 2^q,
    so the Taylor cap applies.
    """
    report = classify(ideal)
    if report.p != 1:
        raise IdealError("closed form requires a semidominant ideal")
    _check_cap(ideal)
    (n_index,) = report.nondominant_indices
    gens = ideal.generators
    n = gens[n_index]
    dominant_indices = [i for i in range(len(gens)) if i != n_index]
    mdegs = _mdeg_by_mask(ideal)

    b_counts = [0] * (len(dominant_indices) + 1)
    b_counts[0] = 1  # the empty subset: n never divides 1
    for size in range(1, len(dominant_indices) + 1):
        for combo in combinations(dominant_indices, size):
            if not n.divides(mdegs[_mask_of(combo)]):
                b_counts[size] += 1

    def b_count(j: int) -> int:
        return b_counts[j] if 0 <= j < len(b_counts) else 0

    betti = list(
        strip_trailing_zeros(
            b_count(i) + b_count(i - 1) for i in range(len(b_counts) + 1)
        )
    )

    pd, _witness = largest_dominant_subset_with(ideal, n_index)
    if len(betti) - 1 != pd:
        raise OracleDisagreementError(
            "semidominant closed forms disagree on projective dimension"
        )

    reg = None
    for size in range(0, len(dominant_indices) + 1):
        for combo in combinations(dominant_indices, size):
            subset = sorted(combo + (n_index,))
            if is_dominant_subset([gens[i] for i in subset]):
                value = mdegs[_mask_of(subset)].total_degree() - len(subset)
                reg = value if reg is None else max(reg, value)
    assert reg is not None  # the singleton {n} is always dominant
    return InvariantsReport(
        tuple(betti), pd, reg, _sources("closed-form (semidominant)")
    )


def pd_equals_two_test(ideal: MonomialIdeal) -> bool:
    """For semidominant ideals: pd = 2 iff n divides every pairwise lcm."""
    report = classify(ideal)
    if report.p != 1:
        raise IdealError("pairwise divisibility test requires a semidominant ideal")
    (n_index,) = report.nondominant_indices
    gens = ideal.generators
    n = gens[n_index]
    dominant_indices = [i for i in range(len(gens)) if i != n_index]
    return all(
        n.divides(gens[i].lcm(gens[j]))
        for i, j in combinations(dominant_indices, 2)
    )


def _require_2_semidominant(ideal: MonomialIdeal) -> tuple[int, int]:
    report = classify(ideal)
    if report.p != 2:
        raise IdealError("test requires a 2-semidominant ideal")
    n1, n2 = report.nondominant_indices
    return n1, n2


def scarf_parity_test_2semidominant(ideal: MonomialIdeal) -> bool:
    """A 2-semidominant ideal is Scarf iff every repeated multidegree class
    has even size (vacuously true with no repeats)."""
    _require_2_semidominant(ideal)
    _check_cap(ideal)
    mdegs = _mdeg_by_mask(ideal)
    counts: dict[tuple[int, ...], int] = {}
    for mask in range(1 << len(ideal)):
        key = mdegs[mask].exponents
        counts[key] = counts.get(key, 0) + 1
    return all(c % 2 == 0 for c in counts.values() if c >= 2)


def scarf_necessary_divisibility(ideal: MonomialIdeal) -> bool:
    """Necessary for Scarf: both nondominant generators divide the lcm of
    the dominant ones (the lcm of no dominant generators is 1)."""
    n1, n2 = _require_2_semidominant(ideal)
    gens = ideal.generators
    dominant = [gens[i] for i in range(len(gens)) if i not in (n1, n2)]
    dom_lcm = lcm(dominant, vars=ideal.vars)
    return gens[n1].divides(dom_lcm) and gens[n2].divides(dom_lcm)


def scarf_sufficient_exponents(ideal: MonomialIdeal) -> bool:
    """Sufficient for Scarf: no variable has the same nonzero exponent in
    both nondominant generators."""
    n1, n2 = _require_2_semidominant(ideal)
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
