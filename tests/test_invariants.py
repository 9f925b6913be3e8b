import random
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import I, ideals
from monores.cancellation import check_theorem71_hypothesis, minimize_generic
from monores.dominance import classify
from monores.invariants import (
    betti_dominant,
    invariants_from_resolution,
    invariants_semidominant,
    invariants_with_cross_check,
    is_scarf,
    pd_equals_two_test,
    scarf_complex,
    scarf_face_counts,
    scarf_necessary_divisibility,
    scarf_parity_test_2semidominant,
    scarf_sufficient_exponents,
)
from monores.monomials import IdealError, random_ideal
from monores.taylor import Face, build_taylor, lcm_lattice, strip_trailing_zeros
from monores.verify import OracleDisagreementError, betti_oracle


# --- scarf complex ----------------------------------------------------------------


def test_scarf_complex_semidominant_example():
    faces = scarf_complex(I("x^3y, y^2z, xz^2, xyz"))
    assert sorted(f.members for f in faces) == [
        (),
        (0,),
        (0, 3),
        (1,),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    ]


def test_scarf_complex_of_dominant_is_everything():
    M = I("x^2, x*z, y^3")
    assert len(scarf_complex(M)) == 2 ** len(M)
    assert scarf_face_counts(M) == (1, 3, 3, 1)


def test_scarf_complex_collapses_to_vertices():
    faces = scarf_complex(I("xy, xz, yz"))
    assert sorted(f.members for f in faces) == [(), (0,), (1,), (2,)]
    assert scarf_face_counts(I("xy, xz, yz")) == (1, 3)


# --- is_scarf -----------------------------------------------------------------------


def test_is_scarf_examples():
    assert is_scarf(I("x^3y, y^2z, yz^4, xz^2, x^2z"))
    assert not is_scarf(I("x^3y, y^2z, yz^4, xz^2w, x^2zw"))
    assert not is_scarf(I("x^2y^2, xz, yz"))


def test_is_scarf_neither_builds_nor_cancels_taylor(monkeypatch):
    import monores.invariants as invariants

    def refuse(*args):
        raise AssertionError("is_scarf built or minimized a Taylor complex")

    monkeypatch.setattr(invariants, "build_taylor", refuse)
    monkeypatch.setattr(invariants, "minimize_generic", refuse)
    assert is_scarf(I("x^3y, y^2z, yz^4, xz^2, x^2z"))
    assert not is_scarf(I("x^2y^2, xz, yz"))


def test_dominant_and_semidominant_are_scarf():
    assert is_scarf(I("x^2, x*z, y^3"))
    assert is_scarf(I("x^3y, y^2z, xz^2, xyz"))
    assert is_scarf(I("x^2, x*y, y^3"))


# --- closed forms: dominant -----------------------------------------------------------


def test_betti_dominant_example():
    report = betti_dominant(I("x^2, x*z, y^3"))
    assert report.betti == (1, 3, 3, 1)
    assert report.pd == 3
    assert report.reg == 3
    assert report.source_of("betti") == "closed-form (dominant)"


def test_betti_dominant_five_generators():
    report = betti_dominant(I("v^2xyz, vw^2yz, vwx^2z, vwxy^2, wxyz^2"))
    assert report.pd == 5
    assert report.betti == (1, 5, 10, 10, 5, 1)


def test_betti_dominant_single_generator():
    report = betti_dominant(I("x^2*y"))
    assert report.betti == (1, 1)
    assert report.pd == 1
    assert report.reg == 2


def test_betti_dominant_rejects_nondominant():
    with pytest.raises(IdealError, match="dominant"):
        betti_dominant(I("x^2, x*y, y^3"))


# --- closed forms: semidominant --------------------------------------------------------


def test_invariants_semidominant_example():
    report = invariants_semidominant(I("x^3y, y^2z, xz^2, xyz"))
    assert report.betti == (1, 4, 3)
    assert report.betti[2] == 3
    assert report.pd == 2
    assert report.reg == 3
    assert report.source_of("pd") == "closed-form (semidominant)"


def test_invariants_semidominant_added_generator_drops_pd():
    report = invariants_semidominant(I("v^2xyz, vw^2yz, vwx^2z, vwxy^2, wxyz^2, vwxyz"))
    assert report.pd == 2


def test_invariants_semidominant_small():
    report = invariants_semidominant(I("x^2, y^3, xy"))
    assert report.betti == (1, 3, 2)
    assert report.pd == 2
    assert betti_oracle(I("x^2, y^3, xy")) == (1, 3, 2)


def test_invariants_semidominant_rejects_other_classes():
    with pytest.raises(IdealError):
        invariants_semidominant(I("x^2, y^3"))


def test_invariants_semidominant_pd_cross_check_can_fail(monkeypatch):
    import monores.invariants as invariants

    real = invariants._largest_dominant_subset_with

    def one_too_many(ideal, n_index):
        size, witness = real(ideal, n_index)
        return size + 1, witness

    monkeypatch.setattr(invariants, "_largest_dominant_subset_with", one_too_many)
    with pytest.raises(OracleDisagreementError):
        invariants_semidominant(I("x^3y, y^2z, xz^2, xyz"))


def test_cross_check_on_a_dominant_ideal():
    both = invariants_with_cross_check(I("x^2, x*z, y^3"))
    assert both["closed_form"].source_of("betti") == "closed-form (dominant)"
    assert both["closed_form"].betti == both["derived"].betti == (1, 3, 3, 1)


def test_cross_check_without_a_closed_form():
    both = invariants_with_cross_check(I("xy, yz, xz"))
    assert both["closed_form"] is None
    assert both["derived"].betti == (1, 3, 2)


def test_cross_check_can_fail(monkeypatch):
    import monores.invariants as invariants

    real = invariants._closed_form

    def reg_one_too_high(ideal):
        report = real(ideal)
        return replace(report, reg=report.reg + 1)

    monkeypatch.setattr(invariants, "_closed_form", reg_one_too_high)
    with pytest.raises(OracleDisagreementError, match="disagree with resolution"):
        invariants_with_cross_check(I("x^3y, y^2z, xz^2, xyz"))


# --- pd = 2 test -------------------------------------------------------------------------


def test_pd_two_examples():
    assert pd_equals_two_test(I("v^2xyz, vw^2yz, vwx^2z, vwxy^2, wxyz^2, vwxyz"))
    assert pd_equals_two_test(I("x^2, y^3, xy"))


def test_pd_two_negative_case():
    M = I("x^2, y^2, z^2, w^2, xy")
    assert classify(M).p == 1
    assert not pd_equals_two_test(M)
    report = invariants_semidominant(M)
    assert report.pd > 2
    assert report.pd == 4
    assert betti_oracle(M) == report.betti


# --- 2-semidominant Scarf tests ------------------------------------------------------------


def test_parity_examples():
    assert not scarf_parity_test_2semidominant(I("x^2y^2, xz, yz"))
    assert scarf_parity_test_2semidominant(I("x^3y, y^2z, yz^4, xz^2, x^2z"))


def test_parity_requires_2semidominant():
    with pytest.raises(IdealError):
        scarf_parity_test_2semidominant(I("x^2, y^3, xy"))


def test_necessary_divisibility_examples():
    assert not scarf_necessary_divisibility(I("x^3y, y^2z, yz^4, xz^2w, x^2zw"))
    assert scarf_necessary_divisibility(I("x^3y, y^2z, yz^4, xz^2, x^2z"))
    with pytest.raises(IdealError):
        scarf_necessary_divisibility(I("x^2, y^2"))


def test_sufficient_exponents_examples():
    assert scarf_sufficient_exponents(I("x^3y, y^2z, yz^4, xz^2, x^2z"))
    assert not scarf_sufficient_exponents(I("x^2y^2, xz, yz"))


def test_sufficient_exponents_disjoint_supports():
    M = I("x^2, y^2, z^2, w^2, xy, zw")
    assert classify(M).p == 2
    assert scarf_sufficient_exponents(M)
    assert is_scarf(M)


# --- invariants from a minimal resolution ----------------------------------------------------


def test_invariants_from_resolution_examples():
    minimal = minimize_generic(build_taylor(I("x^3y, y^2z, xz^2, xyz")))
    report = invariants_from_resolution(minimal)
    assert (report.betti, report.pd, report.reg) == ((1, 4, 3), 2, 3)
    assert report.source_of("reg") == "minimal-resolution"

    taylor = build_taylor(I("x^2, x*z, y^3"))
    report = invariants_from_resolution(taylor)
    assert report.betti == (1, 3, 3, 1)
    assert report.reg == 3

    minimal = minimize_generic(build_taylor(I("x^2y^2, xz, yz")))
    assert invariants_from_resolution(minimal).betti == (1, 3, 2)


def test_invariants_from_resolution_rejects_nonminimal():
    with pytest.raises(IdealError, match="invertible"):
        invariants_from_resolution(build_taylor(I("x^2, x*y, y^3")))


# --- cross-checks over random ideals -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(ideals(max_gens=5))
def test_closed_forms_match_resolution(ideal):
    derived = invariants_from_resolution(minimize_generic(build_taylor(ideal)))
    p = classify(ideal).p
    if p == 0:
        closed = betti_dominant(ideal)
    elif p == 1:
        closed = invariants_semidominant(ideal)
    else:
        return
    assert closed.betti == derived.betti
    assert closed.pd == derived.pd
    assert closed.reg == derived.reg


@settings(max_examples=30, deadline=None)
@given(ideals(max_gens=5))
def test_five_way_equivalence(ideal):
    q = len(ideal)
    betti = betti_oracle(ideal)
    taylor_minimal = not bool(
        [e for m in build_taylor(ideal).diffs[1:] for e in m.entries.values() if e.is_invertible]
    )
    conditions = [
        taylor_minimal,
        classify(ideal).p == 0,
        betti == tuple(comb(q, i) for i in range(q + 1)),
        len(betti) - 1 == q,
        lcm_lattice(ideal).is_boolean,
    ]
    assert len(set(conditions)) == 1


@settings(max_examples=30)
@given(ideals(max_gens=5))
def test_regularity_bound_for_dominant(ideal):
    if classify(ideal).p != 0:
        return
    from monores.monomials import lcm

    bound = lcm(ideal.generators).total_degree() - len(ideal)
    res = build_taylor(ideal)
    for face in res.iter_faces():
        assert face.mdeg.total_degree() - face.hdeg <= bound


@settings(max_examples=25, deadline=None)
@given(ideals(min_gens=2, max_gens=5))
def test_semidominant_scarf_equals_elimination(ideal):
    if classify(ideal).p != 1:
        return
    from monores.cancellation import eliminate_face_facet_pairs

    outcome = eliminate_face_facet_pairs(build_taylor(ideal))
    assert outcome.status == "completed"
    survivors = sorted(f.members for f in outcome.resolution.iter_faces())
    assert survivors == sorted(f.members for f in scarf_complex(ideal))
    assert is_scarf(ideal)


@settings(max_examples=25, deadline=None)
@given(ideals(min_vars=3, min_gens=3, max_gens=5))
def test_2semidominant_parity_matches_operational(ideal):
    if classify(ideal).p != 2:
        return
    assert scarf_parity_test_2semidominant(ideal) == is_scarf(ideal)
    if scarf_sufficient_exponents(ideal):
        assert is_scarf(ideal)
    if is_scarf(ideal):
        assert scarf_necessary_divisibility(ideal)


# --- subsets grouped by lcm, against the Taylor faces ------------------------------


@st.composite
def sampled_ideals(draw, cls="any"):
    """Ideals of exactly the drawn size. Few variables and small exponents
    crowd the lcms, so classes of faces sharing one are large; at least 3
    variables and exponent 2 keep every drawn size quick to sample."""
    n_vars = draw(st.integers(3, 4))
    n_gens = draw(st.integers(1, 6) if cls == "any" else st.integers(3, n_vars + 2))
    max_exp = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    want_p = {"dominant": 0, "semi1": 1, "semi2": 2}.get(cls)
    for _attempt in range(50):
        try:
            ideal = random_ideal(rng, n_vars, n_gens, max_exp)
        except IdealError:
            reject()
        if want_p is None or classify(ideal).p == want_p:
            return ideal
    reject()


def taylor_classes(ideal):
    """Taylor faces grouped by multidegree, faces in (degree, members) order."""
    classes = {}
    for face in build_taylor(ideal).iter_faces():
        classes.setdefault(face.mdeg, []).append(face)
    return classes


def reference_t71_violations(classes):
    """Theorem71Report's definition: a facet tau of two faces of tau's own
    multidegree m, and a sibling facet of either face that also carries m."""
    out = set()
    for faces in classes.values():
        for tau in faces:
            sigmas = [f for f in faces if tau.is_facet_of(f)]
            if len(sigmas) < 2:
                continue
            for sigma in sigmas:
                for other in faces:
                    if other != tau and other.is_facet_of(sigma):
                        out.add((tau, sigma, other))
    return tuple(sorted(out, key=lambda t: tuple(f.sort_key() for f in t)))


@settings(max_examples=120, deadline=None)
@given(sampled_ideals())
def test_subset_grouping_matches_taylor_faces(ideal):
    classes = taylor_classes(ideal)
    unique = [faces[0] for faces in classes.values() if len(faces) == 1]
    assert scarf_complex(ideal) == sorted(unique, key=Face.sort_key)
    counts = [0] * (len(ideal) + 1)
    for face in unique:
        counts[face.hdeg] += 1
    assert scarf_face_counts(ideal) == strip_trailing_zeros(counts)

    lattice = lcm_lattice(ideal)
    assert list(lattice.monomials) == sorted(classes, key=lambda m: m.exponents)
    assert lattice.is_boolean == (len(classes) == 2 ** len(ideal))

    violations = reference_t71_violations(classes)
    report = check_theorem71_hypothesis(ideal)
    assert report.violations == violations
    assert report.holds == (not violations)


@settings(max_examples=60, deadline=None)
@given(sampled_ideals(cls="semi2"))
def test_parity_test_reads_the_class_sizes(ideal):
    sizes = [len(faces) for faces in taylor_classes(ideal).values()]
    expected = all(size % 2 == 0 for size in sizes if size >= 2)
    assert scarf_parity_test_2semidominant(ideal) == expected
