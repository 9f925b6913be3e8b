from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import I, ideals
from monores import taylor
from monores.cancellation import find_invertible_entries
from monores.dominance import classify
from monores.monomials import (
    CapExceededError,
    IdealError,
    Monomial,
    MonomialIdeal,
    VariableSet,
)
from monores.taylor import (
    Entry,
    Face,
    TAYLOR_MAX_GENERATORS,
    build_taylor,
    lcm_lattice,
    repeated_multidegree_classes,
)


def matrix_as_face_dict(res, degree):
    """(row members, col members) -> (scalar, monomial exponents)."""
    rows, cols = res.modules[degree - 1], res.modules[degree]
    return {
        (rows[ri].members, cols[ci].members): (
            entry.scalar,
            entry.monomial.exponents,
        )
        for (ri, ci), entry in res.diffs[degree].entries.items()
    }


# Golden matrices, worked entry by entry from the differential formula.

GOLDEN_XY = {
    1: {
        ((), (0,)): (1, (2, 0)),
        ((), (1,)): (1, (1, 1)),
        ((), (2,)): (1, (0, 3)),
    },
    2: {
        ((0,), (0, 1)): (-1, (0, 1)),
        ((1,), (0, 1)): (1, (1, 0)),
        ((0,), (0, 2)): (-1, (0, 3)),
        ((2,), (0, 2)): (1, (2, 0)),
        ((1,), (1, 2)): (-1, (0, 2)),
        ((2,), (1, 2)): (1, (1, 0)),
    },
    3: {
        ((1, 2), (0, 1, 2)): (1, (1, 0)),
        ((0, 2), (0, 1, 2)): (-1, (0, 0)),
        ((0, 1), (0, 1, 2)): (1, (0, 2)),
    },
}

# Variable order of first appearance is (x, z, y).
GOLDEN_XZ = {
    1: {
        ((), (0,)): (1, (2, 0, 0)),
        ((), (1,)): (1, (1, 1, 0)),
        ((), (2,)): (1, (0, 0, 3)),
    },
    2: {
        ((0,), (0, 1)): (-1, (0, 1, 0)),
        ((1,), (0, 1)): (1, (1, 0, 0)),
        ((0,), (0, 2)): (-1, (0, 0, 3)),
        ((2,), (0, 2)): (1, (2, 0, 0)),
        ((1,), (1, 2)): (-1, (0, 0, 3)),
        ((2,), (1, 2)): (1, (1, 1, 0)),
    },
    3: {
        ((1, 2), (0, 1, 2)): (1, (1, 0, 0)),
        ((0, 2), (0, 1, 2)): (-1, (0, 1, 0)),
        ((0, 1), (0, 1, 2)): (1, (0, 0, 3)),
    },
}


def test_taylor_golden_non_minimal_example():
    res = build_taylor(I("x^2, x*y, y^3"))
    assert res.ranks() == (1, 3, 3, 1)
    for degree, expected in GOLDEN_XY.items():
        assert matrix_as_face_dict(res, degree) == expected


def test_taylor_golden_minimal_example():
    res = build_taylor(I("x^2, x*z, y^3"))
    assert res.ranks() == (1, 3, 3, 1)
    for degree, expected in GOLDEN_XZ.items():
        assert matrix_as_face_dict(res, degree) == expected


def test_taylor_single_generator():
    res = build_taylor(I("x^2*y"))
    assert res.ranks() == (1, 1)
    entries = matrix_as_face_dict(res, 1)
    assert entries == {((), (0,)): (1, (2, 1))}


def test_face_order_is_lexicographic():
    res = build_taylor(I("x^2, x*y, y^3"))
    assert [f.members for f in res.modules[1]] == [(0,), (1,), (2,)]
    assert [f.members for f in res.modules[2]] == [(0, 1), (0, 2), (1, 2)]
    assert res.trail == []


def test_face_members_must_strictly_increase():
    unit = VariableSet(("x",)).unit()
    for members in ((1, 0), (1, 1)):
        with pytest.raises(IdealError, match="strictly increasing"):
            Face(members, unit)


def test_find_face_of_an_absent_face():
    res = build_taylor(I("x^2, x*y, y^3"))
    # Generator 3 does not exist; a 4-member face is past the top degree.
    assert res.find_face((0, 3)) is None
    assert res.find_face((0, 1, 2, 3)) is None


def test_modules_zero_is_empty_face():
    res = build_taylor(I("x, y"))
    (empty,) = res.modules[0]
    assert empty.members == ()
    assert empty.mdeg.is_unit


def test_taylor_cap_is_named_in_error():
    vars = VariableSet(("x", "y"))
    gens = tuple(
        Monomial(vars, (i, TAYLOR_MAX_GENERATORS + 1 - i))
        for i in range(TAYLOR_MAX_GENERATORS + 1)
    )
    big = MonomialIdeal(vars, gens)
    with pytest.raises(CapExceededError, match=str(TAYLOR_MAX_GENERATORS)):
        build_taylor(big)


# --- repeated multidegree classes -------------------------------------------


def test_repeated_classes_semidominant_example():
    res = build_taylor(I("x^3y, y^2z, xz^2, xyz"))
    classes = repeated_multidegree_classes(res)
    assert {str(m) for m in classes} == {
        "x^3*y^2*z",
        "x^3*y*z^2",
        "x*y^2*z^2",
        "x^3*y^2*z^2",
    }
    for faces in classes.values():
        assert faces == sorted(faces, key=Face.sort_key)


def test_repeated_classes_three_element_class():
    res = build_taylor(I("x^2y^2, xz, yz"))
    classes = repeated_multidegree_classes(res)
    assert len(classes) == 1
    ((mdeg, faces),) = classes.items()
    assert str(mdeg) == "x^2*y^2*z"
    assert [f.members for f in faces] == [(0, 1), (0, 2), (0, 1, 2)]


def test_repeated_classes_six_element_class():
    res = build_taylor(I("x^2y^2z^2, xw^2, yw^2, zw"))
    classes = repeated_multidegree_classes(res)
    assert len(classes) == 1
    ((mdeg, faces),) = classes.items()
    assert str(mdeg) == "x^2*y^2*z^2*w^2"
    assert len(faces) == 6


# --- lcm lattice --------------------------------------------------------------


def test_lcm_lattice_boolean_for_dominant():
    lattice = lcm_lattice(I("x^2, xz, y^3"))
    assert len(lattice.monomials) == 8
    assert lattice.is_boolean


def test_lcm_lattice_collapse():
    lattice = lcm_lattice(I("x^2, xy, y^3"))
    assert len(lattice.monomials) == 7
    assert not lattice.is_boolean


def test_lcm_lattice_single_generator():
    lattice = lcm_lattice(I("x^2*y"))
    assert [str(m) for m in lattice.monomials] == ["1", "x^2*y"]
    assert lattice.is_boolean


@settings(max_examples=40)
@given(ideals())
def test_lcm_lattice_is_the_set_of_taylor_multidegrees(ideal):
    mdegs = {face.mdeg.exponents for face in build_taylor(ideal).iter_faces()}
    lattice = lcm_lattice(ideal)
    assert [m.exponents for m in lattice.monomials] == sorted(mdegs)
    assert lattice.is_boolean == (len(mdegs) == 2 ** len(ideal))


def test_lcm_lattice_past_the_taylor_cap():
    # Generators x^i y^(q-i), i < q: the lcm of a subset with smallest
    # index b and largest a is x^a y^(q-b), one point per b <= a.
    q = TAYLOR_MAX_GENERATORS + 10
    vars = VariableSet(("x", "y"))
    ideal = MonomialIdeal(
        vars, tuple(Monomial(vars, (i, q - i)) for i in range(q))
    )
    lattice = lcm_lattice(ideal)
    expected = [(0, 0)] + sorted(
        (a, q - b) for a in range(q) for b in range(a + 1)
    )
    assert [m.exponents for m in lattice.monomials] == expected
    assert not lattice.is_boolean


def test_lcm_lattice_cap(monkeypatch):
    # Coprime generators have a Boolean lattice of 2^q points.
    monkeypatch.setattr(taylor, "TAYLOR_MAX_GENERATORS", 3)
    assert len(lcm_lattice(I("x, y, z")).monomials) == 2**3
    with pytest.raises(CapExceededError, match="over 2\\^3 points"):
        lcm_lattice(I("x, y, z, w"))


# --- structural properties ------------------------------------------------------


@settings(max_examples=40)
@given(ideals())
def test_facet_multidegrees_divide(ideal):
    res = build_taylor(ideal)
    for degree in range(1, res.top + 1):
        rows, cols = res.modules[degree - 1], res.modules[degree]
        for (ri, ci), entry in res.diffs[degree].entries.items():
            row, col = rows[ri], cols[ci]
            assert row.mdeg.divides(col.mdeg)
            assert entry.monomial == col.mdeg.exact_div(row.mdeg)
            assert entry.scalar in (Fraction(1), Fraction(-1))


@settings(max_examples=40)
@given(ideals())
def test_taylor_entries_cache_invertibility_and_are_shared(ideal):
    # build_taylor skips Entry validation and hands one Entry to every
    # position with the same sign and quotient.
    entries = [e for d in build_taylor(ideal).diffs[1:] for e in d.entries.values()]
    for entry in entries:
        assert type(entry.scalar) is int
        assert entry.is_invertible == entry.monomial.is_unit
    assert len({id(e) for e in entries}) == len(set(entries))


def test_entry_invertibility_is_outside_eq_hash_and_repr():
    vars = VariableSet(("x", "y"))
    unit, x = vars.unit(), vars.monomial((1, 0))
    assert Entry(1, unit).is_invertible and not Entry(-1, x).is_invertible
    entry = Entry(Fraction(-1), x)
    flipped = Entry(Fraction(-1), x)
    object.__setattr__(flipped, "is_invertible", True)
    assert flipped == entry and hash(flipped) == hash(entry)
    assert repr(flipped) == repr(entry) and "is_invertible" not in repr(entry)


@settings(max_examples=40)
@given(ideals())
def test_taylor_faces_equal_validated_faces(ideal):
    # build_taylor skips Face validation; its faces must be the ones the
    # public constructor would build, with the same mask and hash.
    res = build_taylor(ideal)
    for degree, module in enumerate(res.modules):
        assert [f.members for f in module] == list(
            combinations(range(len(ideal)), degree)
        )
        for face in module:
            again = Face(face.members, face.mdeg)
            assert face == again and face.mask == again.mask
            assert hash(face) == hash(again)
            assert type(face.members) is tuple


@settings(max_examples=30)
@given(ideals())
def test_equal_multidegree_faces_share_dominant_members(ideal):
    report = classify(ideal)
    dominant = {i for i, dom in report.per_generator if dom}
    res = build_taylor(ideal)
    for faces in repeated_multidegree_classes(res).values():
        reference = set(faces[0].members) & dominant
        for face in faces[1:]:
            assert set(face.members) & dominant == reference


@settings(max_examples=40)
@given(ideals())
def test_taylor_minimal_iff_dominant(ideal):
    res = build_taylor(ideal)
    has_invertible = bool(find_invertible_entries(res))
    assert has_invertible == (classify(ideal).p > 0)


@settings(max_examples=40)
@given(ideals())
def test_dominant_implies_distinct_multidegrees(ideal):
    if classify(ideal).p == 0:
        res = build_taylor(ideal)
        mdegs = [f.mdeg.exponents for f in res.iter_faces()]
        assert len(mdegs) == len(set(mdegs))
