from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import I, ideals
from monores.monomials import (
    MAX_EXPONENT,
    IdealError,
    Monomial,
    MonomialIdeal,
    VariableSet,
    divides,
    lcm,
    minimalize,
    total_degree,
)
from monores.taylor import Entry

XYZ = VariableSet(("x", "y", "z"))


def m(ex, ey=0, ez=0):
    return Monomial(XYZ, (ex, ey, ez))


def monomials_over(vars, max_exp=4):
    exponent = st.integers(0, max_exp)
    return st.builds(
        lambda exps: Monomial(vars, exps), st.tuples(*[exponent] * len(vars))
    )


# --- lcm -------------------------------------------------------------------


def test_lcm_componentwise_max():
    # x^2, x*z, y^3 -> x^2*y^3*z, worked by hand
    assert lcm([m(2), m(1, 0, 1), m(0, 3)]) == m(2, 3, 1)


def test_lcm_single_is_identity():
    one = m(3, 1, 2)
    assert lcm([one]) == one


def test_lcm_pair_from_repeated_multidegree():
    # lcm(x^3*y, y^2*z) = x^3*y^2*z
    assert lcm([m(3, 1), m(0, 2, 1)]) == m(3, 2, 1)


def test_lcm_empty_needs_vars():
    assert lcm([], vars=XYZ) == XYZ.unit()
    with pytest.raises(IdealError):
        lcm([])


# --- divides ----------------------------------------------------------------


def test_divides_examples():
    assert divides(m(1, 1, 1), m(3, 2, 1))
    assert divides(XYZ.unit(), m(3, 0, 2))
    vars4 = VariableSet(("x", "y", "z", "w"))
    a = Monomial(vars4, (1, 0, 2, 1))  # x*z^2*w
    b = Monomial(vars4, (3, 3, 5, 0))  # x^3*y^3*z^5
    assert not divides(a, b)


def test_total_degree_examples():
    assert total_degree(m(2, 3, 1)) == 6
    assert total_degree(XYZ.unit()) == 0
    assert total_degree(m(3, 1, 1)) == 5


# --- minimalize ------------------------------------------------------------


def test_minimalize_drops_multiples():
    vars = VariableSet(("x", "y"))
    x2 = Monomial(vars, (2, 0))
    x3 = Monomial(vars, (3, 0))
    y = Monomial(vars, (0, 1))
    ideal, removed = minimalize(vars, [x2, x3, y])
    assert ideal.generators == (x2, y)
    assert removed


def test_minimalize_keeps_minimal_sets():
    ideal, removed = minimalize(XYZ, [m(2), m(1, 1), m(0, 3)])
    assert ideal.generators == (m(2), m(1, 1), m(0, 3))
    assert not removed


def test_minimalize_dedupes():
    vars = VariableSet(("x",))
    x = Monomial(vars, (1,))
    ideal, removed = minimalize(vars, [x, x])
    assert ideal.generators == (x,)
    assert removed


def test_minimalize_empty_is_error():
    with pytest.raises(IdealError, match="empty ideal"):
        minimalize(XYZ, [])


def test_ideal_constructor_enforces_minimality():
    with pytest.raises(IdealError):
        MonomialIdeal(XYZ, (m(2), m(3)))
    with pytest.raises(IdealError):
        MonomialIdeal(XYZ, (XYZ.unit(),))
    with pytest.raises(IdealError):
        MonomialIdeal(XYZ, ())


def test_exponent_cap_and_negativity():
    with pytest.raises(IdealError):
        Monomial(XYZ, (10**6 + 1, 0, 0))
    with pytest.raises(IdealError):
        Monomial(XYZ, (-1, 0, 0))
    Monomial(XYZ, (10**6, 0, 0))  # at the cap is fine


def test_variable_set_validation():
    with pytest.raises(IdealError):
        VariableSet(())
    with pytest.raises(IdealError):
        VariableSet(("x", "x"))
    with pytest.raises(IdealError, match="^variable names must be nonempty$"):
        VariableSet(("x", ""))


def test_exact_div():
    assert m(3, 2, 1).exact_div(m(1, 2)) == m(2, 0, 1)
    with pytest.raises(IdealError):
        m(1).exact_div(m(2))


def test_str_forms():
    assert str(m(2, 1)) == "x^2*y"
    assert str(XYZ.unit()) == "1"
    assert str(I("x^2, x*y, y^3")) == "x^2, x*y, y^3"


# --- properties --------------------------------------------------------------

MS = monomials_over(XYZ)


@given(MS, MS, MS)
def test_lcm_associative_commutative(a, b, c):
    assert a.lcm(b) == b.lcm(a)
    assert a.lcm(b.lcm(c)) == (a.lcm(b)).lcm(c)


@given(MS, MS)
def test_lcm_idempotent_and_absorbs(a, b):
    assert a.lcm(a) == a
    assert divides(a, a.lcm(b))


@given(MS, MS, MS)
def test_divides_is_partial_order(a, b, c):
    assert divides(a, a)
    if divides(a, b) and divides(b, a):
        assert a == b
    if divides(a, b) and divides(b, c):
        assert divides(a, c)


@given(ideals())
def test_minimalize_idempotent(ideal):
    again, removed = minimalize(ideal.vars, list(ideal.generators))
    assert not removed
    assert again.generators == ideal.generators


# --- validated at the boundary, derived values trusted ------------------------


@pytest.mark.parametrize(
    "exponents, message",
    [
        ((-1, 0, 0), "nonnegative integers"),
        ((0, 1.0, 0), "nonnegative integers"),
        ((0, 0, Fraction(1)), "nonnegative integers"),
        ((0, "2", 0), "nonnegative integers"),
        ((MAX_EXPONENT + 1, 0, 0), "exceeds the cap"),
        ((1, 2), "expected 3 exponents"),
        ((1, 2, 3, 4), "expected 3 exponents"),
    ],
)
def test_public_constructors_still_validate(exponents, message):
    with pytest.raises(IdealError, match=message):
        Monomial(XYZ, exponents)
    with pytest.raises(IdealError, match=message):
        XYZ.monomial(exponents)


def test_exact_div_rejects_a_non_divisor():
    with pytest.raises(IdealError, match="does not divide"):
        m(2, 1, 0).exact_div(m(1, 2, 0))
    with pytest.raises(IdealError, match="does not divide"):
        XYZ.unit().exact_div(m(0, 0, 1))


def test_product_past_the_cap_is_rejected():
    top = m(MAX_EXPONENT)
    assert (top * XYZ.unit()).exponents == (MAX_EXPONENT, 0, 0)
    with pytest.raises(IdealError, match="exceeds the cap"):
        top * m(1)


def test_different_variable_sets_are_rejected():
    other = VariableSet(("x", "y", "w"))
    a = Monomial(other, (1, 0, 0))
    for op in (m(1).lcm, m(1).__mul__, m(1).exact_div, m(1).divides):
        with pytest.raises(IdealError, match="different variable sets"):
            op(a)
    with pytest.raises(IdealError, match="^generator uses a different variable set$"):
        MonomialIdeal(XYZ, (m(1), Monomial(other, (0, 1, 0))))
    # Equal variable sets that are distinct objects still combine.
    same = Monomial(VariableSet(("x", "y", "z")), (1, 0, 0))
    assert m(2).exact_div(same) == m(1)


def validated(result):
    """The same exponents, built through the validating constructor."""
    return Monomial(result.vars, tuple(result.exponents))


def assert_same_as_validated(result):
    again = validated(result)
    assert type(result) is Monomial and type(result.exponents) is tuple
    assert result == again and again == result
    assert hash(result) == hash(again)


@given(MS, MS)
def test_derived_monomials_equal_validated_ones(a, b):
    assert_same_as_validated(a.lcm(b))
    assert_same_as_validated(a * b)
    assert (a * b).exact_div(b) == a
    assert_same_as_validated((a * b).exact_div(b))
    assert_same_as_validated(a.lcm(b).exact_div(a))
    assert_same_as_validated(XYZ.unit())
    assert_same_as_validated(lcm([], vars=XYZ))
    assert {a.lcm(b): 1}[validated(a.lcm(b))] == 1


def test_entry_rejects_zero_and_wraps_scalars():
    mono = m(1, 2)
    for zero in (0, Fraction(0), Fraction(0, 7)):
        with pytest.raises(IdealError, match="absence"):
            Entry(zero, mono)
    # An integral scalar is stored as an int, a Fraction of denominator 1 too.
    for two in (Entry(2, mono), Entry(Fraction(4, 2), mono)):
        assert type(two.scalar) is int and two.scalar == 2
    half = Fraction(1, 2)
    assert Entry(half, mono).scalar is half
    # Only exact scalars: a float would be rounded, a str parsed, a bool read as 1.
    for inexact in (0.1, 0.5, 2.0, "1/3", "2", True, False, None):
        with pytest.raises(IdealError, match="ints or Fractions"):
            Entry(inexact, mono)
