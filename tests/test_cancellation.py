import random
import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import I, ideals, ideals_of_every_class, random_minimal_ideal
from monores import cancellation
from monores.cancellation import (
    CancellationEvent,
    Deterministic,
    Scripted,
    SeededRandom,
    _Work,
    check_theorem71_hypothesis,
    eliminate_face_facet_pairs,
    find_invertible_entries,
    minimize_generic,
    semidominant_pair_set_A,
    standard_cancellation,
    standard_change_of_basis,
)
from monores.dominance import random_ideal_of_class
from monores.monomials import IdealError, Monomial, VariableSet
from monores.taylor import (
    DifferentialMatrix,
    Entry,
    Face,
    Resolution,
    _bits,
    _face_from_mask,
    _subsets_by_lcm,
    build_taylor,
    repeated_multidegree_classes,
)
from monores.verify import compose_check
from test_verify import rescale_basis


def members(faces):
    return sorted(f.members for f in faces)


def entry_at(res, degree, row, col):
    """The entry of diffs[degree] at the given row and column faces, or None."""
    key = (res.modules[degree - 1].index(row), res.modules[degree].index(col))
    return res.diffs[degree].entries.get(key)


def entry_invariants_hold(res):
    for degree in range(1, res.top + 1):
        rows, cols = res.modules[degree - 1], res.modules[degree]
        for (ri, ci), entry in res.diffs[degree].entries.items():
            expected = cols[ci].mdeg.exact_div(rows[ri].mdeg)
            if entry.monomial != expected or entry.scalar == 0:
                return False
    return True


# --- find_invertible_entries ---------------------------------------------------


def test_find_invertible_unique_entry():
    res = build_taylor(I("x^2, x*y, y^3"))
    found = find_invertible_entries(res)
    assert [(j, r.members, c.members) for j, r, c in found] == [(3, (0, 2), (0, 1, 2))]
    entry = entry_at(res, 3, found[0][1], found[0][2])
    assert entry.scalar == Fraction(-1)


def test_find_invertible_none_for_minimal():
    assert find_invertible_entries(build_taylor(I("x^2, x*z, y^3"))) == []


# --- the face/facet index ----------------------------------------------------------


def reference_facet_positions(work):
    """The full rescan and sort that the face/facet index replaces: every
    entry whose row face is a facet of its column face and has its
    multidegree, read from the faces themselves, as the index keys it,
    (-degree, -column, -row). The keys come in descending (degree, column
    members, row members) order, so the index must hold the least pivot
    in member order last."""
    found = []
    for degree in range(1, work.top + 1):
        rows, cols = work.modules[degree - 1], work.modules[degree]
        for col, col_entries in work.by_col[degree].items():
            for row in col_entries:
                row_face, col_face = rows[row], cols[col]
                if row_face.is_facet_of(col_face) and row_face.mdeg == col_face.mdeg:
                    by_members = (degree, col_face.members, row_face.members)
                    found.append((by_members, (-degree, -col, -row)))
    return [key for _, key in sorted(found, reverse=True)]


def assert_rows_mirror_columns(work):
    """by_row lists exactly the positions of by_col, and neither keeps an
    empty column or row."""
    for by_col, by_row in zip(work.by_col, work.by_row):
        assert all(by_col.values()) and all(by_row.values())
        by_cols = {(row, col) for col, rows in by_col.items() for row in rows}
        by_rows = {(row, col) for row, cols in by_row.items() for col in cols}
        assert by_cols == by_rows


def assert_index_current(work):
    assert work.facets == reference_facet_positions(work)
    assert_rows_mirror_columns(work)


@contextmanager
def index_checked_after_every_step():
    """Build the face/facet index of every working copy at once, so that
    minimize_generic keeps it too, and compare it to the rescan after
    every change of basis and cancel."""
    steps = []
    init = _Work.__init__

    def indexed(self, res):
        init(self, res)
        self.facet_pivots()

    def checked(method):
        def run(self, *args):
            method(self, *args)
            assert_index_current(self)
            steps.append(method.__name__)

        return run

    with patch.object(_Work, "__init__", indexed), patch.object(
        _Work, "cancel", checked(_Work.cancel)
    ), patch.object(_Work, "change_of_basis", checked(_Work.change_of_basis)):
        yield steps


@st.composite
def crowded_ideals(draw):
    """Few variables and small exponents, so that many faces share a
    multidegree and fill-in keeps creating new invertible positions."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_vars, max_exp = draw(st.sampled_from([(3, 2), (4, 1), (4, 2), (5, 1)]))
    return random_minimal_ideal(rng, n_vars, draw(st.integers(3, 6)), max_exp)


@settings(max_examples=40, deadline=None)
@given(crowded_ideals(), st.integers(0, 2**16))
def test_pivot_index_matches_rescan_after_every_cancel(ideal, seed):
    taylor = build_taylor(ideal)
    work = _Work(taylor)
    work.facet_pivots()
    assert_index_current(work)
    with index_checked_after_every_step() as steps:
        generic = minimize_generic(taylor)
        deterministic = eliminate_face_facet_pairs(taylor)
        shuffled = eliminate_face_facet_pairs(taylor, SeededRandom(seed))
        # Replaying a random trail as a script drives the scripted path.
        script = [(e.sigma.members, e.tau.members) for e in shuffled.resolution.trail]
        replay = eliminate_face_facet_pairs(taylor, Scripted(script))
        minimize_generic(deterministic.resolution)
        pivots = find_invertible_entries(taylor)[:3]
        for degree, row, col in pivots:
            standard_change_of_basis(taylor, degree, row, col)
    cancels = sum(
        len(r.trail)
        for r in (generic, deterministic.resolution, shuffled.resolution)
    )
    assert steps.count("cancel") >= cancels + len(replay.resolution.trail)
    assert steps.count("change_of_basis") == len(pivots)
    assert replay.resolution.ranks() == shuffled.resolution.ranks()


def test_pivot_index_through_non_facet_fill_in():
    taylor = build_taylor(I("x^2y^2z^2, xw^2, yw^2, zw"))
    script = Scripted((((0, 1, 2, 3), (0, 1, 3)), ((0, 1, 2), (0, 2))))
    with index_checked_after_every_step() as steps:
        stuck = eliminate_face_facet_pairs(taylor, script).resolution
        assert any(not r.is_facet_of(c) for _, r, c in find_invertible_entries(stuck))
        minimize_generic(stuck)
    assert steps.count("cancel") == 2 + 1


def test_work_keys_faces_by_position():
    res = eliminate_face_facet_pairs(build_taylor(I("x^2, x*y, y^3"))).resolution
    work = _Work(res)
    # Faces, masks and classes sit at the positions of the input's modules.
    assert [list(m.items()) for m in work.modules] == [
        list(enumerate(m)) for m in res.modules
    ]
    assert work.masks == [[f.mask for f in m] for m in res.modules]
    faces = [(d, i, f) for d, m in enumerate(res.modules) for i, f in enumerate(m)]
    for (d, i, f), (e, j, g) in combinations(faces, 2):
        assert (work.classes[d][i] == work.classes[e][j]) == (f.mdeg == g.mdeg)
    # Entries are read straight from the input's (row, column) keys.
    for degree in range(1, res.top + 1):
        entries = res.diffs[degree].entries
        held = {
            (row, col): x
            for col, col_entries in work.by_col[degree].items()
            for row, x in col_entries.items()
        }
        assert held == {key: e.scalar for key, e in entries.items()}
    dicts = work.by_col + work.by_row
    keys = [key for d in dicts for key in d]
    keys += [k for d in dicts for inner in d.values() for k in inner]
    assert keys and all(type(k) is int for k in keys)
    # Taylor's unit scalars are held as ints, not as Fractions.
    scalars = [x for d in work.by_col for col in d.values() for x in col.values()]
    assert scalars and all(type(x) is int for x in scalars)


def test_equal_faces_hash_equal():
    vars = VariableSet(("x", "y"))
    f = Face((0, 2), Monomial(vars, (1, 2)))
    g = Face([0, 2], Monomial(VariableSet(("x", "y")), (1, 2)))
    assert f is not g and f == g
    assert hash(f) == hash(g)
    assert {f: 1}[g] == 1
    taylor_face = build_taylor(I("x^2, xy, y^3")).find_face((0, 2))
    again = build_taylor(I("x^2, xy, y^3")).find_face([2, 0])
    assert taylor_face is not again and hash(taylor_face) == hash(again)


def modules_sorted_by_members(res):
    return all(a.members < b.members for m in res.modules for a, b in zip(m, m[1:]))


@settings(max_examples=30, deadline=None)
@given(crowded_ideals(), st.integers(0, 2**16))
def test_every_resolution_keeps_its_modules_sorted_by_members(ideal, seed):
    # The kernel orders pivots by module position, which is member order
    # only while every module is sorted by members.
    taylor = build_taylor(ideal)
    results = [taylor, minimize_generic(taylor)]
    for strategy in (Deterministic(), SeededRandom(seed)):
        results.append(eliminate_face_facet_pairs(taylor, strategy).resolution)
    script = [(e.sigma.members, e.tau.members) for e in results[-1].trail]
    half = eliminate_face_facet_pairs(taylor, Scripted(script[: len(script) // 2]))
    results += [half.resolution, minimize_generic(half.resolution)]
    for res in (taylor, half.resolution):
        for degree, row, col in find_invertible_entries(res)[:2]:
            results.append(standard_cancellation(res, degree, row, col))
            results.append(standard_change_of_basis(res, degree, row, col))
    assert all(map(modules_sorted_by_members, results))
    # So find_invertible_entries, which sorts positions, lists member order.
    for res in results:
        keys = [(d, c.members, r.members) for d, r, c in find_invertible_entries(res)]
        assert keys == sorted(keys)


# --- the fill-in loop against its reference ---------------------------------------


def reference_change_of_basis(work, degree, row, col):
    """The plain fill-in loop, kept as the reference: one get and one
    Fraction division per position, invertibility read from the faces'
    multidegrees. Used as a method of _ReferenceWork."""
    pivot = work.get(degree, row, col)
    if pivot is None:
        raise IdealError("no entry there")
    if work.modules[degree - 1][row].mdeg != work.modules[degree][col].mdeg:
        raise IdealError("pivot is not invertible")
    old_row = {d: work.get(degree, row, d) for d in work.by_row[degree].get(row, ())}
    old_col = dict(work.by_col[degree].get(col, {}))
    for d, a_rd in old_row.items():
        if d == col:
            continue
        for c, a_cs in old_col.items():
            if c == row:
                continue
            current = work.get(degree, c, d)
            scalar = Fraction(current or 0) - Fraction(a_rd) * a_cs / Fraction(pivot)
            if scalar == 0:
                if current is not None:
                    work.delete(degree, c, d)
            else:
                work.set(degree, c, d, scalar)
    for d in old_row:
        if d != col:
            work.delete(degree, row, d)
    for c in old_col:
        if c != row:
            work.delete(degree, c, col)
    work.set(degree, row, col, Fraction(1))
    if degree + 1 <= work.top:
        for up in list(work.by_row[degree + 1].get(col, ())):
            work.delete(degree + 1, col, up)
    if degree - 1 >= 1:
        for down in list(work.by_col[degree - 1].get(row, {})):
            work.delete(degree - 1, down, row)


def reference_cancel(work, degree, row, col, strategy_tag):
    """The reference change of basis, then the delete of the pivot and of
    its two faces, which the change of basis has split off."""
    pivot = work.get(degree, row, col)
    sigma, tau = work.modules[degree][col], work.modules[degree - 1][row]
    reference_change_of_basis(work, degree, row, col)
    work.delete(degree, row, col)
    del work.modules[degree][col]
    del work.modules[degree - 1][row]
    work.trail.append(CancellationEvent(sigma, tau, Fraction(pivot), strategy_tag))


class _ReferenceWork(_Work):
    __slots__ = ()
    change_of_basis = reference_change_of_basis


def _copied(value):
    """value with every dict, list and set in it copied, in order; faces,
    scalars and events are immutable and shared."""
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    if isinstance(value, (list, set)):
        return type(value)(map(_copied, value))
    return value


def clone(work, cls):
    """A copy of a working resolution, every slot copied and in order."""
    copy = cls.__new__(cls)
    for name in _Work.__slots__:
        setattr(copy, name, _copied(getattr(work, name)))
    return copy


def work_state(work):
    """What a working resolution holds, read through freeze() in order,
    with the face/facet index when it is built."""
    res = work.freeze()
    entries = [list(matrix.entries.items()) for matrix in res.diffs[1:]]
    return res.modules, entries, res.trail, work.facets


def assert_same_work(work, reference):
    assert work_state(work) == work_state(reference)
    assert_rows_mirror_columns(work)
    # The kernel holds a scalar as an int exactly while it is integral.
    for d in work.by_col[1:]:
        for col_entries in d.values():
            for x in col_entries.values():
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1)
    res = work.freeze()
    for j, matrix in enumerate(res.diffs[1:], 1):
        for (ri, ci), entry in matrix.entries.items():
            assert type(entry.scalar) is Fraction
            assert entry.is_invertible == entry.monomial.is_unit
            col_face, row_face = res.modules[j][ci], res.modules[j - 1][ri]
            assert entry.monomial == col_face.mdeg.exact_div(row_face.mdeg)


@contextmanager
def fill_in_checked_against_reference():
    """Replay every change of basis and cancel on an order-keeping copy
    through the reference loops and require the same entries and order."""
    steps = []
    change_of_basis, cancel = _Work.change_of_basis, _Work.cancel

    def checked(method, reference_method):
        def run(self, *args):
            reference = clone(self, _ReferenceWork)
            reference_method(reference, *args)
            method(self, *args)
            assert_same_work(self, reference)
            steps.append(method.__name__)

        return run

    with patch.object(
        _Work, "change_of_basis", checked(change_of_basis, reference_change_of_basis)
    ), patch.object(_Work, "cancel", checked(cancel, reference_cancel)):
        yield steps


def with_distinct_equal_faces(res):
    """The same complex with each module holding its own copies of the
    faces, over a copy of the variable set: equal, equal-hashing, but
    never the same objects as the faces of res."""
    vars = VariableSet(tuple(res.modules[0][0].mdeg.vars.names))

    def fresh(faces):
        return [Face(f.members, Monomial(vars, f.mdeg.exponents)) for f in faces]

    diffs = [None] + [DifferentialMatrix(dict(d.entries)) for d in res.diffs[1:]]
    return Resolution([fresh(m) for m in res.modules], diffs, list(res.trail))


def trail_members(res):
    return [(e.sigma.members, e.tau.members, e.pivot_scalar) for e in res.trail]


def _add_to_entry(entries, key, value, monomial):
    current = entries.get(key)
    total = value if current is None else current.scalar + value
    if total:
        entries[key] = Entry(total, monomial)
    else:
        entries.pop(key, None)


def shear_basis(res, rng, count=4):
    """Change of basis e_g -> e_g + lam * e_f for faces f != g of one degree
    and one multidegree: column g of the differential out of that degree
    gains lam times column f, and row f of the one into it loses lam times
    row g. The result is a complex over the same faces with the same
    monomial on every entry, but its fill-in lands on entries that it does
    not cancel, which a Taylor complex (even rescaled) never does."""
    out = res.copy()
    pairs = [
        (degree, f, g)
        for degree in range(1, out.top + 1)
        for f, g in combinations(out.modules[degree], 2)
        if f.mdeg == g.mdeg
    ]
    for _ in range(count if pairs else 0):
        degree, f, g = rng.choice(pairs)
        if rng.random() < 0.5:
            f, g = g, f
        lam = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 5)))
        down = out.diffs[degree]
        fi, gi = out.modules[degree].index(f), out.modules[degree].index(g)
        for (ri, ci), e in list(down.entries.items()):
            if ci == fi:
                _add_to_entry(down.entries, (ri, gi), lam * e.scalar, e.monomial)
        if degree + 1 <= out.top:
            up = out.diffs[degree + 1]
            for (ri, ci), e in list(up.entries.items()):
                if ri == gi:
                    _add_to_entry(up.entries, (fi, ci), -lam * e.scalar, e.monomial)
    return out


@settings(max_examples=40, deadline=None)
@given(crowded_ideals(), st.integers(0, 2**16))
def test_fill_in_matches_reference_after_every_step(ideal, seed):
    taylor = build_taylor(ideal)
    # Rescaling the bases makes every pivot scalar a proper fraction, so the
    # hoisted a_cs / a_rs is not just a sign.
    rescaled = rescale_basis(taylor, random.Random(seed))
    sheared = shear_basis(rescaled, random.Random(seed))
    assert compose_check(sheared) and entry_invariants_hold(sheared)
    with fill_in_checked_against_reference() as steps:
        generic = minimize_generic(taylor)
        deterministic = eliminate_face_facet_pairs(taylor)
        shuffled = eliminate_face_facet_pairs(taylor, SeededRandom(seed))
        minimize_generic(shuffled.resolution)
        scaled = minimize_generic(rescaled)
        eliminate_face_facet_pairs(rescaled, SeededRandom(seed))
        assert minimize_generic(sheared).ranks() == generic.ranks()
        eliminate_face_facet_pairs(sheared)
        pivots = find_invertible_entries(sheared)[:3]
        for degree, row, col in pivots:
            standard_change_of_basis(sheared, degree, row, col)
    cancels = sum(
        len(r.trail)
        for r in (generic, deterministic.resolution, shuffled.resolution, scaled)
    )
    assert steps.count("cancel") >= cancels
    assert steps.count("change_of_basis") == len(pivots)
    assert all(abs(e.pivot_scalar) != 1 for e in scaled.trail)
    assert scaled.ranks() == generic.ranks()


@settings(max_examples=20, deadline=None)
@given(crowded_ideals(), st.integers(0, 2**16))
def test_fill_in_compares_faces_by_value_not_identity(ideal, seed):
    taylor = build_taylor(ideal)
    distinct = with_distinct_equal_faces(taylor)
    with fill_in_checked_against_reference() as steps:
        shuffled = eliminate_face_facet_pairs(taylor, SeededRandom(seed))
        script = [(e.sigma.members, e.tau.members) for e in shuffled.resolution.trail]
        replay = eliminate_face_facet_pairs(distinct, Scripted(script))
        generic = minimize_generic(distinct)
        # A pivot named by the faces of taylor, applied to the copy.
        pivots = find_invertible_entries(taylor)
        if pivots:
            degree, row, col = pivots[0]
            assert distinct.find_face(row.members) is not row
            assert distinct.find_face(col.members) is not col
            standard_cancellation(distinct, degree, row, col)
    assert trail_members(replay.resolution) == trail_members(shuffled.resolution)
    assert trail_members(generic) == trail_members(minimize_generic(taylor))
    assert steps.count("cancel") >= len(script) + len(generic.trail)


def test_fill_in_through_non_facet_pivots_on_distinct_faces():
    taylor = build_taylor(I("x^2y^2z^2, xw^2, yw^2, zw"))
    script = Scripted((((0, 1, 2, 3), (0, 1, 3)), ((0, 1, 2), (0, 2))))
    with fill_in_checked_against_reference() as steps:
        stuck = eliminate_face_facet_pairs(with_distinct_equal_faces(taylor), script)
        minimal = minimize_generic(with_distinct_equal_faces(stuck.resolution))
    assert stuck.status == "stuck"
    assert minimal.ranks() == (1, 4, 4, 1, 0)
    assert steps.count("cancel") == 2 + 1


@pytest.mark.parametrize("pivot", [2, 3])
def test_fill_in_hands_integers_over_to_fractions(pivot):
    """Integer scalars and an integer pivot p: the quotient 1/p of the pivot
    column's other entry turns the fill-in into proper fractions, at a new
    position (0 - 3 * 1/p) and at an existing one (1 - 1 * 1/p). A float
    quotient would round 1/3."""
    unit = VariableSet(("x",)).unit()
    rows = [Face((0,), unit), Face((1,), unit)]
    cols = [Face((0, 1), unit), Face((0, 2), unit), Face((1, 2), unit)]
    d2 = {(0, 0): pivot, (1, 0): 1, (0, 1): 3, (0, 2): 1, (1, 2): 1}
    res = Resolution(
        [[Face((), unit)], rows, cols],
        [
            None,
            DifferentialMatrix({}),
            DifferentialMatrix({k: Entry(x, unit) for k, x in d2.items()}),
        ],
        [],
    )
    with fill_in_checked_against_reference() as steps:
        out = standard_cancellation(res, 2, rows[0], cols[0])
        standard_change_of_basis(res, 2, rows[0], cols[0])
    assert steps == ["cancel", "change_of_basis"]
    assert [e.pivot_scalar for e in out.trail] == [Fraction(pivot)]
    assert type(out.trail[0].pivot_scalar) is Fraction
    scalars = {
        (out.modules[1][ri].members, out.modules[2][ci].members): e.scalar
        for (ri, ci), e in out.diffs[2].entries.items()
    }
    assert scalars == {
        ((1,), (0, 2)): Fraction(-3, pivot),
        ((1,), (1, 2)): 1 - Fraction(1, pivot),
    }
    assert all(type(x) is Fraction for x in scalars.values())


# --- standard change of basis ---------------------------------------------------


def test_change_of_basis_zeroes_adjacent_column():
    res = build_taylor(I("x^2, x*y, y^3"))
    row = res.find_face((0, 2))
    col = res.find_face((0, 1, 2))
    rewritten = standard_change_of_basis(res, 3, row, col)

    # degree-2 matrix: column of the pivot row face becomes zero
    two = rewritten.diffs[2]
    col_idx = rewritten.modules[2].index(row)
    assert not any(ci == col_idx for (_ri, ci) in two.entries)
    # the other degree-2 columns are untouched
    for face_members in [(0, 1), (1, 2)]:
        face = rewritten.find_face(face_members)
        old = {
            k: v for k, v in res.diffs[2].entries.items()
            if res.modules[2][k[1]].members == face_members
        }
        new = {
            k: v for k, v in two.entries.items()
            if rewritten.modules[2][k[1]].members == face_members
        }
        assert len(old) == len(new) == 2
    # the pivot matrix has the unit row and column through the pivot
    three = rewritten.diffs[3]
    assert entry_at(rewritten, 3, row, col).scalar == 1
    assert entry_at(rewritten, 3, row, col).monomial.is_unit
    pivot_ri = rewritten.modules[2].index(row)
    pivot_ci = rewritten.modules[3].index(col)
    for (ri, ci), entry in three.entries.items():
        if ri == pivot_ri or ci == pivot_ci:
            assert (ri, ci) == (pivot_ri, pivot_ci)
    # faces and multidegrees unchanged
    assert rewritten.ranks() == res.ranks()
    assert members(rewritten.iter_faces()) == members(res.iter_faces())


def _synthetic_resolution(diff2_entries, faces2):
    """A toy two-step complex with a zero first differential."""
    vars = VariableSet(("x",))
    unit = vars.unit()
    x = Monomial(vars, (1,))
    empty = Face((), unit)
    one_faces = [Face((0,), x), Face((1,), x)]
    two_faces = [Face(pair, x) for pair in faces2]
    entries = {
        key: Entry(Fraction(value), unit) for key, value in diff2_entries.items()
    }
    return Resolution(
        [[empty], one_faces, two_faces],
        [
            None,
            DifferentialMatrix({}),
            DifferentialMatrix(entries),
        ],
        [],
    )


def test_change_of_basis_one_by_one_block():
    res = _synthetic_resolution({(0, 0): 1}, [(0, 1)])
    pivot_row = res.modules[1][0]
    pivot_col = res.modules[2][0]
    rewritten = standard_change_of_basis(res, 2, pivot_row, pivot_col)
    assert rewritten.diffs[2].entries == {(0, 0): Entry(Fraction(1), res.modules[0][0].mdeg)}
    assert rewritten.diffs[1].entries == {}
    cancelled = standard_cancellation(res, 2, pivot_row, pivot_col)
    assert cancelled.ranks() == (1, 1, 0)


def test_fill_in_signs_from_unit_entries():
    # all four entries +-1: fill-in lands in {0, +-2}
    res = _synthetic_resolution(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): -1}, [(0, 1), (0, 2)]
    )
    pivot_row = res.modules[1][0]
    pivot_col = res.modules[2][0]
    rewritten = standard_change_of_basis(res, 2, pivot_row, pivot_col)
    fill = entry_at(rewritten, 2, res.modules[1][1], res.modules[2][1])
    assert fill.scalar == Fraction(-2)

    cancels = _synthetic_resolution(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, [(0, 1), (0, 2)]
    )
    rewritten = standard_change_of_basis(
        cancels, 2, cancels.modules[1][0], cancels.modules[2][0]
    )
    assert entry_at(rewritten, 2, cancels.modules[1][1], cancels.modules[2][1]) is None


def test_change_of_basis_requires_invertible_pivot():
    res = build_taylor(I("x^2, x*y, y^3"))
    with pytest.raises(IdealError, match="not invertible"):
        standard_change_of_basis(res, 1, res.find_face(()), res.find_face((0,)))


def test_pivot_moves_require_an_entry():
    res = build_taylor(I("x, y, z"))
    row, col = res.find_face((0,)), res.find_face((1, 2))
    with pytest.raises(
        IdealError,
        match=r"^no entry at row \(0,\), column \(1, 2\) of the degree-2 differential$",
    ):
        standard_change_of_basis(res, 2, row, col)
    with pytest.raises(
        IdealError,
        match=r"^cannot cancel row \(0,\), column \(1, 2\): no invertible entry there$",
    ):
        standard_cancellation(res, 2, row, col)


# --- standard cancellation -------------------------------------------------------


def test_cancellation_shrinks_and_leaves_minimal():
    res = build_taylor(I("x^2, x*y, y^3"))
    out = standard_cancellation(res, 3, res.find_face((0, 2)), res.find_face((0, 1, 2)))
    assert out.ranks() == (1, 3, 2, 0)
    assert find_invertible_entries(out) == []
    assert compose_check(out)
    assert entry_invariants_hold(out)
    (event,) = out.trail
    assert event.sigma.members == (0, 1, 2)
    assert event.tau.members == (0, 2)
    assert event.pivot_scalar == Fraction(-1)
    assert event.sigma.mdeg == event.tau.mdeg
    assert event.sigma.hdeg == event.tau.hdeg + 1
    # the input resolution is untouched
    assert res.ranks() == (1, 3, 3, 1)
    assert res.trail == []


def test_cancelling_pair_set_leaves_displayed_resolution():
    M = I("x^3y, y^2z, xz^2, xyz")
    res = build_taylor(M)
    for sigma, tau in semidominant_pair_set_A(M):
        res = standard_cancellation(res, sigma.hdeg, tau, sigma)
    assert res.ranks() == (1, 4, 3, 0, 0)
    assert find_invertible_entries(res) == []


# --- pair set A -------------------------------------------------------------------


def test_pair_set_example():
    pairs = semidominant_pair_set_A(I("x^3y, y^2z, xz^2, xyz"))
    assert [(s.members, t.members) for s, t in pairs] == [
        ((0, 1, 3), (0, 1)),
        ((0, 2, 3), (0, 2)),
        ((1, 2, 3), (1, 2)),
        ((0, 1, 2, 3), (0, 1, 2)),
    ]
    for sigma, tau in pairs:
        assert tau.is_facet_of(sigma)
        assert sigma.mdeg == tau.mdeg


def test_pair_set_single_pair():
    pairs = semidominant_pair_set_A(I("x^2, y^3, xy"))
    assert [(s.members, t.members) for s, t in pairs] == [((0, 1, 2), (0, 1))]


def test_pair_set_requires_semidominant():
    with pytest.raises(IdealError):
        semidominant_pair_set_A(I("x^2, y^3"))


def test_pair_set_pairwise_disjoint_and_nonempty(rng):
    # a semidominant ideal always has at least one cancellable pair: were A
    # empty its Taylor resolution would be minimal, hence the ideal dominant
    for _ in range(25):
        n_vars = rng.randint(2, 4)
        M = random_ideal_of_class(rng, n_vars, rng.randint(3, n_vars + 1), 3, "semi1")
        pairs = semidominant_pair_set_A(M)
        assert pairs
        seen = set()
        for sigma, tau in pairs:
            assert sigma.members not in seen and tau.members not in seen
            seen.add(sigma.members)
            seen.add(tau.members)


# --- eliminate_face_facet_pairs ----------------------------------------------------


def test_scripted_elimination_gets_stuck():
    res = build_taylor(I("x^2y^2z^2, xw^2, yw^2, zw"))
    script = Scripted((((0, 1, 2, 3), (0, 1, 3)), ((0, 1, 2), (0, 2))))
    outcome = eliminate_face_facet_pairs(res, script)
    assert outcome.status == "stuck"
    assert members(outcome.stuck_witness) == [(0, 1), (0, 2, 3)]
    witness = outcome.stuck_witness
    assert len({f.mdeg for f in witness}) == 1
    assert not any(
        a.is_facet_of(b) or b.is_facet_of(a)
        for a, b in combinations(witness, 2)
    )
    # fill-in created an invertible entry between non-facet faces, so the
    # generic minimizer can still finish the job
    stuck = outcome.resolution
    rescue = [
        (j, r, c)
        for j, r, c in find_invertible_entries(stuck)
        if not r.is_facet_of(c)
    ]
    assert rescue
    minimal = minimize_generic(stuck)
    assert minimal.ranks() == (1, 4, 4, 1, 0)
    assert compose_check(minimal)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([[[True, 0], [0]]], "not a nonnegative integer"),
        ([[[0, 1], [False]]], "not a nonnegative integer"),
        ([[{"0": 1, "1": 2}, [0]]], "not a list of generator indices"),
        ([[["a", 0], [0]]], "not a nonnegative integer"),
        ([[[0, 1.0], [0]]], "not a nonnegative integer"),
        ([[[0, -1], [0]]], "not a nonnegative integer"),
        ([[[0, 1, 1], [0, 1]]], "repeats a member"),
        ([[[0, 1], [0], [1]]], "not a \\[sigma, tau\\] pair"),
        ([[[0, 1]]], "not a \\[sigma, tau\\] pair"),
        ({"0": [[0, 1], [0]]}, "list of \\[sigma, tau\\] member-list pairs"),
        ([[[0, 1], "0"]], "not a list of generator indices"),
    ],
)
def test_scripted_rejects_malformed_members(pairs, message):
    with pytest.raises(IdealError, match=message):
        Scripted(pairs)


def test_scripted_normalizes_member_order():
    assert Scripted([[[2, 0, 1], [1, 0]]]).pairs == (((0, 1, 2), (0, 1)),)


def test_scripted_rejects_uncancellable_pair():
    res = build_taylor(I("x^2y^2, xz, yz"))
    for pairs, problem in [
        ([[(0, 1, 2), (1, 2)]], "no invertible entry there"),
        ([[(0, 1, 3), (0, 1)]], "face not present"),
        ([[(0, 1, 2), (0,)]], "not face and facet"),
        # A cancelled face is gone for the rest of the script.
        ([[(0, 1, 2), (0, 1)]] * 2, "face not present"),
    ]:
        sigma, tau = pairs[-1]
        message = f"scripted pair ({list(sigma)}, {list(tau)}) is not cancellable"
        with pytest.raises(IdealError, match=f"^{re.escape(message)}: {problem}$"):
            eliminate_face_facet_pairs(res, Scripted(pairs))


def test_elimination_order_independent_for_semidominant():
    M = I("x^3y, y^2z, xz^2, xyz")
    expected = members(build_taylor(M).iter_faces())
    survivors = None
    for seed in range(10):
        outcome = eliminate_face_facet_pairs(build_taylor(M), SeededRandom(seed))
        assert outcome.status == "completed"
        got = members(outcome.resolution.iter_faces())
        if survivors is None:
            survivors = got
        assert got == survivors
    assert survivors != expected  # something was actually cancelled
    assert outcome.resolution.ranks() == (1, 4, 3, 0, 0)


def test_two_scripted_orders_differ_in_basis_not_ranks():
    M = I("x^2y^2, xz, yz")
    first = eliminate_face_facet_pairs(
        build_taylor(M), Scripted((((0, 1, 2), (0, 1)),))
    )
    second = eliminate_face_facet_pairs(
        build_taylor(M), Scripted((((0, 1, 2), (0, 2)),))
    )
    assert first.status == second.status == "completed"
    assert first.resolution.ranks() == second.resolution.ranks() == (1, 3, 2, 0)
    assert members(first.resolution.iter_faces()) != members(
        second.resolution.iter_faces()
    )


def test_deterministic_elimination_tags_trail():
    outcome = eliminate_face_facet_pairs(build_taylor(I("x^2, x*y, y^3")))
    assert outcome.status == "completed"
    assert [e.strategy_tag for e in outcome.resolution.trail] == ["deterministic"]


# --- minimize_generic ----------------------------------------------------------------


def test_minimize_generic_noop_on_dominant():
    res = build_taylor(I("x^2, x*z, y^3"))
    minimal = minimize_generic(res)
    assert minimal.ranks() == res.ranks()
    assert minimal.trail == []


def test_minimize_generic_example_ranks():
    minimal = minimize_generic(build_taylor(I("x^2, x*y, y^3")))
    assert minimal.ranks() == (1, 3, 2, 0)
    assert [e.strategy_tag for e in minimal.trail] == ["generic"]


@settings(max_examples=25, deadline=None)
@given(ideals(max_gens=4))
def test_minimize_generic_reaches_minimal_complex(ideal):
    minimal = minimize_generic(build_taylor(ideal))
    assert find_invertible_entries(minimal) == []
    assert compose_check(minimal)
    assert entry_invariants_hold(minimal)


def test_minimize_generic_cancels_in_increasing_key_order(rng):
    # Each pivot is the least (degree, column members, row members) key.
    # Fill-in only makes (c, d) invertible when (row, d) already is, so d
    # comes after the pivot's column; the other degrees only lose
    # entries. Later pivots therefore have larger keys, and one ordered
    # sweep over the columns would find them all. Face/facet elimination
    # (Deterministic) has no such order, so it only supplies prefixes.
    ideals = [random_minimal_ideal(random.Random(10), 4, 10, 4)]
    for _ in range(30):
        n_vars = rng.randint(3, 5)
        ideals.append(
            random_minimal_ideal(rng, n_vars, rng.randint(2, 7), rng.randint(2, 4))
        )
    cancellations = []
    for M in ideals:
        taylor = build_taylor(M)
        facet_trail = eliminate_face_facet_pairs(taylor, Deterministic()).resolution.trail
        half = [(e.sigma.members, e.tau.members) for e in facet_trail[: len(facet_trail) // 2]]
        prefixed = eliminate_face_facet_pairs(taylor, Scripted(half)).resolution
        for start in (taylor, prefixed):
            trail = minimize_generic(start).trail[len(start.trail):]
            keys = [(e.sigma.hdeg, e.sigma.members, e.tau.members) for e in trail]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            cancellations.append(len(keys))
    assert cancellations[:2] == [493, 247]


@settings(max_examples=25, deadline=None)
@given(ideals(max_gens=4))
def test_alternating_rank_sum_preserved(ideal):
    res = build_taylor(ideal)
    total = sum((-1) ** j * r for j, r in enumerate(res.ranks()))
    minimal = minimize_generic(res)
    assert sum((-1) ** j * r for j, r in enumerate(minimal.ranks())) == total


# --- commutation of disjoint cancellations (small-ideal exhaustive check) -----------


def _disjoint(p1, p2):
    s1, t1 = p1
    s2, t2 = p2
    return len({s1.members, t1.members, s2.members, t2.members}) == 4


def _facet_pairs(res):
    return [
        (c, r) for j, r, c in find_invertible_entries(res) if r.is_facet_of(c)
    ]


@pytest.mark.parametrize("cls", ["semi1", "semi2"])
def test_disjoint_cancellations_commute(cls, rng):
    for _ in range(12):
        # two-variable minimal ideals have p = q - 2, so over 2 variables a
        # 2-semidominant ideal needs 4 generators; sample over >= 3 vars
        n_vars = rng.randint(2, 4) if cls == "semi1" else rng.randint(3, 4)
        p = 1 if cls == "semi1" else 2
        M = random_ideal_of_class(rng, n_vars, rng.randint(3, n_vars + p), 3, cls)
        res = build_taylor(M)
        pairs = _facet_pairs(res)
        for p1, p2 in combinations(pairs, 2):
            if not _disjoint(p1, p2):
                continue
            after = standard_cancellation(res, p1[0].hdeg, p1[1], p1[0])
            assert (p2[0], p2[1]) in _facet_pairs(after)
            after = standard_cancellation(res, p2[0].hdeg, p2[1], p2[0])
            assert (p1[0], p1[1]) in _facet_pairs(after)


def test_equal_multidegree_faces_stay_facet_related_semidominant(rng):
    # along any run of standard cancellations on a semidominant ideal, two
    # surviving faces of equal multidegree are always face and facet
    for _ in range(10):
        n_vars = rng.randint(2, 4)
        M = random_ideal_of_class(rng, n_vars, rng.randint(3, n_vars + 1), 3, "semi1")
        res = build_taylor(M)
        while True:
            for faces in repeated_multidegree_classes(res).values():
                for a, b in combinations(faces, 2):
                    assert a.is_facet_of(b) or b.is_facet_of(a)
            pairs = _facet_pairs(res)
            if not pairs:
                break
            sigma, tau = pairs[0]
            res = standard_cancellation(res, sigma.hdeg, tau, sigma)
        assert eliminate_face_facet_pairs(build_taylor(M)).status == "completed"


def test_consecutive_equal_multidegree_faces_are_facets_2semidominant(rng):
    for _ in range(10):
        n_vars = rng.randint(3, 4)
        M = random_ideal_of_class(rng, n_vars, rng.randint(3, n_vars + 2), 3, "semi2")
        res = build_taylor(M)
        for faces in repeated_multidegree_classes(res).values():
            for a, b in combinations(faces, 2):
                if abs(a.hdeg - b.hdeg) == 1:
                    low, high = sorted((a, b), key=lambda f: f.hdeg)
                    assert low.is_facet_of(high)


def test_2semidominant_elimination_never_stuck_ranks_agree(rng):
    for _ in range(8):
        n_vars = rng.randint(3, 4)
        M = random_ideal_of_class(rng, n_vars, rng.randint(3, n_vars + 2), 3, "semi2")
        ranks = None
        for seed in range(4):
            outcome = eliminate_face_facet_pairs(build_taylor(M), SeededRandom(seed))
            assert outcome.status == "completed"
            if ranks is None:
                ranks = outcome.resolution.ranks()
            assert outcome.resolution.ranks() == ranks


# --- arbitrary-order safety hypothesis ------------------------------------------------


def test_generic_after_any_prefix_has_the_same_ranks(rng):
    # minimal Betti numbers are unique: finishing generically from any
    # face/facet elimination prefix (stuck or not) gives the same ranks
    from monores.taylor import strip_trailing_zeros
    from monores.verify import betti_oracle

    for _ in range(10):
        n_vars = rng.randint(2, 4)
        M = random_ideal_of_class(rng, n_vars, rng.randint(1, 4), 3, "any")
        reference = strip_trailing_zeros(minimize_generic(build_taylor(M)).ranks())
        assert reference == betti_oracle(M)
        for seed in range(3):
            outcome = eliminate_face_facet_pairs(build_taylor(M), SeededRandom(seed))
            finished = minimize_generic(outcome.resolution)
            assert strip_trailing_zeros(finished.ranks()) == reference


def test_hypothesis_check_known_ideals():
    assert check_theorem71_hypothesis(I("xy, xz, yz")).holds
    assert check_theorem71_hypothesis(I("xz, yz, xw, yw")).holds
    report = check_theorem71_hypothesis(I("x^2y^2z^2, xw^2, yw^2, zw"))
    assert not report.holds
    triples = {
        (tau.members, sigma.members, other.members)
        for tau, sigma, other in report.violations
    }
    assert ((0, 1), (0, 1, 2), (0, 2)) in triples


def test_hypothesis_check_dominant_vacuous():
    assert check_theorem71_hypothesis(I("x^2, x*z, y^3")).holds


def reference_theorem71_violations(ideal):
    """The pairwise check: for each mask tau of an lcm class, scan the whole
    class for tau's cofaces, and when there are two or more, pair tau with
    every other in-class facet of each coface. Triples sorted by faces."""
    mdegs, classes = _subsets_by_lcm(ideal)
    violations = set()
    for masks in classes:
        if len(masks) < 3:
            continue
        mask_set = set(masks)
        for tau_mask in masks:
            size = tau_mask.bit_count()
            supersets = [
                m
                for m in masks
                if m.bit_count() == size + 1 and (m & tau_mask) == tau_mask
            ]
            if len(supersets) < 2:
                continue
            for sigma_mask in supersets:
                for bit in _bits(sigma_mask):
                    other_facet = sigma_mask & ~(1 << bit)
                    if other_facet != tau_mask and other_facet in mask_set:
                        violations.add((tau_mask, sigma_mask, other_facet))
    witnesses = [tuple(_face_from_mask(m, mdegs) for m in t) for t in violations]
    return tuple(sorted(witnesses, key=lambda t: tuple(f.sort_key() for f in t)))


@settings(max_examples=200, deadline=None)
@given(ideals_of_every_class())
@example(random_minimal_ideal(random.Random(10), 4, 10, 4))  # 10508 violations
@example(I("x^2y^2z^2, xw^2, yw^2, zw"))
def test_theorem71_check_matches_the_pairwise_scan(ideal):
    report = check_theorem71_hypothesis(ideal)
    violations = reference_theorem71_violations(ideal)
    assert report.violations == violations
    assert report.holds == (not violations)


def test_theorem71_check_builds_each_witness_face_once(monkeypatch):
    built = Counter()

    def counted(mask, mdegs):
        built[mask] += 1
        return _face_from_mask(mask, mdegs)

    ideal = random_minimal_ideal(random.Random(10), 4, 10, 4)
    monkeypatch.setattr(cancellation, "_face_from_mask", counted)
    report = check_theorem71_hypothesis(ideal)
    witness_masks = {face.mask for triple in report.violations for face in triple}
    assert len(report.violations) == 10508
    assert set(built) <= witness_masks
    assert max(built.values()) == 1


def test_family_members_reach_minimal_ranks_in_any_order():
    # For these hypothesis-satisfying ideals every elimination order ends in
    # a minimal resolution with the same ranks. The face bases themselves
    # may differ by order (for xy,xz,yz two same-degree faces of multidegree
    # xyz survive, so the run even reports "stuck" while already minimal);
    # recorded as an experiment, not a guaranteed invariant.
    from monores.verify import minimality_check

    for text, expected in [("xy, xz, yz", (1, 3, 2, 0)), ("xz, yz, xw, yw", (1, 4, 4, 1, 0))]:
        M = I(text)
        for seed in range(6):
            outcome = eliminate_face_facet_pairs(build_taylor(M), SeededRandom(seed))
            assert outcome.resolution.ranks() == expected
            assert minimality_check(outcome.resolution)
