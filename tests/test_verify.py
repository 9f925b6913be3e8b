import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import RP2, I, ideals, ideals_of_every_class, random_minimal_ideal
from monores import verify
from monores.cancellation import (
    Deterministic,
    SeededRandom,
    eliminate_face_facet_pairs,
    find_invertible_entries,
    minimize_generic,
    standard_cancellation,
    standard_change_of_basis,
)
from monores.cli import main
from monores.monomials import MAX_EXPONENT, CapExceededError, Monomial
from monores.taylor import (
    DifferentialMatrix,
    Entry,
    Face,
    Resolution,
    _bits,
    build_taylor,
    lcm_lattice,
    strip_trailing_zeros,
)
from monores.verify import (
    StrandReport,
    _StrandIndex,
    _betti_by_lcm,
    betti_oracle,
    compose_check,
    matrix_rank_exact,
    minimality_check,
    strand_exactness,
    strands_all_exact,
)


def fraction_rank_reference(rows):
    """Plain Gaussian elimination over Fractions, for cross-validation."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix or not matrix[0]:
        return 0
    m, n = len(matrix), len(matrix[0])
    rank = 0
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        for i in range(r + 1, m):
            factor = matrix[i][c] / matrix[r][c]
            for j in range(c, n):
                matrix[i][j] -= factor * matrix[r][j]
        r += 1
        rank += 1
    return rank


def bareiss_rank_reference(rows):
    """Dense fraction-free (Bareiss) elimination, for cross-validation.

    Rows are first scaled to integers (rank-preserving), then eliminated
    with the two-term determinant update, whose divisions are exact.
    """
    if not rows or not rows[0]:
        return 0
    work = []
    for row in rows:
        scale = 1
        for x in row:
            if isinstance(x, Fraction):
                scale = scale * x.denominator // gcd(scale, x.denominator)
        work.append([int(x * scale) for x in row])
    m, n = len(work), len(work[0])
    rank = 0
    pivot_row = 0
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(pivot_row, m) if work[i][col]), None)
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        lead = work[pivot_row][col]
        for i in range(pivot_row + 1, m):
            head = work[i][col]
            row_i = work[i]
            row_p = work[pivot_row]
            for j in range(col + 1, n):
                row_i[j] = (row_i[j] * lead - head * row_p[j]) // prev
            row_i[col] = 0
        prev = lead
        pivot_row += 1
        rank += 1
        if pivot_row == m:
            break
    return rank


def reference_strand_report(res, ideal, b):
    """One strand by rescanning every face and densifying every matrix."""
    top = res.top
    present = []  # module index -> strand-local index
    dims = []
    for degree in range(top + 1):
        local = {}
        for i, face in enumerate(res.modules[degree]):
            if face.mdeg.divides(b):
                local[i] = len(local)
        present.append(local)
        dims.append(len(local))

    ranks = [0] * (top + 1)
    ranks[0] = 0 if any(g.divides(b) for g in ideal.generators) else 1
    for degree in range(1, top + 1):
        rows_present = present[degree - 1]
        cols_present = present[degree]
        if not rows_present or not cols_present:
            continue
        matrix = res.diffs[degree]
        dense = [[Fraction(0)] * len(cols_present) for _ in rows_present]
        for (ri, ci), entry in matrix.entries.items():
            if ri in rows_present and ci in cols_present:
                dense[rows_present[ri]][cols_present[ci]] = entry.scalar
        ranks[degree] = bareiss_rank_reference(dense)

    exact = True
    failure = None
    for degree in range(top + 1):
        above = ranks[degree + 1] if degree + 1 <= top else 0
        if dims[degree] != ranks[degree] + above:
            exact = False
            failure = degree
            break
    return StrandReport(b, tuple(dims), tuple(ranks), exact, failure)


def reference_strand_exactness(res, ideal, exhaustive=False):
    """The dense strand oracle over the same targets as strand_exactness."""
    lattice = lcm_lattice(ideal).monomials
    if exhaustive:
        targets = [
            Monomial(ideal.vars, exps)
            for exps in product(*(range(e + 1) for e in lattice[-1].exponents))
        ]
    else:
        targets = [b for b in lattice if not b.is_unit]
    return [reference_strand_report(res, ideal, b) for b in targets]


def assert_strands_match_reference(res, ideal, modes=(False, True)):
    for exhaustive in modes:
        assert strand_exactness(res, ideal, exhaustive) == reference_strand_exactness(
            res, ideal, exhaustive
        )


def flip_one_sign(res):
    mutant = res.copy()
    matrix = mutant.diffs[2]
    key = min(matrix.entries)
    entry = matrix.entries[key]
    matrix.entries[key] = Entry(-entry.scalar, entry.monomial)
    return mutant


def delete_top_face(res):
    """Remove the top face outright (not via cancellation)."""
    mutant = res.copy()
    top = mutant.top
    mutant.modules[top] = []
    mutant.diffs[top] = DifferentialMatrix({})
    return mutant


# --- exact rank ---------------------------------------------------------------


def test_rank_known_values():
    assert matrix_rank_exact([[1, 1, 1]]) == 1
    assert matrix_rank_exact([[0, -1, -1], [-1, 0, 1], [1, 1, 0]]) == 2
    assert matrix_rank_exact([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert matrix_rank_exact([[0, 0], [0, 0]]) == 0
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([[2, 0], [0, 3]]) == 2


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_matches_reference_elimination(rows):
    assert matrix_rank_exact(rows) == fraction_rank_reference(rows)


@given(st.integers(0, 10**6))
def test_rank_matches_reference_on_fractions(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    n = rng.randint(1, 5)
    rows = [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    assert matrix_rank_exact(rows) == fraction_rank_reference(rows)


# --- compose_check ---------------------------------------------------------------


@settings(max_examples=30)
@given(ideals(max_gens=5))
def test_taylor_is_a_complex(ideal):
    assert compose_check(build_taylor(ideal))


def test_compose_after_single_cancellation():
    res = build_taylor(I("x^2, x*y, y^3"))
    out = standard_cancellation(res, 3, res.find_face((0, 2)), res.find_face((0, 1, 2)))
    assert compose_check(out)


def test_compose_fails_on_sign_flip():
    res = build_taylor(I("x^2, x*y, y^3"))
    assert not compose_check(flip_one_sign(res))


def reference_compose_check(res):
    """d∘d = 0 summed over Fractions and exponent tuples, one pair at a time."""
    for degree in range(1, res.top):
        lower = res.diffs[degree]
        upper = res.diffs[degree + 1]
        lower_by_col = {}
        for (ri, ci), entry in lower.entries.items():
            lower_by_col.setdefault(ci, []).append((ri, entry))
        sums = {}
        for (mid, ci), upper_entry in upper.entries.items():
            for ri, lower_entry in lower_by_col.get(mid, ()):
                exps = tuple(
                    a + b
                    for a, b in zip(
                        lower_entry.monomial.exponents, upper_entry.monomial.exponents
                    )
                )
                key = (ri, ci, exps)
                sums[key] = (
                    sums.get(key, Fraction(0))
                    + lower_entry.scalar * upper_entry.scalar
                )
        if any(total != 0 for total in sums.values()):
            return False
    return True


def compose_mutants(res, rng):
    """Four copies of res, each with one random entry corrupted.

    The corruptions: a sign flipped, a scalar times a non-integer
    rational, one exponent of a monomial moved by one, an entry deleted.
    """
    degrees = [j for j in range(1, res.top + 1) if res.diffs[j].entries]
    if not degrees:
        return []
    out = []
    for mutate in range(4):
        mutant = res.copy()
        entries = mutant.diffs[rng.choice(degrees)].entries
        key = rng.choice(sorted(entries))
        entry = entries[key]
        if mutate == 0:
            entries[key] = Entry(-entry.scalar, entry.monomial)
        elif mutate == 1:
            factor = Fraction(rng.choice((1, -1, 2, 5)), rng.choice((2, 3, 7)))
            entries[key] = Entry(entry.scalar * factor, entry.monomial)
        elif mutate == 2:
            exps = list(entry.monomial.exponents)
            i = rng.randrange(len(exps))
            exps[i] = exps[i] - 1 if exps[i] else 1
            entries[key] = Entry(entry.scalar, Monomial(entry.monomial.vars, exps))
        else:
            del entries[key]
        out.append(mutant)
    return out


@settings(max_examples=40, deadline=None)
@given(ideals(min_gens=2, max_gens=5), st.integers(0, 10**6))
def test_compose_check_matches_reference(ideal, seed):
    rng = random.Random(seed)
    taylor = build_taylor(ideal)
    complexes = [
        taylor,
        rescale_basis(taylor, rng),
        minimize_generic(taylor),
        eliminate_face_facet_pairs(taylor, Deterministic()).resolution,
        eliminate_face_facet_pairs(taylor, SeededRandom(seed)).resolution,
    ]
    pivots = find_invertible_entries(taylor)
    if pivots:
        complexes.append(standard_change_of_basis(taylor, *rng.choice(pivots)))
    for res in complexes:
        assert compose_check(res)
        assert reference_compose_check(res)
        for mutant in compose_mutants(res, rng):
            assert compose_check(mutant) == reference_compose_check(mutant)


def two_step_complex(vars, d1_entries, d2_entries):
    """Faces () <- (0,), (1,) <- (0, 1) with the given entries.

    d1_entries are the two entries of the one row of d1, d2_entries the
    two entries of the one column of d2, each as (scalar, exponents).
    The multidegrees are not checked by compose_check and are left at 1.
    """
    unit = vars.unit()
    rows = [Face((), unit)]
    mids = [Face((0,), unit), Face((1,), unit)]
    top = [Face((0, 1), unit)]
    d1 = DifferentialMatrix(
        {(0, i): Entry(x, vars.monomial(e)) for i, (x, e) in enumerate(d1_entries)}
    )
    d2 = DifferentialMatrix(
        {(i, 0): Entry(x, vars.monomial(e)) for i, (x, e) in enumerate(d2_entries)}
    )
    return Resolution([rows, mids, top], [None, d1, d2], [])


def test_compose_keeps_monomials_apart():
    # d1 d2 = x - y: the scalars cancel at the one (row, column), the
    # monomials do not, so dropping the monomial from the key would pass.
    vars = I("x, y").vars
    res = two_step_complex(
        vars, [(1, (1, 0)), (1, (0, 1))], [(1, (0, 0)), (-1, (0, 0))]
    )
    assert not reference_compose_check(res)
    assert not compose_check(res)


@pytest.mark.parametrize("e", [1, 3, 4, MAX_EXPONENT])
def test_compose_packing_leaves_room_for_the_carry(e):
    # d1 d2 = x^(2e) - x^r * y with 2e = 2^w + r, w = e.bit_length(): with
    # fields only w bits wide, x^e * x^e would carry into y's field and
    # pack like x^r * y, and the two terms would cancel.
    w = e.bit_length()
    r = 2 * e - (1 << w)
    vars = I("x, y").vars
    res = two_step_complex(
        vars, [(1, (e, 0)), (1, (r, 1))], [(1, (e, 0)), (-1, (0, 0))]
    )
    assert not reference_compose_check(res)
    assert not compose_check(res)
    # Two rows: d1 d2 = (y^(2e), -y^r). With y's field, the top one, only
    # w bits wide, y^e * y^e would carry into the row index and pack like
    # row 1's y^r, and row 0's term would cancel row 1's.
    ye, yr, unit = vars.monomial((0, e)), vars.monomial((0, r)), vars.unit()
    two_rows = Resolution(
        [[Face((), unit)] * 2, res.modules[1], res.modules[2]],
        [
            None,
            DifferentialMatrix({(0, 0): Entry(1, ye), (1, 1): Entry(1, yr)}),
            DifferentialMatrix({(0, 0): Entry(1, ye), (1, 0): Entry(-1, unit)}),
        ],
        [],
    )
    assert not reference_compose_check(two_rows)
    assert not compose_check(two_rows)


def test_compose_and_strand_oracles_share_one_product(monkeypatch):
    # compose_check keys rows with packed monomials below them (shift > 0);
    # the strand index keys plain row indices (shift = 0).
    shifts = []
    composes_to_zero = verify._composes_to_zero

    def recorded(columns, shift):
        shifts.append(shift)
        return composes_to_zero(columns, shift)

    monkeypatch.setattr(verify, "_composes_to_zero", recorded)
    M = I("x^2, x*y, y^3")
    taylor = build_taylor(M)
    assert compose_check(taylor)
    assert len(shifts) == 1 and shifts[0] > 0
    assert strands_all_exact(strand_exactness(taylor, M))
    assert shifts[1:] == [0]


def test_compose_matches_reference_at_the_exponent_cap():
    M = I(f"x^{MAX_EXPONENT}*y, x*y^2, z^3")
    taylor = build_taylor(M)
    rescaled = rescale_basis(taylor, random.Random(5))
    for res in (taylor, minimize_generic(taylor), rescaled):
        assert compose_check(res)
        for mutant in compose_mutants(res, random.Random(7)):
            assert compose_check(mutant) == reference_compose_check(mutant)
    assert not compose_check(flip_one_sign(taylor))


# --- strand exactness -------------------------------------------------------------


def test_strand_golden_values():
    M = I("x^2, x*y, y^3")
    reports = strand_exactness(build_taylor(M), M)
    # lattice minus unit: xy, y^3, x^2, x^2y, xy^3, x^2y^3
    assert len(reports) == 6
    by_mdeg = {str(r.multidegree): r for r in reports}
    full = by_mdeg["x^2*y^3"]
    assert full.dims == (1, 3, 3, 1)
    assert full.ranks == (0, 1, 2, 1)
    assert full.exact and full.failure_degree is None
    assert strands_all_exact(reports)


def test_strand_exactness_on_minimized_corpus(rng):
    for _ in range(10):
        M = random_minimal(rng)
        minimal = minimize_generic(build_taylor(M))
        assert strands_all_exact(strand_exactness(minimal, M))


def random_minimal(rng):
    from monores.monomials import random_ideal

    return random_ideal(rng, rng.randint(2, 4), rng.randint(1, 5), 3)


def test_strand_fails_on_arbitrary_deletion():
    M = I("x^2, x*y, y^3")
    mutant = delete_top_face(build_taylor(M))
    assert compose_check(mutant)  # still a complex, no longer exact
    reports = strand_exactness(mutant, M)
    assert not strands_all_exact(reports)
    bad = [r for r in reports if not r.exact]
    assert any(str(r.multidegree) == "x^2*y^3" and r.failure_degree == 2 for r in bad)


def test_exhaustive_strand_mode_agrees_on_tiny_ideals(rng):
    for _ in range(5):
        M = random_minimal_tiny(rng)
        res = build_taylor(M)
        assert strands_all_exact(strand_exactness(res, M))
        exhaustive = strand_exactness(res, M, exhaustive=True)
        assert strands_all_exact(exhaustive)
        lattice_count = len(strand_exactness(res, M))
        assert len(exhaustive) >= lattice_count


def random_minimal_tiny(rng):
    from monores.monomials import random_ideal

    return random_ideal(rng, rng.randint(2, 3), rng.randint(1, 4), 3)


def test_exhaustive_strand_mode_refuses_past_its_cap():
    # 101^3 multidegrees lie below x^100 y^100 z^100.
    M = I("x^100, y^100, z^100")
    with pytest.raises(CapExceededError, match="would visit 1030301 multidegrees"):
        strand_exactness(build_taylor(M), M, exhaustive=True)


def test_exhaustive_mode_covers_the_unit_degree():
    M = I("x^2, y^2")
    reports = strand_exactness(build_taylor(M), M, exhaustive=True)
    unit = next(r for r in reports if r.multidegree.is_unit)
    assert unit.dims == (1, 0, 0)
    assert unit.ranks == (1, 0, 0)  # the quotient is nonzero at degree 1
    assert unit.exact


@settings(max_examples=40, deadline=None)
@given(ideals(min_gens=2, max_gens=5))
def test_strand_exactness_matches_dense_reference(ideal):
    assume(len(ideal) >= 2)  # flip_one_sign needs a degree-2 differential
    taylor = build_taylor(ideal)
    for res in (
        taylor,
        minimize_generic(taylor),
        eliminate_face_facet_pairs(taylor).resolution,
        flip_one_sign(taylor),
        delete_top_face(taylor),
    ):
        assert_strands_match_reference(res, ideal)


def test_strand_packing_covers_targets_above_every_face():
    # With the x^4 faces gone, every face exponent is at most 1 while the
    # lattice still reaches x^4: face selection must cover targets above
    # every face.
    M = I("x^4, y")
    y = M.generators[1]
    unit_face = Face((), M.vars.unit())
    y_face = Face((1,), y)
    d1 = DifferentialMatrix({(0, 0): Entry(1, y)})
    res = Resolution([[unit_face], [y_face]], [None, d1], [])
    assert_strands_match_reference(res, M)
    at_x4 = next(r for r in strand_exactness(res, M) if str(r.multidegree) == "x^4")
    assert at_x4.dims == (1, 0)
    assert not at_x4.exact


def test_strands_match_reference_at_the_exponent_cap():
    M = I(f"x^{MAX_EXPONENT}*y, x*y^2, z^3")
    taylor = build_taylor(M)
    for res in (taylor, minimize_generic(taylor), delete_top_face(taylor)):
        assert_strands_match_reference(res, M, modes=(False,))
    assert strands_all_exact(strand_exactness(taylor, M))


def rescale_basis(res, rng):
    """Diagonal change of basis by rationals with even denominators.

    Face f of degree j becomes s_f * f with s_f = odd / (2^j * odd), so
    entry (r, c) becomes entry * s_c / s_r, whose denominator is even.
    The result is isomorphic to the input, exact wherever it was.
    """
    scale = [
        [
            Fraction(rng.choice((1, -1, 3, -3, 5)), 2**degree * rng.choice((1, 3, 5)))
            for _ in module
        ]
        for degree, module in enumerate(res.modules)
    ]
    out = res.copy()
    for degree in range(1, out.top + 1):
        matrix = out.diffs[degree]
        matrix.entries = {
            (ri, ci): Entry(
                e.scalar * scale[degree][ci] / scale[degree - 1][ri], e.monomial
            )
            for (ri, ci), e in matrix.entries.items()
        }
    return out


@settings(max_examples=25, deadline=None)
@given(ideals(min_gens=2, max_gens=4), st.integers(0, 10**6))
def test_strand_exactness_matches_reference_on_rational_scalars(ideal, seed):
    assume(len(ideal) >= 2)
    rescaled = rescale_basis(build_taylor(ideal), random.Random(seed))
    assert all(
        e.scalar.denominator % 2 == 0
        for matrix in rescaled.diffs[1:]
        for e in matrix.entries.values()
    )
    assert strands_all_exact(strand_exactness(rescaled, ideal))
    for res in (rescaled, minimize_generic(rescaled), flip_one_sign(rescaled)):
        assert_strands_match_reference(res, ideal)


def scale_face(res, degree, index, factor):
    """The change of basis f -> factor * f on one face f.

    Column f of d_degree is multiplied by factor and row f of
    d_(degree + 1) divided by it, so the result is isomorphic to res.
    """
    out = res.copy()
    matrix = out.diffs[degree]
    for key, e in list(matrix.entries.items()):
        if key[1] == index:
            matrix.entries[key] = Entry(e.scalar * factor, e.monomial)
    if degree < out.top:
        matrix = out.diffs[degree + 1]
        for key, e in list(matrix.entries.items()):
            if key[0] == index:
                matrix.entries[key] = Entry(Fraction(e.scalar) / factor, e.monomial)
    return out


@settings(max_examples=25, deadline=None)
@given(ideals(min_gens=2, max_gens=4), st.integers(0, 10**6))
def test_strands_exact_with_an_even_scalar(ideal, seed):
    # Doubling the top face makes the top column even, so its strands have
    # GF(2) rank 0 where the rational rank is 1; doubling or halving any
    # other face puts even scalars inside other strands. Each stays exact,
    # which only the exact ranks can show.
    assume(len(ideal) >= 2)
    rng = random.Random(seed)
    taylor = build_taylor(ideal)
    degree = rng.randrange(1, taylor.top)
    index = rng.randrange(len(taylor.modules[degree]))
    for res in (
        scale_face(taylor, taylor.top, 0, 2),
        scale_face(taylor, degree, index, 2),
        scale_face(taylor, degree, index, Fraction(1, 2)),
    ):
        assert compose_check(res)
        assert strands_all_exact(strand_exactness(res, ideal))
        assert_strands_match_reference(res, ideal)


@pytest.mark.parametrize(
    "text", ["x^2, x*y, y^3", "xy, yz, xz", "x^3y, y^2z, xz^2, xyz"]
)
def test_strands_after_a_sign_flip_match_reference(text):
    # A flipped sign is invisible mod 2: the GF(2) ranks still look exact,
    # and only the d∘d precondition keeps the certificate from applying.
    M = I(text)
    mutant = flip_one_sign(build_taylor(M))
    assert not compose_check(mutant)
    assert not strands_all_exact(strand_exactness(mutant, M))
    assert_strands_match_reference(mutant, M)


def swap_degree_one_faces(res):
    """Faces 0 and 2 of degree 1 trade places, the matrices left as they
    are: the scalars still compose to zero, but some entries now sit at a
    row face that does not divide their column face."""
    mutant = res.copy()
    faces = mutant.modules[1]
    faces[0], faces[2] = faces[2], faces[0]
    return mutant


def add_rows_outside_the_degree(res):
    """Two more top-differential entries, at row indices before and past
    the faces of the degree below; nothing composes with them."""
    mutant = res.copy()
    top = mutant.top
    for row in (-1, len(mutant.modules[top - 1])):
        mutant.diffs[top].entries[(row, 0)] = Entry(1, mutant.modules[0][0].mdeg)
    return mutant


@pytest.mark.parametrize("mutate", [swap_degree_one_faces, add_rows_outside_the_degree])
@pytest.mark.parametrize("text", ["x^2, x*y, y^3", "x^3y, y^2z, xz^2, xyz"])
def test_entries_off_the_divisibility_order_are_not_certified(mutate, text):
    M = I(text)
    mutant = mutate(build_taylor(M))
    assert compose_check(mutant)
    assert _StrandIndex(build_taylor(M), M).certifiable
    assert not _StrandIndex(mutant, M).certifiable
    assert_strands_match_reference(mutant, M)


def test_strands_when_d_squared_vanishes_only_outside_the_strand():
    # Faces (mdeg): e (1); a (x), z (y); c (x), w (y); t (x), by degree.
    # At b = x the strand is e <- a <- c <- t with scalars 1, 2, 1: GF(2)
    # ranks 1, 0, 1 meet dims (1, 1, 1, 1), rational ranks 1, 1, 1 do not.
    # Its d∘d is nonzero; the full one cancels 1*2 against the entries
    # (e, z) * (z, c) = 1 * -2 and (a, w) * (w, t) = 1 * -2. The row faces
    # of (z, c), (a, w) and (w, t) do not divide their column faces, so
    # the certificate must not apply.
    M = I("x, y")
    x, y = M.generators
    unit = M.vars.unit()
    e = [Face((), unit)]
    mid = [Face((0,), x), Face((1,), y)]
    upper = [Face((0, 1), x), Face((0, 2), y)]
    top = [Face((0, 1, 2), x)]
    d1 = DifferentialMatrix({(0, 0): Entry(1, x), (0, 1): Entry(1, y)})
    d2 = DifferentialMatrix(
        {
            (0, 0): Entry(2, unit),
            (1, 0): Entry(-2, unit),
            (0, 1): Entry(1, unit),
            (1, 1): Entry(-1, unit),
        },
    )
    d3 = DifferentialMatrix({(0, 0): Entry(1, unit), (1, 0): Entry(-2, unit)})
    res = Resolution([e, mid, upper, top], [None, d1, d2, d3], [])
    scalars = [
        {k: v.scalar for k, v in d.entries.items()} for d in res.diffs[1:]
    ]
    assert all(
        sum(
            lower.get((r, m), 0) * higher.get((m, c), 0)
            for m in range(len(res.modules[j + 1]))
        )
        == 0
        for j, (lower, higher) in enumerate(zip(scalars, scalars[1:]))
        for r in range(len(res.modules[j]))
        for c in range(len(res.modules[j + 2]))
    )
    assert_strands_match_reference(res, M)
    at_x = next(r for r in strand_exactness(res, M) if str(r.multidegree) == "x")
    assert at_x.dims == (1, 1, 1, 1)
    assert at_x.ranks == (0, 1, 1, 1)
    assert not at_x.exact and at_x.failure_degree == 1


_real_report = _StrandIndex.report


def trusting_gf2_report(self, b):
    """_StrandIndex.report that takes the GF(2) ranks as they come wherever
    the certificate's preconditions hold, with no exact fallback when they
    miss the exactness equations."""
    divisors = self._divisors(b)
    present = [divisors >> o & ((1 << s) - 1) for o, s in zip(self.offsets, self.sizes)]
    if not (divisors >> self.offsets[-1] and self.certifiable):
        return _real_report(self, b)
    dims = [mask.bit_count() for mask in present]
    ranks = [0] + [
        verify._gf2_rank([odd[ci] for ci in _bits(mask)])
        for odd, mask in zip(self.odd[1:], present[1:])
    ]
    failure = verify._unmet_degree(dims, ranks)
    return StrandReport(b, tuple(dims), tuple(ranks), failure is None, failure)


def test_rp2_resolves_over_q_with_a_pivot_of_2(rp2, capsys, monkeypatch):
    # Over GF(2) the class of abcdef carries homology that Q does not see,
    # so a GF(2)-only strand oracle would refuse the correct resolution.
    taylor = build_taylor(rp2)
    minimal = minimize_generic(taylor)
    assert strip_trailing_zeros(minimal.ranks()) == betti_oracle(rp2) == (1, 10, 15, 6)
    other = [e.pivot_scalar for e in minimal.trail if e.pivot_scalar not in (1, -1)]
    assert other == [2] and type(other[0]) is int
    assert main(["verify", RP2]) == 0
    capsys.readouterr()

    monkeypatch.setattr(_StrandIndex, "report", trusting_gf2_report)
    # Every Taylor strand is GF(2)-certified; one minimal strand needs the
    # exact ranks.
    assert strands_all_exact(strand_exactness(taylor, rp2))
    failed = [r for r in strand_exactness(minimal, rp2) if not r.exact]
    assert [str(r.multidegree) for r in failed] == ["a*b*d*e*c*f"]
    assert main(["verify", RP2]) == 3
    assert "internal oracle disagreement" in capsys.readouterr().err


# --- minimality --------------------------------------------------------------------


def test_minimality_examples():
    assert minimality_check(build_taylor(I("x^2, x*z, y^3")))
    assert not minimality_check(build_taylor(I("x^2, x*y, y^3")))
    assert minimality_check(minimize_generic(build_taylor(I("x^2, x*y, y^3"))))


# --- betti oracle --------------------------------------------------------------------


def test_betti_oracle_examples():
    assert betti_oracle(I("x^3y, y^2z, xz^2, xyz")) == (1, 4, 3)
    assert betti_oracle(I("x^2, x*z, y^3")) == (1, 3, 3, 1)
    assert betti_oracle(I("xy, xz, yz")) == (1, 3, 2)


def betti_by_multidegree(res, q):
    """Surviving faces of a resolution counted per (multidegree, degree)."""
    counts = {}
    for face in res.iter_faces():
        counts.setdefault(face.mdeg.exponents, [0] * (q + 1))[face.hdeg] += 1
    return counts


@settings(max_examples=200, deadline=None)
@given(ideals_of_every_class())
@example(random_minimal_ideal(random.Random(10), 4, 10, 4))  # 493 cancellations
def test_betti_by_lcm_matches_minimize_generic_per_multidegree(ideal):
    by_lcm = {m: betti for m, betti in _betti_by_lcm(ideal).items() if any(betti)}
    minimal = minimize_generic(build_taylor(ideal))
    assert by_lcm == betti_by_multidegree(minimal, len(ideal))


def test_betti_oracle_sees_a_dropped_face(monkeypatch):
    # Negative control: without the face {0, 1, 2}, the lcm class of
    # x^2y^3 keeps {0, 2} alone, which then reads as one more β_2.
    import monores.verify as verify

    subsets_by_lcm = verify._subsets_by_lcm

    def drop_one_face(ideal):
        mdegs, classes = subsets_by_lcm(ideal)
        next(masks for masks in classes if len(masks) > 1).pop()
        return mdegs, classes

    M = I("x^2, x*y, y^3")
    assert betti_oracle(M) == (1, 3, 2)
    monkeypatch.setattr(verify, "_subsets_by_lcm", drop_one_face)
    assert betti_oracle(M) != (1, 3, 2)


@settings(max_examples=20, deadline=None)
@given(ideals(max_gens=4))
def test_betti_oracle_invariant_under_permutation(ideal):
    gens = list(ideal.generators)
    reference = betti_oracle(ideal)
    rng = random.Random(sum(map(hash, gens)) & 0xFFFF)
    rng.shuffle(gens)
    from monores.monomials import MonomialIdeal

    assert betti_oracle(MonomialIdeal(ideal.vars, tuple(gens))) == reference


@settings(max_examples=25, deadline=None)
@given(ideals(max_gens=5))
def test_alternating_sum_of_betti_is_zero(ideal):
    betti = betti_oracle(ideal)
    assert sum((-1) ** i * b for i, b in enumerate(betti)) == 0
