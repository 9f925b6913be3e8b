import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import I, ideals
from monores.dominance import (
    classify,
    dominant_variables,
    is_complete_intersection,
    is_dominant_subset,
    is_generic,
    largest_dominant_subset_with,
    random_ideal_of_class,
)
from monores.invariants import invariants_semidominant
from monores.monomials import (
    IdealError,
    Monomial,
    MonomialIdeal,
    VariableSet,
    lcm,
    random_ideal,
)


# --- dominant_variables -------------------------------------------------------


def test_dominant_variables_examples():
    M1 = I("x^3y, xy^2z, xz^2")
    # x*y^2*z has dominant variable y only
    assert dominant_variables(1, M1.generators) == {M1.vars.index("y")}

    M3 = I("x^2, y^2, xy")
    assert dominant_variables(2, M3.generators) == frozenset()

    sub = I("x^2, xy")
    assert dominant_variables(1, sub.generators) == {sub.vars.index("y")}


def test_dominant_variables_empty_reference_is_error():
    with pytest.raises(IdealError, match="^reference set is empty$"):
        dominant_variables(0, [])


def test_random_class_rejects_an_unknown_class():
    with pytest.raises(IdealError, match="^unknown ideal class 'semi3'$"):
        random_ideal_of_class(random.Random(0), 3, 4, 2, cls="semi3")


def test_dominant_variables_singleton_reference():
    vars = VariableSet(("x", "y"))
    m = Monomial(vars, (2, 1))
    assert dominant_variables(0, [m]) == {0, 1}


# --- classify ------------------------------------------------------------------


def test_classify_dominant():
    report = classify(I("wx, y^3, z^2"))
    assert report.p == 0
    assert report.class_label == "dominant"
    assert report.nondominant_indices == ()


def test_classify_semidominant():
    report = classify(I("x^2, y^3, xy"))
    assert report.p == 1
    assert report.class_label == "semidominant"
    assert report.nondominant_indices == (2,)


def test_classify_three_nondominant():
    report = classify(I("xy, yz, xz"))
    assert report.p == 3
    assert report.class_label == "3-semidominant"


def test_classify_examples_from_corpus():
    assert classify(I("xy, z^2, yz")).p == 1
    assert classify(I("x^2z, y^3, yz^3")).p == 0
    assert classify(I("x^2y^2, xz, yz")).p == 2


# --- dominant subsets -----------------------------------------------------------


def test_is_dominant_subset_examples():
    M = I("x^3y, y^2z, xz^2, xyz")
    gens = M.generators
    assert is_dominant_subset([gens[0], gens[3]])  # {x^3y, xyz}
    assert not is_dominant_subset([gens[0], gens[1], gens[3]])
    assert is_dominant_subset([gens[0]])  # singletons are dominant


def test_is_dominant_subset_empty_is_error():
    with pytest.raises(IdealError):
        is_dominant_subset([])


def test_largest_dominant_subset_examples():
    M = I("x^3y, y^2z, xz^2, xyz")
    assert largest_dominant_subset_with(M, 3) == (2, (0, 3))

    M513 = I("v^2xyz, vw^2yz, vwx^2z, vwxy^2, wxyz^2, vwxyz")
    size, witness = largest_dominant_subset_with(M513, 5)
    assert size == 2
    assert 5 in witness

    # brute force over all 4 subsets containing xy
    M1 = I("x^2, y^3, xy")
    size, witness = largest_dominant_subset_with(M1, 2)
    assert size == 2
    best = 0
    gens = M1.generators
    for r in range(3):
        for combo in combinations([0, 1], r):
            subset = [gens[i] for i in combo] + [gens[2]]
            if is_dominant_subset(subset):
                best = max(best, len(subset))
    assert best == size


def test_largest_dominant_subset_requires_semidominant():
    with pytest.raises(IdealError):
        largest_dominant_subset_with(I("x^2, y^2"), 0)


def searched_largest_dominant_subset_with(ideal, n_index):
    """Reference: the first dominant set containing n in a search over
    every subset, largest size first and lexicographic within a size."""
    gens = ideal.generators
    others = [i for i in range(len(gens)) if i != n_index]
    for size in range(len(gens), 0, -1):
        for combo in combinations(others, size - 1):
            indices = tuple(sorted(combo + (n_index,)))
            if is_dominant_subset([gens[i] for i in indices]):
                return size, indices


def random_semidominant_ideals(count, seed=7):
    """(ideal, n_index) for semidominant ideals over 2-6 variables, q <= 8."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n_vars = rng.randint(2, 6)
        n_gens = rng.randint(3, min(8, n_vars + 1))
        try:
            ideal = random_ideal(rng, n_vars, n_gens, rng.randint(1, 4))
        except IdealError:
            continue
        report = classify(ideal)
        if report.p == 1:
            found.append((ideal, report.nondominant_indices[0]))
    return found


def test_largest_dominant_subset_matches_subset_search():
    for ideal, n_index in random_semidominant_ideals(150):
        expected = searched_largest_dominant_subset_with(ideal, n_index)
        assert largest_dominant_subset_with(ideal, n_index) == expected


def test_semidominant_reg_maximizes_over_dominant_sets_with_n():
    for ideal, n_index in random_semidominant_ideals(60, seed=11):
        gens = ideal.generators
        others = [gens[i] for i in range(len(gens)) if i != n_index]
        expected = 0
        for size in range(len(gens)):
            for combo in combinations(others, size):
                chosen = [*combo, gens[n_index]]
                if is_dominant_subset(chosen):
                    reg = lcm(chosen).total_degree() - len(chosen)
                    expected = max(expected, reg)
        assert invariants_semidominant(ideal).reg == expected


def test_largest_dominant_subset_past_24_generators():
    # n = x1*x2 beats the squares of every variable but x1 (or x2)
    squares = ", ".join(f"x{k}^2" for k in range(1, 25))
    ideal = I(f"{squares}, x1*x2")
    size, witness = largest_dominant_subset_with(ideal, 24)
    assert (size, witness) == (24, (0, *range(2, 25)))
    gens = ideal.generators
    assert is_dominant_subset([gens[i] for i in witness])
    assert not is_dominant_subset([gens[i] for i in sorted(witness + (1,))])


# --- generic / complete intersection -------------------------------------------


def test_is_generic_examples():
    assert is_generic(I("x^2, y^2, xy"))
    assert not is_generic(I("x^3y, xy^2z, xz^2"))
    assert not is_generic(I("x^3y, y^2z, yz^4, xz^2, x^2z"))


def test_is_complete_intersection_examples():
    assert is_complete_intersection(I("wx, y^3, z^2"))
    assert not is_complete_intersection(I("x^2, xy"))
    assert is_complete_intersection(I("x^3"))


# --- properties ------------------------------------------------------------------


@given(ideals())
def test_partition_property(ideal):
    report = classify(ideal)
    for i, dom in report.per_generator:
        assert (i in report.nondominant_indices) == (not dom)
    assert report.p == len(report.nondominant_indices)
    assert (report.p == 0) == all(dom for _i, dom in report.per_generator)


@given(ideals())
def test_complete_intersection_implies_dominant(ideal):
    if is_complete_intersection(ideal):
        assert classify(ideal).p == 0


@given(ideals(min_gens=2, max_gens=5), st.data())
def test_dominance_monotone_under_shrinking(ideal, data):
    gens = list(ideal.generators)
    report = classify(ideal)
    dominant = [i for i, dom in report.per_generator if dom]
    if not dominant:
        return
    keep = data.draw(
        st.lists(st.sampled_from(range(len(gens))), unique=True, min_size=1)
    )
    target = data.draw(st.sampled_from(dominant))
    subset_indices = sorted(set(keep) | {target})
    subset = [gens[i] for i in subset_indices]
    assert dominant_variables(subset_indices.index(target), subset)


@given(ideals(min_gens=1, max_gens=5))
def test_dominant_subsets_are_hereditary(ideal):
    # in a subset each member has fewer rivals, so it keeps its dominant
    # variables: every nonempty subset of a dominant set is dominant
    gens = ideal.generators
    for size in range(1, len(gens) + 1):
        for chosen in combinations(gens, size):
            if not is_dominant_subset(chosen):
                continue
            for smaller in range(1, size):
                for subset in combinations(chosen, smaller):
                    assert is_dominant_subset(subset)


def test_two_generator_minimal_ideals_are_dominant_exhaustive():
    # every minimal 2-generator ideal over 2 variables, exponents <= 3
    vars = VariableSet(("x", "y"))
    count = 0
    for ea, eb in product(product(range(4), repeat=2), repeat=2):
        if not any(ea) or not any(eb):
            continue
        a, b = Monomial(vars, ea), Monomial(vars, eb)
        if a.divides(b) or b.divides(a):
            continue
        ideal = MonomialIdeal(vars, (a, b))
        assert classify(ideal).p == 0
        count += 1
    assert count > 0


@settings(max_examples=40)
@given(st.data())
def test_almost_complete_intersections_have_p_at_most_one(data):
    # pairwise-coprime generators plus one extra, none dividing another
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n_vars = rng.randint(3, 5)
    vars = VariableSet(tuple(f"x{i}" for i in range(n_vars)))
    n_coprime = rng.randint(2, n_vars)
    slots = list(range(n_vars))
    rng.shuffle(slots)
    gens = []
    for k in range(n_coprime):
        exps = [0] * n_vars
        exps[slots[k]] = rng.randint(1, 3)
        gens.append(Monomial(vars, tuple(exps)))
    extra = Monomial(
        vars, tuple(rng.randint(0, 2) for _ in range(n_vars))
    )
    if extra.is_unit:
        return
    if any(extra.divides(g) or g.divides(extra) for g in gens):
        return
    ideal = MonomialIdeal(vars, tuple(gens) + (extra,))
    assert classify(ideal).p <= 1


# --- squarefree class requests ---------------------------------------------------


def squarefree_shapes(n_vars):
    """(q, p) of every antichain of squarefree monomials over n_vars variables."""
    vars = VariableSet(tuple(f"x{i}" for i in range(n_vars)))
    masks = range(1, 1 << n_vars)
    shapes = set()

    def extend(chosen, start):
        if chosen:
            gens = tuple(
                Monomial(vars, tuple(m >> v & 1 for v in range(n_vars)))
                for m in chosen
            )
            shapes.add((len(chosen), classify(MonomialIdeal(vars, gens)).p))
        for k in range(start, len(masks)):
            if all(a & masks[k] not in (a, masks[k]) for a in chosen):
                extend(chosen + [masks[k]], k + 1)

    extend([], 0)
    return shapes


class Drew(Exception):
    pass


def test_squarefree_class_requests_are_refused_exactly_when_no_ideal_exists(
    monkeypatch,
):
    # A request the census cannot meet is refused before any draw; one it
    # can meet reaches random_ideal.
    import monores.dominance as dominance

    def draw(*args):
        raise Drew

    monkeypatch.setattr(dominance, "random_ideal", draw)
    expected, got = {}, {}
    for n_vars in range(1, 6):
        shapes = squarefree_shapes(n_vars)
        for q in range(1, n_vars + 3):
            for p, cls in enumerate(("dominant", "semi1", "semi2")):
                expected[n_vars, q, cls] = "draws" if (q, p) in shapes else "refused"
                rng = random.Random(0)
                state = rng.getstate()
                try:
                    random_ideal_of_class(rng, n_vars, q, 1, cls)
                except Drew:
                    got[n_vars, q, cls] = "draws"
                except IdealError as error:
                    assert "impossible request" in str(error)
                    assert rng.getstate() == state
                    got[n_vars, q, cls] = "refused"
    assert got == expected
