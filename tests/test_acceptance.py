"""Acceptance suite: one test per acceptance criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (pytest -v itself shows one PASSED/FAILED line per criterion).
Corpora are generated from fixed seeds so every run checks the same ideals.
"""

import random
import time
from math import comb

import pytest

from monores.cancellation import (
    Deterministic,
    Scripted,
    SeededRandom,
    check_theorem71_hypothesis,
    eliminate_face_facet_pairs,
    find_invertible_entries,
    minimize_generic,
    standard_cancellation,
)
from monores.dominance import classify, random_ideal_of_class
from monores.invariants import (
    betti_dominant,
    invariants_from_resolution,
    invariants_semidominant,
    is_scarf,
    scarf_complex,
    scarf_face_counts,
)
from monores.monomials import parse_ideal, random_ideal
from monores.taylor import (
    DifferentialMatrix,
    Entry,
    build_taylor,
    lcm_lattice,
    repeated_multidegree_classes,
    strip_trailing_zeros,
)
from monores.verify import (
    compose_check,
    minimality_check,
    strand_exactness,
    strands_all_exact,
)

ACCEPT_SEED = 271828


def I(text):
    return parse_ideal(text).ideal


def report(number, message):
    print(f"PASS criterion {number}: {message}")


# --- fixed-seed corpora -----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_main():
    # 500 random minimal ideals: vars <= 5, gens <= 8, exponents <= 4.
    # Over 2 variables an antichain with exponents <= 4 has <= 5 members.
    rng = random.Random(ACCEPT_SEED)
    ideals = []
    while len(ideals) < 500:
        n_vars = rng.randint(2, 5)
        n_gens = rng.randint(1, 5 if n_vars == 2 else 8)
        ideals.append(random_ideal(rng, n_vars, n_gens, 4))
    return ideals


@pytest.fixture(scope="module")
def corpus_semi1():
    rng = random.Random(ACCEPT_SEED + 1)
    ideals = []
    while len(ideals) < 100:
        n_vars = rng.randint(2, 5)
        n_gens = rng.randint(3, n_vars + 1)
        ideals.append(random_ideal_of_class(rng, n_vars, n_gens, 4, "semi1"))
    return ideals


@pytest.fixture(scope="module")
def corpus_semi2():
    rng = random.Random(ACCEPT_SEED + 2)
    ideals = []
    while len(ideals) < 100:
        n_vars = rng.randint(3, 5)
        n_gens = rng.randint(3, n_vars + 2)
        ideals.append(random_ideal_of_class(rng, n_vars, n_gens, 4, "semi2"))
    return ideals


@pytest.fixture(scope="module")
def corpus_step():
    # smaller mixed corpus for the per-step oracle closure criterion
    named = [
        "x^2, x*y, y^3",
        "x^2, x*z, y^3",
        "x^3y, y^2z, xz^2, xyz",
        "x^2y^2, xz, yz",
        "x^2y^2z^2, xw^2, yw^2, zw",
        "xy, xz, yz",
        "xz, yz, xw, yw",
        "x^3y, y^2z, yz^4, xz^2, x^2z",
        "x^3y, y^2z, yz^4, xz^2w, x^2zw",
    ]
    ideals = [I(text) for text in named]
    rng = random.Random(ACCEPT_SEED + 3)
    while len(ideals) < 40:
        n_vars = rng.randint(2, 4)
        n_gens = rng.randint(1, 4 if n_vars == 2 else 6)
        ideals.append(random_ideal(rng, n_vars, n_gens, 3))
    return ideals


# --- criterion 1: golden Taylor matrices ---------------------------------------------


def matrix_as_face_dict(res, degree):
    rows, cols = res.modules[degree - 1], res.modules[degree]
    return {
        (rows[ri].members, cols[ci].members): (
            int(entry.scalar),
            entry.monomial.exponents,
        )
        for (ri, ci), entry in res.diffs[degree].entries.items()
    }


def test_criterion_01_golden_taylor_matrices():
    start = time.perf_counter()

    res = build_taylor(I("x^2, x*y, y^3"))
    assert matrix_as_face_dict(res, 1) == {
        ((), (0,)): (1, (2, 0)),
        ((), (1,)): (1, (1, 1)),
        ((), (2,)): (1, (0, 3)),
    }
    assert matrix_as_face_dict(res, 2) == {
        ((0,), (0, 1)): (-1, (0, 1)),
        ((1,), (0, 1)): (1, (1, 0)),
        ((0,), (0, 2)): (-1, (0, 3)),
        ((2,), (0, 2)): (1, (2, 0)),
        ((1,), (1, 2)): (-1, (0, 2)),
        ((2,), (1, 2)): (1, (1, 0)),
    }
    assert matrix_as_face_dict(res, 3) == {
        ((1, 2), (0, 1, 2)): (1, (1, 0)),
        ((0, 2), (0, 1, 2)): (-1, (0, 0)),
        ((0, 1), (0, 1, 2)): (1, (0, 2)),
    }

    # second displayed resolution; variable order of first appearance (x, z, y)
    res = build_taylor(I("x^2, x*z, y^3"))
    assert matrix_as_face_dict(res, 1) == {
        ((), (0,)): (1, (2, 0, 0)),
        ((), (1,)): (1, (1, 1, 0)),
        ((), (2,)): (1, (0, 0, 3)),
    }
    assert matrix_as_face_dict(res, 2) == {
        ((0,), (0, 1)): (-1, (0, 1, 0)),
        ((1,), (0, 1)): (1, (1, 0, 0)),
        ((0,), (0, 2)): (-1, (0, 0, 3)),
        ((2,), (0, 2)): (1, (2, 0, 0)),
        ((1,), (1, 2)): (-1, (0, 0, 3)),
        ((2,), (1, 2)): (1, (1, 1, 0)),
    }
    assert matrix_as_face_dict(res, 3) == {
        ((1, 2), (0, 1, 2)): (1, (1, 0, 0)),
        ((0, 2), (0, 1, 2)): (-1, (0, 1, 0)),
        ((0, 1), (0, 1, 2)): (1, (0, 0, 3)),
    }

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"both golden displays reproduced entry by entry in {elapsed:.3f}s")


# --- criterion 2: minimality iff dominant -----------------------------------------------


def test_criterion_02_taylor_minimal_iff_dominant(corpus_main):
    start = time.perf_counter()
    mismatches = 0
    for ideal in corpus_main:
        minimal = minimality_check(build_taylor(ideal))
        dominant = classify(ideal).p == 0
        if minimal != dominant:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0
    report(2, f"500 ideals, zero mismatches, {elapsed:.2f}s")


# --- criterion 3: five-way equivalence on the dominant sub-corpus -------------------------


def test_criterion_03_dominant_equivalences(corpus_main):
    dominant = [ideal for ideal in corpus_main if classify(ideal).p == 0]
    assert dominant, "corpus must contain dominant ideals"
    for ideal in corpus_main:
        # boolean lattice iff dominant, on the whole corpus
        assert lcm_lattice(ideal).is_boolean == (classify(ideal).p == 0)
    from monores.verify import betti_oracle

    for ideal in dominant:
        q = len(ideal)
        betti = betti_oracle(ideal)
        assert betti == tuple(comb(q, i) for i in range(q + 1))
        assert len(betti) - 1 == q
    report(3, f"{len(dominant)} dominant ideals, all five conditions agree")


# --- criterion 4: the worked semidominant example ------------------------------------------


def test_criterion_04_semidominant_worked_example():
    M = I("x^3y, y^2z, xz^2, xyz")
    res = build_taylor(M)
    classes = repeated_multidegree_classes(res)
    assert {str(m) for m in classes} == {
        "x^3*y^2*z",
        "x^3*y*z^2",
        "x*y^2*z^2",
        "x^3*y^2*z^2",
    }
    outcome = eliminate_face_facet_pairs(res, Deterministic())
    assert outcome.status == "completed"
    survivors = sorted(f.members for f in outcome.resolution.iter_faces())
    displayed = [(), (0,), (1,), (2,), (3,), (0, 3), (1, 3), (2, 3)]
    assert survivors == sorted(displayed)
    assert survivors == sorted(f.members for f in scarf_complex(M))

    closed = invariants_semidominant(M)
    derived = invariants_from_resolution(outcome.resolution)
    for rep in (closed, derived):
        assert rep.betti[2] == 3
        assert rep.pd == 2
        assert rep.reg == 3
    report(4, "8-face minimal basis, 4 repeated multidegrees, invariants (3, 2, 3)")


# --- criterion 5: order independence for semidominant ideals --------------------------------


def test_criterion_05_semidominant_order_independence(corpus_semi1):
    start = time.perf_counter()
    for ideal in corpus_semi1:
        taylor = build_taylor(ideal)
        scarf = sorted(f.members for f in scarf_complex(ideal))
        reference = None
        for seed in range(10):
            outcome = eliminate_face_facet_pairs(taylor, SeededRandom(seed))
            assert outcome.status == "completed"
            survivors = sorted(f.members for f in outcome.resolution.iter_faces())
            if reference is None:
                reference = survivors
            assert survivors == reference
        assert reference == scarf
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"100 ideals x 10 seeds, identical bases = Scarf, {elapsed:.2f}s")


# --- criterion 6: projective dimension drop -------------------------------------------------


def test_criterion_06_pd_five_versus_two():
    from monores.verify import betti_oracle

    M = I("v^2xyz, vw^2yz, vwx^2z, vwxy^2, wxyz^2")
    assert betti_dominant(M).pd == 5
    assert len(betti_oracle(M)) - 1 == 5

    M_prime = I("v^2xyz, vw^2yz, vwx^2z, vwxy^2, wxyz^2, vwxyz")
    assert invariants_semidominant(M_prime).pd == 2
    assert len(betti_oracle(M_prime)) - 1 == 2
    report(6, "pd 5 for the dominant ideal, pd 2 after adding one generator")


# --- criterion 7: different bases, equal ranks ----------------------------------------------


def test_criterion_07_two_scripted_orders():
    M = I("x^2y^2, xz, yz")
    outcomes = [
        eliminate_face_facet_pairs(build_taylor(M), Scripted((pair,)))
        for pair in [((0, 1, 2), (0, 1)), ((0, 1, 2), (0, 2))]
    ]
    bases = []
    for outcome in outcomes:
        assert outcome.status == "completed"
        res = outcome.resolution
        assert strip_trailing_zeros(res.ranks()) == (1, 3, 2)
        assert compose_check(res)
        assert minimality_check(res)
        assert strands_all_exact(strand_exactness(res, M))
        bases.append(sorted(f.members for f in res.iter_faces()))
    assert bases[0] != bases[1]
    report(7, "two orders, two bases, identical ranks (1, 3, 2), both verified")


# --- criterion 8: parity characterization ----------------------------------------------------


def test_criterion_08_parity_matches_operational(corpus_semi2):
    from monores.invariants import scarf_parity_test_2semidominant

    mismatches = 0
    for ideal in corpus_semi2:
        if scarf_parity_test_2semidominant(ideal) != is_scarf(ideal):
            mismatches += 1
    assert mismatches == 0
    report(8, "100 2-semidominant ideals, parity test = operational Scarf test")


# --- criterion 9: the sensitive pair of examples ----------------------------------------------


def test_criterion_09_divisibility_and_exponent_tests():
    from monores.invariants import (
        scarf_necessary_divisibility,
        scarf_sufficient_exponents,
    )

    M1 = I("x^3y, y^2z, yz^4, xz^2w, x^2zw")
    assert not scarf_necessary_divisibility(M1)
    assert not is_scarf(M1)

    M2 = I("x^3y, y^2z, yz^4, xz^2, x^2z")
    assert scarf_sufficient_exponents(M2)
    assert is_scarf(M2)
    report(9, "necessary test rejects M1, sufficient test accepts M2")


# --- criterion 10: the stuck elimination ------------------------------------------------------


def test_criterion_10_stuck_elimination_counterexample():
    M = I("x^2y^2z^2, xw^2, yw^2, zw")
    script = Scripted((((0, 1, 2, 3), (0, 1, 3)), ((0, 1, 2), (0, 2))))
    outcome = eliminate_face_facet_pairs(build_taylor(M), script)
    assert outcome.status == "stuck"
    assert sorted(f.members for f in outcome.stuck_witness) == [(0, 1), (0, 2, 3)]

    rescued = minimize_generic(outcome.resolution)
    assert minimality_check(rescued)
    assert strip_trailing_zeros(rescued.ranks()) == scarf_face_counts(M)
    assert is_scarf(M)

    assert not check_theorem71_hypothesis(M).holds
    assert check_theorem71_hypothesis(I("xy, xz, yz")).holds
    assert check_theorem71_hypothesis(I("xz, yz, xw, yw")).holds
    report(10, "stuck pair reproduced, generic rescue is Scarf, hypothesis checks agree")


# --- criterion 11: oracle closure --------------------------------------------------------------


def _replay_all_cancellations(res, ideal):
    """Cancel facet pairs then arbitrary pivots, compose-checking every step."""
    while True:
        facet = [
            (j, r, c)
            for j, r, c in find_invertible_entries(res)
            if r.is_facet_of(c)
        ]
        if not facet:
            break
        degree, row, col = facet[0]
        res = standard_cancellation(res, degree, row, col)
        assert compose_check(res)
    while True:
        positions = find_invertible_entries(res)
        if not positions:
            break
        degree, row, col = positions[0]
        res = standard_cancellation(res, degree, row, col)
        assert compose_check(res)
    return res


def test_criterion_11_oracle_closure(corpus_step, corpus_semi1):
    steps_checked = 0
    for ideal in corpus_step:
        taylor = build_taylor(ideal)
        assert compose_check(taylor)
        assert strands_all_exact(strand_exactness(taylor, ideal))
        minimal = _replay_all_cancellations(taylor, ideal)
        steps_checked += len(minimal.trail)
        assert minimality_check(minimal)
        assert strands_all_exact(strand_exactness(minimal, ideal))

        p = classify(ideal).p
        derived = invariants_from_resolution(minimal)
        if p == 0:
            closed = betti_dominant(ideal)
        elif p == 1:
            closed = invariants_semidominant(ideal)
        else:
            closed = None
        if closed is not None:
            assert (closed.betti, closed.pd, closed.reg) == (
                derived.betti,
                derived.pd,
                derived.reg,
            )

    # closed forms across the semidominant corpus
    for ideal in corpus_semi1[:40]:
        closed = invariants_semidominant(ideal)
        derived = invariants_from_resolution(minimize_generic(build_taylor(ideal)))
        assert (closed.betti, closed.pd, closed.reg) == (
            derived.betti,
            derived.pd,
            derived.reg,
        )

    # negative controls: the oracles can fail
    res = build_taylor(I("x^2, x*y, y^3"))
    flipped = res.copy()
    key = min(flipped.diffs[2].entries)
    entry = flipped.diffs[2].entries[key]
    flipped.diffs[2].entries[key] = Entry(-entry.scalar, entry.monomial)
    assert not compose_check(flipped)

    truncated = res.copy()
    truncated.modules[3] = []
    truncated.diffs[3] = DifferentialMatrix({})
    assert compose_check(truncated)
    assert not strands_all_exact(strand_exactness(truncated, I("x^2, x*y, y^3")))

    report(
        11,
        f"compose held at {steps_checked} cancellation steps; strands exact on all"
        " terminal resolutions; closed forms match; negative controls fail",
    )
