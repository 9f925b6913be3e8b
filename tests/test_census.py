"""The paper's theorems checked on every minimal monomial ideal of a small box.

The minimal monomial ideals with exponents in [0, e]^n are the nonempty
antichains of non-unit exponent vectors under componentwise order. Their
counts are known closed forms: C(10, 5) - 2 = 250 for [0,4]^2, the
Dedekind number 168 less 2 for [0,1]^4, and MacMahon's plane-partition
count 980 less 2 for [0,2]^3 (the two dropped antichains are the empty
one and the unit alone).
"""

from itertools import product

import pytest

from monores import (
    Deterministic,
    SeededRandom,
    build_taylor,
    check_theorem71_hypothesis,
    classify,
    eliminate_face_facet_pairs,
    is_scarf,
    scarf_parity_test_2semidominant,
)
from monores.monomials import Monomial, MonomialIdeal, VariableSet
from monores.taylor import strip_trailing_zeros
from monores.verify import betti_oracle, minimality_check


def _comparable(a, b):
    return all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b))


def antichains(n_vars, max_exp):
    """Every nonempty antichain of non-unit vectors in [0, max_exp]^n_vars,
    each listed in the order of the points, by a backtracking walk."""
    points = [p for p in product(range(max_exp + 1), repeat=n_vars) if any(p)]

    def extend(chosen, start):
        for i in range(start, len(points)):
            point = points[i]
            if not any(_comparable(point, c) for c in chosen):
                chosen.append(point)
                yield tuple(chosen)
                yield from extend(chosen, i + 1)
                chosen.pop()

    return list(extend([], 0))


def census(n_vars, max_exp):
    """Per class (p = 0, 1, 2, >= 3): the ideal count, and per check the
    number of ideals it holds for."""
    vars = VariableSet(tuple(f"x{i}" for i in range(n_vars)))
    checks = ("ideals", "taylor minimal", "scarf", "t71")
    rows = [dict.fromkeys(checks, 0) for _ in range(4)]
    for exponents in antichains(n_vars, max_exp):
        ideal = MonomialIdeal(vars, tuple(Monomial(vars, e) for e in exponents))
        p = classify(ideal).p
        betti, scarf = betti_oracle(ideal), is_scarf(ideal)
        row = rows[min(p, 3)]
        row["ideals"] += 1
        row["taylor minimal"] += sum(betti) == 2 ** len(ideal)
        row["scarf"] += scarf
        row["t71"] += check_theorem71_hypothesis(ideal).holds
        if p == 2:
            assert scarf_parity_test_2semidominant(ideal) == scarf, ideal
            taylor = build_taylor(ideal)
            for strategy in (Deterministic(), SeededRandom(0), SeededRandom(1)):
                outcome = eliminate_face_facet_pairs(taylor, strategy)
                res = outcome.resolution
                assert outcome.status == "completed", (ideal, strategy)
                assert strip_trailing_zeros(res.ranks()) == betti, (ideal, strategy)
                assert minimality_check(res), (ideal, strategy)
    return rows


# Per box: the ideal count per class (p = 0, 1, 2, >= 3), the Scarf p = 2
# ideals, and the Scarf and hypothesis-satisfying p >= 3 ideals.
@pytest.mark.parametrize(
    "n_vars, max_exp, counts, scarf_p2, scarf_p3, t71_p3",
    [
        (2, 4, (124, 100, 25, 1), 25, 1, 0),
        (4, 1, (97, 12, 12, 45), 0, 0, 33),
        (3, 2, (313, 207, 174, 284), 0, 22, 102),
    ],
)
def test_theorems_hold_on_every_ideal_of_the_box(
    n_vars, max_exp, counts, scarf_p2, scarf_p3, t71_p3
):
    rows = census(n_vars, max_exp)
    assert tuple(row["ideals"] for row in rows) == counts
    dominant, semi1, semi2, rest = rows
    # Taylor is minimal exactly for the dominant ideals.
    assert dominant["taylor minimal"] == dominant["ideals"]
    assert not any(row["taylor minimal"] for row in (semi1, semi2, rest))
    # p = 1 ideals are Scarf, and for p <= 2 the Theorem 7.1 hypothesis holds.
    assert semi1["scarf"] == semi1["ideals"]
    assert all(row["t71"] == row["ideals"] for row in (dominant, semi1, semi2))
    # The parity test agreed with is_scarf on each p = 2 ideal; over the
    # boxes it answers both ways.
    assert semi2["scarf"] == scarf_p2
    # Past p = 2 the checks can fail: not every ideal is Scarf, and the
    # hypothesis fails on some (on 182 of the 284 in [0,2]^3).
    assert (rest["scarf"], rest["t71"]) == (scarf_p3, t71_p3)
