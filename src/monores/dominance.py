"""Dominance classification of monomial generating sets.

A variable is dominant for a generator, relative to a reference set, when
its exponent there strictly exceeds its exponent in every other member of
the set. A generator with a dominant variable is dominant; a set whose
members are all dominant is a dominant set. Classifying an ideal by the
number p of nondominant generators splits the ideals this package can
resolve in closed form: p = 0 (dominant), p = 1 (semidominant), p = 2.

Two consequences worth keeping in mind while reading the code: distinct
generators can never share a dominant variable, so a dominant subset of
an n-variable ring has at most n members; and any one- or two-element
subset of a minimal generating set is automatically dominant.

The closed forms, the pair set and the Scarf tests of a given class all
start from one split of the generators into nondominant and dominant.
Random ideals of a given class are drawn by resampling
`monomials.random_ideal` until `classify` gives the wanted p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .monomials import (
    CapExceededError,
    IdealError,
    Monomial,
    MonomialIdeal,
    random_ideal,
)

# Exhaustive subset enumeration is required (dominance of subsets is not
# monotone in any way the search could exploit), so cap the generator count.
SUBSET_SEARCH_CAP = 24


@dataclass(frozen=True)
class DominanceReport:
    """Per-generator dominant variables plus the derived class label."""

    per_generator: tuple[tuple[int, frozenset[int]], ...]
    nondominant_indices: tuple[int, ...]
    p: int
    class_label: str


def class_label_for(p: int) -> str:
    if p == 0:
        return "dominant"
    if p == 1:
        return "semidominant"
    return f"{p}-semidominant"


def dominant_variables(index: int, generators: Sequence[Monomial]) -> frozenset[int]:
    """Variables whose exponent in generators[index] beats every other member.

    For a singleton reference set every variable with positive exponent
    qualifies (there is no rival to beat).
    """
    if not generators:
        raise IdealError("reference set is empty")
    m = generators[index]
    found = []
    for v, e in enumerate(m.exponents):
        if e == 0:
            continue
        if all(
            other.exponents[v] < e
            for j, other in enumerate(generators)
            if j != index
        ):
            found.append(v)
    return frozenset(found)


def classify(ideal: MonomialIdeal) -> DominanceReport:
    """Partition the generators into dominant and nondominant and label the ideal."""
    gens = ideal.generators
    per_generator = tuple(
        (i, dominant_variables(i, gens)) for i in range(len(gens))
    )
    nondominant = tuple(i for i, dom in per_generator if not dom)
    p = len(nondominant)
    return DominanceReport(per_generator, nondominant, p, class_label_for(p))


def _dominance_split(
    ideal: MonomialIdeal, p: int, error: str
) -> tuple[tuple[int, ...], list[int]]:
    """The indices of the nondominant and of the dominant generators of an
    ideal with p nondominant ones; raises IdealError(error) otherwise."""
    nondominant = classify(ideal).nondominant_indices
    if len(nondominant) != p:
        raise IdealError(error)
    return nondominant, [i for i in range(len(ideal)) if i not in nondominant]


def is_dominant_subset(subset: Sequence[Monomial]) -> bool:
    """True iff every member of the subset is dominant relative to the subset.

    Dominance is always evaluated relative to the subset itself, not to
    any larger ambient set. A singleton is dominant unless it is the unit.
    """
    if not subset:
        raise IdealError("dominant-subset test on an empty collection")
    return all(dominant_variables(i, subset) for i in range(len(subset)))


def largest_dominant_subset_with(
    ideal: MonomialIdeal, nondominant_index: int
) -> tuple[int, tuple[int, ...]]:
    """Largest dominant subset of the generators containing the given one.

    Requires a semidominant ideal (p = 1) whose nondominant generator is
    the given index. Enumerates subsets in decreasing cardinality with an
    early exit on the first dominant hit, so the witness is the
    lexicographically least one of maximal size. The search is exhaustive
    within each size: subsets of a dominant set need not stay dominant,
    so no pruning by inclusion is sound.
    """
    if len(ideal) > SUBSET_SEARCH_CAP:
        raise CapExceededError(
            f"subset search supports at most {SUBSET_SEARCH_CAP} generators,"
            f" got {len(ideal)}"
        )
    report = classify(ideal)
    if report.p != 1 or report.nondominant_indices != (nondominant_index,):
        raise IdealError(
            "largest_dominant_subset_with needs a semidominant ideal and its"
            " nondominant generator"
        )
    gens = ideal.generators
    others = [i for i in range(len(gens)) if i != nondominant_index]
    for size in range(len(gens), 0, -1):
        for combo in combinations(others, size - 1):
            indices = tuple(sorted(combo + (nondominant_index,)))
            if is_dominant_subset([gens[i] for i in indices]):
                return size, indices
    raise AssertionError("unreachable: a singleton subset is always dominant")


def is_generic(ideal: MonomialIdeal) -> bool:
    """True iff no variable has the same nonzero exponent in two generators."""
    for v in range(len(ideal.vars)):
        seen: set[int] = set()
        for g in ideal.generators:
            e = g.exponents[v]
            if e == 0:
                continue
            if e in seen:
                return False
            seen.add(e)
    return True


def is_complete_intersection(ideal: MonomialIdeal) -> bool:
    """True iff the generators are pairwise coprime (no shared variable)."""
    for v in range(len(ideal.vars)):
        users = sum(1 for g in ideal.generators if g.exponents[v] > 0)
        if users > 1:
            return False
    return True


_CLASS_TO_P = {"dominant": 0, "semi1": 1, "semi2": 2}


def random_ideal_of_class(
    rng: random.Random,
    n_vars: int,
    n_gens: int,
    max_exp: int,
    cls: str = "any",
    max_attempts: int = 5000,
) -> MonomialIdeal:
    """Resample random_ideal until the dominance class matches."""
    if cls == "any":
        return random_ideal(rng, n_vars, n_gens, max_exp)
    if cls not in _CLASS_TO_P:
        raise IdealError(f"unknown ideal class {cls!r}")
    want_p = _CLASS_TO_P[cls]
    # distinct generators cannot share a dominant variable, so an ideal with
    # p nondominant generators has at most n_vars + p generators; any two
    # minimal generators are dominant, so p > 0 needs at least three
    least = 3 if want_p else 1
    if not least <= n_gens <= n_vars + want_p:
        raise IdealError(
            f"impossible request: a {cls} ideal over {n_vars} variables has"
            f" {least} to {n_vars + want_p} generators"
        )
    for _attempt in range(max_attempts):
        ideal = random_ideal(rng, n_vars, n_gens, max_exp)
        if classify(ideal).p == want_p:
            return ideal
    raise IdealError(
        f"no {cls} ideal found in {max_attempts} attempts"
        f" (vars={n_vars}, gens={n_gens}, max_exp={max_exp})"
    )
