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
from math import comb
from typing import Sequence

from .monomials import (
    IdealError,
    Monomial,
    MonomialIdeal,
    VariableSet,
    random_ideal,
    variable_names,
)

# Draws random_ideal_of_class makes before giving up on a class.
_CLASS_ATTEMPTS = 5000


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

    Requires a semidominant ideal (p = 1) whose nondominant generator n is
    the given index. Every other generator is dominant in the whole set,
    and dominance is hereditary (in a subset each member has fewer rivals
    to beat), so S plus n is dominant iff n does not divide lcm(S), that
    is, iff S lies in S_v = {i : e_i(v) < e_n(v)} for some variable v.
    The largest such sets are the largest S_v plus n, found in O(q * n)
    with no subset search; the witness is the lexicographically least of
    them.
    """
    if classify(ideal).nondominant_indices != (nondominant_index,):
        raise IdealError(
            "largest_dominant_subset_with needs a semidominant ideal and its"
            " nondominant generator"
        )
    return _largest_dominant_subset_with(ideal, nondominant_index)


def _largest_dominant_subset_with(
    ideal: MonomialIdeal, nondominant_index: int
) -> tuple[int, tuple[int, ...]]:
    """`largest_dominant_subset_with` on an ideal already classified as
    semidominant with that nondominant generator."""
    gens = ideal.generators
    beaten_by_n = (
        tuple(
            i
            for i, g in enumerate(gens)
            if i == nondominant_index or g.exponents[v] < e
        )
        for v, e in enumerate(gens[nondominant_index].exponents)
        if e
    )
    best = min(beaten_by_n, key=lambda s: (-len(s), s))
    return len(best), best


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
    if max_exp == 1 and not _squarefree_class_exists(n_vars, n_gens, want_p):
        raise IdealError(
            f"impossible request: no {cls} ideal has {n_gens} squarefree"
            f" generators over {n_vars} variables"
        )
    for _attempt in range(_CLASS_ATTEMPTS):
        ideal = random_ideal(rng, n_vars, n_gens, max_exp)
        if classify(ideal).p == want_p:
            return ideal
    raise IdealError(
        f"no {cls} ideal found in {_CLASS_ATTEMPTS} attempts"
        f" (vars={n_vars}, gens={n_gens}, max_exp={max_exp})"
    )


def _squarefree_class_exists(n_vars: int, n_gens: int, p: int) -> bool:
    """Whether some squarefree ideal has n_gens generators, p nondominant;
    True where that is not cheap to decide.

    With p >= 1 and n_gens - p = n_vars, each dominant generator owns a
    variable that no other generator uses, so all n_vars are owned and a
    nondominant generator would be the unit. Otherwise, when there are at
    most _CLASS_ATTEMPTS sets of n_gens squarefree monomials, their
    antichains are classified until one has p: never more `classify`
    calls than the draws this saves. No rng is used, so a feasible
    request draws the same ideal as without the check.
    """
    if p and n_gens - p == n_vars:
        return False
    if comb((1 << n_vars) - 1, n_gens) > _CLASS_ATTEMPTS:
        return True
    vars = VariableSet(variable_names(n_vars))
    for masks in combinations(range(1, 1 << n_vars), n_gens):
        if any(a & b in (a, b) for a, b in combinations(masks, 2)):
            continue
        gens = tuple(
            Monomial(vars, tuple(mask >> v & 1 for v in range(n_vars)))
            for mask in masks
        )
        if classify(MonomialIdeal(vars, gens)).p == p:
            return True
    return False
