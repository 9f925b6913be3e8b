"""Monomial arithmetic over a fixed, ordered set of variables.

Exponent vectors are stored densely, one slot per variable; the variable
order is fixed at construction and shared by every monomial of a
computation. All types are immutable and all operations are pure, so
values can be shared freely across concurrent computations.

Values are validated at the boundary and derived values are trusted.
The public constructors (`Monomial(...)`, `VariableSet.monomial`, and
through them the ideal parser) check every exponent: a nonnegative int
no larger than MAX_EXPONENT, one per variable. Monomials derived from
checked ones (`lcm`, `*`, `exact_div` and `VariableSet.unit`) are built
by the private `_monomial` without checking again: the componentwise
max of in-range nonnegative ints, and their difference once it is
checked to be nonnegative, stay in range. A product keeps only its
check against MAX_EXPONENT, the one bound a sum can break.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Iterable, Sequence

# Resolutions never grow exponents beyond the componentwise max of the
# input, so rejecting huge exponents up front is the only overflow guard
# needed anywhere.
MAX_EXPONENT = 10**6


class IdealError(ValueError):
    """Invalid input: malformed monomials, empty or improper ideals."""


class CapExceededError(IdealError):
    """Structurally valid input that exceeds a hard size cap."""


@dataclass(frozen=True)
class VariableSet:
    """Ordered, distinct variable names shared by all monomials of one run."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise IdealError("variable set is empty")
        seen = set()
        for name in self.names:
            if not name:
                raise IdealError("variable names must be nonempty")
            if name in seen:
                raise IdealError(f"duplicate variable name {name!r}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def unit(self) -> Monomial:
        return _monomial(self, (0,) * len(self.names))

    def monomial(self, exponents: Sequence[int]) -> Monomial:
        return Monomial(self, tuple(exponents))


@dataclass(frozen=True)
class Monomial:
    """A monomial as a vector of nonnegative exponents over a VariableSet."""

    vars: VariableSet
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) != len(self.vars):
            raise IdealError(
                f"expected {len(self.vars)} exponents, got {len(self.exponents)}"
            )
        for e in self.exponents:
            if not isinstance(e, int) or e < 0:
                raise IdealError(f"exponents must be nonnegative integers, got {e!r}")
            if e > MAX_EXPONENT:
                raise IdealError(f"exponent {e} exceeds the cap of {MAX_EXPONENT}")

    @property
    def is_unit(self) -> bool:
        return not any(self.exponents)

    def total_degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: Monomial) -> bool:
        _require_same_vars(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: Monomial) -> Monomial:
        _require_same_vars(self, other)
        return _monomial(self.vars, tuple(map(max, self.exponents, other.exponents)))

    def __mul__(self, other: Monomial) -> Monomial:
        _require_same_vars(self, other)
        product = tuple(map(add, self.exponents, other.exponents))
        for e in product:
            if e > MAX_EXPONENT:
                raise IdealError(f"exponent {e} exceeds the cap of {MAX_EXPONENT}")
        return _monomial(self.vars, product)

    def exact_div(self, other: Monomial) -> Monomial:
        """Quotient by a divisor; raises if the division is not exact."""
        _require_same_vars(self, other)
        diff = tuple(map(sub, self.exponents, other.exponents))
        if min(diff) < 0:
            raise IdealError(f"{other} does not divide {self}")
        return _monomial(self.vars, diff)

    def __str__(self) -> str:
        factors = []
        for name, e in zip(self.vars.names, self.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors) if factors else "1"


def _monomial(vars: VariableSet, exponents: tuple[int, ...]) -> Monomial:
    """A Monomial built without validation, for values derived from valid ones."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "vars", vars)
    object.__setattr__(m, "exponents", exponents)
    return m


def _require_same_vars(a: Monomial, b: Monomial) -> None:
    if a.vars is not b.vars and a.vars != b.vars:
        raise IdealError("monomials belong to different variable sets")


def lcm(monomials: Iterable[Monomial], vars: VariableSet | None = None) -> Monomial:
    """Componentwise max of exponent vectors; the empty lcm is the unit 1."""
    result: Monomial | None = None
    for m in monomials:
        result = m if result is None else result.lcm(m)
    if result is None:
        if vars is None:
            raise IdealError("lcm of an empty collection needs an explicit variable set")
        return vars.unit()
    return result


def divides(a: Monomial, b: Monomial) -> bool:
    return a.divides(b)


def total_degree(m: Monomial) -> int:
    return m.total_degree()


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its minimal generating set, in a fixed order.

    The constructor enforces minimality: no duplicate generators, no
    generator dividing another, and no unit generator (the whole-ring
    edge case is rejected rather than special-cased downstream).
    The generator order is the canonical order for all face index sets.
    """

    vars: VariableSet
    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise IdealError("empty ideal")
        for g in self.generators:
            if g.vars != self.vars:
                raise IdealError("generator uses a different variable set")
            if g.is_unit:
                raise IdealError("the unit monomial cannot generate a proper ideal")
        gens = self.generators
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                if i != j and h.divides(g):
                    what = "duplicates" if g == h else "is divisible by"
                    raise IdealError(
                        f"generating set is not minimal: {g} {what} {h}"
                    )

    @property
    def q(self) -> int:
        return len(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __str__(self) -> str:
        return ", ".join(str(g) for g in self.generators)


def minimalize(
    vars: VariableSet, raw_generators: Sequence[Monomial]
) -> tuple[MonomialIdeal, bool]:
    """Drop duplicates and generators divisible by another generator.

    Keeps the original relative order of the survivors and reports
    whether anything was removed.
    """
    if not raw_generators:
        raise IdealError("empty ideal")
    kept: list[Monomial] = []
    removed = False
    for i, g in enumerate(raw_generators):
        redundant = False
        for j, h in enumerate(raw_generators):
            if i == j or not h.divides(g):
                continue
            if g == h:
                if j < i:  # keep only the first copy of a duplicate
                    redundant = True
                    break
            else:
                redundant = True
                break
        if redundant:
            removed = True
        else:
            kept.append(g)
    return MonomialIdeal(vars, tuple(kept)), removed
