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

The ideal parser and the random ideal generator live here as well; both
build their ideals through the checked constructors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
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


class ParseError(IdealError):
    """Ideal text that does not parse; carries the failing offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


@dataclass
class IdealSpec:
    """Parsed ideal plus its source text and any normalization warnings."""

    source: str
    ideal: MonomialIdeal
    warnings: list[str]


def parse_ideal(text: str, strict: bool = False) -> IdealSpec:
    """Parse comma-separated generators into a minimal monomial ideal.

    A generator is a product of factors `var` or `var^int`, juxtaposed or
    separated by `*`; a variable is a single letter optionally followed
    by decimal digits, of any script in names and exponents alike
    (superscripts are not decimal). Variable order is first appearance.
    Non-minimal input is minimized with a warning, or rejected under
    strict.
    """
    raw_exponents, var_order = _scan(text)
    vars = VariableSet(tuple(var_order))
    raw_gens = [
        Monomial(vars, tuple(exps.get(name, 0) for name in var_order))
        for exps in raw_exponents
    ]
    ideal, removed = minimalize(vars, raw_gens)
    warnings = []
    if removed:
        if strict:
            raise IdealError("input generating set is not minimal")
        warnings.append(
            f"non-minimal input: reduced {len(raw_gens)} generators to {len(ideal)}"
        )
        ideal = _project_to_support(ideal)
    return IdealSpec(text, ideal, warnings)


def _scan(text: str) -> tuple[list[dict[str, int]], list[str]]:
    generators: list[dict[str, int]] = []
    var_order: list[str] = []
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    while True:
        skip_ws()
        if pos >= n:
            raise ParseError("expected a generator", pos)
        current: dict[str, int] = {}
        while True:
            skip_ws()
            if pos >= n or not text[pos].isalpha():
                raise ParseError("expected a variable", pos)
            start = pos
            pos += 1
            while pos < n and text[pos].isdecimal():
                pos += 1
            name = text[start:pos]
            exponent = 1
            if pos < n and text[pos] == "^":
                pos += 1
                if pos >= n or not text[pos].isdecimal():
                    raise ParseError("expected digits after '^'", pos)
                digits_start = pos
                while pos < n and text[pos].isdecimal():
                    pos += 1
                exponent = _exponent(text[digits_start:pos], digits_start)
            if name not in current and name not in var_order:
                var_order.append(name)
            current[name] = current.get(name, 0) + exponent
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            if pos < n and (text[pos].isalpha()):
                continue
            break
        generators.append(current)
        skip_ws()
        if pos >= n:
            break
        if text[pos] != ",":
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
    return generators, var_order


def _exponent(digits: str, position: int) -> int:
    """The value of a run of decimal digits, in any script.

    A run with more significant digits than MAX_EXPONENT is over it and
    is rejected before `int` sees it, since `int` refuses strings past
    Python's int-string limit.
    """
    zeros = 0
    while zeros < len(digits) and int(digits[zeros]) == 0:
        zeros += 1
    significant = digits[zeros:]
    if len(significant) > len(str(MAX_EXPONENT)):
        raise ParseError(f"exponent exceeds the cap of {MAX_EXPONENT}", position)
    if not significant:
        raise ParseError("exponent must be positive", position)
    return int(significant)


def _project_to_support(ideal: MonomialIdeal) -> MonomialIdeal:
    """Keep the variables the surviving generators use, in the order they
    first appear in the printed generators, so that printing and parsing
    again gives the same ideal."""
    used: list[int] = []
    for g in ideal.generators:
        used += [v for v, e in enumerate(g.exponents) if e and v not in used]
    if used == list(range(len(ideal.vars))):
        return ideal
    vars = VariableSet(tuple(ideal.vars.names[v] for v in used))
    gens = tuple(
        Monomial(vars, tuple(g.exponents[v] for v in used)) for g in ideal.generators
    )
    return MonomialIdeal(vars, gens)


_DEFAULT_NAMES = ("x", "y", "z", "w", "v", "u", "t", "s")


def variable_names(n_vars: int) -> tuple[str, ...]:
    if n_vars <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:n_vars]
    return tuple(f"x{i + 1}" for i in range(n_vars))


def random_ideal(
    rng: random.Random, n_vars: int, n_gens: int, max_exp: int
) -> MonomialIdeal:
    """A random minimal ideal: uniform exponents with rejection sampling.

    Each monomial draws exponents uniformly from [0, max_exp]; the unit
    monomial and any monomial comparable under divisibility with an
    already-drawn one are rejected and redrawn.
    """
    if n_vars < 1 or n_gens < 1:
        raise IdealError(
            "a random ideal needs at least one variable and one generator,"
            f" got {n_vars} variables and {n_gens} generators"
        )
    if not 1 <= max_exp <= MAX_EXPONENT:
        raise IdealError(f"max exponent must be between 1 and {MAX_EXPONENT}")
    # The variables are an antichain, so only the rarer case is counted.
    if n_gens > n_vars and n_gens > _largest_antichain(n_vars, max_exp):
        raise IdealError(
            f"impossible request: no {n_gens} monomials over {n_vars} variables"
            f" with exponents at most {max_exp} are pairwise incomparable"
        )
    vars = VariableSet(variable_names(n_vars))
    for _attempt in range(400):
        gens: list[Monomial] = []
        ok = True
        for _slot in range(n_gens):
            for _draw in range(300):
                m = Monomial(
                    vars, tuple(rng.randint(0, max_exp) for _ in range(n_vars))
                )
                if m.is_unit:
                    continue
                if any(m.divides(g) or g.divides(m) for g in gens):
                    continue
                gens.append(m)
                break
            else:
                ok = False
                break
        if ok:
            return MonomialIdeal(vars, tuple(gens))
    raise IdealError(
        f"could not sample a minimal ideal with {n_gens} generators over"
        f" {n_vars} variables (max exponent {max_exp})"
    )


def _largest_antichain(n_vars: int, max_exp: int) -> int:
    """The most pairwise incomparable exponent vectors in [0, max_exp]^n_vars:
    the middle layer by exponent sum (de Bruijn, Tengbergen, Kruyswijk),
    counted by inclusion-exclusion over the exponents above max_exp."""
    total = n_vars * max_exp // 2
    return sum(
        (-1) ** k
        * comb(n_vars, k)
        * comb(total - k * (max_exp + 1) + n_vars - 1, n_vars - 1)
        for k in range(total // (max_exp + 1) + 1)
    )
