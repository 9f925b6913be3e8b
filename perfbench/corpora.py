"""Seeded ideal corpora, emitted as the text the program parses.

Every generator is a pure function of a `random.Random`, so one seed
always yields the same texts. Random ideals use the rejection sampling of
`monores.cli.random_ideal` with the same draw sequence, so a given rng
state produces the same ideal as the library does. Dominant and
semidominant ideals are built to their class instead of sampled: each
dominant generator owns one variable with an exponent above `cap`, and
every other exponent stays at most `cap`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_NAMES = ("x", "y", "z", "w", "v", "u", "t", "s")


@dataclass(frozen=True)
class Item:
    """One corpus entry: the ideal text plus what the generator intended."""

    text: str
    generators: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    kind: str  # "random" | "dominant" | "semidominant"
    salt: int  # per-ideal seed for seeded strategies

    def generator_dicts(self) -> list[dict[str, int]]:
        return [
            {n: e for n, e in zip(self.names, exps) if e} for exps in self.generators
        ]


def variable_names(n_vars: int) -> tuple[str, ...]:
    if n_vars <= len(_NAMES):
        return _NAMES[:n_vars]
    return tuple(f"x{i + 1}" for i in range(n_vars))


def ideal_text(names: tuple[str, ...], generators) -> str:
    def mono(exps) -> str:
        return "*".join(
            n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
        )

    return ", ".join(mono(g) for g in generators)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def random_generators(
    rng: random.Random, n_vars: int, q: int, max_exp: int
) -> tuple[tuple[int, ...], ...]:
    """q pairwise incomparable, non-unit exponent vectors in [0, max_exp]."""
    for _attempt in range(400):
        gens: list[tuple[int, ...]] = []
        for _slot in range(q):
            for _draw in range(300):
                e = tuple(rng.randint(0, max_exp) for _ in range(n_vars))
                if not any(e):
                    continue
                if any(_divides(e, g) or _divides(g, e) for g in gens):
                    continue
                gens.append(e)
                break
            else:
                break
        if len(gens) == q:
            return tuple(gens)
    raise ValueError(f"no minimal ideal with {q} generators over {n_vars} variables")


def _owner_generators(rng, n_vars, owners, cap, density):
    gens = []
    for i in range(owners):
        e = [rng.randint(1, cap) if rng.random() < density else 0 for _ in range(n_vars)]
        e[i] = cap + rng.randint(1, 2)
        gens.append(tuple(e))
    return gens


def dominant_generators(rng, n_vars: int, q: int, cap: int, density: float = 0.5):
    """q <= n_vars generators, generator i dominant in variable i."""
    if q > n_vars:
        raise ValueError("a dominant ideal has at most one generator per variable")
    return tuple(_owner_generators(rng, n_vars, q, cap, density))


def semidominant_generators(rng, n_vars: int, q: int, cap: int, density: float = 0.5):
    """q - 1 dominant generators plus one generator n with no dominant variable.

    n only uses owned variables, where the owner's exponent exceeds cap >=
    n's, so n dominates nothing; n is redrawn while it divides a generator.
    """
    owners = q - 1
    if owners > n_vars:
        raise ValueError("too many dominant generators for the variables")
    while True:
        gens = _owner_generators(rng, n_vars, owners, cap, density)
        n = tuple(
            rng.randint(1, cap) if v < owners and rng.random() < density else 0
            for v in range(n_vars)
        )
        if any(n) and not any(_divides(n, g) for g in gens):
            return tuple(gens) + (n,)


def make_item(rng, names, generators, kind) -> Item:
    return Item(ideal_text(names, generators), generators, names, kind, rng.getrandbits(31))


def random_corpus(seed_key: str, size: int, q: int, n_vars: int, max_exp: int) -> list[Item]:
    rng = random.Random(seed_key)
    names = variable_names(n_vars)
    return [
        make_item(rng, names, random_generators(rng, n_vars, q, max_exp), "random")
        for _ in range(size)
    ]


def closed_form_corpus(seed_key: str, size: int, q: int, cap: int) -> list[Item]:
    """Semidominant ideals with q generators and dominant ones with q - 1,
    all over q - 1 variables.

    Every third ideal is dominant. The dominant ones, a generator smaller,
    are the cheapest third, so the median falls inside the wide spread of
    the semidominant ideals rather than on a gap between two clusters,
    where it would jump between runs.
    """
    rng = random.Random(seed_key)
    names = variable_names(q - 1)
    out = []
    for k in range(size):
        if k % 3 == 2:
            out.append(make_item(rng, names, dominant_generators(rng, q - 1, q - 1, cap), "dominant"))
        else:
            out.append(make_item(rng, names, semidominant_generators(rng, q - 1, q, cap), "semidominant"))
    return out
