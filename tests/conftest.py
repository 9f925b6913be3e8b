import random

import pytest
from hypothesis import strategies as st

from monores.dominance import random_ideal_of_class
from monores.monomials import Monomial, VariableSet, minimalize, parse_ideal


def I(text):
    """Parse shortcut for tests: generator text -> MonomialIdeal."""
    return parse_ideal(text).ideal


@st.composite
def ideals(draw, min_vars=2, max_vars=4, min_gens=1, max_gens=5, max_exp=3):
    """Random minimal monomial ideals of small desk size."""
    n_vars = draw(st.integers(min_vars, max_vars))
    n_gens = draw(st.integers(min_gens, max_gens))
    vars = VariableSet(tuple(f"x{i}" for i in range(n_vars)))
    exponent = st.integers(0, max_exp)
    raw = draw(
        st.lists(
            st.tuples(*[exponent] * n_vars).filter(any),
            min_size=n_gens,
            max_size=n_gens,
        )
    )
    ideal, _removed = minimalize(vars, [Monomial(vars, e) for e in raw])
    return ideal


@st.composite
def ideals_of_every_class(draw):
    """Dominant, 1- and 2-semidominant ideals by the class sampler, or any."""
    cls = draw(st.sampled_from(["dominant", "semi1", "semi2", "any"]))
    if cls == "any":
        return draw(ideals(max_vars=5, max_gens=7))
    p = {"dominant": 0, "semi1": 1, "semi2": 2}[cls]
    n_vars = draw(st.integers(3, 5))
    n_gens = draw(st.integers(3 if p else 1, min(n_vars + p, 7)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    return random_ideal_of_class(rng, n_vars, n_gens, 3, cls)


def random_minimal_ideal(rng: random.Random, n_vars, n_gens, max_exp):
    """rng-driven random minimal ideal for fixed-seed corpus tests."""
    from monores.monomials import random_ideal

    return random_ideal(rng, n_vars, n_gens, max_exp)


@pytest.fixture
def rng():
    return random.Random(20240901)
