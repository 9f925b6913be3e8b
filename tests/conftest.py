import random

import pytest
from hypothesis import strategies as st

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


def random_minimal_ideal(rng: random.Random, n_vars, n_gens, max_exp):
    """rng-driven random minimal ideal for fixed-seed corpus tests."""
    from monores.monomials import random_ideal

    return random_ideal(rng, n_vars, n_gens, max_exp)


@pytest.fixture
def rng():
    return random.Random(20240901)
