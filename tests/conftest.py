import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from cubesign.counting import PointSet
from cubesign.poly import Poly

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def poly_strategy(nvars, max_terms=6, max_coeff=4):
    """Arbitrary canonical polynomials in `nvars` variables."""
    coeff = st.integers(min_value=-max_coeff, max_value=max_coeff)
    mask = st.integers(min_value=0, max_value=(1 << nvars) - 1)
    return st.dictionaries(mask, coeff, max_size=max_terms).map(
        lambda terms: Poly(nvars, terms)
    )


def point_set(masks, width):
    """A PointSet of the given int masks, transposed point by point in Python."""
    columns = [sum(((m >> i) & 1) << j for j, m in enumerate(masks)) for i in range(width)]
    return PointSet(len(masks), columns)


def wide_hostile_poly(nvars):
    """32 terms of 4000-digit coefficients, about 129 KB of text."""
    rng = random.Random(4000)
    terms = {}
    while len(terms) < 32:
        coeff = rng.choice((1, -1)) * rng.randrange(10 ** 3999, 10 ** 4000)
        terms[rng.getrandbits(nvars)] = coeff
    return Poly(nvars, terms)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
