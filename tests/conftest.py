import random

import pytest

from mpqc import constructions
from mpqc.gf import field


@pytest.fixture(scope="session")
def F3():
    return field(3, 1)


@pytest.fixture(scope="session")
def F9():
    return field(3, 2)


@pytest.fixture(scope="session")
def F25():
    return field(5, 2)


@pytest.fixture(scope="session")
def F49():
    return field(7, 2)


@pytest.fixture()
def rng():
    return random.Random(0xBEEF)


@pytest.fixture()
def fresh_families():
    """Empty family caches, so each family is rebuilt under the test and
    nothing it builds (perhaps under a patch) outlives it."""
    bodies = (constructions._punctured, constructions._extended, constructions._negacyclic_family)
    for body in bodies:
        body.cache_clear()
    yield
    for body in bodies:
        body.cache_clear()
