import pytest

from qtchar import algebra
from qtchar.suites import random_element as random_element  # re-exported for the tests


@pytest.fixture(scope="session")
def sl2():
    return algebra("A1")


@pytest.fixture(scope="session")
def a2():
    return algebra("A2")


@pytest.fixture(scope="session")
def b2():
    return algebra("B2")


@pytest.fixture(scope="session")
def g2():
    return algebra("G2")
