from dataclasses import replace

import pytest

from doublesine import builtin, from_expression

# The expression twin of the oscillating preset; it factors like the preset.
TWIN_EXPR = "(2+alternating(j))/j^2*(2+alternating(k))/k^2"


def dense_twin():
    """The twin with its factors dropped: every query takes the dense path."""
    return replace(from_expression("twin", TWIN_EXPR), separable_parts=None)


@pytest.fixture(scope="session")
def osc():
    return builtin("oscillating_quadratic")


@pytest.fixture(scope="session")
def mod3():
    return builtin("mod3_log_product")


@pytest.fixture(scope="session")
def pp22():
    return builtin("product_power", p=2.0, q=2.0)


@pytest.fixture(scope="session")
def pp11():
    return builtin("product_power", p=1.0, q=1.0)


@pytest.fixture(scope="session")
def zero_seq():
    return builtin("zero")
