import math
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


def reader_line(kind, length, rng):
    """Line values of one kind: few distinct values (ties), a head that
    dominates the line's total (a screen on the line's cumsum would keep
    most blocks), a NaN or an infinity, complex values, or three values
    near overflow (a total that is not finite; a block holding two of
    them overflows ``fsum``)."""
    v = rng.uniform(-1.0, 1.0, length)
    if kind == "ties":
        v = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7], length)
    elif kind == "dominant head":
        v[:3] = 1e12
    elif kind in ("nan", "inf"):
        v[rng.integers(length)] = math.nan if kind == "nan" else math.inf
    elif kind == "complex":
        v = v + 1j * rng.uniform(-1.0, 1.0, length)
    elif kind == "overflow":
        v[rng.integers(length, size=3)] = 1e308
    return v
