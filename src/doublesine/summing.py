"""Deterministic compensated summation helpers.

Every reduction in this package that feeds a reported number goes through
one of these helpers (or an explicitly ordered ``numpy`` cumulative sum),
so that repeated runs produce bit-identical output.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["ksum", "sine_prefix"]


def ksum(values: Iterable | np.ndarray) -> float | complex:
    """Exactly rounded sum of a sequence of floats or complex numbers.

    Wraps :func:`math.fsum`; complex input is summed component-wise.
    The reduction order is the iteration order of ``values``, which the
    callers keep fixed (ascending index, row-major for 2-D blocks).
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return 0.0
    flat = arr.reshape(-1)
    if np.iscomplexobj(flat):
        return complex(math.fsum(flat.real), math.fsum(flat.imag))
    return math.fsum(flat)


def sine_prefix(values: np.ndarray, x: float) -> np.ndarray:
    """Prefix sums ``P[J] = sum_{j=1}^{J} values[j-1] * sin(j x)``.

    ``values`` holds the entries for indices ``1..len(values)`` along its
    first axis; the columns of a 2-D factor are summed separately.  The
    result has one more row, ``P[0] = 0``, so a sum over ``j = m..M`` is
    ``P[M] - P[m-1]``; no other array of that size is allocated.
    """
    values = np.asarray(values)
    j = np.arange(1, len(values) + 1, dtype=np.float64)
    sines = np.sin(j * x).reshape((-1,) + (1,) * (values.ndim - 1))
    out = np.zeros((len(values) + 1,) + values.shape[1:],
                   dtype=np.result_type(values, sines))
    np.multiply(values, sines, out=out[1:])
    np.cumsum(out[1:], axis=0, out=out[1:])
    return out
