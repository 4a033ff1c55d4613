"""Deterministic summation helpers.

Every reduction in this package that feeds a reported number goes through
one of these helpers (or an explicitly ordered ``numpy`` cumulative sum),
so that repeated runs produce bit-identical output, with two exceptions.
Lemma 2's dense column sums add each column's terms in row order,
whatever the width: a sub-block's running sums are added into the next
sub-block's first row, and ``ndarray.sum(axis=0)``, which adds the rows
of a table two or more columns wide one after another, continues from
there; a single column, which numpy would sum pairwise, takes
``np.cumsum`` instead.  The dense probe's lattice sums are a BLAS matrix
product, repeatable under one BLAS (OpenBLAS 0.3.31 gave the same cap-512
dense probe with 1 and 2 threads); another BLAS may round differently.

:func:`ksum` returns the exact sum of its float64 inputs rounded once, so
its result does not depend on the order of the values.  Input shorter
than ``_SMALL`` is :func:`math.fsum` of its list, the reduction every
other path equals; a 1-D array is not copied or reshaped.  Long inputs are
reduced by error-free extraction (Rump, Ogita and Oishi, "Accurate
floating-point summation, Part I", SIAM J. Sci. Comput. 31(1), 2008):
within a block of n values, for ``sigma`` a power of two with
``max |p_i| <= 2^-M sigma`` and ``2^M >= n + 2``, each
``q_i = (sigma + p_i) - sigma`` and ``p_i - q_i`` are computed without
error, every ``q_i`` is a multiple of ``2^-53 sigma`` and their sum stays
below ``sigma`` in magnitude.  So ``np.sum(q)`` is exact in any order,
and the block's exact sum is that of the extracted ``np.sum(q)`` values
plus the leftovers ``p - q``.  A few passes leave few nonzero leftovers;
:func:`math.fsum` rounds the short list of extracted sums and leftovers
once, which is the correctly rounded sum of the input, the same float
``math.fsum`` returns on the whole input.  Non-finite input, magnitudes
that would push ``sigma`` out of ``2^-900..2^1000`` and a zero result
are left to :func:`math.fsum` on the whole input, so NaN, infinities,
its ``ValueError``/``OverflowError`` and the sign of zero are unchanged.
:func:`_exact_parts` hands out those parts, so a caller can gather the
parts of several arrays and round them once, the same float as ``ksum``
of the arrays joined (``differences._nested_sums``).  :func:`_row_sums`
gives ``ksum`` of each row's own values in a padded table, one row at a
time, so many short sums cost one table, not one array each
(``kernels.row_sums_by_parts``).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["ksum", "sine_prefix"]

# Below this many values math.fsum over a list is the faster reduction.
_SMALL = 512
# Values extracted at once; bounds the working memory of one reduction.
_BLOCK = 1 << 15
# Extraction passes per block before the leftovers go to math.fsum.
_PASSES = 6
# Range of sigma within which extraction neither overflows nor underflows.
_SIGMA_EXP_MIN, _SIGMA_EXP_MAX = -900, 1000
# Narrower tables take np.cumsum along axis 0; wider ones carry a row.
_MIN_ROW_CARRY_WIDTH = 64


def _extracted_parts(flat: np.ndarray) -> list[float] | None:
    """Floats whose exact sum is the exact sum of the finite float64
    vector ``flat``; None when ``flat`` is not finite or out of range."""
    parts: list[float] = []
    for start in range(0, len(flat), _BLOCK):
        p = flat[start:start + _BLOCK]
        M = (len(p) + 1).bit_length()  # smallest M with 2^M >= len(p) + 2
        for i in range(_PASSES):
            top = max(float(p.max()), -float(p.min()))
            if top == 0.0:
                break
            if not math.isfinite(top):
                return None
            exp = M + math.frexp(top)[1]  # top <= 2^frexp(top)[1]
            if not _SIGMA_EXP_MIN <= exp <= _SIGMA_EXP_MAX:
                return None
            sigma = math.ldexp(1.0, exp)
            q = np.add(p, sigma)
            q -= sigma
            # the first pass must not write to the caller's array
            p = p - q if i == 0 else np.subtract(p, q, out=p)
            parts.append(float(np.sum(q)))
        else:
            parts.extend(p[p != 0.0].tolist())
    return parts


def _exact_parts(values: np.ndarray) -> list[float] | None:
    """Floats whose exact sum is the exact sum of the 1-D array ``values``:
    the values themselves below ``_SMALL``, else their extracted parts.
    None where :func:`ksum` leaves the sum to :func:`math.fsum`: a dtype
    other than float16/32/64, or values that are not finite or out of the
    range extraction handles.  Every part is finite and at most
    ``2^_SIGMA_EXP_MAX`` in magnitude, so :func:`math.fsum` rounds any
    list of them, however gathered, without overflow."""
    if values.dtype.kind != "f" or values.dtype.itemsize > 8:
        return None
    values = values.astype(np.float64, copy=False)
    if len(values) >= _SMALL:
        return _extracted_parts(values)
    top = float(np.abs(values).max(initial=0.0))
    return values.tolist() if top <= math.ldexp(1.0, _SIGMA_EXP_MAX) else None


def _fsum(flat: np.ndarray) -> float:
    """``math.fsum(flat)`` for a 1-D array."""
    if flat.dtype.kind != "f" or flat.dtype.itemsize > 8:
        return math.fsum(flat)
    if len(flat) >= _SMALL:
        parts = _exact_parts(flat)
        if parts is not None:
            total = math.fsum(parts)
            if total != 0.0:
                return total
    return math.fsum(flat.tolist())  # float16/32/64 list as Python floats exactly


def ksum(values: Iterable | np.ndarray) -> float | complex:
    """Exactly rounded sum of a sequence of floats or complex numbers.

    Equal, bit for bit, to :func:`math.fsum` over the values (complex
    input is summed component-wise), so the result does not depend on
    the order of the values.  float16/32/64 input shorter than ``_SMALL``
    is ``math.fsum`` of its list; at least ``_SMALL`` values are reduced by
    blockwise error-free extraction (see the module docstring);
    non-finite input, magnitudes near overflow or underflow and a zero
    sum fall back to ``math.fsum``, as does every other dtype.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1:
        flat = values
    else:
        flat = np.asarray(values).reshape(-1)
    if len(flat) == 0:
        return 0.0
    if flat.dtype.kind == "c":
        return complex(_fsum(flat.real), _fsum(flat.imag))
    return _fsum(flat)


def _row_sums(table: np.ndarray, heads, tail: int = 0) -> list:
    """``ksum`` of each row's own values, bit for bit: row i of the 2-D
    ``table`` holds ``heads[i]`` values from its first column and ``tail``
    more in its last ``tail`` columns, summed in that order; the columns
    between are padding and enter no sum, whatever they hold (even a padded
    zero could change the sign of a zero sum).  A float64 row with fewer
    than ``_SMALL`` own values is ``math.fsum`` of its list, which is what
    ``ksum`` computes; any other row, complex included, is ``ksum`` of its
    own values."""
    width = table.shape[1]
    fast = table.dtype == np.float64
    sums = []
    for row, head in zip(table, np.asarray(heads).tolist()):
        if not fast or head + tail >= _SMALL:
            sums.append(ksum(row if head + tail == width
                             else np.concatenate([row[:head], row[width - tail:]])))
        else:
            values = row.tolist()
            sums.append(math.fsum(values[:head] + values[width - tail:]))
    return sums


def _cumsum_rows(grid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.cumsum(grid, axis=0, out=out)``, bit for bit.

    Row i of the prefix is row i - 1 plus ``grid[i]``, the same sequential
    sum ``np.cumsum`` forms per column; carrying whole rows reads a
    C-ordered table in memory order, which is several times faster once
    the table is wider than ``_MIN_ROW_CARRY_WIDTH``.  ``out`` may be
    ``grid`` itself.
    """
    if grid.ndim != 2 or grid.shape[1] < _MIN_ROW_CARRY_WIDTH or len(grid) == 0:
        return np.cumsum(grid, axis=0, out=out)
    out[0] = grid[0]
    for i in range(1, len(grid)):
        np.add(out[i - 1], grid[i], out=out[i])
    return out


def sine_prefix(values: np.ndarray, x) -> np.ndarray:
    """Prefix sums ``P[J] = sum_{j=1}^{J} values[j-1] * sin(j x)``.

    ``values`` holds the entries for indices ``1..len(values)`` along its
    first axis; the columns of a 2-D factor are summed separately.  ``x``
    is one abscissa, or a 1-D array of them for a one-column ``values``,
    whose column i is then the prefix at ``x[i]``, bit for bit.  The
    result has one more row, ``P[0] = 0``, so a sum over ``j = m..M`` is
    ``P[M] - P[m-1]``; no other array of that size is allocated.
    """
    values = np.asarray(values)
    j = np.arange(1, len(values) + 1, dtype=np.float64)
    if np.ndim(x):
        sines = np.sin(np.multiply.outer(j, x))
        shape = sines.shape
    else:
        sines = np.sin(j * x).reshape((-1,) + (1,) * (values.ndim - 1))
        shape = values.shape
    out = np.zeros((len(values) + 1,) + shape[1:], dtype=np.result_type(values, sines))
    np.multiply(values, sines, out=out[1:])
    _cumsum_rows(out[1:], out[1:])
    return out
