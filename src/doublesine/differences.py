"""Forward difference operators of step r on single and double sequences.

For a single sequence ``a`` and step r >= 1,

    delta_r(a, r, k)  =  a_k - a_{k+r}.

For a double sequence ``c`` the three operators are

    delta_r0(c, r, j, k)  =  c_{jk} - c_{j+r,k}           (first index)
    delta_0r(c, r, j, k)  =  c_{jk} - c_{j,k+r}           (second index)
    delta_rr(c, r, j, k)  =  delta_r0(delta_0r(c))
                          =  c_{jk} - c_{j+r,k} - c_{j,k+r} + c_{j+r,k+r}.

Differences are evaluated on demand from the sequence callable, one
closed form per call; nothing is cached and no cancellation guard is
applied.  Index arguments broadcast like the underlying evaluators.

Scans over a rectangle of indices take the differences block by block
(:func:`_row_blocks`): :func:`delta_rr_grid` and :func:`delta_r0_grid`
evaluate ``c`` once per block, on the block widened by the step, and
slice the shifted terms out of that one table.  They combine the terms
in the same order as :func:`delta_rr` and :func:`delta_r0`, so for an
evaluator that acts elementwise the values are the same bit for bit.
Rectangle sums read in row blocks (block differences, lemma 1, the
dense family-ONE and lemma 3 windows) reduce them with
:func:`_blocked_sum`: an exactly rounded sum per block, then of the
parts.  Along one evaluated line, :func:`_variation` is the exactly
rounded sum of ``|v_i - v_{i+r}|``.
"""

from __future__ import annotations

import numpy as np

from .sequences import CoefficientSequence, SingleSequence
from .summing import ksum

__all__ = ["check_step", "delta_r", "delta_r0", "delta_0r", "delta_rr",
           "delta_rr_grid", "delta_r0_grid"]

# Cells of one row block in a blocked scan (before widening by the step).
_ROW_BLOCK_CELLS = 1 << 22


def check_step(r) -> int:
    """Validate a difference step; returns it as a plain int."""
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise ValueError(f"difference step must be an integer, got {r!r}")
    if r < 1:
        raise ValueError(f"difference step must be >= 1, got {r}")
    return int(r)


def delta_r(a: SingleSequence, r: int, k):
    """``a_k - a_{k+r}``."""
    r = check_step(r)
    k = np.asarray(k)
    return a.eval(k) - a.eval(k + r)


def delta_r0(c: CoefficientSequence, r: int, j, k):
    """``c_{jk} - c_{j+r,k}``."""
    r = check_step(r)
    j = np.asarray(j)
    return c.eval(j, k) - c.eval(j + r, k)


def delta_0r(c: CoefficientSequence, r: int, j, k):
    """``c_{jk} - c_{j,k+r}``."""
    r = check_step(r)
    k = np.asarray(k)
    return c.eval(j, k) - c.eval(j, k + r)


def delta_rr(c: CoefficientSequence, r: int, j, k):
    """Mixed difference ``c_{jk} - c_{j+r,k} - c_{j,k+r} + c_{j+r,k+r}``."""
    r = check_step(r)
    j = np.asarray(j)
    k = np.asarray(k)
    return c.eval(j, k) - c.eval(j + r, k) - c.eval(j, k + r) + c.eval(j + r, k + r)


def _row_blocks(lo: int, hi: int, width: int):
    """Row ranges ``(j0, j1)``, inclusive, that cover ``lo..hi`` in order,
    each ``_ROW_BLOCK_CELLS // width`` rows long (at least one row) but
    the last."""
    chunk = max(1, _ROW_BLOCK_CELLS // max(1, width))
    for j0 in range(lo, hi + 1, chunk):
        yield j0, min(j0 + chunk, hi + 1) - 1


def _blocked_sum(lo: int, hi: int, width: int, block) -> float:
    """``ksum`` of ``ksum(block(j0, j1))`` over the row blocks
    ``_row_blocks(lo, hi, width)``; ``block`` returns the values of rows
    ``j0..j1`` (inclusive) of a rectangle ``width`` columns wide."""
    parts = [ksum(block(j0, j1)) for j0, j1 in _row_blocks(lo, hi, width)]
    return float(ksum(np.asarray(parts)))


def _span(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi + 1, dtype=np.int64)


def _variation(v: np.ndarray, r: int, m: int) -> float:
    """``sum_{i<m} |v_i - v_{i+r}|`` over the first ``m + r`` values of ``v``."""
    return float(ksum(np.abs(v[:m] - v[r:m + r])))


def delta_rr_grid(c: CoefficientSequence, r: int, j0: int, j1: int, k0: int, k1: int):
    """``delta_rr(c, r, j[:, None], k[None, :])`` for ``j = j0..j1``,
    ``k = k0..k1``, from one evaluation of ``c`` on ``j0..j1 + r`` by
    ``k0..k1 + r``."""
    r = check_step(r)
    t = c.eval(_span(j0, j1 + r)[:, None], _span(k0, k1 + r)[None, :])
    return t[:-r, :-r] - t[r:, :-r] - t[:-r, r:] + t[r:, r:]


def delta_r0_grid(c: CoefficientSequence, r: int, j0: int, j1: int, k0: int, k1: int):
    """``delta_r0(c, r, j[:, None], k[None, :])`` for ``j = j0..j1``,
    ``k = k0..k1``, from one evaluation of ``c`` on ``j0..j1 + r`` by
    ``k0..k1``.  On ``c.T`` it gives ``delta_0r(c, r, k[None, :], j[:, None])``."""
    r = check_step(r)
    t = c.eval(_span(j0, j1 + r)[:, None], _span(k0, k1)[None, :])
    return t[:-r] - t[r:]
