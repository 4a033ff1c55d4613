"""Forward difference operators of step r on single and double sequences.

For a single sequence ``a`` and step r >= 1,

    delta_r(a, r, k)  =  a_k - a_{k+r}.

For a double sequence ``c`` the three operators are

    delta_r0(c, r, j, k)  =  c_{jk} - c_{j+r,k}           (first index)
    delta_0r(c, r, j, k)  =  c_{jk} - c_{j,k+r}           (second index)
    delta_rr(c, r, j, k)  =  delta_r0(delta_0r(c))
                          =  c_{jk} - c_{j+r,k} - c_{j,k+r} + c_{j+r,k+r}.

The pointwise operators above are the public reference, evaluating the
sequence once per term (index arguments broadcast; nothing is cached,
no cancellation guard): tests compare the table forms against them and
the CLI identity sweep checks their decompositions.  Library code reads
every difference from one evaluation of the sequence on the span
widened by the step, slicing the shifted terms out of it in the
pointwise operators' order, so for an evaluator that acts elementwise
the values are the same bit for bit: :func:`_variation` (the exactly
rounded sum of ``|v_i - v_{i+r}|`` along a line), :func:`_mixed` (on a
table), and :func:`delta_rr_grid` and :func:`delta_r0_grid`, which
rectangle scans call once per row block (:func:`_row_blocks`).
Rectangle sums read in row blocks (block differences, lemma 1, the
dense family-ONE and lemma 3 windows) reduce them with
:func:`_blocked_sum`: an exactly rounded sum per block, then of the
parts.  The row blocks fix where those sums round; each is evaluated in
sub-blocks of ``_SUB_BLOCK_CELLS`` cells (:func:`_sub_blocks`), which
bound the working set and change no bit.
"""

from __future__ import annotations

import math

import numpy as np

from .sequences import CoefficientSequence, SingleSequence
from .summing import _exact_parts, ksum

__all__ = ["check_step", "delta_r", "delta_r0", "delta_0r", "delta_rr",
           "delta_rr_grid", "delta_r0_grid"]

# Cells of one row block in a blocked scan (before widening by the step);
# the row blocks fix where a blocked sum rounds.
_ROW_BLOCK_CELLS = 1 << 22
# Cells of one sub-block, the unit a row block is evaluated in: 64 kB of
# float64, so its arrays stay below glibc's 128 KiB mmap threshold.
_SUB_BLOCK_CELLS = 1 << 13


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


def _row_blocks(lo: int, hi: int, width: int, cells: int | None = None):
    """Row ranges ``(j0, j1)``, inclusive, that cover ``lo..hi`` in order,
    each ``cells // width`` rows long (at least one row) but the last;
    ``cells`` defaults to ``_ROW_BLOCK_CELLS``."""
    chunk = max(1, (_ROW_BLOCK_CELLS if cells is None else cells) // max(1, width))
    for j0 in range(lo, hi + 1, chunk):
        yield j0, min(j0 + chunk, hi + 1) - 1


def _sub_blocks(j0: int, j1: int, width: int):
    """The sub-blocks of about ``_SUB_BLOCK_CELLS`` cells, at least one row
    each, that the row block ``j0..j1`` is evaluated in."""
    return _row_blocks(j0, j1, width, _SUB_BLOCK_CELLS)


def _blocked_sum(lo: int, hi: int, width: int, block) -> float:
    """``ksum`` of ``ksum(block(j0, j1))`` over the row blocks
    ``_row_blocks(lo, hi, width)``; ``block`` returns the values of rows
    ``j0..j1`` (inclusive) of a rectangle ``width`` columns wide.

    The row blocks fix where each sum rounds; a row block is evaluated in
    sub-blocks of ``_SUB_BLOCK_CELLS`` cells, whose exact parts
    (:func:`~doublesine.summing._exact_parts`) are gathered and rounded
    once by :func:`math.fsum`: the correctly rounded sum of the block, the
    same float as ``ksum`` of it whole.  A block with a sub-block that
    has no exact parts (not finite, out of range) or a zero total is
    summed whole, as ``ksum`` falls back to ``math.fsum`` on those."""
    parts = [_block_sum(j0, j1, width, block) for j0, j1 in _row_blocks(lo, hi, width)]
    return float(ksum(np.asarray(parts)))


def _block_sum(j0: int, j1: int, width: int, block) -> float:
    """``ksum(block(j0, j1))``, from sub-blocks of ``_SUB_BLOCK_CELLS``
    cells (see :func:`_blocked_sum`)."""
    subs = list(_sub_blocks(j0, j1, width))
    if len(subs) > 1:
        parts: list[float] = []
        for s0, s1 in subs:
            exact = _exact_parts(np.asarray(block(s0, s1)).reshape(-1))
            if exact is None:
                break
            parts.extend(exact)
        else:
            total = math.fsum(parts)
            if total != 0.0:
                return total
    return ksum(block(j0, j1))


def _span(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi + 1, dtype=np.int64)


def _variation(v: np.ndarray, r: int, m: int) -> float:
    """``sum_{i<m} |v_i - v_{i+r}|`` over the first ``m + r`` values of ``v``."""
    return float(ksum(np.abs(v[:m] - v[r:m + r])))


def _mixed(t: np.ndarray, r: int) -> np.ndarray:
    """``t_{ij} - t_{i+r,j} - t_{i,j+r} + t_{i+r,j+r}`` over all but the
    last r rows and columns of an evaluated table ``t``."""
    return t[:-r, :-r] - t[r:, :-r] - t[:-r, r:] + t[r:, r:]


def delta_rr_grid(c: CoefficientSequence, r: int, j0: int, j1: int, k0: int, k1: int):
    """``delta_rr(c, r, j[:, None], k[None, :])`` for ``j = j0..j1``,
    ``k = k0..k1``, from one evaluation of ``c`` on ``j0..j1 + r`` by
    ``k0..k1 + r``."""
    r = check_step(r)
    return _mixed(c.eval(_span(j0, j1 + r)[:, None], _span(k0, k1 + r)[None, :]), r)


def delta_r0_grid(c: CoefficientSequence, r: int, j0: int, j1: int, k0: int, k1: int):
    """``delta_r0(c, r, j[:, None], k[None, :])`` for ``j = j0..j1``,
    ``k = k0..k1``, from one evaluation of ``c`` on ``j0..j1 + r`` by
    ``k0..k1``.  On ``c.T`` it gives ``delta_0r(c, r, k[None, :], j[:, None])``."""
    r = check_step(r)
    t = c.eval(_span(j0, j1 + r)[:, None], _span(k0, k1)[None, :])
    return t[:-r] - t[r:]
