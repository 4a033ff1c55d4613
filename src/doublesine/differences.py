"""Forward difference operators of step r on single and double sequences.

For a single sequence ``a`` and step r >= 1,

    delta_r(a, r, k)  =  a_k - a_{k+r}.

For a double sequence ``c`` the three operators are

    delta_r0(c, r, j, k)  =  c_{jk} - c_{j+r,k}           (first index)
    delta_0r(c, r, j, k)  =  c_{jk} - c_{j,k+r}           (second index)
    delta_rr(c, r, j, k)  =  delta_r0(delta_0r(c))
                          =  c_{jk} - c_{j+r,k} - c_{j,k+r} + c_{j+r,k+r}.

The pointwise operators above are the public reference, evaluating the
sequence once per term (index arguments broadcast; nothing is cached, no
cancellation guard): tests compare the table forms against them and
:func:`_identity_differences` checks their decompositions for the identity
sweep.  Library code reads every difference from one evaluation of the
sequence on the span widened by the step, slicing the shifted terms out
of it in the pointwise operators' order, so for an evaluator that acts
elementwise the values are the same bit for bit: :func:`_steps`
(``|v_i - v_{i+r}|`` along a line) and :func:`_variation` (their exactly
rounded sum), :func:`_mixed` (on a table), and :func:`delta_rr_grid` and
:func:`delta_r0_grid`, which rectangle scans call once per sub-block.  A
rectangle is read in sub-blocks of about ``_SUB_BLOCK_CELLS`` cells
(:func:`_sub_blocks`), which bound the working set and change no bit.
Every dense rectangle sum (block differences, lemma 1, the dense
family-ONE and lemma 3 windows) and the lemma factor sums of ``|d2 a|``
are one :func:`_blocked_sum`: the exactly rounded sum of the whole
rectangle, the same float as one ``ksum`` of it.
"""

from __future__ import annotations

import math

import numpy as np

from .sequences import CoefficientSequence, SingleSequence, from_table, single_from_values
from .summing import _exact_parts, ksum

__all__ = ["check_step", "delta_r", "delta_r0", "delta_0r", "delta_rr",
           "delta_rr_grid", "delta_r0_grid"]

# Cells of one sub-block, the unit a rectangle is read in: 64 kB of
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


def _sub_blocks(lo: int, hi: int, width: int):
    """Row ranges ``(j0, j1)``, inclusive, that cover ``lo..hi`` in order,
    each ``_SUB_BLOCK_CELLS // width`` rows long (at least one row) but
    the last: the sub-blocks a rectangle ``width`` columns wide is read in."""
    chunk = max(1, _SUB_BLOCK_CELLS // max(1, width))
    for j0 in range(lo, hi + 1, chunk):
        yield j0, min(j0 + chunk, hi + 1) - 1


def _blocked_sum(lo: int, hi: int, width: int, block) -> float:
    """``ksum`` of rows ``lo..hi`` of a real rectangle ``width`` columns
    wide; ``block(j0, j1)`` returns the values of rows ``j0..j1``
    (inclusive).

    The exact parts (:func:`~doublesine.summing._exact_parts`) of every
    sub-block (:func:`_sub_blocks`) are gathered and rounded once by
    :func:`math.fsum`: the correctly rounded sum of the rectangle, the
    same float as ``ksum`` of it whole.  Where ``ksum`` falls back to
    ``math.fsum`` (a sub-block that has no exact parts: not finite, out
    of range; or a zero total), the values go to ``math.fsum`` one
    sub-block at a time, so the working set stays a sub-block."""
    parts: list[float] = []
    for s0, s1 in _sub_blocks(lo, hi, width):
        exact = _exact_parts(np.asarray(block(s0, s1)).reshape(-1))
        if exact is None:
            break
        parts.extend(exact)
    else:
        total = math.fsum(parts)
        if total != 0.0:
            return total
    return math.fsum(v for s0, s1 in _sub_blocks(lo, hi, width)
                     for v in np.asarray(block(s0, s1), dtype=np.float64).reshape(-1).tolist())


def _span(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi + 1, dtype=np.int64)


def _doublings(start: int, limit: int) -> list[int]:
    """``start, 2 start, 4 start, ...`` up to ``limit``, for ``start >= 1``;
    empty when ``limit < start``."""
    return [start << e for e in range(max(limit // start, 0).bit_length())]


def _steps(v: np.ndarray, r: int, m: int) -> np.ndarray:
    """``|v_i - v_{i+r}|`` for ``i < m``, over the first ``m + r`` values of ``v``."""
    return np.abs(v[:m] - v[r:m + r])


def _variation(v: np.ndarray, r: int, m: int) -> float:
    """``sum_{i<m} |v_i - v_{i+r}|`` over the first ``m + r`` values of ``v``."""
    return float(ksum(_steps(v, r, m)))


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


def _identity_differences(rng: np.random.Generator, grid: int):
    """Exactness of the step-2 difference decompositions on a random table."""
    table = rng.standard_normal((grid + 2, grid + 2))
    c = from_table("delta", table)
    j = np.arange(1, grid + 1, dtype=np.int64)[:, None]
    k = np.arange(1, grid + 1, dtype=np.int64)[None, :]
    eps = float(np.finfo(np.float64).eps)
    d22 = np.asarray(delta_rr(c, 2, j, k))
    # the four step-1 pieces d11(j + dj, k + dk), dj, dk in {0, 1}, are slices
    # of one table on the (grid + 1)^2 square; recon sums them left to right
    d11 = np.asarray(delta_rr(c, 1, np.arange(1, grid + 2, dtype=np.int64)[:, None],
                              np.arange(1, grid + 2, dtype=np.int64)[None, :]))
    pieces = [d11[dj:dj + grid, dk:dk + grid] for dj, dk in ((0, 0), (1, 0), (0, 1), (1, 1))]
    recon, scale_22 = pieces[0].copy(), np.ones_like(d22)
    for piece in pieces:
        np.maximum(scale_22, np.abs(piece), out=scale_22)
    for piece in pieces[1:]:
        recon += piece
    np.subtract(d22, recon, out=recon)
    err_22 = float(np.max(np.abs(recon, out=recon) / scale_22, initial=0.0))

    a_vals = rng.standard_normal(grid + 2)
    a = single_from_values("delta1", a_vals)
    kk = np.arange(1, grid + 1, dtype=np.int64)
    d2 = np.asarray(delta_r(a, 2, kk))
    d1 = np.asarray(delta_r(a, 1, np.arange(1, grid + 2, dtype=np.int64)))
    recon1 = d1[:-1] + d1[1:]
    scale_2 = np.maximum(1.0, np.maximum(np.abs(d1[:-1]), np.abs(d1[1:])))
    err_2 = float(np.max(np.abs(d2 - recon1) / scale_2, initial=0.0))
    limit = 8.0 * eps
    return ({"grid": grid, "worst_mixed_err": err_22, "worst_single_err": err_2,
             "tolerance": limit, "failures": int(err_22 > limit) + int(err_2 > limit)},
            d22.size + d2.size, max(err_22, err_2))
