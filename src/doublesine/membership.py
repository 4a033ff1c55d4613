"""Membership checks: observed block variation against majorant families.

For a double sequence and a step r the left-hand sides are block sums of
differences over dyadic index blocks,

    lhs_row(m, n)    = sum_{j=m}^{2m-1} |c_{jk} - c_{j+r,k}|       (k = n)
    lhs_col(m, n)    = sum_{k=n}^{2n-1} |c_{jk} - c_{j,k+r}|       (j = m)
    lhs_double(m, n) = sum_{j=m}^{2m-1} sum_{k=n}^{2n-1} |d_rr c_{jk}|

:func:`check_membership` divides these by the majorant family's
right-hand sides over a grid of (m, n) pairs and reports the fitted
constants (sup of ratios), the worst witnesses, an optional growth fit,
and truncation bookkeeping.  Ratio conventions: 0/0 counts as 0, and a
positive left-hand side over a vanishing majorant is reported as an
infinite ratio with its witness.

:func:`check_condition_22` tracks the weighted anti-diagonal maxima
``T(s) = max_{j+k=s} jk |c_{jk}|``, whose decay is the zero-limit
condition the convergence results assume.

:func:`check_single_membership` runs the same fit for single sequences
against the classical one-index class definitions (window-average,
bounded-window max, sup-past-b, and a user-supplied majorant).  Lower
window limits round down (clamped to 1) and upper limits round up,
matching the double-index convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .convergence import TailReport, classify_tail, loglog_slope
from .differences import check_step, delta_0r, delta_r, delta_r0, delta_rr
from .majorants import (
    Axis,
    DoubleScanTable,
    MajorantFamily,
    MajorantValue,
    _single_line,
    _sup_scan,
    averaging_window,
    compile_b,
    rhs,
    single_window_sum,
)
from .sequences import CoefficientSequence, SingleSequence, compile_expression
from .summing import ksum

__all__ = [
    "lhs_row",
    "lhs_col",
    "lhs_double",
    "RatioRow",
    "MembershipReport",
    "check_membership",
    "check_condition_22",
    "SingleClass",
    "SingleMembershipReport",
    "beta_star",
    "check_single_membership",
]


def lhs_row(c: CoefficientSequence, r: int, m: int, n: int) -> float:
    """``sum_{j=m}^{2m-1} |c_{jn} - c_{j+r,n}|``."""
    j = np.arange(m, 2 * m, dtype=np.int64)
    return float(ksum(np.abs(delta_r0(c, r, j, n))))


def lhs_col(c: CoefficientSequence, r: int, m: int, n: int) -> float:
    """``sum_{k=n}^{2n-1} |c_{mk} - c_{m,k+r}|``."""
    k = np.arange(n, 2 * n, dtype=np.int64)
    return float(ksum(np.abs(delta_0r(c, r, m, k))))


def lhs_double(c: CoefficientSequence, r: int, m: int, n: int) -> float:
    """``sum_{j=m}^{2m-1} sum_{k=n}^{2n-1} |d_rr c_{jk}|``.

    For separable sequences the mixed difference factors, so the double
    sum is the product of two single-index difference blocks.
    """
    check_step(r)
    if c.separable_parts is not None:
        a, b = c.separable_parts
        j = np.arange(m, 2 * m, dtype=np.int64)
        k = np.arange(n, 2 * n, dtype=np.int64)
        left = float(ksum(np.abs(delta_r(a, r, j))))
        right = float(ksum(np.abs(delta_r(b, r, k))))
        return left * right
    k = np.arange(n, 2 * n, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, len(k)))
    parts = []
    for j0 in range(m, 2 * m, chunk):
        j = np.arange(j0, min(j0 + chunk, 2 * m), dtype=np.int64)
        parts.append(ksum(np.abs(delta_rr(c, r, j[:, None], k[None, :]))))
    return float(ksum(np.asarray(parts)))


@dataclass(frozen=True)
class RatioRow:
    """One grid point of one axis: observed lhs, majorant rhs, ratio."""

    m: int
    n: int
    axis: str
    lhs: float
    rhs: float
    ratio: float
    truncated: bool


@dataclass(frozen=True)
class MembershipReport:
    """Fit of class constants over a grid.

    ``fitted_C_*`` are sups of the per-point ratios (None when the axis
    had no admissible grid points).  ``worst_witness`` maps axis name to
    the witness dict of the sup.  ``growth_fit`` maps axis name to the
    log-log slope of the running fitted constant over square subgrids,
    when defined.  ``truncation_flags`` is True when any majorant was
    truncated without a certifying tail bound.  ``verdicts`` appears
    when a target constant was supplied.
    """

    r: int
    family: MajorantFamily
    grid: tuple[tuple[int, int], ...]
    fitted_C_row: float | None
    fitted_C_col: float | None
    fitted_C_double: float | None
    worst_witness: dict
    growth_fit: dict
    truncation_flags: bool
    rows: tuple[RatioRow, ...]
    target_C: float | None = None
    verdicts: dict | None = None


_LHS_FOR_AXIS: dict[Axis, Callable] = {
    Axis.ROW: lhs_row,
    Axis.COLUMN: lhs_col,
    Axis.DOUBLE: lhs_double,
}


def _ratio(lhs: float, rhs_val: float) -> float:
    if rhs_val > 0.0:
        return lhs / rhs_val
    return 0.0 if lhs == 0.0 else math.inf


def _axis_admissible(axis: Axis, m: int, n: int, lam: int) -> bool:
    if axis is Axis.ROW:
        return m >= lam
    if axis is Axis.COLUMN:
        return n >= lam
    return m >= lam and n >= lam


def _growth_slope(points: list[tuple[int, int, float]]) -> float | None:
    """Slope of the running sup of ratios over square subgrids."""
    if not points:
        return None
    sizes = sorted({max(m, n) for m, n, _ in points})
    xs, ys = [], []
    for s in sizes:
        vals = [ratio for m, n, ratio in points
                if m <= s and n <= s and math.isfinite(ratio)]
        if vals:
            xs.append(s)
            ys.append(max(vals))
    if len(xs) < 3:
        return None
    return loglog_slope(xs, ys)


def check_membership(c: CoefficientSequence, r: int, fam: MajorantFamily,
                     grid, target_C: float | None = None) -> MembershipReport:
    """Fit class constants for all three axes of ``fam`` over a grid.

    ``grid`` is an iterable of (m, n) pairs; each axis only uses the
    pairs satisfying its domain rule (first index >= lambda for rows,
    second for columns, both for the double axis).  ``fam.axis`` is
    ignored; all three axes are evaluated.
    """
    check_step(r)
    grid = tuple((int(m), int(n)) for m, n in grid)
    if not grid:
        raise ValueError("empty grid")
    rows: list[RatioRow] = []
    fitted: dict[Axis, float | None] = {}
    witness: dict[str, dict | None] = {}
    growth: dict[str, float | None] = {}
    verdicts: dict[str, str] = {}
    any_truncated = False
    # one double-sup table per fit, shared by every double-axis grid point
    table = DoubleScanTable(c, fam.sup_horizon)

    for axis in (Axis.ROW, Axis.COLUMN, Axis.DOUBLE):
        fam_axis = replace(fam, axis=axis)
        best: float | None = None
        best_row: RatioRow | None = None
        pts: list[tuple[int, int, float]] = []
        hard_fail: RatioRow | None = None
        unknown = False
        for m, n in grid:
            if not _axis_admissible(axis, m, n, fam.lam):
                continue
            lhs_val = _LHS_FOR_AXIS[axis](c, r, m, n)
            mv: MajorantValue = rhs(c, fam_axis, m, n, table=table)
            ratio = _ratio(lhs_val, mv.value)
            truncated = mv.truncated and lhs_val > 0.0
            any_truncated = any_truncated or truncated
            row = RatioRow(m=m, n=n, axis=axis.value, lhs=lhs_val,
                           rhs=mv.value, ratio=ratio, truncated=truncated)
            rows.append(row)
            pts.append((m, n, ratio))
            if best is None or ratio > best:
                best, best_row = ratio, row
            if target_C is not None and ratio > target_C:
                if truncated:
                    unknown = True
                elif hard_fail is None:
                    hard_fail = row
        fitted[axis] = best
        witness[axis.value] = None if best_row is None else {
            "m": best_row.m, "n": best_row.n, "lhs": best_row.lhs,
            "rhs": best_row.rhs, "ratio": best_row.ratio,
        }
        growth[axis.value] = _growth_slope(pts)
        if target_C is not None:
            if hard_fail is not None:
                verdicts[axis.value] = "fail"
            elif unknown:
                verdicts[axis.value] = "inconclusive"
            elif best is None:
                verdicts[axis.value] = "inconclusive"
            else:
                verdicts[axis.value] = "pass"

    return MembershipReport(
        r=r,
        family=fam,
        grid=grid,
        fitted_C_row=fitted[Axis.ROW],
        fitted_C_col=fitted[Axis.COLUMN],
        fitted_C_double=fitted[Axis.DOUBLE],
        worst_witness=witness,
        growth_fit=growth,
        truncation_flags=any_truncated,
        rows=tuple(rows),
        target_C=target_C,
        verdicts=verdicts or None,
    )


def check_condition_22(c: CoefficientSequence, S: int = 4096,
                       schedule: tuple[int, ...] | None = None,
                       decay_factor: float = 100.0) -> TailReport:
    """Weighted anti-diagonal maxima ``T(s) = max_{j+k=s} jk |c_{jk}|``.

    Scales default to the dyadic schedule 4, 8, ..., S.  The verdict is
    ``decaying`` when the last three values strictly decrease and the
    final value is under the first divided by ``decay_factor``.
    """
    if schedule is None:
        if S < 8:
            raise ValueError("need S >= 8 for the default schedule")
        sched = []
        s = 4
        while s <= S:
            sched.append(s)
            s *= 2
        schedule = tuple(sched)
    values = []
    for s in schedule:
        if s < 2:
            raise ValueError("anti-diagonal scales must be >= 2")
        j = np.arange(1, s, dtype=np.int64)
        k = s - j
        weights = j.astype(np.float64) * k.astype(np.float64)
        t = float(np.max(weights * np.abs(np.asarray(c.eval(j, k)))))
        values.append(t)
    return TailReport(schedule=tuple(int(s) for s in schedule), values=tuple(values),
                      verdict=classify_tail(values, decay_factor=decay_factor),
                      fit=loglog_slope(schedule, values),
                      bounded=tuple(True for _ in schedule))


# --- single-index classes ---------------------------------------------------

class SingleClass(Enum):
    MVBVS = "mvbvs"
    SBVS = "sbvs"
    SBVS2 = "sbvs2"
    GM = "gm"


@dataclass(frozen=True)
class SingleMembershipReport:
    klass: SingleClass
    r: int
    grid: tuple[int, ...]
    fitted_C: float | None
    worst_witness: dict | None
    truncation_flags: bool
    rows: tuple[RatioRow, ...]
    target_C: float | None = None
    verdict: str | None = None


def beta_star(a: SingleSequence, n: int, lam: int = 2) -> float:
    """Window-average majorant ``(1/n) sum_{k=floor(n/lam)}^{ceil(lam n)} |a_k|``."""
    lo, hi = averaging_window(n, lam)
    return single_window_sum(a, lo, hi) / n


def check_single_membership(a: SingleSequence, klass: SingleClass, grid,
                            lam: int = 2, r: int = 1, horizon: int = 4096,
                            b: str = "l", beta=None,
                            target_C: float | None = None) -> SingleMembershipReport:
    """Fit the class constant of a single sequence over a grid of n.

    Classes: ``MVBVS`` compares ``sum_{k=n}^{2n} |d1 a_k|`` against the
    window average; ``SBVS`` compares ``sum_{k=n}^{2n-1} |d1 a_k|``
    against ``(1/n) sup_{M >= floor(n/lam)}`` of blocks; ``SBVS2`` scans
    the sup from ``b(n)``; ``GM`` uses step ``r`` differences against a
    user majorant ``beta`` ("star", an expression in n, or a callable;
    default "star" is the window average).
    """
    if klass is not SingleClass.GM:
        r = 1
    check_step(r)
    if lam < 2 and klass in (SingleClass.MVBVS, SingleClass.SBVS):
        raise ValueError("MVBVS and SBVS need lambda >= 2")
    grid = tuple(int(n) for n in grid)
    if not grid:
        raise ValueError("empty grid")
    if beta is None or beta == "star":
        beta_fn = lambda n: beta_star(a, n, lam)  # noqa: E731
    elif isinstance(beta, str):
        expr_fn, _ = compile_expression(beta, ("n",))
        beta_fn = lambda n: float(expr_fn(n=float(n)))  # noqa: E731
    else:
        beta_fn = beta
    fb = compile_b(b)
    # the sup classes scan one |a| line, shared by every grid point
    line = (_single_line(a, 1, horizon)
            if klass in (SingleClass.SBVS, SingleClass.SBVS2) else None)

    rows: list[RatioRow] = []
    best: float | None = None
    best_row: RatioRow | None = None
    any_truncated = False
    hard_fail = False
    unknown = False
    for n in grid:
        if klass in (SingleClass.MVBVS, SingleClass.SBVS) and n < lam:
            continue
        if n < 1:
            continue
        hi = 2 * n if klass is SingleClass.MVBVS else 2 * n - 1
        k = np.arange(n, hi + 1, dtype=np.int64)
        lhs_val = float(ksum(np.abs(delta_r(a, r, k))))
        truncated = False
        if klass is SingleClass.MVBVS:
            rhs_val = beta_star(a, n, lam)
        elif line is not None:
            scan = _sup_scan(line, max(1, n // lam) if klass is SingleClass.SBVS else fb(n))
            rhs_val = scan.value / n
            truncated = scan.truncated
        else:
            rhs_val = float(beta_fn(n))
        ratio = _ratio(lhs_val, rhs_val)
        truncated = truncated and lhs_val > 0.0
        any_truncated = any_truncated or truncated
        row = RatioRow(m=n, n=0, axis="single", lhs=lhs_val, rhs=rhs_val,
                       ratio=ratio, truncated=truncated)
        rows.append(row)
        if best is None or ratio > best:
            best, best_row = ratio, row
        if target_C is not None and ratio > target_C:
            if truncated:
                unknown = True
            else:
                hard_fail = True
    verdict = None
    if target_C is not None:
        verdict = ("fail" if hard_fail
                   else "inconclusive" if (unknown or best is None) else "pass")
    return SingleMembershipReport(
        klass=klass, r=r, grid=grid, fitted_C=best,
        worst_witness=None if best_row is None else {
            "n": best_row.m, "lhs": best_row.lhs, "rhs": best_row.rhs,
            "ratio": best_row.ratio},
        truncation_flags=any_truncated, rows=tuple(rows),
        target_C=target_C, verdict=verdict)
