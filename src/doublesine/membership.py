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

A fit refuses grid indices below 1, then walks each row and column axis
line by line (columns are the lines of ``c.T``); a single-sequence fit
reads one line, ``a`` itself.  Scan starts are taken in grid order, so
refusals come in grid order.  Each line is evaluated once, on
``1..reach`` for the furthest read of its points.  An axis's lines, in
order of first appearance, are read by
:func:`~doublesine.majorants._row_lines`: each run of consecutive lines
of equal reach is one evaluation table of at most ``_TABLE_CELLS``
cells, whose rows are the lines bit for bit.  Every left-hand side is
``ksum`` of a slice of one ``|v_j - v_{j+r}|`` array
(:func:`~doublesine.differences._steps`), every majorant a read of
:func:`~doublesine.majorants._line_rhs` (for single sequences, family
ONE windows for the MVBVS and GM "star" averages, family THREE sups from
``max(1, n // lam)`` or ``b(n)`` for SBVS and SBVS2).  A line's arrays
are dropped before the next line is read, and a table before the next
table is evaluated, so one table and one line's arrays are alive at a
time.  ``lhs_double`` is the table's
:meth:`~doublesine.majorants.DoubleScanTable.rect_abs_sum` at step r, so
a separable sequence's factor sums are evaluated once per m and once per
n.  A command passes one table to the fit and to the calls after it.
``ksum`` is exactly rounded and the evaluators act elementwise, so each
row equals the per-point public functions' bit for bit.  A row whose
left-hand side or majorant is not finite is refused, the first one
naming its axis and grid point (n alone in a single fit), and so is an
exact sum that overflows, where it is taken.  A positive left-hand side
over a vanishing majorant stays an infinite ratio.

:func:`cap_verdict` judges a cap ``C <= cap`` on the rows of one axis or
of a single-sequence fit; only a certified row can fail it.
:func:`class_constant` is the largest family-TWO fitted constant of a
step-2 fit, the constant lemma 3's sandwich takes.

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
from typing import NamedTuple

import numpy as np

from .convergence import TailReport, _require_finite, classify_tail, loglog_slope
from .differences import _doublings, _span, _steps, _variation, check_step
from .majorants import (
    Axis,
    DoubleScanTable,
    Family,
    MajorantFamily,
    Measurement,
    _Line,
    _check_horizon,
    _line_rhs,
    _rect_abs_sum,
    _row_lines,
    _row_view,
    _scan_table,
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
    "cap_verdict",
    "class_constant",
    "check_condition_22",
    "SingleClass",
    "SingleMembershipReport",
    "beta_star",
    "check_single_membership",
]


def lhs_row(c: CoefficientSequence, r: int, m: int, n: int) -> float:
    """``sum_{j=m}^{2m-1} |c_{jn} - c_{j+r,n}|``."""
    r = check_step(r)
    return _variation(np.asarray(c.eval(_span(m, 2 * m - 1 + r), n)), r, m)


def lhs_col(c: CoefficientSequence, r: int, m: int, n: int) -> float:
    """``sum_{k=n}^{2n-1} |c_{mk} - c_{m,k+r}|``: :func:`lhs_row` of ``c.T``."""
    return lhs_row(c.T, r, n, m)


def lhs_double(c: CoefficientSequence, r: int, m: int, n: int) -> float:
    """``sum_{j=m}^{2m-1} sum_{k=n}^{2n-1} |d_rr c_{jk}|``
    (:func:`~doublesine.majorants._rect_abs_sum`, a product of two
    single-index difference blocks for a separable sequence)."""
    return _rect_abs_sum(c, check_step(r), m, 2 * m - 1, n, 2 * n - 1)


class RatioRow(NamedTuple):
    """One grid point of one axis: observed lhs, majorant rhs, ratio; the
    fields are the ``check-class`` CSV columns, in order."""

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
    truncated without a certifying tail bound.
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


def _where(axis: str, side: str, m: int, n: int) -> str:
    """A side of a row as refusals name it; a single row (``n = m``) names n."""
    return f"{axis} {side} at " + (f"n = {m}" if axis == "single" else f"(m, n) = ({m}, {n})")


def _ratio_row(m: int, n: int, axis: str, read_lhs, read_majorant) -> RatioRow:
    """One grid point from ``read_lhs()`` and ``read_majorant()``; a
    truncated majorant only matters where ``lhs > 0``.  An exact sum that
    overflows (``math.fsum``'s ``OverflowError``) is refused, naming the
    side and the grid point."""
    side = "left-hand side"
    try:
        lhs = read_lhs()
        side = "majorant"
        majorant = read_majorant()
    except OverflowError as exc:
        raise ValueError(f"{_where(axis, side, m, n)} overflows: {exc}") from exc
    if majorant.value > 0.0:
        ratio = lhs / majorant.value
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return RatioRow(m, n, axis, lhs, majorant.value, ratio, majorant.truncated and lhs > 0.0)


def _worst(rows) -> RatioRow | None:
    """The first row with the largest ratio (None without rows), as a loop
    taking a row only when its ratio is strictly larger."""
    return max(rows, key=lambda row: row.ratio, default=None)


def cap_verdict(rows, cap: float) -> tuple[str, RatioRow | None]:
    """``C <= cap`` judged over ``rows``: ``fail`` with the first certified
    row over the cap, which fails it at any horizon; ``inconclusive`` when
    only truncated rows exceed it (a truncated sup scan inflates the ratio)
    or there are no rows; else ``pass``.  The row is None unless ``fail``."""
    first = next((row for row in rows if row.ratio > cap and not row.truncated), None)
    if first is not None:
        return "fail", first
    return ("inconclusive" if not rows or any(row.ratio > cap for row in rows) else "pass"), None


def class_constant(c: CoefficientSequence, grid, *, lam: int = 2, b1: str = "l", b2: str = "l",
                   b3: str = "l", sup_horizon: int = 4096,
                   table: DoubleScanTable | None = None) -> float | None:
    """The class constant C that :func:`~doublesine.convergence.lemma3_check`
    takes: the largest of the three fitted constants of
    :func:`check_membership` at r = 2 against family TWO, ``table`` shared
    as there.  None when no axis has an admissible grid point or a fitted
    constant is not finite."""
    fam = MajorantFamily(Family.TWO, Axis.ROW, lam=lam, b1=b1, b2=b2, b3=b3,
                         sup_horizon=sup_horizon)
    report = check_membership(c, 2, fam, grid, table=table)
    fitted = [v for v in (report.fitted_C_row, report.fitted_C_col, report.fitted_C_double)
              if v is not None]
    return max(fitted) if fitted and all(math.isfinite(v) for v in fitted) else None


def _axis_admissible(axis: Axis, m: int, n: int, lam: int) -> bool:
    if axis is Axis.ROW:
        return m >= lam
    if axis is Axis.COLUMN:
        return n >= lam
    return m >= lam and n >= lam


def _growth_slope(points: list[tuple[int, int, float]]) -> float | None:
    """Slope of the running sup of ratios over square subgrids: each size's
    largest finite ratio in one pass, then a running max over the sizes."""
    largest: dict[int, float] = {}      # per size max(m, n), its largest finite ratio
    for m, n, ratio in points:
        s = max(m, n)
        largest.setdefault(s, -math.inf)
        if math.isfinite(ratio) and ratio > largest[s]:
            largest[s] = ratio
    xs, ys, running = [], [], -math.inf
    for s in sorted(largest):
        running = max(running, largest[s])
        if running > -math.inf:
            xs.append(s)
            ys.append(running)
    if len(xs) < 3:
        return None
    return loglog_slope(xs, ys)


def _line_rows(c: CoefficientSequence, r: int, fam: MajorantFamily,
               points: list[tuple[int, int]]) -> list[RatioRow]:
    """The rows of the row or column axis ``fam.axis`` at ``points``, in
    their order, reading each line once (see the module docstring)."""
    src, lines = c, {}
    for pos, (m, n) in enumerate(points):
        src, i, fixed, start, reach = _row_view(c, fam, m, n)
        lines.setdefault(fixed, []).append((pos, i, start, reach))
    reaches = [(fixed, max(max(2 * i - 1 + r, reach) for _, i, _, reach in reads))
               for fixed, reads in lines.items()]
    rows: list[RatioRow | None] = [None] * len(points)
    read = _row_lines(src, reaches, fam)
    for reads in lines.values():
        line = next(read)  # not zip: its reused tuple would keep the last line's table alive
        steps = _steps(line.vals, r, 2 * max(i for _, i, _, _ in reads) - 1)
        majorants = _line_rhs(fam.family, fam.lam, line, [(i, start) for _, i, start, _ in reads])
        for pos, i, _, _ in reads:
            rows[pos] = _ratio_row(*points[pos], fam.axis.value,
                                  lambda: float(ksum(steps[i - 1:2 * i - 1])),
                                  lambda: next(majorants))
        del line, steps, majorants  # one prepared line alive at a time
    return rows


def _refuse_non_finite(rows: list[RatioRow]) -> None:
    """Refuse the first row whose left-hand side or majorant is not finite."""
    _require_finite([v for row in rows for v in (row.lhs, row.rhs)], lambda i: _where(
        rows[i // 2].axis, ("left-hand side", "majorant")[i % 2], rows[i // 2].m, rows[i // 2].n))


def check_membership(c: CoefficientSequence, r: int, fam: MajorantFamily,
                     grid, *, table: DoubleScanTable | None = None) -> MembershipReport:
    """Fit class constants for all three axes of ``fam`` over a grid.

    ``grid`` is an iterable of (m, n) pairs; each axis only uses the
    pairs satisfying its domain rule (first index >= lambda for rows,
    second for columns, both for the double axis).  ``fam.axis`` is
    ignored; all three axes are evaluated.  ``table`` is shared as in
    :func:`~doublesine.majorants.rhs`; it changes no result.
    """
    r = check_step(r)
    grid = tuple((int(m), int(n)) for m, n in grid)
    if not grid:
        raise ValueError("empty grid")
    if any(m < 1 or n < 1 for m, n in grid):
        raise ValueError("indices must be >= 1")
    fams = {axis: replace(fam, axis=axis) for axis in Axis}
    points = {axis: [(m, n) for m, n in grid if _axis_admissible(axis, m, n, fam.lam)]
              for axis in Axis}
    table = _scan_table(c, fam.sup_horizon, table)  # shared by every double point
    rows: list[RatioRow] = []
    fitted: dict[Axis, float | None] = {}
    witness: dict[str, dict | None] = {}
    growth: dict[str, float | None] = {}
    for axis in Axis:
        if axis is not Axis.DOUBLE:
            axis_rows = _line_rows(c, r, fams[axis], points[axis])
        else:
            axis_rows = [_ratio_row(
                m, n, axis.value, lambda: table.rect_abs_sum(r, m, 2 * m - 1, n, 2 * n - 1),
                lambda: rhs(c, fams[axis], m, n, table=table)) for m, n in points[axis]]
        _refuse_non_finite(axis_rows)
        best = _worst(axis_rows)
        fitted[axis] = None if best is None else best.ratio
        witness[axis.value] = None if best is None else {
            "m": best.m, "n": best.n, "lhs": best.lhs, "rhs": best.rhs, "ratio": best.ratio,
        }
        growth[axis.value] = _growth_slope([(row.m, row.n, row.ratio) for row in axis_rows])
        rows.extend(axis_rows)

    return MembershipReport(
        r=r,
        family=fam,
        grid=grid,
        fitted_C_row=fitted[Axis.ROW],
        fitted_C_col=fitted[Axis.COLUMN],
        fitted_C_double=fitted[Axis.DOUBLE],
        worst_witness=witness,
        growth_fit=growth,
        truncation_flags=any(row.truncated for row in rows),
        rows=tuple(rows),
    )


def check_condition_22(c: CoefficientSequence, S: int = 4096,
                       schedule: tuple[int, ...] | None = None,
                       decay_factor: float = 100.0) -> TailReport:
    """Weighted anti-diagonal maxima ``T(s) = max_{j+k=s} jk |c_{jk}|``.

    Scales default to the dyadic schedule 4, 8, ..., S.  The verdict is
    ``decaying`` when the last three values strictly decrease and the
    final value is under the first divided by ``decay_factor``.  A
    ``T(s)`` that is not finite is refused, naming the first such scale.
    """
    if schedule is None:
        if S < 8:
            raise ValueError("need S >= 8 for the default schedule")
        schedule = tuple(_doublings(4, S))
    values = []
    for s in schedule:
        if s < 2:
            raise ValueError("anti-diagonal scales must be >= 2")
        j = np.arange(1, s, dtype=np.int64)
        k = s - j
        weights = j.astype(np.float64) * k.astype(np.float64)
        values.append(float(np.max(weights * np.abs(np.asarray(c.eval(j, k))))))
        _require_finite(values[-1], lambda _: f"anti-diagonal maximum T({s})")
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


def beta_star(a: SingleSequence, n: int, lam: int = 2) -> float:
    """Window-average majorant ``(1/n) sum_{k=floor(n/lam)}^{ceil(lam n)} |a_k|``."""
    lo, hi = averaging_window(n, lam)
    return single_window_sum(a, lo, hi) / n


def check_single_membership(a: SingleSequence, klass: SingleClass, grid,
                            lam: int = 2, r: int = 1, horizon: int = 4096,
                            b: str = "l", beta: str | None = None) -> SingleMembershipReport:
    """Fit the class constant of a single sequence over a grid of n.

    Classes: ``MVBVS`` compares ``sum_{k=n}^{2n} |d1 a_k|`` against the
    window average; ``SBVS`` compares ``sum_{k=n}^{2n-1} |d1 a_k|``
    against ``(1/n) sup_{M >= floor(n/lam)}`` of blocks; ``SBVS2`` scans
    the sup from ``b(n)``; ``GM`` uses step ``r`` differences against a
    user majorant ``beta`` ("star", the default, is the window average;
    else an expression in n).  The fit reads one line of ``a`` as the
    double fit reads a row line (see the module docstring).
    """
    if klass is not SingleClass.GM:
        r = 1
    check_step(r)
    if lam < 2 and klass in (SingleClass.MVBVS, SingleClass.SBVS):
        raise ValueError("MVBVS and SBVS need lambda >= 2")
    if lam < 1:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    grid = tuple(int(n) for n in grid)
    if not grid:
        raise ValueError("empty grid")
    if any(n < 1 for n in grid):
        raise ValueError("indices must be >= 1")
    beta_fn = None if beta is None or beta == "star" else compile_expression(beta, ("n",))[0]
    fb = compile_b(b)
    points = [n for n in grid if n >= lam or klass in (SingleClass.SBVS2, SingleClass.GM)]
    wide = int(klass is SingleClass.MVBVS)   # its left-hand sides run to 2n, not 2n - 1
    lhs_reach = max((2 * n - 1 + wide for n in points), default=0)
    # the majorant's family and the furthest index it reads; None: beta's values
    if klass in (SingleClass.SBVS, SingleClass.SBVS2):
        family, reach, reads = Family.THREE, 2 * horizon, []
        for n in points:   # each start refused in grid order, as a row's (_row_view)
            reads.append((n, max(1, n // lam) if klass is SingleClass.SBVS else fb(n)))
            _check_horizon(horizon, reads[-1][1])
    elif klass is SingleClass.MVBVS or beta_fn is None:
        family, reads = Family.ONE, [(n, None) for n in points]
        reach = max((averaging_window(n, lam)[1] for n in points), default=0)
    else:
        family, reach = None, 0
    line = _Line(np.asarray(a.eval(_span(1, max(reach, lhs_reach + r)))), 1)
    if family is Family.THREE:
        line.prepare(horizon, a.decay_hint)
    steps = _steps(line.vals, r, lhs_reach)
    majorants = ((Measurement(float(beta_fn(n=float(n))), 0.0) for n in points)
                 if family is None else _line_rhs(family, lam, line, reads))
    rows = [_ratio_row(n, 0, "single", lambda: float(ksum(steps[n - 1:2 * n - 1 + wide])),
                      lambda: next(majorants)) for n in points]
    _refuse_non_finite(rows)
    best = _worst(rows)
    return SingleMembershipReport(
        klass=klass, r=r, grid=grid, fitted_C=None if best is None else best.ratio,
        worst_witness=None if best is None else {
            "n": best.m, "lhs": best.lhs, "rhs": best.rhs, "ratio": best.ratio},
        truncation_flags=any(row.truncated for row in rows), rows=tuple(rows))
