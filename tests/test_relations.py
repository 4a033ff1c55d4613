"""Metamorphic relations of the class-constant fit.

A relation maps one fit to another whose result is known exactly, with
no oracle for either: the transpose exchanges the row and column axes,
and a power-of-two scale multiplies every left-hand side and majorant
alike.  Both hold bit for bit, so they guard how the fit wires rows and
columns to their lines (a column axis that read row lines would break the
transpose).
"""

import pytest

from doublesine import Axis, Family, MajorantFamily, builtin, check_membership, from_expression
from doublesine import scale

from conftest import TWIN_EXPR

SEQUENCES = {
    "oscillating_quadratic": builtin("oscillating_quadratic"),
    "mod3_log_product": builtin("mod3_log_product"),
    "1/(j*k*(j+k))": from_expression("nonsep", "1/(j*k*(j+k))"),
    "(2+mod(j+2*k,3))/(j^2*k^3)": from_expression("skew", "(2+mod(j+2*k,3))/(j^2*k^3)"),
    "factored twin": from_expression("twin", TWIN_EXPR),
}
CASES = [(name, family, r) for name in SEQUENCES for family in Family for r in (1, 2)]
GRID = [(m, n) for m in (2, 3, 4, 8, 16) for n in (2, 5, 8, 16)]


def fit(c, family, r, grid, b1="l", b2="2*l"):
    fam = MajorantFamily(family, Axis.ROW, lam=2, b1=b1, b2=b2, sup_horizon=256)
    return check_membership(c, r, fam, grid)


def axis_rows(report, axis, swap=False):
    """``(m, n) -> (lhs, rhs, ratio, truncated)`` of one axis, with m and n
    exchanged when ``swap``."""
    return {((row.n, row.m) if swap else (row.m, row.n)): (row.lhs, row.rhs, row.ratio,
                                                           row.truncated)
            for row in report.rows if row.axis == axis}


@pytest.mark.parametrize("name, family, r", CASES)
def test_transpose_swaps_rows_and_columns(name, family, r):
    c = SEQUENCES[name]
    report = fit(c, family, r, GRID)
    twin = fit(c.T, family, r, [(n, m) for m, n in GRID], b1="2*l", b2="l")
    assert (twin.fitted_C_row, twin.fitted_C_col, twin.fitted_C_double) == (
        report.fitted_C_col, report.fitted_C_row, report.fitted_C_double)
    assert axis_rows(twin, "row", swap=True) == axis_rows(report, "column")
    assert axis_rows(twin, "column", swap=True) == axis_rows(report, "row")
    assert twin.truncation_flags == report.truncation_flags


@pytest.mark.parametrize("name, family, r", CASES)
def test_quarter_scale_keeps_every_constant(name, family, r):
    c = SEQUENCES[name]
    report, quarter = fit(c, family, r, GRID), fit(scale(c, 0.25), family, r, GRID)
    assert (quarter.fitted_C_row, quarter.fitted_C_col, quarter.fitted_C_double) == (
        report.fitted_C_row, report.fitted_C_col, report.fitted_C_double)
    assert [row.truncated for row in quarter.rows] == [row.truncated for row in report.rows]
    assert quarter.truncation_flags == report.truncation_flags
