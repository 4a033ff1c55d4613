"""Metamorphic relations of the class-constant fit and the convergence
diagnostics.

A relation maps one run to another whose result is known exactly, with
no oracle for either: the transpose exchanges the row and column axes,
and a power-of-two scale multiplies every left-hand side and majorant
alike.  Both hold bit for bit for the fit, the lemma 1 and lemma 2
quantities and condition (22), so they guard how each wires rows and
columns to their lines (a column axis that read row lines would break the
transpose).  The probe and the rectangle sums transpose within stated
bounds where their order of summation changes with the orientation.
"""

import math
from dataclasses import replace

import pytest

from doublesine import (
    Axis,
    Family,
    MajorantFamily,
    ProbeConfig,
    Rect,
    builtin,
    check_condition_22,
    check_membership,
    from_expression,
    interior_grid,
    lemma1_quantity,
    lemma2_quantities,
    rect_sum_direct,
    rect_sum_parts,
    scale,
    uniform_tail_probe,
)

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


# --- the convergence diagnostics ---------------------------------------------

LEMMA_POINTS = [(2, 3), (4, 4), (5, 8)]


def quartered(measurement):
    """``measurement`` with its value and tail bound scaled by exactly 1/4."""
    tail = measurement.tail_bound
    return replace(measurement, value=0.25 * measurement.value,
                   tail_bound=None if tail is None else 0.25 * tail)


@pytest.mark.parametrize("name", SEQUENCES)
def test_lemma1_transposes_and_scales(name):
    c = SEQUENCES[name]
    for m, n in LEMMA_POINTS:
        q = lemma1_quantity(c, m, n, 256)
        assert lemma1_quantity(c.T, n, m, 256) == q
        assert lemma1_quantity(scale(c, 0.25), m, n, 256) == quartered(q)


@pytest.mark.parametrize("name", SEQUENCES)
def test_lemma2_transpose_swaps_the_pair(name):
    c = SEQUENCES[name]
    for m, n in LEMMA_POINTS:
        first, second = lemma2_quantities(c, m, n, sup_horizon=128, sum_horizon=256)
        assert lemma2_quantities(c.T, n, m, sup_horizon=128, sum_horizon=256) == (second, first)
        assert lemma2_quantities(scale(c, 0.25), m, n, sup_horizon=128, sum_horizon=256) == (
            quartered(first), quartered(second))


@pytest.mark.parametrize("name", SEQUENCES)
def test_condition_22_transposes_and_scales(name):
    c = SEQUENCES[name]
    report = check_condition_22(c, S=256)
    assert check_condition_22(c.T, S=256) == report
    quarter = check_condition_22(scale(c, 0.25), S=256)
    assert quarter.values == tuple(0.25 * v for v in report.values)
    assert quarter.verdict is report.verdict


# The dense probe takes its lattice sums as matrix products, whose order of
# summation follows the orientation: transposing the asymmetric dense
# sequence moved its values by at most 7.04e-13 relative.  Every other
# sequence here is separable or symmetric, and transposes bit for bit.
PROBE_TRANSPOSE_RTOL = {"(2+mod(j+2*k,3))/(j^2*k^3)": 7.1e-13}


@pytest.mark.parametrize("name", SEQUENCES)
def test_probe_transposes_and_scales(name):
    c = SEQUENCES[name]
    grid = interior_grid(3)
    probe = ProbeConfig(xy_grid=grid, thresholds=(8, 16, 32), rect_cap=64)
    report = uniform_tail_probe(c, probe)
    quarter = uniform_tail_probe(scale(c, 0.25), probe)
    assert quarter.values == tuple(0.25 * v for v in report.values)
    assert (quarter.verdict, quarter.bounded) == (report.verdict, report.bounded)
    twin = uniform_tail_probe(c.T, replace(probe, xy_grid=tuple((y, x) for x, y in grid)))
    assert (twin.verdict, twin.bounded) == (report.verdict, report.bounded)
    rtol = PROBE_TRANSPOSE_RTOL.get(name, 0.0)
    for got, want in zip(twin.values, report.values):
        assert abs(got - want) <= rtol * want


@pytest.mark.parametrize("name", SEQUENCES)
@pytest.mark.parametrize("method", [rect_sum_direct, rect_sum_parts])
def test_rectangle_sum_transposes_within_two_ulps(name, method):
    # measured: at most one ulp apart, from the other order of the row sums
    c = SEQUENCES[name]
    want = method(c, Rect(2, 40, 3, 25), 0.7, 1.9)
    got = method(c.T, Rect(3, 25, 2, 40), 1.9, 0.7)
    assert abs(got - want) <= 2 * math.ulp(abs(want))
