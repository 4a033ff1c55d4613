import dataclasses
import hashlib
import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesine import (
    Axis,
    CoefficientSequence,
    DoubleScanTable,
    ExpressionError,
    Family,
    HorizonError,
    MajorantFamily,
    PowerDecay2D,
    averaging_window,
    block_sum_col,
    block_sum_double,
    block_sum_row,
    builtin,
    compile_b,
    double_sup_scan,
    from_expression,
    delta_rr,
    from_table,
    ksum,
    rhs,
    scale,
    separable,
    single_block_sum,
    single_from_values,
    single_sup_scan,
    single_window_sum,
)
from doublesine import majorants
from doublesine.convergence import eta_search, lemma2_quantities
from doublesine.majorants import (
    Measurement,
    _Line,
    _block_array,
    _line_rhs,
    _rect_abs_sum,
    _row_lines,
    _row_view,
    _scaled,
    _sup_measurement,
    _sup_scan,
)
from doublesine.membership import check_condition_22

from conftest import TWIN_EXPR, dense_twin, reader_line


def row_line(src, fixed, reach, fam):
    """The one line ``src_{j,fixed}``, j = 1..reach, as the table reader
    gives it: a table of one row."""
    return next(_row_lines(src, [(fixed, reach)], fam))


_RNG = np.random.default_rng(11)
# one exactly rounded sum of the rectangle, so equal bit for bit
RECT_DENSE = {
    "real table": from_table("real", _RNG.normal(size=(48, 48))),
    "complex table": from_table("complex", _RNG.normal(size=(48, 48))
                                + 1j * _RNG.normal(size=(48, 48))),
    "1/(j*k*(j+k))": from_expression("dense", "1/(j*k*(j+k))"),
}
# a product of two rounded factor sums: equal to within rounding
RECT_SEPARABLE = {
    "oscillating_quadratic": builtin("oscillating_quadratic"),
    "mod3_log_product": builtin("mod3_log_product"),
    "product_power(2,1.5)": builtin("product_power", p=2.0, q=1.5),
    "scaled": scale(builtin("oscillating_quadratic"), -2.5),
}
RECTS = st.tuples(st.integers(0, 3), st.integers(1, 60), st.integers(0, 40),
                  st.integers(1, 60), st.integers(0, 40))


def brute_rect_abs_sum(c, r, jlo, jhi, klo, khi):
    """``ksum`` of ``|delta_rr c|`` (or ``|c|`` at r = 0) over the whole rectangle."""
    j = np.arange(jlo, jhi + 1)[:, None]
    k = np.arange(klo, khi + 1)[None, :]
    return float(ksum(np.abs(c.eval(j, k) if r == 0 else delta_rr(c, r, j, k))))


class TestRectAbsSum:
    """The one reducer of rectangle sums of ``|delta_rr c|`` and ``|c|``
    against the brute-force sum of its terms."""

    @given(st.sampled_from(sorted(RECT_DENSE)), RECTS)
    @settings(max_examples=200, deadline=None)
    def test_dense_is_the_brute_force_sum(self, name, rect):
        r, jlo, dj, klo, dk = rect
        c = RECT_DENSE[name]
        assert _rect_abs_sum(c, r, jlo, jlo + dj, klo, klo + dk) == \
            brute_rect_abs_sum(c, r, jlo, jlo + dj, klo, klo + dk)

    @given(st.sampled_from(sorted(RECT_SEPARABLE)), RECTS)
    @settings(max_examples=200, deadline=None)
    def test_separable_is_the_product_of_factor_sums(self, name, rect):
        r, jlo, dj, klo, dk = rect
        c = RECT_SEPARABLE[name]
        memo = {}
        got = _rect_abs_sum(c, r, jlo, jlo + dj, klo, klo + dk, memo)
        assert got == pytest.approx(brute_rect_abs_sum(c, r, jlo, jlo + dj, klo, klo + dk),
                                    rel=1e-12, abs=0.0)
        assert set(memo) == {(0, jlo, jlo + dj), (1, klo, klo + dk)}
        a, b = c.separable_parts
        if r == 0:
            assert memo[0, jlo, jlo + dj] == single_window_sum(a, jlo, jlo + dj)
        assert _rect_abs_sum(c, r, jlo, jlo + dj, klo, klo + dk, memo) == got

    def test_table_rect_abs_sum_reads_the_reducer_at_step_zero(self, osc):
        table = DoubleScanTable(osc, 16)
        assert table.rect_abs_sum(0, 2, 9, 3, 5) == _rect_abs_sum(osc, 0, 2, 9, 3, 5)
        assert set(table._factor_sums[0]) == {(0, 2, 9), (1, 3, 5)}


class TestWindows:
    def test_averaging_window(self):
        assert averaging_window(4, 2) == (2, 8)
        assert averaging_window(1, 2) == (1, 2)
        assert averaging_window(3, 2) == (1, 6)  # floor below, exact above
        assert averaging_window(5, 3) == (1, 15)

    def test_single_window_sum(self):
        a = single_from_values("a", np.array([1.0, -2.0, 3.0]))
        assert single_window_sum(a, 1, 3) == 6.0
        assert single_window_sum(a, 2, 5) == 5.0  # zeros outside the table


class TestBlockSums:
    def test_row_block_frozen_value(self, osc):
        # j in {2, 3, 4} at column 1: 3/4 + 1/9 + 3/16
        assert block_sum_row(osc, 2, 1) == pytest.approx(1.0486111111111112, rel=1e-15)

    def test_block_has_m_plus_one_terms(self, pp11):
        # c_{j1} = 1/j: block at M=3 is 1/3 + 1/4 + 1/5 + 1/6
        assert block_sum_row(pp11, 3, 1) == pytest.approx(1 / 3 + 1 / 4 + 1 / 5 + 1 / 6,
                                                          rel=1e-15)

    def test_col_matches_row_by_symmetry(self, osc):
        assert block_sum_col(osc, 1, 2) == pytest.approx(block_sum_row(osc, 2, 1),
                                                         rel=1e-15)

    def test_double_factorizes_for_separable(self, osc):
        a, b = osc.separable_parts
        expected = single_block_sum(a, 3) * single_block_sum(b, 5)
        assert block_sum_double(osc, 3, 5) == pytest.approx(expected, rel=1e-12)


class TestSupScans:
    def test_sup_for_nonincreasing(self):
        vals = 1.0 / np.arange(1.0, 400.0) ** 2
        a = single_from_values("a", vals)
        mv = single_sup_scan(a, 3, 128)
        blocks = [float(np.sum(vals[M - 1:2 * M])) for M in range(3, 129)]
        assert mv.value == pytest.approx(max(blocks), rel=1e-12)

    def test_horizon_below_start_raises(self, osc):
        a, _ = osc.separable_parts
        with pytest.raises(HorizonError, match="horizon.*below scan start"):
            single_sup_scan(a, 10, 9)

    def test_horizon_monotonicity(self, osc):
        a, _ = osc.separable_parts
        v1 = single_sup_scan(a, 1, 64).value
        v2 = single_sup_scan(a, 1, 4096).value
        assert v2 >= v1

    def test_tail_bound_certifies_table_free_scan(self, osc):
        a, _ = osc.separable_parts
        mv = single_sup_scan(a, 1, 256)
        assert not mv.truncated
        assert mv.tail_bound is not None and mv.tail_bound >= 0.0

    def test_table_sequence_scan_is_truncated(self):
        a = single_from_values("a", np.ones(8))
        mv = single_sup_scan(a, 1, 16)
        assert mv.truncated and mv.tail_bound is None

    def test_double_sup_threshold_beyond_horizon(self, osc):
        with pytest.raises(HorizonError):
            double_sup_scan(osc, 100, 16)

    def test_double_sup_matches_brute_force(self, osc):
        mv = double_sup_scan(osc, 6, 32)
        brute = max(block_sum_double(osc, M, N)
                    for M in range(1, 33) for N in range(1, 33) if M + N >= 6)
        assert mv.value == pytest.approx(brute, rel=1e-12)


# sups a scan may return: any float, NaN, infinities and subnormals included
SUPS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e-310, -5e-324, math.inf,
                                               -math.inf, math.nan]))


class TestSupRule:
    """``_sup_measurement`` writes the sup rule once: the truth is at most
    ``max(sup, tail)``, truncated exactly when ``tail is None or tail > sup``."""

    @staticmethod
    def tails(sup):
        """No hint, a tie, a neighbour on either side, or any float."""
        return st.one_of(st.none(), st.just(sup), st.just(math.nextafter(sup, math.inf)),
                         st.just(math.nextafter(sup, -math.inf)), SUPS)

    @given(SUPS, st.data(), st.integers(1, 1 << 40))
    @settings(max_examples=500, deadline=None)
    def test_truncated_is_the_sup_rule(self, sup, data, scale):
        tail = data.draw(self.tails(sup))
        got = _sup_measurement(sup, tail)
        assert got.truncated == (tail is None or tail > sup)
        assert got.bounded == (tail is not None)
        # dividing by the scale keeps it, unless a positive excess underflows to 0
        scaled = _scaled(got, scale)
        flips = got.tail_bound is not None and got.tail_bound > 0.0 \
            and got.tail_bound / scale == 0.0
        assert scaled.truncated == (got.truncated and not flips)

    def test_an_underflowing_excess_reads_as_exact(self):
        # the excess 2^-1074 halves to 0: the one way scaling flips the rule
        tiny = _sup_measurement(0.0, 5e-324)
        assert tiny.truncated and not _scaled(tiny, 2).truncated


class TestFamilyConfig:
    def test_lambda_domains(self):
        MajorantFamily(Family.THREE, Axis.ROW, lam=1)
        with pytest.raises(ValueError):
            MajorantFamily(Family.ONE, Axis.ROW, lam=1)
        with pytest.raises(ValueError):
            MajorantFamily(Family.TWO, Axis.ROW, lam=1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(lam=0), "lambda must be >= 1, got 0"),
        (dict(sup_horizon=0), "sup_horizon must be >= 1"),
    ])
    def test_bad_family_three_setting_is_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MajorantFamily(Family.THREE, Axis.ROW, **kwargs)

    def test_b_must_be_finite(self):
        with pytest.raises(ValueError, match=r"^b-sequence 'l\*1e308\*10' not finite at l=4$"):
            compile_b("l*1e308*10")(4)

    def test_b_must_be_real(self):
        message = "b-sequence '(-1)^(0.5+l-l)' not real at l=3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compile_b("(-1)^(0.5+l-l)")(3)

    def test_rhs_refuses_indices_below_one(self, osc):
        with pytest.raises(ValueError, match=r"^indices must be >= 1$"):
            rhs(osc, MajorantFamily(Family.THREE, Axis.ROW), 0, 1)

    def test_bad_b_expression_rejected_early(self):
        with pytest.raises(ExpressionError):
            MajorantFamily(Family.THREE, Axis.ROW, b1="l + nonsense")

    def test_b_must_stay_positive(self, osc):
        fam = MajorantFamily(Family.THREE, Axis.ROW, b1="l - 5")
        with pytest.raises(ValueError):
            rhs(osc, fam, 2, 1)


class TestRhs:
    def test_family_three_row_frozen_value(self, pp22):
        fam = MajorantFamily(Family.THREE, Axis.ROW, lam=2, b1="l")
        mv = rhs(pp22, fam, 4, 1)
        assert mv.value == pytest.approx(0.04157773526077097, rel=1e-12)
        assert not mv.truncated

    def test_family_one_row_is_window_average(self, osc):
        fam = MajorantFamily(Family.ONE, Axis.ROW, lam=2)
        a, b = osc.separable_parts
        m, n = 4, 3
        lo, hi = averaging_window(m, 2)
        expected = single_window_sum(a, lo, hi) * abs(float(b.eval(n))) / m
        assert rhs(osc, fam, m, n).value == pytest.approx(expected, rel=1e-12)

    def test_family_one_double_scales_by_mn(self, osc):
        fam = MajorantFamily(Family.ONE, Axis.DOUBLE, lam=2)
        a, b = osc.separable_parts
        m, n = 4, 6
        jlo, jhi = averaging_window(m, 2)
        klo, khi = averaging_window(n, 2)
        expected = (single_window_sum(a, jlo, jhi)
                    * single_window_sum(b, klo, khi)) / (m * n)
        assert rhs(osc, fam, m, n).value == pytest.approx(expected, rel=1e-12)

    def test_family_two_equals_three_when_blocks_decrease(self, pp22):
        # with nonincreasing coefficients the sup sits at the window start,
        # so the bounded window of family Two sees the same maximum
        two = MajorantFamily(Family.TWO, Axis.ROW, lam=2, b1="l")
        three = MajorantFamily(Family.THREE, Axis.ROW, lam=2, b1="l")
        for m in (2, 4, 8):
            assert rhs(pp22, two, m, 1).value == pytest.approx(
                rhs(pp22, three, m, 1).value, rel=1e-12)

    def test_row_and_column_symmetry(self, osc):
        row = MajorantFamily(Family.THREE, Axis.ROW, lam=2)
        col = MajorantFamily(Family.THREE, Axis.COLUMN, lam=2)
        assert rhs(osc, row, 4, 3).value == pytest.approx(rhs(osc, col, 3, 4).value,
                                                          rel=1e-12)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_linearity(self, t):
        base = builtin("oscillating_quadratic")
        fam = MajorantFamily(Family.THREE, Axis.ROW, lam=2, sup_horizon=1024)
        v1 = rhs(base, fam, 4, 2).value
        v2 = rhs(scale(base, t), fam, 4, 2).value
        assert v2 == pytest.approx(t * v1, rel=1e-12)

    def test_family_two_double_uses_threshold_sup(self, osc):
        fam = MajorantFamily(Family.TWO, Axis.DOUBLE, lam=2, b3="l")
        m, n = 4, 4
        mv = rhs(osc, fam, m, n)
        scan = double_sup_scan(osc, 8, fam.sup_horizon)
        assert mv.value == pytest.approx(scan.value / (m * n), rel=1e-12)

    def test_zero_sequence_majorant_is_zero(self, zero_seq):
        fam = MajorantFamily(Family.THREE, Axis.ROW, lam=2)
        mv = rhs(zero_seq, fam, 4, 2)
        assert mv.value == 0.0


# --- the family-TWO window scan against its per-block twin -------------------

SCAN_SEQUENCES = {
    "oscillating_quadratic": builtin("oscillating_quadratic"),
    "mod3_log_product": builtin("mod3_log_product"),
    "product_power": builtin("product_power", p=1.5, q=2.0),
    "zero": builtin("zero"),
    "twin": dense_twin(),
    "nonsep": from_expression("nonsep", "1/(j*k*(j+k))"),
    "constant": from_expression("constant", "1"),
}


def per_block_max(c, fixed, M_lo, M_hi, transpose):
    """The scan as one exactly rounded sum per block: its max."""
    sums = []
    for M in range(M_lo, M_hi + 1):
        idx = np.arange(M, 2 * M + 1, dtype=np.int64)
        vals = c.eval(fixed, idx) if transpose else c.eval(idx, fixed)
        sums.append(math.fsum(np.abs(vals)))
    return float(np.max(sums))


def window_scan(c, fixed, start, lam):
    """The family-TWO row majorant at m = 1 with scan start ``start``, read by
    ``_line_rhs`` from the line ``c_{j,fixed}``: the max over the window
    ``start..lam start``."""
    fam = MajorantFamily(Family.TWO, Axis.ROW, lam=lam)
    line = row_line(c, fixed, 2 * lam * start, fam)
    return next(_line_rhs(fam.family, lam, line, [(1, start)])).value


def assert_same_scan(got, want):
    assert got == want or (math.isnan(got) and math.isnan(want))


class TestBoundedWindowScan:
    @given(st.sampled_from(sorted(SCAN_SEQUENCES)), st.integers(1, 40),
           st.integers(1, 200), st.sampled_from((2, 3, 4)), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_block_loop(self, name, fixed, start, lam, transpose):
        c = SCAN_SEQUENCES[name]
        assert_same_scan(window_scan(c.T if transpose else c, fixed, start, lam),
                         per_block_max(c, fixed, start, lam * start, transpose))

    @given(st.lists(st.sampled_from((0.1, 0.2, 0.3, 0.7)), min_size=40, max_size=240),
           st.integers(1, 30), st.sampled_from((2, 3, 4)), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_near_ties_resolve_like_per_block_loop(self, values, start, lam, transpose):
        # few distinct values: many blocks have equal or nearly equal sums
        # whose cumsum estimates round differently
        table = np.asarray(values)[:, None]
        c = from_table("ties", table.T if transpose else table)
        assert_same_scan(window_scan(c.T if transpose else c, 1, start, lam),
                         per_block_max(c, 1, start, lam * start, transpose))

    @given(st.integers(1, 60), st.integers(0, 500), st.sampled_from((math.inf, math.nan)),
           st.sampled_from((2, 3, 4)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_window_matches_per_block_loop(self, start, pos, bad, lam, transpose):
        rng = np.random.default_rng(pos)
        table = rng.uniform(-1.0, 1.0, (2 * lam * start + 2, 1))
        table[pos % len(table), 0] = bad
        c = from_table("bad", table.T if transpose else table)
        assert_same_scan(window_scan(c.T if transpose else c, 1, start, lam),
                         per_block_max(c, 1, start, lam * start, transpose))

    def test_zero_window_ties(self, zero_seq):
        assert window_scan(zero_seq, 3, 5, 2) == 0.0

    def test_rhs_scales_the_scan(self, mod3):
        fam = MajorantFamily(Family.TWO, Axis.COLUMN, lam=3, b2="2*l")
        mv = rhs(mod3, fam, 5, 7)
        assert mv.value == per_block_max(mod3, 5, 14, 42, transpose=True) / 7


# --- the per-line reader against per-point oracles ---------------------------

def outcome(read):
    """The reprs of the measurements ``read()`` returns, or the name of the
    exception it raises (``math.fsum`` refuses a block that overflows)."""
    try:
        return [repr(mv) for mv in read()]
    except OverflowError as exc:
        return type(exc).__name__


def line_point_oracle(c, fam, m, start, transpose):
    """One point's majorant from per-point twins: ``math.fsum`` of the window
    (ONE), the per-block loop (TWO), a ``_sup_scan`` on a line of its own (THREE)."""
    if fam.family is Family.ONE:
        lo, hi = averaging_window(m, fam.lam)
        idx = np.arange(lo, hi + 1, dtype=np.int64)
        vals = c.eval(1, idx) if transpose else c.eval(idx, 1)
        return Measurement(math.fsum(np.abs(vals)) / m, 0.0)
    if fam.family is Family.TWO:
        return Measurement(per_block_max(c, 1, start, fam.lam * start, transpose) / m, 0.0)
    return _scaled(_sup_scan(scan_line(c, 1, fam.sup_horizon, transpose), start), m)


class TestLineReader:
    KINDS = ("random", "ties", "dominant head", "nan", "inf", "complex", "overflow")

    @given(st.sampled_from(list(Family)), st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
           st.lists(st.integers(1, 40), min_size=1, max_size=6), st.sampled_from((2, 3, 4)),
           st.sampled_from(("l", "2*l")), st.booleans())
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf blocks, overflow
    def test_matches_per_point_oracles(self, family, kind, seed, ms, lam, b, transpose):
        # several points on one line (the column axis reads a line of c.T),
        # each read like a fit reads it
        rng = np.random.default_rng(seed)
        values = reader_line(kind, int(rng.integers(1, 2 * lam * 2 * max(ms) + 20)), rng)
        c = line_table(values, transpose)
        fam = MajorantFamily(family, Axis.COLUMN if transpose else Axis.ROW, lam=lam,
                             b1=b, b2=b, sup_horizon=80)
        views = [_row_view(c, fam, *((1, m) if transpose else (m, 1))) for m in ms]
        line = row_line(views[0][0], 1, max(view[4] for view in views), fam)
        assert outcome(lambda: _line_rhs(family, lam, line,
                                         [(i, start) for _, i, _, start, _ in views])) \
            == outcome(lambda: [line_point_oracle(c, fam, i, start, transpose)
                                for _, i, _, start, _ in views])

    @pytest.mark.parametrize("head, starts", [(0.7, (3,)), (0.7, (1, 3)), (0.7, (3, 2)),
                                              (1e12, (1, 3))])
    def test_screen_tolerance_covers_rounding(self, head, starts):
        # from start 3 at lam 4 the largest estimate is not the largest exact
        # block: without the tolerance the screen would drop the block holding
        # the maximum, also when several starts share one line and under a
        # head that dominates the line's total
        values = [head, 0.3, 0.7, 0.2, 0.2, 0.7, 0.0, 0.7, 0.1, 0.7, 0.3, 0.1, 0.1, 0.1, 0.2,
                  0.0, 0.3, 0.3, 0.3, 0.2, 0.3, 0.3, 0.2, 0.1]
        c = line_table(values, False)
        est = _block_array(np.asarray(values[2:]), 3, 3, 12)
        exact = [math.fsum(values[M - 1:2 * M]) for M in range(3, 13)]
        assert exact[int(np.argmax(est))] < max(exact)
        fam = MajorantFamily(Family.TWO, Axis.ROW, lam=4)
        got = _line_rhs(fam.family, 4, row_line(c, 1, 24, fam), [(1, s) for s in starts])
        assert [mv.value for mv in got] == [per_block_max(c, 1, start, 4 * start, False)
                                            for start in starts]

    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_dominant_head_keeps_few_blocks(self, p, monkeypatch):
        # on j^-p the line's total is its first terms, which would widen a
        # screen on the line's cumsum to whole windows at large starts; each
        # point's screen on its own window re-sums few blocks
        calls = []
        monkeypatch.setattr(majorants, "ksum", lambda v: calls.append(len(v)) or ksum(v))
        c = builtin("product_power", p=p, q=p)
        fam = MajorantFamily(Family.TWO, Axis.ROW, lam=2)
        starts = [1 << e for e in range(1, 13)]
        got = list(_line_rhs(fam.family, 2, row_line(c, 2, 4 * starts[-1], fam),
                             [(1, s) for s in starts]))
        assert len(calls) <= 2 * len(starts)
        assert [mv.value for mv in got] == [per_block_max(c, 2, s, 2 * s, False) for s in starts]


# --- the double scan table ----------------------------------------------------

def dense_masked_scan(c, threshold, horizon):
    """The dense double scan as one masked max over the whole block matrix."""
    j = np.arange(1, 2 * horizon + 1, dtype=np.int64)
    grid = np.abs(np.asarray(c.eval(j[:, None], j[None, :]), dtype=np.float64))
    pref = np.zeros((len(j) + 1, len(j) + 1))
    np.cumsum(grid, axis=0, out=pref[1:, 1:])
    np.cumsum(pref[1:, 1:], axis=1, out=pref[1:, 1:])
    Ms = np.arange(1, horizon + 1, dtype=np.int64)
    blocks = (pref[2 * Ms, :][:, 2 * Ms] - pref[Ms - 1, :][:, 2 * Ms]
              - pref[2 * Ms, :][:, Ms - 1] + pref[Ms - 1, :][:, Ms - 1])
    return float(np.max(blocks, where=(Ms[:, None] + Ms[None, :]) >= threshold,
                        initial=-np.inf))


def whole_table_sups(c, horizon, thresholds):
    """The dense sups as built before streaming: the whole ``(2H+1)^2``
    prefix table carried down row by row and summed along k, the H x H
    block matrix from four gathers, its row suffix maxima, and per threshold
    a max over the rows whose partners reach it."""
    side = 2 * horizon + 1
    j = np.arange(1, 2 * horizon + 1, dtype=np.int64)
    grid = np.abs(np.asarray(c.eval(j[:, None], j[None, :]))).astype(np.float64)
    pref = np.zeros((side, side))
    for i in range(1, side):
        np.add(pref[i - 1, 1:], grid[i - 1], out=pref[i, 1:])
    np.cumsum(pref[1:, 1:], axis=1, out=pref[1:, 1:])
    Ms = np.arange(1, horizon + 1, dtype=np.int64)
    lo, hi = Ms - 1, 2 * Ms
    blocks = pref[np.ix_(hi, hi)]
    blocks -= pref[np.ix_(lo, hi)]
    blocks -= pref[np.ix_(hi, lo)]
    blocks += pref[np.ix_(lo, lo)]
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1]
    sups = []
    for t in thresholds:
        first = t - Ms
        rows = suffix[Ms - 1, np.clip(first, 1, horizon) - 1]
        sups.append(float(np.max(np.where(first <= horizon, rows, -np.inf))))
    return sups


class TestDoubleScanTable:
    @pytest.mark.parametrize("expr", [TWIN_EXPR, "1/(j*k*(j+k))", "1", "mod(j*k, 3)"])
    def test_dense_queries_match_masked_max(self, expr):
        c = dense_twin() if expr == TWIN_EXPR else from_expression("c", expr)
        horizon = 12
        table = DoubleScanTable(c, horizon)
        for threshold in range(1, 2 * horizon + 1):
            mv = table.query(threshold)
            assert mv.value == dense_masked_scan(c, threshold, horizon)
            assert mv == double_sup_scan(c, threshold, horizon)

    # sha256 of the query reprs below, frozen on the build that held the whole
    # |c| grid and took two whole-table cumsums; the streamed build must give
    # the same bits for any number of streamed rows
    # (re-frozen when MajorantValue dropped its argmax field: the earlier reprs
    # with each ", argmax=(...)" removed hash to the value before this one; and
    # when Measurement replaced MajorantValue: each earlier
    # MajorantValue(v, t, b) written as Measurement(v, None if b is None else
    # max(b - v, 0.0)) hashes to this value, and every t was b is None or b > v)
    DENSE_FROZEN = "ae7973f2857abb52e082d7de521143c612d14a139944b2574a40b1a5f3098de5"

    @pytest.mark.parametrize("scan_rows", [1, 3, None])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf blocks
    def test_dense_queries_are_frozen(self, scan_rows, monkeypatch):
        if scan_rows is not None:
            monkeypatch.setattr(majorants, "_SCAN_ROWS", scan_rows)
        rng = np.random.default_rng(5)
        bad = rng.random((20, 20))
        bad[3, 5] = np.inf
        seqs = [from_expression("dense", "1/(j*k*(j+k))"), dense_twin(),
                from_expression("dense", "sign(j-k)*alternating(j*k)/(j+k)^2")]
        seqs += [from_table("complex", rng.normal(size=(30, 30))
                            + 1j * rng.normal(size=(30, 30))), from_table("inf", bad)]
        out = []
        for c in seqs:
            for H in (7, 64, 300):
                table = DoubleScanTable(c, H)
                out.extend(repr(table.query(t)) for t in sorted(
                    {2, 3, 5, H // 2, H, H + 1, H + 2, 3 * H // 2, 2 * H - 1, 2 * H}))
        assert len(out) == 145
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.DENSE_FROZEN

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 16]),
           st.booleans(), st.integers(0, 6))
    def test_streamed_sups_match_the_whole_table(self, horizon, seed, scan_rows, complex_,
                                                 specials):
        # negative, complex, NaN and infinite entries; zero past the table's edge
        rng = np.random.default_rng(seed)
        side = int(rng.integers(1, 2 * horizon + 3))
        t = rng.normal(size=(side, side)) * 10.0 ** rng.integers(-3, 4, size=(side, side))
        if complex_:
            t = t + 1j * rng.normal(size=(side, side))
        for value in rng.choice([np.nan, np.inf, -np.inf], size=specials):
            t[rng.integers(side), rng.integers(side)] = value
        c = from_table("t", t)
        saved = majorants._SCAN_ROWS
        majorants._SCAN_ROWS = scan_rows
        try:
            with np.errstate(invalid="ignore"):  # inf - inf blocks
                table = DoubleScanTable(c, horizon)
                got = [table.query(th).value for th in range(2 * horizon + 1)]
                want = whole_table_sups(c, horizon, range(2 * horizon + 1))
        finally:
            majorants._SCAN_ROWS = saved
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_dense_table_streams_a_bounded_working_set(self):
        # a whole 2049^2 prefix table alone would be 33.6 MB; the streamed
        # build holds a few block rows and keeps one running max of 2H + 1 floats
        c = from_expression("c", "1/(j*k*(j+k))")
        DoubleScanTable(c, 16).query(8)  # caches filled on first use stay out
        horizon = 1024
        tracemalloc.start()
        try:
            table = DoubleScanTable(c, horizon)
            table.query(8)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert peak <= majorants._scan_bytes(horizon, majorants._SCAN_ROWS)
        assert held < 2 * 8 * (2 * horizon + 1)

    def test_separable_queries_match_one_shot_scans(self, osc):
        table = DoubleScanTable(osc, 40)
        for threshold in range(1, 81):
            assert table.query(threshold) == double_sup_scan(osc, threshold, 40)

    @staticmethod
    def clip_formula(c, horizon, threshold):
        """The factored sup from every line N: ``fb[N]`` times the suffix max
        of ``fa`` from the smallest admissible M clipped to 1..horizon."""
        j = np.arange(1, 2 * horizon + 1, dtype=np.int64)
        fa, fb = (_block_array(np.abs(np.asarray(f.eval(j))).astype(np.float64), 1, 1, horizon)
                  for f in c.separable_parts)
        suffix = np.maximum.accumulate(fa[::-1])[::-1]
        lo = np.clip(threshold - np.arange(1, horizon + 1), 1, horizon)
        return float(np.max(fb * suffix[lo - 1]))

    @staticmethod
    def factor(special, length, rng):
        """Factor values, with zero, infinite or NaN blocks."""
        v = rng.normal(size=length) * 10.0 ** rng.integers(-3, 4, size=length)
        if special == "zero tail":
            v[rng.integers(length):] = 0.0
        elif special == "zero":
            v[:] = 0.0
        elif special in ("inf", "nan"):
            v[rng.integers(length)] = math.inf if special == "inf" else math.nan
        return v

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1),
           *2 * (st.sampled_from(("none", "zero tail", "zero", "inf", "nan")),))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, 0 * inf
    def test_factored_search_matches_the_clip_formula(self, horizon, seed, special_a,
                                                      special_b):
        # every threshold, past horizon + 1 included, where the clip admits
        # pairs below the threshold
        rng = np.random.default_rng(seed)
        a, b = (single_from_values(name, self.factor(special, 2 * horizon, rng))
                for name, special in (("a", special_a), ("b", special_b)))
        c = separable(a, b)
        table = DoubleScanTable(c, horizon)
        for threshold in range(1, 2 * horizon + 1):
            assert repr(table.query(threshold).value) == repr(
                self.clip_formula(c, horizon, threshold)), threshold

    @pytest.mark.parametrize("name", ["oscillating_quadratic", "mod3_log_product",
                                      "product_power"])
    def test_preset_searches_match_the_clip_formula(self, name):
        c = builtin(name) if name != "product_power" else builtin(name, p=1.5, q=2.0)
        horizon = 64
        table = DoubleScanTable(c, horizon)
        for threshold in range(2, 2 * horizon + 1):
            assert table.query(threshold).value == self.clip_formula(c, horizon, threshold)

    @pytest.mark.xfail(strict=True, reason=(
        "the factored query clips the smallest admissible M to the horizon, so past "
        "threshold horizon + 1 it admits pairs with M + N below the threshold; mending it "
        "changes the shipped membership-osc-r2 report and the frozen benchmark reference"))
    def test_factored_queries_past_the_horizon_match_the_dense_twin(self, osc):
        horizon = 16
        factored = DoubleScanTable(osc, horizon)
        dense = DoubleScanTable(dense_twin(), horizon)
        for threshold in range(horizon + 2, 2 * horizon + 1):
            assert factored.query(threshold).value == pytest.approx(
                dense.query(threshold).value, rel=1e-12, abs=0.0), threshold

    def test_threshold_beyond_horizon_raises_before_building(self):
        c = from_expression("c", "1/(j*k*(j+k))")
        # the dense table at this horizon would trip the size guard
        with pytest.raises(HorizonError):
            DoubleScanTable(c, 1 << 15).query(2 * (1 << 15) + 1)

    def test_working_set_guard_refuses_before_building(self):
        c = from_expression("c", "1/(j*k*(j+k))")
        with pytest.raises(ValueError, match=r"^dense double scan at sup_horizon 32768 needs "
                           r"162531760 bytes for its working set of 16 streamed block rows, "
                           r"over the cap of 160000000 bytes"):
            DoubleScanTable(c, 1 << 15).query(8)

    def test_rhs_rejects_a_foreign_table(self, osc, pp22):
        # refused on every axis, also rows and columns, which read no table
        for family, axis in [(Family.TWO, Axis.DOUBLE), *((Family.THREE, a) for a in Axis)]:
            fam = MajorantFamily(family, axis, sup_horizon=64)
            with pytest.raises(ValueError, match="another sequence"):
                rhs(osc, fam, 4, 4, table=DoubleScanTable(pp22, 64))
            with pytest.raises(ValueError, match="sup_horizon"):
                rhs(osc, fam, 4, 4, table=DoubleScanTable(osc, 32))


# --- the pruned family-THREE scan against the exhaustive scan ----------------

def block_tail(a, horizon):
    """The block bound past ``horizon`` of the hint of ``a``, if any."""
    return None if a.decay_hint is None else a.decay_hint.block_sup(horizon)


def exhaustive_scan(vals, start, horizon, tail):
    """Every block ``M = start..horizon`` from one cumsum of ``vals`` (the
    line from ``start`` to ``2 horizon``): max and the tail's excess over it."""
    sup = float(np.max(_block_array(vals, start, start, horizon)))
    return Measurement(sup, None if tail is None else max(tail - sup, 0.0))


def exhaustive_row_scan(c, fixed, start, horizon, transpose):
    """The exhaustive scan of the line at ``fixed``, evaluated from ``c``
    itself; only the tail bound is taken from the line view's hint."""
    idx = np.arange(start, 2 * horizon + 1, dtype=np.int64)
    vals = c.eval(fixed, idx) if transpose else c.eval(idx, fixed)
    return exhaustive_scan(np.abs(np.asarray(vals)).astype(np.float64), start, horizon,
                           block_tail((c.T if transpose else c).row(fixed), horizon))


def assert_same_sup(got, want):
    """``==`` on every field, with NaN equal to NaN."""
    assert repr(got) == repr(want)


def scan_line(c, fixed, horizon, transpose=False):
    """The line at ``fixed`` prepared for sup scans up to ``horizon``, as a
    family-THREE fit builds it."""
    return row_line(c.T if transpose else c, fixed, 2 * horizon,
                    MajorantFamily(Family.THREE, Axis.ROW, sup_horizon=horizon))


def line_table(values, transpose):
    """A table sequence whose line at fixed index 1 is ``values``."""
    table = np.asarray(values)[:, None]
    return from_table("line", table.T if transpose else table)


SUP_SEQUENCES = {
    **SCAN_SEQUENCES,
    "product_power(0.5,0.7)": builtin("product_power", p=0.5, q=0.7),
    "product_power(1.3,2.2)": builtin("product_power", p=1.3, q=2.2),
    "complex": from_table("complex", np.exp(1j * np.arange(1, 2501)).reshape(50, 50)
                          * (1.0 + np.arange(50))[:, None] ** -1.5),
    "hinted twin": CoefficientSequence(  # non-separable, with the lines' hints from K n^-q
        "hinted twin", from_expression("twin", TWIN_EXPR).eval,
        decay_hint=PowerDecay2D(p=2.0, q=2.0, K=9.0)),
}

SINGLE_SEQUENCES = {
    **{f"{name}[{i}]": c.separable_parts[i] for name, c in SUP_SEQUENCES.items()
       if c.separable_parts is not None for i in (0, 1)},
    "ones": single_from_values("ones", np.ones(700)),
    "complex": single_from_values("complex", np.exp(1j * np.arange(1, 701)) / np.arange(1, 701)),
    "inf": single_from_values("inf", np.r_[np.ones(20), math.inf, np.ones(20)]),
    "nan": single_from_values("nan", np.r_[np.ones(90), math.nan, np.ones(20)]),
}


class TestPrunedSupScan:
    @given(st.sampled_from(sorted(SUP_SEQUENCES)), st.integers(1, 40), st.integers(1, 300),
           st.data(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_scan(self, name, fixed, horizon, data, transpose):
        c = SUP_SEQUENCES[name]
        line = scan_line(c, fixed, horizon, transpose)
        starts = data.draw(st.lists(st.one_of(st.sampled_from((1, horizon)),
                                              st.integers(1, horizon)),
                                    min_size=1, max_size=4))
        for start in starts:  # later starts read the same line
            assert_same_sup(_sup_scan(line, start),
                            exhaustive_row_scan(c, fixed, start, horizon, transpose))

    @given(st.lists(st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.7)), min_size=2, max_size=120),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_near_ties_resolve_like_exhaustive_scan(self, values, transpose):
        # few distinct values: many blocks have equal or nearly equal sums
        # whose per-start and shared cumsum estimates round differently
        horizon = len(values) // 2
        c = line_table(values, transpose)
        line = scan_line(c, 1, horizon, transpose)
        for start in range(1, horizon + 1):
            assert_same_sup(_sup_scan(line, start),
                            exhaustive_row_scan(c, 1, start, horizon, transpose))

    def test_tolerance_covers_rounding(self):
        # from start 4 the exact blocks reach 4.299999999999999 at M = 15 and
        # 4.3 at M = 18, whose shared estimate 4.299999999999997 lies below
        # both: without the tolerance the scan would stop at M1 = 16
        values = [0.7, 0.2, 0.7, 0.0, 0.0, 0.0, 0.2, 0.7, 0.1, 0.3, 0.1, 0.3, 0.2, 0.2, 0.7,
                  0.2, 0.3, 0.1, 0.2, 0.1, 0.2, 0.3, 0.2, 0.7, 0.3, 0.0, 0.3, 0.3, 0.1, 0.3,
                  0.2, 0.2, 0.0, 0.0, 0.1, 0.7]
        c = line_table(values, False)
        line = scan_line(c, 1, 18)
        assert line.suffix[16] < 4.299999999999999 < 4.3
        assert _sup_scan(line, 4) == exhaustive_row_scan(c, 1, 4, 18, False)
        assert _sup_scan(line, 4).value == 4.3

    @given(st.integers(1, 120), st.integers(0, 10 ** 6), st.sampled_from((math.inf, math.nan)),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf blocks
    def test_non_finite_line_matches_exhaustive_scan(self, horizon, seed, bad, transpose):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, 2 * horizon)
        values[seed % len(values)] = bad
        c = line_table(values, transpose)
        line = scan_line(c, 1, horizon, transpose)
        assert line.suffix is None
        for start in {1, 1 + seed % horizon, horizon}:
            assert_same_sup(_sup_scan(line, start),
                            exhaustive_row_scan(c, 1, start, horizon, transpose))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_increasing_and_tied_blocks(self, transpose):
        one = from_expression("one", "1")
        line = scan_line(one, 3, 64, transpose)
        assert _sup_scan(line, 5) == Measurement(65.0, None)
        zero = builtin("zero")
        assert _sup_scan(scan_line(zero, 3, 64, transpose), 5) == Measurement(0.0, 0.0)

    def test_horizon_one(self, osc):
        assert_same_sup(_sup_scan(scan_line(osc, 2, 1), 1),
                        exhaustive_row_scan(osc, 2, 1, 1, False))
        with pytest.raises(HorizonError, match="horizon 1 below scan start 2"):
            _sup_scan(scan_line(osc, 2, 1), 2)

    @given(st.sampled_from(sorted(SINGLE_SEQUENCES)), st.integers(1, 300), st.data())
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf blocks
    def test_single_scan_matches_exhaustive_scan(self, name, horizon, data):
        a = SINGLE_SEQUENCES[name]
        start = data.draw(st.one_of(st.sampled_from((1, horizon)), st.integers(1, horizon)))
        k = np.arange(start, 2 * horizon + 1, dtype=np.int64)
        want = exhaustive_scan(np.abs(np.asarray(a.eval(k))).astype(np.float64), start,
                               horizon, block_tail(a, horizon))
        assert_same_sup(single_sup_scan(a, start, horizon), want)

    def test_pruning_reads_a_prefix(self, osc, monkeypatch):
        # decaying blocks: the sup at the start is certified within two rounds
        seen = []
        block_array = majorants._block_array
        monkeypatch.setattr(majorants, "_block_array",
                            lambda vals, lo, M_lo, M_hi: seen.append(M_hi - M_lo + 1)
                            or block_array(vals, lo, M_lo, M_hi))
        line = scan_line(osc, 2, 4096)
        seen.clear()
        assert _sup_scan(line, 8) == exhaustive_row_scan(osc, 2, 8, 4096, False)
        assert sum(seen) <= 64


def line_fields(line):
    """A line's values and prepared fields, bit for bit."""
    suffix = None if line.suffix is None else line.suffix.tobytes()
    return (line.lo, line.vals.dtype, line.vals.tobytes(), line.horizon, suffix,
            repr(line.tol), repr(line.tail))


def scalar_line(src, fixed, reach, fam):
    """The line ``src_{j,fixed}``, j = 1..reach, from one evaluation at a
    scalar fixed index, prepared as a fit prepares it."""
    line = _Line(np.asarray(src.eval(np.arange(1, reach + 1), fixed)), 1)
    if fam.family is Family.THREE:
        line.prepare(fam.sup_horizon, src.row(fixed).decay_hint)
    return line


class TestLineTables:
    """Lines read as the rows of one table are the lines read one at a time."""

    @given(st.sampled_from(sorted(SUP_SEQUENCES)), st.sampled_from(list(Family)),
           st.lists(st.tuples(st.integers(1, 60), st.sampled_from((8, 40, 96))), min_size=1,
                    max_size=8),
           st.sampled_from((1, 100, majorants._TABLE_CELLS)), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_one_line_reads(self, name, family, lines, cells, transpose):
        # repeated fixed indices, runs of equal reach, and tables cut by the cap
        c = SUP_SEQUENCES[name]
        src = c.T if transpose else c
        fam = MajorantFamily(family, Axis.ROW, sup_horizon=4)  # 2 sup_horizon <= every reach
        with patch.object(majorants, "_TABLE_CELLS", cells):
            got = [line_fields(line) for line in _row_lines(src, lines, fam)]
        assert got == [line_fields(scalar_line(src, n, reach, fam)) for n, reach in lines]

    def test_tables_group_runs_of_equal_reach_under_the_cap(self, osc):
        shapes = []
        c = dataclasses.replace(osc, eval=lambda j, k: shapes.append(
            np.broadcast_shapes(np.shape(j), np.shape(k))) or osc.eval(j, k))
        fam = MajorantFamily(Family.TWO, Axis.ROW)
        lines = [(n, 40) for n in range(1, 6)] + [(6, 8), (7, 40), (8, 40)]
        with patch.object(majorants, "_TABLE_CELLS", 100):  # two lines of 40
            assert len(list(_row_lines(c, lines, fam))) == len(lines)
        assert shapes == [(2, 40), (2, 40), (1, 40), (1, 8), (2, 40)]
        shapes.clear()
        with patch.object(majorants, "_TABLE_CELLS", 10):  # under one line: one line each
            assert len(list(_row_lines(c, lines[:2], fam))) == 2
        assert shapes == [(1, 40), (1, 40)]


class TestComplexMagnitudes:
    """``|c|`` is taken before any cast to float64, so ``1j * c`` scans like ``c``."""

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_imaginary_twin_matches_real(self, osc):
        def scans(t):
            c = scale(osc, t)
            return {
                "single_sup_scan": single_sup_scan(c.separable_parts[0], 1, 16),
                "dense double_sup_scan": double_sup_scan(
                    from_table("t", t * np.ones((8, 8))), 2, 4),
                "factored double_sup_scan": double_sup_scan(c, 3, 64),
                "lemma2_quantities": lemma2_quantities(c, 4, 8, sup_horizon=256,
                                                       sum_horizon=256),
                "eta_search": eta_search(c, epsilon=0.2, C=16.0),
                "check_condition_22": check_condition_22(c, S=64),
            }

        real, imag = scans(1), scans(1j)
        assert imag == real
        assert imag["dense double_sup_scan"].value == 25.0  # 5 x 5 block of |1j|
