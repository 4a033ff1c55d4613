import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesine import (
    Axis,
    DoubleScanTable,
    ExpressionError,
    Family,
    HorizonError,
    MajorantFamily,
    averaging_window,
    block_sum_col,
    block_sum_double,
    block_sum_row,
    builtin,
    double_sup_scan,
    from_expression,
    from_table,
    rhs,
    scale,
    single_block_sum,
    single_from_values,
    single_sup_scan,
    single_window_sum,
)
from doublesine.majorants import _bounded_max_scan

TWIN_EXPR = "(2+alternating(j))/j^2*(2+alternating(k))/k^2"


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
    def test_argmax_at_start_for_nonincreasing(self):
        vals = 1.0 / np.arange(1.0, 400.0) ** 2
        a = single_from_values("a", vals)
        mv = single_sup_scan(a, 3, 128)
        blocks = [float(np.sum(vals[M - 1:2 * M])) for M in range(3, 129)]
        assert mv.value == pytest.approx(max(blocks), rel=1e-12)
        assert mv.argmax == (3,)

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
        M, N = mv.argmax
        assert M + N >= 6
        assert block_sum_double(osc, M, N) == pytest.approx(mv.value, rel=1e-12)


class TestFamilyConfig:
    def test_lambda_domains(self):
        MajorantFamily(Family.THREE, Axis.ROW, lam=1)
        with pytest.raises(ValueError):
            MajorantFamily(Family.ONE, Axis.ROW, lam=1)
        with pytest.raises(ValueError):
            MajorantFamily(Family.TWO, Axis.ROW, lam=1)

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
        assert mv.argmax == (4,)
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
    "twin": from_expression("twin", TWIN_EXPR),
    "nonsep": from_expression("nonsep", "1/(j*k*(j+k))"),
    "constant": from_expression("constant", "1"),
}


def per_block_max(c, fixed, M_lo, M_hi, transpose):
    """The scan as one exactly rounded sum per block: max and first argmax."""
    sums = []
    for M in range(M_lo, M_hi + 1):
        idx = np.arange(M, 2 * M + 1, dtype=np.int64)
        vals = c.eval(fixed, idx) if transpose else c.eval(idx, fixed)
        sums.append(math.fsum(np.abs(vals)))
    arr = np.asarray(sums)
    i = int(np.argmax(arr))
    return float(arr[i]), M_lo + i


def assert_same_scan(got, want):
    (gv, ga), (wv, wa) = got, want
    assert ga == wa
    assert gv == wv or (math.isnan(gv) and math.isnan(wv))


class TestBoundedWindowScan:
    @given(st.sampled_from(sorted(SCAN_SEQUENCES)), st.integers(1, 40),
           st.integers(1, 200), st.sampled_from((2, 3, 4)), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_block_loop(self, name, fixed, start, lam, transpose):
        c = SCAN_SEQUENCES[name]
        assert_same_scan(_bounded_max_scan(c, fixed, start, lam * start, transpose),
                         per_block_max(c, fixed, start, lam * start, transpose))

    @given(st.lists(st.sampled_from((0.1, 0.2, 0.3, 0.7)), min_size=40, max_size=240),
           st.integers(1, 30), st.sampled_from((2, 3, 4)), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_near_ties_resolve_like_per_block_loop(self, values, start, lam, transpose):
        # few distinct values: many blocks have equal or nearly equal sums
        # whose cumsum estimates round differently
        table = np.asarray(values)[:, None]
        c = from_table("ties", table.T if transpose else table)
        assert_same_scan(_bounded_max_scan(c, 1, start, lam * start, transpose),
                         per_block_max(c, 1, start, lam * start, transpose))

    @given(st.integers(1, 60), st.integers(0, 500), st.sampled_from((math.inf, math.nan)),
           st.sampled_from((2, 3, 4)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_window_matches_per_block_loop(self, start, pos, bad, lam, transpose):
        rng = np.random.default_rng(pos)
        table = rng.uniform(-1.0, 1.0, (2 * lam * start + 2, 1))
        table[pos % len(table), 0] = bad
        c = from_table("bad", table.T if transpose else table)
        assert_same_scan(_bounded_max_scan(c, 1, start, lam * start, transpose),
                         per_block_max(c, 1, start, lam * start, transpose))

    def test_zero_window_ties_at_start(self, zero_seq):
        assert _bounded_max_scan(zero_seq, 3, 5, 10) == (0.0, 5)

    def test_rhs_scales_the_scan(self, mod3):
        fam = MajorantFamily(Family.TWO, Axis.COLUMN, lam=3, b2="2*l")
        mv = rhs(mod3, fam, 5, 7)
        sup, arg = per_block_max(mod3, 5, 14, 42, transpose=True)
        assert mv.value == sup / 7 and mv.argmax == (arg,)


# --- the double scan table ----------------------------------------------------

def dense_masked_scan(c, threshold, horizon):
    """The dense double scan as one masked argmax over the whole block matrix."""
    j = np.arange(1, 2 * horizon + 1, dtype=np.int64)
    grid = np.abs(np.asarray(c.eval(j[:, None], j[None, :]), dtype=np.float64))
    pref = np.zeros((len(j) + 1, len(j) + 1))
    np.cumsum(grid, axis=0, out=pref[1:, 1:])
    np.cumsum(pref[1:, 1:], axis=1, out=pref[1:, 1:])
    Ms = np.arange(1, horizon + 1, dtype=np.int64)
    blocks = (pref[2 * Ms, :][:, 2 * Ms] - pref[Ms - 1, :][:, 2 * Ms]
              - pref[2 * Ms, :][:, Ms - 1] + pref[Ms - 1, :][:, Ms - 1])
    blocks = np.where((Ms[:, None] + Ms[None, :]) >= threshold, blocks, -np.inf)
    mi, ni = divmod(int(np.argmax(blocks)), horizon)
    return float(blocks[mi, ni]), (mi + 1, ni + 1)


class TestDoubleScanTable:
    @pytest.mark.parametrize("expr", [TWIN_EXPR, "1/(j*k*(j+k))", "1", "mod(j*k, 3)"])
    def test_dense_queries_match_masked_argmax(self, expr):
        c = from_expression("c", expr)
        horizon = 12
        table = DoubleScanTable(c, horizon)
        for threshold in range(1, 2 * horizon + 1):
            mv = table.query(threshold)
            assert (mv.value, mv.argmax) == dense_masked_scan(c, threshold, horizon)
            assert mv == double_sup_scan(c, threshold, horizon)

    def test_separable_queries_match_one_shot_scans(self, osc):
        table = DoubleScanTable(osc, 40)
        for threshold in range(1, 81):
            assert table.query(threshold) == double_sup_scan(osc, threshold, 40)

    def test_threshold_beyond_horizon_raises_before_building(self):
        c = from_expression("c", "1/(j*k)")
        # the dense table at this horizon would trip the size guard
        with pytest.raises(HorizonError):
            DoubleScanTable(c, 4096).query(8193)
        with pytest.raises(ValueError, match="needs 537001992 bytes.*cap of 160000000 bytes"):
            DoubleScanTable(c, 4096).query(8)

    def test_rhs_rejects_a_foreign_table(self, osc, pp22):
        fam = MajorantFamily(Family.THREE, Axis.DOUBLE, sup_horizon=64)
        with pytest.raises(ValueError, match="another sequence"):
            rhs(osc, fam, 4, 4, table=DoubleScanTable(pp22, 64))
        with pytest.raises(ValueError, match="sup_horizon"):
            rhs(osc, fam, 4, 4, table=DoubleScanTable(osc, 32))
