import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublesine import (
    Axis,
    CoefficientSequence,
    DoubleScanTable,
    Family,
    HorizonError,
    MajorantFamily,
    RatioRow,
    SingleClass,
    Verdict,
    beta_star,
    cap_verdict,
    check_condition_22,
    check_membership,
    check_single_membership,
    class_constant,
    builtin,
    double_sup_scan,
    from_expression,
    from_table,
    ksum,
    rhs,
    scale,
    single_from_values,
)
from doublesine import differences, majorants, membership
from doublesine.differences import _variation
from doublesine.majorants import Measurement, _scaled, compile_b, single_sup_scan
from doublesine.convergence import loglog_slope
from doublesine.membership import _growth_slope, lhs_col, lhs_double, lhs_row
from doublesine.sequences import compile_expression

from conftest import dense_twin, reader_line

DYADIC = tuple(2 ** t for t in range(1, 7))
PAIRS = tuple((m, n) for m in DYADIC for n in DYADIC)


def three_family(**kw):
    return MajorantFamily(Family.THREE, Axis.ROW, lam=2, **kw)


class TestBlockDifferenceSums:
    def test_row_frozen_value(self, osc):
        # j in {2, 3}: |a_2 - a_4| + |a_3 - a_5| at column 1
        expected = (3 / 4 - 3 / 16) + (1 / 9 - 1 / 25)
        assert lhs_row(osc, 2, 2, 1) == pytest.approx(expected, rel=1e-15)

    def test_col_by_symmetry(self, osc):
        assert lhs_col(osc, 2, 1, 2) == pytest.approx(lhs_row(osc, 2, 2, 1), rel=1e-15)

    def test_double_matches_brute_force(self, osc):
        m, n, r = 3, 2, 2
        brute = 0.0
        for j in range(m, 2 * m):
            for k in range(n, 2 * n):
                brute += abs(osc(j, k) - osc(j + r, k) - osc(j, k + r)
                             + osc(j + r, k + r))
        assert lhs_double(osc, r, m, n) == pytest.approx(brute, rel=1e-12)

    def test_double_on_table_sequence(self):
        rng = np.random.default_rng(3)
        c = from_table("t", rng.standard_normal((16, 16)))
        brute = 0.0
        m, n, r = 2, 3, 2
        for j in range(m, 2 * m):
            for k in range(n, 2 * n):
                brute += abs(float(c.eval(j, k)) - float(c.eval(j + r, k))
                             - float(c.eval(j, k + r)) + float(c.eval(j + r, k + r)))
        assert lhs_double(c, r, m, n) == pytest.approx(brute, rel=1e-12)


def axis_verdicts(report, cap):
    """Each axis's verdict against ``cap``, judged as the CLI judges its caps."""
    return {axis: cap_verdict([row for row in report.rows if row.axis == axis], cap)[0]
            for axis in ("row", "column", "double")}


def ratio_row(n, ratio, truncated=False):
    return RatioRow(m=n, n=0, axis="single", lhs=ratio, rhs=1.0, ratio=ratio,
                    truncated=truncated)


class TestCapVerdict:
    def test_fail_returns_the_first_certified_row_over_the_cap(self):
        rows = [ratio_row(1, 0.5), ratio_row(2, 3.0, truncated=True), ratio_row(3, 2.5),
                ratio_row(4, 2.8)]
        assert cap_verdict(rows, 2.0) == ("fail", rows[2])

    def test_only_truncated_rows_over_the_cap_are_inconclusive(self):
        rows = [ratio_row(1, 0.5), ratio_row(2, 3.0, truncated=True)]
        assert cap_verdict(rows, 2.0) == ("inconclusive", None)

    def test_no_rows_are_inconclusive(self):
        assert cap_verdict([], 2.0) == ("inconclusive", None)
        assert cap_verdict((), 2.0) == ("inconclusive", None)

    def test_pass_at_and_under_the_cap(self):
        # a truncated row under the cap does not undecide it
        rows = [ratio_row(1, 0.5, truncated=True), ratio_row(2, 2.0)]
        assert cap_verdict(rows, 2.0) == ("pass", None)

    def test_infinite_ratio_on_a_certified_row_fails(self):
        rows = [ratio_row(1, 0.5), ratio_row(2, math.inf)]
        assert cap_verdict(rows, 1e300) == ("fail", rows[1])


class TestClassConstant:
    def test_largest_family_two_fit(self, osc):
        grid = [(m, n) for m in (2, 4, 8) for n in (2, 4, 8)]
        report = check_membership(osc, 2, MajorantFamily(Family.TWO, Axis.ROW, sup_horizon=64),
                                  grid)
        fitted = (report.fitted_C_row, report.fitted_C_col, report.fitted_C_double)
        assert class_constant(osc, grid, sup_horizon=64) == max(fitted) > 0.0

    def test_infinite_fit_has_no_constant(self):
        # 5e-324 at (4, 4) alone: its majorants underflow to 0
        c = from_expression("spike", "5e-324*(1-sign(abs(j-4)))*(1-sign(abs(k-4)))")
        assert class_constant(c, [(2, 2), (4, 4), (8, 8)], sup_horizon=64) is None

    def test_no_admissible_point_has_no_constant(self, osc):
        assert class_constant(osc, [(1, 1)], sup_horizon=64) is None


class TestCheckMembership:
    def test_oscillating_step2_passes_known_constants(self, osc):
        report = check_membership(osc, 2, three_family(b1="l", b2="l", b3="l"), PAIRS)
        assert axis_verdicts(report, 4.0) == {"row": "pass", "column": "pass", "double": "pass"}
        assert report.fitted_C_row <= 4.0
        assert report.fitted_C_double <= 16.0
        assert not report.truncation_flags

    def test_oscillating_step1_fails_constant_four(self, osc):
        report = check_membership(osc, 1, three_family(), PAIRS)
        assert axis_verdicts(report, 4.0)["row"] == "fail"
        assert report.fitted_C_row > 4.0

    def test_grid_monotonicity(self, osc):
        small = tuple((m, n) for m in DYADIC[:3] for n in DYADIC[:3])
        rep_small = check_membership(osc, 1, three_family(), small)
        rep_big = check_membership(osc, 1, three_family(), PAIRS)
        assert rep_big.fitted_C_row >= rep_small.fitted_C_row

    def test_axis_domain_rules(self, osc):
        # grid below lambda on one side: that axis reports no points
        report = check_membership(osc, 2, three_family(), ((1, 4), (1, 8)))
        assert report.fitted_C_row is None  # m = 1 < lambda
        assert report.fitted_C_col is not None
        assert report.fitted_C_double is None

    def test_zero_over_zero_ratio_is_zero(self, zero_seq):
        report = check_membership(zero_seq, 2, three_family(), ((2, 2),))
        assert report.fitted_C_row == 0.0
        assert report.fitted_C_double == 0.0

    def test_nonzero_over_zero_ratio_is_inf(self):
        values = np.zeros((8, 8))
        values[0, 0] = 1.0  # c_11 nonzero, everything else zero
        c = from_table("spike", values)
        fam = MajorantFamily(Family.THREE, Axis.ROW, lam=1, b1="l*100",
                             sup_horizon=256)
        report = check_membership(c, 1, fam, ((1, 1),))
        row = [r for r in report.rows if r.axis == "row"][0]
        assert row.lhs > 0.0 and row.rhs == 0.0
        assert math.isinf(row.ratio)

    @pytest.mark.parametrize("point, at, value, b3, line", [
        ((2, 1), (2, 0), math.nan, "l", "row left-hand side at (m, n) = (2, 1) is nan"),
        ((2, 1), (40, 0), math.inf, "l", "row majorant at (m, n) = (2, 1) is inf"),
        ((1, 2), (0, 40), math.inf, "l", "column majorant at (m, n) = (1, 2) is inf"),
        ((2, 2), (2, 2), math.nan, "10*l", "double left-hand side at (m, n) = (2, 2) is nan"),
        ((2, 2), (40, 40), math.nan, "l", "double majorant at (m, n) = (2, 2) is nan"),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, nan in sums
    def test_non_finite_row_is_refused(self, point, at, value, b3, line):
        # the first row whose lhs or rhs is not finite names its axis and point,
        # also a majorant that reads past every left-hand side
        values = np.ones((70, 70))
        values[at] = value
        fam = MajorantFamily(Family.THREE, Axis.ROW, lam=1, b3=b3, sup_horizon=32)
        with pytest.raises(ValueError, match=re.escape(line) + ", not finite$"):
            check_membership(from_table("bad", values), 1, fam, (point,))

    def test_empty_grid_rejected(self, osc):
        with pytest.raises(ValueError):
            check_membership(osc, 2, three_family(), ())

    @pytest.mark.parametrize("bad", [(2, 0), (0, 2), (-3, 4)])
    def test_bad_indices_refused_before_any_evaluation(self, bad):
        def never(j, k):
            raise AssertionError("evaluated before the grid was checked")

        c = CoefficientSequence(name="never", eval=never)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^indices must be >= 1$"):
                check_membership(c, 1, three_family(), [(4, 4), bad])


# Family TWO, r = 2, dyadic:256, sup_horizon 512, frozen from the per-block
# window loop and the per-point double scan that preceded the one-pass scan
# and the shared double table: fitted constants (row, column, double) as
# float reprs, and the SHA-256 of repr(report.rows).
GOLDEN_TWO = {
    "oscillating_quadratic": (
        "2.9714104279187112", "2.9714104279187112", "2.168554105279747",
        "416b09d07db76ab73090a27395e88847e05b13674aa93e901e64058d48ce4fa8"),
    "mod3_log_product": (
        "204.04563939455443", "204.04563939455443", "1927.4395306579454",
        "42c6bd8043d29597bcbb4aa85049f11593a9ccf5a8add448610cb102fa322a62"),
    "product_power(1.5,2)": (
        "2.1890317514735402", "2.9718890925352754", "0.9075559408037165",
        "34959a7c926254556fe02015f3e519c30089d881006a0eac82b8385a410713e6"),
    "twin": (
        "2.9714104279187112", "2.9714104279187112", "2.168554105280029",
        "94d945204870906de2ef4babebcbdcf8f609079947486800f4ed8f7c85ca10cd"),
}


def golden_sequence(name):
    if name == "twin":
        return dense_twin()
    if name.startswith("product_power"):
        return builtin("product_power", p=1.5, q=2.0)
    return builtin(name)


class TestFamilyTwoGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TWO))
    def test_reports_are_unchanged(self, name):
        dyadic = [2 ** t for t in range(1, 9)]
        fam = MajorantFamily(Family.TWO, Axis.ROW, lam=2, sup_horizon=512)
        report = check_membership(golden_sequence(name), 2, fam,
                                  [(m, n) for m in dyadic for n in dyadic])
        got = (repr(report.fitted_C_row), repr(report.fitted_C_col),
               repr(report.fitted_C_double),
               hashlib.sha256(repr(report.rows).encode()).hexdigest())
        assert got == GOLDEN_TWO[name]
        assert len(report.rows) == 192


# Family THREE, r = 1, 2, 3, dyadic:128, sup_horizon 4096: SHA-256 of
# repr(report.rows), frozen from the exhaustive per-point row and column
# scans that preceded the shared, pruned lines.
GOLDEN_THREE = {
    ("oscillating_quadratic", 1): "fde03527d890635ced62db72568cfa3317c19d3a89b4bace183388c49c4d68e2",
    ("oscillating_quadratic", 2): "6618f2bedd8e56088f60c222e85639cef509a9e579b384806887a92449feffef",
    ("oscillating_quadratic", 3): "eb783fbf97c6c4df4735c152d81c9c9d13019dfa8390ec006b2a14099a48a883",
    ("mod3_log_product", 1): "c2b16f0a0af3cd4a5dd276dc61049d2412a16ee0ad38402098a1dd4aee4dd94d",
    ("mod3_log_product", 2): "84b38cc9774aa178df921f782049e89dfdf151b391fb5fb9ba4d38714bae9482",
    ("mod3_log_product", 3): "229b434dd18c99fa16c6b500ddcc43afe6a3eef4b223a057788c66cf060765f8",
    ("product_power(1.3,2.2)", 1): "e65742f1344a6e3b82a805f3eb77023769e6fb52a8f21398c1f9b207aa6c8a7b",
    ("product_power(1.3,2.2)", 2): "33790344a64377f2b373af8d2ed933581de11516f233e3c16a76f2056c65e528",
    ("product_power(1.3,2.2)", 3): "3c9b3b28bad4eb6ab10e6d7a7d12bd795e53edf0fda3f47a4232fa66919fd8d7",
}


def family_three_rows_hash(name, r):
    c = (builtin("product_power", p=1.3, q=2.2) if name.startswith("product_power")
         else builtin(name))
    dyadic = [2 ** t for t in range(1, 8)]
    report = check_membership(c, r, MajorantFamily(Family.THREE, Axis.ROW, lam=2),
                              [(m, n) for m in dyadic for n in dyadic])
    assert len(report.rows) == 147
    return hashlib.sha256(repr(report.rows).encode()).hexdigest()


class TestFamilyThreeGolden:
    @pytest.mark.parametrize("name, r", sorted(GOLDEN_THREE))
    def test_reports_are_unchanged(self, name, r):
        assert family_three_rows_hash(name, r) == GOLDEN_THREE[name, r]


class TestSharedDoubleTable:
    """One table per fit gives the rows that per-point scans give."""

    @pytest.mark.parametrize("family", [Family.TWO, Family.THREE])
    @pytest.mark.parametrize("seq, horizon", [
        (builtin("oscillating_quadratic"), 24),
        (from_expression("nonsep", "1/(j*k*(j+k))"), 24),
    ])
    def test_rows_match_per_point_scans(self, seq, horizon, family):
        # thresholds m + n run past the horizon (up to 2 * horizon)
        grid = [(m, n) for m in (2, 3, 8, 13, 24) for n in (2, 5, 11, 24)]
        fam = MajorantFamily(family, Axis.ROW, lam=2, b1="1", b2="1",
                             sup_horizon=horizon)
        report = check_membership(seq, 2, fam, grid)
        double = [row for row in report.rows if row.axis == "double"]
        assert len(double) == len(grid)
        assert any(row.m + row.n > horizon + 1 for row in double)
        b3 = compile_b(fam.b3)
        for row in double:
            scan = double_sup_scan(seq, b3(row.m + row.n), horizon)
            assert row.rhs == scan.value / (row.m * row.n)
            assert row.truncated == (scan.truncated and row.lhs > 0.0)

    @pytest.mark.parametrize("family", [Family.TWO, Family.THREE])
    @pytest.mark.parametrize("seq", [builtin("oscillating_quadratic"),
                                     from_expression("nonsep", "1/(j*k*(j+k))")])
    def test_threshold_past_twice_the_horizon_still_raises(self, seq, family):
        fam = MajorantFamily(family, Axis.ROW, lam=2, b1="1", b2="1",
                             sup_horizon=16)
        with pytest.raises(HorizonError):
            check_membership(seq, 2, fam, ((4, 4), (16, 17)))

    def test_table_of_another_sequence_or_horizon_is_refused(self, osc):
        fam = MajorantFamily(Family.TWO, Axis.ROW, lam=2, sup_horizon=32)
        for table in (DoubleScanTable(builtin("mod3_log_product"), 32),
                      DoubleScanTable(osc, 16)):
            with pytest.raises(ValueError, match="another sequence or sup_horizon"):
                check_membership(osc, 2, fam, [(4, 4)], table=table)

    @pytest.mark.parametrize("name", ["oscillating_quadratic", "nonsep"])
    def test_shared_table_gives_the_private_tables_reports(self, name):
        c = FIT_SEQUENCES[name]
        grid = [(m, n) for m in (2, 3, 8, 13) for n in (2, 5, 11)]
        table = DoubleScanTable(c, 24)
        for _ in range(2):  # the second pass reads warm memos
            for family in Family:
                fam = MajorantFamily(family, Axis.ROW, lam=2, b3="l+1", sup_horizon=24)
                for r in (1, 2):
                    assert repr(check_membership(c, r, fam, grid, table=table)) == \
                        repr(check_membership(c, r, fam, grid))
        assert set(table._factor_sums) == {0, 1, 2}


def counted(c):
    """``c`` with evaluators that count its line reads: every fixed index of
    every table call (indices ``1..reach`` as one row against a column of
    fixed indices), keyed by (orientation, fixed index).  Row lines are
    read from ``c``, column lines from its transpose, which gets its own
    counting evaluator."""
    lines = Counter()

    def counting(seq, orientation):
        def eval_(j, k):
            if np.ndim(j) == np.ndim(k) == 2 and np.shape(j)[0] == 1 and np.shape(k)[1] == 1:
                lines.update((orientation, int(n)) for n in np.ravel(k))
            return seq.eval(j, k)

        return dataclasses.replace(seq, eval=eval_)

    rows, cols = counting(c, "row"), counting(c.T, "column")
    rows.__dict__["T"], cols.__dict__["T"] = cols, rows
    return rows, lines


FIT_SEQUENCES = {
    "oscillating_quadratic": builtin("oscillating_quadratic"),
    "mod3_log_product": builtin("mod3_log_product"),
    "product_power(1.5,2)": builtin("product_power", p=1.5, q=2.0),
    "-2.5*oscillating_quadratic": scale(builtin("oscillating_quadratic"), -2.5),
    "1j*mod3_log_product": scale(builtin("mod3_log_product"), 1j),
    "nonsep": from_expression("nonsep", "1/(j*k*(j+k))"),
    "complex table": from_table("complex", np.exp(1j * np.arange(1, 1201)).reshape(30, 40)
                                * (1.0 + np.arange(30))[:, None] ** -1.5),
}
LHS = {Axis.ROW: lhs_row, Axis.COLUMN: lhs_col, Axis.DOUBLE: lhs_double}


class TestBatchedFit:
    """The fit reads each line once and memoizes shared sums; every row is
    the per-point public left-hand side over the table-less majorant."""

    @given(st.sampled_from(sorted(FIT_SEQUENCES)), st.sampled_from(list(Family)),
           st.integers(1, 5), st.integers(2, 3), st.sampled_from(("l", "2*l", "l+3")),
           st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=1,
                    max_size=8).flatmap(lambda g: st.permutations(g + g[:2])))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_point_oracle(self, name, family, r, lam, b, grid):
        # repeated points (g[:2] twice) and points with m or n below lambda
        c = FIT_SEQUENCES[name]
        fam = MajorantFamily(family, Axis.ROW, lam=lam, b1=b, b2=b, b3=b, sup_horizon=48)
        report = check_membership(c, r, fam, grid)
        want = []
        for axis in Axis:
            for m, n in grid:
                if ((axis is not Axis.COLUMN and m < lam)
                        or (axis is not Axis.ROW and n < lam)):
                    continue
                lhs = LHS[axis](c, r, m, n)
                mv = rhs(c, dataclasses.replace(fam, axis=axis), m, n)
                want.append((m, n, axis.value, lhs, mv.value, mv.truncated and lhs > 0.0))
        got = [(row.m, row.n, row.axis, row.lhs, row.rhs, row.truncated)
               for row in report.rows]
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("name", ["oscillating_quadratic", "nonsep"])
    def test_each_line_is_evaluated_once_per_fit(self, name, family):
        c, lines = counted(FIT_SEQUENCES[name])
        # with lambda = 2 and r = 5 the left-hand side reads furthest on
        # family ONE lines (2m - 1 + r > 2m), the majorant on the others
        grid = [(m, n) for m in (1, 2, 3, 8, 16, 5) for n in (2, 16, 7, 3, 1)] + [
            (40, 2), (2, 40)]
        fam = MajorantFamily(family, Axis.ROW, lam=2, b1="l+3", b2="2*l", sup_horizon=96)
        want = check_membership(FIT_SEQUENCES[name], 5, fam, grid)
        assert repr(check_membership(c, 5, fam, grid).rows) == repr(want.rows)
        fixed = ({("row", n) for m, n in grid if m >= 2}
                 | {("column", m) for m, n in grid if n >= 2})
        assert set(lines) == fixed
        assert max(lines.values()) == 1

    @given(st.sampled_from(sorted(FIT_SEQUENCES)), st.sampled_from(list(Family)),
           st.integers(1, 3),
           st.lists(st.tuples(*[st.one_of(st.just(24), st.integers(1, 24))] * 2), min_size=2,
                    max_size=10),
           st.sampled_from((1, 60)))
    @settings(max_examples=100, deadline=None)
    def test_table_cap_changes_no_row(self, name, family, r, grid, cells):
        # one line per table (a cap of 1 cell), or a few short lines per table,
        # against the default cap, where lines of equal reach share a table; a
        # family-THREE line reads past 2 sup_horizon only for m = 24 at r >= 2
        c = FIT_SEQUENCES[name]
        fam = MajorantFamily(family, Axis.ROW, lam=2, sup_horizon=24)
        want = check_membership(c, r, fam, grid)
        reaches = {"row": set(), "column": set()}
        read_lines = majorants._row_lines

        def recorded(src, lines, fam):
            reaches["column" if src is c.T else "row"].update(reach for _, reach in lines)
            return read_lines(src, lines, fam)

        with patch.object(majorants, "_TABLE_CELLS", cells), \
                patch.object(membership, "_row_lines", recorded):
            got = check_membership(c, r, fam, grid)
        assume(any(len(seen) > 1 for seen in reaches.values()))
        assert repr(got.rows) == repr(want.rows)

    def test_one_line_alive_at_a_time(self, osc):
        # the membership-osc-r2 fit: an axis's 12 family-THREE lines at H = 4096
        # are one 786 kB table, and each line's prepared arrays take a few
        # hundred kB until the next line; holding every line's arrays at once
        # took 2.75 MB, and the fit measured 1.08 MB
        dyadic = [2 ** t for t in range(1, 13)]
        tracemalloc.start()
        try:
            check_membership(osc, 2, three_family(sup_horizon=4096),
                             [(m, n) for m in dyadic for n in dyadic])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_500_000

    def test_family_two_table_is_capped(self, osc):
        # family TWO at lambda 2 reads 4 b(m) = 16384 values per line at
        # m = 4096: the grid's 12 row lines make two tables of at most
        # _TABLE_CELLS (1 MiB) each, and the fit measured 1.52 MB; all 12
        # in one table took 2.01 MB.  The bound is that plus 15%.
        dyadic = [2 ** t for t in range(1, 13)]
        fam = MajorantFamily(Family.TWO, Axis.ROW, lam=2, sup_horizon=4096)
        check_membership(osc, 2, fam, [(2, 2)])  # caches filled on first use stay out
        tracemalloc.start()
        try:
            check_membership(osc, 2, fam, [(m, n) for m in dyadic for n in dyadic])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_750_000

    def test_one_double_scan_per_threshold(self, osc, monkeypatch):
        thresholds = []
        build = majorants.DoubleScanTable._build

        def counted_build(self):
            search = build(self)
            return lambda t: thresholds.append(t) or search(t)

        monkeypatch.setattr(majorants.DoubleScanTable, "_build", counted_build)
        grid = [(m, n) for m in range(2, 12) for n in range(2, 12)]
        fam = MajorantFamily(Family.TWO, Axis.ROW, lam=2, b3="l+3", sup_horizon=64)
        report = check_membership(osc, 2, fam, grid)
        assert sorted(thresholds) == sorted({m + n + 3 for m, n in grid})
        for row in report.rows:
            if row.axis == "double":
                assert row.rhs == double_sup_scan(osc, row.m + row.n + 3, 64).value / (
                    row.m * row.n)


class TestCondition22:
    def test_oscillating_decays(self, osc):
        report = check_condition_22(osc, S=4096)
        assert report.verdict is Verdict.DECAYING
        assert report.values[0] == pytest.approx(9.0 / 4.0, rel=1e-12)
        for s, value in zip(report.schedule, report.values):
            assert value <= 9.0 / (s - 1.0) * (1.0 + 1e-12)

    def test_product_power_11_is_flat(self, pp11):
        report = check_condition_22(pp11, S=1024)
        assert report.verdict is Verdict.FLAT
        assert all(abs(v - 1.0) <= 1e-12 for v in report.values)

    def test_explicit_schedule(self, osc):
        report = check_condition_22(osc, schedule=(4, 16, 64))
        assert report.schedule == (4, 16, 64)

    def test_growing_weight(self):
        # c_jk = 1/(j k) scaled up along the diagonal: T(s) grows
        c = from_table("grow", np.fromfunction(
            lambda j, k: (j + 1.0) * (k + 1.0), (64, 64)))
        report = check_condition_22(c, S=32)
        assert report.verdict is Verdict.GROWING

    @pytest.mark.parametrize("kwargs, message", [
        (dict(S=4), "need S >= 8 for the default schedule"),
        (dict(schedule=(1, 4)), "anti-diagonal scales must be >= 2"),
    ])
    def test_bad_scales_are_refused(self, osc, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_condition_22(osc, **kwargs)


class TestSingleMembership:
    @pytest.mark.parametrize("klass, lam, grid, message", [
        (SingleClass.MVBVS, 1, [4], "MVBVS and SBVS need lambda >= 2"),
        (SingleClass.GM, 2, [], "empty grid"),
    ])
    def test_bad_lambda_or_grid_is_refused(self, osc, klass, lam, grid, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_single_membership(osc.separable_parts[0], klass, grid, lam=lam)

    @pytest.mark.parametrize("klass, b", [(SingleClass.SBVS, "l"), (SingleClass.SBVS2, "l"),
                                          (SingleClass.SBVS2, "3*l")])
    @pytest.mark.parametrize("a", [builtin("mod3_log_product").separable_parts[0],
                                   builtin("product_power", p=0.5, q=0.7).separable_parts[0],
                                   single_from_values("t", np.r_[np.ones(40), 0.5 * np.ones(40)])])
    def test_sup_classes_share_one_line_with_per_point_scans(self, a, klass, b):
        grid = (1, 2, 3, 5, 8, 13, 21)
        report = check_single_membership(a, klass, grid, lam=3, horizon=64, b=b)
        fb = compile_b(b)
        rows = {row.m: row for row in report.rows}
        assert len(rows) == (len(grid) - 2 if klass is SingleClass.SBVS else len(grid))
        for n, row in rows.items():
            start = max(1, n // 3) if klass is SingleClass.SBVS else fb(n)
            scan = single_sup_scan(a, start, 64)
            assert row.rhs == scan.value / n
            assert row.truncated == (scan.truncated and row.lhs > 0.0)

    def test_mvbvs_constant_grows_for_oscillating_factor(self, osc):
        a, _ = osc.separable_parts
        small = check_single_membership(a, SingleClass.MVBVS, (4, 8, 16))
        big = check_single_membership(a, SingleClass.MVBVS, (4, 8, 16, 64, 256))
        assert big.fitted_C > small.fitted_C  # step-1 variation is not bounded

    def test_beta_star_window(self, osc):
        a, _ = osc.separable_parts
        n, lam = 4, 2
        k = np.arange(2, 9)
        expected = float(np.sum(np.abs(np.asarray(a.eval(k))))) / n
        assert beta_star(a, n, lam) == pytest.approx(expected, rel=1e-12)

    def test_sbvs_passes_for_power_decay(self):
        vals = 1.0 / np.arange(1.0, 3000.0) ** 2
        a = single_from_values("inv_sq", vals)
        report = check_single_membership(a, SingleClass.SBVS, (4, 8, 16, 32), horizon=1024)
        assert cap_verdict(report.rows, 4.0)[0] in ("pass", "inconclusive")
        assert report.fitted_C <= 4.0

    def test_sbvs2_uses_b_expression(self, osc):
        a, _ = osc.separable_parts
        r1 = check_single_membership(a, SingleClass.SBVS2, (4, 8), b="l")
        r2 = check_single_membership(a, SingleClass.SBVS2, (4, 8), b="2*l")
        # scanning from a later start can only shrink the sup
        assert r2.rows[0].rhs <= r1.rows[0].rhs

    def test_gm_beta_expression_is_the_majorant(self, osc):
        a, _ = osc.separable_parts
        report = check_single_membership(a, SingleClass.GM, (4, 8, 16), r=2, beta="1/n^2")
        assert [row.rhs for row in report.rows] == [1.0 / n ** 2 for n in (4, 8, 16)]

    def test_gm_default_beta_is_star(self, osc):
        a, _ = osc.separable_parts
        report = check_single_membership(a, SingleClass.GM, (4,), r=2)
        assert report.rows[0].rhs == pytest.approx(beta_star(a, 4, 2), rel=1e-12)

    def test_target_failure_verdict(self, osc):
        a, _ = osc.separable_parts
        report = check_single_membership(a, SingleClass.MVBVS, (256,))
        assert cap_verdict(report.rows, 1.0) == ("fail", report.rows[0])

    @pytest.mark.parametrize("klass", list(SingleClass))
    def test_grid_index_below_one_refused_before_evaluation(self, osc, klass):
        a, _ = osc.separable_parts
        calls = []
        spy = dataclasses.replace(a, eval=lambda k: calls.append(k) or a.eval(k))
        with pytest.raises(ValueError, match="indices must be >= 1"):
            check_single_membership(spy, klass, (0, -3, 4), horizon=64)
        assert calls == []


def single_fit_oracle(a, klass, grid, lam, r, horizon, b, beta):
    """A single fit's rows from per-point twins, each evaluating ``a`` afresh:
    ``_variation`` for the left-hand side, ``beta_star``, the scaled
    ``single_sup_scan`` from ``max(1, n // lam)`` or ``b(n)``, or the
    expression beta; else the text of the refusal the fit must raise.  As
    in a double fit, scan starts are refused before any row is read."""
    r = r if klass is SingleClass.GM else 1
    points = [n for n in grid if klass not in (SingleClass.MVBVS, SingleClass.SBVS) or n >= lam]
    starts = {n: max(1, n // lam) if klass is SingleClass.SBVS else compile_b(b)(n)
              for n in points}
    if klass in (SingleClass.SBVS, SingleClass.SBVS2):
        for n in points:
            if starts[n] > horizon:
                return f"horizon {horizon} below scan start {starts[n]}"
    rows = []
    for n in points:
        hi = 2 * n if klass is SingleClass.MVBVS else 2 * n - 1
        side = "left-hand side"
        try:
            lhs = _variation(np.asarray(a.eval(np.arange(n, hi + r + 1))), r, hi - n + 1)
            side = "majorant"
            if klass in (SingleClass.SBVS, SingleClass.SBVS2):
                mv = _scaled(single_sup_scan(a, starts[n], horizon), n)
            elif klass is SingleClass.GM and beta is not None:
                mv = Measurement(float(compile_expression(beta, ("n",))[0](n=float(n))), 0.0)
            else:
                mv = Measurement(beta_star(a, n, lam), 0.0)
        except OverflowError as exc:
            return f"single {side} at n = {n} overflows: {exc}"
        ratio = lhs / mv.value if mv.value > 0.0 else (0.0 if lhs == 0.0 else math.inf)
        rows.append(RatioRow(n, 0, "single", lhs, mv.value, ratio, mv.truncated and lhs > 0.0))
    for row in rows:
        for side, value in (("left-hand side", row.lhs), ("majorant", row.rhs)):
            if not math.isfinite(value):
                return f"single {side} at n = {row.m} is {value!r}, not finite"
    return tuple(rows)


def single_fit_outcome(fit, *args):
    """``fit(*args)``'s rows, or the text of the ValueError it raises."""
    try:
        result = fit(*args)
    except ValueError as exc:
        return str(exc)
    return result if isinstance(result, (str, tuple)) else result.rows


class TestSingleFitReader:
    """A single fit reads one line of ``a``; its rows are the per-point
    twins' bit for bit, and a NaN, an infinity or an overflowing sum that a
    row reads is refused, naming its n."""

    KINDS = ("random", "ties", "dominant head", "complex", "nan", "inf", "overflow")

    @given(st.sampled_from(list(SingleClass)), st.sampled_from(KINDS),
           st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), min_size=1, max_size=6),
           st.sampled_from((2, 3, 4)), st.integers(1, 3), st.sampled_from(("l", "2*l")),
           st.sampled_from((None, "1/n^2")))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf blocks, overflow
    def test_rows_match_per_point_oracles(self, klass, kind, seed, grid, lam, r, b, beta):
        rng = np.random.default_rng(seed)
        a = single_from_values(kind, reader_line(kind, int(rng.integers(1, 200)), rng))
        args = (a, klass, grid, lam, r, 64, b, beta)
        assert single_fit_outcome(lambda *x: check_single_membership(
            *x[:3], lam=x[3], r=x[4], horizon=x[5], b=x[6], beta=x[7]), *args) \
            == single_fit_outcome(single_fit_oracle, *args)

    @pytest.mark.parametrize("klass", [SingleClass.SBVS2, SingleClass.GM])
    def test_lambda_below_one_is_refused(self, osc, klass):
        # GM's window floor(n/lam)..ceil(lam n) divided by zero at lam 0
        with pytest.raises(ValueError, match="^lambda must be >= 1, got 0$"):
            check_single_membership(osc.separable_parts[0], klass, (2, 4), lam=0, horizon=64)

    def test_starts_are_refused_in_grid_order(self, osc):
        # b(10) = 7 lies past the horizon before b(1) = -2 is refused
        a, _ = osc.separable_parts
        with pytest.raises(HorizonError, match="^horizon 5 below scan start 7$"):
            check_single_membership(a, SingleClass.SBVS2, (10, 1), horizon=5, b="l-3")

    @pytest.mark.parametrize("klass", list(SingleClass))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_a_non_finite_line_is_refused(self, klass, bad):
        a = single_from_values("bad", np.full(200, bad))
        with pytest.raises(ValueError, match=r"^single left-hand side at n = 2 is nan, "):
            check_single_membership(a, klass, (2, 4, 8), horizon=64)


# --- results frozen before the fit and the row-block reduction were shared ------

SINGLES = {
    "mod3": builtin("mod3_log_product").separable_parts[0],
    "osc": builtin("oscillating_quadratic").separable_parts[0],
    "pp05": builtin("product_power", p=0.5, q=0.7).separable_parts[0],
    "steps": single_from_values("steps", np.r_[np.ones(40), 0.5 * np.ones(40)]),
}
SINGLE_GRID = (1, 2, 3, 4, 5, 8, 13, 16, 21, 64)

# sha256 of repr([repr(report) for each of SINGLES, by name]), frozen from the
# per-class fit loop that check_single_membership kept before it shared _fit;
# re-frozen when the report dropped its target_C and verdict fields: the
# earlier reprs with each ", target_C=..., verdict=..." removed hash to these
# values under every cap
SINGLE_FROZEN = {
    "mvbvs": "cef3afb69d18a6f3ff5c829773168c0aae334889fb3acd1736546348b2ed61d2",
    "sbvs": "9cb3680a5e3762726119df05f5f5ddf346c8904aecd13a7378cbc412201d0f4e",
    "sbvs2": "bc3dffa6c325cd9555cc5d285c38297d1a1f86572e9ea6f4b2986a19aa3143a5",
    "gm": "548589bee4ae5cfad03967108d41c526c7f51e587e698a7be162590efe0239f3",
}

# each report's verdict against the cap, for SINGLES by name, as the reports
# stored them before cap_verdict judged the caps; None without a cap
SINGLE_VERDICTS = {
    ("mvbvs", None): (None,) * 4,
    ("mvbvs", 0.5): ("fail", "fail", "pass", "fail"),
    ("mvbvs", 3.0): ("fail", "fail", "pass", "pass"),
    ("sbvs", None): (None,) * 4,
    ("sbvs", 0.5): ("inconclusive", "fail", "pass", "inconclusive"),
    ("sbvs", 3.0): ("inconclusive", "fail", "pass", "pass"),
    ("sbvs2", None): (None,) * 4,
    ("sbvs2", 0.5): ("inconclusive", "fail", "pass", "inconclusive"),
    ("sbvs2", 3.0): ("inconclusive", "fail", "pass", "inconclusive"),
    ("gm", None): (None,) * 4,
    ("gm", 0.5): ("fail", "fail", "fail", "fail"),
    ("gm", 3.0): ("fail", "pass", "fail", "fail"),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("klass, cap", sorted(SINGLE_VERDICTS, key=str))
def test_single_membership_is_frozen(klass, cap):
    kw = dict(lam=2, horizon=128)
    if klass == "gm":
        kw.update(r=2, beta="1/n^2")
    reports = [check_single_membership(SINGLES[name], SingleClass(klass), SINGLE_GRID, **kw)
               for name in sorted(SINGLES)]
    assert _sha([repr(report) for report in reports]) == SINGLE_FROZEN[klass]
    assert tuple(None if cap is None else cap_verdict(report.rows, cap)[0]
                 for report in reports) == SINGLE_VERDICTS[klass, cap]


class TestDenseFamilyOne:
    """Family ONE on a non-separable sequence: the double majorant is a
    window sum over ``floor(m/2)..2m`` by ``floor(n/2)..2n``, read in
    sub-blocks."""

    NONSEP = from_expression("nonsep", "1/(j*k*(j+k))")
    FAM = MajorantFamily(Family.ONE, Axis.ROW, lam=2, sup_horizon=64)
    GRID = tuple((m, n) for m in (2, 3, 5, 8, 13) for n in (2, 4, 7, 16))

    def test_default_blocks_are_frozen(self):
        # sha256 of repr(report) from the fit before the window sum shared
        # the exact reducer (each window is one exactly rounded sum), with the
        # report's since-removed ", target_C=None, verdicts=None" taken out
        report = check_membership(self.NONSEP, 2, self.FAM, self.GRID)
        assert _sha(report) == "d51261f4f7f9f8161adf78fac194d823b14ea9d9b7d78809d3ffce306565c8ac"

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_forced_sub_blocks_match_twin(self, monkeypatch, rows):
        c = self.NONSEP
        for m, n in self.GRID:
            jlo, jhi = majorants.averaging_window(m, 2)
            klo, khi = majorants.averaging_window(n, 2)
            monkeypatch.setattr(differences, "_SUB_BLOCK_CELLS", rows * (khi - klo + 1))
            report = check_membership(c, 2, self.FAM, [(m, n)])
            (row,) = [row for row in report.rows if row.axis == "double"]
            j = np.arange(jlo, jhi + 1)[:, None]
            k = np.arange(klo, khi + 1)[None, :]
            assert row.rhs == float(ksum(np.abs(c.eval(j, k)))) / (m * n)
            assert row.lhs == lhs_double(c, 2, m, n)


def growth_slope_rescan(points):
    """The growth slope with every point rescanned for each size (the
    oracle of the one-pass ``_growth_slope``)."""
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


# few distinct indices, so sizes repeat; inf and NaN ratios are skipped
GROWTH_POINTS = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9),
                                   st.one_of(st.floats(0.0, 1e6),
                                             st.sampled_from([math.inf, -math.inf, math.nan]))),
                         max_size=30)


@settings(max_examples=300, deadline=None)
@given(points=GROWTH_POINTS)
def test_growth_slope_matches_the_rescan(points):
    assert repr(_growth_slope(points)) == repr(growth_slope_rescan(points))
