import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesine import (
    BUILTIN_NAMES,
    Rect,
    SingularityError,
    assert_admissible,
    builtin,
    dirichlet_conj,
    from_expression,
    from_table,
    kernel_bound_check,
    ksum,
    rect_sum_direct,
    rect_sum_parts,
    rect_sum_separable,
    row_sum_by_parts,
    single_from_values,
)
from doublesine import differences
from doublesine.kernels import _envelope, _kernel_row

from conftest import dense_twin


def safe_x(rng: np.random.Generator, r: int, gap: float = 0.05) -> float:
    while True:
        x = float(rng.uniform(gap, math.pi - gap))
        if all(abs(x - 2.0 * l * math.pi / r) >= gap for l in range(r + 1)):
            return x


def rect_sum_rows(c, rect, x, y):
    """Oracle of ``rect_sum_direct``: one coefficient read per row."""
    ks = np.arange(rect.n, rect.N + 1, dtype=np.int64)
    sin_ky = np.sin(ks * y)
    rows = [math.sin(j * x) * ksum(np.asarray(c.eval(j, ks)) * sin_ky)
            for j in range(rect.m, rect.M + 1)]
    return ksum(np.asarray(rows))


def kernel_bound_points(x_grid, k_max):
    """Oracle of ``kernel_bound_check``: every order at every point, in
    (step +2, then -2; grid order), keeping the first worst slack."""
    xs = np.asarray(x_grid, dtype=np.float64)
    ks = np.arange(0, k_max + 1, dtype=np.int64)
    env = _envelope(xs)
    worst, wx, wk, wr = -math.inf, float(xs[0]), 0, 2
    for sgn in (2, -2):
        for i, x in enumerate(xs):
            vals = np.abs(_kernel_row(ks, sgn, float(x)))
            idx = int(np.argmax(vals))
            slack = float(vals[idx] - env[i])
            if slack > worst:
                worst, wx, wk, wr = slack, float(x), int(ks[idx]), sgn
    return worst, wx, wk, wr


class TestRect:
    def test_valid(self):
        rect = Rect(1, 4, 2, 8)
        assert (rect.m, rect.M, rect.n, rect.N) == (1, 4, 2, 8)

    @pytest.mark.parametrize("bad", [(0, 4, 1, 4), (3, 2, 1, 4), (1, 4, 5, 4),
                                     (1, 4, 0, 4)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            Rect(*bad)


class TestKernelValues:
    def test_frozen_value(self):
        # cos((2 - 1) pi/3) / (2 sin(-pi/3)) = (1/2) / (-sqrt(3)) = -1/(2 sqrt 3)
        assert dirichlet_conj(2, -2, math.pi / 3) == pytest.approx(
            -0.288675134594813, rel=1e-12)

    def test_zero_order_step_two(self):
        x = 0.9
        assert dirichlet_conj(0, 2, x) == pytest.approx(
            math.cos(x) / (2.0 * math.sin(x)), rel=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_conj(-1, 2, 0.5)

    def test_singular_abscissa_named(self):
        with pytest.raises(SingularityError, match="pi"):
            dirichlet_conj(3, 3, 2.0 * math.pi / 3.0)

    def test_assert_admissible_checks_both_signs(self):
        assert_admissible(0.5, 2)
        with pytest.raises(SingularityError):
            assert_admissible(2.0 * math.pi / 3.0, 3)

    @pytest.mark.parametrize("check", [lambda r: dirichlet_conj(1, r, 0.5),
                                       lambda r: assert_admissible(0.5, r)],
                             ids=["dirichlet_conj", "assert_admissible"])
    @pytest.mark.parametrize("r", [0, 2.0])
    def test_step_must_be_a_nonzero_integer(self, check, r):
        with pytest.raises(ValueError, match="kernel step must be a nonzero integer"):
            check(r)


class TestRowSumByParts:
    def test_collapses_at_single_term(self):
        a = single_from_values("a", np.arange(1.0, 20.0))
        x = 0.7
        n = 5
        direct = float(a.eval(n)) * math.sin(n * x)
        assert row_sum_by_parts(a, n, n, 2, x) == pytest.approx(direct, rel=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_sum(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 20))
        length = int(rng.integers(1, 64))
        m = n + length - 1
        values = rng.uniform(-1.0, 1.0, size=m + r)
        a = single_from_values("a", values)
        x = safe_x(rng, r)
        k = np.arange(n, m + 1)
        direct = float(ksum(values[k - 1] * np.sin(k * x)))
        parts = float(row_sum_by_parts(a, n, m, r, x))
        assert parts == pytest.approx(direct, abs=1e-9 * (1.0 + abs(direct)))

    def test_singular_x_rejected(self):
        a = single_from_values("a", np.ones(8))
        with pytest.raises(SingularityError):
            row_sum_by_parts(a, 1, 4, 3, 2.0 * math.pi / 3.0)

    def test_empty_range_rejected(self):
        a = single_from_values("a", np.ones(8))
        with pytest.raises(ValueError, match="need 1 <= n <= m"):
            row_sum_by_parts(a, 5, 4, 2, 0.7)


class TestRectSums:
    def test_direct_small_brute_force(self, osc):
        rect, x, y = Rect(1, 3, 1, 2), 0.8, 1.1
        brute = sum(osc(j, k) * math.sin(j * x) * math.sin(k * y)
                    for j in range(1, 4) for k in range(1, 3))
        assert rect_sum_direct(osc, rect, x, y) == pytest.approx(brute, rel=1e-13)

    def test_parts_matches_direct_on_preset(self, osc):
        # the second rectangle is one row tall: for r > 1 its strips overlap the core
        for rect, r in itertools.product((Rect(2, 9, 3, 7), Rect(4, 4, 2, 3)), (1, 2, 3)):
            x, y = 0.71, 2.3
            d = rect_sum_direct(osc, rect, x, y)
            p = rect_sum_parts(osc, rect, x, y, r=r)
            assert p == pytest.approx(d, abs=1e-12 * (1.0 + abs(d)))

    def test_separable_matches_direct(self, osc):
        rect = Rect(1, 12, 2, 9)
        d = rect_sum_direct(osc, rect, 0.5, 2.0)
        s = rect_sum_separable(osc, rect, 0.5, 2.0)
        assert s == pytest.approx(d, rel=1e-12)

    def test_separable_requires_parts(self):
        c = from_table("t", np.ones((4, 4)))
        with pytest.raises(ValueError):
            rect_sum_separable(c, Rect(1, 2, 1, 2), 0.5, 0.5)

    def test_complex_table_parts(self):
        rng = np.random.default_rng(11)
        table = rng.uniform(-1, 1, (20, 20)) + 1j * rng.uniform(-1, 1, (20, 20))
        c = from_table("t", table)
        rect = Rect(3, 14, 2, 17)
        x, y = 0.43, 2.77
        d = rect_sum_direct(c, rect, x, y)
        p = rect_sum_parts(c, rect, x, y, r=2)
        assert abs(p - d) <= 1e-10 * (1.0 + abs(d))

    def test_zero_sequence(self, zero_seq):
        assert rect_sum_direct(zero_seq, Rect(1, 10, 1, 10), 1.0, 1.0) == 0.0
        assert rect_sum_parts(zero_seq, Rect(1, 10, 1, 10), 1.0, 1.0) == 0.0

    def test_parts_rejects_singular_point(self, osc):
        with pytest.raises(SingularityError):
            rect_sum_parts(osc, Rect(1, 4, 1, 4), 2.0 * math.pi / 3.0, 0.5, r=3)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_parts_matches_direct_randomized(self, seed):
        rng = np.random.default_rng(seed)
        table = rng.uniform(-1.0, 1.0, size=(30, 30))
        c = from_table("t", table)
        m = int(rng.integers(1, 15))
        M = int(rng.integers(m, 31))
        n = int(rng.integers(1, 15))
        N = int(rng.integers(n, 31))
        x, y = safe_x(rng, 2), safe_x(rng, 2)
        d = rect_sum_direct(c, Rect(m, M, n, N), x, y)
        p = rect_sum_parts(c, Rect(m, M, n, N), x, y, r=2)
        assert abs(p - d) <= 1e-9 * (1.0 + abs(d))


class TestKernelBound:
    def test_envelope_holds_on_modest_grid(self):
        left = np.linspace(0.0, math.pi / 2, 402)[1:-1]
        right = np.linspace(math.pi / 2, math.pi, 402)[1:-1]
        report = kernel_bound_check(np.concatenate([left, right]), k_max=128)
        assert report.worst_slack < 0.0
        assert report.n_points == 800

    def test_grid_must_be_interior(self):
        with pytest.raises(ValueError):
            kernel_bound_check(np.array([0.0, 1.0]), k_max=4)
        with pytest.raises(ValueError):
            kernel_bound_check(np.array([math.pi]), k_max=4)

    def test_k_max_and_grid_validated(self):
        for grid in ([math.nan], [0.5, math.nan], [math.inf], [-math.inf, 1.0]):
            with pytest.raises(ValueError, match="finite"):
                kernel_bound_check(np.array(grid), k_max=4)
        with pytest.raises(ValueError, match="k_max"):
            kernel_bound_check(np.array([1.0]), k_max=-1)
        with pytest.raises(ValueError):
            kernel_bound_check(np.array([]), k_max=4)
        with pytest.raises(ValueError):
            kernel_bound_check(np.ones((2, 2)), k_max=4)


def report_tuple(report):
    return (report.worst_slack, report.witness_x, report.witness_k, report.witness_r)


class TestKernelBoundOracle:
    """The pruned envelope scan equals the exhaustive per-point scan exactly."""

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 60),
           st.one_of(st.just(0), st.integers(0, 80)),
           st.sampled_from(["uniform", "rounded", "mirrored", "repeated"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive_scan(self, seed, points, k_max, kind):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(1e-3, math.pi - 1e-3, size=points)
        if kind == "rounded":
            # few distinct values: exact ties in bound, slack and witness
            xs = np.clip(np.round(xs, 1), 0.1, 3.1)
        elif kind == "mirrored":
            # x and pi - x share the envelope and |sin x|
            xs = np.concatenate([xs, math.pi - xs])
        elif kind == "repeated":
            xs = rng.choice(xs, size=2 * points)
        report = kernel_bound_check(xs, k_max=k_max)
        assert report_tuple(report) == kernel_bound_points(xs, k_max)
        assert report.n_points == xs.size and report.k_max == k_max

    @pytest.mark.parametrize("grid", [[1.0], [math.pi / 2], [0.3, 0.3], [2.9, 0.3]])
    @pytest.mark.parametrize("k_max", [0, 1, 7])
    def test_small_grids(self, grid, k_max):
        report = kernel_bound_check(np.array(grid), k_max=k_max)
        assert report_tuple(report) == kernel_bound_points(grid, k_max)

    def test_shipped_grid(self):
        left = np.linspace(0.0, 0.5 * math.pi, 1002)[1:-1]
        right = np.linspace(0.5 * math.pi, math.pi, 1002)[1:-1]
        grid = np.concatenate([left, right])
        report = kernel_bound_check(grid, k_max=128)
        assert report_tuple(report) == kernel_bound_points(grid, 128)

    def test_singular_point_message(self):
        grid = np.array([1.0, 2.0, 1e-13, 3e-13])
        with pytest.raises(SingularityError) as expected:
            kernel_bound_points(grid, 4)
        with pytest.raises(SingularityError) as got:
            kernel_bound_check(grid, k_max=4)
        assert str(got.value) == str(expected.value)
        assert "1e-13" in str(got.value)


class TestRectSumDirectOracle:
    """Reading the rectangle in row blocks equals reading it row by row exactly."""

    SEQUENCES = {
        **{name: builtin(name) for name in BUILTIN_NAMES},
        "product_power(1.5,0.5)": builtin("product_power", p=1.5, q=0.5),
        "nonsep": from_expression("nonsep", "1/(j*k*(j+k))"),
        "const": from_expression("const", "1"),
    }

    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_tables(self, seed, complex_table):
        rng = np.random.default_rng(seed)
        table = rng.uniform(-1.0, 1.0, size=(12, 17))
        if complex_table:
            table = table + 1j * rng.uniform(-1.0, 1.0, size=table.shape)
        c = from_table("t", table)
        # rectangles may run past the table, where it reads 0
        m = int(rng.integers(1, 15))
        M = int(rng.integers(m, 16))
        n = int(rng.integers(1, 20))
        N = int(rng.integers(n, 21))
        rect, x, y = Rect(m, M, n, N), safe_x(rng, 2), safe_x(rng, 2)
        assert rect_sum_direct(c, rect, x, y) == rect_sum_rows(c, rect, x, y)

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    @pytest.mark.parametrize("bounds", [(1, 1, 1, 1), (5, 5, 3, 40), (1, 40, 7, 7),
                                        (3, 50, 2, 61)])
    def test_sequences(self, name, bounds):
        c = self.SEQUENCES[name]
        rect = Rect(*bounds)
        for x, y in ((0.7, 1.9), (2.3, 0.4)):
            assert rect_sum_direct(c, rect, x, y) == rect_sum_rows(c, rect, x, y)

    @pytest.mark.parametrize("cells", [1, 20, 45, 100, 1 << 22])
    def test_row_blocks(self, monkeypatch, osc, cells):
        # 20 columns: blocks of 1, 1, 2, 5 rows, and every row at once
        monkeypatch.setattr(differences, "_ROW_BLOCK_CELLS", cells)
        for c in (osc, dense_twin()):
            rect = Rect(3, 40, 5, 24)
            assert rect_sum_direct(c, rect, 0.9, 1.3) == rect_sum_rows(c, rect, 0.9, 1.3)
