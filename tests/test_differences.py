import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesine import (
    check_step,
    delta_0r,
    delta_r,
    delta_r0,
    delta_rr,
    from_table,
    single_from_expression,
    single_from_values,
)
from doublesine.differences import _doublings


class TestCheckStep:
    @pytest.mark.parametrize("r", [1, 2, 3, 10])
    def test_accepts_positive_ints(self, r):
        assert check_step(r) == r

    @pytest.mark.parametrize("bad", [0, -1, -2])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            check_step(bad)

    @pytest.mark.parametrize("bad", [True, 1.0, "2", None])
    def test_rejects_non_int(self, bad):
        with pytest.raises((TypeError, ValueError)):
            check_step(bad)


def _doubling_loop(start, limit):
    out, v = [], start
    while v <= limit:
        out.append(v)
        v *= 2
    return out


class TestDoublings:
    @given(st.integers(1, 1 << 20), st.integers(-(1 << 20), 1 << 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_doubling_loop(self, start, limit):
        assert _doublings(start, limit) == _doubling_loop(start, limit)

    @pytest.mark.parametrize("start, limit, expected", [
        (2, 1, []),                     # limit below start
        (5, 4, []),
        (3, -1, []),                    # a negative quotient has a nonzero bit_length
        (7, -(1 << 20), []),
        (1, 0, []),
        (2, 2, [2]),
        (3, 11, [3, 6]),
        (4, 4096, [4 << e for e in range(11)]),
        (1, 1 << 20, [1 << e for e in range(21)]),
    ])
    def test_edges(self, start, limit, expected):
        assert _doublings(start, limit) == expected == _doubling_loop(start, limit)


class TestSingleDifferences:
    def test_linear_sequence(self):
        a = single_from_expression("lin", "3*k")
        k = np.arange(1, 20)
        for r in (1, 2, 3):
            np.testing.assert_allclose(np.asarray(delta_r(a, r, k)),
                                       np.full(k.shape, -3.0 * r), rtol=1e-14)

    def test_scalar_index(self):
        a = single_from_values("a", np.array([5.0, 1.0, 4.0]))
        assert float(delta_r(a, 1, 1)) == 4.0
        assert float(delta_r(a, 2, 1)) == 1.0
        assert float(delta_r(a, 1, 3)) == 4.0  # a_4 = 0 outside the table

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_step2_decomposes_into_step1(self, values):
        a = single_from_values("a", np.asarray(values))
        k = np.arange(1, len(values) + 1)
        lhs = np.asarray(delta_r(a, 2, k))
        d1 = np.asarray(delta_r(a, 1, k))
        d1_next = np.asarray(delta_r(a, 1, k + 1))
        scale = np.maximum(1.0, np.maximum(np.abs(d1), np.abs(d1_next)))
        assert np.all(np.abs(lhs - (d1 + d1_next))
                      <= 8 * np.finfo(np.float64).eps * scale)


class TestDoubleDifferences:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.table = rng.standard_normal((12, 12))
        self.c = from_table("t", self.table)

    def test_row_difference_definition(self):
        j, k, r = 3, 4, 2
        expected = self.table[j - 1, k - 1] - self.table[j + r - 1, k - 1]
        assert float(delta_r0(self.c, r, j, k)) == expected

    def test_col_difference_definition(self):
        j, k, r = 3, 4, 2
        expected = self.table[j - 1, k - 1] - self.table[j - 1, k + r - 1]
        assert float(delta_0r(self.c, r, j, k)) == expected

    def test_mixed_difference_definition(self):
        j, k, r = 2, 3, 2
        expected = (self.table[j - 1, k - 1] - self.table[j + r - 1, k - 1]
                    - self.table[j - 1, k + r - 1] + self.table[j + r - 1, k + r - 1])
        assert float(delta_rr(self.c, r, j, k)) == expected

    def test_mixed_is_composition(self):
        j = np.arange(1, 9)[:, None]
        k = np.arange(1, 9)[None, :]
        for r in (1, 2, 3):
            d_rr = np.asarray(delta_rr(self.c, r, j, k))
            composed = (np.asarray(delta_r0(self.c, r, j, k))
                        - np.asarray(delta_r0(self.c, r, j, k + r)))
            np.testing.assert_allclose(d_rr, composed, rtol=0.0,
                                       atol=8 * np.finfo(np.float64).eps * 8.0)

    def test_broadcast_shapes(self):
        j = np.arange(1, 5)[:, None]
        k = np.arange(1, 7)[None, :]
        assert np.asarray(delta_rr(self.c, 2, j, k)).shape == (4, 6)

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_step2_mixed_decomposes_into_step1(self, j, k):
        d22 = float(delta_rr(self.c, 2, j, k))
        parts = sum(float(delta_rr(self.c, 1, j + dj, k + dk))
                    for dj in (0, 1) for dk in (0, 1))
        assert d22 == pytest.approx(parts, abs=8 * np.finfo(np.float64).eps * 8.0)
