"""``ksum`` equals ``math.fsum`` bit for bit, on every path, and both equal
the exact sum (``fractions.Fraction``) rounded once; ``_cumsum_rows``
equals ``np.cumsum(axis=0)`` bit for bit."""

import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesine import ksum, sine_prefix
from doublesine import summing

SMALL, BLOCK = summing._SMALL, summing._BLOCK
SIZES = (1, 2, SMALL - 1, SMALL, SMALL + 1, 3000, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def exact(values) -> Fraction:
    """The exact sum of finite floats, over one power-of-two denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    shift = max(d.bit_length() for _, d in ratios) - 1
    return Fraction(sum(n << (shift - d.bit_length() + 1) for n, d in ratios), 1 << shift)


def assert_fsum_parity(values):
    """ksum(values) and math.fsum(values) return the same bits or raise the
    same error; a finite sum also equals the exact sum rounded once."""
    try:
        want = math.fsum(values)
    except (ValueError, OverflowError) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            ksum(values)
        return
    got = ksum(values)
    if math.isnan(want):
        assert math.isnan(got)
        return
    assert bits(got) == bits(want)
    if math.isfinite(want):
        assert got == float(exact(np.asarray(values, dtype=np.float64).tolist()))


def draw_values(seed: int, size: int, spread: int, kind: str) -> np.ndarray:
    """``size`` float64 values with exponents in ``-spread..spread``."""
    rng = np.random.default_rng(seed)
    mant = rng.uniform(-1.0, 1.0, size)
    if kind == "positive":
        mant = np.abs(mant)
    vals = np.ldexp(mant, rng.integers(-spread, spread + 1, size))
    if kind == "cancel":  # every value with its negative: the exact sum is 0
        half = vals[: size // 2]
        vals = rng.permutation(np.concatenate([half, -half, np.zeros(size % 2)]))
    elif kind == "near_top":  # one sign, just below a power of two
        vals = np.ldexp(1.0 - rng.uniform(0.0, 2.0 ** -20, size), spread) * rng.choice((-1, 1))
    return vals


class TestKsumAgainstFsum:
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from(SIZES),
           spread=st.sampled_from((0, 1, 20, 60, 300)),
           kind=st.sampled_from(("mixed", "positive", "cancel", "near_top")))
    @settings(max_examples=120, deadline=None)
    def test_drawn_vectors(self, seed, size, spread, kind):
        assert_fsum_parity(draw_values(seed, size, spread, kind))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1, max_size=40), st.integers(0, 64))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_floats_past_the_small_path(self, values, extra):
        # the drawn values repeated up to SMALL + extra entries
        assert_fsum_parity(np.resize(np.asarray(values), SMALL + extra))

    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.sampled_from(SIZES[2:6]))
    @settings(max_examples=40, deadline=None)
    def test_subnormals_and_normals(self, seed, size):
        rng = np.random.default_rng(seed)
        vals = rng.integers(-2 ** 20, 2 ** 20, size) * 5e-324
        vals[rng.integers(0, size, 3)] = rng.uniform(-1e-300, 1e-300, 3)
        assert_fsum_parity(vals)

    @pytest.mark.parametrize("size", SIZES)
    def test_wide_exponent_spread(self, size):
        # Needs more extraction passes than the cap, so leftovers carry bits.
        assert_fsum_parity(draw_values(7, size, 300, "mixed"))

    @pytest.mark.parametrize("size", (600, 3000))
    def test_negative_block_near_its_bound(self, size):
        # n values of one sign just below 2^e, with 2^(M-1) < n < 2^M: the
        # extracted parts sum past 2^(M-1+e), so sigma must be 2^(M+e).
        for seed in range(20):
            vals = -np.ldexp(1.0 - np.random.default_rng(seed).uniform(0.0, 2.0 ** -20, size), 3)
            assert_fsum_parity(vals)

    def test_rounding_decided_by_the_last_leftover(self):
        # 1 + 2^-53 is a tie that rounds to 1; only 2^-850, far below the
        # levels +-2^-40k that each take an extraction pass, rounds it up.
        levels = [s * 2.0 ** (-40 * k) for k in range(1, 21) for s in (1, -1)]
        vals = np.zeros(SMALL + 100)
        vals[: len(levels) + 3] = [1.0, 2.0 ** -53, *levels, 2.0 ** -850]
        assert ksum(vals) == 1.0 + 2.0 ** -52
        assert_fsum_parity(vals)

    @pytest.mark.parametrize("size", SIZES)
    def test_exact_cancellation_to_zero(self, size):
        vals = draw_values(3, size + size % 2, 40, "cancel")
        assert ksum(vals) == 0.0
        assert_fsum_parity(vals)
        assert_fsum_parity(-vals)
        assert_fsum_parity(np.full(size, -0.0))

    @pytest.mark.parametrize("size", (SMALL - 1, SMALL, 4096))
    def test_near_overflow(self, size):
        big = np.full(size, 0.0)
        big[:3] = [1e308, 1e308, -1e308]   # intermediate overflow
        assert_fsum_parity(big)
        big[:3] = [1e308, -1e308, 1e308]   # no overflow in order
        assert_fsum_parity(big)
        assert_fsum_parity(np.full(size, 2.0 ** 980))
        assert_fsum_parity(np.full(size, 1.7e308) * np.where(np.arange(size) % 2, 1, -1))

    @pytest.mark.parametrize("size", (3, SMALL, 4096))
    @pytest.mark.parametrize("special", ([math.nan], [math.inf], [-math.inf],
                                         [math.inf, -math.inf], [math.inf, math.inf],
                                         [math.nan, math.inf, -math.inf]))
    def test_non_finite(self, size, special):
        vals = np.linspace(-1.0, 1.0, size)
        vals[: len(special)] = special
        assert_fsum_parity(vals)


class TestKsumDtypes:
    def test_complex_componentwise(self):
        rng = np.random.default_rng(5)
        z = np.ldexp(rng.standard_normal(5000), rng.integers(-40, 40, 5000)) \
            + 1j * rng.standard_normal(5000)
        got = ksum(z)
        assert isinstance(got, complex)
        assert bits(got.real) == bits(math.fsum(z.real))
        assert bits(got.imag) == bits(math.fsum(z.imag))
        assert ksum(z.astype(np.complex64)) == complex(math.fsum(z.astype(np.complex64).real),
                                                       math.fsum(z.astype(np.complex64).imag))

    @pytest.mark.parametrize("dtype", (np.float16, np.float32, np.int64, np.int32, np.bool_))
    @pytest.mark.parametrize("size", (5, SMALL, 4000))
    def test_other_dtypes(self, dtype, size):
        rng = np.random.default_rng(9)
        vals = (rng.standard_normal(size) * 1000).astype(dtype)
        got = ksum(vals)
        assert bits(got) == bits(math.fsum(vals))

    def test_large_integers_round_like_fsum(self):
        vals = np.array([2 ** 62 + 1, 3, -(2 ** 62)] * 300, dtype=np.int64)
        assert bits(ksum(vals)) == bits(math.fsum(vals))

    def test_lists_and_scalars(self):
        assert ksum([0.1] * 1000) == math.fsum([0.1] * 1000)
        assert ksum([]) == 0.0
        assert ksum(2.5) == 2.5
        assert ksum(np.ones((40, 30))) == 1200.0

    def test_input_left_unchanged(self):
        vals = draw_values(1, 3 * BLOCK, 60, "mixed")
        kept = vals.copy()
        ksum(vals)
        assert np.array_equal(vals, kept)

    def test_strided_view(self):
        grid = np.random.default_rng(2).standard_normal((300, 40))
        view = grid[:, ::3]
        assert bits(ksum(view)) == bits(math.fsum(view.reshape(-1)))
        assert bits(ksum(grid.T)) == bits(math.fsum(grid.T.reshape(-1)))

    @pytest.mark.parametrize("dtype", (np.float64, np.float32, np.float16))
    @pytest.mark.parametrize("values", [
        [], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1e308, 1e308, -1e308], [1.0, math.nan],
        [math.inf, 1.0], [math.inf, -math.inf], [-math.inf, -2.0], [0.1] * 10,
        [1e16, 1.0, -1e16], [5e-324, 5e-324, -1e-320]])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 1e308 as float32
    def test_short_vectors_are_fsum(self, values, dtype):
        # below _SMALL, ksum of a 1-D float array is math.fsum of its values,
        # errors and the sign of zero included
        def run(fn, arg):
            try:
                return bits(fn(arg))
            except (ValueError, OverflowError) as exc:
                return type(exc).__name__
        arr = np.asarray(values, dtype=dtype)
        assert run(ksum, arr) == run(math.fsum, arr.tolist())

    @pytest.mark.parametrize("step", [2, 3, -1, -7])
    def test_short_strided_views_are_fsum(self, step):
        base = (np.random.default_rng(4).standard_normal(SMALL)
                * 10.0 ** np.arange(-8, 8).repeat(SMALL // 16))[:SMALL - 1]
        base[::11] = -0.0
        view = base[::step]
        assert len(view) < SMALL and not view.flags.c_contiguous
        assert bits(ksum(view)) == bits(math.fsum(view.tolist()))


class TestRowSums:
    """``_row_sums`` is ``ksum`` of each row's own values, padding left out."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.longdouble])
    @pytest.mark.parametrize("tail", [0, 3])
    def test_each_row_is_ksum_of_its_own_values(self, dtype, tail):
        rng = np.random.default_rng(9)
        heads = [1, 5, SMALL - tail - 1, SMALL - tail, 700]
        table = rng.standard_normal((len(heads), 700 + tail + 4)).astype(dtype)
        if np.dtype(dtype).kind == "c":
            table += 1j * rng.standard_normal(table.shape)
        table[1, :5] = -0.0
        table[1, table.shape[1] - tail:] = -0.0
        width = table.shape[1]
        want = [ksum(np.concatenate([row[:h], row[width - tail:]])) for row, h in zip(table, heads)]
        got = summing._row_sums(table, heads, tail)
        assert [(type(z), repr(z)) for z in got] == [(type(z), repr(z)) for z in want]


class TestCumsumRows:
    @pytest.mark.parametrize("shape", ((0, 40), (1, 40), (7, 1), (300, 5),
                                       (300, summing._MIN_ROW_CARRY_WIDTH), (257, 513)))
    @pytest.mark.parametrize("dtype", (np.float64, np.complex128))
    def test_equals_numpy_cumsum(self, shape, dtype):
        rng = np.random.default_rng(4)
        grid = rng.standard_normal(shape) * np.exp(rng.uniform(-30, 30, shape))
        if dtype is np.complex128:
            grid = grid + 1j * rng.standard_normal(shape)
        want = np.cumsum(grid, axis=0)
        out = np.empty_like(grid)
        assert np.array_equal(summing._cumsum_rows(grid, out), want)
        assert np.array_equal(out, want)
        summing._cumsum_rows(grid, grid)  # in place
        assert np.array_equal(grid, want)

    @pytest.mark.parametrize("cols", (1, 64))
    def test_sine_prefix_unchanged(self, cols):
        values = np.random.default_rng(8).standard_normal((400, cols))
        P = sine_prefix(values, 0.7)
        j = np.arange(1, 401, dtype=np.float64)
        want = np.cumsum(values * np.sin(j * 0.7)[:, None], axis=0)
        assert np.array_equal(P[1:], want)
        assert not P[0].any()

    @pytest.mark.parametrize("dtype", (np.float64, np.complex128))
    @pytest.mark.parametrize("count", (1, 3, 70))
    def test_sine_prefix_at_many_abscissae_is_each_column(self, dtype, count):
        # 70 abscissae take the row carry of _cumsum_rows, fewer np.cumsum
        values = np.random.default_rng(9).standard_normal((300, 1)).astype(dtype)
        xs = np.linspace(0.1, 3.0, count)
        P = sine_prefix(values, xs)
        assert P.shape == (301, count)
        for i, x in enumerate(xs):
            assert np.array_equal(P[:, i], sine_prefix(values, x)[:, 0])
