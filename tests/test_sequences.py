import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesine import (
    BUILTIN_NAMES,
    CoefficientSequence,
    ExpressionError,
    PowerDecay,
    PowerDecay2D,
    SingleSequence,
    builtin,
    compile_expression,
    from_expression,
    from_table,
    parse_sequence_file,
    scale,
    separable,
    single_from_expression,
    single_from_values,
)
from doublesine import majorants

from conftest import TWIN_EXPR


class TestPresets:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {
            "oscillating_quadratic", "mod3_log_product", "product_power", "zero"}

    def test_oscillating_quadratic_values(self, osc):
        assert osc(1, 1) == pytest.approx(1.0, abs=0.0)
        assert osc(2, 2) == pytest.approx(9.0 / 16.0, abs=0.0)
        assert osc(2, 1) == pytest.approx(3.0 / 4.0, abs=0.0)
        assert osc(3, 5) == pytest.approx((1.0 / 9.0) * (1.0 / 25.0), rel=1e-15)

    def test_oscillating_quadratic_factors(self, osc):
        a, b = osc.separable_parts
        j = np.arange(1, 50)
        np.testing.assert_allclose(
            np.asarray(osc.eval(j[:, None], j[None, :])),
            np.asarray(a.eval(j))[:, None] * np.asarray(b.eval(j))[None, :],
            rtol=1e-15)

    def test_mod3_factor_values(self, mod3):
        a, _ = mod3.separable_parts
        assert float(a.eval(1)) == pytest.approx(3.0 / math.log(2.0), rel=1e-15)
        assert float(a.eval(2)) == pytest.approx(1.0 / (2.0 * math.log(3.0)), rel=1e-15)
        assert float(a.eval(4)) == pytest.approx(3.0 / (4.0 * math.log(5.0)), rel=1e-15)
        # residue pattern: 1, 4, 7, ... get the factor 3
        k = np.arange(1, 100)
        vals = np.asarray(a.eval(k)) * k * np.log(k + 1.0)
        np.testing.assert_allclose(vals, np.where(k % 3 == 1, 3.0, 1.0), rtol=1e-12)

    def test_product_power_values(self, pp22):
        assert pp22(2, 3) == pytest.approx((2.0 ** -2) * (3.0 ** -2), rel=1e-15)
        mixed = builtin("product_power", p=1.5, q=0.5)
        assert mixed(4, 9) == pytest.approx(4.0 ** -1.5 * 9.0 ** -0.5, rel=1e-15)

    def test_product_power_needs_positive_exponents(self):
        with pytest.raises(ValueError):
            builtin("product_power", p=0.0, q=1.0)
        with pytest.raises(ValueError):
            builtin("product_power", p=1.0, q=-2.0)

    def test_zero_preset(self, zero_seq):
        j = np.arange(1, 10)
        assert np.all(np.asarray(zero_seq.eval(j[:, None], j[None, :])) == 0.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            builtin("no_such_sequence")

    def test_decay_hints_present(self, osc, mod3, pp22):
        assert osc.decay_hint is not None
        assert mod3.decay_hint is not None
        assert pp22.decay_hint is not None
        a, _ = osc.separable_parts
        assert a.decay_hint.p == 2.0
        # hint really majorizes: |a_k| <= K k^-p on a long range (allow
        # a relative ulp since the two sides round differently)
        k = np.arange(1, 5000)
        bound = a.decay_hint.K * k.astype(float) ** -a.decay_hint.p
        assert np.all(np.abs(np.asarray(a.eval(k))) <= bound * (1.0 + 1e-12))


class TestTables:
    def test_from_table_inside_and_outside(self):
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        c = from_table("t", table)
        assert c(1, 1) == 1.0 and c(2, 2) == 4.0
        assert c(3, 1) == 0.0 and c(1, 3) == 0.0 and c(0, 1) == 0.0

    def test_from_table_complex(self):
        table = np.array([[1 + 2j]])
        c = from_table("t", table)
        assert complex(c.eval(1, 1)) == 1 + 2j
        assert complex(c.eval(2, 2)) == 0j

    def test_from_table_rejects_1d(self):
        with pytest.raises(ValueError):
            from_table("t", np.arange(4.0))

    def test_single_from_values(self):
        a = single_from_values("a", np.array([5.0, 7.0]))
        assert float(a.eval(1)) == 5.0 and float(a.eval(2)) == 7.0
        assert float(a.eval(3)) == 0.0 and float(a.eval(0)) == 0.0

    def test_zero_border(self):
        table = np.arange(1.0, 13.0).reshape(3, 4)
        c = from_table("t", table)
        j = np.array([-5, -1, 0, 1, 3, 4, 9])
        got = np.asarray(c.eval(j[:, None], np.arange(-2, 8)[None, :]))
        assert got.shape == (7, 10)
        assert np.count_nonzero(got) == 8
        np.testing.assert_array_equal(got[3:5, 3:7], table[[0, 2]])
        a = single_from_values("a", np.array([5.0, 7.0]))
        np.testing.assert_array_equal(a.eval(np.array([-3, 0, 1, 2, 3, 100])),
                                      [0.0, 0.0, 5.0, 7.0, 0.0, 0.0])

    def test_float_indices(self):
        c = from_table("t", np.array([[1.0, 2.0], [3.0, 4.0]]))
        a = single_from_values("a", np.array([5.0, 7.0]))
        assert c.eval(2.0, 1.0) == 3.0 and a.eval(np.float64(2.0)) == 7.0
        np.testing.assert_array_equal(c.eval(np.array([1.0, 2.0, 3.0]), 2), [2.0, 4.0, 0.0])
        for bad in (1.5, np.array([1.0, 2.25])):
            with pytest.raises(ValueError, match="integers"):
                c.eval(bad, 1)
            with pytest.raises(ValueError, match="integers"):
                a.eval(bad)

    def test_dtype_kept(self):
        c = from_table("t", np.array([[1 + 2j, 3j]]))
        assert np.asarray(c.eval(np.arange(0, 4)[:, None], np.arange(0, 4)[None, :])).dtype \
            == np.complex128
        assert c.eval(5, 5) == 0j and np.iscomplexobj(c.eval(5, 5))
        ints = from_table("t", np.array([[1, 2]], dtype=np.int32))
        assert np.asarray(ints.eval(np.array([1, 2]), 2)).dtype == np.int32
        assert np.asarray(single_from_values("a", np.array([1j])).eval(3)).dtype == np.complex128

    def test_bool_indices_refused(self):
        c = from_table("t", np.array([[1.0, 2.0], [3.0, 4.0]]))
        a = builtin("oscillating_quadratic").separable_parts[0]
        for bad in (True, np.array([False, True]), np.bool_(True)):
            with pytest.raises(ValueError, match="integers, not booleans"):
                c.eval(bad, 1)
            with pytest.raises(ValueError, match="integers, not booleans"):
                a.eval(bad)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_integrality_is_tested_in_float64(self, dtype):
        a = builtin("oscillating_quadratic").separable_parts[0]
        c = from_table("t", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert a.eval(dtype(2.0)) == 0.75
        np.testing.assert_array_equal(a.eval(np.array([1, 2, 2048], dtype=dtype)),
                                      a.eval(np.array([1, 2, 2048])))
        assert c.eval(dtype(2.0), dtype(1.0)) == 3.0
        with pytest.raises(ValueError, match="must be integers$"):
            a.eval(dtype(2.5))

    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_matches_masked_lookup(self, seed, complex_table):
        rng = np.random.default_rng(seed)
        J, K = (int(v) for v in rng.integers(1, 8, size=2))
        table = rng.standard_normal((J, K))
        if complex_table:
            table = table + 1j * rng.standard_normal((J, K))
        c = from_table("t", table)
        j = rng.integers(-3, J + 4, size=9)
        k = rng.integers(-3, K + 4, size=6)
        inside = ((j >= 1) & (j <= J))[:, None] & ((k >= 1) & (k <= K))[None, :]
        expected = np.where(inside, table[np.clip(j, 1, J)[:, None] - 1,
                                          np.clip(k, 1, K)[None, :] - 1], 0)
        np.testing.assert_array_equal(c.eval(j[:, None], k[None, :]), expected)
        for jj, kk in zip(j.tolist(), k.tolist()):
            assert c.eval(jj, kk) == (table[jj - 1, kk - 1]
                                      if 1 <= jj <= J and 1 <= kk <= K else 0.0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_table_round_trip(self, values):
        arr = np.asarray(values)[:, None] * np.ones((1, 3))
        c = from_table("t", arr)
        j = np.arange(1, arr.shape[0] + 1)
        k = np.arange(1, 4)
        np.testing.assert_array_equal(np.asarray(c.eval(j[:, None], k[None, :])), arr)


class TestScaleAndSeparable:
    def test_scale_values_and_hint(self, osc):
        c2 = scale(osc, 2.5)
        assert c2(2, 2) == pytest.approx(2.5 * osc(2, 2), rel=1e-15)
        assert c2.decay_hint.K == pytest.approx(2.5 * osc.decay_hint.K)

    def test_separable_combines_hints(self, osc):
        a, b = osc.separable_parts
        c = separable(a, b)
        assert c.separable_parts is not None
        assert c.decay_hint is not None
        assert c(3, 4) == pytest.approx(float(a.eval(3)) * float(b.eval(4)), rel=1e-15)


class TestExpressions:
    def test_caret_is_power(self):
        fn, used = compile_expression("k^3", ("k",))
        assert fn(k=2.0) == 8.0
        assert used == {"k"}

    def test_functions(self):
        fn, _ = compile_expression("ln(k) + abs(-k) + sign(k)", ("k",))
        assert fn(k=1.0) == pytest.approx(2.0)

    def test_alternating(self):
        fn, _ = compile_expression("alternating(n)", ("n",))
        assert fn(n=2.0) == 1.0 and fn(n=3.0) == -1.0

    def test_mod(self):
        fn, _ = compile_expression("mod(n, 3)", ("n",))
        assert fn(n=7.0) == 1.0

    def test_rejects_unknown_names(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')", ("k",))
        with pytest.raises(ExpressionError):
            compile_expression("k.real", ("k",))
        with pytest.raises(ExpressionError):
            compile_expression("open('x')", ("k",))

    def test_rejects_unknown_variable(self):
        with pytest.raises(ExpressionError):
            compile_expression("j + k", ("k",))

    def test_from_expression(self):
        c = from_expression("c", "1/(j^2*k^2)")
        assert isinstance(c, CoefficientSequence)
        assert c(2, 2) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_single_from_expression_either_index(self):
        a = single_from_expression("a", "1/k")
        b = single_from_expression("b", "1/n")
        assert float(a.eval(4)) == float(b.eval(4)) == 0.25

    @pytest.mark.filterwarnings("error")
    def test_one_index_expressions_keep_complex_values(self):
        # one complex rule: an expression that omits an index keeps complex
        # values as a full expression does, and real values stay float64
        j = np.arange(1, 4)[:, None]
        k = np.arange(1, 3)[None, :]
        row = from_expression("row", "(-2)^0.5*j").eval(j, k)
        assert row.shape == (3, 2)
        np.testing.assert_allclose(row.imag, np.broadcast_to(2 ** 0.5 * j, (3, 2)), rtol=1e-15)
        assert np.iscomplexobj(from_expression("full", "(-2)^0.5/(j*k)^2").eval(j, k))
        const = single_from_expression("const", "(-2)^0.5").eval(np.arange(1, 5))
        assert const.shape == (4,) and np.all(const.imag == 2 ** 0.5)
        for expr in ("2", "1/k^2", "mod(k, 3)"):
            assert from_expression("real", expr).eval(j, k).dtype == np.float64

    def test_expressions_broadcast_over_missing_indices(self):
        j = np.arange(1, 4)[:, None]
        k = np.arange(1, 3)[None, :]
        assert np.array_equal(from_expression("one", "1").eval(j, k), np.ones((3, 2)))
        assert np.array_equal(from_expression("col", "1/k").eval(j, k),
                              np.broadcast_to([[1.0, 0.5]], (3, 2)))
        assert np.array_equal(single_from_expression("two", "2").eval(np.arange(1, 5)),
                              np.full(4, 2.0))
        assert from_expression("one", "1").eval(2, 3) == 1
        # one index: no factors, so the dense path
        assert from_expression("one", "1").separable_parts is None
        assert from_expression("col", "1/k^2").separable_parts is None

    def test_single_rejects_both_indices(self):
        with pytest.raises(ExpressionError):
            single_from_expression("a", "k + n")

    @pytest.mark.parametrize("factors", [2000, 6000])
    def test_deep_expressions_are_refused(self, factors):
        # 2000 factors parse and meet the depth cap; 6000 overflow the parser
        def chain(*names):
            return "*".join(names * (factors // len(names)))
        for build, expr in ((lambda e: from_expression("c", e), chain("j", "k")),
                            (lambda e: single_from_expression("a", e), chain("k")),
                            (majorants.compile_b, chain("l"))):
            with pytest.raises(ExpressionError, match="nested"):
                build(expr)

    def test_long_balanced_product_stays_dense(self):
        # shallow, but its factor chains would nest one level per factor
        def balanced(n):
            return "1" if n == 1 else f"({balanced(n // 2)})*({balanced(n - n // 2)})"
        c = from_expression("c", f"{balanced(256)}*j*k")
        assert c.separable_parts is None and c.eval(2, 3) == 6.0

    @given(st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_expression_matches_formula(self, j, k):
        c = from_expression("c", "(2 + alternating(j))/(j^2) * (2 + alternating(k))/(k^2)")
        expected = (2 + (-1) ** j) / j ** 2 * (2 + (-1) ** k) / k ** 2
        assert c(j, k) == pytest.approx(expected, rel=1e-13)


def _table(shape, complex_values):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape)
    return values + 1j * rng.standard_normal(shape) if complex_values else values


VIEW_SEQUENCES = {
    **{name: builtin(name) for name in BUILTIN_NAMES},
    "product_power(0.5,2.5)": builtin("product_power", p=0.5, q=2.5),
    "-2.5*osc": scale(builtin("oscillating_quadratic"), -2.5),
    "-0.5*mod3": scale(builtin("mod3_log_product"), -0.5),
    "1j*product_power": scale(builtin("product_power", p=1.5, q=1.0), 1j),
    "table": from_table("table", _table((5, 7), False)),
    "complex table": from_table("complex table", _table((6, 4), True)),
    "one": from_expression("one", "1"),
    "1/k^2": from_expression("1/k^2", "1/k^2"),
    "nonsep": from_expression("nonsep", "1/(j*k*(j+k))"),
    "factored twin": from_expression("twin", TWIN_EXPR),
    "hinted twin": CoefficientSequence(  # a non-separable sequence with a hint
        "hinted twin", from_expression("t", "(2+alternating(j))*(2+alternating(k))/(j^2*k^3)").eval,
        decay_hint=PowerDecay2D(p=2.0, q=3.0, K=9.0)),
}


def _assert_hint_bounds(values, hint, j, k=None):
    """``|values| <= K / (j^p k^q)`` (``K / j^p`` for a line), up to rounding."""
    bound = hint.K * np.asarray(j, dtype=np.float64) ** -hint.p
    if k is not None:
        bound = bound * np.asarray(k, dtype=np.float64) ** -hint.q
    assert np.all(np.abs(np.asarray(values)) <= bound * (1.0 + 1e-12))


class TestViews:
    """``c.T`` and ``c.row(n)`` read ``c.eval`` with the indices swapped or
    fixed, and their hints bound what they read."""

    @given(st.sampled_from(sorted(VIEW_SEQUENCES)),
           st.lists(st.integers(1, 60), min_size=1, max_size=6),
           st.lists(st.integers(1, 60), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_views_read_the_sequence(self, name, js, ks):
        c = VIEW_SEQUENCES[name]
        j, k = np.asarray(js)[:, None], np.asarray(ks)[None, :]
        values = np.asarray(c.eval(j, k))
        np.testing.assert_array_equal(np.asarray(c.T.eval(k.T, j.T)), values.T)
        np.testing.assert_array_equal(np.asarray(c.T.T.eval(j, k)), values)
        for col, n in enumerate(ks):
            np.testing.assert_array_equal(np.asarray(c.row(n).eval(j[:, 0])), values[:, col])
        for row, m in enumerate(js):
            np.testing.assert_array_equal(np.asarray(c.T.row(m).eval(k[0])), values[row])
        if c.decay_hint is not None:
            _assert_hint_bounds(values, c.decay_hint, j, k)
            _assert_hint_bounds(values.T, c.T.decay_hint, k.T, j.T)
        for n, line in [(n, c.row(n)) for n in ks] + [(m, c.T.row(m)) for m in js]:
            if line.decay_hint is not None:
                _assert_hint_bounds(line.eval(np.arange(1, 61)), line.decay_hint,
                                    np.arange(1, 61))

    @pytest.mark.parametrize("name", sorted(VIEW_SEQUENCES))
    def test_transpose_is_built_once(self, name):
        c = VIEW_SEQUENCES[name]
        assert c.T is c.T and c.T.T is c
        assert (c.T.separable_parts is None) == (c.separable_parts is None)
        if c.separable_parts is not None:
            assert c.T.separable_parts == c.separable_parts[::-1]

    def test_line_hints(self, osc):
        a, b = osc.separable_parts
        assert osc.row(3).decay_hint == PowerDecay(p=2.0, K=3.0 * float(b.eval(3)))
        for expr in ("1/(j*k)", "1/(j*k*(j+k))"):  # factored or not, no hint
            assert from_expression("c", expr).row(4).decay_hint is None
        hinted = VIEW_SEQUENCES["hinted twin"]
        assert hinted.row(2).decay_hint == PowerDecay(p=2.0, K=9.0 / 8.0)
        assert hinted.T.row(2).decay_hint == PowerDecay(p=3.0, K=9.0 / 4.0)
        pp = builtin("product_power", p=1.5, q=2.0)
        assert pp.T.decay_hint == PowerDecay2D(p=2.0, q=1.5, K=1.0)
        assert pp.T.row(4).decay_hint == PowerDecay(p=2.0, K=4.0 ** -1.5)


# Atoms in one index.  The integer ones are exact, so a product of two is
# exact below 2^53; the constants are powers of two, so they scale exactly.
_INT_ATOMS = ("{}", "({}+1)", "({}-1)", "(2+alternating({}))", "sign({}-2)")
_REAL_ATOMS = _INT_ATOMS + ("ln({}+1)", "{}^0.5")
_SCALES = ("2", "0.5", "4", "0.25")


@st.composite
def product_expressions(draw):
    """A j-only, a k-only and a constant factor under ``*``, ``/``, an integer
    power of a product or a product divisor, with an optional unary minus.
    The whole expression and the product of its factors round at most four
    times between them, so they agree within 4 ulp."""
    shape = draw(st.sampled_from(("chain", "power", "divisor")))
    atoms = _REAL_ATOMS if shape == "chain" else _INT_ATOMS
    x, y = (draw(st.sampled_from(atoms)).format(i) for i in draw(st.permutations("jk")))
    scale = draw(st.sampled_from(_SCALES))
    if shape == "chain":
        ops = draw(st.lists(st.sampled_from("*/"), min_size=2, max_size=2))
        expr = f"{x}{ops[0]}{y}{ops[1]}{scale}"
    elif shape == "power":
        expr = f"{scale}*({x}*{y})^{draw(st.sampled_from((2, 3, -1, -2)))}"
    else:
        expr = f"{scale}/({x}*{y})"
    return f"-({expr})" if draw(st.booleans()) else expr


_INDICES = st.lists(st.integers(1, 2 ** 20), min_size=1, max_size=6)


class TestProductFactoring:
    """``from_expression`` factors a product whose factors each use one index;
    ``eval`` stays the whole expression."""

    @given(product_expressions(), _INDICES, _INDICES)
    @settings(max_examples=300, deadline=None)
    def test_factors_multiply_to_the_expression(self, expr, js, ks):
        c = from_expression("c", expr)
        assert c.separable_parts is not None, expr
        a, b = c.separable_parts
        j, k = np.asarray(js)[:, None], np.asarray(ks)[None, :]
        with np.errstate(all="ignore"):
            whole = np.asarray(c.eval(j, k))
            factored = np.asarray(a.eval(j)) * np.asarray(b.eval(k))
        assert whole.shape == factored.shape
        finite = np.isfinite(whole)
        np.testing.assert_array_equal(np.isnan(factored), np.isnan(whole), err_msg=expr)
        np.testing.assert_array_equal(factored[np.isinf(whole)], whole[np.isinf(whole)],
                                      err_msg=expr)
        w, f = whole[finite], factored[finite]
        ulps = np.abs(w - f) / np.spacing(np.maximum(np.abs(w), np.abs(f)))
        assert np.all(ulps <= 4.0), (expr, float(ulps.max()))

    @pytest.mark.parametrize("expr", ["(j*k)^2", "-3/(j/k)^-2", "1/(j^2*k^3)", "-(j*k)",
                                      "ln(j+1)*alternating(k)/2", "+j*-k"])
    def test_products_factor(self, expr):
        assert from_expression("c", expr).separable_parts is not None

    @pytest.mark.parametrize("expr", ["1/(j+k)", "mod(j*k, 3)", "ln(j*k)", "1/(j*k*(j+k))",
                                      "(j*k)^0.5", "j*k + 1", "((j-5)*(k-5))^0.5",
                                      "(j*k)^k", "pow(j*k, 2)"])
    def test_mixed_factors_stay_dense(self, expr):
        assert from_expression("c", expr).separable_parts is None

    def test_constants_join_the_j_factor(self):
        a, b = from_expression("c", "-3*k/(2*j)").separable_parts
        assert float(a.eval(3)) == -0.5 and float(b.eval(5)) == 5.0


class TestSequenceFile:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text(
            "# two definitions\n"
            "double_one = 1/(j*k)\n"
            "\n"
            "single_one = 1/n^2\n")
        table = parse_sequence_file(path)
        assert set(table) == {"double_one", "single_one"}
        assert isinstance(table["double_one"], CoefficientSequence)
        assert isinstance(table["single_one"], SingleSequence)
        assert table["double_one"](2, 4) == pytest.approx(1.0 / 8.0)

    def test_product_lines_factor(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("c = 1/(j^2*k^3)\nd = 1/(j*k*(j+k))\n")
        table = parse_sequence_file(path)
        assert table["c"].separable_parts is not None and table["d"].separable_parts is None
        a, b = table["c"].separable_parts
        assert float(a.eval(2) * b.eval(3)) == table["c"](2, 3) == 1.0 / 108.0

    def test_parse_file_bad_line(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("not an assignment\n")
        with pytest.raises(ExpressionError):
            parse_sequence_file(path)
