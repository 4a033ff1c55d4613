"""Coefficient sequences for double sine series.

A double sequence ``c_{jk}`` (indices start at 1) is described by a
:class:`CoefficientSequence`: a name, a vectorised evaluator, an optional
factorisation ``c_{jk} = a_j * b_k`` into two :class:`SingleSequence`
parts, and an optional power-decay hint ``|c_{jk}| <= K / (j^p k^q)``
that downstream scans use to bound truncated tails.

Three families of constructors are provided:

* :func:`builtin` returns the named presets used throughout the test
  battery (an oscillating quadratic product, a residue-modulated
  logarithmic product, pure power products, and the zero sequence);
* :func:`separable` builds a product sequence from two single-index
  factors;
* :func:`from_expression` / :func:`parse_sequence_file` compile a small
  arithmetic expression language (variables ``j``, ``k``; functions
  ``ln``, ``pow``, ``mod``, ``abs``, ``sign``, ``alternating``; both
  ``^`` and ``**`` denote powers) into sequence evaluators; a double
  sequence whose product factors each use one index also gets its two
  factors.

Evaluators accept scalar ints or integer ``numpy`` arrays and broadcast,
so callers can evaluate whole index blocks in one call.  All presets are
real-valued; table-backed sequences may be complex.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "PowerDecay",
    "PowerDecay2D",
    "SingleSequence",
    "CoefficientSequence",
    "separable",
    "builtin",
    "BUILTIN_NAMES",
    "from_table",
    "single_from_values",
    "scale",
    "ExpressionError",
    "compile_expression",
    "from_expression",
    "single_from_expression",
    "parse_sequence_file",
]


@dataclass(frozen=True)
class PowerDecay:
    """Certified bound ``|a_k| <= K / k^p`` valid for every k >= 1.

    Its methods are the tail bounds it implies, None where p is too small;
    the hint classes alone read p, q and K.
    """

    p: float
    K: float

    def weighted_sup(self, H: int) -> float | None:
        """``sup_{k > H} k |a_k| <= K (H+1)^{1-p}``; ``k^{1-p}`` falls for p >= 1."""
        return None if self.p < 1.0 else self.K * float(H + 1) ** (1.0 - self.p)

    def block_sup(self, H: int) -> float | None:
        """``sup_{M > H} sum_{k=M}^{2M} |a_k|``: M + 1 <= 2M terms, twice the weighted sup."""
        w = self.weighted_sup(H)
        return None if w is None else 2.0 * w

    def integral_tail(self, H: int) -> float | None:
        """``sum_{k > H} |a_k| <= K H^{1-p} / (p-1)`` by integral comparison (p > 1)."""
        return None if self.p <= 1.0 else self.K * (float(H) ** (1.0 - self.p) / (self.p - 1.0))

    def d2_tail(self, H: int) -> float | None:
        """``sum_{j > H} |a_j - a_{j+2}|``: twice :meth:`integral_tail`,
        since ``|a_j - a_{j+2}| <= |a_j| + |a_{j+2}|`` (p > 1)."""
        tail = self.integral_tail(H)
        return None if tail is None else 2.0 * tail

    def sum_from(self, n: int) -> float | None:
        """``sum_{k >= n} |a_k| <= K (n^{-p} + n^{1-p} / (p-1))`` (p > 1)."""
        if self.p <= 1.0:
            return None
        return self.K * (float(n) ** (-self.p) + float(n) ** (1.0 - self.p) / (self.p - 1.0))


@dataclass(frozen=True)
class PowerDecay2D:
    """Certified bound ``|c_{jk}| <= K / (j^p k^q)`` for all j, k >= 1.

    Its tail bounds are K times products of bounds of its unit-K
    :attr:`marginals`, None where one of those is.
    """

    p: float
    q: float
    K: float

    @property
    def marginals(self) -> tuple[PowerDecay, PowerDecay]:
        return PowerDecay(self.p, 1.0), PowerDecay(self.q, 1.0)

    def block_sup(self, H: int) -> float | None:
        """Double block sums ``sum_{j=M}^{2M} sum_{k=N}^{2N} |c_{jk}|`` with
        ``max(M, N) > H``: a marginal's block bound past H times 2, the
        other's at any index."""
        bounds = [f.block_sup(H) for f in self.marginals]
        return None if None in bounds else max(2.0 * self.K * bound for bound in bounds)

    def d22_tail(self, m: int, n: int, H: int) -> float | None:
        """``sum |d22 c_{jk}|`` over ``j >= m, k >= n`` outside ``[m, H] x [n, H]``:
        four terms per difference, on ``j > H, k >= n`` and ``j >= m, k > H``."""
        a, b = self.marginals
        parts = (a.integral_tail(H), b.sum_from(n), a.sum_from(m), b.integral_tail(H))
        if None in parts:
            return None
        beyond_j, from_n, from_m, beyond_k = parts
        return 4.0 * self.K * (beyond_j * from_n + from_m * beyond_k)

    def d20_tail(self, m: int, n: int, sup_horizon: int, sum_horizon: int) -> float | None:
        """What ``sup_{k>=n} k sum_{j>=m} |d20 c_{jk}|`` misses with k scanned to
        ``sup_horizon`` and j to ``sum_horizon``: two terms per difference, the
        j tail at scanned k plus all of ``k > sup_horizon``."""
        a, b = self.marginals
        parts = (a.integral_tail(sum_horizon), b.weighted_sup(n - 1), a.sum_from(m),
                 b.weighted_sup(sup_horizon))
        if None in parts:
            return None
        beyond_sum, at_n, from_m, past_sup = parts
        return 2.0 * self.K * beyond_sum * at_n + 2.0 * self.K * from_m * past_sup


@dataclass(frozen=True)
class SingleSequence:
    """A single-index sequence ``a_k``, k >= 1.

    ``eval`` maps an int or integer array to values of matching shape.
    ``decay_hint`` certifies ``|a_k| <= K / k^p`` when present.
    """

    name: str
    eval: Callable
    decay_hint: PowerDecay | None = None

    def __call__(self, k):
        return self.eval(k)


@dataclass(frozen=True)
class CoefficientSequence:
    """A double sequence ``c_{jk}``, j, k >= 1.

    ``eval(j, k)`` broadcasts its integer arguments.  When the sequence
    factors as ``a_j * b_k`` the two factors are kept in
    ``separable_parts`` so block scans can run on one index at a time.
    Column scans run as row scans of the transpose :attr:`T`, and a
    row scan reads the line :meth:`row`; this class alone knows how a
    sequence factors into those views.
    """

    name: str
    eval: Callable
    separable_parts: tuple[SingleSequence, SingleSequence] | None = None
    decay_hint: PowerDecay2D | None = None

    def __call__(self, j, k):
        return self.eval(j, k)

    @cached_property
    def T(self) -> CoefficientSequence:
        """The transpose ``c_{kj}``: factors ``(b, a)``, hint with p and q
        exchanged.  Built once per sequence; its own ``T`` is ``self``."""
        c_eval, hint = self.eval, self.decay_hint
        t = CoefficientSequence(
            name=f"{self.name}.T",
            eval=lambda j, k: c_eval(k, j),
            separable_parts=None if self.separable_parts is None else self.separable_parts[::-1],
            decay_hint=None if hint is None else PowerDecay2D(p=hint.q, q=hint.p, K=hint.K),
        )
        t.__dict__["T"] = self
        return t

    def row(self, n: int) -> SingleSequence:
        """The line ``j -> c_{jn}`` at a fixed second index ``n``.

        Its hint is the first factor's with K scaled by ``|b_n|`` when
        the sequence is separable, else ``K n^-q / j^p`` from the
        sequence's own hint.
        """
        hint = None
        if self.separable_parts is not None:
            a, b = self.separable_parts
            if a.decay_hint is not None:
                b_n = float(abs(np.asarray(b.eval(n)).item()))
                hint = replace(a.decay_hint, K=a.decay_hint.K * b_n)
        elif self.decay_hint is not None:
            h = self.decay_hint
            hint = PowerDecay(p=h.p, K=h.K * float(n) ** (-h.q))
        c_eval = self.eval
        return SingleSequence(f"{self.name}[:,{n}]", lambda j: c_eval(j, n), hint)


def separable(a: SingleSequence, b: SingleSequence, name: str | None = None) -> CoefficientSequence:
    """Product sequence ``c_{jk} = a_j * b_k``.

    The decay hint is derived from the factor hints when both are known.
    """
    hint = None
    if a.decay_hint is not None and b.decay_hint is not None:
        hint = PowerDecay2D(p=a.decay_hint.p, q=b.decay_hint.p, K=a.decay_hint.K * b.decay_hint.K)

    def eval_(j, k):
        return a.eval(j) * b.eval(k)

    return CoefficientSequence(
        name=name or f"{a.name}*{b.name}",
        eval=eval_,
        separable_parts=(a, b),
        decay_hint=hint,
    )


def _int_index(i) -> np.ndarray:
    """Indices as int64.  Bool is refused; real floats must be integral
    within 1e-9, tested in float64 so that float16 keeps the tolerance."""
    arr = np.asarray(i)
    if arr.dtype.kind == "b":
        raise ValueError("sequence indices must be integers, not booleans")
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f":
            arr = arr.astype(np.float64)
        rounded = np.rint(arr)
        if not np.all(np.abs(arr - rounded) < 1e-9):
            raise ValueError("sequence indices must be integers")
        arr = rounded
    return arr.astype(np.int64)


def _alternating(n) -> np.ndarray:
    """``(-1)^n`` for integer n, evaluated without float powers."""
    ni = _int_index(n)
    return np.where(ni % 2 == 0, 1.0, -1.0)


def _osc_eval(n):
    ni = _int_index(n)
    nf = ni.astype(np.float64)
    return (2.0 + np.where(ni % 2 == 0, 1.0, -1.0)) / (nf * nf)


def _mod3_eval(n):
    ni = _int_index(n)
    nf = ni.astype(np.float64)
    return np.where(ni % 3 == 1, 3.0, 1.0) / (nf * np.log(nf + 1.0))


def _power_factor(p: float) -> Callable:
    def eval_(n):
        nf = _int_index(n).astype(np.float64)
        return nf ** (-p)

    return eval_


def _zero_eval(n):
    ni = _int_index(n)
    return np.zeros(np.shape(ni), dtype=np.float64) if np.ndim(ni) else 0.0


_OSC_FACTOR = SingleSequence(
    name="oscillating_quadratic_factor",
    eval=_osc_eval,
    decay_hint=PowerDecay(p=2.0, K=3.0),
)

_MOD3_FACTOR = SingleSequence(
    name="mod3_log_factor",
    eval=_mod3_eval,
    # ln(n+1) >= ln 2 for n >= 1, so a_n <= 3 / (n ln 2).
    decay_hint=PowerDecay(p=1.0, K=3.0 / math.log(2.0)),
)

BUILTIN_NAMES = ("oscillating_quadratic", "mod3_log_product", "product_power", "zero")


def builtin(name: str, p: float = 1.0, q: float = 1.0) -> CoefficientSequence:
    """Return a named preset sequence.

    ``oscillating_quadratic``
        ``c_{jk} = (2 + (-1)^j)/j^2 * (2 + (-1)^k)/k^2``.
    ``mod3_log_product``
        ``c_{jk} = a_j a_k`` with ``a_n = 3/(n ln(n+1))`` when n = 1
        (mod 3) and ``1/(n ln(n+1))`` otherwise.
    ``product_power``
        ``c_{jk} = j^{-p} k^{-q}``; exponents must be positive.
    ``zero``
        the zero sequence.
    """
    if name == "oscillating_quadratic":
        return separable(_OSC_FACTOR, _OSC_FACTOR, name=name)
    if name == "mod3_log_product":
        return separable(_MOD3_FACTOR, _MOD3_FACTOR, name=name)
    if name == "product_power":
        if not (p > 0 and q > 0):  # NaN too
            raise ValueError("product_power exponents must be positive")
        fa = SingleSequence(f"power_{p:g}", _power_factor(p), PowerDecay(p=p, K=1.0))
        fb = SingleSequence(f"power_{q:g}", _power_factor(q), PowerDecay(p=q, K=1.0))
        return separable(fa, fb, name=f"product_power({p:g},{q:g})")
    if name == "zero":
        z = SingleSequence("zero_factor", _zero_eval, PowerDecay(p=1.0, K=0.0))
        return separable(z, z, name="zero")
    raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(BUILTIN_NAMES)}")


def _border_index(i, size: int) -> np.ndarray:
    """Index into a table of ``size`` entries with a zero border at 0 and
    ``size + 1``: indices outside ``1..size`` land on the border."""
    return np.minimum(np.maximum(_int_index(i), 0), size + 1)


def from_table(name: str, values: np.ndarray) -> CoefficientSequence:
    """Sequence backed by a finite table; zero outside the table.

    ``values[j-1, k-1]`` supplies ``c_{jk}`` for in-range indices.  Handy
    for randomised identity tests; complex tables are allowed.  The table
    is copied once into an array with a zero border (row and column 0 and
    one past the end), so indices are clipped into that border and every
    evaluation is a single read.
    """
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError("table must be two-dimensional")
    J, K = arr.shape
    padded = np.zeros((J + 2, K + 2), dtype=arr.dtype)
    padded[1:-1, 1:-1] = arr

    def eval_(j, k):
        return padded[_border_index(j, J), _border_index(k, K)]

    return CoefficientSequence(name=name, eval=eval_)


def single_from_values(name: str, values: np.ndarray) -> SingleSequence:
    """Single sequence backed by a finite table; zero outside (a zero border,
    as in :func:`from_table`)."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("table must be one-dimensional")
    K = arr.shape[0]
    padded = np.zeros(K + 2, dtype=arr.dtype)
    padded[1:-1] = arr

    def eval_(k):
        return padded[_border_index(k, K)]

    return SingleSequence(name=name, eval=eval_)


def scale(c: CoefficientSequence, t: float) -> CoefficientSequence:
    """Scalar multiple ``t * c`` with hints rescaled accordingly."""
    hint = None if c.decay_hint is None else replace(c.decay_hint, K=abs(t) * c.decay_hint.K)
    parts = None
    if c.separable_parts is not None:
        a, b = c.separable_parts
        a_hint = None if a.decay_hint is None else replace(a.decay_hint,
                                                           K=abs(t) * a.decay_hint.K)
        parts = (SingleSequence(f"{t:g}*{a.name}", lambda k, _f=a.eval: t * _f(k), a_hint), b)
    c_eval = c.eval
    return CoefficientSequence(
        name=f"{t:g}*{c.name}",
        eval=lambda j, k, _f=c_eval: t * _f(j, k),
        separable_parts=parts,
        decay_hint=hint,
    )


# --- expression language ------------------------------------------------

class ExpressionError(ValueError):
    """Raised when a sequence expression uses unsupported syntax."""


_FUNCTIONS: dict[str, Callable] = {
    "ln": np.log,
    "pow": np.power,
    "mod": np.mod,
    "abs": np.abs,
    "sign": np.sign,
    "alternating": _alternating,
}

# Deepest expression tree accepted, in AST nodes from the root: compiling
# a tree and splitting a product recurse once per level, well inside
# Python's recursion limit of about 1000 at this depth.
_MAX_DEPTH = 200

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _validate(node: ast.AST, variables: tuple[str, ...]) -> set[str]:
    """Whitelist walk; returns the variable names the expression uses."""
    used: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Expression, ast.Constant, ast.Load)):
            if isinstance(sub, ast.Constant) and not isinstance(sub.value, (int, float)):
                raise ExpressionError(f"unsupported constant {sub.value!r}")
        elif isinstance(sub, ast.BinOp):
            if not isinstance(sub.op, _ALLOWED_BINOPS):
                raise ExpressionError(f"unsupported operator {type(sub.op).__name__}")
        elif isinstance(sub, ast.UnaryOp):
            if not isinstance(sub.op, _ALLOWED_UNARY):
                raise ExpressionError(f"unsupported operator {type(sub.op).__name__}")
        elif isinstance(sub, ast.Call):
            if not isinstance(sub.func, ast.Name) or sub.func.id not in _FUNCTIONS:
                raise ExpressionError("only ln, pow, mod, abs, sign, alternating calls are allowed")
            if sub.keywords:
                raise ExpressionError("keyword arguments are not allowed")
        elif isinstance(sub, ast.Name):
            if sub.id in _FUNCTIONS:
                continue
            if sub.id not in variables:
                raise ExpressionError(f"unknown variable {sub.id!r}; allowed: {variables}")
            used.add(sub.id)
        elif isinstance(sub, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                              ast.Mod, ast.USub, ast.UAdd)):
            continue
        else:
            raise ExpressionError(f"unsupported syntax {type(sub).__name__}")
    return used


def _parse(expr: str, variables: tuple[str, ...]) -> tuple[ast.Expression, set[str]]:
    """The validated tree of an expression and the variables it uses.

    A tree nested deeper than ``_MAX_DEPTH`` is refused, measured level
    by level before anything recurses on it.
    """
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {expr!r}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ExpressionError("expression is nested too deeply to parse") from exc
    level, depth = [tree], 0
    while level:
        depth += 1
        if depth > _MAX_DEPTH:
            raise ExpressionError(f"expression is nested deeper than {_MAX_DEPTH} levels")
        level = [child for node in level for child in ast.iter_child_nodes(node)]
    return tree, _validate(tree, variables)


def _evaluator(tree: ast.Expression) -> Callable:
    """``fn(**variables)`` evaluating a validated tree with numpy.  Python
    number arithmetic that divides by zero or overflows a float, and an
    operation that numpy refuses for its operands' types (``mod`` of a
    complex value), raise :class:`ExpressionError`."""
    code = compile(tree, "<sequence-expression>", "eval")
    env = {"__builtins__": {}}
    env.update(_FUNCTIONS)

    def fn(**kwargs):
        scope = dict(env)
        scope.update(kwargs)
        try:
            return eval(code, scope)  # noqa: S307 - ast-whitelisted in _validate
        except ZeroDivisionError as exc:
            raise ExpressionError(f"expression {ast.unparse(tree)!r} divides by zero: "
                                  f"{exc}") from None
        except TypeError as exc:
            raise ExpressionError(f"expression {ast.unparse(tree)!r} cannot be evaluated: "
                                  f"{exc}") from None
        except OverflowError as exc:
            raise ExpressionError(f"expression {ast.unparse(tree)!r} overflows a float: "
                                  f"{exc.args[-1]}") from None

    return fn


def compile_expression(expr: str, variables: tuple[str, ...]) -> tuple[Callable, set[str]]:
    """Compile an expression into ``fn(**variables)``.

    Returns the callable together with the set of variables actually
    referenced.  Evaluation is pure numpy, so array arguments broadcast.
    ``^`` means exponentiation with the usual mathematical precedence
    (tighter than ``*``/``/``), so it is rewritten to ``**`` before
    parsing; the grammar has no string literals, making the textual
    rewrite unambiguous.
    """
    tree, used = _parse(expr, variables)
    return _evaluator(tree), used


def _integer_power(node: ast.AST) -> bool:
    """Whether an exponent is a signed integral number, such as 2 or -3.0."""
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and (isinstance(node.value, int)
                                               or float(node.value).is_integer())


def _product_factors(node: ast.AST, divide: bool = False) -> list[tuple[ast.AST, bool]]:
    """The factors of a ``*``/``/`` chain as ``(factor, is_divisor)`` pairs.

    Unary minus is a constant factor -1.  A divisor that is a product
    contributes each of its factors as a divisor.  An integer power of a
    product is the product of its factors' powers; any other power stays
    one factor, since ``((j-5)*(k-5))^0.5`` is real where its factors are not.
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return (_product_factors(node.left, divide)
                + _product_factors(node.right, divide != isinstance(node.op, ast.Div)))
    if isinstance(node, ast.UnaryOp):
        sign = [(ast.Constant(-1), divide)] if isinstance(node.op, ast.USub) else []
        return sign + _product_factors(node.operand, divide)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _integer_power(node.right):
        inner = _product_factors(node.left)
        if len(inner) > 1:
            return [(ast.BinOp(f, ast.Pow(), node.right), divide != d) for f, d in inner]
    return [(node, divide)]


def _factor_sequence(name: str, index: str, factors: list[tuple[ast.AST, bool]]) -> SingleSequence:
    """The single sequence of a product of factors in one index, left to right."""
    body = None
    for node, divide in factors:
        if body is None:
            body = ast.BinOp(ast.Constant(1), ast.Div(), node) if divide else node
        else:
            body = ast.BinOp(body, ast.Div() if divide else ast.Mult(), node)
    fn = _evaluator(ast.fix_missing_locations(ast.Expression(body)))
    return SingleSequence(name, lambda n: fn(**{index: _int_index(n).astype(np.float64)}))


def _split_product(name: str, tree: ast.Expression) -> tuple[SingleSequence, SingleSequence] | None:
    """Factors ``(a, b)`` with ``c_{jk} = a_j b_k`` of an expression in both
    indices, or None if one of its product factors mixes them or it has
    more than ``_MAX_DEPTH`` factors (each factor sequence chains its
    factors, nesting one level per factor).  Constant factors join ``a``."""
    factors = _product_factors(tree.body)
    if len(factors) > _MAX_DEPTH:
        return None
    groups: dict[str, list] = {"j": [], "k": []}
    for node, divide in factors:
        used = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)} & groups.keys()
        if len(used) > 1:
            return None
        groups[used.pop() if used else "j"].append((node, divide))
    return (_factor_sequence(f"{name}.j", "j", groups["j"]),
            _factor_sequence(f"{name}.k", "k", groups["k"]))


def _broadcast(values, *indices):
    """Expression values at the broadcast shape of the indices.

    Every operation of the expression language is elementwise, so only
    an expression that omits an index (a constant, or ``1/k^2`` as a
    double sequence) returns fewer values than requested.  Complex values
    stay complex, as a full expression's do; any other values become float64.
    """
    shape = np.broadcast_shapes(*(np.shape(i) for i in indices))
    return np.broadcast_to(np.asarray(values, dtype=np.result_type(values, np.float64)), shape)


def from_expression(name: str, expr: str) -> CoefficientSequence:
    """Double sequence ``c_{jk}`` defined by an expression in ``j, k``.

    An expression in both indices whose product factors each use at most
    one of them, such as ``(2+alternating(j))/j^2*(2+alternating(k))/k^2``,
    also gets ``separable_parts`` (see :func:`_split_product`); ``eval``
    stays the whole expression either way.
    """
    tree, used = _parse(expr, ("j", "k"))
    fn = _evaluator(tree)
    full = used == {"j", "k"}

    def eval_(j, k):
        jf = _int_index(j).astype(np.float64)
        kf = _int_index(k).astype(np.float64)
        values = fn(j=jf, k=kf)
        return values if full else _broadcast(values, jf, kf)

    parts = _split_product(name, tree) if full else None
    return CoefficientSequence(name=name, eval=eval_, separable_parts=parts)


def single_from_expression(name: str, expr: str) -> SingleSequence:
    """Single sequence ``a_k`` defined by an expression in ``k`` (alias ``n``)."""
    fn, used = compile_expression(expr, ("k", "n"))
    if {"k", "n"} <= used:
        raise ExpressionError("use either k or n as the index, not both")

    def eval_(k):
        kf = _int_index(k).astype(np.float64)
        values = fn(k=kf, n=kf)
        return values if used else _broadcast(values, kf)

    return SingleSequence(name=name, eval=eval_)


def parse_sequence_file(path) -> dict[str, CoefficientSequence | SingleSequence]:
    """Load ``name = expression`` definitions from a text file.

    Blank lines and ``#`` comments are skipped.  An expression that
    mentions ``j`` defines a double sequence (``k`` may be absent); one
    that only mentions ``k``/``n`` (or no variable) defines a single
    sequence.
    """
    out: dict[str, CoefficientSequence | SingleSequence] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ExpressionError(f"{path}:{lineno}: expected 'name = expression'")
            name, expr = (part.strip() for part in line.split("=", 1))
            if not name.isidentifier():
                raise ExpressionError(f"{path}:{lineno}: bad sequence name {name!r}")
            if name in out:
                raise ExpressionError(f"{path}:{lineno}: duplicate sequence {name!r}")
            _, used = compile_expression(expr, ("j", "k", "n"))
            if "j" in used and "n" in used:
                raise ExpressionError(f"{path}:{lineno}: mix of j and n is ambiguous")
            if "j" in used:
                out[name] = from_expression(name, expr)
            else:
                out[name] = single_from_expression(name, expr)
    return out
