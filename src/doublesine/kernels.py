"""Conjugate Dirichlet-type kernels and summation by parts.

The kernel of order k and step r (r a nonzero signed integer) is

    D(k, r, x) = cos((k + r/2) x) / (2 sin((r/2) x)).

It is singular where ``sin(r x / 2)`` vanishes, i.e. at ``x = 2 l pi / r``;
evaluation within ``SINGULARITY_FLOOR`` of a zero denominator raises
:class:`SingularityError` naming the nearest excluded point.

The single-index identity (step r >= 1, m >= n >= 1, arbitrary a)

    sum_{k=n}^{m} a_k sin kx  =  - sum_{k=n}^{m} (a_k - a_{k+r}) D(k,  r, x)
                                 + sum_{k=m+1}^{m+r} a_k         D(k, -r, x)
                                 - sum_{k=n}^{n+r-1} a_k         D(k, -r, x)

is implemented in batch form by :func:`row_sums_by_parts`: many lines
of one step r, each with its own span and abscissa, padded into one
table.  One kernel table holds ``cos((k + r/2) x_i) / (2 s_i)`` for every
line's core and strips, with ``s_i`` the ``math.sin`` denominator of
:func:`dirichlet_conj`; the core and strip terms are one product of
tables, and each line's own terms (never its padding) are rounded once,
so every line's sum is the one-line sum bit for bit.
:func:`row_sum_by_parts` is the one-line call.  Applying the identity in
both indices turns a rectangle sum of ``c_{jk} sin jx sin ky`` into a
mixed-difference core plus four boundary strips and four corner blocks
(nine terms; the strips have width r); that expansion is
:func:`rect_sum_parts`, whose kernels come from
:func:`_by_parts_kernels`, the one-line form of the kernel table.  Each
sum reads one evaluation of its sequence on the span widened by r, and
slices the differences, strips and corners out of it.

:func:`kernel_bound_check` compares ``|D(k, +-2, x)|`` with the envelope
``pi/(4x)`` (mirrored about pi/2) for every ``k <= k_max``.  Since
``|cos| <= 1``, no order at a point can beat the bound
``1/|2 sin(r x/2)| - envelope(x)``; rounded division and subtraction are
monotone, so that holds for the computed floats too.  Points are visited
in descending bound and the scan stops once the bound drops below the
worst slack found, which skips nearly every point and returns exactly
what the exhaustive scan does.  The bound takes its denominators from
one ``np.sin`` call, which may round otherwise than the ``math.sin`` of
the kernels; ``|sin|`` is shrunk by ``8 eps`` relative before the
division, so while ``np.sin`` is within 4 ulps of ``math.sin`` the
computed bound is at least the ``math.sin`` one, by the same
monotonicity, and the answer stays exact.  Every ``np.sin`` value below
twice ``SINGULARITY_FLOOR`` is checked again with ``math.sin``, in
(step, point) order, so the refusal is the one the kernels would give.

All reductions are compensated and performed in a fixed order, so
results are reproducible bit for bit.  :func:`verify_identities` checks
these identities on seeded random draws, and the envelope and sine parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .differences import _identity_differences, _mixed, _span, _sub_blocks, check_step
from .sequences import CoefficientSequence, SingleSequence, from_table
from .summing import _row_sums, ksum

__all__ = [
    "SINGULARITY_FLOOR",
    "SingularityError",
    "Rect",
    "dirichlet_conj",
    "assert_admissible",
    "row_sum_by_parts",
    "row_sums_by_parts",
    "rect_sum_direct",
    "rect_sum_separable",
    "rect_sum_parts",
    "kernel_bound_check",
    "KernelBoundReport",
    "verify_identities",
]

SINGULARITY_FLOOR = 1e-12
# |np.sin| is shrunk by this factor in the envelope check's pruning bound, so
# the bound holds while np.sin is within 4 ulps of math.sin
_SIN_MARGIN = 1.0 - 8.0 * np.finfo(np.float64).eps


class SingularityError(ValueError):
    """Kernel evaluated too close to a singular abscissa."""


@dataclass(frozen=True)
class Rect:
    """Index rectangle ``m <= j <= M``, ``n <= k <= N`` (all >= 1)."""

    m: int
    M: int
    n: int
    N: int

    def __post_init__(self):
        if not (1 <= self.m <= self.M and 1 <= self.n <= self.N):
            raise ValueError(f"invalid rectangle {self}: need 1 <= m <= M and 1 <= n <= N")


def _check_denominator(r: int, x: float) -> float:
    s = math.sin(0.5 * r * x)
    if abs(s) < SINGULARITY_FLOOR:
        l = round(x * r / (2.0 * math.pi))
        point = 2.0 * l * math.pi / r
        raise SingularityError(
            f"kernel step {r} is singular near x = 2*{l}*pi/{r} = {point!r}; got x = {x!r}")
    return s


def _kernel_step(r) -> None:
    if r == 0 or not isinstance(r, (int, np.integer)):
        raise ValueError(f"kernel step must be a nonzero integer, got {r!r}")


def assert_admissible(x: float, r: int) -> None:
    """Raise :class:`SingularityError` if x sits in a singular band for step r."""
    _kernel_step(r)
    _check_denominator(r, x)
    _check_denominator(-r, x)


def dirichlet_conj(k: int, r: int, x: float) -> float:
    """Kernel value ``cos((k + r/2) x) / (2 sin((r/2) x))``.

    ``k >= 0``; ``r`` is a nonzero signed integer.
    """
    if k < 0:
        raise ValueError(f"kernel order must be >= 0, got {k}")
    _kernel_step(r)
    s = _check_denominator(r, x)
    return math.cos((k + 0.5 * r) * x) / (2.0 * s)


def _kernel_row(ks: np.ndarray, r: int, x: float) -> np.ndarray:
    """Vectorised kernel over orders ``ks`` at fixed step and abscissa."""
    s = _check_denominator(r, x)
    return np.cos((ks + 0.5 * r) * x) / (2.0 * s)


def _by_parts_kernels(lo: int, hi: int, r: int, x: float):
    """The kernels of the step-r summation by parts over ``lo..hi``:
    ``D(k, r, x)`` on ``lo..hi``, then ``D(k, -r, x)`` on the lower strip
    ``lo..lo+r-1`` and on the upper strip ``hi+1..hi+r``.  The ``+r`` row
    comes first, so a singular ``x`` is reported for step ``+r``."""
    return (_kernel_row(_span(lo, hi), r, x), _kernel_row(_span(lo, lo + r - 1), -r, x),
            _kernel_row(_span(hi + 1, hi + r), -r, x))


def _kernel_table(starts, lengths, r: int, xs) -> np.ndarray:
    """The kernels of :func:`_by_parts_kernels` for many lines, one table
    row per line: line i runs over ``n..m`` with ``n = starts[i]``, ``m = n
    + lengths[i] - 1``, at abscissa ``xs[i]``.  Row i holds ``D(k, r, x)``
    on ``n..m`` from its first column, then, in its last ``2 r`` columns,
    ``D(k, -r, x)`` on the upper strip ``m+1..m+r`` and on the lower strip
    ``n..n+r-1``; the columns between are padding.  Each line's ``+r``
    denominator is checked before its ``-r`` one, line by line, so a
    singular ``x`` is reported as the one-line call reports it."""
    plus, minus = [], []
    for x in xs:
        plus.append(2.0 * _check_denominator(r, x))
        minus.append(2.0 * _check_denominator(-r, x))
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    width = int(lengths.max())
    # k + r/2 and k - r/2 are exact in float64, however they are formed
    table = np.empty((len(starts), width + 2 * r))
    np.add(starts[:, None], np.arange(width) + 0.5 * r, out=table[:, :width])
    strip = np.arange(r) - 0.5 * r
    np.add((starts + lengths)[:, None], strip, out=table[:, width:width + r])
    np.add(starts[:, None], strip, out=table[:, width + r:])
    table *= np.asarray(xs, dtype=np.float64)[:, None]
    np.cos(table, out=table)
    table[:, :width] /= np.array(plus)[:, None]
    table[:, width:] /= np.array(minus)[:, None]
    return table


def row_sums_by_parts(lines, lengths, starts, r: int, xs) -> list:
    """:func:`row_sum_by_parts` of many lines of one step r, bit for bit.

    Row i of the 2-D ``lines`` holds line i's coefficients ``a_k``,
    ``k = n..m+r`` with ``n = starts[i]`` and ``m = n + lengths[i] - 1``,
    from its first column; the rest of the row is padding (zeros, say) and
    enters no sum.  Returns ``sum_{k=n}^{m} a_k sin(k xs[i])`` for each
    line, in order.  The kernels are one table (:func:`_kernel_table`); the
    core terms ``-(a_k - a_{k+r}) D(k, r, x)`` and the strip terms are one
    product of that table with one coefficient table, and each line's own
    terms are rounded once (:func:`~doublesine.summing._row_sums`).
    """
    r = check_step(r)
    lines = np.asarray(lines)
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) == 0:
        return []
    if lengths.min() < 1 or np.min(starts) < 1:
        raise ValueError("need 1 <= n <= m")
    width = int(lengths.max())
    if lines.ndim != 2 or lines.shape[0] != len(lengths) or lines.shape[1] < width + r:
        raise ValueError(f"need one line of at least {width + r} coefficients per length")
    kernels = _kernel_table(starts, lengths, r, xs)
    coef = np.empty(kernels.shape, dtype=lines.dtype)
    core = coef[:, :width]
    np.subtract(lines[:, :width], lines[:, r:width + r], out=core)
    np.negative(core, out=core)
    coef[:, width:width + r] = np.take_along_axis(lines, lengths[:, None] + np.arange(r), axis=1)
    np.negative(lines[:, :r], out=coef[:, width + r:])
    terms = np.multiply(coef, kernels,
                        out=coef if coef.dtype == np.result_type(coef, kernels) else None)
    return _row_sums(terms, lengths, 2 * r)


def row_sum_by_parts(a: SingleSequence, n: int, m: int, r: int, x: float):
    """``sum_{k=n}^{m} a_k sin kx`` via the step-r summation by parts.

    Exact rearrangement of the direct sum; the two boundary sums have r
    terms each.  ``a`` is evaluated once, on ``n..m+r``, and the
    differences and strips are slices of that line, summed by the one-line
    call of :func:`row_sums_by_parts`.  ``x`` must avoid the singular
    abscissae of step r.
    """
    r = check_step(r)
    if not (1 <= n <= m):
        raise ValueError("need 1 <= n <= m")
    v = np.asarray(a.eval(_span(n, m + r)))
    return row_sums_by_parts(v[None, :], [m - n + 1], [n], r, [x])[0]


def rect_sum_direct(c: CoefficientSequence, rect: Rect, x: float, y: float):
    """Plain double sum ``sum_{j=m}^{M} sum_{k=n}^{N} c_{jk} sin jx sin ky``.

    Rows are processed with ascending j, each row compensated over
    ascending k, and the row totals compensated again.  Coefficients are
    read in the sub-blocks of :func:`~doublesine.differences._sub_blocks`,
    which bound the working set; every row is summed on its own, so the
    sub-blocks do not change the result.
    """
    ks = np.arange(rect.n, rect.N + 1, dtype=np.int64)
    sin_ky = np.sin(ks * y)
    rows = []
    for j0, j1 in _sub_blocks(rect.m, rect.M, len(ks)):
        js = np.arange(j0, j1 + 1, dtype=np.int64)
        block = np.asarray(c.eval(js[:, None], ks[None, :])) * sin_ky
        rows.extend(math.sin(j * x) * ksum(row) for j, row in zip(js.tolist(), block))
    return ksum(np.asarray(rows))


def rect_sum_separable(c: CoefficientSequence, rect: Rect, x: float, y: float):
    """Factored rectangle sum for a separable sequence.

    ``(sum_j a_j sin jx)(sum_k b_k sin ky)``; requires separable parts.
    """
    if c.separable_parts is None:
        raise ValueError(f"sequence {c.name!r} has no separable parts")
    a, b = c.separable_parts
    js = np.arange(rect.m, rect.M + 1, dtype=np.int64)
    ks = np.arange(rect.n, rect.N + 1, dtype=np.int64)
    left = ksum(np.asarray(a.eval(js)) * np.sin(js * x))
    right = ksum(np.asarray(b.eval(ks)) * np.sin(ks * y))
    return left * right


def rect_sum_parts(c: CoefficientSequence, rect: Rect, x: float, y: float, r: int = 2):
    """Rectangle sum via double summation by parts (nine blocks).

    Exact rearrangement of :func:`rect_sum_direct` for any step
    r in {1, 2, 3, ...}; both abscissae must avoid the singular points
    of step r.  ``c`` is evaluated once, on ``m..M+r`` by ``n..N+r``
    (the cells the nine blocks read), and every block is a slice of that
    table.  Blocks are accumulated in a fixed order: the mixed-
    difference core, then the j strips, k strips, and corners.
    """
    r = check_step(r)
    Dj, DjL, DjU = _by_parts_kernels(rect.m, rect.M, r, x)
    Dk, DkL, DkU = _by_parts_kernels(rect.n, rect.N, r, y)
    t = np.asarray(c.eval(_span(rect.m, rect.M + r)[:, None], _span(rect.n, rect.N + r)[None, :]))
    blocks = [
        _mixed(t, r) * Dj[:, None] * Dk[None, :],
        -(t[-r:, :-r] - t[-r:, r:]) * DjU[:, None] * Dk[None, :],
        (t[:r, :-r] - t[:r, r:]) * DjL[:, None] * Dk[None, :],
        -(t[:-r, -r:] - t[r:, -r:]) * Dj[:, None] * DkU[None, :],
        t[-r:, -r:] * DjU[:, None] * DkU[None, :],
        -t[:r, -r:] * DjL[:, None] * DkU[None, :],
        (t[:-r, :r] - t[r:, :r]) * Dj[:, None] * DkL[None, :],
        -t[-r:, :r] * DjU[:, None] * DkL[None, :],
        t[:r, :r] * DjL[:, None] * DkL[None, :],
    ]
    return ksum(np.concatenate([b.reshape(-1) for b in blocks]))


@dataclass(frozen=True)
class KernelBoundReport:
    """Worst slack of ``|D(k, +-2, x)|`` against the envelope bound."""

    worst_slack: float
    witness_x: float
    witness_k: int
    witness_r: int
    n_points: int
    k_max: int


def _envelope(x: np.ndarray) -> np.ndarray:
    """``pi/(4x)`` on (0, pi/2), ``pi/(4(pi-x))`` on (pi/2, pi)."""
    return np.where(x <= 0.5 * math.pi,
                    math.pi / (4.0 * x),
                    math.pi / (4.0 * (math.pi - x)))


def kernel_bound_check(x_grid: np.ndarray, k_max: int = 512) -> KernelBoundReport:
    """Check ``|D(k, +-2, x)| <= envelope(x)`` over a grid and k <= k_max.

    The envelope is specific to step 2, so both steps +2 and -2 are
    checked.  The grid must be finite and stay inside (0, pi) away from
    the endpoints, and ``k_max >= 0``.  Returns the worst (most
    positive) slack ``|D| - envelope`` with its witness, the first point
    in (step +2, then -2; grid order) that attains it; a negative worst
    slack means the bound held everywhere.

    Only points whose bound ``1/|2 sin(r x/2)| - envelope(x)`` reaches
    the worst slack found so far are evaluated, in descending bound (see
    the module docstring): every point attaining the worst slack has a
    bound at least that large, so all of them are visited.
    """
    xs = np.asarray(x_grid, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("x grid must be a non-empty one-dimensional array")
    if not np.all(np.isfinite(xs)):
        raise ValueError("grid points must be finite")
    if np.any(xs <= 0.0) or np.any(xs >= math.pi):
        raise ValueError("grid must lie strictly inside (0, pi)")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    ks = np.arange(0, k_max + 1, dtype=np.int64)
    steps = (2, -2)
    n = xs.size
    # denominators sin(r x/2) in (step, point) order, from one np.sin call; it
    # may round otherwise than math.sin, so every one below twice the floor is
    # checked as _check_denominator computes it, in that order
    sines = np.sin(np.multiply.outer([0.5 * sgn for sgn in steps], xs)).reshape(-1)
    for p in np.flatnonzero(np.abs(sines) < 2.0 * SINGULARITY_FLOOR).tolist():
        _check_denominator(steps[p // n], float(xs[p % n]))
    env = _envelope(xs)
    # the bound 1/|2 sin| - env on each (step, point)'s slack, from |sin| shrunk
    # by _SIN_MARGIN so that it bounds the math.sin bound too, negated so an
    # ascending stable sort visits it in descending order; built in place
    neg_bound = np.abs(sines, out=sines)
    neg_bound *= 2.0 * _SIN_MARGIN
    np.divide(-1.0, neg_bound, out=neg_bound)
    neg_bound.reshape(len(steps), n)[:] += env
    worst, witness = -math.inf, (0, 0)
    for p in np.argsort(neg_bound, kind="stable"):
        if -neg_bound[p] < worst:
            break
        vals = np.abs(_kernel_row(ks, steps[p // n], float(xs[p % n])))
        idx = int(np.argmax(vals))
        slack = float(vals[idx] - env[p % n])
        if slack > worst or (slack == worst and p < witness[0]):
            worst, witness = slack, (int(p), idx)
    p, idx = witness
    return KernelBoundReport(worst_slack=worst, witness_x=float(xs[p % n]),
                             witness_k=int(ks[idx]), witness_r=steps[p // n],
                             n_points=n, k_max=int(k_max))


# --- randomized identity checks ----------------------------------------------

_SAFETY_GAP = 0.05  # stay this far from singular abscissae when sampling x


def _sample_x(rng: np.random.Generator, r: int) -> float:
    """Uniform x in (gap, pi - gap), rejecting singular bands of step r."""
    while True:
        x = float(rng.uniform(_SAFETY_GAP, math.pi - _SAFETY_GAP))
        singular = (abs(x - 2.0 * l * math.pi / r) < _SAFETY_GAP
                    for l in range(0, r + 1))
        if not any(singular):
            return x


def _by_parts_check(results, tol: float):
    """Worst relative error over ``(direct, by_parts, where)`` results in case order."""
    worst, worst_case, cases, failures = 0.0, None, 0, 0
    for i, (direct, parts, where) in enumerate(results):
        cases += 1
        rel = abs(parts - direct) / (1.0 + abs(direct))
        if rel > worst:
            worst, worst_case = rel, {"case": i, **where}
        if rel > tol:
            failures += 1
    return ({"cases": cases, "failures": failures, "worst_rel_err": worst,
             "worst_case": worst_case, "tolerance": tol}, cases, worst)


# the longest row a case draws; a chunk of cases holds about _SUB_BLOCK_CELLS values
_MAX_ROW_LENGTH = 64


def _draw_row_case(rng: np.random.Generator):
    """One random row case ``(r, n, m, values, x)``: ``values`` holds ``a_1..a_{m+r}``."""
    r = int(rng.integers(1, 4))
    n = int(rng.integers(1, 21))
    length = int(rng.integers(1, _MAX_ROW_LENGTH + 1))
    m = n + length - 1
    values = rng.uniform(-1.0, 1.0, size=m + r)
    return r, n, m, values, _sample_x(rng, r)


def _row_results(rng: np.random.Generator, cases: int):
    """``(direct, by_parts, where)`` of each random row case, in case order.

    The cases are drawn in chunks of about ``_SUB_BLOCK_CELLS`` values (the
    :func:`_sub_blocks` of the cases, each ``_MAX_ROW_LENGTH`` wide at most), in
    the order a case-by-case loop draws them, and each chunk is checked
    one step r at a time: a table of every line of that step, one
    :func:`row_sums_by_parts` call and one table of direct terms
    ``a_k sin(k x)``, each case's own terms rounded once.
    """
    for first, last in _sub_blocks(0, cases - 1, _MAX_ROW_LENGTH):
        drawn = [_draw_row_case(rng) for _ in range(last - first + 1)]
        results = [None] * len(drawn)
        for r in sorted({case[0] for case in drawn}):
            ids = [i for i, case in enumerate(drawn) if case[0] == r]
            _, ns, ms, values, xs = zip(*(drawn[i] for i in ids))
            starts = np.array(ns, dtype=np.int64)
            lengths = np.array(ms, dtype=np.int64) - starts + 1
            width = int(lengths.max())
            lines = np.zeros((len(ids), width + r))
            for line, n, v in zip(lines, ns, values):
                line[:len(v) - n + 1] = v[n - 1:]
            orders = starts[:, None] + np.arange(width)
            direct = _row_sums(lines[:, :width] * np.sin(orders * np.array(xs)[:, None]), lengths)
            parts = row_sums_by_parts(lines, lengths, starts, r, xs)
            for i, n, m, x, d, p in zip(ids, ns, ms, xs, direct, parts):
                results[i] = (d, p, {"r": r, "n": n, "m": m, "x": x})
        yield from results


def _identity_rect_sums(rng: np.random.Generator, cases: int, size: int, tol: float):
    def draw(i):
        table = rng.uniform(-1.0, 1.0, size=(size, size)) \
            + 1j * rng.uniform(-1.0, 1.0, size=(size, size))
        c = from_table(f"table{i}", table)
        m = int(rng.integers(1, size // 2))
        M = int(rng.integers(m, size + 1))
        n = int(rng.integers(1, size // 2))
        N = int(rng.integers(n, size + 1))
        rect = Rect(m, M, n, N)
        x, y = _sample_x(rng, 2), _sample_x(rng, 2)
        return (rect_sum_direct(c, rect, x, y), rect_sum_parts(c, rect, x, y, r=2),
                {"rect": [m, M, n, N], "x": x, "y": y})
    return _by_parts_check((draw(i) for i in range(cases)), tol)


def _identity_kernel_bounds(points: int, k_max: int):
    left = np.linspace(0.0, 0.5 * math.pi, points + 2)[1:-1]
    right = np.linspace(0.5 * math.pi, math.pi, points + 2)[1:-1]
    report = kernel_bound_check(np.concatenate([left, right]), k_max=k_max)
    return ({"points": 2 * points, "k_max": k_max,
             "worst_slack": report.worst_slack,
             "witness": {"x": report.witness_x, "k": report.witness_k,
                         "r": report.witness_r},
             "failures": int(report.worst_slack > 0.0)},
            2 * report.n_points * (report.k_max + 1), report.worst_slack)


def _identity_sine_parity(k_max: int):
    xs = np.linspace(0.0, math.pi, 101)[1:-1]
    j = np.arange(1, k_max + 1, dtype=np.float64)[:, None]
    lhs = np.sin(j * (math.pi - xs[None, :]))
    rhs_val = ((-1.0) ** (j + 1.0)) * np.sin(j * xs[None, :])
    worst = float(np.max(np.abs(lhs - rhs_val), initial=0.0))
    tol = 1e-11 * k_max
    return ({"k_max": k_max, "worst_abs_err": worst, "tolerance": tol,
             "failures": int(worst > tol)}, lhs.size, worst)


def verify_identities(seed: int, *, cases_1d: int, cases_2d: int, table_size: int,
                      delta_grid: int, kernel_points: int, k_max: int, tol: float) -> dict:
    """The randomized identity sweep from one generator seeded with ``seed``:
    ``name -> (entry, cases, worst)`` per check, in report order; a check
    with nothing to check reports 0 cases and worst 0.0; a ``tol`` that is
    not >= 0 is refused."""
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    for name, value, least in (("cases_1d", cases_1d, 0), ("cases_2d", cases_2d, 0),
                               ("delta_grid", delta_grid, 0),
                               ("kernel_points", kernel_points, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if cases_2d >= 1 and table_size < 4:
        raise ValueError(f"table_size must be >= 4 when cases_2d >= 1, got {table_size}")
    rng = np.random.default_rng(seed)
    return {
        "row_sum_by_parts": _by_parts_check(_row_results(rng, cases_1d), tol),
        "rect_sum_by_parts": _identity_rect_sums(rng, cases_2d, table_size, tol),
        "difference_decompositions": _identity_differences(rng, delta_grid),
        "kernel_envelope": _identity_kernel_bounds(kernel_points, k_max),
        "sine_parity": _identity_sine_parity(k_max),
    }
