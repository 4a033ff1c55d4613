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

is implemented by :func:`row_sum_by_parts`.  Applying it in both indices
turns a rectangle sum of ``c_{jk} sin jx sin ky`` into a mixed-difference
core plus four boundary strips and four corner blocks (nine terms; the
strips have width r); that expansion is :func:`rect_sum_parts`.  Each
sum reads one evaluation of its sequence on the span widened by r, and
slices the differences, strips and corners out of it; both get their
kernels from one helper, :func:`_by_parts_kernels`.

:func:`kernel_bound_check` compares ``|D(k, +-2, x)|`` with the envelope
``pi/(4x)`` (mirrored about pi/2) for every ``k <= k_max``.  Since
``|cos| <= 1``, no order at a point can beat the bound
``1/|2 sin(r x/2)| - envelope(x)``; rounded division and subtraction are
monotone, so that holds for the computed floats too.  Points are visited
in descending bound and the scan stops once the bound drops below the
worst slack found, which skips nearly every point and returns exactly
what the exhaustive scan does.

All reductions are compensated and performed in a fixed order, so
results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .differences import _mixed, _span, _sub_blocks, check_step
from .sequences import CoefficientSequence, SingleSequence
from .summing import ksum

__all__ = [
    "SINGULARITY_FLOOR",
    "SingularityError",
    "Rect",
    "dirichlet_conj",
    "assert_admissible",
    "row_sum_by_parts",
    "rect_sum_direct",
    "rect_sum_separable",
    "rect_sum_parts",
    "kernel_bound_check",
    "KernelBoundReport",
]

SINGULARITY_FLOOR = 1e-12


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


def row_sum_by_parts(a: SingleSequence, n: int, m: int, r: int, x: float):
    """``sum_{k=n}^{m} a_k sin kx`` via the step-r summation by parts.

    Exact rearrangement of the direct sum; the two boundary sums have r
    terms each.  ``a`` is evaluated once, on ``n..m+r``, and the
    differences and strips are slices of that line.  ``x`` must avoid
    the singular abscissae of step r.
    """
    r = check_step(r)
    if not (1 <= n <= m):
        raise ValueError("need 1 <= n <= m")
    v = np.asarray(a.eval(_span(n, m + r)))
    D, D_lower, D_upper = _by_parts_kernels(n, m, r, x)
    return ksum(np.concatenate([-(v[:-r] - v[r:]) * D, v[-r:] * D_upper, -v[:r] * D_lower]))


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
    # denominators as _check_denominator computes them, in (step, point) order
    sines = np.fromiter((math.sin(0.5 * sgn * x) for sgn in steps for x in xs.tolist()),
                        dtype=np.float64, count=len(steps) * n)
    singular = np.flatnonzero(np.abs(sines) < SINGULARITY_FLOOR)
    if singular.size:
        p = int(singular[0])
        _check_denominator(steps[p // n], float(xs[p % n]))
    env = _envelope(xs)
    # the bound 1/|2 sin| - env on each (step, point)'s slack, negated so an
    # ascending stable sort visits it in descending order; built in place
    neg_bound = np.abs(sines, out=sines)
    neg_bound *= 2.0
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
