"""Convergence and divergence diagnostics for double sine series.

The quantities here are the ones a regular-convergence argument runs on:

* :func:`lemma1_quantity` -- ``m n  sum_{j>=m} sum_{k>=n} |d22 c_{jk}|``,
  the weighted tail of step-2 mixed differences;
* :func:`lemma2_quantities` -- the two one-sided companions
  ``m sup_{k>=n} k sum_{j>=m} |d20 c_{jk}|`` and its transpose;
* :func:`lemma_schedule` -- lemma 1 or 2 at (m, m) along a schedule of
  scales, each series with its :func:`classify_probe` verdict; the
  scales' ranges nest, so one pass over the largest serves them all;
* :func:`lemma3_check` -- a pointwise sandwich: ``m n c_{mn}`` must stay
  below a constant multiple of block sums of the sequence;
* :func:`uniform_tail_probe` -- evaluates the rectangle partial sums
  ``sum_{j=m}^{M} sum_{k=n}^{N} c_{jk} sin jx sin ky`` of any sequence on
  one lattice and watches their sup beyond a moving ``m + n > t`` decay;
  for a real separable sequence each sum is a product of two interval
  sums, and the sup comes from their per-start maxima, not from every
  product;
* :func:`eta_search` -- finds the smallest threshold past which four
  smallness conditions hold, the gateway to the uniform tail bound;
* :func:`theorem7_bound_check` -- compares sampled rectangle sums beyond
  the threshold against the closed-form envelope
  ``(1 + 2 pi C + 2 pi + 1.5 pi^2 C + pi^2) eps``;
* :func:`remark2_divergence` -- evaluates the residue-modulated preset at
  its divergence point and checks growth against a closed-form minorant.

Infinite sums and sups are scanned up to explicit horizons; power-decay
hints, when present, close the scans with certified tail bounds, and
every result records whether it is certified or merely truncated.  A
lemma quantity or term, probe sum or eta factor array value that is not
finite is refused where it is produced, naming the first such point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .differences import (_SUB_BLOCK_CELLS, _blocked_sum, _doublings, _nested_sums, _span,
                          _steps, _sub_blocks, delta_r0_grid, delta_rr_grid)
from .kernels import Rect, rect_sum_direct, rect_sum_separable
from .majorants import (DoubleScanTable, Measurement, _check_horizon, _dense_cap, _rect_abs_sum,
                        _scan_table, _sup_measurement, compile_b)
from .sequences import CoefficientSequence, SingleSequence, builtin
from .summing import ksum, sine_prefix

__all__ = [
    "Verdict",
    "TailReport",
    "classify_tail",
    "classify_probe",
    "loglog_slope",
    "lemma1_quantity",
    "lemma2_quantities",
    "lemma_schedule",
    "Lemma3Result",
    "lemma3_check",
    "ProbeConfig",
    "ProbeTraceRow",
    "interior_grid",
    "uniform_tail_probe",
    "uniform_tail_trace",
    "EtaCondition",
    "EtaSearchResult",
    "EtaCapError",
    "eta_search",
    "Theorem7Result",
    "theorem7_bound_check",
    "remark2_divergence",
    "remark2_cross_checks",
]

_MAX_GENERIC_CELLS = 5 * 10**7
_FLAT_RTOL = 1e-12


class Verdict(str, Enum):
    DECAYING = "decaying"
    FLAT = "flat"
    GROWING = "growing"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailReport:
    """A scalar diagnostic evaluated along an increasing scale schedule.

    ``values[i]`` is the diagnostic at ``schedule[i]``; ``bounded[i]``
    records whether that value is certified (no truncated, unbounded
    tail).  ``reference_values`` optionally carries a per-scale
    comparison series (e.g. a closed-form lower bound).  ``fit`` is the
    log-log slope of values against schedule when all values are
    positive.
    """

    schedule: tuple[int, ...]
    values: tuple[float, ...]
    verdict: Verdict
    fit: float | None = None
    bounded: tuple[bool, ...] | None = None
    reference_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.values) != len(self.schedule):
            raise ValueError("values and schedule lengths differ")
        if any(b >= a for a, b in zip(self.schedule[1:], self.schedule)):
            raise ValueError("schedule must be strictly increasing")
        if self.bounded is not None and len(self.bounded) != len(self.schedule):
            raise ValueError("bounded flags and schedule lengths differ")
        if (self.reference_values is not None
                and len(self.reference_values) != len(self.schedule)):
            raise ValueError("reference values and schedule lengths differ")


def _verdict(values, decaying) -> Verdict:
    """The verdict both classifiers share, given their decay rule.

    Fewer than two values are inconclusive.  Otherwise: decaying when
    ``decaying(v)`` holds for the list of floats; growing when strictly
    increasing across the schedule; flat when all values lie within
    relative ``_FLAT_RTOL`` of the first; anything else is inconclusive.
    """
    v = [float(x) for x in values]
    if len(v) < 2:
        return Verdict.INCONCLUSIVE
    if decaying(v):
        return Verdict.DECAYING
    if all(b > a for a, b in zip(v, v[1:])):
        return Verdict.GROWING
    ref = max(abs(v[0]), 1e-300)
    if all(abs(x - v[0]) <= _FLAT_RTOL * ref for x in v):
        return Verdict.FLAT
    return Verdict.INCONCLUSIVE


def _require_finite(values, name) -> None:
    """Refuse the first of ``values`` (a float or an array) that is not
    finite; ``name(i)`` names the place of the value at flat index i."""
    flat = np.ravel(values)
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name(i)} is {float(flat[i])!r}, not finite")


def _check_positive(name: str, value: float) -> None:
    if not value > 0:  # NaN too
        raise ValueError(f"{name} must be > 0, got {value!r}")


def classify_tail(values, *, decay_factor: float = 100.0) -> Verdict:
    """Verdict for weighted-tail scans such as ``sup_{j+k=s} jk |c_{jk}|``.

    decaying: the last three values strictly decrease and the final
    value is below the first divided by ``decay_factor``.  growing,
    flat and inconclusive as in :func:`_verdict`.  A ``decay_factor``
    that is not > 0 is refused.
    """
    _check_positive("decay_factor", decay_factor)
    return _verdict(values, lambda v: len(v) >= 3 and v[-3] > v[-2] > v[-1]
                    and v[-1] < v[0] / decay_factor)


def _check_probe_rule(band: float, decay_ratio: float) -> None:
    """Refuse a ``decay_ratio`` that is not > 0 and a ``band`` that is not >= 0."""
    _check_positive("decay_ratio", decay_ratio)
    if not band >= 0:  # NaN too
        raise ValueError(f"band must be >= 0, got {band!r}")


def classify_probe(values, *, band: float = 0.05, decay_ratio: float = 4.0) -> Verdict:
    """Verdict for sup-style probes, tolerant of local wiggle.

    decaying: every step grows by at most ``band`` (relatively) and the
    final value is below the first divided by ``decay_ratio``.  growing,
    flat and inconclusive as in :func:`_verdict`.  A ``decay_ratio``
    that is not > 0 and a ``band`` that is not >= 0 are refused.
    """
    _check_probe_rule(band, decay_ratio)
    return _verdict(values, lambda v: all(b <= a * (1.0 + band) for a, b in zip(v, v[1:]))
                    and v[-1] <= v[0] / decay_ratio)


def loglog_slope(schedule, values) -> float | None:
    """Least-squares slope of log(values) against log(schedule)."""
    xs = np.asarray(schedule, dtype=np.float64)
    ys = np.asarray(values, dtype=np.float64)
    if len(xs) < 2 or np.any(ys <= 0.0) or np.any(xs <= 0.0):
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# --- factor scans ----------------------------------------------------------

def _d2_terms(a: SingleSequence):
    """``block(lo, hi)``: ``|a_j - a_{j+2}|`` for ``j = lo..hi`` from one
    evaluation of ``a`` on ``lo..hi + 2``."""
    return lambda lo, hi: _steps(np.asarray(a.eval(_span(lo, hi + 2))), 2, hi - lo + 1)


def _d2_tail(a: SingleSequence, H: int) -> float | None:
    return None if a.decay_hint is None else a.decay_hint.d2_tail(H)


def _d2_scan(a: SingleSequence, m: int, H: int) -> Measurement:
    """``sum_{j=m}^{H} |a_j - a_{j+2}|`` plus the hint's tail certificate past H.

    The terms are one column ``m..H`` of the exact reducer
    :func:`~doublesine.differences._blocked_sum`, each sub-block from one
    evaluation of ``a``: the :func:`~doublesine.differences._variation`
    of one evaluation, bit for bit, in a working set of a sub-block.
    """
    return Measurement(_blocked_sum(m, H, 1, _d2_terms(a)), _d2_tail(a, H))


def _d2_scans(a: SingleSequence, starts: list[int], H: int):
    """``m -> _d2_scan(a, m, H)`` for each of the strictly increasing
    ``starts``, bit for bit, from one pass over ``starts[0]..H``
    (:func:`~doublesine.differences._nested_sums`).  A start the pass
    leaves None is scanned alone when it is asked for, so a refusal comes
    where the scan alone raises it."""
    sums = dict(zip(starts, _nested_sums(starts, H, _d2_terms(a))))
    tail = _d2_tail(a, H)
    return lambda m: _d2_scan(a, m, H) if sums[m] is None else Measurement(sums[m], tail)


def _weights(b: SingleSequence, n: int, H: int) -> np.ndarray:
    """``k |b_k|`` for ``k = n..H``."""
    k = np.arange(n, H + 1, dtype=np.int64)
    return k.astype(np.float64) * np.abs(np.asarray(b.eval(k)))


def _weight_tail(b: SingleSequence, H: int) -> float | None:
    return None if b.decay_hint is None else b.decay_hint.weighted_sup(H)


def _weight_sup_scan(b: SingleSequence, n: int, H: int) -> Measurement:
    """``sup_{k >= n} k |b_k|`` scanned to H with a tail certificate."""
    return _sup_measurement(float(np.max(_weights(b, n, H))), _weight_tail(b, H))


def _weight_sup_scans(b: SingleSequence, starts: list[int], H: int):
    """``n -> _weight_sup_scan(b, n, H)`` for each of the strictly
    increasing ``starts``, none past H, from one evaluation of ``b`` on
    ``starts[0]..H`` and one reverse running maximum.  ``max`` is exact and
    propagates NaN, so each sup is the scan's alone, bit for bit."""
    sups = np.maximum.accumulate(_weights(b, starts[0], H)[::-1])[::-1]
    tail = _weight_tail(b, H)
    return lambda n: _sup_measurement(float(sups[n - starts[0]]), tail)


def _quadrant_sums(c: CoefficientSequence, starts: list[int], H: int):
    """``m -> sum_{j,k=m}^{H} |d22 c_{jk}|`` for each of the strictly
    increasing ``starts`` that the cell guard lets through (it refuses the
    others before they are asked for), bit for bit, from one pass over the
    largest quadrant's L-shaped strips
    (:func:`~doublesine.differences._nested_sums`).  A start the pass
    leaves None is summed alone when it is asked for."""
    starts = [m for m in starts if (H - m + 1) ** 2 <= _MAX_GENERIC_CELLS]
    lo = starts[0]
    block = lambda j0, j1: np.abs(delta_rr_grid(c, 2, j0, j1, lo, H))  # noqa: E731
    sums = dict(zip(starts, _nested_sums(starts, H, block, square=True)))
    return lambda m: _rect_abs_sum(c, 2, m, H, m, H) if sums[m] is None else sums[m]


def _shared(make):
    """``read(f, start)``: ``make(f)(start)``, with ``make(f)`` made at the
    first read of the object ``f`` and kept: each factor object is read in
    one pass, made where its first scan alone would run."""
    made = {}

    def read(f, start):
        if id(f) not in made:
            made[id(f)] = make(f)
        return made[id(f)](start)

    return read


def _guard_generic(cells: int) -> None:
    """Refuse a generic scan over more than ``_MAX_GENERIC_CELLS`` cells.

    The scan holds one sub-block of cells at a time, so the cap bounds its
    run time, not its memory."""
    if cells > _MAX_GENERIC_CELLS:
        raise ValueError(
            f"generic (non-separable) scan over {cells} cells is over the cap of "
            f"{_MAX_GENERIC_CELLS} cells, which bounds its run time (it holds "
            f"{_SUB_BLOCK_CELLS} cells at a time); lower the horizons or supply a "
            "separable sequence")


def _product(x: Measurement, y: Measurement, sx, sy) -> Measurement:
    """``(sx x) (sy y)`` of two certified measurements: when both are
    bounded, the missed part is at most
    ``sx sy (x t_y + t_x y + t_x t_y)``."""
    value = (sx * x.value) * (sy * y.value)
    if not (x.bounded and y.bounded):
        return Measurement(value=value)
    tx, ty = x.tail_bound, y.tail_bound
    return Measurement(value=value, tail_bound=(sx * sy) * (x.value * ty + tx * y.value + tx * ty))


def _lemma1(c: CoefficientSequence, m: int, n: int, horizon: int, d2, quadrant) -> Measurement:
    """:func:`lemma1_quantity` from its scans: ``d2(f, start)``, the
    :func:`_d2_scan` of a factor, and ``quadrant(m, n)``, the dense sum of
    ``|d22 c|`` over ``m..horizon`` by ``n..horizon``."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    _check_horizon(horizon, max(m, n))
    if c.separable_parts is not None:
        a, b = c.separable_parts
        out = _product(d2(a, m), d2(b, n), m, n)
    else:
        _guard_generic((horizon - m + 1) * (horizon - n + 1))
        value = m * n * quadrant(m, n)
        tail = None if c.decay_hint is None else c.decay_hint.d22_tail(m, n, horizon)
        out = Measurement(value=value, tail_bound=None if tail is None else m * n * tail)
    _require_finite(out.value, lambda _: f"lemma 1 quantity at (m, n) = ({m}, {n})")
    return out


def lemma1_quantity(c: CoefficientSequence, m: int, n: int,
                    horizon: int = 1 << 16) -> Measurement:
    """``m n sum_{j>=m} sum_{k>=n} |d22 c_{jk}|`` with step-2 differences.

    Scanned up to ``horizon`` in both indices; a power-decay hint closes
    the tail, otherwise the result is flagged unbounded.  A scan that
    would start past ``horizon`` raises
    :class:`~doublesine.majorants.HorizonError`.
    """
    return _lemma1(c, m, n, horizon, lambda f, start: _d2_scan(f, start, horizon),
                   lambda m, n: _rect_abs_sum(c, 2, m, horizon, n, horizon))


def _lemma2(c: CoefficientSequence, m: int, n: int, sup_horizon: int, sum_horizon: int, d2,
            weight_sup) -> tuple[Measurement, Measurement]:
    """:func:`lemma2_quantities` from its factor scans: ``d2(f, start)``,
    the :func:`_d2_scan` of a factor to ``sum_horizon``, and
    ``weight_sup(f, start)``, its :func:`_weight_sup_scan` to
    ``sup_horizon``."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    _check_horizon(sup_horizon, max(m, n))
    out = (_one_sided(c, m, n, sup_horizon, sum_horizon, d2, weight_sup),
           _one_sided(c.T, n, m, sup_horizon, sum_horizon, d2, weight_sup))
    _require_finite([q.value for q in out], lambda i: f"lemma 2 {('first', 'second')[i]} "
                    f"quantity at (m, n) = ({m}, {n})")
    return out


def lemma2_quantities(c: CoefficientSequence, m: int, n: int,
                      sup_horizon: int = 1 << 14,
                      sum_horizon: int = 1 << 16) -> tuple[Measurement, Measurement]:
    """The two one-sided tail quantities at (m, n).

    First: ``m sup_{k>=n} k sum_{j>=m} |d20 c_{jk}|``.  Second, with the
    roles of the indices swapped: ``n sup_{j>=m} j sum_{k>=n} |d02 c_{jk}|``.
    Sups are scanned to ``sup_horizon``, inner sums to ``sum_horizon``;
    a sup that would start past ``sup_horizon`` raises
    :class:`~doublesine.majorants.HorizonError`.
    """
    return _lemma2(c, m, n, sup_horizon, sum_horizon,
                   lambda f, start: _d2_scan(f, start, sum_horizon),
                   lambda f, start: _weight_sup_scan(f, start, sup_horizon))


def _one_sided(c: CoefficientSequence, m: int, n: int, sup_horizon: int,
               sum_horizon: int, d2, weight_sup) -> Measurement:
    """``m sup_{k>=n} k sum_{j>=m} |d20 c_{jk}|``; on ``c.T`` with m and n
    exchanged it is the second quantity of :func:`lemma2_quantities`.  A
    separable sequence reads its factor scans from :func:`_lemma2`'s."""
    if c.separable_parts is not None:
        a, b = c.separable_parts
        return _product(d2(a, m), weight_sup(b, n), m, 1)
    # both orientations' sizes, so the first call refuses before any work
    _guard_generic(max((sum_horizon - m + 1) * (sup_horizon - n + 1),
                       (sum_horizon - n + 1) * (sup_horizon - m + 1)))
    sup_idx = np.arange(n, sup_horizon + 1, dtype=np.int64)
    width = len(sup_idx)
    sums = np.zeros(width)
    for s0, s1 in _sub_blocks(m, sum_horizon, width):
        rows = np.abs(delta_r0_grid(c, 2, s0, s1, n, sup_horizon))
        rows[0] += sums
        # numpy sums a single column pairwise; np.cumsum adds it in row order
        sums = rows.sum(axis=0) if width > 1 else np.cumsum(rows, axis=0)[-1]
    value = m * float(np.max(sup_idx.astype(np.float64) * sums))
    tail = None if c.decay_hint is None else c.decay_hint.d20_tail(m, n, sup_horizon, sum_horizon)
    return Measurement(value=value, tail_bound=None if tail is None else m * tail)


def lemma_schedule(c: CoefficientSequence, which: int, schedule, *,
                   sup_horizon: int = 1 << 14, sum_horizon: int = 1 << 16,
                   band: float = 0.05, decay_ratio: float = 4.0) -> dict:
    """Lemma ``which`` (1 or 2) at (m, m) for each scale m of ``schedule``.

    Lemma 1 gives the series ``mixed_tail`` (:func:`lemma1_quantity` to
    ``sum_horizon``), lemma 2 the series ``row_tail`` and ``col_tail``
    (the two :func:`lemma2_quantities`).  Each name maps to its
    measurements in schedule order and the :func:`classify_probe` verdict
    of their ``upper`` values.  Any other ``which``, and a ``band`` or
    ``decay_ratio`` that :func:`classify_probe` refuses, are refused
    before any scan.

    The scales' ranges nest, so one pass over the largest serves every
    scale: per distinct factor object and scan kind (:func:`_d2_scans`,
    :func:`_weight_sup_scans`), or over a dense sequence's lemma 1
    quadrants (:func:`_quadrant_sums`); a dense lemma 2 keeps its
    per-point column sums, added in row order from m.  Values are the
    per-point calls', bit for bit, for any order or repetition of scales,
    and so are their refusals, in schedule order: a pass runs where the
    first scan it serves would.
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    _check_probe_rule(band, decay_ratio)
    schedule = list(schedule)
    # every other scale is refused before a scan reads it
    starts = sorted({m for m in schedule if 1 <= m <= (sum_horizon if which == 1 else sup_horizon)})
    d2 = _shared(lambda f: _d2_scans(f, starts, sum_horizon))
    if which == 1:
        quadrants = functools.cache(lambda: _quadrant_sums(c, starts, sum_horizon))
        series = {"mixed_tail": [_lemma1(c, m, m, sum_horizon, d2, lambda m, _: quadrants()(m))
                                 for m in schedule]}
    else:
        weight_sup = _shared(lambda f: _weight_sup_scans(f, starts, sup_horizon))
        pairs = [_lemma2(c, m, m, sup_horizon, sum_horizon, d2, weight_sup) for m in schedule]
        series = {"row_tail": [qa for qa, _ in pairs], "col_tail": [qb for _, qb in pairs]}
    return {name: (qs, classify_probe([q.upper for q in qs], band=band, decay_ratio=decay_ratio))
            for name, qs in series.items()}


@dataclass(frozen=True)
class Lemma3Result:
    """Pointwise sandwich check ``m n c_{mn} <= RHS`` at one (m, n)."""

    m: int
    n: int
    lhs: float
    rhs: float
    slack: float
    terms: tuple[float, float, float, float]
    truncated: bool


def lemma3_check(c: CoefficientSequence, C: float, lam: int, m: int, n: int,
                 b1: str = "l", b2: str = "l", b3: str = "l",
                 sup_horizon: int = 4096, *,
                 table: DoubleScanTable | None = None) -> Lemma3Result:
    """Evaluate the four-term majorant sandwich at (m, n).

    RHS = C * (double block sup past b3(m+n))
        + 2C * sum_{j=b1(m)}^{2 lam b1(m)} sum_{k=n}^{2n+1} c_{jk}
        + 2C * sum_{j=m}^{2m+1} sum_{k=b2(n)}^{2 lam b2(n)} c_{jk}
        + 8  * sum_{j=m}^{2m+1} sum_{k=n}^{2n+1} c_{jk}

    The sequence must be real and nonnegative on the touched ranges; slack
    is RHS - m n c_{mn} and should be >= 0 for members of the step-2 class.
    Each window sum is one exactly rounded sum (:func:`_blocked_sum`).  The
    double sup is a query of ``table``, a :class:`DoubleScanTable` of
    ``c`` at ``sup_horizon`` that grid points may share (a table of
    another sequence or horizon is refused); without it the call builds
    its own.  A left-hand side, term or right-hand side that is not finite
    is refused, naming (m, n): four finite terms can overflow their sum.
    """
    if m < lam or n < lam:
        raise ValueError(f"need m, n >= lambda = {lam}")
    table = _scan_table(c, sup_horizon, table)
    fb1, fb2, fb3 = compile_b(b1), compile_b(b2), compile_b(b3)

    def window_sum(jlo, jhi, klo, khi) -> float:
        k = np.arange(klo, khi + 1, dtype=np.int64)

        def block(j0, j1):
            j = np.arange(j0, j1 + 1, dtype=np.int64)
            vals = np.asarray(c.eval(j[:, None], k[None, :]))
            # refused before the cast, which would drop an imaginary part
            if np.iscomplexobj(vals) or np.any(vals < 0.0):
                raise ValueError("lemma3_check needs real, nonnegative coefficients")
            return vals.astype(np.float64, copy=False)

        return _blocked_sum(jlo, jhi, len(k), block)

    scan = table.query(fb3(m + n))
    term1 = C * scan.value
    term2 = 2.0 * C * window_sum(fb1(m), 2 * lam * fb1(m), n, 2 * n + 1)
    term3 = 2.0 * C * window_sum(m, 2 * m + 1, fb2(n), 2 * lam * fb2(n))
    term4 = 8.0 * window_sum(m, 2 * m + 1, n, 2 * n + 1)
    # term 4's window holds (m, n), so its sign is checked there
    lhs = m * n * float(np.asarray(c.eval(m, n)))
    _require_finite((lhs, term1, term2, term3, term4), lambda i: "lemma 3 " + (
        "left-hand side" if i == 0 else f"term {i}") + f" at (m, n) = ({m}, {n})")
    rhs_total = term1 + term2 + term3 + term4
    _require_finite(rhs_total, lambda _: f"lemma 3 right-hand side at (m, n) = ({m}, {n})")
    return Lemma3Result(m=m, n=n, lhs=lhs, rhs=rhs_total, slack=rhs_total - lhs,
                        terms=(term1, term2, term3, term4), truncated=scan.truncated)


# --- rectangle probes ------------------------------------------------------

def interior_grid(points_per_axis: int) -> tuple[tuple[float, float], ...]:
    """Uniform interior grid of (x, y) points in (0, pi)^2."""
    if points_per_axis < 1:
        raise ValueError("need at least one grid point per axis")
    ticks = [(i * math.pi) / (points_per_axis + 1) for i in range(1, points_per_axis + 1)]
    return tuple((x, y) for x in ticks for y in ticks)


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling plan for rectangle partial-sum probes.

    Rectangles are drawn from a deterministic dyadic lattice: starts
    ``m, n`` are powers of two (plus the structured corners near
    ``ceil(1/x)`` and ``ceil(1/y)`` for each grid point), and the
    corners ``M, N`` double away from the starts up to ``rect_cap``.
    ``thresholds`` is the schedule of lower bounds ``m + n > t``.
    ``min_start`` is the lattice's first start, and starts below it are
    excluded (class domain restrictions); 1 keeps every m, n >= 1.
    ``band`` and ``decay_ratio`` are :func:`classify_probe`'s, refused
    here, before any probe, as there.
    """

    xy_grid: tuple[tuple[float, float], ...]
    thresholds: tuple[int, ...] = (8, 16, 32, 64, 128)
    rect_cap: int = 4096
    min_start: int = 1
    doublings: int = 4
    band: float = 0.05
    decay_ratio: float = 4.0

    def __post_init__(self):
        if not self.xy_grid:
            raise ValueError("xy grid must not be empty")
        for x, y in self.xy_grid:
            if not (0.0 < x < math.pi and 0.0 < y < math.pi):
                raise ValueError(f"grid point ({x}, {y}) outside (0, pi)^2")
        if any(t2 <= t1 for t1, t2 in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if self.thresholds and self.thresholds[0] < 2:
            raise ValueError("thresholds must be >= 2")
        if self.rect_cap < 2 or self.min_start < 1 or self.doublings < 1:
            raise ValueError("bad probe geometry")
        _check_probe_rule(self.band, self.decay_ratio)


def _corners_from(start: int, cap: int, doublings: int) -> list[int]:
    out = _doublings(start, cap)[:doublings + 1]
    if not out or out[-1] != cap:
        out.append(cap)
    return out


def _transition_index(x: float) -> int:
    """Structured corner near the kernel case split: ceil(1/x) on the
    left half-interval, ceil(1/(pi - x)) on the right."""
    d = x if x <= 0.5 * math.pi else math.pi - x
    return max(1, math.ceil(1.0 / d))


def _probe_arrays(probe: ProbeConfig):
    """The lattice's interval index ``(j_iv, k_iv, lo, hi)``: rectangle i
    spans ``lo[j_iv[i]]..hi[j_iv[i]]`` in j and likewise in k, ordered by
    m, n, M, N.  The starts are ``min_start`` and the dyadic and
    structured starts in ``[min_start, rect_cap]``.  No threshold applies."""
    first = probe.min_start
    dyadic = set(_doublings(1, probe.rect_cap))
    structured = {v for t in map(_transition_index, {v for xy in probe.xy_grid for v in xy})
                  for v in (t, t + 1, 2 * t)}
    starts = sorted(v for v in dyadic | structured | {first} if first <= v <= probe.rect_cap)
    lo, hi = np.array([(m, M) for m in starts
                       for M in _corners_from(m, probe.rect_cap, probe.doublings)],
                      dtype=np.int64).reshape(-1, 2).T
    j_iv, k_iv = np.divmod(np.arange(len(lo) ** 2), len(lo))
    # stable: the rectangles of one start pair keep their (M, N) order
    order = np.argsort(lo[j_iv] * (probe.rect_cap + 1) + lo[k_iv], kind="stable")
    return j_iv[order], k_iv[order], lo, hi


def _probe_bytes(cap: int, intervals: int, abscissae: int) -> int:
    """Bytes a dense probe holds at most at once: its ``cap x cap`` table and
    one prefix table, the interval sums of each distinct x and y
    (``abscissae`` of them) and the two prefix gathers of the one being
    built, the ``inside`` mask, and sixteen lattice arrays of one entry
    per rectangle (interval indices and the keys that order them, the
    admitted rectangles of each threshold, and a grid point's product,
    modulus, sums and selection)."""
    return (8 * cap * (2 * cap + 1) + 8 * intervals * cap * (abscissae + 2)
            + intervals * cap + 8 * 16 * intervals ** 2)


def _abs_products(sx: np.ndarray, sy: np.ndarray, index, x: float, y: float) -> np.ndarray:
    """The |rectangle sums| of one grid point in lattice order, from the
    interval sums ``sx`` of its x and ``sy`` of its y (one column per factor
    each); the first that is not finite is refused."""
    j_iv, k_iv, lo, hi = index
    vals = np.abs(sx @ sy.T)[j_iv, k_iv]
    _require_finite(vals, lambda i: f"|rectangle sum| over {lo[j_iv[i]]}..{hi[j_iv[i]]}"
                    f" x {lo[k_iv[i]]}..{hi[k_iv[i]]} at (x, y) = ({x!r}, {y!r})")
    return vals


def _factored_maxima(sx: np.ndarray, sy: np.ndarray, lo: np.ndarray, thresholds):
    """First maxima of ``|sx[p, j] sy[p, k]|`` over ``lo[j] + lo[k] > t``,
    without forming the products.

    Row p of ``sx`` (``sy``) holds grid point p's interval sums in x (y),
    all finite with a finite largest product; ``lo`` holds the interval
    starts, ascending.  Returns ``(values, j, k)``, each of shape
    (thresholds, grid points): the value and interval indices of the
    first largest product in lattice order (start pair m-major, then j,
    then k), the one ``argmax`` over the lattice picks.

    Rounding is monotone for finite nonnegative factors and
    ``|fl(p q)| = fl(|p| |q|)``.  So with ``X[a]`` (``Y[b]``) the largest
    ``|sx|`` (``|sy|``) over the intervals of the a-th (b-th) start
    ``u_a`` (``u_b``), the largest product of start pair (a, b) is
    ``fl(X[a] Y[b])``, and that of the pairs admitted with start a is
    ``fl(X[a] max_{b >= b0(a)} Y[b])``, b0(a) the first start b with
    ``u_a + u_b > t``.  The witness is read level by level, each the
    first to reach the largest value: the start a, the start b, the j of
    start a with ``fl(|sx_j| Y[b])`` and the k of start b with
    ``fl(|sx_j| |sy_k|)``.
    """
    ax, ay = np.abs(sx), np.abs(sy)
    change = np.ones(len(lo), dtype=bool)
    change[1:] = lo[1:] != lo[:-1]
    first = np.flatnonzero(change)           # where each start's intervals begin
    size = np.append(first[1:], len(lo)) - first
    starts, S = lo[first], len(first)
    X = np.maximum.reduceat(ax, first, axis=1)
    Y = np.maximum.reduceat(ay, first, axis=1)
    tops = np.maximum.accumulate(Y[:, ::-1], axis=1)[:, ::-1]
    # b0[t, a]: the first start b admitted with start a past threshold t, S if none
    b0 = np.searchsorted(starts, np.subtract.outer(thresholds, starts), side="right")
    # one row per (threshold, grid point), thresholds first; -1 where a admits no b
    cand = np.where(b0[:, None] < S, X * tops[:, np.minimum(b0, S - 1)].transpose(1, 0, 2),
                    -1.0).reshape(-1, S)
    best = cand.max(axis=1)
    t_row, point = np.divmod(np.arange(len(best)), len(ax))
    span = np.arange(size.max())

    def first_hit(s, v, valid):
        # the first valid column of v where fl(s v) reaches best
        return ((s[:, None] * v == best[:, None]) & valid).argmax(axis=1)

    def members(v, a):
        # the entries of v on the intervals of start a, padded, and the mask
        at = np.minimum(first[a][:, None] + span, len(lo) - 1)
        return v[point[:, None], at], span < size[a][:, None]

    a = (cand == best[:, None]).argmax(axis=1)
    b = first_hit(X[point, a], Y[point], np.arange(S) >= b0[t_row, a][:, None])
    j = first[a] + first_hit(Y[point, b], *members(ax, a))
    k = first[b] + first_hit(ax[point, j], *members(ay, b))
    shape = (len(thresholds), len(ax))
    return best.reshape(shape), j.reshape(shape), k.reshape(shape)


def _interval_sums(factor: np.ndarray, t, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of ``factor[j-1] sin(j t)`` over ``j = lo..hi``, one row per
    interval, from the sine prefix of ``factor`` at ``t`` (one abscissa,
    or an array of them for a one-column factor)."""
    P = sine_prefix(factor, t)
    return P[hi] - P[lo - 1]


def _separable_maxima(A: np.ndarray, B: np.ndarray, probe: ProbeConfig, index, thresholds):
    """:func:`_rect_maxima` of the real factor columns ``A`` and ``B``.

    The interval sums of each factor come from one sine prefix per block
    of distinct abscissae (about ``_SUB_BLOCK_CELLS`` cells), and the
    maxima from :func:`_factored_maxima`.  The first grid point whose
    largest product is not finite is refused through its full product.
    """
    def sums(f, axis):
        # one row per grid point, read from one column per distinct abscissa
        column = {}
        at = [column.setdefault(point[axis], len(column)) for point in probe.xy_grid]
        ts = np.array(list(column))
        blocks = np.concatenate([_interval_sums(f, ts[i0:i1 + 1], index[2], index[3])
                                 for i0, i1 in _sub_blocks(0, len(ts) - 1, probe.rect_cap)],
                                axis=1)
        return blocks[:, at].T

    sx, sy = sums(A, 0), sums(B, 1)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        top = np.abs(sx).max(axis=1) * np.abs(sy).max(axis=1)
    for p in np.flatnonzero(~np.isfinite(top))[:1]:
        _abs_products(sx[p, :, None], sy[p, :, None], index, *probe.xy_grid[p])
    return _factored_maxima(sx, sy, index[2], thresholds)


def _rect_maxima(c: CoefficientSequence, probe: ProbeConfig, index, thresholds):
    """The first largest |rectangle sum| over the lattice rectangles with
    ``m + n > t``, for each threshold t and grid point.

    Returns ``(values, j, k)``, each of shape (thresholds, grid points),
    grid points in grid order: the value and the interval indices of the
    rectangle that ``argmax`` picks over the lattice, the first in its
    order.  On ``1..rect_cap``, ``c_jk = sum_i A[j, i] B[k, i]``: one
    column per factor of a separable sequence, else the dense table and
    the identity.  Sine-prefix differences of ``A`` (once per distinct x)
    and of ``B`` (once per distinct y) over the intervals give every sum.
    A real separable sequence's maxima are read from per-start maxima of
    those differences (:func:`_factored_maxima`), with no product formed
    unless a grid point's largest one is not finite; any other takes one
    matrix product per grid point.  For the identity the differences are
    exactly ``sin(k y)`` for ``k`` in the interval and 0 elsewhere, so
    that matrix is built directly, without a prefix table per y.  The
    first grid point with a sum that is not finite is refused, naming
    its first such rectangle.
    """
    j_iv, k_iv, lo, hi = index
    cap = probe.rect_cap
    idx = np.arange(1, cap + 1, dtype=np.int64)
    xs = dict.fromkeys(x for x, _ in probe.xy_grid)
    ys = dict.fromkeys(y for _, y in probe.xy_grid)
    if c.separable_parts is not None:
        A, B = (np.asarray(f.eval(idx))[:, None] for f in c.separable_parts)
        # the modulus of a complex product is not the product of moduli, bit for bit
        if len(lo) and not (np.iscomplexobj(A) or np.iscomplexobj(B)):
            return _separable_maxima(A, B, probe, index, thresholds)
        sums_y = {y: _interval_sums(B, y, lo, hi) for y in ys}
    else:  # the dense table and one prefix table, capped with the working set
        _dense_cap("probe", "rect_cap", cap, _probe_bytes(cap, len(lo), len(xs) + len(ys)),
                   f"{cap}x{cap} tables and their interval sums")
        A = np.asarray(c.eval(idx[:, None], idx[None, :]))
        inside = (lo[:, None] <= idx) & (idx <= hi[:, None])
        ks = idx.astype(np.float64)
        sums_y = {y: np.where(inside, np.sin(ks * y), 0.0) for y in ys}
    sums_x = {x: _interval_sums(A, x, lo, hi) for x in xs}
    admitted = [np.flatnonzero(lo[j_iv] + lo[k_iv] > t) for t in thresholds]
    values = np.empty((len(thresholds), len(probe.xy_grid)))
    j, k = np.empty((2,) + values.shape, dtype=np.int64)
    for p, (x, y) in enumerate(probe.xy_grid):
        vals = _abs_products(sums_x[x], sums_y[y], index, x, y)
        for row, keep in enumerate(admitted):
            i = keep[np.argmax(vals[keep])]
            values[row, p], j[row, p], k[row, p] = vals[i], j_iv[i], k_iv[i]
    return values, j, k


class ProbeTraceRow(NamedTuple):
    """Per-threshold, per-grid-point probe maximum with its rectangle; the
    fields are the ``uniform-tail`` CSV columns, in order."""

    threshold: int
    x: float
    y: float
    m: int
    M: int
    n: int
    N: int
    abs_sum: float


def uniform_tail_trace(c: CoefficientSequence,
                       probe: ProbeConfig) -> tuple[TailReport, tuple[ProbeTraceRow, ...]]:
    """Like :func:`uniform_tail_probe`, also returning the full trace."""
    index = _probe_arrays(probe)
    most = 2 * int(index[2].max(initial=0))
    for t in probe.thresholds:
        if t >= most:
            raise ValueError(f"no rectangles beyond threshold {t}")
    lo, hi = index[2].tolist(), index[3].tolist()
    best, js, ks = (v.tolist() for v in _rect_maxima(c, probe, index, probe.thresholds))
    trace = tuple(ProbeTraceRow(t, x, y, lo[j], hi[j], lo[k], hi[k], v)
                  for t, vt, jt, kt in zip(probe.thresholds, best, js, ks)
                  for (x, y), v, j, k in zip(probe.xy_grid, vt, jt, kt))
    values = [max(vt) for vt in best]
    verdict = classify_probe(values, band=probe.band, decay_ratio=probe.decay_ratio)
    report = TailReport(schedule=tuple(probe.thresholds), values=tuple(values),
                        verdict=verdict, fit=loglog_slope(probe.thresholds, values))
    return report, trace


def uniform_tail_probe(c: CoefficientSequence, probe: ProbeConfig) -> TailReport:
    """Sup of |rectangle sums| beyond each threshold of the schedule.

    For a uniformly regularly convergent series the values decay; a
    divergence point in the grid keeps them from falling.  The lattice
    and its sums are built once per probe from the prefix sums of a
    separable sequence's factors or else of its dense table on
    ``1..rect_cap``, which is refused past the dense scans' byte cap;
    see :func:`_rect_maxima`.
    """
    report, _ = uniform_tail_trace(c, probe)
    return report


# --- eta search ------------------------------------------------------------

class EtaCapError(RuntimeError):
    """Raised when no admissible threshold exists below the cap."""


@dataclass(frozen=True)
class EtaCondition:
    """Worst case of one smallness condition over the tested points."""

    name: str
    worst: float
    bound: float
    margin: float
    witness: tuple[int, int]
    certified: bool


@dataclass(frozen=True)
class EtaSearchResult:
    eta: int
    epsilon: float
    C: float
    cap: int
    verify_range: int
    tested_points: tuple[int, ...]
    conditions: tuple[EtaCondition, ...]


def _test_points(eta: int, verify_range: int) -> list[int]:
    pts = {eta + 1, verify_range}
    pts.update(v for v in _doublings(1, verify_range) if v > eta + 1)
    return sorted(pts)


def _eta_factor_scan(f: SingleSequence, H: int, sum_horizon: int, tail: float,
                     weights: np.ndarray, S: np.ndarray) -> int:
    """Fill ``weights[m - 1] = m |f_m|`` on ``m = 1..kept``, ``kept =
    len(weights) - 1``, ``weights[kept]`` with the largest ``m |f_m|`` on
    ``kept + 1..H``, and ``S[m - 1] = m (sum_{j=m}^{sum_horizon} |f_j -
    f_{j+2}| + tail)``, from one backward pass over ``f`` on
    ``max(H, sum_horizon + 2)..1``; return the first index of
    ``weights[kept]``, as :func:`numpy.argmax` picks it (a NaN first).

    Each sub-block (:func:`_sub_blocks`, one column) is evaluated once,
    from the top down; the two values a step-2 difference reads above a
    sub-block are carried down from the one above.  The sums are added
    from ``sum_horizon`` down, as a reversed ``np.cumsum`` adds them, with
    the terms above the sub-block carried in one float, so the working
    set is a sub-block plus the outputs.
    """
    carry, at, kept = 0.0, 0, len(weights) - 1
    weights[kept] = -math.inf
    above = np.empty(0)
    for lo, hi in reversed(list(_sub_blocks(1, max(H, sum_horizon + 2), 1))):
        v = np.concatenate((np.asarray(f.eval(_span(lo, hi))), above))
        above = v[:2].copy()
        w_lo, w_hi = max(lo, kept + 1), min(hi, H)
        if w_lo <= w_hi:   # blocks run downwards: on a tie this block's index is first
            w = _span(w_lo, w_hi) * np.abs(v[w_lo - lo:w_hi - lo + 1])
            i = int(np.argmax(np.append(w, weights[kept])))
            if i < len(w):
                weights[kept], at = w[i], w_lo + i
        w_hi = min(hi, kept)
        if lo <= w_hi:
            np.multiply(_span(lo, w_hi), np.abs(v[:w_hi - lo + 1]), out=weights[lo - 1:w_hi])
        d_hi = min(hi, sum_horizon)
        if lo > d_hi:
            continue
        terms = _steps(v, 2, d_hi - lo + 1)
        sums = np.cumsum(np.concatenate(([carry], terms[::-1])))[:0:-1]   # m = lo..d_hi
        carry = sums[0]
        s_hi = min(d_hi, len(S))
        if lo <= s_hi:
            np.multiply(_span(lo, s_hi), sums[:s_hi - lo + 1] + tail, out=S[lo - 1:s_hi])
    return at


def eta_search(c: CoefficientSequence, epsilon: float, C: float, lam: int = 2,
               cap: int = 1 << 14, verify_range: int | None = None,
               sup_horizon: int = 1 << 14, sum_horizon: int = 1 << 16) -> EtaSearchResult:
    """Smallest eta <= cap past which the four smallness conditions hold.

    Conditions, verified at every tested pair (m, n) with
    m, n in (eta, verify_range]:

        (1)  m n |c_{mn}| < eps              (checked as a sup over the
             whole range beyond eta, not just tested pairs)
        (2)  m n sum_{j>=m} sum_{k>=n} |d22 c_{jk}| < 16 C eps
        (3)  m sum_{j>=m} sup_{k>=n} k |d20 c_{jk}| < 4 C eps
        (4)  n sum_{k>=n} sup_{j>=m} j |d02 c_{jk}| < 4 C eps

    Conditions (3) and (4) place the sup inside the sum, which is the
    form the uniform bound's proof consumes; the companion lemma report
    in :func:`lemma2_quantities` uses the sup-outside form instead.

    For ``c = a_j b_k`` each condition is a product of one-index arrays
    on ``1..verify_range`` built once per factor, in one backward pass
    over the factor (see :func:`_eta_factor_scan`) out to H =
    ``max(sup_horizon, verify_range + 1, cap + 2)``.  Past verify_range
    condition (1) reads only the largest ``m |f_m|`` and its first
    index, carried as one pair, so the working set is O(verify_range)
    floats whatever ``sup_horizon`` and ``sum_horizon``.

    All candidates are tested at once; the first
    that passes reports each condition's first worst tested pair in
    (m, n) order; past verify_range a refusal names the first index of
    the largest ``m |f_m|``.  Candidates run up to
    ``min(cap, verify_range - 1)``, so every tested point lies past eta,
    and a ``verify_range`` at or below ``max(1, lam)`` is refused.
    Raises :class:`EtaCapError` when no candidate passes.
    """
    if not (epsilon > 0 and C > 0):
        raise ValueError("epsilon and C must be positive")
    if verify_range is None:
        verify_range = 2 * cap
    if c.separable_parts is None:
        raise ValueError("eta_search requires a separable sequence; "
                         "supply separable parts or use the lemma quantities directly")
    if verify_range > sum_horizon:
        raise ValueError("verify_range must not exceed sum_horizon")
    first = max(1, lam)
    if verify_range <= first:
        raise ValueError(f"verify_range {verify_range} must exceed max(1, lambda) = {first}")
    H = max(sup_horizon, verify_range + 1, cap + 2)
    parts = c.separable_parts
    hints = [f.decay_hint for f in parts]
    tail_w = [None if h is None else h.weighted_sup(H) for h in hints]
    tail_d2 = [None if h is None else h.d2_tail(sum_horizon) for h in hints]
    # tails count only when all of a condition's are known
    cert1 = None not in tail_w
    cert = cert1 and None not in tail_d2
    tw, td = (np.array(tail_w)[:, None], tail_d2) if cert else (0.0, (0.0, 0.0))
    # per factor (rows), from one backward pass: m |f_m| on 1..verify_range
    # and, last, its largest value past verify_range, first at index beyond[row];
    # their suffix maxima; and S = m (sum_{j>=m} |d2 f| + tail) on 1..verify_range
    weights = np.empty((2, verify_range + 1))
    S = np.empty((2, verify_range))
    beyond = [_eta_factor_scan(f, H, sum_horizon, t, w_f, S_f)
              for f, w_f, S_f, t in zip(parts, weights, S, td)]
    for row, f in enumerate(parts):
        _require_finite(weights[row], lambda i: f"eta search factor {f.name}: m |f_m| at m = "
                        f"{i + 1 if i < verify_range else beyond[row]}")
        _require_finite(S[row], lambda i: f"eta search factor {f.name}: "
                        f"m (sum_(j>=m) |f_j - f_(j+2)| + tail) at m = {i + 1}")
    sups = np.maximum.accumulate(weights[:, ::-1], axis=1)[:, ::-1]

    # (1) at every candidate eta = first..last, and the factors of (2)-(4) on
    # m = 1..verify_range
    last = min(cap, verify_range - 1)
    sup1 = np.maximum(sups[:, first:last + 1], np.array(tail_w if cert1 else [0.0, 0.0])[:, None])
    v1 = sup1[0] * sup1[1]
    del sup1
    W = sups[:, :verify_range]
    np.maximum(W, tw, out=W)
    bound2 = 16.0 * C * epsilon
    bound34 = 4.0 * C * epsilon
    # (2)-(4) at every candidate: S and W are nonnegative and a rounded
    # product is monotone in each factor, so a condition holds at every
    # tested pair exactly when it holds at the factors' maxima over the
    # tested points, eta + 1 and the points of D past it
    D = np.array(_test_points(0, verify_range))          # 1, 2, 4, ..., verify_range
    at = np.searchsorted(D, np.arange(first + 1, last + 2))   # first point of D >= eta + 1

    def tested_max(X):
        past = np.maximum.accumulate(X[:, D[::-1] - 1], axis=-1)[:, ::-1]
        return np.maximum(X[:, first:last + 1], past[:, at])

    s, w = tested_max(S), tested_max(W)
    passed = np.flatnonzero((v1 < epsilon) & (s[0] * s[1] < bound2)
                            & (s[0] * w[1] < bound34) & (w[0] * s[1] < bound34))
    if not passed.size:
        where = f"up to cap {cap}" if last == cap else \
            f"below verify_range {verify_range} (cap {cap})"
        raise EtaCapError(f"no eta found {where} for epsilon {epsilon}")
    i = int(passed[0])
    eta = first + i
    pts = _test_points(eta, verify_range)
    cols = np.array(pts) - 1
    s, w = S[:, cols], W[:, cols]
    firsts = [eta + int(np.argmax(wf[eta:])) for wf in weights]   # columns: m - 1
    witness1 = tuple(col + 1 if col < verify_range else at for col, at in zip(firsts, beyond))
    conds = [EtaCondition("mn|c_mn| < eps", float(v1[i]), epsilon,
                          epsilon - float(v1[i]), witness1, cert1)]
    for name, x, y, bound in (("weighted d22 tail < 16 C eps", s[0], s[1], bound2),
                              ("row-sum sup tail < 4 C eps", s[0], w[1], bound34),
                              ("col-sum sup tail < 4 C eps", w[0], s[1], bound34)):
        q = np.multiply.outer(x, y)
        mi, ni = divmod(int(np.argmax(q)), len(pts))
        worst = float(q[mi, ni])
        conds.append(EtaCondition(name, worst, bound, bound - worst, (pts[mi], pts[ni]),
                                  cert))
    return EtaSearchResult(eta=eta, epsilon=epsilon, C=C, cap=cap,
                           verify_range=verify_range,
                           tested_points=tuple(pts), conditions=tuple(conds))


@dataclass(frozen=True)
class Theorem7Result:
    """Sampled check of the closed-form uniform tail bound."""

    epsilon: float
    C: float
    eta: int
    bound: float
    worst_abs: float
    slack: float
    witness_rect: Rect | None
    witness_xy: tuple[float, float] | None
    n_rects: int


def theorem7_bound_check(c: CoefficientSequence, epsilon: float, eta: int, C: float,
                         probe: ProbeConfig) -> Theorem7Result:
    """Compare sampled |rectangle sums| with m, n > eta against the envelope.

    The rectangles are those of the uniform-tail lattice of ``probe`` with
    ``min_start = eta + 1`` (:func:`_probe_arrays`); the witness is the
    first largest in grid order, then lattice order.  The envelope is
    ``(1 + 2 pi C + 2 pi + 1.5 pi^2 C + pi^2) eps``.
    Negative slack (worst observed minus envelope) means the bound held
    on every sampled rectangle and grid point.
    """
    bound = (1.0 + 2.0 * math.pi * C + 2.0 * math.pi
             + 1.5 * math.pi ** 2 * C + math.pi ** 2) * epsilon
    index = _probe_arrays(replace(probe, min_start=eta + 1))
    j_iv, _, lo, hi = index
    if not j_iv.size:
        raise ValueError(f"no rectangles with starts >= {eta + 1} up to {probe.rect_cap}")
    # every start is past eta, so threshold 0 admits every rectangle
    values, j, k = (v[0] for v in _rect_maxima(c, probe, index, (0,)))
    p = int(np.argmax(values))
    sup, wj, wk = float(values[p]), j[p], k[p]
    return Theorem7Result(epsilon=epsilon, C=C, eta=eta, bound=bound,
                          worst_abs=sup, slack=sup - bound,
                          witness_rect=Rect(int(lo[wj]), int(hi[wj]), int(lo[wk]), int(hi[wk])),
                          witness_xy=probe.xy_grid[p], n_rects=int(j_iv.size))


def _remark2_squares(schedule) -> tuple[CoefficientSequence, float, list[Rect]]:
    """The residue preset, its divergence point ``x = y = 2 pi / 3`` and the
    square ``(1..3M+2) x (1..3M+2)`` at each scale M of ``schedule``."""
    sides = [3 * M + 2 for M in schedule]
    return builtin("mod3_log_product"), 2.0 * math.pi / 3.0, [Rect(1, J, 1, J) for J in sides]


def remark2_divergence(schedule: tuple[int, ...] = (10, 100, 1000, 10000)) -> TailReport:
    """Partial sums of the residue-modulated preset at its divergence point.

    At ``x = y = 2 pi / 3`` the square partial sum over
    ``(1..3M+2) x (1..3M+2)`` factors into a perfect square and is
    bounded below by ``(sin(2 pi/3))^2 (sum_{l=0}^{M} 2/((3l+1) ln(3l+3)))^2``,
    which grows without bound.  The verdict is growing only when the
    values strictly increase and dominate the minorant at every scale.
    """
    if any(b <= a for a, b in zip(schedule, schedule[1:])) or not schedule:
        raise ValueError("schedule must be strictly increasing and nonempty")
    if schedule[0] < 0:
        raise ValueError("scales must be >= 0")
    c, x0, squares = _remark2_squares(schedule)
    values, bounds = [], []
    for M, square in zip(schedule, squares):
        values.append(rect_sum_separable(c, square, x0, x0))
        l = np.arange(0, M + 1, dtype=np.float64)
        minorant = float(ksum(2.0 / ((3.0 * l + 1.0) * np.log(3.0 * l + 3.0))))
        bounds.append(math.sin(x0) ** 2 * minorant ** 2)
    increasing = all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    dominated = all(v >= lb for v, lb in zip(values, bounds))
    verdict = Verdict.GROWING if (increasing and dominated) else Verdict.INCONCLUSIVE
    return TailReport(schedule=tuple(schedule), values=tuple(values), verdict=verdict,
                      fit=loglog_slope(schedule, values),
                      bounded=tuple(True for _ in schedule),
                      reference_values=tuple(bounds))


def remark2_cross_checks(report: TailReport, max_scale: int, tol: float):
    """Direct double sums against :func:`remark2_divergence`'s factored ones
    at each scale up to ``max_scale``: the preset's name, ``x = y``, one entry
    per scale checked, and the entries off by more than ``tol (1 + |direct|)``."""
    c, x0, squares = _remark2_squares(report.schedule)
    checks, mismatches = [], []
    for M, square, product_value in zip(report.schedule, squares, report.values):
        if M > max_scale:
            continue
        direct = float(rect_sum_direct(c, square, x0, x0))
        err = abs(direct - product_value)
        checks.append({"scale": M, "direct": direct, "product": product_value, "abs_diff": err})
        if err > tol * (1.0 + abs(direct)):
            mismatches.append(checks[-1])
    return c.name, x0, checks, mismatches
