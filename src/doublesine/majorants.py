"""Majorant families used on the right-hand side of class inequalities.

Three families of row/column/double majorants are provided, all built
from block sums of ``|c|`` over dyadic-style windows ``M..2M``:

* family ``ONE``: an average of ``|c|`` over the fixed window
  ``floor(m/lambda)..ceil(lambda m)`` (no scan);
* family ``TWO``: a maximum of block sums over the bounded window
  ``b(m) <= M <= lambda b(m)`` for rows and columns, and an unbounded
  sup over ``M + N >= b(m+n)`` for the double version;
* family ``THREE``: an unbounded sup over ``M >= b(m)`` (rows/columns)
  or ``M + N >= b(m+n)`` (double).

Unbounded sups are scanned up to ``sup_horizon``.  When the sequence
carries a power-decay hint the scan is completed by a closed-form bound
on the unscanned tail.  Every scan and table query returns a
:class:`Measurement`, whose ``tail_bound`` bounds how far the truth
exceeds its value: 0.0 when exact, for a sup the hint's excess over it
(:func:`_sup_measurement`).

Scans evaluate ``|c|`` once per line and take block sums as differences
of one cumulative sum.  The family-TWO window scan reports exactly
rounded block sums (:func:`ksum`), as a per-block loop would, from one
cumsum of its window: for n nonnegative terms of total S, each cumsum
estimate is within about ``n eps S`` of its block's sum, and the exactly
rounded maximum's block lies within ``(2n + 3) eps S`` of the largest
estimate.  Only blocks within ``4 n eps S`` of it are re-summed, and the
largest exact sum is the loop's value; a window whose total is not
finite re-sums every block.  The cumsum is the window's own, not the
line's: early terms that dominate a line's total would widen a
line-wide screen to whole windows (on ``product_power(8, 8)``, every
block past the first starts).
Double sups keep a :class:`DoubleScanTable` of the threshold-independent
block sums.  One table serves a whole command: a membership fit and the
lemma 3 points that follow it query the same table at every grid point.
The table holds only double sups, kept per threshold, and factor sums.
A separable table keeps the block sums ``fa``, ``fb`` of its factors and
the suffix maxima of both.  A query of threshold t takes line N's
candidate ``fb[N] max_{M >= lo} fa[M]``, ``lo`` the smallest admissible M
clipped to ``1..horizon``; the lines ``N >= t - 1``, where ``lo`` is 1,
give ``max fb[N:]`` times ``max fa``, exact because rounding is monotone
for finite nonnegative factors, so a query costs O(t).  A table that is
not finite takes every line.
A dense table never holds its block matrix: it streams block rows from
two carried rows of the prefix table, one for each end of the block, and
keeps the sup of each anti-diagonal ``M + N``; since a max of floats is
exact, a reverse running max of those gives every threshold's sup, the
value a masked max over the whole matrix gives, bit for bit.

Columns run as rows of the transpose ``c.T``, whose row lines
(:meth:`~doublesine.sequences.CoefficientSequence.row`) carry their own
tail hints.  A line is the signed values ``v_j``, ``j = 1..reach``, of
a row or of a single sequence.  Row lines are read by :func:`_row_lines`:
consecutive lines of equal reach are the rows of one table, evaluated in
one broadcast call of at most ``_TABLE_CELLS`` cells (1 MiB of float64)
and at least one line, so a separable row ``a_j b_n`` evaluates ``a``
once per table, not once per line.  The evaluators act elementwise, so
each row is its line's own evaluation bit for bit.  :func:`_line_rhs`
reads the majorants of every point on one line, and :func:`rhs` reads
one point of a line of its own, a table of one row.  A sup scan from
``start`` computes its exact blocks (one cumsum from ``start``, as an
exhaustive scan would) for ``M = start..M1``, with ``M1 = 2 start``
doubling up to the horizon.
``np.cumsum`` is sequential, so these blocks are bit-identical to the
exhaustive scan's.
It stops once the largest exact block so far exceeds, strictly, the
suffix maximum past ``M1`` of the line's shared estimates (blocks of
one cumsum from 1) plus a tolerance.  For n nonnegative terms of total
S both a per-start block and a shared estimate lie within about
``(2n + 1) eps S`` of the true block sum, so ``8 n eps S`` bounds their
difference: no block past ``M1`` can reach the maximum, and the value
is the exhaustive scan's.  A line whose total is not finite is scanned
in full.

The double left-hand sides of a fit, family ONE double windows and
lemma 1's dense tail are rectangle sums of ``|d_rr c|`` or ``|c|``, all
taken by :func:`_rect_abs_sum`, which writes the product rule for
separable sequences once.  Only the table memoizes factor sums, in
:meth:`DoubleScanTable.rect_abs_sum`, one dict per step r.

``rhs`` returns the majorant value *without* any class constant C; the
membership fitter divides observed left-hand sides by these values.

Index arithmetic convention: lower block limits round down and are
clamped to 1, upper limits round up.  Enlarging a right-hand-side block
only weakens the inequality under test, so this rounding is the
conservative direction.  All of it lives in :func:`averaging_window` and
:func:`compile_b`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import groupby
from typing import Iterator

import numpy as np

from .differences import _nested_sums, _span, _variation, delta_rr_grid
from .sequences import CoefficientSequence, PowerDecay, SingleSequence, compile_expression
from .summing import _cumsum_rows, ksum

__all__ = [
    "Family",
    "Axis",
    "MajorantFamily",
    "Measurement",
    "HorizonError",
    "averaging_window",
    "compile_b",
    "block_sum_row",
    "block_sum_col",
    "block_sum_double",
    "single_block_sum",
    "single_sup_scan",
    "single_window_sum",
    "DoubleScanTable",
    "double_sup_scan",
    "rhs",
]

# _dense_cap refuses dense paths (double scans, probes) whose stated working set passes this.
_MAX_DENSE_BYTES = 160_000_000
# Block rows M of the dense double-scan table streamed at a time.
_SCAN_ROWS = 16
# Cells of one table of row or column lines (:func:`_row_lines`): 1 MiB of float64.
_TABLE_CELLS = 1 << 17


class Family(Enum):
    ONE = "one"
    TWO = "two"
    THREE = "three"


class Axis(Enum):
    ROW = "row"
    COLUMN = "column"
    DOUBLE = "double"


class HorizonError(ValueError):
    """Raised when the scan horizon lies below the scan start."""


@dataclass(frozen=True)
class Measurement:
    """A scanned ``value`` and ``tail_bound``, how far the truth can exceed
    it: 0.0 when exact, the hint's bound past the horizon for a sum, the
    hint's excess over a sup (:func:`_sup_measurement`), and None when no
    hint certifies the value."""

    value: float
    tail_bound: float | None = None

    @property
    def bounded(self) -> bool:
        """Whether a tail bound certifies the value."""
        return self.tail_bound is not None

    @property
    def truncated(self) -> bool:
        """Whether the truth may exceed the value (a NaN bound says no)."""
        return self.tail_bound is None or self.tail_bound > 0.0

    @property
    def upper(self) -> float:
        """Certified upper estimate (value plus tail bound)."""
        return self.value + (self.tail_bound or 0.0)


def _sup_measurement(sup: float, tail: float | None) -> Measurement:
    """A scanned ``sup`` whose unscanned part is at most ``tail`` (None
    without a hint), so the truth is at most ``max(sup, tail)``.  With
    gradual underflow ``tail - sup > 0`` exactly when ``tail > sup``: it
    is truncated exactly when ``tail is None or tail > sup``, NaN too."""
    return Measurement(sup, None if tail is None else max(tail - sup, 0.0))


@dataclass(frozen=True)
class MajorantFamily:
    """Configuration of a majorant: family, axis, and scan parameters.

    ``b1``, ``b2``, ``b3`` are closed-form integer sequences (expressions
    in ``l``) steering the scan start for rows, columns, and the double
    threshold.  ``lam`` must be >= 2 for families ONE and TWO; family
    THREE ignores it apart from requiring >= 1.
    """

    family: Family
    axis: Axis
    lam: int = 2
    b1: str = "l"
    b2: str = "l"
    b3: str = "l"
    sup_horizon: int = 4096

    def __post_init__(self):
        if self.family in (Family.ONE, Family.TWO):
            if self.lam < 2:
                raise ValueError(f"family {self.family.value} needs lambda >= 2, got {self.lam}")
        elif self.lam < 1:
            raise ValueError(f"lambda must be >= 1, got {self.lam}")
        if self.sup_horizon < 1:
            raise ValueError("sup_horizon must be >= 1")
        for expr in (self.b1, self.b2, self.b3):
            compile_b(expr)  # raises early on bad expressions


def _real(val, what: str, expr: str, var: str, index: int) -> float:
    """``float(val)``, ``val`` the value of the expression ``expr`` at
    ``var = index``.  Python float arithmetic gives a complex one for a
    negative base under a fractional power; it is refused, named as
    ``what``."""
    if isinstance(val, (complex, np.complexfloating)):  # complex values come as scalars
        raise ValueError(f"{what} {expr!r} not real at {var}={index}")
    return float(val)


@lru_cache(maxsize=None)
def compile_b(expr: str):
    """Compile a closed-form index sequence ``b(l)`` from an expression.

    Values must be real and finite; they are floored to ints and must be >= 1.
    """
    fn, _ = compile_expression(expr, ("l",))

    def b(l: int) -> int:
        val = _real(fn(l=float(l)), "b-sequence", expr, "l", l)
        if not math.isfinite(val):
            raise ValueError(f"b-sequence {expr!r} not finite at l={l}")
        iv = int(math.floor(val))
        if iv < 1:
            raise ValueError(f"b-sequence {expr!r} must be >= 1, got {iv} at l={l}")
        return iv

    return b


def _dense_cap(what: str, knob: str, value: int, needed: int, tables: str) -> None:
    if needed > _MAX_DENSE_BYTES:
        raise ValueError(f"dense {what} at {knob} {value} needs {needed} bytes for its "
                         f"{tables}, over the cap of {_MAX_DENSE_BYTES} bytes; "
                         f"lower {knob} or use a separable sequence")


def _scan_bytes(horizon: int, rows: int) -> int:
    """Bytes of float64 the dense double-scan table holds at most at once,
    streaming ``rows`` block rows, each ``2 horizon + 1`` wide or less: the
    lead's ``2 rows + 1`` and the lag's ``rows + 1`` prefix rows, each
    twice (carried and summed along k), one evaluation of ``2 rows`` rows
    counted as six arrays (the values, their modulus and the evaluator's
    temporaries; a deeper expression takes more), the block rows, and the
    anti-diagonal maxima with their running max."""
    return 8 * (2 * horizon + 1) * (2 * (3 * rows + 2) + 6 * 2 * rows + rows + 2)


def averaging_window(m: int, lam: int) -> tuple[int, int]:
    """Window ``floor(m/lam)..ceil(lam*m)`` with the lower end clamped to 1."""
    return max(1, m // lam), int(math.ceil(lam * m))


# --- plain block sums (compensated) --------------------------------------

def _abs_line(c: CoefficientSequence, fixed: int, lo: int, hi: int) -> np.ndarray:
    """``|c_{j,fixed}|`` for j = lo..hi (a column line is a row line of ``c.T``)."""
    return _abs_f64(c.eval(np.arange(lo, hi + 1, dtype=np.int64), fixed))


def _abs_f64(vals) -> np.ndarray:
    """``|vals|`` as float64; the modulus is taken before the cast, so
    complex values keep their imaginary part."""
    return np.abs(np.asarray(vals)).astype(np.float64, copy=False)


def block_sum_row(c: CoefficientSequence, M: int, n: int) -> float:
    """``sum_{j=M}^{2M} |c_{jn}|`` (M+1 terms)."""
    return float(ksum(_abs_line(c, n, M, 2 * M)))


def block_sum_col(c: CoefficientSequence, m: int, N: int) -> float:
    """``sum_{k=N}^{2N} |c_{mk}|``."""
    return float(ksum(_abs_line(c.T, m, N, 2 * N)))


def block_sum_double(c: CoefficientSequence, M: int, N: int) -> float:
    """``sum_{j=M}^{2M} sum_{k=N}^{2N} |c_{jk}|``."""
    j = np.arange(M, 2 * M + 1, dtype=np.int64)
    k = np.arange(N, 2 * N + 1, dtype=np.int64)
    return float(ksum(np.abs(c.eval(j[:, None], k[None, :]))))


def single_block_sum(a: SingleSequence, M: int) -> float:
    """``sum_{k=M}^{2M} |a_k|``."""
    return single_window_sum(a, M, 2 * M)


def single_window_sum(a: SingleSequence, lo: int, hi: int) -> float:
    """``sum_{k=lo}^{hi} |a_k|``."""
    k = np.arange(lo, hi + 1, dtype=np.int64)
    return float(ksum(np.abs(a.eval(k))))


def _rect_abs_sum(c: CoefficientSequence, r: int, jlo: int, jhi: int, klo: int, khi: int,
                  memo: dict | None = None) -> float:
    """``sum_{j=jlo}^{jhi} sum_{k=klo}^{khi} |d_rr c_{jk}|``, or of ``|c_{jk}|`` at r = 0.

    For ``c = a_j b_k`` the step-r mixed difference is
    ``(a_j - a_{j+r})(b_k - b_{k+r})``, so the sum is the product of two
    exactly rounded factor sums, each :func:`_variation` of one
    evaluation of the factor on ``lo..hi + r``.  At r = 0 a factor sum is
    :func:`single_window_sum`, looked up in this module's namespace, where
    the benchmark's tracer (``bench/spans.py``) counts it as a scan.
    ``memo``, a dict kept for one ``c`` and ``r`` (by
    :meth:`DoubleScanTable.rect_abs_sum`), holds the factor sums under
    ``(part, lo, hi)``.  Any other sequence's sum is one exactly rounded
    sum of the rectangle, a schedule of one start
    (:func:`~doublesine.differences._nested_sums`).
    """
    if c.separable_parts is None:
        if r == 0:
            k = _span(klo, khi)
            block = lambda j0, j1: np.abs(c.eval(_span(j0, j1)[:, None], k[None, :]))  # noqa: E731
        else:
            block = lambda j0, j1: np.abs(delta_rr_grid(c, r, j0, j1, klo, khi))  # noqa: E731
        return _nested_sums([jlo], jhi, block, khi - klo + 1)(jlo)
    memo = {} if memo is None else memo
    for part, lo, hi in ((0, jlo, jhi), (1, klo, khi)):
        if (part, lo, hi) not in memo:
            f = c.separable_parts[part]
            memo[part, lo, hi] = (single_window_sum(f, lo, hi) if r == 0 else _variation(
                np.asarray(f.eval(_span(lo, hi + r))), r, hi - lo + 1))
    return memo[0, jlo, jhi] * memo[1, klo, khi]


# --- scan machinery -------------------------------------------------------

def _block_array(abs_vals: np.ndarray, lo: int, M_lo: int, M_hi: int) -> np.ndarray:
    """Block sums ``sum_{j=M}^{2M}`` for M in M_lo..M_hi.

    ``abs_vals`` holds ``|c_j|`` for j = lo..lo + len - 1 and must cover
    ``2*M_hi``.  Both ends of every block are slices of one cumsum.
    """
    cs = np.empty(len(abs_vals) + 1)
    cs[0] = 0.0
    np.cumsum(abs_vals, out=cs[1:])
    return cs[2 * M_lo - lo + 1:2 * M_hi - lo + 2:2] - cs[M_lo - lo:M_hi - lo + 1]


class _Line:
    """The values ``v_j`` of one line for ``j = lo, lo + 1, ...``, signed,
    and, once :meth:`prepare` has run, what a pruned sup scan up to
    ``horizon`` needs: the suffix maxima of the block estimates of
    ``|v|`` over ``lo..2 horizon`` (one cumsum from ``lo``; None when
    their total is not finite), their tolerance, and the hint's block
    bound past the horizon."""

    __slots__ = ("lo", "vals", "horizon", "suffix", "tol", "tail")

    def __init__(self, vals: np.ndarray, lo: int):
        self.lo, self.vals = lo, vals
        self.horizon = self.suffix = self.tail = None
        self.tol = 0.0

    def prepare(self, horizon: int, hint: PowerDecay | None) -> _Line:
        head = _abs_f64(self.vals[:2 * horizon - self.lo + 1])
        self.horizon, self.tail = horizon, None if hint is None else hint.block_sup(horizon)
        total = float(np.sum(head))
        if math.isfinite(total):
            est = _block_array(head, self.lo, self.lo, horizon)
            self.suffix = np.maximum.accumulate(est[::-1])[::-1]
            self.tol = 8.0 * len(head) * np.finfo(np.float64).eps * total
        return self


def _check_horizon(horizon: int, start: int) -> None:
    if horizon < start:
        raise HorizonError(f"horizon {horizon} below scan start {start}")


def _sup_scan(line: _Line, start: int) -> Measurement:
    """``sup_{M >= start}`` of the line's block sums up to its horizon,
    scanned exactly only as far as the suffix bound requires (see the
    module docstring); equal to the exhaustive scan bit for bit."""
    horizon = line.horizon
    _check_horizon(horizon, start)
    vals = line.vals[start - line.lo:]
    M1 = horizon if line.suffix is None else min(2 * start, horizon)
    while True:
        sup = float(np.max(_block_array(_abs_f64(vals[:2 * M1 - start + 1]), start, start, M1)))
        if M1 == horizon or line.suffix[M1 + 1 - line.lo] + line.tol < sup:
            break
        M1 = min(2 * M1, horizon)
    return _sup_measurement(sup, line.tail)


def single_sup_scan(a: SingleSequence, start: int, horizon: int) -> Measurement:
    """``sup_{M >= start} sum_{k=M}^{2M} |a_k|`` scanned up to ``horizon``."""
    _check_horizon(horizon, start)
    line = _Line(np.asarray(a.eval(_span(start, 2 * horizon))), start)
    return _sup_scan(line.prepare(horizon, a.decay_hint), start)


def _row_view(c: CoefficientSequence, fam: MajorantFamily, m: int,
              n: int) -> tuple[CoefficientSequence, int, int, int | None, int]:
    """``(source, m, n, start, reach)`` of the row or column majorant of
    ``fam`` at (m, n).  A column majorant is the row majorant of ``c.T``
    with m and n exchanged, which freezes the second index n and scans j
    from ``start = b(m)``: None for family ONE, which has no scan, and
    refused past the horizon for family THREE.  ``reach`` is the largest
    index the majorant reads on its line."""
    src, b = (c.T, fam.b2) if fam.axis is Axis.COLUMN else (c, fam.b1)
    if fam.axis is Axis.COLUMN:
        m, n = n, m
    if fam.family is Family.ONE:
        return src, m, n, None, averaging_window(m, fam.lam)[1]
    start = compile_b(b)(m)
    if fam.family is Family.TWO:
        return src, m, n, start, 2 * fam.lam * start
    _check_horizon(fam.sup_horizon, start)
    return src, m, n, start, 2 * fam.sup_horizon


def _row_lines(src: CoefficientSequence, lines: list[tuple[int, int]],
               fam: MajorantFamily) -> Iterator[_Line]:
    """Yield, in their order, the signed lines ``src_{j,fixed}`` for
    j = 1..reach of every ``(fixed, reach)`` of ``lines`` (a column line is
    a row line of ``c.T``), each prepared for the sup scans of family
    THREE, whose reach covers ``2 sup_horizon``.

    Consecutive lines of equal reach are the rows of one table, evaluated
    in one broadcast call of at most ``_TABLE_CELLS`` cells and at least
    one line.  Evaluators act elementwise, so each row is its line's own
    evaluation bit for bit, and no index is read that a line does not read.
    A table is dropped before the next is evaluated.
    """
    for reach, group in groupby(lines, key=lambda line: line[1]):
        fixed = [n for n, _ in group]
        per = max(1, _TABLE_CELLS // reach)
        for at in range(0, len(fixed), per):
            chunk = fixed[at:at + per]
            table = np.asarray(src.eval(_span(1, reach)[None, :],
                                        np.array(chunk, dtype=np.int64)[:, None]))
            for n, vals in zip(chunk, table):
                yield (_Line(vals, 1).prepare(fam.sup_horizon, src.row(n).decay_hint)
                       if fam.family is Family.THREE else _Line(vals, 1))
            del table, vals


def _line_rhs(family: Family, lam: int, line: _Line,
              reads: list[tuple[int, int | None]]) -> Iterator[Measurement]:
    """Yield, one at a time, the row majorants of ``family`` and ``lam`` at
    every ``(m, start)`` of ``reads`` from one line, in their order.

    Families ONE and TWO read windows of one ``|v|`` array.  Family ONE
    sums its window; family TWO takes the maximum of exactly rounded
    blocks over ``start <= M <= lam start``, re-summing with :func:`ksum`
    only the blocks that the cumsum of the window screens in (see the
    module docstring); a window whose total is not finite re-sums every
    block.  Family THREE scans each start (:func:`_sup_scan`).
    """
    if family is Family.THREE:
        for m, start in reads:
            yield _scaled(_sup_scan(line, start), m)
        return
    vals = _abs_f64(line.vals)
    if family is Family.ONE:
        for m, _ in reads:
            lo, hi = averaging_window(m, lam)
            yield Measurement(float(ksum(vals[lo - 1:hi])) / m, 0.0)
        return
    for m, start in reads:
        top = lam * start
        window = vals[start - 1:2 * top]
        total = float(np.sum(window))
        if math.isfinite(total):
            est = _block_array(window, start, start, top)
            tol = 4.0 * len(window) * np.finfo(np.float64).eps * total
            cand = np.flatnonzero(est >= est.max() - tol)
        else:
            cand = np.arange(top - start + 1)
        # block M = start + i covers window[i : 2 i + start + 1]
        sup = float(np.max([ksum(window[i:2 * i + start + 1]) for i in cand]))
        yield Measurement(sup / m, 0.0)


def _scaled(scan: Measurement, scale: int) -> Measurement:
    """Both fields over ``scale``; an excess that underflows to 0 reads as exact."""
    tail = scan.tail_bound
    return Measurement(scan.value / scale, None if tail is None else tail / scale)


class DoubleScanTable:
    """Double block sums of one sequence on ``1 <= M, N <= horizon``,
    queried by :meth:`query` for ``sup over M + N >= threshold``, and the
    factor sums of :meth:`rect_abs_sum`.

    Separable sequences keep the second factor's block array and the
    suffix maximum of the first's; others keep, for each threshold up to
    ``2 horizon``, the sup of the dense block sums, from one pass that
    streams ``_SCAN_ROWS`` block rows at a time (:meth:`_dense_sups`),
    within a working set stated in bytes and capped.  Which of the two is
    decided once, when the table is built on the first query.  One table
    serves a command (a fit and the lemma 3 points after it); nothing
    caches it across commands.
    Query results are kept per threshold, and :meth:`rect_abs_sum` keeps a
    separable sequence's factor sums per step and window.
    """

    def __init__(self, c: CoefficientSequence, horizon: int):
        self.c = c
        self.horizon = horizon
        self._search = self._tail = None
        self._queries: dict[int, Measurement] = {}
        self._factor_sums: dict[int, dict[tuple[int, int, int], float]] = {}

    def rect_abs_sum(self, r: int, jlo: int, jhi: int, klo: int, khi: int) -> float:
        """``sum_{j=jlo}^{jhi} sum_{k=klo}^{khi} |d_rr c_{jk}|``, or of ``|c_{jk}|``
        at r = 0 (:func:`_rect_abs_sum`, its factor sums kept per step r)."""
        return _rect_abs_sum(self.c, r, jlo, jhi, klo, khi, self._factor_sums.setdefault(r, {}))

    def _build(self):
        """The table's search, factored or dense as chosen here once: given
        a threshold, it returns the sup over ``M + N >=`` it."""
        c, horizon = self.c, self.horizon
        self._tail = None if c.decay_hint is None else c.decay_hint.block_sup(horizon)
        if c.separable_parts is None:
            best = self._dense_sups()
            return lambda threshold: float(best[max(threshold, 2)])

        j = _span(1, 2 * horizon)
        fa, fb = (_block_array(_abs_f64(f.eval(j)), 1, 1, horizon) for f in c.separable_parts)
        suffix = np.maximum.accumulate(fa[::-1])[::-1]
        tops = np.maximum.accumulate(fb[::-1])[::-1]
        finite = math.isfinite(suffix[0]) and math.isfinite(tops[0])

        def search(threshold):
            # lines are N: candidate fb[N] * max_{M >= lo} fa[M], lo the smallest
            # admissible M clipped to 1..horizon.  Past the horizon that clip
            # admits pairs below threshold.  Lines N >= threshold - 1 have lo = 1;
            # rounding is monotone for finite nonnegative factors, so their
            # largest candidate is max fb[N:] * suffix[0].  A table that is not
            # finite takes every line.
            split = min(max(threshold - 2, 0), horizon) if finite else horizon
            lo = np.clip(threshold - _span(1, split), 1, horizon)
            best = float(np.max(fb[:split] * suffix[lo - 1], initial=-np.inf))
            return best if split == horizon else max(best, float(tops[split] * suffix[0]))
        return search

    def _dense_sups(self) -> np.ndarray:
        """``best[t]``, the sup of the dense block sums over ``M + N >= t`` for
        ``t = 2..2 horizon``, in one streamed pass over ``M``.

        Block row M reads two rows of the prefix table of ``|c|`` on
        ``1..2 horizon``: the lead row 2M and the lag row M - 1.  Each is
        carried down its own rows by sequential row adds and then summed
        along k, as whole-table cumsums would, so block row M is that
        table's, bit for bit.  The rows are folded into anti-diagonal
        maxima ``D[M + N]``, and ``best`` is their reverse running max: a
        max of floats is exact, and NaN propagates as through any max.
        ``_SCAN_ROWS`` block rows are held at a time."""
        horizon = self.horizon
        width, rows = 2 * horizon, min(_SCAN_ROWS, horizon)
        _dense_cap("double scan", "sup_horizon", horizon, _scan_bytes(horizon, rows),
                   f"working set of {rows} streamed block rows")
        k = _span(1, width)
        lead, lag = (0, np.zeros(width)), (0, np.zeros(width))
        diag = np.full(2 * horizon + 1, -np.inf)

        def prefix_rows(carried, upto):
            # prefix rows at..upto of the carried row (index at, values), and the
            # new carried row upto; k-summed with a leading zero column
            at, row = carried
            pref = np.empty((upto - at + 1, width))
            pref[0] = row
            if upto > at:
                pref[1:] = _abs_f64(self.c.eval(_span(at + 1, upto)[:, None], k[None, :]))
                _cumsum_rows(pref, pref)
            summed = np.zeros((len(pref), width + 1))
            np.cumsum(pref, axis=1, out=summed[:, 1:])
            return summed, (upto, pref[-1].copy())

        for M0 in range(1, horizon + 1, rows):
            M1 = min(M0 + rows - 1, horizon)
            hi, lead = prefix_rows(lead, 2 * M1)        # rows 2 M0 - 2 .. 2 M1
            lo, lag = prefix_rows(lag, M1 - 1)          # rows M0 - 2 (0 at first) .. M1 - 1
            hi, lo = hi[2::2], lo[-(M1 - M0 + 1):]
            blocks = hi[:, 2::2] - lo[:, 2::2]
            blocks -= hi[:, :horizon]
            blocks += lo[:, :horizon]
            for M, row in zip(range(M0, M1 + 1), blocks):
                np.maximum(diag[M + 1:M + horizon + 1], row, out=diag[M + 1:M + horizon + 1])
        return np.maximum.accumulate(diag[::-1])[::-1]

    def query(self, threshold: int) -> Measurement:
        """``sup over M + N >= threshold`` of the tabled double block sums."""
        horizon = self.horizon
        if threshold > 2 * horizon:
            raise HorizonError(
                f"horizon {horizon} below scan start: threshold {threshold} unreachable")
        if threshold not in self._queries:
            if self._search is None:
                self._search = self._build()
            self._queries[threshold] = _sup_measurement(self._search(threshold), self._tail)
        return self._queries[threshold]


def _scan_table(c: CoefficientSequence, horizon: int,
                table: DoubleScanTable | None) -> DoubleScanTable:
    """``table``, or a new one when None; a table of another sequence or
    horizon is refused."""
    if table is None:
        return DoubleScanTable(c, horizon)
    if table.c is not c or table.horizon != horizon:
        raise ValueError("scan table belongs to another sequence or sup_horizon")
    return table


def double_sup_scan(c: CoefficientSequence, threshold: int, horizon: int) -> Measurement:
    """``sup over M + N >= threshold`` of double block sums, scanned on
    ``1 <= M, N <= horizon``.
    """
    return DoubleScanTable(c, horizon).query(threshold)


# --- the majorant dispatcher ----------------------------------------------

def rhs(c: CoefficientSequence, fam: MajorantFamily, m: int, n: int, *,
        table: DoubleScanTable | None = None) -> Measurement:
    """Evaluate the majorant of ``fam`` at (m, n), without the class constant.

    Row majorants carry the 1/m scale, column majorants 1/n, double
    majorants 1/(m n).  Callers enforce the per-axis domain rules
    (``m >= lambda`` for rows of families ONE/TWO, and so on).  Rows and
    columns read their own line, a table of one row (:func:`_row_lines`).
    Double majorants read ``table``: double sups its block table, family ONE
    double windows its step-0 factor sums.  Repeated calls on ``c`` at
    ``fam.sup_horizon`` share one :class:`DoubleScanTable` that way;
    without it each call builds its own.  A table of another sequence or
    horizon is refused on every axis.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    table = _scan_table(c, fam.sup_horizon, table)
    if fam.axis is not Axis.DOUBLE:
        src, m, n, start, reach = _row_view(c, fam, m, n)
        line = next(_row_lines(src, [(n, reach)], fam))
        return next(_line_rhs(fam.family, fam.lam, line, [(m, start)]))
    if fam.family is Family.ONE:
        jlo, jhi = averaging_window(m, fam.lam)
        klo, khi = averaging_window(n, fam.lam)
        return Measurement(table.rect_abs_sum(0, jlo, jhi, klo, khi) / (m * n), 0.0)
    return _scaled(table.query(compile_b(fam.b3)(m + n)), m * n)
