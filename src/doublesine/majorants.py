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
on the unscanned tail; if that bound does not certify the scanned value
as the true sup, the result is flagged as truncated.

Scans evaluate ``|c|`` once per line and take block sums as differences
of one cumulative sum.  The family-TWO window scan reports exactly
rounded block sums (:func:`ksum`), as a per-block loop would, in one
pass: for n nonnegative terms of total S, each cumsum estimate is
within about ``n eps S`` of its block's sum, and the exactly rounded
maximum's block lies within ``(2n + 3) eps S`` of the largest estimate.
Only blocks within ``4 n eps S`` of it are re-summed, and the first one
with the largest exact sum is the same value and argmax as the loop's.
Double sups keep a :class:`DoubleScanTable` of the threshold-independent
block sums, so a membership fit builds it once and queries it at every
grid point.

Columns run as rows of the transpose ``c.T``, whose row lines
(:meth:`~doublesine.sequences.CoefficientSequence.row`) carry their own
tail hints.  The table keeps, per (fixed index, orientation), the
family-THREE line ``|c|`` over ``1..2 sup_horizon``, so every grid
point that shares the fixed index reads one evaluation.  A sup scan
from ``start`` slices that line and computes its exact blocks (one
cumsum from ``start``, as an exhaustive scan would) for
``M = start..M1``, with ``M1 = 2 start`` doubling up to the horizon.
``np.cumsum`` is sequential, so these blocks are bit-identical to the
exhaustive scan's.
It stops once the largest exact block so far exceeds, strictly, the
suffix maximum past ``M1`` of the line's shared estimates (blocks of
one cumsum from 1) plus a tolerance.  For n nonnegative terms of total
S both a per-start block and a shared estimate lie within about
``(2n + 1) eps S`` of the true block sum, so ``8 n eps S`` bounds their
difference: no block past ``M1`` can reach the maximum, and the value
and first argmax are the exhaustive scan's.  A line whose total is not
finite is scanned in full.  Lines live in the table, are evicted least
recently used past ``_MAX_LINE_BYTES``, and nothing caches them across
calls.

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

import numpy as np

from .differences import _blocked_sum
from .sequences import CoefficientSequence, SingleSequence, compile_expression
from .summing import _cumsum_rows, ksum

__all__ = [
    "Family",
    "Axis",
    "MajorantFamily",
    "MajorantValue",
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

# Dense double-sup scans build a (2H+1)^2 float64 prefix table; cap its size.
_MAX_DENSE_BYTES = 160_000_000
# Family-THREE lines kept by one DoubleScanTable (about 24 sup_horizon bytes
# each); past this the least recently used are dropped and rebuilt on demand.
_MAX_LINE_BYTES = 32_000_000


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
class MajorantValue:
    """A majorant evaluation.

    ``value`` is the scanned (possibly truncated) majorant.  For
    unbounded sups, ``tail_bound`` bounds the unscanned region on the
    same scale as ``value`` when a decay hint permits one;
    ``truncated`` is True when the scan hit the horizon and the tail
    bound fails to certify ``value`` as the true sup.  ``argmax`` is the
    block start (or pair of starts) attaining the scanned maximum.
    """

    value: float
    truncated: bool = False
    tail_bound: float | None = None
    argmax: tuple | None = None


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


@lru_cache(maxsize=None)
def compile_b(expr: str):
    """Compile a closed-form index sequence ``b(l)`` from an expression.

    Values are floored to ints and must be >= 1.
    """
    fn, _ = compile_expression(expr, ("l",))

    def b(l: int) -> int:
        val = float(fn(l=float(l)))
        if not math.isfinite(val):
            raise ValueError(f"b-sequence {expr!r} not finite at l={l}")
        iv = int(math.floor(val))
        if iv < 1:
            raise ValueError(f"b-sequence {expr!r} must be >= 1, got {iv} at l={l}")
        return iv

    return b


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


def _line_sum(c: CoefficientSequence, fixed: int, lo: int, hi: int) -> float:
    """Compensated sum of :func:`_abs_line`."""
    return float(ksum(_abs_line(c, fixed, lo, hi)))


def block_sum_row(c: CoefficientSequence, M: int, n: int) -> float:
    """``sum_{j=M}^{2M} |c_{jn}|`` (M+1 terms)."""
    return _line_sum(c, n, M, 2 * M)


def block_sum_col(c: CoefficientSequence, m: int, N: int) -> float:
    """``sum_{k=N}^{2N} |c_{mk}|``."""
    return _line_sum(c.T, m, N, 2 * N)


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


def _window_double_sum(c: CoefficientSequence, jlo: int, jhi: int, klo: int, khi: int) -> float:
    if c.separable_parts is not None:
        a, b = c.separable_parts
        return single_window_sum(a, jlo, jhi) * single_window_sum(b, klo, khi)
    k = np.arange(klo, khi + 1, dtype=np.int64)
    return _blocked_sum(jlo, jhi, len(k), lambda j0, j1: np.abs(
        c.eval(np.arange(j0, j1 + 1, dtype=np.int64)[:, None], k[None, :])))


# --- scan machinery -------------------------------------------------------

def _block_array(abs_vals: np.ndarray, lo: int, M_lo: int, M_hi: int) -> np.ndarray:
    """Block sums ``sum_{j=M}^{2M}`` for M in M_lo..M_hi.

    ``abs_vals`` holds ``|c_j|`` for j = lo..lo + len - 1 and must cover
    ``2*M_hi``.
    """
    cs = np.concatenate([[0.0], np.cumsum(abs_vals)])
    Ms = np.arange(M_lo, M_hi + 1, dtype=np.int64)
    return cs[2 * Ms - lo + 1] - cs[Ms - lo]


def _single_tail_bound(a: SingleSequence, horizon: int) -> float | None:
    """Bound on ``sup_{M > horizon} sum_{k=M}^{2M} |a_k|`` from the hint.

    ``sum_{k=M}^{2M} |a_k| <= K (M+1) M^{-p} <= 2 K M^{1-p}``, which is
    nonincreasing in M for p >= 1.
    """
    hint = a.decay_hint
    if hint is None or hint.p < 1.0:
        return None
    return 2.0 * hint.K * float(horizon + 1) ** (1.0 - hint.p)


class _SupLine:
    """``|c|`` along one line for indices ``lo..2 horizon``, with what a
    pruned sup scan needs: the suffix maxima of its block estimates
    (one cumsum from ``lo``; None when the total is not finite), their
    tolerance, and the tail bound past the horizon."""

    __slots__ = ("lo", "horizon", "vals", "suffix", "tol", "tail", "nbytes")

    def __init__(self, vals: np.ndarray, lo: int, horizon: int, tail: float | None):
        self.lo, self.horizon, self.vals, self.tail = lo, horizon, vals, tail
        total = float(np.sum(vals))
        self.suffix = None
        self.tol = 0.0
        if math.isfinite(total):
            est = _block_array(vals, lo, lo, horizon)
            self.suffix = np.maximum.accumulate(est[::-1])[::-1]
            self.tol = 8.0 * len(vals) * np.finfo(np.float64).eps * total
        self.nbytes = vals.nbytes + (0 if self.suffix is None else self.suffix.nbytes)


def _sup_scan(line: _SupLine, start: int) -> MajorantValue:
    """``sup_{M >= start}`` of the line's block sums up to its horizon,
    scanned exactly only as far as the suffix bound requires (see the
    module docstring); equal to the exhaustive scan bit for bit."""
    horizon = line.horizon
    if horizon < start:
        raise HorizonError(f"horizon {horizon} below scan start {start}")
    vals = line.vals[start - line.lo:]
    M1 = horizon if line.suffix is None else min(2 * start, horizon)
    while True:
        blocks = _block_array(vals[:2 * M1 - start + 1], start, start, M1)
        idx = int(np.argmax(blocks))
        sup = float(blocks[idx])
        if M1 == horizon or line.suffix[M1 + 1 - line.lo] + line.tol < sup:
            break
        M1 = min(2 * M1, horizon)
    truncated = line.tail is None or line.tail > sup
    return MajorantValue(value=sup, truncated=truncated, tail_bound=line.tail,
                         argmax=(start + idx,))


def _single_line(a: SingleSequence, lo: int, horizon: int) -> _SupLine:
    k = np.arange(lo, 2 * horizon + 1, dtype=np.int64)
    return _SupLine(_abs_f64(a.eval(k)), lo, horizon, _single_tail_bound(a, horizon))


def single_sup_scan(a: SingleSequence, start: int, horizon: int) -> MajorantValue:
    """``sup_{M >= start} sum_{k=M}^{2M} |a_k|`` scanned up to ``horizon``."""
    return _sup_scan(_single_line(a, start, horizon), start)


def _bounded_max_scan(c: CoefficientSequence, fixed: int, M_lo: int,
                      M_hi: int) -> tuple[float, int]:
    """Max of exactly rounded row block sums at column ``fixed`` over the
    bounded window M_lo..M_hi (column blocks: the rows of ``c.T``).

    Returns the maximum and the first block start attaining it.
    ``|c|`` is evaluated once over ``M_lo..2 M_hi``; only blocks whose
    cumsum estimate lies within ``4 len eps sum`` of the largest estimate
    can hold the maximum (see the module docstring), and only those are
    re-summed with :func:`ksum`.  A window that is not finite re-sums
    every block.
    """
    vals = _abs_line(c, fixed, M_lo, 2 * M_hi)
    total = float(np.sum(vals))
    if math.isfinite(total):
        approx = _block_array(vals, M_lo, M_lo, M_hi)
        tol = 4.0 * len(vals) * np.finfo(np.float64).eps * total
        cand = np.flatnonzero(approx >= approx.max() - tol)
    else:
        cand = np.arange(M_hi - M_lo + 1)
    # block M = M_lo + i covers vals[i : 2 i + M_lo + 1]
    exact = np.array([ksum(vals[i:2 * i + M_lo + 1]) for i in cand])
    best = int(np.argmax(exact))
    return float(exact[best]), M_lo + int(cand[best])


def _double_tail_bound(c: CoefficientSequence, horizon: int) -> float | None:
    """Bound on double block sums with ``max(M, N) > horizon``.

    Blocks satisfy ``sum sum |c| <= 4 K M^{1-p} N^{1-q}``; for p, q >= 1
    the factor at the small index is at most 1, so blocks past the
    horizon in either coordinate are bounded by
    ``4 K (horizon+1)^{1-min(p,q)}``-style terms.  A separable
    sequence's hint is the product of its factor hints.
    """
    hint = c.decay_hint
    if hint is None or hint.p < 1.0 or hint.q < 1.0:
        return None
    far = float(horizon + 1)
    return max(4.0 * hint.K * far ** (1.0 - hint.p), 4.0 * hint.K * far ** (1.0 - hint.q))


class DoubleScanTable:
    """Double block sums of one sequence on ``1 <= M, N <= horizon``,
    queried by :meth:`query` for ``sup over M + N >= threshold``.

    Separable sequences keep the two factor block arrays and the suffix
    maximum of the first; others keep the dense block matrix and its
    row-wise suffix maximum.  The table is built on the first query and
    belongs to its creator; nothing caches it across calls.

    :meth:`line` keeps the family-THREE row lines of the sequence and of
    its transpose ``c.T`` (the column lines) at the same horizon, one per
    (fixed index, orientation), each with the suffix bound its pruned
    scans stop on.  At most ``_MAX_LINE_BYTES`` of lines are held; the
    least recently used go first, which changes no result.
    """

    def __init__(self, c: CoefficientSequence, horizon: int):
        self.c = c
        self.horizon = horizon
        self._blocks = self._fb = self._suffix = self._tail = None
        self._lines: dict[tuple[int, bool], _SupLine] = {}
        self._line_bytes = 0

    def line(self, fixed: int, src: CoefficientSequence | None = None) -> _SupLine:
        """The line ``|src_{j,fixed}|`` for j = 1..2 horizon, built on first
        use; ``src`` is the table's sequence (the default) or its
        transpose ``c.T``, whose rows are the sequence's columns."""
        src = self.c if src is None else src
        if src is not self.c and src is not self.c.T:
            raise ValueError("line source is neither the table's sequence nor its transpose")
        key = (fixed, src is not self.c)
        line = self._lines.pop(key, None)
        if line is None:
            line = _single_line(src.row(fixed), 1, self.horizon)
            self._line_bytes += line.nbytes
        self._lines[key] = line  # most recently used last
        while self._line_bytes > _MAX_LINE_BYTES and len(self._lines) > 1:
            self._line_bytes -= self._lines.pop(next(iter(self._lines))).nbytes
        return line

    def _build(self) -> None:
        c, horizon = self.c, self.horizon
        j = np.arange(1, 2 * horizon + 1, dtype=np.int64)
        if c.separable_parts is not None:
            a, b = c.separable_parts
            self._blocks = _block_array(_abs_f64(a.eval(j)), 1, 1, horizon)
            self._fb = _block_array(_abs_f64(b.eval(j)), 1, 1, horizon)
            self._suffix = np.maximum.accumulate(self._blocks[::-1])[::-1]
        else:
            side = 2 * horizon + 1
            needed = 8 * side * side
            if needed > _MAX_DENSE_BYTES:
                raise ValueError(
                    f"dense double scan at sup_horizon {horizon} needs {needed} bytes for its "
                    f"{side}x{side} prefix table, over the cap of {_MAX_DENSE_BYTES} bytes; "
                    "lower sup_horizon or use a separable sequence")
            grid = _abs_f64(c.eval(j[:, None], j[None, :]))
            pref = np.zeros((len(j) + 1, len(j) + 1))
            _cumsum_rows(grid, pref[1:, 1:])
            np.cumsum(pref[1:, 1:], axis=1, out=pref[1:, 1:])
            Ms = np.arange(1, horizon + 1, dtype=np.int64)
            blocks = (pref[2 * Ms, :][:, 2 * Ms] - pref[Ms - 1, :][:, 2 * Ms]
                      - pref[2 * Ms, :][:, Ms - 1] + pref[Ms - 1, :][:, Ms - 1])
            self._blocks = blocks
            self._suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1]
        self._tail = _double_tail_bound(c, horizon)

    def query(self, threshold: int) -> MajorantValue:
        """``sup over M + N >= threshold`` of the tabled double block sums."""
        horizon = self.horizon
        if threshold > 2 * horizon:
            raise HorizonError(
                f"horizon {horizon} below scan start: threshold {threshold} unreachable")
        if self._blocks is None:
            self._build()
        # For each line index i, partners from threshold - i up are admissible.
        idx = np.arange(1, horizon + 1, dtype=np.int64)
        first = threshold - idx
        lo = np.clip(first, 1, horizon)
        if self.c.separable_parts is not None:
            # lines are N: candidate fb[N] * max_{M >= lo} fa[M].  Past the
            # horizon lo is clipped to it, which admits pairs below threshold.
            cand = self._fb * self._suffix[lo - 1]
            nidx = int(np.argmax(cand))
            sup = float(cand[nidx])
            # recover the M attaining the suffix max for the witness
            mlo = int(lo[nidx])
            argmax = (mlo + int(np.argmax(self._blocks[mlo - 1:])), nidx + 1)
        else:
            # lines are rows M; the first maximal row, then its first maximal N
            best = np.where(first <= horizon, self._suffix[idx - 1, lo - 1], -np.inf)
            mi = int(np.argmax(best))
            nlo = int(lo[mi])
            ni = nlo - 1 + int(np.argmax(self._blocks[mi, nlo - 1:]))
            sup = float(self._blocks[mi, ni])
            argmax = (mi + 1, ni + 1)
        truncated = self._tail is None or self._tail > sup
        return MajorantValue(value=sup, truncated=truncated, tail_bound=self._tail,
                             argmax=argmax)


def double_sup_scan(c: CoefficientSequence, threshold: int, horizon: int) -> MajorantValue:
    """``sup over M + N >= threshold`` of double block sums, scanned on
    ``1 <= M, N <= horizon``.
    """
    return DoubleScanTable(c, horizon).query(threshold)


# --- the majorant dispatcher ----------------------------------------------

def rhs(c: CoefficientSequence, fam: MajorantFamily, m: int, n: int, *,
        table: DoubleScanTable | None = None) -> MajorantValue:
    """Evaluate the majorant of ``fam`` at (m, n), without the class constant.

    Row majorants carry the 1/m scale, column majorants 1/n, double
    majorants 1/(m n).  Callers enforce the per-axis domain rules
    (``m >= lambda`` for rows of families ONE/TWO, and so on).  Double
    sups of families TWO and THREE, and family-THREE rows and columns,
    read ``table``, which lets repeated calls on ``c`` at
    ``fam.sup_horizon`` share one :class:`DoubleScanTable`; without it
    each call builds its own.  A table of another sequence or horizon is
    refused.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    if table is None:
        table = DoubleScanTable(c, fam.sup_horizon)
    elif table.c is not c or table.horizon != fam.sup_horizon:
        raise ValueError("scan table belongs to another sequence or sup_horizon")

    if fam.axis is Axis.DOUBLE:
        if fam.family is Family.ONE:
            jlo, jhi = averaging_window(m, fam.lam)
            klo, khi = averaging_window(n, fam.lam)
            return MajorantValue(value=_window_double_sum(c, jlo, jhi, klo, khi) / (m * n))
        scan = table.query(compile_b(fam.b3)(m + n))
        scale = m * n
    else:
        # a column majorant is the row majorant of c.T with m and n exchanged
        src, b = c, fam.b1
        if fam.axis is Axis.COLUMN:
            src, b, m, n = c.T, fam.b2, n, m
        # rows freeze the column n and scan j from b(m)
        if fam.family is Family.ONE:
            lo, hi = averaging_window(m, fam.lam)
            return MajorantValue(value=_line_sum(src, n, lo, hi) / m)
        start = compile_b(b)(m)
        if fam.family is Family.TWO:
            sup, arg = _bounded_max_scan(src, n, start, fam.lam * start)
            return MajorantValue(value=sup / m, argmax=(arg,))
        scan = _sup_scan(table.line(n, src), start)
        scale = m
    return MajorantValue(value=scan.value / scale, truncated=scan.truncated,
                         tail_bound=None if scan.tail_bound is None else scan.tail_bound / scale,
                         argmax=scan.argmax)
