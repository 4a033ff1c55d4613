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
tail hints.  The table keeps, per (fixed index, orientation), one line:
the signed values ``c_{j,fixed}`` for ``j = 1..reach``.  A membership
fit reserves each line's reach up front (the largest index any of its
grid points reads), so every row and column read of the fit (left-hand
sides, family ONE windows, family TWO window scans, family THREE sups
over ``1..2 sup_horizon``) slices one evaluation and takes the modulus
of its slice.  A sup scan from ``start`` computes its exact
blocks (one cumsum from ``start``, as an exhaustive scan would) for
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
calls.  Within one table, double sups are kept per threshold and a
separable sequence's family ONE factor windows per window, since many
grid points share them.

The double left-hand sides of a fit, family ONE double windows and
lemma 1's dense tail are rectangle sums of ``|d_rr c|`` or ``|c|``, all
taken by :func:`_rect_abs_sum`, which writes the product rule for
separable sequences once.

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

from .differences import _blocked_sum, _row_blocks, _span, _variation, delta_rr_grid
from .sequences import CoefficientSequence, PowerDecay, SingleSequence, compile_expression
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
# Lines kept by one DoubleScanTable (a family-THREE line of a real sequence
# takes about 24 sup_horizon bytes); past this the least recently used are
# dropped and rebuilt on demand.
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
    ``memo``, a dict the caller keeps for one ``c`` and ``r``, holds the
    factor sums under ``(part, lo, hi)``.  Any other sequence is read in
    row blocks (:func:`_blocked_sum`).
    """
    if c.separable_parts is None:
        if r == 0:
            k = _span(klo, khi)
            block = lambda j0, j1: np.abs(c.eval(_span(j0, j1)[:, None], k[None, :]))  # noqa: E731
        else:
            block = lambda j0, j1: np.abs(delta_rr_grid(c, r, j0, j1, klo, khi))  # noqa: E731
        return _blocked_sum(jlo, jhi, khi - klo + 1, block)
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
    ``2*M_hi``.
    """
    cs = np.empty(len(abs_vals) + 1)
    cs[0] = 0.0
    np.cumsum(abs_vals, out=cs[1:])
    Ms = np.arange(M_lo, M_hi + 1, dtype=np.int64)
    return cs[2 * Ms - lo + 1] - cs[Ms - lo]


class _Line:
    """The values ``v_j`` of one line for ``j = lo, lo + 1, ...``, signed,
    and, once :meth:`prepare` has run, what a pruned sup scan up to
    ``horizon`` needs: the suffix maxima of the block estimates of
    ``|v|`` over ``lo..2 horizon`` (one cumsum from ``lo``; None when
    their total is not finite), their tolerance, and the hint's block
    bound past the horizon."""

    __slots__ = ("lo", "vals", "horizon", "suffix", "tol", "tail", "nbytes")

    def __init__(self, vals: np.ndarray, lo: int):
        self.lo, self.vals = lo, vals
        self.horizon = self.suffix = self.tail = None
        self.tol = 0.0
        self.nbytes = vals.nbytes

    def prepare(self, horizon: int, hint: PowerDecay | None) -> _Line:
        head = _abs_f64(self.vals[:2 * horizon - self.lo + 1])
        self.horizon, self.tail = horizon, None if hint is None else hint.block_sup(horizon)
        total = float(np.sum(head))
        if math.isfinite(total):
            est = _block_array(head, self.lo, self.lo, horizon)
            self.suffix = np.maximum.accumulate(est[::-1])[::-1]
            self.tol = 8.0 * len(head) * np.finfo(np.float64).eps * total
            self.nbytes += self.suffix.nbytes
        return self


def _sup_scan(line: _Line, start: int) -> MajorantValue:
    """``sup_{M >= start}`` of the line's block sums up to its horizon,
    scanned exactly only as far as the suffix bound requires (see the
    module docstring); equal to the exhaustive scan bit for bit."""
    horizon = line.horizon
    if horizon < start:
        raise HorizonError(f"horizon {horizon} below scan start {start}")
    vals = line.vals[start - line.lo:]
    M1 = horizon if line.suffix is None else min(2 * start, horizon)
    while True:
        blocks = _block_array(_abs_f64(vals[:2 * M1 - start + 1]), start, start, M1)
        idx = int(np.argmax(blocks))
        sup = float(blocks[idx])
        if M1 == horizon or line.suffix[M1 + 1 - line.lo] + line.tol < sup:
            break
        M1 = min(2 * M1, horizon)
    truncated = line.tail is None or line.tail > sup
    return MajorantValue(value=sup, truncated=truncated, tail_bound=line.tail,
                         argmax=(start + idx,))


def _single_line(a: SingleSequence, lo: int, horizon: int) -> _Line:
    k = np.arange(lo, 2 * horizon + 1, dtype=np.int64)
    return _Line(np.asarray(a.eval(k)), lo).prepare(horizon, a.decay_hint)


def single_sup_scan(a: SingleSequence, start: int, horizon: int) -> MajorantValue:
    """``sup_{M >= start} sum_{k=M}^{2M} |a_k|`` scanned up to ``horizon``."""
    return _sup_scan(_single_line(a, start, horizon), start)


def _bounded_max_scan(vals: np.ndarray, M_lo: int, M_hi: int) -> tuple[float, int]:
    """Max of exactly rounded block sums ``sum_{j=M}^{2M} |c_j|`` over the
    bounded window M_lo..M_hi, from ``vals``, the values ``|c_j|`` for
    ``j = M_lo..2 M_hi``.

    Returns the maximum and the first block start attaining it.  Only
    blocks whose cumsum estimate lies within ``4 len eps sum`` of the
    largest estimate can hold the maximum (see the module docstring),
    and only those are re-summed with :func:`ksum`.  A window that is
    not finite re-sums every block.
    """
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


def _row_view(c: CoefficientSequence, fam: MajorantFamily, m: int,
              n: int) -> tuple[CoefficientSequence, str, int, int]:
    """``(source, b, m, n)`` of the row or column majorant of ``fam`` at
    (m, n): a column majorant is the row majorant of ``c.T`` with m and n
    exchanged, which freezes the second index n and scans j from b(m)."""
    if fam.axis is Axis.COLUMN:
        return c.T, fam.b2, n, m
    return c, fam.b1, m, n


def _row_reach(fam: MajorantFamily, b: str, m: int) -> int:
    """The largest index the row majorant of ``fam`` at m reads on its line."""
    if fam.family is Family.ONE:
        return averaging_window(m, fam.lam)[1]
    if fam.family is Family.TWO:
        return 2 * fam.lam * compile_b(b)(m)
    return 2 * fam.sup_horizon


class DoubleScanTable:
    """Double block sums of one sequence on ``1 <= M, N <= horizon``,
    queried by :meth:`query` for ``sup over M + N >= threshold``, and the
    row and column lines a membership fit reads.

    Separable sequences keep the two factor block arrays and the suffix
    maximum of the first; others keep the dense block matrix, from a
    prefix table filled one row block at a time, and its row-wise suffix
    maximum.  Which of the two is decided once, when the table is built
    on the first query.  The table belongs to its creator; nothing caches
    it across calls.  Query
    results are kept per threshold, and :meth:`window_sum` keeps a
    separable sequence's factor sums per window.

    :meth:`line` keeps the row lines of the sequence and of its
    transpose ``c.T`` (the column lines), one per (fixed index,
    orientation), each evaluated once over ``1..reach`` with the reach
    :meth:`reserve` recorded for it; a family-THREE line also keeps the
    suffix bound its pruned scans stop on.  At most ``_MAX_LINE_BYTES``
    of lines are held; the least recently used go first, which changes
    no result.
    """

    def __init__(self, c: CoefficientSequence, horizon: int):
        self.c = c
        self.horizon = horizon
        self._search = self._tail = None
        self._lines: dict[tuple[int, bool], _Line] = {}
        self._line_bytes = 0
        self._reach: dict[tuple[int, bool], int] = {}
        self._queries: dict[int, MajorantValue] = {}
        self._windows: dict[tuple[int, int, int], float] = {}

    def _key(self, fixed: int, src: CoefficientSequence | None) -> tuple[int, bool]:
        if src is not None and src is not self.c and src is not self.c.T:
            raise ValueError("line source is neither the table's sequence nor its transpose")
        return fixed, src is not None and src is not self.c

    def reserve(self, fixed: int, src: CoefficientSequence | None, reach: int) -> None:
        """Make the line :meth:`line` builds for ``(fixed, src)`` cover
        ``1..reach``, so that one evaluation serves every later read."""
        key = self._key(fixed, src)
        self._reach[key] = max(reach, self._reach.get(key, 0))

    def line(self, fixed: int, src: CoefficientSequence | None = None,
             reach: int | None = None) -> _Line:
        """The signed line ``src_{j,fixed}`` from j = 1 to at least
        ``reach`` and the reach reserved for it; ``src`` is the table's
        sequence (the default) or its transpose ``c.T``, whose rows are
        the sequence's columns.  Without ``reach`` the line covers
        ``1..2 horizon`` and is ready for sup scans.  A line shorter
        than the read is evaluated anew."""
        key = self._key(fixed, src)
        src = self.c.T if key[1] else self.c
        scan = reach is None
        reach = 2 * self.horizon if scan else reach
        line = self._lines.pop(key, None)
        if line is not None:
            self._line_bytes -= line.nbytes
        if line is None or len(line.vals) < reach:
            j = np.arange(1, max(reach, self._reach.get(key, 0)) + 1, dtype=np.int64)
            line = _Line(np.asarray(src.eval(j, fixed)), 1)
        if scan and line.horizon is None:
            line.prepare(self.horizon, src.row(fixed).decay_hint)
        self._line_bytes += line.nbytes
        self._lines[key] = line  # most recently used last
        while self._line_bytes > _MAX_LINE_BYTES and len(self._lines) > 1:
            self._line_bytes -= self._lines.pop(next(iter(self._lines))).nbytes
        return line

    def window_sum(self, jlo: int, jhi: int, klo: int, khi: int) -> float:
        """``sum_{j=jlo}^{jhi} sum_{k=klo}^{khi} |c_{jk}|``
        (:func:`_rect_abs_sum` at r = 0, its factor sums kept per window)."""
        return _rect_abs_sum(self.c, 0, jlo, jhi, klo, khi, self._windows)

    def _build(self):
        """The table's search, factored or dense as chosen here once: given
        ``first``, each line's smallest admissible partner, and ``lo``, that
        clipped to ``1..horizon``, it returns the sup and its pair."""
        c, horizon = self.c, self.horizon
        self._tail = None if c.decay_hint is None else c.decay_hint.block_sup(horizon)
        if c.separable_parts is None:
            blocks = self._dense_blocks()
            suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1]

            def search(first, lo):
                # lines are rows M; the first maximal row, then its first maximal N
                best = np.where(first <= horizon, suffix[np.arange(horizon), lo - 1], -np.inf)
                mi = int(np.argmax(best))
                ni = int(lo[mi]) - 1 + int(np.argmax(blocks[mi, lo[mi] - 1:]))
                return float(blocks[mi, ni]), (mi + 1, ni + 1)
            return search

        j = _span(1, 2 * horizon)
        fa, fb = (_block_array(_abs_f64(f.eval(j)), 1, 1, horizon) for f in c.separable_parts)
        suffix = np.maximum.accumulate(fa[::-1])[::-1]

        def search(first, lo):
            # lines are N: candidate fb[N] * max_{M >= lo} fa[M].  Past the
            # horizon lo is clipped to it, which admits pairs below threshold.
            cand = fb * suffix[lo - 1]
            nidx = int(np.argmax(cand))
            # recover the M attaining the suffix max for the witness
            mlo = int(lo[nidx])
            return float(cand[nidx]), (mlo + int(np.argmax(fa[mlo - 1:])), nidx + 1)
        return search

    def _dense_blocks(self) -> np.ndarray:
        """The dense block matrix from the prefix table of ``|c|`` on ``1..2 horizon``,
        whose rows are evaluated one row block at a time and carried down in
        place: the values of two whole-table cumsums, without the ``|c|`` grid."""
        horizon = self.horizon
        side = 2 * horizon + 1
        needed = 8 * side * side
        if needed > _MAX_DENSE_BYTES:
            raise ValueError(
                f"dense double scan at sup_horizon {horizon} needs {needed} bytes for its "
                f"{side}x{side} prefix table, over the cap of {_MAX_DENSE_BYTES} bytes; "
                "lower sup_horizon or use a separable sequence")
        k = _span(1, 2 * horizon)
        pref = np.zeros((side, side))
        for j0, j1 in _row_blocks(1, 2 * horizon, 2 * horizon):
            rows = pref[j0 - 1:j1 + 1, 1:]    # the block and the prefix row above it
            rows[1:] = _abs_f64(self.c.eval(_span(j0, j1)[:, None], k[None, :]))
            _cumsum_rows(rows, rows)
        np.cumsum(pref[1:, 1:], axis=1, out=pref[1:, 1:])
        Ms = _span(1, horizon)
        lo, hi = Ms - 1, 2 * Ms
        blocks = pref[np.ix_(hi, hi)]
        blocks -= pref[np.ix_(lo, hi)]
        blocks -= pref[np.ix_(hi, lo)]
        blocks += pref[np.ix_(lo, lo)]
        return blocks

    def query(self, threshold: int) -> MajorantValue:
        """``sup over M + N >= threshold`` of the tabled double block sums."""
        horizon = self.horizon
        if threshold > 2 * horizon:
            raise HorizonError(
                f"horizon {horizon} below scan start: threshold {threshold} unreachable")
        if threshold not in self._queries:
            self._queries[threshold] = self._scan(threshold)
        return self._queries[threshold]

    def _scan(self, threshold: int) -> MajorantValue:
        if self._search is None:
            self._search = self._build()
        # For each line index i, partners from threshold - i up are admissible.
        first = threshold - _span(1, self.horizon)
        sup, argmax = self._search(first, np.clip(first, 1, self.horizon))
        return MajorantValue(value=sup, truncated=self._tail is None or self._tail > sup,
                             tail_bound=self._tail, argmax=argmax)


def _scan_table(c: CoefficientSequence, horizon: int,
                table: DoubleScanTable | None) -> DoubleScanTable:
    """``table``, or a new one when None; a table of another sequence or
    horizon is refused."""
    if table is None:
        return DoubleScanTable(c, horizon)
    if table.c is not c or table.horizon != horizon:
        raise ValueError("scan table belongs to another sequence or sup_horizon")
    return table


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
    (``m >= lambda`` for rows of families ONE/TWO, and so on).  Every
    family reads ``table``: rows and columns its lines, double sups its
    block table, family ONE double windows its factor sums.  Repeated
    calls on ``c`` at ``fam.sup_horizon`` share one
    :class:`DoubleScanTable` that way; without it each call builds its
    own.  A table of another sequence or horizon is refused.
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    table = _scan_table(c, fam.sup_horizon, table)

    if fam.axis is Axis.DOUBLE:
        if fam.family is Family.ONE:
            jlo, jhi = averaging_window(m, fam.lam)
            klo, khi = averaging_window(n, fam.lam)
            return MajorantValue(value=table.window_sum(jlo, jhi, klo, khi) / (m * n))
        scan = table.query(compile_b(fam.b3)(m + n))
        scale = m * n
    else:
        src, b, m, n = _row_view(c, fam, m, n)
        if fam.family is not Family.THREE:
            vals = table.line(n, src, _row_reach(fam, b, m)).vals
            if fam.family is Family.ONE:
                lo, hi = averaging_window(m, fam.lam)
                return MajorantValue(value=float(ksum(_abs_f64(vals[lo - 1:hi]))) / m)
            start = compile_b(b)(m)
            sup, arg = _bounded_max_scan(_abs_f64(vals[start - 1:2 * fam.lam * start]), start,
                                         fam.lam * start)
            return MajorantValue(value=sup / m, argmax=(arg,))
        start = compile_b(b)(m)
        scan = _sup_scan(table.line(n, src), start)
        scale = m
    return MajorantValue(value=scan.value / scale, truncated=scan.truncated,
                         tail_bound=None if scan.tail_bound is None else scan.tail_bound / scale,
                         argmax=scan.argmax)
