#!/usr/bin/env python3
"""Brute-force oracle for the membership fits frozen in the acceptance suite.

Recomputes, from scratch and without importing the package, the fitted
class constants and the step-1 growth slope for the oscillating preset
``a_j = (2 + (-1)^j) / j^2`` against the sup-past-b majorant family with
``b(l) = l`` and window factor 2, over the dyadic grid m, n in {2, ..., 4096}.

Definitions (matching the library's documented conventions):

    lhs_row(m)      = sum_{j=m}^{2m-1} |a_j - a_{j+r}|     (column factor cancels)
    B(M)            = sum_{j=M}^{2M} a_j                   (M+1 terms)
    rhs_row(m)      = (1/m) sup_{M >= m} B(M)
    lhs_double(m,n) = lhs_row(m) * lhs_col(n)              (separable step-r blocks)
    rhs_double(m,n) = (1/(m n)) sup_{M+N >= m+n} B(M) B(N)

The sups are scanned to a horizon far past the grid (2^20), so the script
also certifies that the library's default 4096 horizon loses nothing.
The block sums are not monotone (the parity of M shifts weight between
light and heavy terms), so the double sup scans the whole region
``M + N >= threshold`` rather than just its boundary.

The growth slope is the least-squares slope of log(running sup of row
ratios over the square subgrid of side s) against log(s); for this
sequence the step-1 row ratios grow roughly linearly in m, which is what
the slope certifies.

Run:  python3 scripts/growth_slope_oracle.py
"""

from __future__ import annotations

import numpy as np

HORIZON = 1 << 20
DYADIC = [2 ** t for t in range(1, 13)]


def a_vals(hi: int) -> np.ndarray:
    """a_1 .. a_hi with a_j = (2 + (-1)^j) / j^2, padded so a[j] works."""
    j = np.arange(0, hi + 1, dtype=np.float64)
    j[0] = 1.0  # avoid 0/0; index 0 is never used
    signs = np.where(np.arange(hi + 1) % 2 == 0, 1.0, -1.0)
    out = (2.0 + signs) / (j * j)
    out[0] = 0.0
    return out


def block_sums(a: np.ndarray, hi: int) -> np.ndarray:
    """B[M] = sum_{j=M}^{2M} a_j for M = 1..hi (B[0] unused)."""
    pref = np.concatenate(([0.0], np.cumsum(a[1:])))  # pref[i] = sum_{j<=i} a_j
    M = np.arange(1, hi + 1)
    out = np.zeros(hi + 1)
    out[1:] = pref[2 * M] - pref[M - 1]
    return out


def lhs_blocks(a: np.ndarray, r: int, hi: int) -> np.ndarray:
    """L[m] = sum_{j=m}^{2m-1} |a_j - a_{j+r}| for m = 1..hi."""
    d = np.abs(a[1:2 * hi] - a[1 + r:2 * hi + r])  # index i -> |a_{i+1} - a_{i+1+r}|
    pref = np.concatenate(([0.0], np.cumsum(d)))   # pref[i] = sum over j = 1..i
    m = np.arange(1, hi + 1)
    out = np.zeros(hi + 1)
    out[1:] = pref[2 * m - 1] - pref[m - 1]
    return out


def double_sup(B: np.ndarray, suffix_sup: np.ndarray, threshold: int) -> float:
    """sup of B(M) B(N) over M + N >= threshold, M, N within the horizon."""
    N = np.arange(1, HORIZON + 1)
    M_lo = np.clip(threshold - N, 1, HORIZON)
    return float(np.max(B[1:HORIZON + 1] * suffix_sup[M_lo]))


def oracle() -> dict:
    """The oracle's findings: ``sup_beyond_start`` (grid starts whose sup
    lies past M = m), ``sup_past_4096`` (whether any sup escapes the 4096
    scan window), and per step r in (1, 2) a dict of ``row``, ``double``
    and ``slope``, all plain Python values."""
    top = DYADIC[-1]
    a = a_vals(2 * HORIZON + 4)
    B = block_sums(a, HORIZON)
    suffix_sup = np.maximum.accumulate(B[::-1])[::-1]
    found = {
        "sup_beyond_start": [m for m in DYADIC if suffix_sup[m] != B[m]],
        "sup_past_4096": bool(np.any(suffix_sup[1:4097] > np.array(
            [B[m:4097].max() for m in range(1, 4097)]))),
    }

    thresholds = sorted({m + n for m in DYADIC for n in DYADIC})
    dsup = {T: double_sup(B, suffix_sup, T) for T in thresholds}

    for r in (1, 2):
        L = lhs_blocks(a, r, top)
        ratios = {m: float(L[m] * m / suffix_sup[m]) for m in DYADIC}
        sizes = np.array(DYADIC, dtype=np.float64)
        running = np.maximum.accumulate([ratios[m] for m in DYADIC])
        found[r] = {
            "row": max(ratios.values()),
            "double": float(max(L[m] * L[n] * (m * n) / dsup[m + n]
                                for m in DYADIC for n in DYADIC)),
            "slope": float(np.polyfit(np.log(sizes), np.log(running), 1)[0]),
        }
    return found


def main() -> None:
    found = oracle()
    print(f"grid starts whose sup lies past M = m: {found['sup_beyond_start'] or 'none'}")
    print(f"any sup escaping the 4096 scan window: {found['sup_past_4096']}")
    for r in (1, 2):
        print(f"r={r}  fitted_C_row    {found[r]['row']!r}")
        print(f"r={r}  fitted_C_double {found[r]['double']!r}")
        print(f"r={r}  growth slope    {found[r]['slope']!r}")


if __name__ == "__main__":
    main()
