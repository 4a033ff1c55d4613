"""The tail bounds a decay hint certifies.

Every bound a hint implies is a method of ``PowerDecay`` or
``PowerDecay2D``.  An mpmath oracle at 50 digits checks each against the
exact value it bounds; a closed form brackets the generic lemma 1 and
lemma 2 values on a hinted non-separable sequence; and a frozen digest
pins the generic tails bit for bit.
"""

import hashlib
import math
from dataclasses import replace

import mpmath
import pytest

from doublesine import (
    DoubleScanTable,
    PowerDecay,
    PowerDecay2D,
    builtin,
    from_expression,
    lemma1_quantity,
    lemma2_quantities,
    single_sup_scan,
)

# A bound rounded to nearest may fall below its exact value by a few
# roundings: allow a relative 2 eps, never more.
NEAREST = 1 - 2 * mpmath.mpf(2) ** -52

EXPONENTS = (1.0, 1.01, 1.5, 2.0, 3.7, 6.0)
HORIZONS = (1, 7, 100, 1000, 65536)
SCALES = (1.0, 3.0 / math.log(2.0), 0.1)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def block(p, M):
    """``sum_{k=M}^{2M} k^-p``, exactly (by digamma at the pole p = 1)."""
    if p == 1:
        return mpmath.digamma(2 * M + 1) - mpmath.digamma(M)
    return mpmath.zeta(p, M) - mpmath.zeta(p, 2 * M + 1)


def assert_bounds(got, exact):
    assert got is not None
    assert mpmath.mpf(got) >= exact * NEAREST, (got, exact)


class TestOracle:
    @pytest.mark.parametrize("p", EXPONENTS)
    def test_single_bounds(self, p):
        P = mpmath.mpf(p)
        for K in SCALES:
            hint = PowerDecay(p, K)
            for H in HORIZONS:
                assert_bounds(hint.weighted_sup(H), K * mpmath.mpf(H + 1) ** (1 - P))
                assert_bounds(hint.block_sup(H), K * block(P, H + 1))
                if p == 1.0:
                    assert hint.integral_tail(H) is None and hint.sum_from(H) is None
                    assert hint.d2_tail(H) is None
                    continue
                assert_bounds(hint.integral_tail(H), K * mpmath.zeta(P, H + 1))
                # |a_j - a_{j+2}| <= |a_j| + |a_{j+2}| on j > H
                assert_bounds(hint.d2_tail(H), K * (mpmath.zeta(P, H + 1) + mpmath.zeta(P, H + 3)))
                assert_bounds(hint.sum_from(H), K * mpmath.zeta(P, H))

    def test_small_exponents_certify_nothing(self):
        hint = PowerDecay(0.5, 1.0)
        assert hint.weighted_sup(10) is None and hint.block_sup(10) is None
        assert hint.integral_tail(10) is None and hint.sum_from(10) is None
        assert hint.d2_tail(10) is None

    @pytest.mark.parametrize("p, q", [(1.0, 2.0), (1.5, 1.5), (2.0, 3.7), (6.0, 1.01)])
    def test_double_bounds(self, p, q):
        P, Q = mpmath.mpf(p), mpmath.mpf(q)
        hint = PowerDecay2D(p, q, 3.0)
        for H in HORIZONS:
            # double blocks fall in each index, so the sup past H sits at an edge
            assert_bounds(hint.block_sup(H), 3 * max(block(P, H + 1) * block(Q, 1),
                                                     block(P, 1) * block(Q, H + 1)))
            m, n = max(1, H // 3), max(1, H // 2)
            d22 = hint.d22_tail(m, n, H)
            d20 = hint.d20_tail(m, n, H, 2 * H)
            if p == 1.0:
                assert d22 is None and d20 is None
                continue
            # four (two) terms per difference, each at most K j^-p k^-q
            assert_bounds(d22, 12 * (mpmath.zeta(P, H + 1) * mpmath.zeta(Q, n)
                                     + mpmath.zeta(P, m) * mpmath.zeta(Q, H + 1)))
            assert_bounds(d20, 6 * (mpmath.zeta(P, 2 * H + 1) * mpmath.mpf(n) ** (1 - Q)
                                    + mpmath.zeta(P, m) * mpmath.mpf(H + 1) ** (1 - Q)))


def hinted(p, q):
    """``1/(j^p k^q (j+k))`` with the hint ``j + k >= 2`` gives; no factors."""
    return replace(from_expression("hinted", f"1/(j^{p}*k^{q}*(j+k))"),
                   decay_hint=PowerDecay2D(p, q, 0.5))


class TestClosedFormBracket:
    """On ``1/(j^2 k^2)`` the step-2 differences telescope:
    ``sum_{j>=m} |j^-2 - (j+2)^-2| = m^-2 + (m+1)^-2``; and its blocks
    ``sum_{k=M}^{2M} k^-2`` fall in M, since the two terms M + 1 adds,
    each below ``1/(4 M^2)``, sum to less than the ``M^-2`` it drops.
    Every ``Measurement`` is an enclosure ``value <= truth <= upper``; a
    sup scan's value, read off cumsums, up to their rounding: for n terms of
    total S a block lies within ``8 n eps S`` of its sum (as the majorants
    module bounds it)."""

    @staticmethod
    def telescoped(m):
        return mpmath.mpf(m) ** -2 + mpmath.mpf(m + 1) ** -2

    @staticmethod
    def double_block_sup(t):
        """``sup_{M + N >= t} block(M) block(N)``: on ``M + N = max(t, 2)``."""
        return max(block(2, M) * block(2, max(t, 2) - M) for M in range(1, max(t, 2)))

    @staticmethod
    def rounding(n, total):
        return 8 * n * mpmath.mpf(2) ** -52 * total

    def assert_bracket(self, q, truth, rounding=0):
        assert q.bounded
        value = mpmath.mpf(q.value)
        assert value - rounding <= truth <= value + mpmath.mpf(q.tail_bound) + rounding

    @pytest.mark.parametrize("H", [16, 64, 512])
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 5), (7, 3), (16, 16)])
    def test_lemma_values_bracket_the_truth(self, H, m, n):
        # dense: the generic lemma tails read the double hint
        c = replace(from_expression("jk2", "1/(j^2*k^2)"), separable_parts=None,
                    decay_hint=PowerDecay2D(2.0, 2.0, 1.0))
        assert c.separable_parts is None
        self.assert_bracket(lemma1_quantity(c, m, n, horizon=H),
                            m * n * self.telescoped(m) * self.telescoped(n))
        first, second = lemma2_quantities(c, m, n, sup_horizon=H, sum_horizon=H)
        self.assert_bracket(first, m * self.telescoped(m) / n)
        self.assert_bracket(second, n * self.telescoped(n) / m)

    @pytest.mark.parametrize("H", [16, 64, 512])
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 5), (7, 3), (16, 16)])
    def test_factored_lemma_values_bracket_the_truth(self, H, m, n):
        c = builtin("product_power", p=2.0, q=2.0)
        assert c.separable_parts is not None
        self.assert_bracket(lemma1_quantity(c, m, n, horizon=H),
                            m * n * self.telescoped(m) * self.telescoped(n))
        first, second = lemma2_quantities(c, m, n, sup_horizon=H, sum_horizon=H)
        self.assert_bracket(first, m * self.telescoped(m) / n)
        self.assert_bracket(second, n * self.telescoped(n) / m)

    @pytest.mark.parametrize("H", [1, 16, 64, 512])
    def test_single_sups_bracket_the_truth(self, H):
        a = builtin("product_power", p=2.0, q=2.0).separable_parts[0]
        rounding = self.rounding(2 * H, mpmath.zeta(2))    # a line on 1..2H at most
        for start in sorted({1, min(3, H), H // 2 + 1, H}):
            self.assert_bracket(single_sup_scan(a, start, H), block(2, start), rounding)

    @pytest.mark.parametrize("H", [1, 16, 64])
    @pytest.mark.parametrize("factored", [True, False])
    def test_double_sups_bracket_the_truth(self, H, factored):
        c = builtin("product_power", p=2.0, q=2.0)
        if not factored:
            c = replace(c, separable_parts=None)
        table = DoubleScanTable(c, H)
        # the factored query admits pairs below thresholds past H + 1 (see the
        # strict xfail in test_majorants), so its value may exceed the truth there
        last = H + 1 if factored else 2 * H
        rounding = self.rounding(4 * H * H, mpmath.zeta(2) ** 2)   # a table on (1..2H)^2
        for t in sorted({1, 2, 3, 9, H, H + 1, last} & set(range(1, last + 1))):
            self.assert_bracket(table.query(t), self.double_block_sup(t), rounding)


# sha256 of the reprs below, frozen on the code that wrote each tail bound
# out at its call site; the first test to run the generic lemma tails
# (re-frozen when MajorantValue dropped its argmax field: the earlier reprs
# with each ", argmax=(...)" removed hash to the value two before this one;
# when Measurement derived its bounded flag from tail_bound: those reprs with
# each "bounded=True, " and "bounded=False, " removed hash to the value before
# this one; and when Measurement replaced MajorantValue: each earlier
# MajorantValue(v, t, b) written as Measurement(v, None if b is None else
# max(b - v, 0.0)) hashes to this value, and every t was b is None or b > v)
HINTED_FROZEN = "4e65df732c80def8473f8e0756fdd5ec32f1291279e24d544f8d1bf52a066e7e"


def test_hinted_generic_results_are_frozen():
    results, measured = [], []
    for p, q in ((2.0, 2.0), (1.5, 2.5), (3.0, 1.2), (2.0, 1.0), (1.0, 2.0)):
        c = hinted(p, q)
        for m, n, H in ((1, 1, 32), (2, 5, 64), (7, 3, 128)):
            results.append(lemma1_quantity(c, m, n, H))
            measured.append(results[-1])
        for m, n, sup_h, sum_h in ((1, 1, 32, 64), (4, 2, 64, 128), (3, 6, 16, 256)):
            results.append(lemma2_quantities(c, m, n, sup_h, sum_h))
            measured.extend(results[-1])
        for H in (16, 64):
            table = DoubleScanTable(c, H)
            results.extend(table.query(t) for t in (2, 9, H + 1, 2 * H))
    assert sum(q.bounded for q in measured) == 33
    out = [repr(result) for result in results]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == HINTED_FROZEN
