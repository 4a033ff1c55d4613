"""Each difference the library takes is read from one evaluation.

Summation by parts, the step-2 factor scans, ``eta_search`` and the
single-class fits evaluate their sequence once on the span widened by
the step and slice the shifted terms out of it.  The pointwise operators
of ``differences`` stay the public reference; the library calls none of
them, and the sliced results are the pointwise ones bit for bit.
"""

import ast
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import doublesine
from doublesine import (
    Rect,
    SingleClass,
    builtin,
    check_single_membership,
    eta_search,
    from_expression,
    from_table,
    rect_sum_parts,
    row_sum_by_parts,
    single_from_expression,
    single_from_values,
)
from doublesine.convergence import _d2_scan
from doublesine.differences import _SUB_BLOCK_CELLS

POINTWISE = frozenset({"delta_r", "delta_r0", "delta_0r", "delta_rr"})


def counted(seq):
    """``seq`` with an ``eval`` that records each call, and the record."""
    calls = []

    def eval_(*idx):
        calls.append(idx)
        return seq.eval(*idx)

    return replace(seq, eval=eval_), calls


def _complex_table(rows, cols):
    rng = np.random.default_rng(15)
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


# --- evaluation counts ---------------------------------------------------

def test_rect_sum_parts_evaluates_once():
    c, calls = counted(from_table("t", _complex_table(12, 12)))
    rect_sum_parts(c, Rect(2, 7, 3, 9), 0.7, 1.3, r=2)
    assert len(calls) == 1


def test_row_sum_by_parts_evaluates_once():
    a, calls = counted(single_from_values("a", np.linspace(1.0, 2.0, 12)))
    row_sum_by_parts(a, 2, 8, 3, 0.7)
    assert len(calls) == 1


def test_d2_scan_evaluates_once():
    a, calls = counted(builtin("mod3_log_product").separable_parts[0])
    _d2_scan(a, 3, 64)
    assert len(calls) == 1


def test_eta_search_evaluates_each_factor_once():
    osc = builtin("oscillating_quadratic")
    (a, a_calls), (b, b_calls) = (counted(f) for f in osc.separable_parts)
    eta_search(replace(osc, separable_parts=(a, b)), 0.2, 16.0, cap=256, sup_horizon=512,
               sum_horizon=1024)
    assert len(a_calls) + len(b_calls) == 2


def test_streamed_eta_search_evaluates_each_coefficient_once():
    # sum_horizon past two blocks: the pass runs over 1..sum_horizon + 2 in
    # several calls, which together read each index exactly once
    osc = builtin("oscillating_quadratic")
    (a, a_calls), (b, b_calls) = (counted(f) for f in osc.separable_parts)
    sum_horizon = 2 * _SUB_BLOCK_CELLS + 3
    eta_search(replace(osc, separable_parts=(a, b)), 0.2, 16.0, cap=256, sup_horizon=512,
               sum_horizon=sum_horizon)
    for calls in (a_calls, b_calls):
        assert len(calls) > 1
        read = np.sort(np.concatenate([np.ravel(idx) for idx, in calls]))
        assert np.array_equal(read, np.arange(1, sum_horizon + 3))


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("preset", ["oscillating_quadratic", "product_power"])
def test_lemma_schedule_evaluates_each_factor_once_over_its_range(preset, which):
    # the nested pass reads the step-2 terms of 4..sum_horizon once, in
    # windows that each overlap the next by the step; lemma 2 adds one read
    # of 4..sup_horizon for the weights; the preset's two factors are one object
    base = builtin(preset, p=2.0, q=3.0) if preset == "product_power" else builtin(preset)
    factors = [counted(f) for f in dict.fromkeys(base.separable_parts)]
    parts = [f for f, _ in factors]
    c = replace(base, separable_parts=(parts[0], parts[-1]))
    sum_horizon, sup_horizon = 2 * _SUB_BLOCK_CELLS + 3, 512
    doublesine.lemma_schedule(c, which, (16, 4, 64, 8, 4), sup_horizon=sup_horizon,
                              sum_horizon=sum_horizon)
    for _, calls in factors:
        reads = [np.ravel(idx) for idx, in calls]
        weights = [idx for idx in reads if idx[-1] == sup_horizon]
        terms = np.concatenate([idx[:-2] for idx in reads if idx[-1] != sup_horizon])
        assert np.array_equal(terms, np.arange(4, sum_horizon + 1))
        assert [idx.tolist() for idx in weights] == (
            [list(range(4, sup_horizon + 1))] if which == 2 else [])


@pytest.mark.parametrize("klass, beta", [(SingleClass.MVBVS, None), (SingleClass.SBVS, None),
                                         (SingleClass.SBVS2, None), (SingleClass.GM, "1/n"),
                                         (SingleClass.GM, "star")])
def test_single_class_fit_evaluates_once_per_fit(klass, beta):
    # one line on 1..reach serves every left-hand side and majorant
    a, calls = counted(builtin("mod3_log_product").separable_parts[0])
    check_single_membership(a, klass, (2, 4, 8, 16), r=2, horizon=64, beta=beta)
    assert len(calls) == 1


# --- frozen results ------------------------------------------------------

# sha256 of the reprs below, taken when every call site read the pointwise
# operators; slicing one evaluation must not change a bit (re-frozen when
# Measurement derived its bounded flag and the single report dropped its cap:
# the earlier reprs with each "bounded=True, ", "bounded=False, " and
# ", target_C=None, verdict=None" removed hash to this value)
FROZEN = "722e43b3141fa4b43629bc4bf63df050c33a1b5479a08a7075ebf19e9cf1f208"

RECTS = (Rect(1, 1, 1, 1), Rect(1, 2, 3, 3), Rect(2, 3, 1, 2), Rect(4, 4, 2, 9),
         Rect(3, 9, 2, 7), Rect(5, 11, 6, 12))
ROWS = ((1, 1), (2, 3), (3, 4), (4, 10), (5, 13))
POINTS = ((0.7, 1.3), (2.5, 0.4))


def frozen_reprs():
    doubles = (builtin("mod3_log_product"),
               from_expression("root", "1/(j*k*(j+k))^0.5"),
               from_table("complex", _complex_table(10, 11)))
    singles = (builtin("mod3_log_product").separable_parts[0],
               single_from_expression("root", "1/(k*(k+1))^0.5"),
               single_from_values("complex", _complex_table(1, 12)[0]))
    out = []
    for r in (1, 2, 3):
        for x, y in POINTS:
            out += [repr(rect_sum_parts(c, rect, x, y, r=r)) for c in doubles for rect in RECTS]
            out += [repr(row_sum_by_parts(a, n, m, r, x)) for a in singles for n, m in ROWS]
    out += [repr(_d2_scan(a, m, 200)) for a in singles[:2] for m in (1, 3, 200)]
    osc = builtin("oscillating_quadratic")
    out += [repr(eta_search(osc, eps, 16.0)) for eps in (0.2, 0.05)]
    out += [repr(check_single_membership(singles[0], SingleClass.GM, (1, 2, 5, 16, 64), r=r))
            for r in (1, 3)]
    return out


def test_sliced_results_are_frozen():
    digest = hashlib.sha256("\n".join(frozen_reprs()).encode()).hexdigest()
    assert digest == FROZEN


# --- no pointwise operator in the library ---------------------------------

def pointwise_calls(source: str) -> int:
    """Calls of ``delta_r``/``delta_r0``/``delta_0r``/``delta_rr`` in ``source``,
    by plain or attribute name."""
    return sum(isinstance(node, ast.Call)
               and (isinstance(node.func, ast.Name) and node.func.id in POINTWISE
                    or isinstance(node.func, ast.Attribute) and node.func.attr in POINTWISE)
               for node in ast.walk(ast.parse(source)))


def test_counter_sees_calls_and_nothing_else():
    assert pointwise_calls("delta_r(a, 1, k); differences.delta_rr(c, 2, j, k)") == 2
    assert pointwise_calls("delta_rr_grid(c, 2, 1, 2, 1, 2); f = delta_r0; _variation(v, 2, 3)"
                           ) == 0


def test_library_reads_no_pointwise_difference():
    package = Path(doublesine.__file__).parent
    calls = {path.name: pointwise_calls(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))
             if path.name != "differences.py"}
    assert sum(calls.values()) == 0, calls
