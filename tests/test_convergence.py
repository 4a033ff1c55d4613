import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublesine import (
    CoefficientSequence,
    DoubleScanTable,
    EtaCapError,
    HorizonError,
    PowerDecay,
    ProbeConfig,
    Rect,
    TailReport,
    Verdict,
    classify_probe,
    classify_tail,
    double_sup_scan,
    builtin,
    eta_search,
    from_expression,
    from_table,
    interior_grid,
    ksum,
    lemma1_quantity,
    lemma2_quantities,
    lemma3_check,
    lemma_schedule,
    loglog_slope,
    rect_sum_direct,
    remark2_cross_checks,
    remark2_divergence,
    scale,
    separable,
    single_from_values,
    theorem7_bound_check,
    uniform_tail_probe,
    uniform_tail_trace,
)
from doublesine import differences
from doublesine.convergence import (EtaCondition, EtaSearchResult, _d2_scan, _factored_maxima,
                                    _probe_arrays, _probe_bytes, _test_points, _weight_sup_scan)
from doublesine.differences import _SUB_BLOCK_CELLS, _variation
from doublesine.summing import sine_prefix

from conftest import TWIN_EXPR, dense_twin

# Closed forms for the oscillating preset, step 2: within each parity the
# terms telescope, so sum_{j>=m} |a_j - a_{j+2}| = a_m + a_{m+1}.
A4_TAIL = 3.0 / 16.0 + 1.0 / 25.0  # = 0.2275


def small_probe(points=5, thresholds=(8, 16, 32), cap=256):
    return ProbeConfig(xy_grid=interior_grid(points), thresholds=thresholds,
                       rect_cap=cap, doublings=3)


class TestVerdicts:
    def test_classify_tail(self):
        assert classify_tail((400.0, 100.0, 10.0, 1.0)) is Verdict.DECAYING
        assert classify_tail((1.0, 1.0, 1.0)) is Verdict.FLAT
        assert classify_tail((1.0, 2.0, 3.0)) is Verdict.GROWING
        assert classify_tail((4.0, 5.0, 3.0, 3.5)) is Verdict.INCONCLUSIVE

    def test_classify_probe_band(self):
        # small wiggle within the band still counts as decaying
        assert classify_probe((1.0, 1.02, 0.5, 0.2)) is Verdict.DECAYING
        assert classify_probe((1.0, 1.5, 0.5, 0.2)) is Verdict.INCONCLUSIVE
        assert classify_probe((1.0, 0.9, 0.8, 0.5)) is Verdict.INCONCLUSIVE  # < 4x

    @pytest.mark.parametrize("classify, kwargs, reason", [
        (classify_tail, dict(decay_factor=math.nan), "decay_factor must be > 0, got nan"),
        (classify_probe, dict(decay_ratio=math.nan), "decay_ratio must be > 0, got nan"),
        (classify_probe, dict(band=-5), "band must be >= 0, got -5"),
        (classify_probe, dict(band=math.nan), "band must be >= 0, got nan"),
    ])
    def test_nan_ratio_refused(self, classify, kwargs, reason):
        with pytest.raises(ValueError, match=reason):
            classify((4.0, 2.0, 1.0), **kwargs)

    def test_zero_band_is_valid(self):
        # (4, 2, 1) never grows, so it decays with no wiggle allowed
        assert classify_probe((4.0, 2.0, 1.0), band=0.0) is Verdict.DECAYING
        assert classify_probe((4.0, 4.0, 1.0), band=0.0) is Verdict.DECAYING
        assert classify_probe((4.0, 4.5, 1.0), band=0.0) is Verdict.INCONCLUSIVE

    def test_loglog_slope_exact_power(self):
        schedule = (4, 8, 16, 32)
        values = tuple(s ** -2.0 for s in schedule)
        assert loglog_slope(schedule, values) == pytest.approx(-2.0, abs=1e-12)

    def test_loglog_slope_none_on_zero(self):
        assert loglog_slope((4, 8), (1.0, 0.0)) is None

    @pytest.mark.parametrize("fields, reason", [
        (dict(schedule=(4, 8), values=(1.0,)), "values and schedule lengths differ"),
        (dict(schedule=(8, 8), values=(1.0, 0.5)), "schedule must be strictly increasing"),
        (dict(schedule=(4, 8), values=(1.0, 0.5), bounded=(True,)),
         "bounded flags and schedule lengths differ"),
        (dict(schedule=(4, 8), values=(1.0, 0.5), reference_values=(1.0, 0.5, 0.2)),
         "reference values and schedule lengths differ"),
    ])
    def test_tail_report_refuses_mismatched_series(self, fields, reason):
        with pytest.raises(ValueError, match=reason):
            TailReport(verdict=Verdict.INCONCLUSIVE, **fields)


def per_point_schedule(c, which, schedule, sup_horizon=1 << 14, sum_horizon=1 << 16):
    """``lemma_schedule`` at its default rule, one per-point call per scale."""
    if which == 1:
        series = {"mixed_tail": [lemma1_quantity(c, m, m, horizon=sum_horizon)
                                 for m in schedule]}
    else:
        pairs = [lemma2_quantities(c, m, m, sup_horizon=sup_horizon, sum_horizon=sum_horizon)
                 for m in schedule]
        series = {"row_tail": [qa for qa, _ in pairs], "col_tail": [qb for _, qb in pairs]}
    return {name: (qs, classify_probe([q.upper for q in qs])) for name, qs in series.items()}


class TestLemmaQuantities:
    def test_lemma1_closed_form(self, osc):
        q = lemma1_quantity(osc, 4, 4)
        assert q.value == pytest.approx(16.0 * A4_TAIL ** 2, rel=1e-6)
        assert q.upper >= q.value
        assert q.upper == pytest.approx(16.0 * A4_TAIL ** 2, rel=2e-3)
        assert q.bounded

    def test_lemma1_decreases_on_diagonal(self, osc):
        values = [lemma1_quantity(osc, m, m).upper for m in (4, 8, 16, 32, 64)]
        assert classify_probe(values) is Verdict.DECAYING

    def test_lemma2_closed_form(self, osc):
        # weight sup_{k>=4} k|b_k| = 3/4 at k = 4; 4 * (3/4) * tail = 3 * tail
        qa, qb = lemma2_quantities(osc, 4, 4)
        assert qa.value == pytest.approx(3.0 * A4_TAIL, rel=1e-6)
        assert qb.value == pytest.approx(qa.value, rel=1e-12)  # symmetric sequence

    def test_lemma2_generic_matches_separable(self, osc):
        # small horizons keep the dense scan cheap; the generic path must
        # agree with the factored one on the scanned region
        table = np.fromfunction(
            lambda j, k: (2 + (-1.0) ** (j + 1)) / (j + 1) ** 2
            * (2 + (-1.0) ** (k + 1)) / (k + 1) ** 2, (600, 600))
        dense = from_table("osc_table", table)
        qa_d, qb_d = lemma2_quantities(dense, 4, 4, sup_horizon=128, sum_horizon=256)
        qa_s, qb_s = lemma2_quantities(osc, 4, 4, sup_horizon=128, sum_horizon=256)
        assert qa_d.value == pytest.approx(qa_s.value, rel=1e-10)
        assert qb_d.value == pytest.approx(qb_s.value, rel=1e-10)

    def test_generic_guard_covers_both_orientations(self):
        def never(j, k):
            raise AssertionError("evaluated past the size guard")

        c = CoefficientSequence(name="never", eval=never)
        cap = r" is over the cap of 50000000 cells, which bounds its run time"
        # m = 1, n = sup_horizon: the first orientation covers 65536 cells,
        # the swapped one (65536 - 4096 + 1) * 4096
        with pytest.raises(ValueError, match=r"over 251662336 cells" + cap):
            lemma2_quantities(c, 1, 4096, sup_horizon=4096, sum_horizon=1 << 16)
        with pytest.raises(ValueError, match=r"over 4294967296 cells" + cap):
            lemma1_quantity(c, 1, 1)

    @pytest.mark.parametrize("c", [builtin("oscillating_quadratic"),
                                   from_expression("nonsep", "1/(j*k*(j+k))")],
                             ids=["separable", "generic"])
    def test_lemma2_sup_past_horizon_is_refused(self, c):
        with pytest.raises(HorizonError, match="horizon 16 below scan start 64"):
            lemma2_quantities(c, 64, 64, sup_horizon=16, sum_horizon=1 << 16)
        with pytest.raises(HorizonError, match="horizon 16 below scan start 17"):
            lemma2_quantities(c, 17, 2, sup_horizon=16, sum_horizon=32)
        # m past sum_horizon and n past sup_horizon: both guard factors negative
        with pytest.raises(HorizonError, match="horizon 8 below scan start 40"):
            lemma2_quantities(c, 40, 40, sup_horizon=8, sum_horizon=32)

    def test_lemma2_horizon_refused_before_the_size_guard(self):
        def never(j, k):
            raise AssertionError("evaluated past a refused horizon")

        c = CoefficientSequence(name="never", eval=never)
        with pytest.raises(HorizonError):
            lemma2_quantities(c, 1, 4097, sup_horizon=4096, sum_horizon=1 << 20)

    @pytest.mark.parametrize("c", [builtin("oscillating_quadratic"),
                                   from_expression("nonsep", "1/(j*k*(j+k))")],
                             ids=["separable", "generic"])
    def test_lemma1_start_past_horizon_is_refused(self, c):
        with pytest.raises(HorizonError, match="horizon 16 below scan start 32"):
            lemma1_quantity(c, 32, 32, horizon=16)
        with pytest.raises(HorizonError, match="horizon 16 below scan start 17"):
            lemma1_quantity(c, 2, 17, horizon=16)
        assert lemma1_quantity(c, 16, 16, horizon=16).value > 0.0  # one row and column

    def test_lemma1_horizon_refused_before_the_size_guard(self):
        def never(j, k):
            raise AssertionError("evaluated past a refused horizon")

        c = CoefficientSequence(name="never", eval=never)
        with pytest.raises(HorizonError):
            lemma1_quantity(c, 1, 1 << 17)

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("c, horizons", [
        (builtin("oscillating_quadratic"), {}),   # the lemma command's defaults
        (dense_twin(), dict(sup_horizon=128, sum_horizon=256)),
    ], ids=["separable", "generic"])
    def test_schedule_is_the_per_point_calls(self, c, horizons, which):
        schedule = (4, 8, 16, 32, 64)   # scripts/configs/lemma1-osc.cfg and lemma2-osc.cfg
        assert lemma_schedule(c, which, schedule, **horizons) == per_point_schedule(
            c, which, schedule, **horizons)

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("rule, message", [
        (dict(band=-5.0), "band must be >= 0, got -5.0"),
        (dict(band=math.nan), "band must be >= 0, got nan"),
        (dict(decay_ratio=0.0), "decay_ratio must be > 0, got 0.0"),
    ])
    def test_schedule_refuses_a_bad_rule_before_any_scan(self, rule, message, which):
        def never(j, k):
            raise AssertionError("scanned past a refused verdict rule")

        c = CoefficientSequence(name="never", eval=never)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lemma_schedule(c, which, (4, 8), **rule)

    def test_schedule_refuses_lemma_3(self, osc):
        with pytest.raises(ValueError, match=r"^which must be 1 or 2, got 3$"):
            lemma_schedule(osc, 3, (4, 8))

    def test_lemma3_terms_match_direct_evaluation(self, osc):
        C, lam, m, n = 4.0, 2, 8, 8
        res = lemma3_check(osc, C, lam, m, n)
        t1, t2, t3, t4 = res.terms

        def win(jlo, jhi, klo, khi):
            j = np.arange(jlo, jhi + 1)[:, None]
            k = np.arange(klo, khi + 1)[None, :]
            return float(np.sum(np.asarray(osc.eval(j, k))))

        scan = double_sup_scan(osc, m + n, 4096)
        assert t1 == pytest.approx(C * scan.value, rel=1e-12)
        assert t2 == pytest.approx(2 * C * win(m, 2 * lam * m, n, 2 * n + 1), rel=1e-10)
        assert t3 == pytest.approx(2 * C * win(m, 2 * m + 1, n, 2 * lam * n), rel=1e-10)
        assert t4 == pytest.approx(8.0 * win(m, 2 * m + 1, n, 2 * n + 1), rel=1e-10)
        assert res.lhs == pytest.approx(m * n * osc(m, n), rel=1e-13)
        assert res.slack == pytest.approx(res.rhs - res.lhs, rel=1e-13)

    def test_lemma3_one_block_windows_are_frozen(self, osc):
        # sha256 of the reprs, frozen from the unblocked window sums; each
        # window sum is still one exactly rounded sum
        nonsep = from_expression("nonsep", "1/(j*k*(j+k))")
        results = [repr(lemma3_check(c, 1.5, 2, m, n, sup_horizon=64)) for c in (osc, nonsep)
                   for m, n in ((2, 2), (3, 5), (8, 4), (16, 16))]
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "20041bd4305a8d4e6273aeff3edfc38b15a9fbf6d45dfb331176b1f254d3dea0"

    @pytest.mark.parametrize("expr", [None, "1/(j*k*(j+k))"])
    def test_lemma3_shared_table_gives_the_same_results(self, osc, expr):
        c = osc if expr is None else from_expression("c", expr)
        table = DoubleScanTable(c, 64)
        points = [(2, 2), (3, 5), (8, 4), (4, 8), (16, 16), (2, 2), (5, 3)]
        for b3 in ("l", "l+3"):
            shared = [lemma3_check(c, 1.5, 2, m, n, b3=b3, sup_horizon=64, table=table)
                      for m, n in points]
            alone = [lemma3_check(c, 1.5, 2, m, n, b3=b3, sup_horizon=64) for m, n in points]
            assert repr(shared) == repr(alone)

    def test_lemma3_refuses_a_table_of_another_sequence_or_horizon(self, osc):
        for table in (DoubleScanTable(builtin("mod3_log_product"), 64),
                      DoubleScanTable(osc, 32)):
            with pytest.raises(ValueError, match="another sequence or sup_horizon"):
                lemma3_check(osc, 1.5, 2, 4, 4, sup_horizon=64, table=table)

    def test_lemma3_requires_nonnegative(self):
        c = from_table("neg", -np.ones((16, 16)))
        with pytest.raises(ValueError):
            lemma3_check(c, 4.0, 2, 2, 2, sup_horizon=16)

    def test_lemma3_domain(self, osc):
        with pytest.raises(ValueError):
            lemma3_check(osc, 4.0, 2, 1, 4)


class TestTailBounds:
    """The hint bounds shared by the lemma scans and the eta search."""

    def test_closed_forms(self, osc):
        a, _ = osc.separable_parts   # |a_k| <= 3 / k^2
        # sup_{k > 99} k |a_k| <= 3 / 100; sum_{j > 100} |a_j - a_{j+2}| <= 2 * 3 / 100
        assert a.decay_hint.weighted_sup(99) == pytest.approx(0.03, rel=1e-15)
        assert _d2_scan(a, 1, 100).tail_bound == pytest.approx(0.06, rel=1e-15)

    def test_exponent_limits(self, pp11):
        a, _ = pp11.separable_parts  # p = 1: k |a_k| <= 1, but sum k^-1 diverges
        assert a.decay_hint.weighted_sup(99) == 1.0
        assert a.decay_hint.integral_tail(100) is None and not _d2_scan(a, 1, 100).bounded
        slow = builtin("product_power", p=0.5, q=0.5).separable_parts[0]
        assert slow.decay_hint.weighted_sup(99) is None
        hintless = single_from_values("t", np.ones(8))
        assert not _weight_sup_scan(hintless, 1, 99).bounded
        assert not _d2_scan(hintless, 1, 100).bounded


_D2_LEN = 3 * _SUB_BLOCK_CELLS + 16
D2_FACTORS = {
    "oscillating_quadratic": builtin("oscillating_quadratic").separable_parts[0],
    "mod3_log_product": builtin("mod3_log_product").separable_parts[0],
    "complex": single_from_values("complex", np.exp(1j * np.arange(1, _D2_LEN + 1))
                                  / np.arange(1, _D2_LEN + 1)),
    "nan": single_from_values("nan", np.r_[np.ones(_SUB_BLOCK_CELLS + 3), math.nan,
                                           np.ones(_D2_LEN - _SUB_BLOCK_CELLS - 4)]),
}


class TestD2Scan:
    @pytest.mark.parametrize("name", sorted(D2_FACTORS))
    @pytest.mark.parametrize("m, H", [(1, 3 * _SUB_BLOCK_CELLS + 5), (4, _SUB_BLOCK_CELLS + 3),
                                      (3, _SUB_BLOCK_CELLS + 3), (7, 2 * _SUB_BLOCK_CELLS),
                                      (2, 40), (10, 9), (10, 3)])
    def test_blocks_sum_like_one_evaluation(self, name, m, H):
        a = D2_FACTORS[name]
        want = _variation(np.asarray(a.eval(np.arange(m, H + 3))), 2, H - m + 1)
        assert repr(_d2_scan(a, m, H).value) == repr(want)


# inputs of the nested-pass property: the presets, a factored expression
# whose factors differ, dense expressions (ln and a fractional power among
# them) and the twin without its factors
SCHEDULE_SEQUENCES = {
    "oscillating_quadratic": builtin("oscillating_quadratic"),
    "mod3_log_product": builtin("mod3_log_product"),
    "zero": builtin("zero"),
    "pp(2,3)": builtin("product_power", p=2.0, q=3.0),
    "expression": from_expression("expression", "(2+alternating(j))/j^2*ln(k+1)/k^3"),
    "nonsep": from_expression("nonsep", "1/(j*k*(j+k))"),
    "nonsep ln": from_expression("nonsep ln", "ln(1+j*k)/(j+k)^3.5"),
    "dense twin": dense_twin(),
}
# drawn tables and factors, each with one kind of special value
SPECIALS = ("none", "nan", "inf", "zeros", "overflow", "huge", "complex")


def _with_special(values, special, rng):
    """``values`` with a special kind of entry: NaN or an infinity at a
    drawn place, the later half zero, entries near overflow (1e308, whose
    differences overflow a sum) or past extraction's range (1e300), or
    complex values."""
    flat = values.reshape(-1)
    spots = rng.choice(flat.size, size=min(2, flat.size), replace=False)
    if special in ("nan", "inf", "overflow", "huge"):
        flat[spots] = {"nan": math.nan, "inf": math.inf, "overflow": 1e308, "huge": 1e300}[special]
    elif special == "zeros":
        flat[flat.size // 2:] = 0.0
    elif special == "complex":
        values = values * np.exp(1j * rng.uniform(0.0, 6.0, values.shape))
    return values


def _drawn_sequence(data):
    # half the examples draw a table or factors
    kind = data.draw(st.one_of(st.sampled_from(sorted(SCHEDULE_SEQUENCES)),
                               st.sampled_from(["table", "factors", "shared factor"])),
                     label="kind")
    if kind in SCHEDULE_SEQUENCES:
        return SCHEDULE_SEQUENCES[kind]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    special = data.draw(st.sampled_from(SPECIALS), label="special")
    size = data.draw(st.integers(3, 40), label="size")
    index = np.arange(1, size + 1, dtype=np.float64)
    if kind == "table":
        values = rng.uniform(0.5, 1.5, (size, size)) / np.add.outer(index, index) ** 3
        return from_table("table", _with_special(values, special, rng))
    a, b = (single_from_values(name, _with_special(rng.uniform(0.5, 1.5, size) / index ** 2,
                                                   special if name == "a" else "none", rng))
            for name in ("a", "b"))
    return separable(a, a if kind == "shared factor" else b)


def _lemma_outcome(f, *args, **kwargs):
    """``repr`` of the result, or the type and text of the refusal raised."""
    try:
        return repr(f(*args, **kwargs))
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestNestedSchedule:
    """One pass per schedule gives the per-point calls' values and refusals."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf, complex casts
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_schedule_is_the_per_point_calls_bit_for_bit(self, data):
        c = _drawn_sequence(data)
        which = data.draw(st.sampled_from([1, 2]), label="which")
        horizons = dict(sup_horizon=data.draw(st.sampled_from([9, 24, 64]), label="sup"),
                        sum_horizon=data.draw(st.sampled_from([9, 24, 64]), label="sum"))
        top = horizons["sum_horizon" if which == 1 else "sup_horizon"]
        # unsorted, repeated, single scales; m = 1 and the horizon itself; past it and below 1
        scale = st.one_of(st.sampled_from([1, 2, 3, 4, 8, top - 1, top]), st.integers(1, top),
                          st.integers(-1, top + 3))
        schedule = tuple(data.draw(st.lists(scale, min_size=1, max_size=6), label="schedule"))
        saved = differences._SUB_BLOCK_CELLS
        differences._SUB_BLOCK_CELLS = data.draw(st.sampled_from([1, 5, 64, saved]),
                                                 label="sub-block cells")
        try:
            got = _lemma_outcome(lemma_schedule, c, which, schedule, **horizons)
            want = _lemma_outcome(per_point_schedule, c, which, schedule, **horizons)
        finally:
            differences._SUB_BLOCK_CELLS = saved
        assert got == want

    def test_cell_guard_is_refused_at_its_scale_in_schedule_order(self):
        # the one-cell quadrant at the horizon is scanned, then scale 1's
        # 8000^2 cells are refused, as the per-point calls refuse them
        c = from_expression("nonsep", "1/(j*k*(j+k))")
        schedule, horizons = (8000, 1), dict(sum_horizon=8000)
        got = _lemma_outcome(lemma_schedule, c, 1, schedule, **horizons)
        assert got == _lemma_outcome(per_point_schedule, c, 1, schedule, **horizons)
        assert got.startswith("ValueError: generic (non-separable) scan over 64000000 cells")


class TestEtaSearch:
    def test_epsilon_02(self, osc):
        res = eta_search(osc, epsilon=0.2, C=16.0)
        assert res.eta == 6
        cond1 = res.conditions[0]
        assert cond1.worst == pytest.approx(9.0 / 64.0, rel=1e-12)
        assert all(c.worst < c.bound for c in res.conditions)
        assert all(c.certified for c in res.conditions)

    def test_epsilon_005(self, osc):
        res = eta_search(osc, epsilon=0.05, C=16.0)
        assert res.eta == 12
        assert res.conditions[0].worst == pytest.approx(9.0 / 196.0, rel=1e-12)

    def test_cap_exhaustion(self, pp11):
        with pytest.raises(EtaCapError):
            eta_search(pp11, epsilon=0.2, C=4.0, cap=64)

    @pytest.mark.parametrize("epsilon, C", [(math.nan, 16.0), (0.2, math.nan), (0.0, 16.0)])
    def test_nan_or_zero_level_refused(self, osc, epsilon, C):
        with pytest.raises(ValueError, match="epsilon and C must be positive"):
            eta_search(osc, epsilon=epsilon, C=C)

    def test_requires_separable(self):
        c = from_table("t", np.ones((4, 4)))
        with pytest.raises(ValueError):
            eta_search(c, epsilon=0.2, C=4.0, cap=16)

    def test_verify_range_guard(self, osc):
        with pytest.raises(ValueError):
            eta_search(osc, epsilon=0.2, C=16.0, sum_horizon=1024, verify_range=2048)

    @pytest.mark.parametrize("verify_range, lam", [(-5, 2), (1, 1), (2, 2), (3, 3)])
    def test_verify_range_at_or_below_lambda_is_refused(self, osc, verify_range, lam):
        with pytest.raises(ValueError, match=f"verify_range {verify_range} must exceed"):
            eta_search(osc, epsilon=0.2, C=16.0, lam=lam, verify_range=verify_range)

    @pytest.mark.parametrize("verify_range", [3, 4, 6, 7, 8, 9, 64])
    def test_tested_points_lie_past_eta(self, osc, verify_range):
        # eta = 6 at the default verify_range; candidates stop at verify_range - 1
        if verify_range <= 6:
            with pytest.raises(EtaCapError, match=f"below verify_range {verify_range} "):
                eta_search(osc, epsilon=0.2, C=16.0, verify_range=verify_range)
            return
        res = eta_search(osc, epsilon=0.2, C=16.0, verify_range=verify_range)
        assert res.eta == 6 and min(res.tested_points) == 7
        assert max(res.tested_points) == verify_range
        # condition (1) is a sup over all of m, n > eta; (2)-(4) are read at tested pairs
        assert all(m in res.tested_points and n in res.tested_points
                   for cond in res.conditions[1:] for m, n in [cond.witness])

    @pytest.mark.parametrize("at, bad, line", [
        (5, math.nan, "m |f_m| at m = 5 is nan"),
        # past verify_range 128 only the largest m |f_m| is kept, and an
        # infinity there is the largest
        (200, math.inf, "m |f_m| at m = 200 is inf"),
        # past sup_horizon only the step-2 sums read it: S is NaN on m <= at + 2
        (5000, math.nan, "m (sum_(j>=m) |f_j - f_(j+2)| + tail) at m = 1 is nan"),
    ])
    def test_a_non_finite_factor_value_is_refused(self, osc, at, bad, line):
        a, _ = osc.separable_parts
        values = 3.0 / np.arange(1.0, 9000.0) ** 2
        values[at - 1] = bad
        c = separable(a, single_from_values("bad", values))
        with pytest.raises(ValueError, match=re.escape(f"eta search factor bad: {line}, ")):
            eta_search(c, epsilon=0.2, C=16.0, cap=64, sup_horizon=4096, sum_horizon=8192)

    # sha256 of the reprs of eta_search results and EtaCapError texts over
    # this grid, frozen from the search that walked the tested pairs in a
    # Python double loop
    FROZEN_GRID = "347951d0c0ddc2f82736be354b122f0ab48024f45f89d2d27f331986e0645c42"

    def test_results_over_a_grid_are_frozen(self):
        out = []
        for c in (builtin("oscillating_quadratic"), builtin("mod3_log_product"),
                  builtin("product_power", p=2.0, q=1.5)):
            for eps in (0.2, 0.05, 0.01):
                for C in (1.0, 16.0):
                    for cap, verify_range, lam in ((64, None, 2), (256, 300, 3), (40, 2048, 2)):
                        try:
                            out.append(repr(eta_search(c, eps, C, lam=lam, cap=cap,
                                                       verify_range=verify_range,
                                                       sup_horizon=4096, sum_horizon=8192)))
                        except EtaCapError as exc:
                            out.append(f"EtaCapError: {exc}")
        assert sum(text.startswith("EtaSearchResult") for text in out) == 26
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.FROZEN_GRID


def eta_search_whole(c, epsilon, C, lam=2, cap=1 << 14, verify_range=None,
                     sup_horizon=1 << 14, sum_horizon=1 << 16):
    """The eta search on whole arrays: each factor evaluated on
    ``1..max(H, sum_horizon + 2)`` at once, its step-2 differences and
    their reversed suffix sums held to ``sum_horizon`` (the oracle of the
    streamed search)."""
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
    idx = np.arange(1, H + 1, dtype=np.int64)
    parts = c.separable_parts
    vals = [np.asarray(f.eval(np.arange(1, max(H, sum_horizon + 2) + 1))) for f in parts]
    weights = np.array([idx.astype(np.float64) * np.abs(v[:H]) for v in vals])
    d2 = np.abs([v[:sum_horizon] - v[2:sum_horizon + 2] for v in vals])
    sups = np.maximum.accumulate(weights[:, ::-1], axis=1)[:, ::-1]
    sums = np.cumsum(d2[:, ::-1], axis=1)[:, ::-1]
    hints = [f.decay_hint for f in parts]
    tail_w = [None if h is None else h.weighted_sup(H) for h in hints]
    tail_d2 = [None if h is None else h.d2_tail(sum_horizon) for h in hints]
    last = min(cap, verify_range - 1)
    cert1 = None not in tail_w
    cert = cert1 and None not in tail_d2
    sup1 = np.maximum(sups[:, first:last + 1], np.array(tail_w if cert1 else [0.0, 0.0])[:, None])
    v1 = sup1[0] * sup1[1]
    tw, td = (np.array(tail_w)[:, None], np.array(tail_d2)[:, None]) if cert else (0.0, 0.0)
    S = idx[:verify_range] * (sums[:, :verify_range] + td)
    for row, f in enumerate(parts):   # refused as eta_search refuses them
        where = f"eta search factor {f.name}: "
        beyond = verify_range + int(np.argmax(weights[row, verify_range:]))
        for what, values, m in (("m |f_m|", weights[row, :verify_range], None),
                                ("m |f_m|", weights[row, beyond:beyond + 1], beyond + 1),
                                ("m (sum_(j>=m) |f_j - f_(j+2)| + tail)", S[row], None)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{where}{what} at m = {m or bad[0] + 1} is "
                                 f"{float(values[bad[0]])!r}, not finite")
    W = np.maximum(sups[:, :verify_range], tw)
    bound2 = 16.0 * C * epsilon
    bound34 = 4.0 * C * epsilon
    D = np.array(_test_points(0, verify_range))
    at = np.searchsorted(D, np.arange(first + 1, last + 2))
    SW = np.array([S, W])
    past = np.maximum.accumulate(SW[..., D[::-1] - 1], axis=-1)[..., ::-1]
    s, w = np.maximum(SW[..., first:last + 1], past[..., at])
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
    witness1 = tuple(eta + 1 + int(np.argmax(wf[eta:])) for wf in weights)
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


def _outcome(search, *args, **kwargs):
    """``repr`` of the result, or the type and text of the error raised."""
    try:
        return repr(search(*args, **kwargs))
    except (EtaCapError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


_OSC_FACTOR = builtin("oscillating_quadratic").separable_parts[0]
# sum horizons at the edges of the blocks the search streams in
BLOCK_EDGES = [_SUB_BLOCK_CELLS - 1, _SUB_BLOCK_CELLS, _SUB_BLOCK_CELLS + 1,
               2 * _SUB_BLOCK_CELLS + 3]
# a factor 1/k^2 whose largest m |f_m|, exactly 1, lies at 2^15 and again at
# 2^16, past every verify_range below; and its twin with a NaN at 100001
_SPIKED = 1.0 / np.arange(1.0, (1 << 17) + 1) ** 2
_SPIKED[[(1 << 15) - 1, (1 << 16) - 1]] = 2.0 ** -15, 2.0 ** -16
_NAN_PAST = _SPIKED.copy()
_NAN_PAST[100000] = math.nan

# separable inputs of the streamed-search property: the presets, scaled
# presets (real, negative and complex), expression factors without hints,
# product_power with p <= 1, whose hints leave (1) or (2)-(4) uncertified,
# and a loose hint on a factor whose partner is small, so that its tails
# exceed the scanned sups and sums and the search still passes
ETA_INPUTS = {
    "loose": scale(separable(_OSC_FACTOR, dataclasses.replace(
        _OSC_FACTOR, decay_hint=PowerDecay(p=2.0, K=1e3))), 1e-3),
    "oscillating_quadratic": builtin("oscillating_quadratic"),
    "mod3_log_product": builtin("mod3_log_product"),
    "zero": builtin("zero"),
    "pp(1,1)": builtin("product_power", p=1.0, q=1.0),
    "pp(0.5,2)": builtin("product_power", p=0.5, q=2.0),
    "-2.5*osc": scale(builtin("oscillating_quadratic"), -2.5),
    "1j*mod3": scale(builtin("mod3_log_product"), 1j),
    "twin": from_expression("twin", TWIN_EXPR),
    "sign": from_expression("sign", "sign(j-3)/j^1.5*(1+alternating(k))/k^2"),
    "slow": from_expression("slow", "ln(j+1)/j^2/(k+2)^1.5"),
    "spike": separable(_OSC_FACTOR, single_from_values("spike", _SPIKED)),
    "nan past": separable(single_from_values("nan past", _NAN_PAST), _OSC_FACTOR),
}


class TestStreamedEtaSearch:
    """The streamed search against the whole-array one, and its working set."""

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(ETA_INPUTS)),
           sum_horizon=st.sampled_from(BLOCK_EDGES),
           at_horizon=st.booleans(),
           cap=st.one_of(st.integers(1, 64), st.integers(65, 5000)),
           sup_horizon=st.one_of(st.integers(4, 3 * _SUB_BLOCK_CELLS),
                                 st.integers(3 * _SUB_BLOCK_CELLS, 1 << 17)),
           lam=st.integers(1, 4),
           epsilon=st.sampled_from([5.0, 1.0, 0.2, 0.05, 1e-3]),
           C=st.sampled_from([1.0, 16.0]))
    def test_matches_the_whole_array_search(self, name, sum_horizon, at_horizon, cap,
                                            sup_horizon, lam, epsilon, C):
        # a cap past sum_horizon / 2 puts the default verify_range 2 cap past
        # sum_horizon, which both refuse
        kwargs = dict(lam=lam, cap=cap, sup_horizon=sup_horizon, sum_horizon=sum_horizon,
                      verify_range=sum_horizon if at_horizon else None)
        c = ETA_INPUTS[name]
        assert (_outcome(eta_search, c, epsilon, C, **kwargs)
                == _outcome(eta_search_whole, c, epsilon, C, **kwargs))

    @pytest.mark.parametrize("sum_horizon", BLOCK_EDGES)
    @pytest.mark.parametrize("name", sorted(ETA_INPUTS))
    def test_matches_at_the_block_edges(self, name, sum_horizon):
        # verify_range at the sum horizon, and a small one, where a loose
        # hint's tail exceeds the scanned sups
        c = ETA_INPUTS[name]
        for cap, verify_range in ((sum_horizon, sum_horizon), (4, None)):
            kwargs = dict(cap=cap, verify_range=verify_range, sup_horizon=64,
                          sum_horizon=sum_horizon)
            for eps in (5.0, 0.2, 1e-3):
                assert (_outcome(eta_search, c, eps, 16.0, **kwargs)
                        == _outcome(eta_search_whole, c, eps, 16.0, **kwargs))

    @staticmethod
    def peak(osc, **kwargs):
        tracemalloc.start()
        try:
            eta_search(osc, 0.2, 16.0, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_set_does_not_grow_with_the_sum_horizon(self, osc):
        eta_search(osc, 0.2, 16.0, cap=16, sum_horizon=64)   # first-use caches stay out
        at_defaults = self.peak(osc)
        assert at_defaults <= 3.0e6
        assert self.peak(osc, sum_horizon=1 << 20) <= at_defaults + 0.5e6

    def test_working_set_does_not_grow_with_the_sup_horizon(self, osc):
        # past verify_range condition (1) reads one carried (max, first index)
        # pair per factor, not arrays over 1..sup_horizon
        eta_search(osc, 0.2, 16.0, cap=16, sum_horizon=64)   # first-use caches stay out
        assert self.peak(osc, sup_horizon=1 << 20, sum_horizon=1 << 20) <= 3.0e6

    @pytest.mark.parametrize("sup_horizon", [(1 << 15) - 1, 1 << 15, 1 << 16, 100000, 100001,
                                             1 << 17])
    @pytest.mark.parametrize("name", ["spike", "nan past"])
    def test_matches_past_the_verify_range(self, name, sup_horizon):
        # the spikes (the witness of (1), the first if both) and the NaN lie
        # past verify_range, each within sup_horizon or not
        c = ETA_INPUTS[name]
        for cap, eps in ((64, 5.0), (64, 0.2), (4000, 5.0)):
            kwargs = dict(cap=cap, sup_horizon=sup_horizon, sum_horizon=1 << 13)
            assert (_outcome(eta_search, c, eps, 16.0, **kwargs)
                    == _outcome(eta_search_whole, c, eps, 16.0, **kwargs))


class TestTheorem7:
    def test_bound_formula(self, osc):
        res = theorem7_bound_check(osc, 0.2, 6, 16.0, small_probe())
        expected = (1.0 + 2.0 * math.pi * 16.0 + 2.0 * math.pi
                    + 1.5 * math.pi ** 2 * 16.0 + math.pi ** 2) * 0.2
        assert res.bound == pytest.approx(expected, rel=1e-14)
        assert res.slack == res.worst_abs - res.bound

    def test_envelope_holds_for_oscillating(self, osc):
        res = theorem7_bound_check(osc, 0.2, 6, 16.0, small_probe())
        assert res.slack < 0.0
        assert res.witness_rect.m >= 7 and res.witness_rect.n >= 7

    @pytest.mark.parametrize("c", [builtin("oscillating_quadratic"), dense_twin()],
                             ids=["factored", "dense"])
    def test_min_start_starts_the_lattice_theorem7_probes(self, c):
        # on interior_grid(3) the structured starts are 1..4, so 5 is neither
        # dyadic nor structured
        probe = ProbeConfig(xy_grid=interior_grid(3), thresholds=(12, 16, 24), rect_cap=64,
                            min_start=5)
        _, trace = uniform_tail_trace(c, probe)
        assert min(min(r.m, r.n) for r in trace) == 5
        eta = 4
        t7 = theorem7_bound_check(c, 0.2, eta, 16.0, dataclasses.replace(probe, min_start=1))
        tail = dataclasses.replace(probe, min_start=eta + 1, thresholds=(2,))
        row = max(uniform_tail_trace(c, tail)[1], key=lambda r: r.abs_sum)
        assert (t7.worst_abs, t7.witness_rect, t7.witness_xy, t7.n_rects) \
            == (row.abs_sum, Rect(row.m, row.M, row.n, row.N), (row.x, row.y),
                len(_probe_arrays(tail)[0]))

    def test_eta_at_the_rect_cap_leaves_no_rectangles(self, osc):
        with pytest.raises(ValueError, match="no rectangles with starts >= 257 up to 256"):
            theorem7_bound_check(osc, 0.2, 256, 16.0, small_probe(cap=256))


class TestProbes:
    def test_interior_grid(self):
        grid = interior_grid(5)
        assert len(grid) == 25
        xs = sorted({x for x, _ in grid})
        assert xs[0] == pytest.approx(math.pi / 6)
        assert xs[-1] == pytest.approx(5 * math.pi / 6)

    def test_probe_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(xy_grid=interior_grid(3), thresholds=(16, 8))
        with pytest.raises(ValueError):
            ProbeConfig(xy_grid=(), thresholds=(8,))
        for point in ((0.0, 1.0), (1.0, math.pi)):
            with pytest.raises(ValueError, match="outside"):
                ProbeConfig(xy_grid=(point,))

    def test_oscillating_tail_decays(self, osc):
        report = uniform_tail_probe(osc, small_probe())
        assert report.verdict is Verdict.DECAYING
        assert all(b > a for a, b in zip(report.values[1:], report.values))

    def test_divergent_preset_does_not_decay(self, mod3):
        # grid_points = 5 puts (2 pi/3, 2 pi/3) on the grid
        report = uniform_tail_probe(mod3, small_probe(points=5))
        assert report.verdict is not Verdict.DECAYING

    def test_trace_consistent_with_report(self, osc):
        probe = small_probe()
        report, trace = uniform_tail_trace(osc, probe)
        assert len(trace) == len(probe.thresholds) * len(probe.xy_grid)
        for t, value in zip(report.schedule, report.values):
            rows = [row.abs_sum for row in trace if row.threshold == t]
            assert max(rows) == pytest.approx(value, rel=1e-12)

    def test_trace_rectangles_respect_threshold(self, osc):
        probe = small_probe(thresholds=(16,))
        _, trace = uniform_tail_trace(osc, probe)
        assert all(row.m + row.n > 16 for row in trace)

    def test_trace_maximum_is_attained(self, osc):
        _, trace = uniform_tail_trace(osc, small_probe(thresholds=(8,)))
        row = max(trace, key=lambda r: r.abs_sum)
        val = rect_sum_direct(osc, Rect(row.m, row.M, row.n, row.N), row.x, row.y)
        assert abs(val) == pytest.approx(row.abs_sum, rel=1e-10)


def _oracle_inputs():
    rng = np.random.default_rng(7)
    table = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    return [from_expression("nonsep", "1/(j*k*(j+k))"), dense_twin(),
            from_expression("factored twin", TWIN_EXPR),
            from_expression("one", "1"), from_table("complex", table)]


class TestProbeOracle:
    """The lattice product against brute-force direct sums over the same lattice."""

    PROBE = ProbeConfig(xy_grid=((0.7, 1.9), (2.3, 0.4), (0.7, 0.4)), thresholds=(4, 8, 16),
                        rect_cap=24, doublings=2)

    @pytest.mark.parametrize("c", _oracle_inputs(), ids=lambda c: c.name)
    def test_trace_matches_direct_sums(self, c):
        report, trace = uniform_tail_trace(c, self.PROBE)
        j_iv, k_iv, lo, hi = _probe_arrays(self.PROBE)
        rects = [Rect(int(lo[j]), int(hi[j]), int(lo[k]), int(hi[k])) for j, k in zip(j_iv, k_iv)]
        direct = {xy: [abs(rect_sum_direct(c, r, *xy)) for r in rects]
                  for xy in self.PROBE.xy_grid}
        close = dict(rel=1e-12, abs=1e-14)
        rows = iter(trace)
        for t, value in zip(report.schedule, report.values):
            best = []
            for xy in self.PROBE.xy_grid:
                row = next(rows)
                assert (row.threshold, (row.x, row.y)) == (t, xy)
                assert row.m + row.n > t
                expected = max(v for r, v in zip(rects, direct[xy]) if r.m + r.n > t)
                assert row.abs_sum == pytest.approx(expected, **close)
                witness = Rect(row.m, row.M, row.n, row.N)
                assert row.abs_sum == pytest.approx(direct[xy][rects.index(witness)], **close)
                best.append(expected)
            assert value == pytest.approx(max(best), **close)

    def test_min_start_is_the_smallest_start_kept(self):
        probe = ProbeConfig(xy_grid=((1.0, 1.0),), rect_cap=64, min_start=4)
        j_iv, k_iv, lo, _ = _probe_arrays(probe)
        assert np.unique(lo[j_iv]).tolist() == np.unique(lo[k_iv]).tolist() == [4, 8, 16, 32, 64]

    def test_twin_matches_preset_at_cap_1024(self):
        probe = ProbeConfig(xy_grid=interior_grid(9), rect_cap=1024, doublings=3)
        twin_report, twin_trace = uniform_tail_trace(dense_twin(), probe)
        report, trace = uniform_tail_trace(builtin("oscillating_quadratic"), probe)
        assert np.allclose(twin_report.values, report.values, rtol=0.0, atol=1e-10)
        assert np.allclose([r.abs_sum for r in twin_trace], [r.abs_sum for r in trace],
                           rtol=0.0, atol=1e-10)

    # sha256 of repr(uniform_tail_trace(...)) at the geometries of
    # uniform-tail-osc.cfg and uniform-tail-mod3.cfg, frozen from the
    # per-threshold separable probe this path replaced.
    GEOMETRIES = {
        "osc-cfg": dict(xy_grid=interior_grid(9), thresholds=(8, 16, 32, 64, 128),
                        rect_cap=1024, doublings=3),
        "mod3-cfg": dict(xy_grid=interior_grid(5), thresholds=(8, 16, 32, 64),
                         rect_cap=512, doublings=2),
    }
    FROZEN = {
        ("oscillating_quadratic", "osc-cfg"):
            "c183997c5dcd03df312c96713d643f991c3d7df416685a49929aed1f698c0ebb",
        ("oscillating_quadratic", "mod3-cfg"):
            "c039ede85e09bab3c8795173c373f5214d2b12b3eac48f33a020ecdb6da010e9",
        ("mod3_log_product", "osc-cfg"):
            "7a22c4cbe46bd3aa3b9b0405eba24d4425707493af9fb34e1327d20c0ed9d272",
        ("mod3_log_product", "mod3-cfg"):
            "b41107c7b3ad0fe1b9726c7737d77f012738f0a391874bf185182202c3002b62",
    }

    @pytest.mark.parametrize("name, geometry", sorted(FROZEN))
    def test_separable_traces_are_frozen(self, name, geometry):
        probe = ProbeConfig(**self.GEOMETRIES[geometry])
        text = repr(uniform_tail_trace(builtin(name), probe))
        assert hashlib.sha256(text.encode()).hexdigest() == self.FROZEN[name, geometry]

    # sha256 of repr(uniform_tail_trace(...)) on dense expressions, frozen
    # from the probe that took the sine prefixes of an identity factor
    DENSE_FROZEN = {
        ("1/(j*k*(j+k))", 32): "e6a8ba2eae72e5a5b39984c74863c1b658b31aa4698cb627d19e92210a310bb1",
        ("1/(j*k*(j+k))", 256): "1aa57fabf542b203484af3fb3caaf909ff8da5595970e28a94979815cb523846",
        (TWIN_EXPR, 32): "58f2caea35256ae799fcdb2262711169bff679f9961fa5ae87d859cbe3366422",
        (TWIN_EXPR, 256): "e35eb53eac3a62860a4fd2de3687e8902c6731049abceaa9dc59daf4180eb958",
        ("sign(j-k)*alternating(j*k)/(j+k)^2", 32): "924eed46de48a3ef338732716949b29962024038099e48e4d1dc328ba219db9a",
        ("sign(j-k)*alternating(j*k)/(j+k)^2", 256): "478b6a78f1dec2d094b8170a4ea64d281ce037f83973ff7a79749163f45ebed1",
    }

    @pytest.mark.parametrize("expr, cap", sorted(DENSE_FROZEN))
    def test_dense_traces_are_frozen(self, expr, cap):
        probe = ProbeConfig(xy_grid=interior_grid(3), thresholds=(4, 8, 16),
                            rect_cap=cap, doublings=3)
        c = dense_twin() if expr == TWIN_EXPR else from_expression("dense", expr)
        text = repr(uniform_tail_trace(c, probe))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DENSE_FROZEN[expr, cap]

    @pytest.mark.parametrize("points", [3, 21])
    @pytest.mark.parametrize("cap", [256, 512])
    def test_dense_guard_counts_the_working_set(self, points, cap):
        # on 21 x 21 the interval sums of the 42 abscissae outweigh the two
        # cap x cap tables
        c = from_expression("dense", "1/(j*k*(j+k))")
        probe = ProbeConfig(xy_grid=interior_grid(points), rect_cap=cap)
        uniform_tail_probe(c, ProbeConfig(xy_grid=interior_grid(2), rect_cap=16,
                                          thresholds=(4, 8)))  # first-use caches stay out
        intervals = len(_probe_arrays(probe)[2])
        stated = _probe_bytes(cap, intervals, 2 * points)
        tracemalloc.start()
        try:
            uniform_tail_probe(c, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stated


# interval sums with ties: repeats, zeros, both signs, neighbouring floats
# whose products can round to one value, and a subnormal
TIE_SUMS = (0.0, 1.0, -1.0, 0.5, 2.0, -2.0, 3.0, 0.1, 1.0 + 2.0 ** -52, -(1.0 - 2.0 ** -53),
            3.0 * (1.0 + 2.0 ** -52), 1e-300, 5e-324)
# factor values that make a probe's sums, or their products, not finite
SPECIAL_VALUES = (math.nan, math.inf, -math.inf, 2e154, -2e154, 1e200)
POINTS = ((0.3, 2.9), (1.0, 1.0), (2.5, 0.2), (1.0, 0.2))


def _drawn_probe(data, caps=(8, 24, 64, 100)):
    """A probe whose grid points may repeat, and a min_start for its lattice."""
    cap = data.draw(st.sampled_from(caps))
    probe = ProbeConfig(xy_grid=tuple(data.draw(st.lists(st.sampled_from(POINTS), min_size=1,
                                                         max_size=4))),
                        rect_cap=cap, doublings=data.draw(st.integers(1, 4)))
    return probe, data.draw(st.none() | st.integers(1, cap))


def _drawn_thresholds(data, lo, least=0):
    """Sorted thresholds that each admit a rectangle; some admit only the last pairs."""
    most = 2 * int(lo.max()) - 1
    t = st.integers(least, most) | st.integers(max(least, most - 3), most)
    return sorted(data.draw(st.lists(t, min_size=1, max_size=4, unique=True)))


def _first_max_oracle(vals, index, t):
    """(value, j, k) of ``argmax`` of the lattice's ``vals`` over m + n > t."""
    j_iv, k_iv, lo, _ = index
    keep = np.flatnonzero(lo[j_iv] + lo[k_iv] > t)
    i = keep[np.argmax(vals[keep])]
    return vals[i], j_iv[i], k_iv[i]


def _probe_oracle(c, probe, thresholds, product=np.outer):
    """The products the factored probe stands for, grid point by grid point:
    ``(threshold, x, y, Rect, value)`` rows, threshold-major, or the text
    of the refusal of the first grid point with a product that is not finite.
    ``product`` multiplies the two columns of interval sums."""
    index = _probe_arrays(probe)
    j_iv, k_iv, lo, hi = index
    idx = np.arange(1, probe.rect_cap + 1)
    a, b = (f.eval(idx)[:, None] for f in c.separable_parts)   # one column, as the probe's
    rows = {}
    for p, (x, y) in enumerate(probe.xy_grid):
        sx, sy = ((P[hi] - P[lo - 1]) for P in (sine_prefix(a, x), sine_prefix(b, y)))
        with np.errstate(all="ignore"):
            vals = np.abs(product(sx, sy))[j_iv, k_iv]
        if not np.isfinite(vals).all():
            i = int(np.argmin(np.isfinite(vals)))
            return (f"|rectangle sum| over {lo[j_iv[i]]}..{hi[j_iv[i]]} x {lo[k_iv[i]]}.."
                    f"{hi[k_iv[i]]} at (x, y) = ({x!r}, {y!r}) is {float(vals[i])!r}, "
                    "not finite")
        for t in thresholds:
            value, j, k = _first_max_oracle(vals, index, t)
            rect = Rect(int(lo[j]), int(hi[j]), int(lo[k]), int(hi[k]))
            rows[t, p] = (t, x, y, rect, float(value))
    return [rows[t, p] for t in thresholds for p in range(len(probe.xy_grid))]


class TestFactoredMaxima:
    """The factored probe of a separable sequence reads its first maxima from
    per-start maxima; brute force forms every product and takes ``argmax``."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_first_maxima_match_the_products(self, data):
        probe, min_start = _drawn_probe(data)
        index = _probe_arrays(dataclasses.replace(probe, min_start=min_start or 1))
        lo = index[2]

        def sums(axis):   # drawn per distinct abscissa, so repeated points repeat rows
            drawn = {v: data.draw(st.lists(st.sampled_from(TIE_SUMS), min_size=len(lo),
                                           max_size=len(lo)))
                     for v in dict.fromkeys(point[axis] for point in probe.xy_grid)}
            return np.array([drawn[point[axis]] for point in probe.xy_grid])

        sx, sy = sums(0), sums(1)
        thresholds = _drawn_thresholds(data, lo)
        values, js, ks = _factored_maxima(sx, sy, lo, thresholds)
        for row, t in enumerate(thresholds):
            got = [(values[row, p], js[row, p], ks[row, p]) for p in range(len(sx))]
            assert got == [_first_max_oracle(np.abs(np.outer(px, py))[index[:2]], index, t)
                           for px, py in zip(sx, sy)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the refused overflows
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_trace_and_theorem7_match_the_products(self, data):
        probe, min_start = _drawn_probe(data, caps=(8, 24, 40))
        factors = []
        for name in "ab":
            values = np.array(data.draw(st.lists(st.sampled_from(TIE_SUMS[:8]),
                                                 min_size=probe.rect_cap,
                                                 max_size=probe.rect_cap)))
            special = data.draw(st.none() | st.tuples(st.integers(0, probe.rect_cap - 1),
                                                       st.sampled_from(SPECIAL_VALUES)))
            if special is not None:
                values[special[0]] = special[1]
            factors.append(single_from_values(name, values))
        c = separable(*factors)
        probe = dataclasses.replace(probe, thresholds=tuple(
            _drawn_thresholds(data, _probe_arrays(probe)[2], least=2)))

        expected = _probe_oracle(c, probe, probe.thresholds)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as refused:
                uniform_tail_trace(c, probe)
            assert str(refused.value) == expected
        else:
            report, trace = uniform_tail_trace(c, probe)
            assert [(r.threshold, r.x, r.y, Rect(r.m, r.M, r.n, r.N), r.abs_sum)
                    for r in trace] == expected
            assert list(report.values) == [max(row[4] for row in expected if row[0] == t)
                                           for t in probe.thresholds]

        eta = (min_start or 1) - 1
        expected = _probe_oracle(c, dataclasses.replace(probe, min_start=eta + 1), (0,))
        if isinstance(expected, str):
            with pytest.raises(ValueError) as refused:
                theorem7_bound_check(c, 0.2, eta, 16.0, probe)
            assert str(refused.value) == expected
        else:
            _, x, y, rect, worst = max(expected, key=lambda row: row[4])
            t7 = theorem7_bound_check(c, 0.2, eta, 16.0, probe)
            assert (t7.worst_abs, t7.witness_rect, t7.witness_xy) == (worst, rect, (x, y))

    def test_zero_preset_names_the_first_admitted_rectangle(self, zero_seq):
        probe = ProbeConfig(xy_grid=interior_grid(3), thresholds=(4, 64, 255), rect_cap=128)
        _, trace = uniform_tail_trace(zero_seq, probe)
        assert [(r.threshold, r.x, r.y, Rect(r.m, r.M, r.n, r.N), r.abs_sum) for r in trace] \
            == _probe_oracle(zero_seq, probe, probe.thresholds)
        assert {(r.threshold, r.m, r.n, r.abs_sum) for r in trace} \
            == {(4, 1, 4, 0.0), (64, 1, 64, 0.0), (255, 128, 128, 0.0)}

    def test_repeated_grid_points_keep_their_rows(self, osc):
        probe = ProbeConfig(xy_grid=((0.7, 1.9), (2.3, 0.4), (0.7, 1.9)), thresholds=(4, 8),
                            rect_cap=64)
        _, trace = uniform_tail_trace(osc, probe)
        assert len(trace) == 6
        for first, again in ((trace[0], trace[2]), (trace[3], trace[5])):
            assert tuple(first) == tuple(again)

    def test_complex_factors_take_the_products(self):
        # the modulus of a complex product is not the product of the moduli,
        # bit for bit, so complex factor sums are multiplied out, by the
        # matrix product, whose complex rounding np.outer does not share
        idx = np.arange(1, 65)
        c = separable(single_from_values("a", np.exp(1j * idx) / idx ** 2),
                      single_from_values("b", (2.0 - 1j) / idx ** 2))
        probe = ProbeConfig(xy_grid=((0.7, 1.9), (2.3, 0.4)), thresholds=(4, 8), rect_cap=64)
        assert [(r.threshold, r.x, r.y, Rect(r.m, r.M, r.n, r.N), r.abs_sum)
                for r in uniform_tail_trace(c, probe)[1]] \
            == _probe_oracle(c, probe, probe.thresholds, product=lambda sx, sy: sx @ sy.T)


class TestRemark2:
    def test_frozen_schedule_values(self):
        report = remark2_divergence(schedule=(10, 100))
        assert report.values[0] == pytest.approx(16.594970563588987, rel=1e-10)
        assert report.values[1] == pytest.approx(19.01749256477336, rel=1e-10)
        assert report.reference_values[0] == pytest.approx(4.8273417762755075, rel=1e-10)
        assert report.verdict is Verdict.GROWING

    def test_values_dominate_minorant(self):
        report = remark2_divergence(schedule=(10, 100, 1000))
        for value, bound in zip(report.values, report.reference_values):
            assert value >= bound

    def test_product_matches_direct_sum(self, mod3):
        report = remark2_divergence(schedule=(10,))
        x0 = 2.0 * math.pi / 3.0
        direct = float(rect_sum_direct(mod3, Rect(1, 32, 1, 32), x0, x0))
        assert direct == pytest.approx(report.values[0], abs=1e-10 * (1 + abs(direct)))

    def test_cross_checks_compare_direct_sums_up_to_the_largest_scale(self, mod3):
        report = remark2_divergence(schedule=(10, 100, 1000))
        name, x0, checks, mismatches = remark2_cross_checks(report, 100, 1e-10)
        assert (name, x0) == ("mod3_log_product", 2.0 * math.pi / 3.0)
        assert [check["scale"] for check in checks] == [10, 100]
        assert checks[0]["direct"] == float(rect_sum_direct(mod3, Rect(1, 32, 1, 32), x0, x0))
        assert checks[0]["product"] == report.values[0]
        assert mismatches == []
        # below zero every difference is over the tolerance
        assert remark2_cross_checks(report, 100, -1.0)[3] == checks

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            remark2_divergence(schedule=(100, 10))
