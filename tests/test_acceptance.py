"""Acceptance gate: nine desk-scale checks, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion.  Frozen reference numbers were recomputed independently by
``scripts/growth_slope_oracle.py`` (membership fits and the growth
slope; one more test re-runs it) and by direct high-precision partial
sums (divergence schedule); the tests compare the library against those
values and then assert the criterion bounds themselves.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from doublesine import (
    Family,
    MajorantFamily,
    ProbeConfig,
    Rect,
    Verdict,
    builtin,
    check_condition_22,
    check_membership,
    classify_probe,
    delta_r0,
    delta_rr,
    eta_search,
    from_table,
    interior_grid,
    kernel_bound_check,
    ksum,
    lemma1_quantity,
    lemma2_quantities,
    lemma3_check,
    rect_sum_direct,
    rect_sum_parts,
    remark2_divergence,
    row_sum_by_parts,
    single_from_values,
    theorem7_bound_check,
)
from doublesine.cli import main as cli_main
from doublesine.majorants import Axis

EPS = np.finfo(np.float64).eps
DYADIC_4096 = tuple(2 ** t for t in range(1, 13))
PAIRS_4096 = tuple((m, n) for m in DYADIC_4096 for n in DYADIC_4096)

# Values from scripts/growth_slope_oracle.py (horizon 2^20).  The library
# scans to its default 4096 horizon, which shifts the double fit by about
# 1e-4 at the grid edge where the scan window holds a single block pair.
ORACLE_R2_ROW_FIT = 2.998200148926835
ORACLE_R2_DOUBLE_FIT = 2.172137986961222
ORACLE_R1_ROW_FIT = 4094.1261781495405
ORACLE_R1_GROWTH_SLOPE = 1.0447308167721423

# Square partial sums of the residue-modulated product at x = y = 2*pi/3,
# evaluated over (1..3M+2)^2 for M in the schedule below.
DIVERGENCE_SCHEDULE = (10, 100, 1000, 10000)
DIVERGENCE_VALUES = (16.594970563588987, 19.01749256477336,
                     20.757332918450434, 22.10800482709286)


def family_three() -> MajorantFamily:
    return MajorantFamily(Family.THREE, Axis.ROW, lam=2, b1="l", b2="l", b3="l",
                          sup_horizon=4096)


def safe_x(rng: np.random.Generator, r: int, gap: float = 0.05) -> float:
    """Uniform draw from (0, pi) staying clear of the kernel poles."""
    while True:
        x = float(rng.uniform(gap, math.pi - gap))
        if all(abs(x - 2.0 * l * math.pi / r) >= gap for l in range(r + 1)):
            return x


def test_criterion_1_summation_by_parts_matches_direct_sums():
    rng = np.random.default_rng(20260825)
    for _ in range(1000):
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 20))
        m = n + int(rng.integers(1, 65)) - 1
        values = rng.uniform(-1.0, 1.0, size=m + r)
        a = single_from_values("a", values)
        x = safe_x(rng, r)
        k = np.arange(n, m + 1)
        direct = float(ksum(values[k - 1] * np.sin(k * x)))
        parts = float(row_sum_by_parts(a, n, m, r, x))
        assert abs(parts - direct) <= 1e-9 * (1.0 + abs(direct))

    for _ in range(200):
        table = rng.uniform(-1.0, 1.0, (30, 30)) + 1j * rng.uniform(-1.0, 1.0, (30, 30))
        c = from_table("t", table)
        m = int(rng.integers(1, 15))
        M = int(rng.integers(m, 31))
        n = int(rng.integers(1, 15))
        N = int(rng.integers(n, 31))
        x, y = safe_x(rng, 2), safe_x(rng, 2)
        rect = Rect(m, M, n, N)
        direct = rect_sum_direct(c, rect, x, y)
        parts = rect_sum_parts(c, rect, x, y, r=2)
        assert abs(parts - direct) <= 1e-9 * (1.0 + abs(direct))


def test_criterion_2_difference_decompositions_are_exact():
    rng = np.random.default_rng(97)
    c = from_table("t", rng.uniform(-1.0, 1.0, (204, 204)))
    idx = np.arange(1, 201)
    J, K = np.meshgrid(idx, idx, indexing="ij")

    pieces = [np.asarray(delta_rr(c, 1, J + s, K + t), dtype=np.float64)
              for s in (0, 1) for t in (0, 1)]
    lhs = np.asarray(delta_rr(c, 2, J, K), dtype=np.float64)
    scale = np.maximum(1.0, sum(np.abs(p) for p in pieces))
    assert np.all(np.abs(lhs - sum(pieces)) <= 8.0 * EPS * scale)

    first = np.asarray(delta_r0(c, 1, J, K), dtype=np.float64)
    second = np.asarray(delta_r0(c, 1, J + 1, K), dtype=np.float64)
    lhs_row = np.asarray(delta_r0(c, 2, J, K), dtype=np.float64)
    scale_row = np.maximum(1.0, np.abs(first) + np.abs(second))
    assert np.all(np.abs(lhs_row - (first + second)) <= 8.0 * EPS * scale_row)


def test_criterion_3_kernel_envelope_never_violated():
    lower = np.linspace(0.0, math.pi / 2.0, 10001)[1:]
    upper = np.linspace(math.pi / 2.0, math.pi, 10001)[:-1]
    for grid in (lower, upper):
        report = kernel_bound_check(grid, k_max=512)
        assert report.k_max == 512
        assert report.n_points == 10000
        assert report.worst_slack <= 0.0


def test_oracle_reproduces_its_frozen_values():
    path = Path(__file__).resolve().parents[1] / "scripts" / "growth_slope_oracle.py"
    spec = importlib.util.spec_from_file_location("growth_slope_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    found = oracle.oracle()
    assert found[2]["row"] == ORACLE_R2_ROW_FIT
    assert found[2]["double"] == ORACLE_R2_DOUBLE_FIT
    assert found[1]["row"] == ORACLE_R1_ROW_FIT
    assert found[1]["slope"] == ORACLE_R1_GROWTH_SLOPE


def test_criterion_4_oscillating_fit_constants_and_step1_growth():
    osc = builtin("oscillating_quadratic")

    rep2 = check_membership(osc, 2, family_three(), PAIRS_4096)
    assert rep2.fitted_C_row == pytest.approx(ORACLE_R2_ROW_FIT, rel=1e-6)
    assert rep2.fitted_C_double == pytest.approx(ORACLE_R2_DOUBLE_FIT, rel=5e-4)
    assert rep2.fitted_C_row <= 4.0
    assert rep2.fitted_C_col <= 4.0
    assert rep2.fitted_C_double <= 16.0

    rep1 = check_membership(osc, 1, family_three(), PAIRS_4096)
    assert rep1.fitted_C_row == pytest.approx(ORACLE_R1_ROW_FIT, rel=1e-9)
    running = []
    for size in DYADIC_4096:
        vals = [row.ratio for row in rep1.rows
                if row.axis == "row" and row.m <= size and row.n <= size]
        running.append(max(vals))
    assert all(b > a for a, b in zip(running, running[1:]))
    slope = rep1.growth_fit["row"]
    assert slope == pytest.approx(ORACLE_R1_GROWTH_SLOPE, rel=1e-9)
    assert slope >= 0.8


def test_criterion_5_mod3_membership_and_divergence_schedule():
    mod3 = builtin("mod3_log_product")

    rep = check_membership(mod3, 3, family_three(), PAIRS_4096)
    assert rep.fitted_C_row <= 6.0
    assert rep.fitted_C_col <= 6.0
    assert rep.fitted_C_double <= 36.0

    report = remark2_divergence(schedule=DIVERGENCE_SCHEDULE)
    assert report.verdict is Verdict.GROWING
    for got, frozen in zip(report.values, DIVERGENCE_VALUES):
        assert got == pytest.approx(frozen, rel=1e-10)
    assert all(b > a for a, b in zip(report.values, report.values[1:]))
    for value, minorant in zip(report.values, report.reference_values):
        assert value >= minorant

    x0 = 2.0 * math.pi / 3.0
    for M, factored in zip(DIVERGENCE_SCHEDULE[:2], report.values[:2]):
        side = 3 * M + 2
        direct = float(rect_sum_direct(mod3, Rect(1, side, 1, side), x0, x0))
        assert direct == pytest.approx(factored, rel=1e-10)


def test_criterion_6_weighted_antidiagonal_tail_verdicts():
    osc = builtin("oscillating_quadratic")
    report = check_condition_22(osc)
    assert report.verdict is Verdict.DECAYING
    for s, value in zip(report.schedule, report.values):
        assert value <= 9.0 / (s - 1)

    flat = check_condition_22(builtin("product_power", p=1.0, q=1.0))
    assert flat.verdict is not Verdict.DECAYING
    assert flat.verdict is Verdict.FLAT
    assert all(abs(value - 1.0) <= 1e-12 for value in flat.values)


def test_criterion_7_eta_search_and_small_tail_bound():
    osc = builtin("oscillating_quadratic")
    probe = ProbeConfig(xy_grid=interior_grid(21), rect_cap=4096, doublings=4)
    expected_eta = {0.2: 6, 0.05: 12}
    for epsilon, eta in expected_eta.items():
        found = eta_search(osc, epsilon, C=16.0, cap=16384)
        assert found.eta == eta
        assert found.eta <= 16384
        assert all(cond.certified for cond in found.conditions)
        bound = theorem7_bound_check(osc, epsilon, found.eta, 16.0, probe)
        assert bound.slack < 0.0
        assert bound.worst_abs < bound.bound


def test_criterion_8_lemma_quantities_decay_and_slack_stays_nonnegative():
    osc = builtin("oscillating_quadratic")
    diagonal = [(2 ** t, 2 ** t) for t in range(2, 7)]

    first = [lemma1_quantity(osc, m, n).upper for m, n in diagonal]
    assert classify_probe(first, band=0.05) is Verdict.DECAYING

    row_tails, col_tails = zip(*((a.upper, b.upper) for a, b in
                                 (lemma2_quantities(osc, m, n) for m, n in diagonal)))
    assert classify_probe(row_tails, band=0.05) is Verdict.DECAYING
    assert classify_probe(col_tails, band=0.05) is Verdict.DECAYING

    small = tuple(2 ** t for t in range(1, 7))
    pairs = tuple((m, n) for m in small for n in small)
    fam_two = MajorantFamily(Family.TWO, Axis.ROW, lam=2, b1="l", b2="l", b3="l",
                             sup_horizon=4096)
    fit = check_membership(osc, 2, fam_two, pairs)
    C = max(fit.fitted_C_row, fit.fitted_C_col, fit.fitted_C_double)
    for m, n in pairs:
        if m < 2 or n < 2:
            continue
        result = lemma3_check(osc, C, 2, m, n)
        assert result.slack >= 0.0, (m, n, result.slack)


REPRO_COMMANDS = (
    ("check-class", "--preset", "oscillating_quadratic", "--r", "2",
     "--family", "three", "--grid", "dyadic:64",
     "--max-row-c", "4", "--max-double-c", "16",
     "--json", "class.json", "--csv", "class.csv"),
    ("condition-22", "--preset", "oscillating_quadratic", "--expect", "decaying",
     "--json", "c22.json", "--csv", "c22.csv"),
    ("partial-sum", "--preset", "oscillating_quadratic", "--rect", "1:16x1:16",
     "--x", "1.0", "--y", "1.0", "--method", "all",
     "--json", "psum.json", "--csv", "psum.csv"),
    ("uniform-tail", "--preset", "oscillating_quadratic", "--grid-points", "3",
     "--thresholds", "8,16,32", "--rect-cap", "256", "--doublings", "2",
     "--json", "tail.json", "--csv", "tail.csv"),
    ("lemma", "--preset", "oscillating_quadratic", "--which", "1",
     "--schedule", "4,8,16,32,64", "--expect", "decaying",
     "--json", "lemma1.json", "--csv", "lemma1.csv"),
    ("lemma", "--preset", "oscillating_quadratic", "--which", "2",
     "--schedule", "4,8,16,32,64", "--expect", "decaying",
     "--json", "lemma2.json", "--csv", "lemma2.csv"),
    ("lemma", "--preset", "oscillating_quadratic", "--which", "3",
     "--grid", "dyadic:16", "--c-const", "4",
     "--json", "lemma3.json", "--csv", "lemma3.csv"),
    ("eta", "--preset", "oscillating_quadratic", "--epsilon", "0.2",
     "--c-const", "16", "--cap", "1024", "--grid-points", "5",
     "--rect-cap", "256", "--doublings", "2",
     "--json", "eta.json", "--csv", "eta.csv"),
    ("remark2", "--schedule", "10,100",
     "--json", "remark2.json", "--csv", "remark2.csv"),
    ("verify-identities", "--cases-1d", "60", "--cases-2d", "10",
     "--table-size", "12", "--seed", "0",
     "--json", "ids.json", "--csv", "ids.csv"),
)


def test_criterion_9_report_suite_is_byte_identical_across_reruns(tmp_path):
    def run_suite():
        for argv in REPRO_COMMANDS:
            code = cli_main([argv[0], "--out-dir", str(tmp_path), *argv[1:]])
            assert code == 0, argv

    run_suite()
    files = sorted(p for p in tmp_path.iterdir() if p.suffix in (".json", ".csv"))
    assert len(files) == 2 * len(REPRO_COMMANDS)
    snapshot = {p.name: p.read_bytes() for p in files}
    run_suite()
    for p in files:
        assert p.read_bytes() == snapshot[p.name], f"{p.name} changed between runs"
