import ast
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from doublesine import (Axis, Family, MajorantFamily, ProbeConfig, builtin, check_membership, cli,
                        from_expression, interior_grid, kernels, ksum, majorants,
                        uniform_tail_trace)
from doublesine.cli import build_parser, main
from doublesine.differences import _SUB_BLOCK_CELLS

from conftest import TWIN_EXPR, by_parts_twin

# no product factorisation, so the dense scan and probe paths
NONSEP_EXPR = "1/(j*k*(j+k))"
# NaN at every (j, k): a negative base under a fractional power
NAN_EXPR = "(-1)^(0.5+j-j)/(j*k)^2"
# numpy's refusal of the remainder of a complex value
REMAINDER = ("ufunc 'remainder' not supported for the input types, and the inputs could not be "
             "safely coerced to any supported types according to the casting rule ''safe''")
ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
OSC = ("--preset", "oscillating_quadratic")
RECT = ("--rect", "1:4x1:4", "--x", "0.5", "--y", "0.5")


def run(tmp_path, *argv):
    code = main([*argv, "--out-dir", str(tmp_path)])
    return code


def load_json(tmp_path, name):
    with open(tmp_path / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_csv(tmp_path, name):
    with open(tmp_path / name, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _fuzzed_expr(variables):
    """Expressions in ``variables`` built from complex constants, ``mod``,
    vanishing divisors and huge powers.  Every exponent is a float, so no
    power of integer atoms builds a huge Python integer."""
    atoms = st.sampled_from(["3", "0.5", "1e308", "5e-324", "(-2)^0.5"]
                            + [f.format(v=v) for v in variables
                               for f in ("{v}", "({v}-2)", "({v}-{v})", "(-1)^(0.5+{v}-{v})")])

    def grow(inner):
        return st.one_of(
            st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("({})^{}".format, inner, st.sampled_from(["2.0", "-3.0", "0.5", "400.0"])),
            st.builds("{}({})".format, st.sampled_from(["ln", "abs", "sign", "alternating"]),
                      inner),
            st.builds("mod({},{})".format, inner, inner))

    # a scale in front makes every value complex, huge or tiny
    return st.builds("{}{}".format, st.sampled_from(["", "(-2)^0.5*", "1e308*", "5e-324*"]),
                     st.recursive(atoms, grow, max_leaves=4))


# the numeric flags a fuzzed command line may end with, each command's own
FUZZED_FLAGS = {
    "check-class": ("--r", "--lam", "--sup-horizon", "--max-row-c", "--max-double-c"),
    "single-class": ("--lam", "--horizon", "--max-c"),
    "single-class-gm": ("--r", "--lam", "--max-c"),
    "condition-22": ("--s-max", "--decay-factor"),
    "partial-sum": ("--r", "--x", "--y", "--tol"),
    "uniform-tail": ("--grid-points", "--rect-cap", "--doublings", "--min-start", "--band",
                     "--decay-ratio"),
    "lemma": ("--sum-horizon", "--sup-horizon", "--band", "--decay-ratio"),
    "lemma-3": ("--lam", "--sup-horizon", "--c-const"),
    "eta": ("--epsilon", "--c-const", "--lam", "--cap", "--verify-range", "--rect-cap",
            "--min-start"),
}


@st.composite
def _fuzzed_argv(draw, command):
    """A command line of ``command`` (a key of ``FUZZED_FLAGS``) at small
    sizes: sup horizons and rectangle caps of at most 64, ``dyadic:8``
    grids.  Half the double sequences are products of a factor in j and
    one in k, which take the factored paths.  Half the lines end with one
    of the command's numeric flags at 0, a negative, a huge or tiny float
    or NaN; argparse keeps the last value."""
    expr = draw(_fuzzed_expr(("j", "k"))
                | st.builds("({})*({})".format, _fuzzed_expr(("j",)), _fuzzed_expr(("k",))))
    block_map = st.just("l") | _fuzzed_expr(("l",))
    horizon = draw(st.sampled_from(["16", "64"]))
    if command == "check-class":
        argv = ["check-class", "--expr", expr, "--grid", "dyadic:8", "--sup-horizon", horizon,
                "--family", draw(st.sampled_from(["one", "two", "three"])),
                "--r", draw(st.sampled_from(["1", "2"])), "--b1", draw(block_map)]
    elif command == "single-class":
        argv = ["check-class", "--single-class", draw(st.sampled_from(["mvbvs", "sbvs", "sbvs2"])),
                "--expr", draw(_fuzzed_expr(("k",))), "--grid", "dyadic:8", "--horizon", horizon,
                "--b", draw(block_map)]
    elif command == "single-class-gm":   # the "star" majorant is MVBVS's, drawn above
        argv = ["check-class", "--single-class", "gm", "--expr", draw(_fuzzed_expr(("k",))),
                "--grid", "dyadic:8", "--gm-beta", draw(_fuzzed_expr(("n",)))]
    elif command == "condition-22":
        argv = ["condition-22", "--expr", expr, "--s-max", "64"]
    elif command == "partial-sum":
        argv = ["partial-sum", "--expr", expr, "--rect", "1:8x2:9", "--x", "0.5", "--y", "2.5"]
    elif command == "uniform-tail":
        argv = ["uniform-tail", "--expr", expr, "--grid-points", "2", "--rect-cap", horizon,
                "--thresholds", "4,8", "--min-start", draw(st.sampled_from(["1", "3", "5"]))]
    elif command == "lemma":
        argv = ["lemma", "--which", draw(st.sampled_from(["1", "2"])), "--expr", expr,
                "--schedule", "2,4,8", "--sum-horizon", "64", "--sup-horizon", horizon]
    elif command == "lemma-3":
        argv = ["lemma", "--which", "3", "--expr", expr, "--grid", "dyadic:8", "--sup-horizon",
                horizon, "--b3", draw(block_map),
                *draw(st.sampled_from([(), ("--c-const", "1")]))]
    else:
        argv = ["eta", "--expr", expr, "--epsilon", "0.2", "--c-const", "16", "--cap", "16",
                "--sup-horizon", horizon, "--sum-horizon", "64", "--grid-points", "2",
                "--rect-cap", horizon]
    flag = draw(st.none() | st.sampled_from(FUZZED_FLAGS[command]))
    if flag is not None:
        argv += [flag, draw(st.sampled_from(["0", "-1", "1", "2", "1e308", "5e-324", "nan"]))]
    return argv


class TestPayloadShape:
    def test_schema_and_config_recorded(self, tmp_path):
        assert run(tmp_path, "check-class", "--preset", "oscillating_quadratic",
                   "--grid", "dyadic:8") == 0
        payload = load_json(tmp_path, "check-class.json")
        assert payload["schema_version"] == 1
        assert payload["command"] == "check-class"
        assert payload["pass"] is True
        assert payload["config"]["sequences"]["preset"] == "oscillating_quadratic"
        assert payload["config"]["membership"]["r"] == 2  # default recorded
        assert payload["config"]["cli"]["seed"] == 0

    def test_custom_filenames(self, tmp_path):
        run(tmp_path, "condition-22", "--preset", "zero", "--s-max", "16",
            "--json", "a.json", "--csv", "b.csv")
        assert (tmp_path / "a.json").exists()
        assert (tmp_path / "b.csv").exists()


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        assert run(tmp_path, "partial-sum", "--preset", "zero",
                   "--rect", "1:10x1:10", "--x", "1.0", "--y", "1.0") == 0
        payload = load_json(tmp_path, "partial-sum.json")
        assert payload["results"]["values"]["direct"] == 0.0

    def test_verdict_failure_is_one(self, tmp_path, capsys):
        code = run(tmp_path, "check-class", "--preset", "oscillating_quadratic",
                   "--r", "1", "--grid", "dyadic:64", "--max-row-c", "4")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_config_error_is_two(self, tmp_path, capsys):
        assert run(tmp_path, "check-class", "--preset", "unknown_thing") == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_rect_is_two(self, tmp_path):
        assert run(tmp_path, "partial-sum", "--preset", "zero",
                   "--rect", "nope", "--x", "1.0", "--y", "1.0") == 2

    def test_singular_abscissa_is_two(self, tmp_path):
        assert run(tmp_path, "partial-sum", "--preset", "oscillating_quadratic",
                   "--rect", "1:4x1:4", "--x", str(math.pi / 2), "--y", "1.0",
                   "--r", "4") == 2

    def test_eta_cap_failure_is_one(self, tmp_path):
        code = run(tmp_path, "eta", "--preset", "product_power(1,1)",
                   "--epsilon", "0.2", "--c-const", "4", "--cap", "64",
                   "--grid-points", "3", "--rect-cap", "64", "--doublings", "2")
        assert code == 1
        payload = load_json(tmp_path, "eta.json")
        assert payload["results"]["eta"] is None


class TestLibraryRefusals:
    """A library ValueError is bad input: one line on stderr, status 2, no report."""

    def refused(self, tmp_path, capsys, *argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())
        return err

    def test_dense_scan_guard_states_bytes(self, tmp_path, capsys):
        # the streamed table holds 16 block rows of width 2 * 32768 + 1
        err = self.refused(tmp_path, capsys, "check-class", "--expr", NONSEP_EXPR,
                           "--sup-horizon", "32768")
        assert err == ("error: dense double scan at sup_horizon 32768 needs 162531760 bytes "
                       "for its working set of 16 streamed block rows, over the cap of "
                       "160000000 bytes; lower sup_horizon or use a separable sequence\n")

    def test_generic_lemma_guard_states_cells(self, tmp_path, capsys):
        # lemma 1 holds one sub-block at a time, so its cap is one of cells (run
        # time) and the message states no byte count
        err = self.refused(tmp_path, capsys, "lemma", "--which", "1", "--expr", NONSEP_EXPR)
        assert "over 4294574089 cells is over the cap of 50000000 cells" in err
        assert "byte" not in err

    def test_horizon_below_scan_start(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "check-class", "--preset",
                           "oscillating_quadratic", "--grid", "dyadic:64",
                           "--sup-horizon", "16")
        assert "horizon 16 below scan start" in err

    def test_horizon_refusal_comes_in_grid_order(self, tmp_path, capsys):
        # line n = 2 holds (8, 2) and (32, 2), but (64, 4) comes first in the grid
        err = self.refused(tmp_path, capsys, "check-class", "--preset",
                           "oscillating_quadratic", "--grid", "8x2,64x4,32x2",
                           "--sup-horizon", "16")
        assert err == "error: horizon 16 below scan start 64\n"

    @pytest.mark.filterwarnings("error")
    def test_grid_index_below_one_refused_before_evaluation(self, tmp_path, capsys):
        # checked up front: no divide-by-zero warning from evaluating c at 0
        err = self.refused(tmp_path, capsys, "check-class", "--preset",
                           "oscillating_quadratic", "--grid", "2x0", "--r", "1")
        assert err == "error: indices must be >= 1\n"

    def test_single_class_grid_index_below_one(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "check-class", "--single-class", "gm",
                           "--preset", "oscillating_quadratic", "--grid", "0,-3,4")
        assert err == "error: indices must be >= 1\n"

    def test_eta_verify_range_at_or_below_lambda(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "eta", "--preset", "oscillating_quadratic",
                           "--epsilon", "0.2", "--c-const", "16", "--verify-range", "-5",
                           "--rect-cap", "64", "--grid-points", "3")
        assert err == "error: verify_range -5 must exceed max(1, lambda) = 2\n"

    @pytest.mark.parametrize("argv, line", [
        # at lambda = 0 terms 2 and 3 would sum empty windows; without --c-const
        # family TWO's fit refuses the same lambda
        (("lemma", "--which", "3", *OSC, "--lam", "0", "--c-const", "1", "--grid", "dyadic:8",
          "--sup-horizon", "64"), "error: lemma 3 needs lambda >= 2, got 0\n"),
        (("verify-identities", "--tol", "-1", "--cases-1d", "5", "--cases-2d", "2"),
         "error: tol must be >= 0, got -1.0\n"),
        (("remark2", "--cross-check-tol", "-1", "--schedule", "10,100"),
         "error: cross-check tol must be >= 0, got -1.0\n"),
    ])
    def test_lambda_and_tolerance_below_their_range(self, tmp_path, capsys, argv, line):
        assert self.refused(tmp_path, capsys, *argv) == line

    def test_overflowing_sum(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "check-class", "--expr", "1e308", "--grid", "2x2",
                           "--sup-horizon", "8", "--family", "one")
        assert "overflow" in err

    def test_unwritable_report(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["condition-22", "--preset", "oscillating_quadratic", "--s-max", "16",
                     "--out-dir", str(blocker / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["file"]

    def test_lemma2_sup_past_horizon(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "lemma", "--which", "2", "--preset",
                           "oscillating_quadratic", "--schedule", "64",
                           "--sup-horizon", "16")
        assert err == "error: horizon 16 below scan start 64\n"

    def test_lemma1_start_past_horizon(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "lemma", "--which", "1", "--expr",
                           "1/(j*k*(j+k))", "--schedule", "4,8,16,32,64",
                           "--sum-horizon", "16", "--expect", "decaying")
        assert err == "error: horizon 16 below scan start 32\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the expressions' NaN and inf
    @pytest.mark.parametrize("argv, line", [
        (("partial-sum", "--expr", "(-1)^(0.5+j-j)/(j*k)^2", "--rect", "1:10x1:10",
          "--x", "0.5", "--y", "0.7"), "error: direct rectangle sum is nan, not finite"),
        (("partial-sum", "--expr", "(-1)^(0.5+j-j)/(j*k)^2", "--rect", "1:10x1:10",
          "--x", "0.5", "--y", "0.7", "--method", "parts"),
         "error: parts rectangle sum is nan, not finite"),
        (("condition-22", "--expr", "(-1)^(0.5+j-j)/(j*k)^2", "--expect", "not-decaying"),
         "error: anti-diagonal maximum T(4) is nan, not finite"),
        (("condition-22", "--expr", "j^400*k", "--expect", "decaying"),
         "error: anti-diagonal maximum T(8) is inf, not finite"),
        (("check-class", "--expr", "(-1)^(0.5+j-j)/(j*k)^2", "--r", "2", "--family", "three",
          "--grid", "dyadic:8", "--sup-horizon", "64"),
         "error: row left-hand side at (m, n) = (2, 2) is nan, not finite"),
        (("check-class", "--single-class", "mvbvs", "--expr", "(-1)^(0.5+k-k)/k^2"),
         "error: single left-hand side at n = 2 is nan, not finite"),
        (("uniform-tail", "--expr", NAN_EXPR, "--grid-points", "3", "--rect-cap", "64",
          "--thresholds", "4,8,16"),
         "error: |rectangle sum| over 1..1 x 1..1 at (x, y) = (0.7853981633974483, "
         "0.7853981633974483) is nan, not finite"),
        (("lemma", "--which", "1", "--expr", NAN_EXPR, "--sum-horizon", "64",
          "--schedule", "4,8,16"), "error: lemma 1 quantity at (m, n) = (4, 4) is nan, not finite"),
        (("lemma", "--which", "2", "--expr", NAN_EXPR, "--sup-horizon", "64", "--sum-horizon",
          "64", "--schedule", "4,8,16"),
         "error: lemma 2 first quantity at (m, n) = (4, 4) is nan, not finite"),
        (("lemma", "--which", "3", "--expr", NAN_EXPR, "--c-const", "4", "--grid", "2x2",
          "--sup-horizon", "64"),
         "error: lemma 3 left-hand side at (m, n) = (2, 2) is nan, not finite"),
        # four finite terms whose sum overflows
        (("lemma", "--which", "3", "--expr", "1e306*(1-sign(j-8.5))*(1-sign(k-8.5))/4",
          "--grid", "2x2", "--c-const", "1", "--sup-horizon", "64"),
         "error: lemma 3 right-hand side at (m, n) = (2, 2) is inf, not finite"),
        # a b-sequence whose value is complex
        (("check-class", "--preset", "oscillating_quadratic", "--b1", "(-1)^(0.5+l-l)",
          "--grid", "dyadic:8", "--sup-horizon", "64"),
         "error: b-sequence '(-1)^(0.5+l-l)' not real at l=2"),
        # a complex value where a real one is required, and one numpy cannot
        # take the remainder of
        (("lemma", "--which", "3", "--expr", "(-2)^0.5/(j*k)^2", "--grid", "dyadic:8",
          "--sup-horizon", "64", "--c-const", "1"),
         "error: lemma3_check needs real, nonnegative coefficients"),
        (("check-class", "--single-class", "gm", "--expr", "1/k^2", "--gm-beta", "(-2)^0.5*n"),
         "error: majorant beta '(-2)^0.5*n' not real at n=2"),
        (("condition-22", "--expr", "mod((-2)^0.5*j,3)*k"),
         "error: expression 'mod((-2) ** 0.5 * j, 3) * k' cannot be evaluated: " + REMAINDER),
        (("check-class", "--preset", "oscillating_quadratic", "--b1", "mod((-1)^(0.5+l-l),3)",
          "--grid", "dyadic:8", "--sup-horizon", "64"),
         "error: expression 'mod((-1) ** (0.5 + l - l), 3)' cannot be evaluated: " + REMAINDER),
        (("eta", "--expr", NAN_EXPR, "--epsilon", "0.2", "--c-const", "16", "--cap", "64",
          "--sup-horizon", "256", "--sum-horizon", "1024", "--grid-points", "3",
          "--rect-cap", "64"),
         "error: eta search factor expr.j: m |f_m| at m = 1 is nan, not finite"),
        # separable probes: a NaN factor, and finite factor sums whose product
        # overflows (a constant joins the j factor, so k has its own large term)
        (("uniform-tail", "--expr", "(-1)^(0.5+j-j)/j^2*(2+alternating(k))/k^2",
          "--grid-points", "3", "--rect-cap", "64", "--thresholds", "4,8,16"),
         "error: |rectangle sum| over 1..1 x 1..1 at (x, y) = (0.7853981633974483, "
         "0.7853981633974483) is nan, not finite"),
        (("uniform-tail", "--expr", "1e200/j^2*(1e200+0*k)/k^2", "--grid-points", "3",
          "--rect-cap", "64", "--thresholds", "4,8,16"),
         "error: |rectangle sum| over 1..1 x 1..1 at (x, y) = (0.7853981633974483, "
         "0.7853981633974483) is inf, not finite"),
        (("uniform-tail", "--expr", "10^(j-300)*10^(k-300)", "--grid-points", "3",
          "--rect-cap", "461", "--thresholds", "4,8,16"),
         "error: |rectangle sum| over 1..461 x 1..461 at (x, y) = (0.7853981633974483, "
         "0.7853981633974483) is inf, not finite"),
        # theorem 7's probe: factors that are NaN or huge only past the eta
        # search's horizons (256), inside the rect cap
        (("eta", "--expr", "(400-j)^0.5/j^3/k^2", "--epsilon", "10", "--c-const", "16",
          "--cap", "64", "--sup-horizon", "256", "--sum-horizon", "256", "--grid-points", "3",
          "--rect-cap", "1024"),
         "error: |rectangle sum| over 3..1024 x 3..3 at (x, y) = (0.7853981633974483, "
         "0.7853981633974483) is nan, not finite"),
        (("eta", "--expr", "10^(j-300)*10^(k-300)", "--epsilon", "0.2", "--c-const", "16",
          "--cap", "64", "--sup-horizon", "256", "--sum-horizon", "256", "--grid-points", "3",
          "--rect-cap", "461"),
         "error: |rectangle sum| over 3..461 x 3..461 at (x, y) = (0.7853981633974483, "
         "0.7853981633974483) is inf, not finite"),
    ], ids=["direct", "parts", "condition-22 nan", "condition-22 inf", "check-class nan",
            "single nan", "uniform-tail nan", "lemma 1 nan", "lemma 2 nan", "lemma 3 nan",
            "lemma 3 overflow", "complex b", "lemma 3 complex", "complex gm majorant",
            "complex mod", "complex mod b",
            "eta nan", "uniform-tail nan factor", "uniform-tail overflow",
            "uniform-tail late overflow", "theorem 7 nan", "theorem 7 overflow"])
    def test_non_finite_value_is_refused(self, tmp_path, capsys, argv, line):
        assert self.refused(tmp_path, capsys, *argv) == line + "\n"

    @pytest.mark.parametrize("argv, line", [
        (("partial-sum", "--expr", "(1e308)^2.0*j*k", "--rect", "1:4x1:4", "--x", "0.5",
          "--y", "0.5"),
         "error: expression '1e+308 ** 2.0 * j * k' overflows a float: "
         "Numerical result out of range"),
        (("check-class", "--preset", "oscillating_quadratic", "--b1", "10^(400*l)",
          "--grid", "dyadic:8", "--sup-horizon", "64"),
         "error: expression '10 ** (400 * l)' overflows a float: Numerical result out of range"),
    ], ids=["expression", "b-sequence"])
    def test_python_float_overflow_names_the_expression(self, tmp_path, capsys, argv, line):
        assert self.refused(tmp_path, capsys, *argv) == line + "\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the sup scans
    @pytest.mark.parametrize("argv, line", [
        (("--expr", "5e307*(2+alternating(j))*k^0", "--family", "two", "--r", "1", "--grid",
          "4x1", "--sup-horizon", "64"), "row left-hand side at (m, n) = (4, 1)"),
        (("--expr", "5e307*(2+alternating(j))*k^0", "--family", "three", "--r", "1", "--grid",
          "4x1", "--sup-horizon", "64"), "row left-hand side at (m, n) = (4, 1)"),
        (("--single-class", "mvbvs", "--expr", "5e307*(2+alternating(k))", "--grid", "4"),
         "single left-hand side at n = 4"),
        (("--expr", "1e308", "--family", "one", "--grid", "2x2", "--sup-horizon", "8"),
         "row majorant at (m, n) = (2, 2)"),
    ], ids=["family two", "family three", "single", "majorant"])
    def test_overflowing_row_is_named(self, tmp_path, capsys, argv, line):
        err = self.refused(tmp_path, capsys, "check-class", *argv)
        assert err == f"error: {line} overflows: intermediate overflow in fsum\n"

    def test_no_rectangles_beyond_threshold(self, tmp_path, capsys):
        err = self.refused(tmp_path, capsys, "uniform-tail", "--preset",
                           "oscillating_quadratic", "--rect-cap", "16",
                           "--thresholds", "64", "--grid-points", "2")
        assert "no rectangles beyond threshold 64" in err

    @pytest.mark.parametrize("factors", [2000, 6000])
    def test_deeply_nested_expression(self, tmp_path, capsys, factors):
        chain = "*".join(["j"] * (factors - 1) + ["k"])
        err = self.refused(tmp_path, capsys, "partial-sum", "--expr", chain,
                           "--rect", "1:4x1:4", "--x", "0.5", "--y", "0.5")
        assert "nested" in err

    def test_dense_probe_guard_states_bytes(self, tmp_path, capsys):
        # default --rect-cap 4096: the coefficient table, one prefix table
        # and the interval sums of the 3 + 3 abscissae
        err = self.refused(tmp_path, capsys, "uniform-tail", "--expr", NONSEP_EXPR,
                           "--grid-points", "3")
        assert "needs 287448192 bytes" in err and "cap of 160000000 bytes" in err

    @pytest.mark.parametrize("argv, reason", [
        (("partial-sum", *OSC, *RECT, "--r", "0"), "difference step must be >= 1, got 0"),
        (("partial-sum", "--expr", "(1/0)*j*k", *RECT),
         "expression '1 / 0 * j * k' divides by zero: division by zero"),
        (("partial-sum", "--expr", "j*k*(1 % 0)", *RECT), "integer modulo by zero"),
        (("partial-sum", "--expr", "j*k*0**-1", *RECT),
         "0.0 cannot be raised to a negative power"),
        (("check-class", *OSC, "--b1", "1/0", "--grid", "dyadic:8"),
         "expression '1 / 0' divides by zero"),
        (("lemma", *OSC, "--which", "3", "--b3", "1/0", "--grid", "dyadic:8"),
         "expression '1 / 0' divides by zero"),
        (("check-class", *OSC, "--single-class", "gm", "--gm-beta", "1/(n-2)", "--grid", "2,4"),
         "expression '1 / (n - 2)' divides by zero: float division by zero"),
        (("check-class", *OSC, "--single-class", "sbvs2", "--b", "1/(l-2)", "--grid", "2,4"),
         "expression '1 / (l - 2)' divides by zero: float division by zero"),
        (("condition-22", *OSC, "--decay-factor", "0"), "decay_factor must be > 0, got 0.0"),
        (("condition-22", *OSC, "--decay-factor", "-1"), "decay_factor must be > 0, got -1.0"),
        (("uniform-tail", *OSC, "--decay-ratio", "0", "--grid-points", "2", "--rect-cap", "256"),
         "decay_ratio must be > 0, got 0.0"),
        (("lemma", *OSC, "--which", "1", "--decay-ratio", "0"), "decay_ratio must be > 0"),
        (("lemma", *OSC, "--which", "2", "--decay-ratio", "0"), "decay_ratio must be > 0"),
        (("uniform-tail", *OSC, "--thresholds", "1"), "thresholds must be >= 2"),
        (("uniform-tail", *OSC, "--rect-cap", "1"), "bad probe geometry"),
        (("uniform-tail", *OSC, "--doublings", "0"), "bad probe geometry"),
        (("uniform-tail", *OSC, "--min-start", "0"), "bad probe geometry"),
        (("uniform-tail", *OSC, "--grid-points", "0"), "need at least one grid point per axis"),
        (("lemma", *OSC, "--which", "1", "--schedule", "0"), "indices must be >= 1"),
        (("lemma", *OSC, "--which", "2", "--schedule", "0,4"), "indices must be >= 1"),
        (("eta", *OSC, "--epsilon", "0", "--c-const", "4"), "epsilon and C must be positive"),
        (("remark2", "--schedule", "-1"), "scales must be >= 0"),
        (("condition-22", "--preset", "product_power(nan)"),
         "product_power exponents must be positive"),
        (("uniform-tail", *OSC, "--grid-points", "3", "--rect-cap", "64", "--thresholds",
          "4,8,16", "--band", "-5", "--expect", "not-decaying"), "band must be >= 0, got -5.0"),
        (("lemma", "--which", "1", *OSC, "--schedule", "4,8,16", "--band", "-5", "--expect",
          "not-decaying"), "band must be >= 0, got -5.0"),
    ])
    def test_bad_argument(self, tmp_path, capsys, argv, reason):
        assert reason in self.refused(tmp_path, capsys, *argv)

    @pytest.mark.parametrize("option, line", [
        (("--table-size", "1"), "table_size must be >= 4 when cases_2d >= 1, got 1"),
        (("--table-size", "2"), "table_size must be >= 4 when cases_2d >= 1, got 2"),
        (("--table-size", "3"), "table_size must be >= 4 when cases_2d >= 1, got 3"),
        (("--cases-1d", "-3"), "cases_1d must be >= 0, got -3"),
        (("--cases-2d", "-3"), "cases_2d must be >= 0, got -3"),
        (("--delta-grid", "-3"), "delta_grid must be >= 0, got -3"),
        (("--kernel-points", "0"), "kernel_points must be >= 1, got 0"),
        (("--kernel-points", "-1"), "kernel_points must be >= 1, got -1"),
    ])
    def test_bad_identity_sweep_size_names_its_option(self, tmp_path, capsys, option, line):
        err = self.refused(tmp_path, capsys, "verify-identities", "--cases-1d", "2",
                           "--kernel-points", "4", "--k-max", "4", *option)
        assert err == f"error: {line}\n"

    @pytest.mark.parametrize("command", [("uniform-tail", "--grid-points", "2"),
                                         ("lemma", "--which", "1"), ("lemma", "--which", "2")])
    @pytest.mark.parametrize("option, line", [
        (("--band", "-5"), "error: band must be >= 0, got -5.0"),
        (("--band", "nan"), "config error: --band must be finite, got nan"),
        (("--decay-ratio", "0"), "error: decay_ratio must be > 0, got 0.0"),
    ])
    def test_bad_verdict_rule_refused_before_evaluation(self, tmp_path, capsys, monkeypatch,
                                                        command, option, line):
        def unreachable(j, k):
            raise AssertionError("the sequence was evaluated")

        c = from_expression("c", NONSEP_EXPR)
        monkeypatch.setattr(cli, "_resolve_sequence",
                            lambda args, single=False: replace(c, eval=unreachable))
        assert run(tmp_path, *command, *option) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not any(tmp_path.iterdir())


class TestUnexpectedErrors:
    """Running out of memory is status 2 like a size guard; any other
    exception escaping a handler is an internal error, status 3."""

    def raising(self, monkeypatch, exc):
        def run(args):
            raise exc
        monkeypatch.setitem(cli._COMMANDS, "condition-22",
                            cli._COMMANDS["condition-22"]._replace(run=run))

    def test_out_of_memory_is_two(self, tmp_path, capsys, monkeypatch):
        self.raising(monkeypatch, MemoryError("Unable to allocate 128. MiB"))
        assert run(tmp_path, "condition-22", "--preset", "zero") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: Unable to allocate 128. MiB\n"
        assert captured.out == "" and not any(tmp_path.iterdir())

    def test_internal_error_is_three(self, tmp_path, capsys, monkeypatch):
        self.raising(monkeypatch, RuntimeError("broken invariant"))
        assert run(tmp_path, "condition-22", "--preset", "zero") == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: broken invariant" in err
        assert not any(tmp_path.iterdir())


class TestCapVerdicts:
    """A cap is judged by ``membership.cap_verdict``: a certified row over it
    fails it at any horizon, so the truncation note is printed only when
    every row over the cap is truncated."""

    def test_cli_imports_no_private_library_name(self):
        # the handlers shape what the library returns; the grid parser's
        # doublings are the only private name, and the lemma schedule, its
        # verdicts and lemma 3's class constant come from one library call each
        tree = ast.parse(Path(cli.__file__).read_text())
        imported = {node.module: [alias.name for alias in node.names]
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.level == 1}
        assert "cap_verdict" in imported["membership"]
        assert "class_constant" in imported["membership"]
        assert "lemma_schedule" in imported["convergence"]
        names = {name for names in imported.values() for name in names}
        assert {name for name in names if name.startswith("_")} <= {"_doublings"}
        assert not names & {"lemma1_quantity", "lemma2_quantities", "classify_probe"}
        assert not any(alias.name == "numpy" for node in ast.walk(tree)
                       if isinstance(node, ast.Import) for alias in node.names)

    ARGS = ("check-class", "--preset", "oscillating_quadratic", "--r", "2", "--family",
            "three", "--grid", "dyadic:16", "--sup-horizon", "16")
    WORST = "row axis: fitted C = 2.5898784115188334 exceeds"
    NOTE = "; worst scan truncated, raise --sup-horizon to decide"

    def witness(self, tmp_path, capsys, cap):
        assert run(tmp_path, *self.ARGS, "--max-row-c", cap) == 1
        (line,) = [line for line in capsys.readouterr().out.splitlines() if "witness" in line]
        assert self.WORST in line
        return line

    def test_certified_row_over_the_cap_fails_without_note(self, tmp_path, capsys):
        # the certified row at ratio 1.780 already exceeds 1.7
        assert not self.witness(tmp_path, capsys, "1.7").endswith(self.NOTE)

    def test_only_truncated_rows_over_the_cap_are_undecided(self, tmp_path, capsys):
        # only the truncated worst row (2.590) exceeds 2.0
        assert self.witness(tmp_path, capsys, "2.0").endswith(self.NOTE)

    def test_failing_cap_names_the_certified_row_that_decides_it(self, tmp_path, capsys):
        line = self.witness(tmp_path, capsys, "1.7")
        assert line.endswith("; first certified row over the cap (4, 2) at ratio "
                             "1.780184916568486")


class TestDenseProbe:
    ARGS = ("uniform-tail", "--expr", NONSEP_EXPR, "--rect-cap", "256", "--grid-points", "9")

    def test_non_separable_probe_runs_at_cap_256(self, tmp_path):
        assert run(tmp_path, *self.ARGS) == 0
        payload = load_json(tmp_path, "uniform-tail.json")
        assert payload["results"]["verdict"] == "decaying"

    def test_reruns_are_byte_identical(self, tmp_path):
        reports = []
        for _ in range(2):
            assert run(tmp_path, *self.ARGS) == 0
            reports.append(((tmp_path / "uniform-tail.json").read_bytes(),
                            (tmp_path / "uniform-tail.csv").read_bytes()))
        assert reports[0] == reports[1]


class TestDenseScan:
    def test_non_separable_fit_runs_at_the_default_sup_horizon(self, tmp_path):
        # a whole (2 * 4096 + 1)^2 prefix table would need 537 MB; the
        # streamed table holds a few block rows
        assert run(tmp_path, "check-class", "--expr", NONSEP_EXPR, "--r", "2",
                   "--family", "three") == 0
        payload = load_json(tmp_path, "check-class.json")
        assert payload["config"]["majorants"]["sup_horizon"] == 4096
        assert payload["pass"] is True


class TestFactoredExpression:
    """The twin factors, so it runs at CLI defaults where a dense expression is
    refused, and reports what the preset reports without its decay hints."""

    COMMANDS = (
        ("check-class",),
        ("uniform-tail",),
        ("lemma", "--which", "1"),
        ("lemma", "--which", "2"),
        ("lemma", "--which", "3"),
        ("eta", "--epsilon", "0.2", "--c-const", "16"),
        ("partial-sum", "--method", "separable", "--rect", "3:40x5:24",
         "--x", "0.9", "--y", "1.3"),
    )

    @staticmethod
    def hintless(name, **kw):
        c = builtin(name, **kw)
        parts = tuple(replace(f, decay_hint=None) for f in c.separable_parts)
        return replace(c, separable_parts=parts, decay_hint=None)

    def results(self, tmp_path, argv):
        code = run(tmp_path, *argv)
        results = load_json(tmp_path, f"{argv[0]}.json")["results"]
        results.pop("sequence")
        return code, results

    def assert_close(self, got, want, path=""):
        if isinstance(want, dict):
            assert got.keys() == want.keys(), path
            for key in want:
                self.assert_close(got[key], want[key], f"{path}.{key}")
        elif isinstance(want, list):
            assert len(got) == len(want), path
            for i, (g, w) in enumerate(zip(got, want)):
                self.assert_close(g, w, f"{path}[{i}]")
        elif isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), path
        else:
            assert got == want, path

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_twin_reports_the_preset(self, tmp_path, monkeypatch, command):
        preset_code, _ = self.results(tmp_path, (*command, "--preset", "oscillating_quadratic"))
        code, results = self.results(tmp_path, (*command, "--expr", TWIN_EXPR))
        assert code == preset_code
        # expressions carry no decay hint, so compare with the preset's scans alone
        monkeypatch.setattr(cli, "builtin", self.hintless)
        _, hintless = self.results(tmp_path, (*command, "--preset", "oscillating_quadratic"))
        self.assert_close(results, hintless)


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[sequences]\npreset = oscillating_quadratic\n"
                       "[membership]\nr = 2\ngrid = dyadic:8\n")
        assert run(tmp_path, "check-class", "--config", str(cfg)) == 0
        p1 = load_json(tmp_path, "check-class.json")
        assert p1["config"]["membership"]["r"] == 2

        assert run(tmp_path, "check-class", "--config", str(cfg), "--r", "3") == 0
        p2 = load_json(tmp_path, "check-class.json")
        assert p2["config"]["membership"]["r"] == 3

    @pytest.mark.parametrize("spelling", ["--config {}", "--config={}", "--conf {}"])
    def test_every_spelling_applies_the_file(self, tmp_path, spelling):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[sequences]\npreset = zero\n[membership]\nr = 3\ngrid = dyadic:8\n"
                       "[majorants]\nfamily = two\n")
        argv = [tok.format(cfg) for tok in spelling.split()]
        assert run(tmp_path, "check-class", *argv) == 0
        config = load_json(tmp_path, "check-class.json")["config"]
        assert config["cli"]["config"] == str(cfg)
        assert (config["membership"]["r"], config["majorants"]["family"]) == (3, "two")
        # a flag beats the file, for a typed option and a choices option alike
        assert run(tmp_path, "check-class", *argv, "--r", "1", "--family", "three") == 0
        config = load_json(tmp_path, "check-class.json")["config"]
        assert (config["membership"]["r"], config["majorants"]["family"]) == (1, "three")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[membership]\nnot_a_flag = 1\n")
        assert run(tmp_path, "check-class", "--preset", "zero",
                   "--config", str(cfg)) == 2
        assert "not_a_flag" in capsys.readouterr().err

    def test_wrong_section_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[cli]\nr = 2\n")  # r belongs to [membership]
        assert run(tmp_path, "check-class", "--preset", "zero",
                   "--config", str(cfg)) == 2

    def test_default_section_keys_are_its_own(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[DEFAULT]\nr = 3\n[sequences]\npreset = zero\n")
        assert run(tmp_path, "check-class", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "[DEFAULT] r does not match" in err and "[sequences]" not in err

    def test_report_names_by_flag_or_dest(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[sequences]\npreset = zero\n[cli]\njson = a.json\ncsv = b.csv\n")
        assert run(tmp_path, "condition-22", "--config", str(cfg), "--s-max", "16") == 0
        assert (tmp_path / "a.json").exists() and (tmp_path / "b.csv").exists()
        assert load_json(tmp_path, "a.json")["config"]["cli"]["json_name"] == "a.json"
        # reports record the dest, so a config written from one reruns
        cfg.write_text("[sequences]\npreset = zero\n[cli]\njson_name = c.json\n")
        assert run(tmp_path, "condition-22", "--config", str(cfg), "--s-max", "16") == 0
        assert (tmp_path / "c.json").exists()


class TestSequenceSources:
    def test_expression(self, tmp_path):
        assert run(tmp_path, "partial-sum", "--expr", "1/(j^2*k^2)",
                   "--rect", "1:4x1:4", "--x", "0.9", "--y", "1.2") == 0

    def test_sequence_file(self, tmp_path):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("mine = 1/(j^2*k^2)\nother = 1/(j*k)\n")
        assert run(tmp_path, "partial-sum", "--seq-file", str(seqs),
                   "--seq-name", "mine", "--rect", "1:4x1:4",
                   "--x", "0.9", "--y", "1.2") == 0
        payload = load_json(tmp_path, "partial-sum.json")
        assert payload["results"]["sequence"] == "mine"

    def test_sequence_file_needs_name_when_ambiguous(self, tmp_path):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("a = 1/(j*k)\nb = 1/(j*k)\n")
        assert run(tmp_path, "partial-sum", "--seq-file", str(seqs),
                   "--rect", "1:4x1:4", "--x", "0.9", "--y", "1.2") == 2

    def test_two_sources_rejected(self, tmp_path):
        assert run(tmp_path, "partial-sum", "--preset", "zero",
                   "--expr", "1/(j*k)", "--rect", "1:4x1:4",
                   "--x", "0.9", "--y", "1.2") == 2

    def test_preset_with_inline_exponents(self, tmp_path):
        assert run(tmp_path, "check-class", "--preset", "product_power(2,2)",
                   "--grid", "dyadic:8") == 0

    def test_one_inline_exponent_serves_both(self, tmp_path):
        results = []
        for preset in ("product_power(2)", "product_power(2,2)"):
            assert run(tmp_path, "check-class", "--preset", preset, "--grid", "dyadic:8") == 0
            results.append(load_json(tmp_path, "check-class.json")["results"])
        assert results[0] == results[1]

    def test_all_methods_drop_separable_for_a_dense_expression(self, tmp_path):
        assert run(tmp_path, "partial-sum", "--expr", NONSEP_EXPR, *RECT) == 0
        assert sorted(load_json(tmp_path, "partial-sum.json")["results"]["values"]) == \
            ["direct", "parts"]
        assert [row[0] for row in load_csv(tmp_path, "partial-sum.csv")] == \
            ["method", "direct", "parts"]

    def test_complex_partial_sum_values_are_strings(self, tmp_path):
        assert run(tmp_path, "partial-sum", "--expr", "j*k*(-1)**0.5", *RECT) == 0
        values = load_json(tmp_path, "partial-sum.json")["results"]["values"]
        rows = load_csv(tmp_path, "partial-sum.csv")[1:]
        assert rows == [[method, values[method]] for method in ("direct", "parts", "separable")]
        for text in values.values():
            assert isinstance(text, str) and complex(text).imag > 1.0

    def test_single_class_two_sources_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "check-class", "--single-class", "sbvs",
                   "--expr", "1/k^2", "--preset", "oscillating_quadratic") == 2
        assert "choose one sequence source" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_single_class_mode(self, tmp_path):
        assert run(tmp_path, "check-class", "--preset", "oscillating_quadratic",
                   "--single-class", "mvbvs", "--grid", "4,8,16") == 0
        rows = load_csv(tmp_path, "check-class.csv")
        assert rows[0] == ["n", "lhs", "rhs", "ratio", "truncated"]


class TestCsvShapes:
    def test_tail_report_columns(self, tmp_path):
        run(tmp_path, "condition-22", "--preset", "oscillating_quadratic",
            "--s-max", "64")
        rows = load_csv(tmp_path, "condition-22.csv")
        assert rows[0] == ["scale", "value", "bounded_flag"]
        assert rows[1][0] == "4"

    def test_probe_trace_columns(self, tmp_path):
        run(tmp_path, "uniform-tail", "--preset", "oscillating_quadratic",
            "--grid-points", "3", "--thresholds", "8,16", "--rect-cap", "64",
            "--doublings", "2")
        rows = load_csv(tmp_path, "uniform-tail.csv")
        assert rows[0] == ["m0", "x", "y", "m", "M", "n", "N", "abs_sum"]
        assert len(rows) == 1 + 2 * 9  # header + thresholds x grid points

    def test_fit_and_trace_bodies_are_the_library_rows(self, tmp_path, osc):
        def cells(row):
            return [("true" if v else "false") if isinstance(v, bool)
                    else repr(v) if isinstance(v, float) else str(v) for v in row]

        run(tmp_path, "check-class", *OSC, "--grid", "dyadic:64", "--sup-horizon", "256")
        dyadic = (2, 4, 8, 16, 32, 64)
        report = check_membership(osc, 2, MajorantFamily(Family.THREE, Axis.ROW, sup_horizon=256),
                                  [(m, n) for m in dyadic for n in dyadic])
        assert load_csv(tmp_path, "check-class.csv")[1:] == [cells(row) for row in report.rows]
        run(tmp_path, "uniform-tail", *OSC, "--grid-points", "3", "--thresholds", "8,16",
            "--rect-cap", "64", "--doublings", "2")
        _, trace = uniform_tail_trace(osc, ProbeConfig(xy_grid=interior_grid(3), thresholds=(8, 16),
                                                       rect_cap=64, doublings=2))
        assert load_csv(tmp_path, "uniform-tail.csv")[1:] == [cells(row) for row in trace]

    def test_lemma2_series_are_concatenated(self, tmp_path):
        run(tmp_path, "lemma", "--preset", "oscillating_quadratic",
            "--which", "2", "--schedule", "4,8")
        rows = load_csv(tmp_path, "lemma.csv")
        assert rows[0] == ["scale", "value", "bounded_flag"]
        assert [r[0] for r in rows[1:]] == ["4", "8", "4", "8"]


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = ("uniform-tail", "--preset", "oscillating_quadratic",
                "--grid-points", "3", "--thresholds", "8,16",
                "--rect-cap", "64", "--doublings", "2")
        run(tmp_path, *args)
        first = ((tmp_path / "uniform-tail.json").read_bytes(),
                 (tmp_path / "uniform-tail.csv").read_bytes())
        run(tmp_path, *args)
        second = ((tmp_path / "uniform-tail.json").read_bytes(),
                  (tmp_path / "uniform-tail.csv").read_bytes())
        assert first == second

    def test_seeded_identity_checks_reproduce(self, tmp_path):
        args = ("verify-identities", "--cases-1d", "20", "--cases-2d", "5",
                "--delta-grid", "20", "--kernel-points", "50", "--k-max", "16")
        run(tmp_path, *args)
        first = (tmp_path / "verify-identities.json").read_bytes()
        run(tmp_path, *args)
        assert (tmp_path / "verify-identities.json").read_bytes() == first


class TestVerifyIdentities:
    def test_small_run_passes(self, tmp_path):
        assert run(tmp_path, "verify-identities", "--cases-1d", "30",
                   "--cases-2d", "5", "--delta-grid", "30",
                   "--kernel-points", "100", "--k-max", "32") == 0
        payload = load_json(tmp_path, "verify-identities.json")
        checks = payload["results"]["checks"]
        assert set(checks) == {"row_sum_by_parts", "rect_sum_by_parts",
                               "difference_decompositions", "kernel_envelope",
                               "sine_parity"}
        assert all(stats["failures"] == 0 for stats in checks.values())

    def test_csv_rows_carry_each_checks_own_count_and_worst(self, tmp_path):
        assert run(tmp_path, "verify-identities", "--cases-1d", "30",
                   "--cases-2d", "5", "--delta-grid", "30",
                   "--kernel-points", "100", "--k-max", "32") == 0
        checks = load_json(tmp_path, "verify-identities.json")["results"]["checks"]
        diff = checks["difference_decompositions"]
        worst = {
            "row_sum_by_parts": checks["row_sum_by_parts"]["worst_rel_err"],
            "rect_sum_by_parts": checks["rect_sum_by_parts"]["worst_rel_err"],
            "difference_decompositions": max(diff["worst_mixed_err"],
                                             diff["worst_single_err"]),
            "kernel_envelope": checks["kernel_envelope"]["worst_slack"],
            "sine_parity": checks["sine_parity"]["worst_abs_err"],
        }
        # value comparisons: cases; a 30 x 30 mixed grid plus 30 single
        # differences; 2 steps x 200 abscissae x orders 0..32; 99 x 32 terms
        cases = {"row_sum_by_parts": 30, "rect_sum_by_parts": 5,
                 "difference_decompositions": 30 * 30 + 30,
                 "kernel_envelope": 2 * 200 * 33, "sine_parity": 99 * 32}
        rows = load_csv(tmp_path, "verify-identities.csv")
        assert rows[0] == ["check", "cases", "failures", "worst"]
        assert rows[1:] == [[name, str(cases[name]), "0", repr(worst[name])]
                            for name in cases]


    # The `checks` block of the shipped sweep, seed 0: every worst value,
    # witness and failure count.
    SHIPPED_CHECKS = {
        "row_sum_by_parts": {
            "cases": 1000, "failures": 0, "tolerance": 1e-09,
            "worst_rel_err": 7.627684424659744e-14,
            "worst_case": {"case": 992, "r": 2, "n": 18, "m": 47,
                           "x": 3.0134850117827856},
        },
        "rect_sum_by_parts": {
            "cases": 200, "failures": 0, "tolerance": 1e-09,
            "worst_rel_err": 5.135306521238778e-14,
            "worst_case": {"case": 177, "rect": [13, 30, 8, 23],
                           "x": 3.0436095803506316, "y": 0.6677825280482635},
        },
        "difference_decompositions": {
            "grid": 200, "failures": 0, "tolerance": 1.7763568394002505e-15,
            "worst_mixed_err": 9.877444373878135e-16,
            "worst_single_err": 3.799645460034426e-16,
        },
        "kernel_envelope": {
            "points": 20000, "k_max": 512, "failures": 0,
            "worst_slack": -4.999383273074365e-05,
            "witness": {"x": 1.5706392628686097, "k": 1, "r": -2},
        },
        "sine_parity": {
            "k_max": 512, "failures": 0, "tolerance": 5.12e-09,
            "worst_abs_err": 2.7439516068539773e-13,
        },
    }

    def test_shipped_config_report_is_frozen(self, tmp_path):
        assert run(tmp_path, "verify-identities", "--config",
                   str(CONFIGS / "verify-identities.cfg")) == 0
        checks = load_json(tmp_path, "verify-identities.json")["results"]["checks"]
        assert checks == self.SHIPPED_CHECKS

    CHUNK = _SUB_BLOCK_CELLS // kernels._MAX_ROW_LENGTH

    @staticmethod
    def row_cases_one_by_one(rng, cases):
        """The row check case by case: each case drawn, then summed directly
        and by parts on its own."""
        for _ in range(cases):
            r = int(rng.integers(1, 4))
            n = int(rng.integers(1, 21))
            m = n + int(rng.integers(1, 65)) - 1
            values = rng.uniform(-1.0, 1.0, size=m + r)
            x = kernels._sample_x(rng, r)
            k = np.arange(n, m + 1, dtype=np.int64)
            direct = float(ksum(values[k - 1] * np.sin(k * x)))
            parts = float(by_parts_twin(values[n - 1:], n, m, r, x))
            yield direct, parts, {"r": r, "n": n, "m": m, "x": x}

    @pytest.mark.parametrize("cases", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_chunked_rows_are_the_case_by_case_rows(self, cases):
        chunked, one_by_one = np.random.default_rng(11), np.random.default_rng(11)
        got = list(kernels._row_results(chunked, cases))
        want = list(self.row_cases_one_by_one(one_by_one, cases))
        # floats compare by bits through their hex form; the draws leave the
        # generator where the case-by-case loop leaves it
        assert [(d.hex(), p.hex(), w) for d, p, w in got] == \
            [(d.hex(), p.hex(), w) for d, p, w in want]
        assert chunked.bit_generator.state == one_by_one.bit_generator.state

    def test_row_check_memory_does_not_grow_with_cases(self):
        def peak(cases):
            tracemalloc.start()
            try:
                kernels._by_parts_check(kernels._row_results(np.random.default_rng(0), cases),
                                        1e-9)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # warm caches
        assert peak(20_000) <= 1.1 * peak(2_000)

    def test_sweep_sizes_come_from_the_shipped_config(self):
        sizes = cli._read_config("verify-identities", str(CONFIGS / "verify-identities.cfg"))
        checks = kernels.verify_identities(sizes.pop("seed"), **sizes)
        assert {name: entry for name, (entry, _, _) in checks.items()} == self.SHIPPED_CHECKS

    def test_check_with_nothing_to_check_reports_zero(self, tmp_path):
        # a 0 x 0 difference grid, and no sine order at k_max 0
        assert run(tmp_path, "verify-identities", "--cases-1d", "3", "--cases-2d", "1",
                   "--delta-grid", "0", "--kernel-points", "4", "--k-max", "0") == 0
        rows = load_csv(tmp_path, "verify-identities.csv")
        assert rows[3] == ["difference_decompositions", "0", "0", "0.0"]
        assert rows[5] == ["sine_parity", "0", "0", "0.0"]

    def test_negative_k_max_is_two(self, tmp_path, capsys):
        assert run(tmp_path, "verify-identities", "--cases-1d", "2", "--cases-2d", "1",
                   "--delta-grid", "4", "--kernel-points", "4", "--k-max", "-1") == 2
        assert capsys.readouterr().err == "error: k_max must be >= 0, got -1\n"
        assert not any(tmp_path.iterdir())


class TestLemmaAndRemark2:
    def test_lemma1_decays(self, tmp_path):
        assert run(tmp_path, "lemma", "--preset", "oscillating_quadratic",
                   "--which", "1", "--expect", "decaying") == 0

    def test_lemma3_slack(self, tmp_path):
        assert run(tmp_path, "lemma", "--preset", "oscillating_quadratic",
                   "--which", "3", "--grid", "dyadic:16", "--c-const", "4") == 0
        payload = load_json(tmp_path, "lemma.json")
        assert payload["results"]["min_slack"] >= 0.0

    def test_lemma3_fit_shares_the_points_table(self, tmp_path, monkeypatch):
        builds = []
        build = majorants.DoubleScanTable._build
        monkeypatch.setattr(majorants.DoubleScanTable, "_build",
                            lambda self: builds.append(self) or build(self))
        argv = ("lemma", "--which", "3", "--expr", "1/(j*k*(j+k))", "--sup-horizon", "64",
                "--grid", "dyadic:8")
        code = run(tmp_path, *argv)
        assert len(builds) == 1
        fitted = load_json(tmp_path, "lemma.json")["results"]
        assert run(tmp_path, *argv, "--c-const", repr(fitted["C"])) == code
        assert load_json(tmp_path, "lemma.json")["results"] == fitted

    def test_lemma3_names_no_point_when_every_slack_is_infinite(self, tmp_path, monkeypatch):
        # a right-hand side whose finite terms overflow in their sum
        check = cli.lemma3_check
        monkeypatch.setattr(cli, "lemma3_check", lambda *args, **kwargs: replace(
            check(*args, **kwargs), rhs=math.inf, slack=math.inf))
        assert run(tmp_path, "lemma", *OSC, "--which", "3", "--grid", "dyadic:8",
                   "--c-const", "4") == 0
        results = load_json(tmp_path, "lemma.json")["results"]
        assert (results["min_slack"], results["min_slack_at"]) == ("inf", None)

    def test_remark2(self, tmp_path):
        assert run(tmp_path, "remark2", "--schedule", "10,100") == 0
        payload = load_json(tmp_path, "remark2.json")
        assert payload["results"]["verdict"] == "growing"
        assert len(payload["results"]["cross_checks"]) == 2

    def test_remark2_bounded_flag_follows_the_report(self, tmp_path, monkeypatch):
        divergence = cli.remark2_divergence
        monkeypatch.setattr(cli, "remark2_divergence", lambda schedule: replace(
            divergence(schedule=schedule), bounded=(True, False)))
        assert run(tmp_path, "remark2", "--schedule", "10,100") == 0
        rows = load_csv(tmp_path, "remark2.csv")
        assert [row[2] for row in rows[1:]] == ["true", "false"]


class TestRequiredFlagsViaConfig:
    def test_config_satisfies_required_flags(self, tmp_path):
        cfg = tmp_path / "psum.cfg"
        cfg.write_text("[sequences]\npreset = oscillating_quadratic\n"
                       "[kernels_summation]\nrect = 1:8x1:8\nx = 1.0\ny = 1.0\n")
        assert run(tmp_path, "partial-sum", "--config", str(cfg)) == 0

    def test_missing_required_flag_is_two(self, tmp_path, capsys):
        assert run(tmp_path, "partial-sum", "--preset", "zero",
                   "--x", "1.0", "--y", "1.0") == 2
        assert "--rect" in capsys.readouterr().err

    def test_missing_which_is_two(self, tmp_path, capsys):
        assert run(tmp_path, "lemma", "--preset", "zero") == 2
        assert "--which" in capsys.readouterr().err

    def test_missing_eta_epsilon_is_two(self, tmp_path, capsys):
        assert run(tmp_path, "eta", "--preset", "zero", "--c-const", "4") == 2
        assert "--epsilon" in capsys.readouterr().err


class TestTruncatedScanSemantics:
    def test_truncated_scan_still_certifies_cap(self, tmp_path):
        # Past m ~ 1024 the conservative tail certificate exceeds the
        # scanned sup, so scans are flagged; the fitted constant is an
        # upper estimate, which keeps the <=-assertion sound.
        assert run(tmp_path, "check-class", "--preset", "oscillating_quadratic",
                   "--r", "2", "--grid", "dyadic:4096", "--max-row-c", "4",
                   "--max-double-c", "16") == 0
        payload = load_json(tmp_path, "check-class.json")
        assert payload["results"]["truncated"] is True
        assert payload["results"]["fitted_C_row"] <= 4.0


_CLI_DEFAULTS = {"config": None, "csv_name": None, "json_name": None, "out_dir": ".",
                 "seed": 0, "threads": 1}
_SEQUENCE_DEFAULTS = {"expr": None, "p": None, "preset": None, "q": None,
                      "seq_file": None, "seq_name": None}
_PROBE_DEFAULTS = {"band": 0.05, "decay_ratio": 4.0, "doublings": 4, "grid_points": 21,
                   "min_start": 1, "rect_cap": 4096, "thresholds": "8,16,32,64,128"}

# Each command's resolved config at defaults, section -> key -> value.
# Frozen: moving an option to another section or changing a default fails here.
DEFAULT_CONFIG = {
    "check-class": {
        "cli": _CLI_DEFAULTS, "sequences": _SEQUENCE_DEFAULTS,
        "majorants": {"b": "l", "b1": "l", "b2": "l", "b3": "l", "family": "three",
                      "lam": 2, "sup_horizon": 4096},
        "membership": {"gm_beta": "star", "grid": "dyadic:64", "horizon": 4096,
                       "max_c": None, "max_col_c": None, "max_double_c": None,
                       "max_row_c": None, "r": 2, "single_class": None},
    },
    "condition-22": {
        "cli": _CLI_DEFAULTS, "sequences": _SEQUENCE_DEFAULTS,
        "convergence": {"expect": None, "schedule": None},
        "membership": {"decay_factor": 100.0, "s_max": 4096},
    },
    "partial-sum": {
        "cli": _CLI_DEFAULTS, "sequences": _SEQUENCE_DEFAULTS,
        "kernels_summation": {"method": "all", "rect": None, "tol": 1e-09, "x": None,
                              "y": None},
        "membership": {"r": 2},
    },
    "uniform-tail": {
        "cli": _CLI_DEFAULTS, "sequences": _SEQUENCE_DEFAULTS,
        "convergence": {**_PROBE_DEFAULTS, "expect": None},
    },
    "lemma": {
        "cli": _CLI_DEFAULTS, "sequences": _SEQUENCE_DEFAULTS,
        "convergence": {"band": 0.05, "c_const": None, "decay_ratio": 4.0, "expect": None,
                        "schedule": "4,8,16,32,64", "sum_horizon": 65536, "which": None},
        "majorants": {"b1": "l", "b2": "l", "b3": "l", "lam": 2, "sup_horizon": 16384},
        "membership": {"grid": "dyadic:64"},
    },
    "eta": {
        "cli": _CLI_DEFAULTS, "sequences": _SEQUENCE_DEFAULTS,
        "convergence": {**_PROBE_DEFAULTS, "c_const": None, "cap": 16384, "epsilon": None,
                        "sum_horizon": 65536, "verify_range": None},
        "majorants": {"lam": 2, "sup_horizon": 16384},
    },
    "remark2": {
        "cli": _CLI_DEFAULTS,
        "convergence": {"cross_check_max": 100, "cross_check_tol": 1e-10,
                        "schedule": "10,100,1000,10000"},
    },
    "verify-identities": {
        "cli": _CLI_DEFAULTS,
        "kernels_summation": {"cases_1d": 1000, "cases_2d": 200, "delta_grid": 200,
                              "k_max": 512, "kernel_points": 10000, "table_size": 30,
                              "tol": 1e-09},
    },
}

# The fewest flags that let each command run quickly and write a report.
_RUN_WITH = {
    "check-class": {"preset": "zero"},
    "condition-22": {"preset": "zero"},
    "partial-sum": {"preset": "zero", "rect": "1:2x1:2", "x": 1.0, "y": 1.0},
    "uniform-tail": {"preset": "zero", "grid_points": 3},
    "lemma": {"preset": "zero", "which": 1},
    "eta": {"preset": "zero", "epsilon": 0.1, "c_const": 1.0},
    "remark2": {},
    "verify-identities": {"cases_1d": 5, "cases_2d": 2, "delta_grid": 8,
                          "kernel_points": 10, "k_max": 8},
}


class TestResolvedConfig:
    @pytest.mark.parametrize("command", sorted(DEFAULT_CONFIG))
    def test_defaults_and_sections_are_frozen(self, tmp_path, command):
        expected = DEFAULT_CONFIG[command]
        args = vars(build_parser().parse_args([command]))
        assert args.pop("command") == command
        assert args == {k: v for keys in expected.values() for k, v in keys.items()}

        given = {**_RUN_WITH[command], "out_dir": str(tmp_path)}
        argv = [tok for dest, value in _RUN_WITH[command].items()
                for tok in ("--" + dest.replace("_", "-"), str(value))]
        assert run(tmp_path, command, *argv) in (0, 1)
        config = load_json(tmp_path, f"{command}.json")["config"]
        assert config == {section: {k: given.get(k, v) for k, v in keys.items()}
                          for section, keys in expected.items()}


class TestHelp:
    def test_options_listed_under_their_config_sections(self, capsys):
        assert main(["check-class", "--help"]) == 0
        heading, listed_under = None, {}
        for line in capsys.readouterr().out.splitlines():
            if line and not line[0].isspace() and line.endswith(":"):
                heading = line[:-1]
            elif line.lstrip().startswith("--"):
                listed_under[line.split()[0]] = heading
        flags = {"json_name": "--json", "csv_name": "--csv"}
        for section, keys in DEFAULT_CONFIG["check-class"].items():
            for key in keys:
                flag = flags.get(key, "--" + key.replace("_", "-"))
                assert listed_under[flag] == f"[{section}]", flag

    def test_usage_error_returns_two(self, tmp_path, capsys):
        # argparse's own exit status comes back from main, not as SystemExit
        assert main(["check-class", *OSC, "--r", "nan", "--out-dir", str(tmp_path)]) == 2
        assert "error: argument --r: invalid int value: 'nan'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestHeldWarnings:
    """numpy's RuntimeWarnings reach stderr unless the run is refused.  Runs
    go to a subprocess, since pytest records warnings in process."""

    OVERFLOW = "<sequence-expression>:1: RuntimeWarning: overflow encountered in power\n"
    # finite sums, but (j k)^400 overflows on the way
    WARNS = ("partial-sum", "--expr", "1/(1+(j*k)^400)", "--rect", "1:10x1:10",
             "--x", "0.5", "--y", "0.7")

    @staticmethod
    def cli(tmp_path, *argv, flags=()):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        return subprocess.run([sys.executable, *flags, "-m", "doublesine.cli", *argv,
                               "--out-dir", str(tmp_path)],
                              capture_output=True, text=True, env=env, check=False)

    @pytest.mark.parametrize("argv, error", [
        (("partial-sum", "--expr", NAN_EXPR, "--rect", "1:10x1:10", "--x", "0.5", "--y", "0.7"),
         "error: direct rectangle sum is nan, not finite\n"),
        (("check-class", "--expr", NAN_EXPR, "--r", "2", "--family", "three",
          "--grid", "dyadic:8", "--sup-horizon", "64"),
         "error: row left-hand side at (m, n) = (2, 2) is nan, not finite\n"),
        (("condition-22", "--expr", "j^400*k", "--expect", "decaying"),
         "error: anti-diagonal maximum T(8) is inf, not finite\n"),
    ], ids=["partial-sum", "check-class", "condition-22"])
    def test_refused_run_prints_one_line(self, tmp_path, argv, error):
        done = self.cli(tmp_path, *argv)
        assert (done.returncode, done.stderr) == (2, error)

    @pytest.mark.parametrize("extra, status", [((), 0), (("--tol", "0"), 1)])
    def test_other_runs_keep_their_warnings(self, tmp_path, extra, status):
        done = self.cli(tmp_path, *self.WARNS, *extra)
        assert (done.returncode, done.stderr) == (status, 2 * self.OVERFLOW)

    def test_warnings_as_errors_still_fail(self, tmp_path):
        done = self.cli(tmp_path, *self.WARNS, flags=("-W", "error"))
        assert done.returncode == 3
        assert done.stderr.endswith("RuntimeWarning: overflow encountered in power\n")


class TestExitContract:
    """Status 1 prints a witness and writes the report with ``"pass": false``;
    status 2 prints one ``config error:`` line and writes nothing."""

    @pytest.mark.parametrize("argv, report, witness", [
        (("check-class", *OSC, "--grid", "1x1", "--max-row-c", "1"), "check-class",
         "row axis: no admissible grid points"),
        (("check-class", *OSC, "--single-class", "mvbvs", "--max-c", "1e-9"), "check-class",
         "single class mvbvs: verdict 'fail'"),
        (("condition-22", *OSC, "--expect", "growing"), "condition-22",
         "expected 'growing', got 'decaying'"),
        (("uniform-tail", *OSC, "--grid-points", "3", "--rect-cap", "256",
          "--expect", "growing"), "uniform-tail", "expected 'growing', got 'decaying'"),
        (("lemma", *OSC, "--which", "1", "--expect", "growing"), "lemma",
         "mixed_tail: expected 'growing'"),
        (("lemma", *OSC, "--which", "2", "--expect", "growing"), "lemma",
         "row_tail: expected 'growing'"),
        (("partial-sum", *OSC, "--rect", "1:300x1:300", "--x", "1.0", "--y", "1.3",
          "--tol", "0"), "partial-sum", "methods disagree by"),
        (("lemma", *OSC, "--which", "3", "--grid", "dyadic:64", "--c-const", "1e-12",
          "--sup-horizon", "256"), "lemma", "sandwich violated at (m, n)"),
        (("verify-identities", "--tol", "0"), "verify-identities", "row_sum_by_parts: "),
        (("remark2", "--schedule", "1,2", "--cross-check-tol", "0"), "remark2",
         "direct vs factored mismatch at scale 1"),
    ])
    def test_failed_verdict_is_one(self, tmp_path, capsys, argv, report, witness):
        assert run(tmp_path, *argv) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{argv[0]}: FAIL")
        assert f"  witness: {witness}" in out
        assert load_json(tmp_path, f"{report}.json")["pass"] is False

    def refused(self, tmp_path, capsys, *argv):
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        return err

    @pytest.mark.parametrize("argv, reason", [
        (("condition-22", *OSC, "--schedule", "4,x"), "bad schedule '4,x'"),
        (("check-class", *OSC, "--grid", "2x"), "bad grid pair '2x'"),
        (("check-class", "--preset", "product_power(1,2,3)"),
         "expected one or two exponents"),
        (("check-class", "--preset", "product_power(1"), "bad preset spec"),
        (("check-class",), "no sequence given"),
        (("check-class", *OSC, "--config=/nonexistent.cfg"),
         "cannot read config '/nonexistent.cfg'"),
        (("condition-22", *OSC, "--schedule", ","), "empty schedule ','"),
        (("check-class", *OSC, "--grid", "dyadic:1"), "dyadic grid limit 1 below start 2"),
        (("check-class", *OSC, "--grid", ","), "empty grid ','"),
        (("check-class", "--seq-file", "/nonexistent.txt"),
         "cannot load sequence file '/nonexistent.txt'"),
        (("partial-sum", "--expr", "1/(j*k*(j+k))", "--method", "separable", "--rect",
          "1:4x1:4", "--x", "1", "--y", "1"), "sequence 'expr' is not separable"),
        (("lemma", *OSC, "--which", "3", "--grid", "1x1"),
         "no grid points with m, n >= lambda = 2"),
        # a NaN or infinite float option is refused before any handler reads it
        (("partial-sum", *OSC, "--rect", "1:10x1:10", "--x", "nan", "--y", "0.7"),
         "--x must be finite, got nan"),
        (("partial-sum", *OSC, "--rect", "1:10x1:10", "--x", "0.5", "--y", "0.7", "--tol", "nan"),
         "--tol must be finite, got nan"),
        (("check-class", *OSC, "--grid", "dyadic:8", "--sup-horizon", "64", "--max-row-c", "nan"),
         "--max-row-c must be finite, got nan"),
        (("remark2", "--schedule", "10,100", "--cross-check-tol", "nan"),
         "--cross-check-tol must be finite, got nan"),
        (("eta", *OSC, "--epsilon", "nan", "--c-const", "4", "--cap", "64", "--grid-points", "3",
          "--rect-cap", "64"), "--epsilon must be finite, got nan"),
        (("eta", *OSC, "--epsilon", "0.2", "--c-const", "nan", "--cap", "64", "--grid-points",
          "3", "--rect-cap", "64"), "--c-const must be finite, got nan"),
        (("uniform-tail", "--preset", "mod3_log_product", "--grid-points", "3", "--rect-cap",
          "64", "--thresholds", "4,8,16", "--band", "nan", "--expect", "decaying"),
         "--band must be finite, got nan"),
        (("lemma", "--which", "1", *OSC, "--schedule", "4,8,16", "--band", "nan", "--expect",
          "decaying"), "--band must be finite, got nan"),
        (("condition-22", *OSC, "--decay-factor", "inf", "--expect", "decaying"),
         "--decay-factor must be finite, got inf"),
        (("condition-22", *OSC, "--decay-factor=-inf", "--expect", "decaying"),
         "--decay-factor must be finite, got -inf"),
        (("condition-22", *OSC, "--decay-factor", "nan", "--expect", "decaying"),
         "--decay-factor must be finite, got nan"),
    ])
    def test_bad_flag_is_two(self, tmp_path, capsys, argv, reason):
        assert reason in self.refused(tmp_path, capsys, *argv)

    def test_unfittable_class_constant_is_two(self, tmp_path, capsys):
        # 5e-324 at (4, 4) alone: its majorants underflow to 0, so every fitted
        # constant is infinite
        err = self.refused(tmp_path, capsys, "lemma", "--which", "3", "--expr",
                           "5e-324*(1-sign(abs(j-4)))*(1-sign(abs(k-4)))", "--grid",
                           "dyadic:16", "--sup-horizon", "64")
        assert err == "config error: cannot fit a class constant on this grid; pass --c-const\n"

    @pytest.mark.parametrize("single", [(), ("--single-class", "sbvs")])
    @pytest.mark.parametrize("grid", ["dyadic:abc", "dyadic:", "dyadic:2.5"])
    def test_bad_dyadic_limit_is_two(self, tmp_path, capsys, grid, single):
        err = self.refused(tmp_path, capsys, "check-class", *OSC, *single, "--grid", grid)
        assert err == f"config error: bad dyadic grid {grid!r}; expected dyadic:LIMIT\n"

    @pytest.mark.parametrize("flag, value", [
        ("--x", "1e300"), ("--x", "0"), ("--x", repr(math.pi)), ("--x", "-1"), ("--y", "1e300"),
    ])
    def test_partial_sum_abscissa_outside_zero_pi_is_two(self, tmp_path, capsys, flag, value):
        # j*x has no correct digits at x = 1e300, so the methods cannot agree
        xy = {"--x": "1.0", "--y": "1.0", flag: value}
        err = self.refused(tmp_path, capsys, "partial-sum", *OSC, "--rect", "1:10x1:10",
                           *(tok for item in xy.items() for tok in item))
        assert f"{flag} {float(value)!r} outside (0, pi)" in err

    def test_partial_sum_negative_tolerance_is_two(self, tmp_path, capsys):
        # not a failed verdict: no difference can be below a negative tolerance
        err = self.refused(tmp_path, capsys, "partial-sum", *OSC, "--rect", "1:4x1:4",
                           "--x", "0.5", "--y", "0.5", "--tol", "-1")
        assert err == "config error: --tol -1.0 is below 0\n"

    def test_partial_sum_inside_zero_pi_runs(self, tmp_path):
        assert run(tmp_path, "partial-sum", *OSC, "--rect", "1:10x1:10",
                   "--x", "1.0", "--y", "1.0") == 0
        results = load_json(tmp_path, "partial-sum.json")["results"]
        assert (results["x"], results["y"]) == (1.0, 1.0)

    @pytest.mark.parametrize("entry, reason", [
        ("[membership]\nr = two\n", "bad config value [membership] r = 'two'"),
        ("[majorants]\nfamily = four\n", "bad value 'four' for --family"),
        ("[membership]\nmax_row_c = nan\n", "--max-row-c must be finite, got nan"),
        ("[sequences]\np = inf\n", "--p must be finite, got inf"),
    ])
    def test_bad_config_value_is_two(self, tmp_path, capsys, entry, reason):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(entry)
        assert reason in self.refused(tmp_path, capsys, "check-class", *OSC, "--config", str(cfg))

    def test_single_sequence_for_a_double_command_is_two(self, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("a = 1/k^2\n")
        err = self.refused(tmp_path, capsys, "check-class", "--seq-file", str(seqs))
        assert "'a' is a single sequence; this command needs a double sequence" in err

    def test_empty_sequence_file_is_two(self, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("# nothing here\n\n")
        err = self.refused(tmp_path, capsys, "check-class", "--seq-file", str(seqs))
        assert "defines nothing" in err

    def test_unknown_sequence_name_is_two(self, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("a = 1/(j^2*k^2)\n")
        err = self.refused(tmp_path, capsys, "check-class", "--seq-file", str(seqs),
                           "--seq-name", "b")
        assert "no sequence 'b' in file; available: ['a']" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # NaN, inf and complex casts
    @pytest.mark.parametrize("command", sorted(FUZZED_FLAGS))
    @settings(derandomize=True, database=None, max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(data=st.data())
    def test_fuzzed_input_is_never_an_internal_error(self, tmp_path, capsys, command, data):
        """A hostile command line exits 0, 1 or 2, never 3, and a rerun prints
        and writes the same bytes; 15 derandomized examples per command."""
        argv = data.draw(_fuzzed_argv(command))
        out = tmp_path / "fuzz"

        def attempt():
            status = main([*argv, "--out-dir", str(out)])
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            shutil.rmtree(out, ignore_errors=True)
            return status, capsys.readouterr(), files

        first = attempt()
        assert first[0] in (0, 1, 2), first[1].err
        assert attempt() == first
