"""Command line front end: library results shaped into JSON/CSV reports.

Every subcommand resolves its options from three layers with strict
precedence: explicit command line flags, then an INI config file, then
built-in defaults.  Argparse finds ``--config`` in every spelling it
accepts (``--config=P``, or a prefix such as ``--conf P``), and the
file's values become the command's defaults.  The fully resolved option
set is recorded in the JSON report so a run can be reproduced from its
own output.  Options are declared once, in ``_OPTIONS``, under the
config section that holds their key; ``--help`` lists them by section.

Exit status: 0 when all asserted verdicts pass, 1 on a numerical
verdict failure (the witness is printed), 2 on bad input.  Bad input is
either a flag or config value the front end rejects itself, such as a
NaN or infinite float (one ``config error: ...`` line on stderr), or a
library refusal such as a scan horizon below its start, a size guard, a
singular abscissa, a float overflow in a sum, or a rectangle sum, fit
row, lemma, probe, eta or condition (22) value that is not finite (one
``error: ...`` line); neither writes a report.  An output directory or
report file that cannot be written, or a run out of memory, also exits
2 with one ``error: ...`` line.  Any other exception is an internal
error: status 3, with its traceback.  Warnings (numpy's ``RuntimeWarning``
on an expression that overflows, say) are held until the status is
known: a run with status 2 prints none of them, any other run all.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import math
import sys
import traceback
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

from .convergence import (
    EtaCapError,
    ProbeConfig,
    Verdict,
    eta_search,
    interior_grid,
    lemma3_check,
    lemma_schedule,
    remark2_cross_checks,
    remark2_divergence,
    theorem7_bound_check,
    uniform_tail_trace,
)
from .differences import _doublings
from .kernels import Rect, rect_sum_direct, rect_sum_parts, rect_sum_separable, verify_identities
from .majorants import Axis, DoubleScanTable, Family, MajorantFamily
from .membership import (
    SingleClass,
    cap_verdict,
    check_condition_22,
    check_membership,
    check_single_membership,
    class_constant,
)
from .reports import SCHEMA_VERSION, write_csv, write_json
from .sequences import (
    BUILTIN_NAMES,
    CoefficientSequence,
    ExpressionError,
    SingleSequence,
    builtin,
    from_expression,
    parse_sequence_file,
    single_from_expression,
)

__all__ = ["main"]


class ConfigError(ValueError):
    """A flag or config value the front end rejects itself; exit status 2."""


_EXPECT_CHOICES = ("decaying", "flat", "growing", "inconclusive", "not-decaying")

# Every option, declared once under the config-file section that holds its
# key.  The flag is --<dest> with dashes unless an entry names it.
_OPTIONS: dict[str, dict[str, dict]] = {
    "cli": {
        "config": dict(help="INI config file; flags override it"),
        "out_dir": dict(default=".", help="directory for report files"),
        "json_name": dict(flag="--json", help="JSON report filename (default <command>.json)"),
        "csv_name": dict(flag="--csv", help="CSV detail filename (default <command>.csv)"),
        "seed": dict(type=int, default=0, help="seed for randomized checks"),
        "threads": dict(type=int, default=1,
                        help="echoed into the report; no command reads it"),
    },
    "sequences": {
        "preset": dict(help="builtin sequence, e.g. oscillating_quadratic or "
                            "product_power(2,2)"),
        "p": dict(type=float, help="first exponent for product_power"),
        "q": dict(type=float, help="second exponent for product_power"),
        "expr": dict(help="coefficient expression in j, k (or k/n for "
                          "single-sequence checks)"),
        "seq_file": dict(help="sequence definition file (name = expr)"),
        "seq_name": dict(help="name to pick from --seq-file"),
    },
    "majorants": {
        "family": dict(choices=[f.value for f in Family], default="three",
                       help="majorant family"),
        "lam": dict(type=int, default=2, help="window/block dilation"),
        "b1": dict(default="l", help="row block-start map (expression in l)"),
        "b2": dict(default="l", help="column block-start map"),
        "b3": dict(default="l", help="double block-start map"),
        "b": dict(default="l", help="block-start map for SBVS2"),
        "sup_horizon": dict(type=int, default=4096,
                            help="horizon of the sup scans (default %(default)s)"),
    },
    "membership": {
        "r": dict(type=int, default=2, help="difference step"),
        "grid": dict(default="dyadic:64",
                     help="dyadic:LIMIT, comma values, or MxN pairs"),
        "max_row_c": dict(type=float, help="assert fitted row C <= this"),
        "max_col_c": dict(type=float, help="assert fitted column C <= this"),
        "max_double_c": dict(type=float, help="assert fitted double C <= this"),
        "single_class": dict(choices=[k.value for k in SingleClass],
                             help="check a single-sequence class instead"),
        "gm_beta": dict(default="star", help="GM majorant: 'star' or an expression in n"),
        "horizon": dict(type=int, default=4096, help="sup scan horizon for single classes"),
        "max_c": dict(type=float, help="assert fitted single C <= this"),
        "s_max": dict(type=int, default=4096, help="largest scale"),
        "decay_factor": dict(type=float, default=100.0,
                             help="decaying needs last value < first / this"),
    },
    "kernels_summation": {
        "rect": dict(help="m:Mxn:N, e.g. 1:10x1:10 (required; may come from the "
                          "config file)"),
        "x": dict(type=float, help="abscissa in (0, pi) (required)"),
        "y": dict(type=float, help="ordinate in (0, pi) (required)"),
        "method": dict(choices=["direct", "parts", "separable", "all"], default="all",
                       help="partial-sum method"),
        "tol": dict(type=float, default=1e-9, help="relative tolerance"),
        "cases_1d": dict(type=int, default=1000, help="random row-sum cases"),
        "cases_2d": dict(type=int, default=200, help="random rectangle-sum cases"),
        "table_size": dict(type=int, default=30, help="side of the random tables"),
        "delta_grid": dict(type=int, default=200, help="side of the difference check"),
        "kernel_points": dict(type=int, default=10000,
                              help="abscissae per half of (0, pi)"),
        "k_max": dict(type=int, default=512, help="largest kernel index"),
    },
    "convergence": {
        "schedule": dict(help="comma list of scales (default %(default)s; None: "
                               "dyadic up to --s-max)"),
        "expect": dict(choices=_EXPECT_CHOICES, help="assert this verdict"),
        "grid_points": dict(type=int, default=21, help="interior (x, y) points per axis"),
        "thresholds": dict(default="8,16,32,64,128", help="comma list of thresholds"),
        "rect_cap": dict(type=int, default=4096, help="largest rectangle corner"),
        "doublings": dict(type=int, default=4, help="corner doublings per rectangle start"),
        "min_start": dict(type=int, default=1, help="smallest rectangle start"),
        "band": dict(type=float, default=0.05,
                     help="largest relative rise per step of a decaying series"),
        "decay_ratio": dict(type=float, default=4.0,
                            help="decaying needs last value <= first / this"),
        "which": dict(type=int, choices=[1, 2, 3],
                      help="quantity family to evaluate (required; may come from "
                           "the config file)"),
        "c_const": dict(type=float, help="class constant C (lemma 3: fitted when "
                                         "omitted; eta: required)"),
        "epsilon": dict(type=float, help="smallness level (required)"),
        "cap": dict(type=int, default=1 << 14, help="largest eta searched"),
        "verify_range": dict(type=int, help="check pairs up to this (default 2 cap)"),
        "sum_horizon": dict(type=int, default=1 << 16, help="horizon of the tail sums"),
        "cross_check_max": dict(type=int, default=100,
                                help="cross-check factored vs direct sums up to "
                                     "this scale"),
        "cross_check_tol": dict(type=float, default=1e-10,
                                help="cross-check relative tolerance"),
    },
}
_SECTION = {dest: section for section, opts in _OPTIONS.items() for dest in opts}
# A config key may also spell an option as its flag does: json for json_name.
_FLAG_DEST = {spec["flag"].lstrip("-").replace("-", "_"): dest
              for opts in _OPTIONS.values() for dest, spec in opts.items() if "flag" in spec}


# --- option parsing helpers --------------------------------------------------

def _parse_int_list(spec: str, what: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {what} {spec!r}: {exc}") from None
    if not vals:
        raise ConfigError(f"empty {what} {spec!r}")
    return vals


def _parse_grid_values(spec: str) -> tuple[int, ...]:
    """Grid of scales: ``dyadic:LIMIT`` (2, 4, ..., LIMIT) or a comma list of integers."""
    if spec.startswith("dyadic:"):
        try:
            limit = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad dyadic grid {spec!r}; expected dyadic:LIMIT") from None
        if limit < 2:
            raise ConfigError(f"dyadic grid limit {limit} below start 2")
        return tuple(_doublings(2, limit))
    return _parse_int_list(spec, "grid")


def _parse_grid_pairs(spec: str) -> tuple[tuple[int, int], ...]:
    """Grid of (m, n) pairs.

    ``dyadic:LIMIT`` takes all pairs of powers of two up to LIMIT; a
    comma list of integers takes all cross pairs; ``MxN`` entries list
    explicit pairs (e.g. ``2x2,4x8``).
    """
    if "x" in spec:
        pairs = []
        for tok in spec.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                m_s, n_s = tok.split("x")
                pairs.append((int(m_s), int(n_s)))
            except ValueError:
                raise ConfigError(f"bad grid pair {tok!r}; expected MxN") from None
        return tuple(pairs)
    vals = _parse_grid_values(spec)
    return tuple((m, n) for m in vals for n in vals)


def _parse_rect(spec: str) -> Rect:
    """Rectangle spec ``m:Mxn:N``, e.g. ``1:10x1:10``."""
    try:
        j_part, k_part = spec.split("x")
        m_s, M_s = j_part.split(":")
        n_s, N_s = k_part.split(":")
        return Rect(int(m_s), int(M_s), int(n_s), int(N_s))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad rect {spec!r}; expected m:Mxn:N: {exc}") from None


def _parse_preset(args) -> CoefficientSequence:
    name = args.preset
    p = args.p if args.p is not None else 1.0
    q = args.q if args.q is not None else 1.0
    if "(" in name:
        if not name.endswith(")"):
            raise ConfigError(f"bad preset spec {name!r}")
        base, arg_s = name[:-1].split("(", 1)
        parts = [tok.strip() for tok in arg_s.split(",") if tok.strip()]
        try:
            if len(parts) == 1:
                p = q = float(parts[0])
            elif len(parts) == 2:
                p, q = float(parts[0]), float(parts[1])
            else:
                raise ValueError("expected one or two exponents")
        except ValueError as exc:
            raise ConfigError(f"bad preset arguments in {name!r}: {exc}") from None
        name = base.strip()
    if name not in BUILTIN_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return builtin(name, p=p, q=q)


def _resolve_sequence(args, single: bool = False):
    """The one sequence given by --expr, --seq-file or --preset.

    With ``single`` the result is a single sequence; presets, all
    separable, then contribute their first factor.
    """
    chosen = [k for k in ("expr", "seq_file", "preset") if getattr(args, k, None)]
    if len(chosen) > 1:
        raise ConfigError(f"choose one sequence source, got {', '.join(chosen)}")
    if args.expr:
        return (single_from_expression if single else from_expression)("expr", args.expr)
    if args.seq_file:
        seq = _load_sequence_file(args)[args.seq_name]
        if not isinstance(seq, SingleSequence if single else CoefficientSequence):
            kind, need = (("double", "single-class checks need a single sequence")
                          if single else ("single", "this command needs a double sequence"))
            raise ConfigError(f"{args.seq_name!r} is a {kind} sequence; {need}")
        return seq
    if args.preset:
        c = _parse_preset(args)
        return c.separable_parts[0] if single else c
    raise ConfigError("no sequence given; use --preset, --expr, or --seq-file")


def _load_sequence_file(args) -> dict:
    try:
        table = parse_sequence_file(args.seq_file)
    except (OSError, ExpressionError) as exc:
        raise ConfigError(f"cannot load sequence file {args.seq_file!r}: {exc}") from None
    if not table:
        raise ConfigError(f"sequence file {args.seq_file!r} defines nothing")
    if args.seq_name is None:
        if len(table) == 1:
            args.seq_name = next(iter(table))
        else:
            raise ConfigError(
                f"sequence file defines {sorted(table)}; pick one with --seq-name")
    if args.seq_name not in table:
        raise ConfigError(
            f"no sequence {args.seq_name!r} in file; available: {sorted(table)}")
    return table


def _unexpected(verdict: Verdict, expect: str | None) -> bool:
    """Whether ``--expect``, when given, rejects ``verdict``."""
    if expect == "not-decaying":
        return verdict is Verdict.DECAYING
    return expect is not None and verdict.value != expect


# --- subcommand handlers ------------------------------------------------------
# Each shapes what the library returns, computing nothing, into (results dict,
# csv header+rows or None, witness lines); the run passes when there is no witness.

def _run_check_class(args):
    if args.single_class is not None:
        return _run_check_class_single(args)
    c = _resolve_sequence(args)
    fam = MajorantFamily(Family(args.family), Axis.ROW, lam=args.lam,
                         b1=args.b1, b2=args.b2, b3=args.b3,
                         sup_horizon=args.sup_horizon)
    grid = _parse_grid_pairs(args.grid)
    report = check_membership(c, args.r, fam, grid)
    witness = []
    for label, fitted, cap in (("row", report.fitted_C_row, args.max_row_c),
                               ("column", report.fitted_C_col, args.max_col_c),
                               ("double", report.fitted_C_double, args.max_double_c)):
        if cap is None:
            continue
        if fitted is None:
            witness.append(f"{label} axis: no admissible grid points, cannot assert C <= {cap}")
            continue
        axis_rows = [row for row in report.rows if row.axis == label]
        verdict, first = cap_verdict(axis_rows, cap)  # first None: every row over is truncated
        if verdict == "pass":
            continue
        note = ("; worst scan truncated, raise --sup-horizon to decide" if first is None else
                f"; first certified row over the cap ({first.m}, {first.n}) at ratio "
                f"{first.ratio!r}")
        witness.append(f"{label} axis: fitted C = {fitted!r} exceeds {cap!r} at "
                       f"{report.worst_witness[label]}{note}")
    results = {
        "sequence": c.name,
        "r": report.r,
        "family": args.family,
        "lam": args.lam,
        "fitted_C_row": report.fitted_C_row,
        "fitted_C_col": report.fitted_C_col,
        "fitted_C_double": report.fitted_C_double,
        "growth_fit": report.growth_fit,
        "worst_witness": report.worst_witness,
        "truncated": report.truncation_flags,
        "grid_size": len(report.grid),
    }
    header = ["m", "n", "axis", "lhs", "rhs", "ratio", "truncated"]
    return results, (header, report.rows), witness


def _run_check_class_single(args):
    a = _resolve_sequence(args, single=True)
    klass = SingleClass(args.single_class)
    grid = _parse_grid_values(args.grid)
    beta = args.gm_beta if klass is SingleClass.GM else None
    report = check_single_membership(a, klass, grid, lam=args.lam, r=args.r,
                                     horizon=args.horizon, b=args.b, beta=beta)
    verdict = None if args.max_c is None else cap_verdict(report.rows, args.max_c)[0]
    witness = []
    if verdict not in (None, "pass"):
        witness.append(f"single class {klass.value}: verdict {verdict!r} "
                       f"against C <= {args.max_c!r}; worst {report.worst_witness}")
    results = {
        "sequence": a.name,
        "single_class": klass,
        "r": report.r,
        "lam": args.lam,
        "fitted_C": report.fitted_C,
        "worst_witness": report.worst_witness,
        "truncated": report.truncation_flags,
        "verdict": verdict,
        "grid_size": len(report.grid),
    }
    header = ["n", "lhs", "rhs", "ratio", "truncated"]
    rows = [[row.m, row.lhs, row.rhs, row.ratio, row.truncated] for row in report.rows]
    return results, (header, rows), witness


def _run_condition_22(args):
    c = _resolve_sequence(args)
    schedule = (_parse_int_list(args.schedule, "schedule")
                if args.schedule is not None else None)
    report = check_condition_22(c, S=args.s_max, schedule=schedule,
                                decay_factor=args.decay_factor)
    witness = []
    if _unexpected(report.verdict, args.expect):
        witness.append(f"expected {args.expect!r}, got {report.verdict.value!r}; "
                       f"values {list(report.values)}")
    results = {
        "sequence": c.name,
        "schedule": report.schedule,
        "values": report.values,
        "verdict": report.verdict,
        "fit": report.fit,
        "expect": args.expect,
    }
    header = ["scale", "value", "bounded_flag"]
    rows = [[s, v, b] for s, v, b in zip(report.schedule, report.values, report.bounded)]
    return results, (header, rows), witness


def _require(args, *dests: str) -> None:
    """Reject flags that neither the command line nor the config supplied."""
    missing = [d for d in dests if getattr(args, d) is None]
    if missing:
        flags = ", ".join("--" + d.replace("_", "-") for d in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def _run_partial_sum(args):
    _require(args, "rect", "x", "y")
    for flag, v in (("--x", args.x), ("--y", args.y)):
        if not 0.0 < v < math.pi:
            raise ConfigError(f"{flag} {v!r} outside (0, pi)")
    c = _resolve_sequence(args)
    rect = _parse_rect(args.rect)
    methods = [args.method] if args.method != "all" else ["direct", "parts", "separable"]
    if "separable" in methods and c.separable_parts is None:
        if args.method == "separable":
            raise ConfigError(f"sequence {c.name!r} is not separable")
        methods.remove("separable")
    values = {}
    for method in methods:
        if method == "direct":
            v = rect_sum_direct(c, rect, args.x, args.y)
        elif method == "parts":
            v = rect_sum_parts(c, rect, args.x, args.y, r=args.r)
        else:
            v = rect_sum_separable(c, rect, args.x, args.y)
        values[method] = complex(v) if isinstance(v, complex) else float(v)
        if not cmath.isfinite(values[method]):
            raise ValueError(f"{method} rectangle sum is {values[method]!r}, not finite")
    ref = values.get("direct", next(iter(values.values())))
    max_diff = max((abs(v - ref) for v in values.values()), default=0.0)
    limit = args.tol * (1.0 + abs(ref))
    witness = []
    if max_diff > limit:
        witness.append(f"methods disagree by {max_diff!r} > {limit!r} on "
                       f"rect {args.rect} at (x, y) = ({args.x!r}, {args.y!r}): {values}")
    results = {
        "sequence": c.name,
        "rect": rect,
        "x": args.x,
        "y": args.y,
        "r": args.r,
        "values": values,
        "max_abs_diff": max_diff,
        "tolerance": args.tol,
    }
    header = ["method", "value"]
    rows = [[method, values[method]] for method in methods]
    return results, (header, rows), witness


def _probe_from_args(args) -> ProbeConfig:
    return ProbeConfig(
        xy_grid=interior_grid(args.grid_points),
        thresholds=_parse_int_list(args.thresholds, "thresholds"),
        rect_cap=args.rect_cap,
        min_start=args.min_start,
        doublings=args.doublings,
        band=args.band,
        decay_ratio=args.decay_ratio,
    )


def _run_uniform_tail(args):
    c = _resolve_sequence(args)
    probe = _probe_from_args(args)
    report, trace = uniform_tail_trace(c, probe)
    witness = []
    if _unexpected(report.verdict, args.expect):
        worst = max(trace, key=lambda row: row.abs_sum)
        witness.append(f"expected {args.expect!r}, got {report.verdict.value!r}; "
                       f"worst |rect sum| {worst.abs_sum!r} at rect "
                       f"[{worst.m}:{worst.M}]x[{worst.n}:{worst.N}], "
                       f"(x, y) = ({worst.x!r}, {worst.y!r})")
    results = {
        "sequence": c.name,
        "thresholds": report.schedule,
        "values": report.values,
        "verdict": report.verdict,
        "fit": report.fit,
        "expect": args.expect,
        "grid_points": args.grid_points,
        "rect_cap": args.rect_cap,
    }
    header = ["m0", "x", "y", "m", "M", "n", "N", "abs_sum"]
    return results, (header, trace), witness


def _run_lemma(args):
    _require(args, "which")
    c = _resolve_sequence(args)
    if args.which in (1, 2):
        return _run_lemma_decay(args, c)
    return _run_lemma3(args, c)


def _run_lemma_decay(args, c):
    schedule = _parse_int_list(args.schedule, "schedule")
    series = lemma_schedule(c, args.which, schedule, sup_horizon=args.sup_horizon,
                            sum_horizon=args.sum_horizon, band=args.band,
                            decay_ratio=args.decay_ratio)
    upper = {name: [q.upper for q in qs] for name, (qs, _) in series.items()}
    witness = [f"{name}: expected {args.expect!r}, got {verdict.value!r}; values {upper[name]}"
               for name, (_, verdict) in series.items() if _unexpected(verdict, args.expect)]
    results = {
        "sequence": c.name,
        "which": args.which,
        "schedule": schedule,
        "series": upper,
        "bounded": {name: [q.bounded for q in qs] for name, (qs, _) in series.items()},
        "verdicts": {name: verdict for name, (_, verdict) in series.items()},
        "expect": args.expect,
    }
    header = ["scale", "value", "bounded_flag"]
    rows = [[s, q.upper, q.bounded] for name in sorted(series)
            for s, q in zip(schedule, series[name][0])]
    return results, (header, rows), witness


def _run_lemma3(args, c):
    grid = [(m, n) for m, n in _parse_grid_pairs(args.grid)
            if m >= args.lam and n >= args.lam]
    if not grid:
        raise ConfigError(f"no grid points with m, n >= lambda = {args.lam}")
    table = DoubleScanTable(c, args.sup_horizon)  # the command's one table, fit and points
    C = args.c_const
    if C is None:
        C = class_constant(c, grid, lam=args.lam, b1=args.b1, b2=args.b2, b3=args.b3,
                           sup_horizon=args.sup_horizon, table=table)
        if C is None:
            raise ConfigError("cannot fit a class constant on this grid; pass --c-const")
    checks = [lemma3_check(c, C, args.lam, m, n, b1=args.b1, b2=args.b2, b3=args.b3,
                           sup_horizon=args.sup_horizon, table=table) for m, n in grid]
    worst = min(checks, key=lambda res: res.slack)   # the first smallest
    witness = [f"sandwich violated at (m, n) = ({res.m}, {res.n}): lhs {res.lhs!r} > rhs "
               f"{res.rhs!r}" for res in checks if res.slack < 0.0]
    header = ["m", "n", "lhs", "rhs", "slack", "truncated"]
    rows = [[getattr(res, key) for key in header] for res in checks]
    results = {
        "sequence": c.name,
        "which": 3,
        "C": C,
        "lam": args.lam,
        "min_slack": worst.slack,
        # no point when every slack is +inf (a right-hand side that overflows)
        "min_slack_at": (worst.m, worst.n) if worst.slack < math.inf else None,
        "points": [dict(zip(header, row)) for row in rows],
    }
    return results, (header, rows), witness


def _run_eta(args):
    _require(args, "epsilon", "c_const")
    c = _resolve_sequence(args)
    probe = _probe_from_args(args)
    try:
        found = eta_search(c, epsilon=args.epsilon, C=args.c_const, lam=args.lam,
                           cap=args.cap, verify_range=args.verify_range,
                           sup_horizon=args.sup_horizon, sum_horizon=args.sum_horizon)
    except EtaCapError as exc:
        results = {
            "sequence": c.name,
            "epsilon": args.epsilon,
            "C": args.c_const,
            "eta": None,
            "error": str(exc),
        }
        return results, None, [str(exc)]
    t7 = theorem7_bound_check(c, args.epsilon, found.eta, args.c_const, probe)
    witness = []
    if t7.slack >= 0.0:
        witness.append(f"uniform envelope violated: worst |rect sum| {t7.worst_abs!r} "
                       f">= bound {t7.bound!r} at rect {t7.witness_rect} and "
                       f"(x, y) = {t7.witness_xy}")
    results = {
        "sequence": c.name,
        "epsilon": args.epsilon,
        "C": args.c_const,
        "eta": found.eta,
        "cap": found.cap,
        "verify_range": found.verify_range,
        "tested_points": found.tested_points,
        "conditions": found.conditions,
        "envelope_bound": t7.bound,
        "worst_abs": t7.worst_abs,
        "slack": t7.slack,
        "witness_rect": t7.witness_rect,
        "witness_xy": t7.witness_xy,
        "n_rects": t7.n_rects,
    }
    header = ["condition", "worst", "bound", "margin", "certified"]
    rows = [[cond.name, cond.worst, cond.bound, cond.margin, cond.certified]
            for cond in found.conditions]
    return results, (header, rows), witness


def _run_remark2(args):
    schedule = _parse_int_list(args.schedule, "schedule")
    report = remark2_divergence(schedule=schedule)
    witness = []
    if report.verdict is not Verdict.GROWING:
        witness.append(f"divergence run verdict {report.verdict.value!r}; values "
                       f"{list(report.values)} vs lower bounds "
                       f"{list(report.reference_values or ())}")
    name, x0, cross_checks, mismatches = remark2_cross_checks(
        report, args.cross_check_max, args.cross_check_tol)
    witness += [f"direct vs factored mismatch at scale {check['scale']}: {check['direct']!r} "
                f"vs {check['product']!r} (diff {check['abs_diff']!r})" for check in mismatches]
    results = {
        "sequence": name,
        "x": x0,
        "y": x0,
        "schedule": report.schedule,
        "values": report.values,
        "lower_bounds": report.reference_values or (),
        "verdict": report.verdict,
        "cross_checks": cross_checks,
    }
    header = ["scale", "value", "bounded_flag"]
    rows = list(zip(report.schedule, report.values, report.bounded))
    return results, (header, rows), witness


def _run_verify_identities(args):
    checks = verify_identities(args.seed, cases_1d=args.cases_1d, cases_2d=args.cases_2d,
                               table_size=args.table_size, delta_grid=args.delta_grid,
                               kernel_points=args.kernel_points, k_max=args.k_max,
                               tol=args.tol)
    results = {"seed": args.seed,
               "checks": {name: entry for name, (entry, _, _) in checks.items()}}
    witness = [f"{name}: {entry['failures']} failure(s); detail {entry}"
               for name, entry in results["checks"].items() if entry["failures"]]
    rows = [[name, cases, entry["failures"], worst]
            for name, (entry, cases, worst) in checks.items()]
    return results, (["check", "cases", "failures", "worst"], rows), witness


class _Command(NamedTuple):
    """A subcommand: handler, help line, options taken, defaults over the registry's."""

    run: Callable
    help: str
    options: tuple[str, ...]
    defaults: dict = {}


_COMMON = ("config", "out_dir", "json_name", "csv_name", "seed", "threads")
_SEQUENCE = ("preset", "p", "q", "expr", "seq_file", "seq_name")
_BLOCKS = ("lam", "b1", "b2", "b3", "sup_horizon")
_PROBE = ("grid_points", "thresholds", "rect_cap", "doublings", "min_start", "band",
          "decay_ratio")

_COMMANDS = {
    "check-class": _Command(
        _run_check_class, "fit class-membership constants",
        _COMMON + _SEQUENCE + ("r", "family", *_BLOCKS, "grid", "max_row_c", "max_col_c",
                               "max_double_c", "single_class", "gm_beta", "b", "horizon",
                               "max_c")),
    "condition-22": _Command(
        _run_condition_22, "weighted anti-diagonal decay probe",
        _COMMON + _SEQUENCE + ("s_max", "schedule", "decay_factor", "expect")),
    "partial-sum": _Command(
        _run_partial_sum, "one rectangle partial sum, several ways",
        _COMMON + _SEQUENCE + ("rect", "x", "y", "r", "method", "tol")),
    "uniform-tail": _Command(
        _run_uniform_tail, "sup of |rect sums| beyond thresholds",
        _COMMON + _SEQUENCE + _PROBE + ("expect",)),
    "lemma": _Command(
        _run_lemma, "tail-quantity schedules and the sandwich check",
        _COMMON + _SEQUENCE + ("which", "schedule", "grid", "band", "decay_ratio", "expect",
                               "c_const", *_BLOCKS, "sum_horizon"),
        dict(schedule="4,8,16,32,64", sup_horizon=1 << 14)),
    "eta": _Command(
        _run_eta, "threshold search plus the envelope check",
        _COMMON + _SEQUENCE + ("epsilon", "c_const", "lam", "cap", "verify_range",
                               "sup_horizon", "sum_horizon", *_PROBE),
        dict(sup_horizon=1 << 14)),
    "remark2": _Command(
        _run_remark2, "divergence schedule for the residue preset",
        _COMMON + ("schedule", "cross_check_max", "cross_check_tol"),
        dict(schedule="10,100,1000,10000")),
    "verify-identities": _Command(
        _run_verify_identities, "randomized exact-identity checks",
        _COMMON + ("cases_1d", "cases_2d", "table_size", "delta_grid", "kernel_points",
                   "k_max", "tol")),
}


# --- parser construction and config file plumbing -----------------------------

def build_parser(command: str | None = None,
                 config: dict | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names
    one; ``config`` values replace that command's defaults."""
    parser = argparse.ArgumentParser(
        prog="doublesine",
        description="Numerical checks for double sine series with "
                    "generalized-monotone coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=cmd.help,
                           description=f"{cmd.help}; options are listed under "
                                       "the config-file section that holds their key")
        defaults = {**cmd.defaults, **(config or {})}
        for section, options in _OPTIONS.items():
            dests = [d for d in cmd.options if d in options]
            if not dests:
                continue
            group = p.add_argument_group(f"[{section}]")
            for dest in dests:
                spec = dict(options[dest])
                flag = spec.pop("flag", "--" + dest.replace("_", "-"))
                if dest in defaults:
                    spec["default"] = defaults[dest]
                group.add_argument(flag, dest=dest, **spec)
    return parser


def _coerce(dest: str, raw: str):
    spec = _OPTIONS[_SECTION[dest]][dest]
    value = spec.get("type", str)(raw)
    if "choices" in spec and value not in spec["choices"]:
        raise ConfigError(f"bad value {value!r} for --{dest.replace('_', '-')}; "
                          f"choices: {sorted(spec['choices'])}")
    return value


def _check_finite(args) -> None:
    """Refuse a NaN or infinite float option, set by a flag or a config file."""
    for dest in _COMMANDS[args.command].options:
        value = getattr(args, dest)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{dest.replace('_', '-')} must be finite, got {value}")


def _read_config(command: str, path: str) -> dict:
    # "" cannot name a section, so [DEFAULT] is read as an ordinary one
    cfg = configparser.ConfigParser(default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    options = set(_COMMANDS[command].options) - {"config"}
    values = {}
    for section in cfg.sections():
        for key, raw in cfg.items(section):
            dest = key.replace("-", "_")
            dest = _FLAG_DEST.get(dest, dest)
            if dest not in options or _SECTION[dest] != section:
                raise ConfigError(
                    f"config key [{section}] {key} does not match any "
                    f"{command} option")
            try:
                values[dest] = _coerce(dest, raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad config value [{section}] {key} = {raw!r}: "
                                  f"{exc}") from None
    return values


def _resolved_config(command: str, args) -> dict:
    resolved: dict[str, dict] = {}
    for dest in _COMMANDS[command].options:
        resolved.setdefault(_SECTION[dest], {})[dest] = getattr(args, dest)
    return resolved


def main(argv=None) -> int:
    # warnings wait for the exit status: a refused run (status 2) prints its one
    # error line and nothing else; the filters decide, as ever, what is shown
    with warnings.catch_warnings(record=True) as held:
        try:
            status = _main(argv)
        except MemoryError as exc:
            # a resource limit, like a size guard, is no verdict on the input
            print(f"error: out of memory: {exc}", file=sys.stderr)
            status = 2
        except Exception:
            status, crash = 3, traceback.format_exc()
    if status != 2:
        for w in held:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    if status == 3:
        sys.stderr.write(crash)
    return status


def _main(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the top-level parser takes no option but --help, so the first word is the command
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    try:
        # argparse exits 2 on bad usage, matching the config-error status
        args = build_parser(command).parse_args(argv)
        if args.config is not None:
            config = _read_config(args.command, args.config)
            args = build_parser(args.command, config).parse_args(argv)
        _check_finite(args)
        results, csv_payload, witness = _COMMANDS[args.command].run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        # a library refusal (horizon, size guard, empty lattice) or a float
        # overflow of the input's sums is bad input, never a failed verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passed = not witness
    out_dir = Path(args.out_dir)
    json_path = out_dir / (args.json_name or f"{args.command}.json")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": _resolved_config(args.command, args),
        "results": results,
        "pass": passed,
    }
    written = [str(json_path)]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(json_path, payload)
        if csv_payload is not None:
            csv_path = out_dir / (args.csv_name or f"{args.command}.csv")
            write_csv(csv_path, *csv_payload)
            written.append(str(csv_path))
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2

    status = "PASS" if passed else "FAIL"
    print(f"{args.command}: {status} ({', '.join(written)})")
    for line in witness:
        print(f"  witness: {line}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
