"""Workload definitions: the fixed job lists, built from a seed, and the checks on their outputs.

A workload is a list of jobs.  A job is one call into the library; its
``run`` is timed, its ``summarize`` turns the library's result into a
small JSON-ready digest outside the timed region, and its ``check``
returns the seed-independent verdicts that failed.  Cross checks compare
the digests of two jobs of the same pass (the expression twin against
the separable preset, summation by parts against the direct sum).  For
the seed the reference file was frozen with, and for jobs that do not
depend on the seed, digests are also compared with the frozen values.

The library is reached only through the ``doublesine`` package namespace
at call time, so the tracer's wrappers see every call.  Inputs that the
library receives come from ``build``; the seed only shapes those inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import doublesine as ds

WORKLOADS = ("separable-fit", "generic-probe", "cli-suite")

# Relative tolerance of the expression twin against the separable preset.
# Observed agreement on the seed commit is 4e-14 or better; summation
# order differs between the dense and the factored paths.
TWIN_RTOL = 1e-10
# Summation by parts against the direct sum (the CLI's partial-sum default).
PARTS_RTOL = 1e-9
# Frozen reference values; wide enough for reordered sums, far below any
# change in a verdict or a fitted constant.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-13

# Class-constant caps asserted by scripts/configs/membership-*.cfg.
OSC_R2_CAPS = (4.0, 4.0, 16.0)
MOD3_R3_CAPS = (6.0, 6.0, 36.0)

TWIN_EXPR = "(2+alternating(j))/j^2*(2+alternating(k))/k^2"
NONSEP_EXPR = "1/(j*k*(j+k))"

# The shipped experiment configs, in scripts/run_all.py order.
CLI_MANIFEST: tuple[tuple[str, str], ...] = (
    ("check-class", "membership-osc-r2"),
    ("check-class", "membership-osc-r1"),
    ("check-class", "membership-mod3-r3"),
    ("condition-22", "condition22-osc"),
    ("condition-22", "condition22-pp11"),
    ("partial-sum", "partial-sum-osc"),
    ("uniform-tail", "uniform-tail-osc"),
    ("uniform-tail", "uniform-tail-mod3"),
    ("lemma", "lemma1-osc"),
    ("lemma", "lemma2-osc"),
    ("lemma", "lemma3-osc"),
    ("eta", "eta-osc-eps02"),
    ("eta", "eta-osc-eps005"),
    ("remark2", "remark2"),
    ("verify-identities", "verify-identities"),
)
CLI_TINY = ("condition22-osc", "partial-sum-osc", "uniform-tail-mod3")


def _no_check(digest: dict) -> list[str]:
    return []


@dataclass(frozen=True)
class Job:
    """One library call.  ``run(seqs)`` is timed; the rest is not."""

    name: str
    run: Callable[[dict], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], list[str]] = _no_check
    seeded: bool = False


@dataclass(frozen=True)
class CrossCheck:
    """``job``'s digest must match ``oracle``'s on ``keys`` within ``rtol``."""

    job: str
    oracle: str
    keys: tuple[str, ...]
    rtol: float


@dataclass
class Workload:
    name: str
    seed: int
    sequences: dict
    jobs: list[Job]
    cross_checks: list[CrossCheck] = field(default_factory=list)


@dataclass
class PassResult:
    wall_s: float
    job_s: list[float]
    digests: dict[str, dict]
    failures: dict[str, list[str]]
    chunk_s: list[float] = field(default_factory=list)


# --- comparison helpers ------------------------------------------------------

def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def mismatches(got, want, rtol: float, atol: float, path: str = "") -> list[str]:
    """Differences between two digests: numbers within tolerance, the rest exact."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want else [f"{path or '.'}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path or '.'}: {got!r} is not a number like {want!r}"]
        ok = close(float(got), float(want), rtol, atol)
        return [] if ok else [f"{path or '.'}: {got!r} vs {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or '.'}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        out = []
        for key in sorted(want):
            out += mismatches(got[key], want[key], rtol, atol, f"{path}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path or '.'}: {got!r} != {want!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += mismatches(g, w, rtol, atol, f"{path}[{i}]")
        return out
    raise TypeError(f"unsupported digest value {want!r} at {path}")


def _num(x) -> float | str:
    """JSON-safe float: non-finite values become their repr."""
    x = float(x)
    return x if math.isfinite(x) else repr(x)


# --- separable-fit -------------------------------------------------------------

def dyadic_pairs(limit: int) -> list[tuple[int, int]]:
    vals, v = [], 2
    while v <= limit:
        vals.append(v)
        v *= 2
    return [(m, n) for m in vals for n in vals]


def _banded_pairs(rng: random.Random, exponents) -> list[tuple[int, int]]:
    """Seed-drawn (m, n) in [2^e, 2^e + 2^e/8): the work per pair barely
    depends on the draw, so run time does not depend on the seed."""
    def draw(e: int) -> int:
        return (1 << e) + rng.randrange(max(1, (1 << e) // 8))
    return [(draw(em), draw(en)) for em, en in exponents]


def _membership_digest(rep) -> dict:
    return {
        "fitted_C_row": _num(rep.fitted_C_row),
        "fitted_C_col": _num(rep.fitted_C_col),
        "fitted_C_double": _num(rep.fitted_C_double),
        "truncated": bool(rep.truncation_flags),
        "rows": len(rep.rows),
    }


def _finite_fit(digest: dict) -> list[str]:
    return [f"{key} = {digest[key]!r} is not finite and positive"
            for key in ("fitted_C_row", "fitted_C_col", "fitted_C_double")
            if not (isinstance(digest[key], float) and digest[key] > 0.0)]


def _caps_check(caps: tuple[float, float, float]) -> Callable[[dict], list[str]]:
    def check(digest: dict) -> list[str]:
        out = _finite_fit(digest)
        for key, cap in zip(("fitted_C_row", "fitted_C_col", "fitted_C_double"), caps):
            if isinstance(digest[key], float) and digest[key] > cap:
                out.append(f"{key} = {digest[key]!r} exceeds the config cap {cap}")
        return out
    return check


def _membership_job(name: str, seq: str, r: int, family, grid, sup_horizon: int,
                    check=_finite_fit, seeded: bool = False) -> Job:
    fam = ds.MajorantFamily(family, ds.Axis.ROW, sup_horizon=sup_horizon)
    return Job(name=name,
               run=lambda s: ds.check_membership(s[seq], r, fam, grid),
               summarize=_membership_digest, check=check, seeded=seeded)


def _lemma3_digest(res) -> dict:
    return {"lhs": _num(res.lhs), "rhs": _num(res.rhs), "slack": _num(res.slack),
            "truncated": bool(res.truncated)}


def _slack_check(digest: dict) -> list[str]:
    slack = digest["slack"]
    return [] if isinstance(slack, float) and slack >= 0.0 else [f"negative slack {slack!r}"]


def _eta_digest(res) -> dict:
    return {"eta": res.eta, "margins": [_num(c.margin) for c in res.conditions],
            "certified": [bool(c.certified) for c in res.conditions]}


def _eta_check(digest: dict) -> list[str]:
    return [f"condition {i + 1} margin {m!r} not positive"
            for i, m in enumerate(digest["margins"]) if not (isinstance(m, float) and m > 0.0)]


def _build_separable_fit(seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    limit = 128 if size == "full" else 16
    p = round(rng.uniform(1.25, 2.5), 2)
    q = round(rng.uniform(1.25, 2.5), 2)
    seqs = {
        "osc": ds.builtin("oscillating_quadratic"),
        "mod3": ds.builtin("mod3_log_product"),
        "pp": ds.builtin("product_power", p=p, q=q),
    }
    exps = ((3, 5), (5, 3), (4, 6), (6, 4)) if size == "full" else ((2, 3), (3, 2))
    extra = _banded_pairs(rng, exps)
    grid = tuple(dyadic_pairs(limit) + extra)
    jobs = []
    for key in ("osc", "mod3", "pp"):
        for family in (ds.Family.ONE, ds.Family.TWO, ds.Family.THREE):
            for r in (1, 2, 3):
                check = _finite_fit
                if (key, family, r) == ("osc", ds.Family.THREE, 2):
                    check = _caps_check(OSC_R2_CAPS)
                elif (key, family, r) == ("mod3", ds.Family.THREE, 3):
                    check = _caps_check(MOD3_R3_CAPS)
                jobs.append(_membership_job(
                    f"membership/{key}/{family.value}/r{r}", key, r, family, grid,
                    sup_horizon=4096, check=check, seeded=True))
    fixed_points = [(4, 4), (8, 16), (16, 8), (32, 32)] if size == "full" else [(4, 4)]
    lemma_points = fixed_points + _banded_pairs(
        rng, ((3, 4), (4, 3)) if size == "full" else ((2, 2),))
    for key in ("osc", "mod3", "pp"):
        for i, (m, n) in enumerate(lemma_points):
            jobs.append(Job(
                name=f"lemma3/{key}/{i}",
                run=lambda s, key=key, m=m, n=n: ds.lemma3_check(s[key], 4.0, 2, m, n,
                                                                 sup_horizon=1024),
                summarize=_lemma3_digest, check=_slack_check,
                seeded=key == "pp" or i >= len(fixed_points)))
    epsilons = [(0.2, False), (0.05, False)] + [
        (round(rng.uniform(0.05, 0.2), 3), True) for _ in range(2)]
    for i, (eps, seeded) in enumerate(epsilons):
        jobs.append(Job(
            name=f"eta/osc/{i}",
            run=lambda s, eps=eps: ds.eta_search(s["osc"], eps, 16.0),
            summarize=_eta_digest, check=_eta_check, seeded=seeded))
    return Workload("separable-fit", seed, seqs, jobs)


# --- generic-probe -----------------------------------------------------------

def draw_coordinate(rng: random.Random) -> float:
    """A coordinate whose distance to the nearer end of (0, pi) lies in
    (0.55, 0.95): clear of the step-2 and step-3 singular points, and with
    the probe's structured corner ceil(1/d) = 2 for every draw, so the
    rectangle lattice, and with it the work, does not depend on the seed."""
    d = rng.uniform(0.55, 0.95)
    return d if rng.random() < 0.5 else math.pi - d


def _probe_digest(rep) -> dict:
    return {"values": [_num(v) for v in rep.values], "verdict": rep.verdict.value}


def _verdict_check(expect_decaying: bool) -> Callable[[dict], list[str]]:
    def check(digest: dict) -> list[str]:
        decaying = digest["verdict"] == "decaying"
        if decaying == expect_decaying:
            return []
        want = "decaying" if expect_decaying else "not decaying"
        return [f"verdict {digest['verdict']!r}, expected {want}"]
    return check


def _value_digest(v) -> dict:
    return {"value": _num(v)}


def _measurement_digest(q) -> dict:
    return {"value": _num(q.value)}


def _pair_digest(pair) -> dict:
    qa, qb = pair
    return {"row": _num(qa.value), "col": _num(qb.value)}


def _positive(keys) -> Callable[[dict], list[str]]:
    def check(digest: dict) -> list[str]:
        return [f"{k} = {digest[k]!r} is not finite and positive" for k in keys
                if not (isinstance(digest[k], float) and digest[k] > 0.0)]
    return check


def _build_generic_probe(seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    full = size == "full"
    seqs = {
        "twin": ds.from_expression("twin", TWIN_EXPR),
        "nonsep": ds.from_expression("nonsep", NONSEP_EXPR),
        "osc": ds.builtin("oscillating_quadratic"),
        "mod3": ds.builtin("mod3_log_product"),
    }
    points = tuple((draw_coordinate(rng), draw_coordinate(rng)) for _ in range(4 if full else 2))
    probe = ds.ProbeConfig(xy_grid=points, thresholds=(8, 16, 32) if full else (4, 8, 16),
                           rect_cap=32 if full else 16, doublings=3)
    # The residue preset diverges at x = y = 2 pi/3; with that point in the
    # grid and the geometry of uniform-tail-mod3.cfg its tail does not decay.
    divergence = (2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0)
    probe_mod3 = ds.ProbeConfig(xy_grid=points + (divergence,), thresholds=(8, 16, 32, 64),
                                rect_cap=512, doublings=2)
    jobs = [
        Job("probe/twin", lambda s: ds.uniform_tail_probe(s["twin"], probe),
            _probe_digest, _verdict_check(True), seeded=True),
        Job("probe/nonsep", lambda s: ds.uniform_tail_probe(s["nonsep"], probe),
            _probe_digest, seeded=True),
        Job("probe/osc", lambda s: ds.uniform_tail_probe(s["osc"], probe),
            _probe_digest, _verdict_check(True), seeded=True),
        Job("probe/mod3", lambda s: ds.uniform_tail_probe(s["mod3"], probe_mod3),
            _probe_digest, _verdict_check(False), seeded=True),
    ]
    cross = [CrossCheck("probe/twin", "probe/osc", ("values", "verdict"), TWIN_RTOL)]

    side = 96 if full else 16
    for i in range(5 if full else 2):
        m, n = rng.randint(1, 64), rng.randint(1, 64)
        rect = ds.Rect(m, m + side - 1, n, n + side - 1)
        x, y = points[i % len(points)]
        jobs += [
            Job(f"rect/nonsep/direct/{i}",
                lambda s, rect=rect, x=x, y=y: ds.rect_sum_direct(s["nonsep"], rect, x, y),
                _value_digest, seeded=True),
            Job(f"rect/nonsep/parts/{i}",
                lambda s, rect=rect, x=x, y=y: ds.rect_sum_parts(s["nonsep"], rect, x, y, r=2),
                _value_digest, seeded=True),
            Job(f"rect/twin/direct/{i}",
                lambda s, rect=rect, x=x, y=y: ds.rect_sum_direct(s["twin"], rect, x, y),
                _value_digest, seeded=True),
            Job(f"rect/osc/separable/{i}",
                lambda s, rect=rect, x=x, y=y: ds.rect_sum_separable(s["osc"], rect, x, y),
                _value_digest, seeded=True),
        ]
        if i == 0:
            # Step 3 exercises the other kernel; the drawn points clear its
            # singular point 2 pi/3 by at least 0.09.
            jobs.append(Job(
                "rect/nonsep/parts3/0",
                lambda s, rect=rect, x=x, y=y: ds.rect_sum_parts(s["nonsep"], rect, x, y, r=3),
                _value_digest, seeded=True))
            cross.append(CrossCheck("rect/nonsep/parts3/0", "rect/nonsep/direct/0", ("value",),
                                    PARTS_RTOL))
        cross += [
            CrossCheck(f"rect/nonsep/parts/{i}", f"rect/nonsep/direct/{i}", ("value",),
                       PARTS_RTOL),
            CrossCheck(f"rect/twin/direct/{i}", f"rect/osc/separable/{i}", ("value",),
                       TWIN_RTOL),
        ]

    grid = tuple(dyadic_pairs(16 if full else 4))
    horizon = 256 if full else 32
    for family in (ds.Family.TWO, ds.Family.THREE):
        for key in ("twin", "nonsep", "osc"):
            jobs.append(_membership_job(f"membership/{key}/{family.value}", key, 2, family,
                                        grid, sup_horizon=horizon))
        cross.append(CrossCheck(f"membership/twin/{family.value}",
                                f"membership/osc/{family.value}",
                                ("fitted_C_row", "fitted_C_col", "fitted_C_double"),
                                TWIN_RTOL))

    sum_horizon = 512 if full else 64
    for m in ((4, 8, 16) if full else (4,)):
        for key in ("twin", "nonsep", "osc"):
            jobs.append(Job(f"lemma1/{key}/{m}",
                            lambda s, key=key, m=m: ds.lemma1_quantity(
                                s[key], m, m, horizon=sum_horizon),
                            _measurement_digest, _positive(("value",))))
            jobs.append(Job(f"lemma2/{key}/{m}",
                            lambda s, key=key, m=m: ds.lemma2_quantities(
                                s[key], m, m, sup_horizon=sum_horizon // 2,
                                sum_horizon=sum_horizon),
                            _pair_digest, _positive(("row", "col"))))
        cross += [CrossCheck(f"lemma1/twin/{m}", f"lemma1/osc/{m}", ("value",), TWIN_RTOL),
                  CrossCheck(f"lemma2/twin/{m}", f"lemma2/osc/{m}", ("row", "col"),
                             TWIN_RTOL)]
    return Workload("generic-probe", seed, seqs, jobs, cross)


# --- cli-suite ---------------------------------------------------------------

OUT_DIR_MASK = "<out_dir>"


def _cli_run(argv: list[str]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = ds.cli.main(argv)
    return code, sink.getvalue()


def _cli_summarize(root: Path, out_dir: Path, stem: str):
    """Digest of one CLI job.  The report's paths depend on where the
    checkout lives: ``out_dir`` is masked and the config path is made
    relative to the checkout, so digests compare across checkouts."""
    def summarize(result) -> dict:
        code, printed = result
        digest: dict = {"exit": code}
        report_path = out_dir / f"{stem}.json"
        if report_path.is_file():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            cli = report["config"]["cli"]
            cli["out_dir"] = OUT_DIR_MASK
            cli["config"] = Path(cli["config"]).relative_to(root).as_posix()
            digest["report"] = report
        csv_path = out_dir / f"{stem}.csv"
        if csv_path.is_file():
            with open(csv_path, encoding="utf-8") as fh:
                digest["csv_lines"] = sum(1 for _ in fh)
        if code != 0:
            digest["printed"] = printed
        return digest
    return summarize


def _cli_check(digest: dict) -> list[str]:
    if digest["exit"] != 0:
        return [f"exit status {digest['exit']}: {digest.get('printed', '').strip()}"]
    if not digest.get("report", {}).get("pass"):
        return ["report does not pass"]
    return []


def _build_cli_suite(seed: int, size: str, root: Path, out_dir: Path) -> Workload:
    import doublesine.cli  # noqa: F401  (part of this workload's set-up)

    config_dir = root / "scripts" / "configs"
    jobs = []
    for command, stem in CLI_MANIFEST:
        if size != "full" and stem not in CLI_TINY:
            continue
        cfg = config_dir / f"{stem}.cfg"
        if not cfg.is_file():
            raise FileNotFoundError(f"missing experiment config {cfg}")
        argv = [command, "--config", str(cfg), "--out-dir", str(out_dir),
                "--json", f"{stem}.json", "--csv", f"{stem}.csv"]
        seeded = command == "verify-identities"
        if seeded:
            argv += ["--seed", str(seed)]
        jobs.append(Job(f"cli/{stem}", lambda s, argv=argv: _cli_run(argv),
                        _cli_summarize(root, out_dir, stem), _cli_check, seeded=seeded))
    return Workload("cli-suite", seed, {}, jobs)


def build(name: str, seed: int, root: Path, out_dir: Path, size: str = "full") -> Workload:
    """The job list of one workload.  ``size`` is "full" or "tiny" (smoke tests)."""
    if name == "separable-fit":
        return _build_separable_fit(seed, size)
    if name == "generic-probe":
        return _build_generic_probe(seed, size)
    if name == "cli-suite":
        return _build_cli_suite(seed, size, root, out_dir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


# --- one pass ------------------------------------------------------------------

def run_pass(workload: Workload, sequences: dict | None = None,
             reference: dict | None = None,
             gauge: Callable[[float], list[float]] | None = None) -> PassResult:
    """Run every job once, in order, then check the outputs.

    ``sequences`` replaces the workload's inputs (the tracer passes
    instrumented copies).  ``reference`` maps job names to frozen digests;
    it applies to every job when ``workload.seed`` equals the seed the
    reference was frozen with, and otherwise to the unseeded jobs only.
    ``gauge``, if given, runs after every job with the job's time and
    returns the times of the fixed work it ran (see ``pace.Gauge``);
    its time is not in ``wall_s``.
    """
    seqs = workload.sequences if sequences is None else sequences
    raw: dict[str, object] = {}
    failures: dict[str, list[str]] = {}
    job_s = []
    chunk_s = []
    for job in workload.jobs:
        t0 = perf_counter()
        try:
            raw[job.name] = job.run(seqs)
        except Exception as exc:  # a failing job is counted, not fatal
            failures[job.name] = [f"{type(exc).__name__}: {exc}"]
        job_s.append(perf_counter() - t0)
        if gauge is not None:
            chunk_s.append(gauge(job_s[-1]))
    wall_s = sum(job_s)

    digests: dict[str, dict] = {}
    for job in workload.jobs:
        if job.name not in raw:
            continue
        try:
            digest = job.summarize(raw[job.name])
            problems = job.check(digest)
        except Exception as exc:  # an output of unexpected shape is a failure
            failures[job.name] = [f"unreadable output: {type(exc).__name__}: {exc}"]
            continue
        digests[job.name] = digest
        if reference is not None:
            frozen = reference["jobs"].get(job.name)
            if frozen is not None and (not job.seeded or reference["seed"] == workload.seed):
                problems += mismatches(digest, frozen, REFERENCE_RTOL, REFERENCE_ATOL)
        if problems:
            failures.setdefault(job.name, []).extend(problems)
    for cc in workload.cross_checks:
        got, want = digests.get(cc.job), digests.get(cc.oracle)
        if got is None or want is None:
            failures.setdefault(cc.job, []).append(f"cross check against {cc.oracle} not run")
            continue
        problems = mismatches({k: got[k] for k in cc.keys}, {k: want[k] for k in cc.keys},
                              cc.rtol, 0.0)
        if problems:
            failures.setdefault(cc.job, []).extend(f"vs {cc.oracle}: {p}" for p in problems)
    return PassResult(wall_s=wall_s, job_s=job_s, digests=digests, failures=failures,
                      chunk_s=chunk_s)
