#!/usr/bin/env python3
"""Benchmark of the doublesine library: three workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload separable-fit --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all                  # every workload in turn
    python3 bench/run.py --workload generic-probe --trace 1
    python3 bench/run.py --sweep                         # ungated cost curves
    python3 bench/run.py --freeze                        # rewrite bench/reference.json

With ``--trace 0`` a run repeats passes over the workload's fixed job
list for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.  Every pass checks every
output.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a copy of
the full result, with the environment, goes to ``bench/out/``.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

# BLAS/OpenMP pool size, fixed before numpy loads: one thread keeps
# reduction order fixed and leaves the second core to the system.
BLAS_THREADS = 1
# Passes a run makes at least, even past --seconds.  With --trace 0
# SETUP_PER_PASS fresh set-up processes run after every measured pass, so
# set-up samples are spread over the run.
MIN_PASSES = 7
MIN_TRACED_PASSES = 3
SETUP_PER_PASS = 1
# Chunks of fixed work (see pace.py) a set-up process runs before and
# after the timed set-up.
SETUP_CHUNKS = 8
# Every time is scaled to the nominal speed of pace.py, pass by pass, and
# then reduced by medians.  The tail is taken over every scaled job run,
# at the percentile that the minimum number of passes allows, so that the
# percentile is the same for every run of a workload.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

E2E_METRICS = (("wall_s", "s"), ("job_s_p50", "s"), ("job_s_tail", "s"),
               ("setup_s", "s"), ("peak_rss_mb", "MB"))
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.traced_wall_s", "s"),
                 ("trace.untraced_wall_s", "s"))


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs."""


def prepare() -> None:
    """Cap BLAS threads and put the checkout's ``src`` first on the path.

    The library must come from this checkout: an installed copy elsewhere
    would measure the wrong code, so its absence is an error.
    """
    package = SRC / "doublesine" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"library source not found at {package}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import doublesine
    if Path(doublesine.__file__).resolve() != package.resolve():
        raise SetupError(f"doublesine imported from {doublesine.__file__}, not {package}")


def load_reference(workload: str, size: str) -> dict | None:
    """Frozen digests of one workload; they exist for the full size only."""
    if size != "full":
        return None
    if not REFERENCE.is_file():
        raise SetupError(f"reference values not found at {REFERENCE}")
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {"seed": data["seed"], "jobs": data["workloads"][workload]}


# --- statistics ----------------------------------------------------------------

def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def scaled_job_s(result) -> list[float]:
    """A pass's job times at nominal machine speed."""
    speed = pace.slowdown(result.chunk_s)
    return [t / speed for t in result.job_s]


def per_job(passes: list) -> list[list[float]]:
    """Each job's scaled times over the passes."""
    return [list(times) for times in zip(*(scaled_job_s(p) for p in passes))]


def job_medians(passes: list) -> list[float]:
    """Each job's median scaled time over the passes."""
    return [statistics.median(times) for times in per_job(passes)]


def tail_samples(passes: list) -> list[float]:
    """Every scaled job run of the passes, sorted."""
    return sorted(t for times in per_job(passes) for t in times)


def tail_percentile(samples: int) -> float:
    """The highest percentile of the ladder with at least ten of ``samples``
    beyond it; the median when there are too few samples."""
    for pct in TAIL_LADDER:
        if samples - max(1, math.ceil(pct / 100.0 * samples)) >= MIN_BEYOND:
            return pct
    return 50.0


# --- environment -----------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
            "nproc": nproc, "seed": seed}


# --- measurement -----------------------------------------------------------------

def setup_child(workload: str, seed: int) -> dict:
    """Time import plus input construction; run in a fresh process, with
    chunks of fixed work before and after to gauge the machine's speed."""
    chunk_s = [pace.chunk() for _ in range(SETUP_CHUNKS)]
    t0 = perf_counter()
    prepare()
    import jobs
    jobs.build(workload, seed, ROOT, OUT_DIR / "setup-unused")
    setup_s = perf_counter() - t0
    chunk_s += [pace.chunk() for _ in range(SETUP_CHUNKS)]
    return {"setup_s": setup_s, "chunk_s": chunk_s}


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process, at nominal machine speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SetupError(f"set-up process failed: {proc.stderr.strip()}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return child["setup_s"] / pace.slowdown([child["chunk_s"]])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 setup: bool = True, min_passes: int | None = None) -> dict:
    """Measure one workload; returns the full result record.

    ``min_passes`` defaults to :data:`MIN_PASSES` (``--trace 0``) or
    :data:`MIN_TRACED_PASSES` traced passes (``--trace 1``).
    """
    if min_passes is None:
        min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    import jobs
    import spans

    reference = load_reference(name, size)
    setup_times: list[float] = []
    cli_dir = OUT_DIR / f"cli-{os.getpid()}"
    cli_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = jobs.build(name, seed, ROOT, cli_dir, size=size)
        all_passes: list = []
        untraced: list = []
        traced: list = []
        layer_rows: list[dict] = []

        def one_pass(tracing: bool):
            gc.collect()
            if not tracing:
                result = jobs.run_pass(workload, reference=reference, gauge=pace.Gauge())
                all_passes.append(result)
                return result
            tracer = spans.Tracer()
            seqs = tracer.instrument(workload.sequences)
            with tracer:
                result = jobs.run_pass(workload, sequences=seqs, reference=reference,
                                       gauge=pace.Gauge())
            violations = tracer.nesting_violations()
            if violations:
                raise RuntimeError("span nesting broken: " + "; ".join(violations))
            layer_rows.append(tracer.layer_metrics())
            all_passes.append(result)
            return result

        deadline = perf_counter() + seconds
        one_pass(False)  # warm-up: lazy imports, caches; checked, not timed
        # Past the minimum, a round starts only if one as long as the last
        # still ends by the deadline, so a run lasts --seconds.
        round_s = 0.0
        while len(untraced) < min_passes or perf_counter() + round_s <= deadline:
            started = perf_counter()
            untraced.append(one_pass(False))
            if trace:
                traced.append(one_pass(True))
            elif setup:
                setup_times += [measure_setup(name, seed) for _ in range(SETUP_PER_PASS)]
            round_s = perf_counter() - started
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)

    attempted = sum(len(workload.jobs) for _ in all_passes)
    failed = sum(len(p.failures) for p in all_passes)
    failures: dict[str, list[str]] = {}
    for p in all_passes:
        for job, msgs in p.failures.items():
            failures.setdefault(job, msgs[:3])

    samples = tail_samples(untraced)
    pct = tail_percentile(min_passes * len(workload.jobs))
    tail_value, beyond = nearest_rank(samples, pct)
    medians = job_medians(untraced)
    e2e = {
        "wall_s": sum(medians),
        "job_s_p50": statistics.median(medians),
        "job_s_tail": tail_value,
        "setup_s": statistics.median(setup_times) if setup_times else float("nan"),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "workload": name, "size": size, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(seed),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "passes": {"untraced": len(untraced), "traced": len(traced), "warm_up": 1},
        "jobs_per_pass": len(workload.jobs),
        "end_to_end": e2e,
        "job_s_tail_detail": {"percentile": pct, "samples": len(samples),
                              "beyond": beyond},
        "setup_samples_s": setup_times,
        "pass_wall_s": [p.wall_s for p in untraced],
        "pass_slowdown": [pace.slowdown(p.chunk_s) for p in untraced],
        "chunk_s_by_pass": [p.chunk_s for p in untraced],
        "job_s_by_job": {job.name: [p.job_s[i] for p in untraced]
                         for i, job in enumerate(workload.jobs)},
    }
    if trace:
        layers = {key: statistics.median(row[key] for row in layer_rows)
                  for key, _ in spans.LAYER_METRICS}
        traced_wall = sum(job_medians(traced))
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = e2e["wall_s"]
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        record["per_layer"] = layers
    return record


# --- output ------------------------------------------------------------------------

def _metric_lines(record: dict) -> list[str]:
    import spans
    lines = []
    if record["trace"]:
        for key, unit in spans.LAYER_METRICS + TRACE_METRICS:
            lines.append(f"  {key:<28} {record['per_layer'][key]:>14.6g} {unit}")
        return lines
    detail = record["job_s_tail_detail"]
    notes = {
        "wall_s": f"{record['jobs_per_pass']} jobs, each the median of "
                  f"{record['passes']['untraced']} passes",
        "job_s_p50": f"median of the {record['jobs_per_pass']} jobs' medians",
        "job_s_tail": f"p{detail['percentile']:g} of {detail['samples']} job samples "
                      f"(every job run), {detail['beyond']} beyond",
        "setup_s": f"median of {len(record['setup_samples_s'])} fresh processes, "
                   f"{SETUP_PER_PASS} after each pass",
        "peak_rss_mb": "max resident set of the measuring process",
    }
    slow = record["pass_slowdown"]
    lines.append(f"  times at nominal speed; the machine ran {min(slow):.2f} to "
                 f"{max(slow):.2f} times as slow")
    for key, unit in E2E_METRICS:
        lines.append(f"  {key:<14} {record['end_to_end'][key]:>12.6g} {unit:<3} {notes[key]}")
    lines.append(f"  {'failed_ratio':<14} {record['failed_ratio']:>12.6g} {'1':<3} "
                 f"{record['failed']} failed of {record['attempted']} attempted")
    return lines


def report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  correct {record['correct']}")
    for line in _metric_lines(record):
        print(line)
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for job, msgs in sorted(record["failures"].items()):
        print(f"  FAILED {job}: {' | '.join(msgs)}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / (f"{record['workload']}-seed{record['seed']}"
                      f"-trace{record['trace']}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def result_line(record: dict) -> dict:
    """The machine-readable summary of one workload."""
    import spans
    if record["trace"]:
        units, values = spans.LAYER_METRICS + TRACE_METRICS, record["per_layer"]
    else:
        units, values = E2E_METRICS, record["end_to_end"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units}}


def run_each(args) -> int:
    """``--workload all``: every workload in a process of its own, so that
    each ``peak_rss_mb`` is that workload's own peak.  Metric names in the
    summary are prefixed by the workload."""
    import jobs
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in jobs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print("\n".join(lines), proc.stderr, sep="\n", file=sys.stderr)
            return proc.returncode
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        summary["metrics"].update({f"{name}.{key}": value
                                   for key, value in line["metrics"].items()})
    print(json.dumps(summary))
    return 0


def freeze() -> None:
    """Rewrite the reference values from one seed-0 pass of each workload."""
    import jobs
    data = {"seed": 0, "workloads": {}}
    cli_dir = OUT_DIR / f"cli-{os.getpid()}"
    cli_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in jobs.WORKLOADS:
            workload = jobs.build(name, 0, ROOT, cli_dir)
            result = jobs.run_pass(workload)
            if result.failures:
                raise SetupError(f"{name} fails its checks: {result.failures}")
            data["workloads"][name] = result.digests
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="separable-fit, generic-probe, cli-suite or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload, after one warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="print cost curves; no gate")
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite the reference values from seed 0")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_child:
            print(json.dumps(setup_child(args.workload, args.seed)))
            return 0
        prepare()
        if args.sweep:
            import sweep
            sweep.run(args.seed, ROOT)
            return 0
        if args.freeze:
            freeze()
            return 0
        import jobs
        if args.workload == "all":
            return run_each(args)
        if args.workload not in jobs.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(record)
    except (SetupError, FileNotFoundError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
