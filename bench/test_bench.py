"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.prepare()

import jobs  # noqa: E402  (needs the library path set by prepare)
import spans  # noqa: E402


def _tiny(name: str, trace: bool = False, **kwargs) -> dict:
    kwargs.setdefault("setup", False)
    return run.run_workload(name, seed=3, seconds=0.0, trace=trace, size="tiny",
                            min_passes=1, **kwargs)


@pytest.mark.parametrize("name", jobs.WORKLOADS)
def test_tiny_smoke_run_of_each_workload(name):
    rec = _tiny(name, setup=True)
    assert rec["correct"], rec["failures"]
    assert rec["attempted"] >= 2 * rec["jobs_per_pass"]  # warm-up plus one measured pass
    assert rec["failed_ratio"] == 0.0
    e2e = rec["end_to_end"]
    assert {key for key, _ in run.E2E_METRICS} == set(e2e)
    assert all(value > 0.0 for value in e2e.values()), e2e
    line = run.result_line(rec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(e2e)


def test_traced_run_reports_every_layer_metric_and_counts_the_right_layers():
    records = {name: _tiny(name, trace=True) for name in jobs.WORKLOADS}
    expected = {key for key, _ in spans.LAYER_METRICS} | {key for key, _ in run.TRACE_METRICS}
    for rec in records.values():
        assert rec["correct"], rec["failures"]
        assert set(rec["per_layer"]) == expected
    assert records["separable-fit"]["per_layer"]["kernels.cells"] == 0
    assert records["separable-fit"]["per_layer"]["majorants.scans"] > 0
    assert records["generic-probe"]["per_layer"]["kernels.cells"] > 0
    assert records["generic-probe"]["per_layer"]["convergence.probe_rects"] > 0
    for name in ("separable-fit", "generic-probe"):
        assert records[name]["per_layer"]["cli.jobs"] == 0
    assert records["cli-suite"]["per_layer"]["cli.jobs"] == len(jobs.CLI_TINY)
    assert records["cli-suite"]["per_layer"]["reports.bytes_written"] > 0


def test_corrupted_reference_value_raises_failed_ratio(monkeypatch, tmp_path):
    workload = jobs.build("separable-fit", 3, run.ROOT, tmp_path, size="tiny")
    digests = jobs.run_pass(workload).digests
    frozen = {"seed": 3, "jobs": digests}
    monkeypatch.setattr(run, "load_reference", lambda name, size: frozen)
    assert _tiny("separable-fit")["failed_ratio"] == 0.0

    corrupted = copy.deepcopy(frozen)
    corrupted["jobs"]["membership/osc/three/r2"]["fitted_C_row"] *= 1.0 + 1e-6
    monkeypatch.setattr(run, "load_reference", lambda name, size: corrupted)
    rec = _tiny("separable-fit")
    assert rec["failed_ratio"] > 0.0
    assert set(rec["failures"]) == {"membership/osc/three/r2"}


def test_seeded_jobs_skip_a_reference_frozen_with_another_seed(tmp_path):
    workload = jobs.build("generic-probe", 4, run.ROOT, tmp_path, size="tiny")
    digests = copy.deepcopy(jobs.run_pass(workload).digests)
    digests["probe/twin"]["values"][0] *= 2.0      # seeded: not compared
    digests["lemma1/twin/4"]["value"] *= 2.0       # unseeded: compared
    result = jobs.run_pass(workload, reference={"seed": 0, "jobs": digests})
    assert set(result.failures) == {"lemma1/twin/4"}


def test_twin_mismatch_is_a_failure(tmp_path):
    workload = jobs.build("generic-probe", 5, run.ROOT, tmp_path, size="tiny")
    workload.sequences["twin"] = jobs.ds.from_expression("twin", "1.000001*" + jobs.TWIN_EXPR)
    failures = jobs.run_pass(workload).failures
    assert "probe/twin" in failures and "lemma1/twin/4" in failures


def test_child_spans_never_exceed_their_parent(tmp_path):
    for name in jobs.WORKLOADS:
        workload = jobs.build(name, 0, run.ROOT, tmp_path, size="tiny")
        tracer = spans.Tracer()
        seqs = tracer.instrument(workload.sequences)
        with tracer:
            jobs.run_pass(workload, sequences=seqs)
        start, end, parent, _ = tracer.arrays()
        assert len(start) > 0
        assert tracer.nesting_violations() == []
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                assert start[p] <= start[i] <= end[i] <= end[p]
        assert all(v >= 0.0 for v in tracer.self_times().values())


def test_tracer_restores_every_namespace(tmp_path):
    import doublesine
    import doublesine.cli
    import doublesine.convergence
    before = (doublesine.check_membership, doublesine.convergence.rect_sum_direct,
              doublesine.cli.builtin, doublesine.cli.main,
              doublesine.convergence._probe_arrays)
    with spans.Tracer():
        assert doublesine.convergence.rect_sum_direct is not before[1]
        assert doublesine.cli.builtin is not before[2]
    after = (doublesine.check_membership, doublesine.convergence.rect_sum_direct,
             doublesine.cli.builtin, doublesine.cli.main,
             doublesine.convergence._probe_arrays)
    assert after == before


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(15) == 50.0       # too few: the median
    assert run.tail_percentile(45) == 75.0
    assert run.tail_percentile(105) == 90.0      # cli-suite: 7 passes x 15 jobs
    assert run.tail_percentile(343) == 95.0      # 7 passes x 49 jobs
    assert run.tail_percentile(2000) == 99.0
    values = [float(i) for i in range(1, 101)]
    assert run.nearest_rank(values, 90.0) == (90.0, 10)


def test_cli_digests_match_the_reference_from_a_checkout_elsewhere(tmp_path):
    """Full-size cli-suite digests carry no path of the checkout they ran in."""
    copy_root = tmp_path / "elsewhere"
    shutil.copytree(run.ROOT / "scripts", copy_root / "scripts",
                    ignore=shutil.ignore_patterns("__pycache__"))
    workload = jobs.build("cli-suite", 0, copy_root, tmp_path / "out")
    result = jobs.run_pass(workload, reference=run.load_reference("cli-suite", "full"))
    assert result.failures == {}
    assert len(result.digests) == len(jobs.CLI_MANIFEST)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-suite",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
    assert not (tmp_path / "bench" / "out").exists() or not any(
        Path(tmp_path / "bench" / "out").iterdir())


def test_job_times_are_scaled_by_their_pass_slowdown():
    import pace
    nominal = pace.CHUNK_NOMINAL_S
    quiet = jobs.PassResult(wall_s=3.0, job_s=[1.0, 2.0], digests={}, failures={},
                            chunk_s=[[nominal], [nominal]])
    slow = jobs.PassResult(wall_s=4.5, job_s=[1.5, 3.0], digests={}, failures={},
                           chunk_s=[[1.5 * nominal], [1.5 * nominal]])
    assert run.scaled_job_s(slow) == pytest.approx(run.scaled_job_s(quiet))
    assert run.job_medians([quiet, slow, slow]) == pytest.approx([1.0, 2.0])
    gauge = pace.Gauge()
    assert len(gauge(0.0)) == 1                  # the first job of a pass
    assert len(gauge(0.0)) == 0
    assert len(gauge(20 * nominal)) == 2         # a tenth of its time
