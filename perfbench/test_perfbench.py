"""Tests of the benchmark itself: tracer counts, input generation, metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

mtlab = pytest.importorskip("mtlab")


def _seeded_solve():
    return mtlab.maximize_d(mtlab.MTParams(N=2, alpha=1.0, a=3.0, b=2.0), mtlab.MaximizeOptions(seed=7))


def _traced_seeded_solve():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = _seeded_solve()
    finally:
        tracer.uninstall()
    return report, tracer.aggregate()


def _counts(agg: dict) -> dict:
    counts = {name: entry["calls"] for name, entry in agg["functions"].items()}
    counts.update((k, v) for k, v in agg["counters"].items() if k != "radial.validation_s")
    return counts


def test_traced_seeded_solve_counts_are_pinned_and_repeat():
    plain = _seeded_solve()  # also fills the GN cache, so no GN work is traced below
    first, agg = _traced_seeded_solve()
    second, agg2 = _traced_seeded_solve()
    counts = _counts(agg)
    assert counts["maximize.iterations"] == 336
    assert counts["functional.mt_integral"] == 1489
    assert counts["maximize.project_to_constraint"] == 1504
    assert counts["scaling.dilate"] == 903
    assert counts["radial.RadialGrid.constructions"] == 895
    assert counts["radial.RadialProfile.constructions"] == 4488
    assert counts["maximize.maximize_gn"] == 0
    assert _counts(agg2) == counts
    for report in (first, second):
        assert report.best_value == plain.best_value
        assert report.restart_values == plain.restart_values


def test_uninstall_restores_every_name():
    before = {
        (mod, name): getattr(sys.modules[f"mtlab.{mod}"], name)
        for mod, name in [("maximize", "lp_norm_pow"), ("maximize", "ThreadPoolExecutor"), ("sweeps", "maximize_d")]
    }
    init = mtlab.radial.RadialProfile.__post_init__
    package_name = mtlab.mt_integral
    tracer = tracing.Tracer()
    tracer.install()
    for (mod, name), value in before.items():
        assert getattr(sys.modules[f"mtlab.{mod}"], name) is not value
    assert mtlab.mt_integral is not package_name
    tracer.uninstall()
    for (mod, name), value in before.items():
        assert getattr(sys.modules[f"mtlab.{mod}"], name) is value
    assert mtlab.mt_integral is package_name
    assert mtlab.radial.RadialProfile.__post_init__ is init


def test_pool_work_nests_under_the_call_that_submitted_it():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mtlab.maximize_d(
            mtlab.MTParams(N=2, alpha=1.0, a=3.0, b=2.0), mtlab.MaximizeOptions(n_nodes=64, restarts=4, threads=2)
        )
    finally:
        tracer.uninstall()
    tops = [s for s in tracer.spans if s[1] == 0]
    assert [s[2] for s in tops] == ["maximize.maximize_d"]
    assert len({s[3] for s in tracer.spans}) > 1
    entry = tracer.aggregate()["functions"]["maximize.maximize_d"]
    assert 0 <= entry["self_s"] < entry["total_s"]


def test_covered_is_the_clipped_union():
    assert tracing._covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing._covered([(0, 2), (1, 3)], 1.5, 2.5) == 1
    assert tracing._covered([], 0, 1) == 0


def test_solve_inputs_repeat_per_seed_and_cover_both_sides():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    jobs = workloads.solve_jobs(11)
    assert jobs == workloads.solve_jobs(11)
    assert jobs != workloads.solve_jobs(12)
    assert sorted(j["id"] for j in jobs) == sorted(workloads.solve_catalog())
    for N in (2, 3):
        n_prime = N / (N - 1)
        for nodes in workloads.NODES:
            group = [j for j in jobs if j["N"] == N and j["nodes"] == nodes]
            assert {(j["a"] > n_prime, j["b"] > N) for j in group} == {(x, y) for x in (0, 1) for y in (0, 1)}
        fracs = sorted(j["id"].rsplit("-f", 1)[1] for j in jobs if j["N"] == N)
        assert fracs == sorted(2 * [str(f) for f in workloads.ALPHA_FRACTIONS])
    assert set(reference["solve"]) == set(workloads.solve_catalog())
    assert set(reference["cli"]) == set(workloads.CLI_JOB_NAMES)
    assert workloads.cli_jobs("certify", 3) == workloads.cli_jobs("certify", 3)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail_percentile(48) == 75
    assert workloads.tail_percentile(20) == 50
    assert workloads.tail_percentile(6) == 100
    assert workloads.percentile([1, 2, 3, 4, 5], 75) == 4
    assert workloads.percentile([3, 1], 100) == 3


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layers = run.per_layer_metrics(tracing.merge([]), {}, 1.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    fake = {"setup_samples": [1.0], "pass_walls": [1.0], "pass_cpus": [1.0], "latencies": [1.0], "peak_rss_mb": 1.0}
    for workload in workloads.WHY:
        e2e = run.end_to_end_metrics(workload, fake)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u, _) in e2e.items()}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
