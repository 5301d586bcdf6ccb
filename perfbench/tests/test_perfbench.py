"""Tests of the benchmark itself: span arithmetic, the tail rule, task lists.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import metrics  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402
from run import _cpu_seconds, _peak_rss_mb, tail_percentile  # noqa: E402
from zfoutage import analytic, optimizer  # noqa: E402
from zfoutage.core import SystemConfig  # noqa: E402


def _span(name, layer, parent, start, end):
    return [name, layer, parent, start, end, (), {}, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("main", "cli", -1, 0.0, 10.0),
        _span("search", "optimizer", 0, 1.0, 7.0),
        _span("series", "analytic", 1, 2.0, 3.0),
        _span("series", "analytic", 1, 4.0, 6.5),
        _span("format", "analytic", 0, 8.0, 9.0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.5, 1.0, 2.5, 1.0]


def test_layer_busy_counts_outermost_spans_and_self_excludes_children():
    spans = [
        _span("main", "cli", -1, 0.0, 10.0),
        _span("search", "optimizer", 0, 1.0, 7.0),
        _span("outer", "analytic", 1, 2.0, 5.0),
        _span("inner", "analytic", 2, 3.0, 4.0),
    ]
    m = tracing.layer_metrics(spans, {}, block_trials=8192)
    assert m["analytic.calls"] == 1
    assert m["analytic.busy_s"] == 3.0  # the nested call is not counted twice
    assert m["analytic.self_s"] == 3.0
    assert m["optimizer.busy_s"] == 6.0
    assert m["optimizer.self_s"] == 3.0
    assert m["cli.self_s"] == 4.0
    assert m["montecarlo.calls"] == 0


def test_traced_search_counts_distinct_link_evaluations():
    tracer = tracing.Tracer()
    tracer.install({"analytic": analytic, "optimizer": optimizer})
    try:
        result = optimizer.maximize_sum_capacity(SystemConfig(3, 3, 1.0))
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, tracer.signatures, block_trials=8192)
    assert m["optimizer.evaluations"] == result.evaluations == 27
    assert m["optimizer.link_evals"] == 81
    assert m["optimizer.distinct_ratio"] == 18 / 81
    assert math.isclose(m["optimizer.self_s"] + m["analytic.busy_s"],
                        m["optimizer.busy_s"], rel_tol=1e-9)


def test_tracer_restores_every_rebound_name():
    before = optimizer.empirical_link_success
    tracer = tracing.Tracer()
    tracer.install({"montecarlo": sys.modules["zfoutage.montecarlo"]})
    assert optimizer.empirical_link_success is not before
    tracer.uninstall()
    assert optimizer.empirical_link_success is before


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))
    pct, value = tail_percentile(values)
    assert (pct, value) == (90.0, 90)
    assert sum(v > value for v in values) == 10
    pct, value = tail_percentile(list(range(11)))
    assert value == 0 and sum(v > value for v in range(11)) == 10
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


WORKLOADS = [w["name"] for w in metrics.load_spec()["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_task_list_is_a_pure_function_of_the_seed(workload):
    first = tasks.build_tasks(workload, 7, 2)
    assert first == tasks.build_tasks(workload, 7, 2)
    other = tasks.build_tasks(workload, 8, 2)
    # Another seed changes inputs, never the shape (and so the cost) of a task.
    assert [(t.name, t.kind) for t in other] == [(t.name, t.kind) for t in first]
    assert [t.params for t in other] != [t.params for t in first]
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH_DIR)!r}]\n"
        f"import tasks; print(repr(tasks.build_tasks({workload!r}, 7, 2)))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    fresh = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.strip()
    assert fresh == repr(first)


def test_reference_matches_the_equal_k_series():
    for m, n, ks, ko, beta in ((1, 2, 1, 1, 1.0), (4, 8, 2, 2, 0.5), (8, 16, 8, 1, 4.0)):
        assert math.isclose(checks.equal_k_exact(m, n, ks, ko, beta),
                            analytic.success_prob_equal_k(m, n, ks, ko, beta),
                            rel_tol=1e-9, abs_tol=1e-15)


def test_every_per_layer_metric_has_a_layer_and_a_prediction():
    for m in metrics.load_spec()["per_layer"]:
        assert metrics.layer(m["name"]) in tracing.LAYERS + ("core", "trace")
        assert metrics.group(m["name"]) in metrics.MOVES


def _spin(seconds, done):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    done.wait(30)


def test_cpu_and_peak_memory_count_a_live_child():
    ctx = multiprocessing.get_context("fork")
    done = ctx.Event()
    cpu0 = _cpu_seconds()
    child = ctx.Process(target=_spin, args=(0.5, done))
    child.start()
    try:
        time.sleep(1.0)
        assert child.is_alive()
        assert _cpu_seconds() - cpu0 >= 0.4
        assert _peak_rss_mb() > 0
    finally:
        done.set()
        child.join()


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
