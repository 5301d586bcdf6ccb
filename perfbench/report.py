"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/report.py [--seed 1]

For every workload in BENCHMARK.json, at its run_seconds, this runs
run.py twice, untraced (end-to-end metrics) and traced (per-layer
metrics), and prints the machine, the checks, the tail percentile with
its sample count, every metric with its unit and layer, the end-to-end
metric each layer should move, the tracing overhead, and per-task
optimizer counts.  It exits with code 1 when any check failed
(fail_frac > 0) or a run did not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int):
    """(detail, result) of one run.py invocation, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"run failed ({workload}, trace {trace}): {proc.stderr[-800:]}")
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def _print_metrics(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']:<9} [{metrics.layer(name)}]")


def _print_moves(result: dict) -> None:
    for group in dict.fromkeys(metrics.group(name) for name in result["metrics"]):
        print(f"  {group} -> {metrics.MOVES[group]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = metrics.load_spec()
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, args.seed, spec["run_seconds"], trace) for trace in (0, 1)]
        if None in runs:
            ok = False
            continue
        (detail, e2e), (traced_detail, layers) = runs
        attempted = e2e["attempted"] + layers["attempted"]
        failed = e2e["failed"] + layers["failed"]
        ok &= failed == 0
        print(f"== {workload}  seed {args.seed}  machine {json.dumps(detail['machine'])}")
        print(f"  checks: {attempted} attempted, {failed} failed, "
              f"fail_frac {failed / attempted:.6g}")
        for text in detail["failures"] + traced_detail["failures"]:
            print(f"  FAILED {text}")
        print(f"  {detail['passes']} passes at workers={detail['workers']}; "
              f"task_tail_ms is p{detail['task_tail_percentile']:.4g} "
              f"of {detail['task_samples']} task samples")
        print(" end-to-end (untraced):")
        _print_metrics(e2e)
        print(" per-layer (traced pass, dispatch probes, workers=1 pass):")
        _print_metrics(layers)
        print(" predicted effect of each layer (before any optimisation):")
        _print_moves(layers)
        m = layers["metrics"]
        print(f"  tracing overhead: {m['trace.overhead_s']['value']:.4g} s on an "
              f"untraced pass of {traced_detail['untraced_wall_s']:.4g} s")
        if m["montecarlo.workers1_wall_s"]["value"]:
            print(f"  pass wall: {traced_detail['untraced_wall_s']:.4g} s at "
                  f"workers={detail['workers']}, "
                  f"{m['montecarlo.workers1_wall_s']['value']:.4g} s at workers=1")
        for name, task in traced_detail["tasks"].items():
            if task["link_evals"]:
                print(f"  task {name}: {task['link_evals']} optimizer link evaluations, "
                      f"distinct ratio {task['distinct_ratio']:.4g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
