"""Benchmark of zfoutage: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Workloads (see tasks.py): `simulate` (large full-channel sweeps and
direct-sampler runs), `analytic` (closed forms, search and CLI output, no
simulation) and `mcsearch` (decisions by simulation: many two-block Monte
Carlo calls).  One closed-loop client runs the workload's ordered task
list in this process; Monte Carlo tasks use workers = min(2, nproc), and
nothing else starts threads or processes, apart from the fresh
interpreters that time set-up.

A run warms up on the workload's smallest task, times a fixed number of
passes over the task list (set by --seconds, the same for every commit,
so both sides of a comparison get the same samples), checks the first
pass's results and that every later pass reproduces them, and re-runs
the task marked for the worker-count check at workers=1 and nproc.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it adds
one traced pass, one pass at workers=1 and the dispatch probes, and
reports the per-layer metrics.

`cpu_s` counts this process, its reaped children and its live
multiprocessing children, so a worker pool kept open across calls is
counted as well as one shut down inside each call.  `peak_rss_mb` is
this process's peak plus the largest peak of any one child: not the
peak of all of them at once.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it holds the machine, the tail percentile and its sample
count, per-task medians and any failed checks.  Both, and the spans of a
traced pass, are also written under perfbench/out/.  The program is
imported from ./src; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Timed passes per 20 seconds of --seconds, fixed so that every commit
# gets the same samples.  About 10-20 s of passes on a 2-CPU machine,
# except `mcsearch`, whose pool-dispatch timings drift most with host
# load: it gets about twice that, so its median pass wall is taken over
# eight passes.
PASSES_PER_20S = {"simulate": 9, "analytic": 33, "mcsearch": 8}
MIN_PASSES = 2
SETUP_LAUNCHES = 5
# Upper bound on the workers=nproc runs, to keep the pool small on big hosts.
MAX_PROBE_WORKERS = 8


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile that has
    at least ten samples beyond it; needs at least eleven samples."""
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    i = n - 11
    return 100.0 * (i + 1) / n, sorted(values)[i]


def machine_info(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def _live_children() -> list[int]:
    """Pids of this process's multiprocessing children still running (pool
    workers included); finished ones are reaped first."""
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children()]


def _proc_fields(pid: int) -> list[str]:
    """/proc/<pid>/stat after the command name: field 3 (state) onwards."""
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2:].split()


def _cpu_seconds() -> float:
    """User + system CPU of this process, of its reaped children, and of
    its live multiprocessing children, so that a pool kept open across
    calls is counted as well as one shut down inside each call."""
    live = _live_children()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in live:
        try:
            # utime, stime, cutime, cstime are fields 14-17.
            total += sum(int(v) for v in _proc_fields(pid)[11:15]) / ticks
        except (OSError, ValueError):
            pass  # ended since the listing; counted once reaped
    return total


def _peak_rss_mb() -> float:
    """This process's peak resident memory plus the largest peak of any
    one child, reaped or live.  Not the peak of all of them at once: two
    workers running together count once, and pages shared after fork
    count twice."""
    live = _live_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in live:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    kid = max(kid, int(line.split()[1]))
        except (OSError, ValueError):
            pass
    return (own + kid) / 1024.0  # both in KiB on Linux


class Ledger:
    """Checks attempted and failed, with the names of the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"{name}: {detail}")

    def fail(self, text: str) -> None:
        self.failed += 1
        self.failures.append(text)


def run_pass(tasks_, run_task, latencies=None, span=None):
    """Run every task once; an exception becomes the task's result."""
    results = []
    for task in tasks_:
        start = time.perf_counter()
        try:
            if span is None:
                results.append(run_task(task))
            else:
                with span(task.name, "task"):
                    results.append(run_task(task))
        except Exception as exc:  # a failing task is counted, the run goes on
            results.append(exc)
        if latencies is not None:
            latencies[task.name].append(time.perf_counter() - start)
    return results


def measure_setup(workload: str, seed: int, workers: int, task_name: str) -> list[float]:
    """Wall seconds for fresh interpreters to import zfoutage and run one task."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
        "import tasks\n"
        f"t = [t for t in tasks.build_tasks({workload!r}, {seed!r}, {workers!r})"
        f" if t.name == {task_name!r}][0]\n"
        "result = tasks.run_task(t)\n"
        "sys.exit(result[0] if t.kind == 'cli' else 0)\n"
    )
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up task failed: {proc.stderr.decode()[-500:]}")
    return times


def dispatch_probes(workers: int) -> dict[str, float]:
    """Plain workers=1 baseline of a many-block call, its speed-up at
    workers=nproc, and the extra cost of a two-block call at workers=nproc."""
    from tasks import SEARCH_TRIALS
    from zfoutage import montecarlo
    from zfoutage.core import StreamAllocation, SystemConfig

    def timed(config, alloc, trials, w, reps):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            montecarlo.empirical_link_success(config, alloc, 0, trials, 11, workers=w)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    big_cfg, big_alloc = SystemConfig(8, 4, 1.0), StreamAllocation((2,) + (1,) * 7)
    many = 12 * montecarlo.BLOCK_TRIALS
    t1 = timed(big_cfg, big_alloc, many, 1, 3)
    tn = timed(big_cfg, big_alloc, many, workers, 3)
    small_cfg, small_alloc = SystemConfig(3, 3, 1.0), StreamAllocation((1, 1, 1))
    d1 = timed(small_cfg, small_alloc, SEARCH_TRIALS, 1, 5)
    dn = timed(small_cfg, small_alloc, SEARCH_TRIALS, workers, 5)
    return {
        "montecarlo.serial_mtps": many / t1 / 1e6,
        "montecarlo.speedup": t1 / tn,
        "montecarlo.dispatch_ms": (dn - d1) * 1e3,
    }


def per_layer_metrics(task_list, reference, wall, uses_mc, probe_workers, ledger,
                      spans_path):
    """One traced pass for the per-layer numbers, then one untraced pass at
    workers=1 and the dispatch probes.  Returns (metrics, per-task detail)."""
    import tasks
    import tracing
    from zfoutage import analytic, cli, montecarlo, optimizer

    tracer = tracing.Tracer()
    tracer.install({"analytic": analytic, "montecarlo": montecarlo,
                    "optimizer": optimizer, "cli": cli})
    try:
        start = time.perf_counter()
        traced = run_pass(task_list, tasks.run_task, span=tracer.span)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    for task, result, ref in zip(task_list, traced, reference):
        ledger.record(f"{task.name}:traced", result == ref,
                      "traced result differs from the first pass")
    metrics = tracing.layer_metrics(tracer.spans, tracer.signatures,
                                    montecarlo.BLOCK_TRIALS)
    metrics["montecarlo.mtrials_per_s"] = metrics["montecarlo.trials"] / wall / 1e6
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - wall
    metrics["trace.spans"] = len(tracer.spans)
    metrics["cli.bytes_out"] = sum(
        len(r[1].encode()) for t, r in zip(task_list, reference)
        if t.kind == "cli" and not isinstance(r, Exception))
    if uses_mc:
        start = time.perf_counter()
        run_pass([tasks.with_workers(t, 1) for t in task_list], tasks.run_task)
        metrics["montecarlo.workers1_wall_s"] = time.perf_counter() - start
        metrics.update(dispatch_probes(probe_workers))
    else:
        for name in ("montecarlo.workers1_wall_s", "montecarlo.serial_mtps",
                     "montecarlo.speedup", "montecarlo.dispatch_ms"):
            metrics[name] = 0.0
    spans_path.write_text(json.dumps(
        [[s[tracing.NAME], s[tracing.LAYER], s[tracing.PARENT], s[tracing.START],
          s[tracing.END]] for s in tracer.spans]))
    return metrics, tracing.task_breakdown(tracer.spans, tracer.signatures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zfoutage" / "__init__.py").is_file():
        print(f"error: no zfoutage sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tasks
    from metrics import load_spec
    from zfoutage import core

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workers = min(2, nproc)
    probe_workers = min(nproc, MAX_PROBE_WORKERS)
    task_list = tasks.build_tasks(args.workload, args.seed, workers)
    uses_mc = any(t.workers_check for t in task_list)  # the simulating workloads
    ledger = Ledger()
    clamps_before = core.clamp_count()

    # Warm-up: the smallest task once, for lazy imports and caches.
    setup_task = tasks.setup_task(args.workload, task_list)
    run_pass([setup_task], tasks.run_task)

    # Untraced, timed passes: the end-to-end numbers, and the baseline for
    # the tracing overhead.  The first pass gives the results that are
    # checked and that every later pass must reproduce exactly.
    passes = max(MIN_PASSES, round(PASSES_PER_20S[args.workload] * args.seconds / 20))
    latencies = {t.name: [] for t in task_list}
    walls, cpus = [], []
    reference = None
    for _ in range(passes):
        cpu0, start = _cpu_seconds(), time.perf_counter()
        results = run_pass(task_list, tasks.run_task, latencies)
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu0)
        if reference is None:
            reference = results
            continue
        for task, result, ref in zip(task_list, results, reference):
            ledger.record(f"{task.name}:repeatable", result == ref,
                          "result differs from the first pass")
    peak = _peak_rss_mb()
    wall = statistics.median(walls)
    samples = [x for lat in latencies.values() for x in lat]
    tail_pct, tail_value = tail_percentile(samples)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(nproc),
        "workers": workers,
        "passes": passes,
        "task_samples": len(samples),
        "task_tail_percentile": tail_pct,
        "task_median_ms": {k: 1e3 * statistics.median(v) for k, v in latencies.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, detail["tasks"] = per_layer_metrics(
            task_list, reference, wall, uses_mc, probe_workers, ledger,
            OUT_DIR / f"spans-{stem}.json")
        detail["untraced_wall_s"] = wall
        selected = spec["per_layer"]

    # Checks come after everything timed: they import scipy.stats, which
    # would double the size of the process the worker pools fork.
    import checks

    for task, result in zip(task_list, reference):
        if isinstance(result, Exception):
            ledger.fail(f"{task.name}: raised {result!r}")
    for name, ok, detail_text in checks.check_results(task_list, reference):
        ledger.record(name, ok, detail_text)
    for task, result in zip(task_list, reference):
        if not task.workers_check:
            continue
        for w in sorted({1, probe_workers} - {workers}):
            again = run_pass([tasks.with_workers(task, w)], tasks.run_task)[0]
            ledger.record(f"{task.name}:workers{w}-vs-{workers}", again == result,
                          "results differ across worker counts")

    if not args.trace:
        try:
            setup = statistics.median(
                measure_setup(args.workload, args.seed, workers, setup_task.name))
            ledger.record("setup", True)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            setup = 0.0
            ledger.record("setup", False, str(exc))
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "task_p50_ms": 1e3 * statistics.median(samples),
            "task_tail_ms": 1e3 * tail_value,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak,
        }
        detail["setup_task"] = setup_task.name
        selected = spec["end_to_end"]

    clamps = core.clamp_count() - clamps_before
    metrics["core.clamp_events"] = clamps
    ledger.record("core.clamp_events", clamps == 0, f"{clamps} clamp events")
    detail["failures"] = ledger.failures[:20]

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in selected},
    }
    path = OUT_DIR / f"{stem}-trace{args.trace}.json"
    path.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
