"""Workload task lists for the zfoutage benchmark, and how to run one task.

A workload is a fixed, ordered list of tasks.  Each task is plain data:
a kind (which public function it calls) and the keyword parameters of
that call.  ``build_tasks(workload, seed, workers)`` is a pure function of
its arguments: the seed chooses Monte Carlo seeds and thresholds, never
the shape of a scenario, so every seed costs the same amount of work.

This module imports ``zfoutage`` but not the checks (scipy.stats), so
the fresh interpreter that measures set-up time pays for nothing else.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

from zfoutage import cli, montecarlo, optimizer
from zfoutage.core import StreamAllocation, SystemConfig

# Number of Monte Carlo blocks behind each full-channel sweep in
# `simulate`; large calls spread the per-call pool start-up thin.
SWEEP_BLOCKS = 4
# Direct-sampler calls are ~20x cheaper per trial, so they get more blocks.
DIRECT_BLOCKS = 48
# `mcsearch` uses two-block calls: the smallest size that still goes
# through the worker pool, so dispatch cost dominates as it does in a
# search over many candidates.
SEARCH_TRIALS = montecarlo.BLOCK_TRIALS + 1808

# (M, N, k_self, k_other) points of the criterion-3 grid.  Every k_self
# class appears: 1 (no QR), 1 < k < M (small QR) and k = M (QR-heavy).
SWEEP_SCENARIOS = (
    (4, 8, 1, 1),
    (4, 8, 2, 2),
    (4, 8, 4, 1),
    (8, 8, 1, 2),
    (8, 8, 2, 1),
    (8, 8, 8, 1),
    (8, 4, 8, 2),
)
# (M, k_self, interferer stream counts) for the two-sampler comparison.
HETERO_SCENARIOS = (
    (4, 1, (1, 2, 4)),
    (4, 2, (1, 1, 2, 3)),
)
# Crowded ten-antenna network for the Monte Carlo best response: at
# beta = 8 the analytic single-stream threshold N* is 7 links.
CROWDED = {"antennas": 10, "beta": 8.0, "links": 7}


@dataclass(frozen=True)
class Task:
    """One call into zfoutage's public interface."""

    name: str
    kind: str
    params: dict
    # Uses Monte Carlo workers, so it is re-run at workers=1 in the
    # bitwise worker-count check.
    workers_check: bool = False


def _betas(rng: random.Random, count: int) -> tuple[float, ...]:
    """Thresholds log-uniform on [0.25, 4], rounded so CLI text round-trips."""
    return tuple(round(2.0 ** rng.uniform(-2.0, 2.0), 4) for _ in range(count))


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def build_tasks(workload: str, seed: int, workers: int) -> list[Task]:
    """The ordered task list of ``workload`` for one workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "simulate":
        return _simulate_tasks(rng, workers)
    if workload == "analytic":
        return _analytic_tasks(rng)
    if workload == "mcsearch":
        return _mcsearch_tasks(rng, workers)
    raise ValueError(f"unknown workload {workload!r}")


def _simulate_tasks(rng: random.Random, workers: int) -> list[Task]:
    trials = SWEEP_BLOCKS * montecarlo.BLOCK_TRIALS
    tasks = []
    for m, n, ks, ko in SWEEP_SCENARIOS:
        tasks.append(
            Task(
                name=f"sweep_M{m}_N{n}_k{ks}_o{ko}",
                kind="sweep",
                params={
                    "antennas": m,
                    "streams": (ks,) + (ko,) * (n - 1),
                    "betas": _betas(rng, 3),
                    "trials": trials,
                    "seed": _mc_seed(rng),
                    "workers": workers,
                },
                workers_check=not tasks,
            )
        )
    for m, ks, others in HETERO_SCENARIOS:
        betas = _betas(rng, 3)
        label = "".join(str(k) for k in others)
        tasks.append(
            Task(
                name=f"sweep_M{m}_k{ks}_o{label}",
                kind="sweep",
                params={
                    "antennas": m,
                    "streams": (ks,) + others,
                    "betas": betas,
                    "trials": trials,
                    "seed": _mc_seed(rng),
                    "workers": workers,
                },
            )
        )
        tasks.append(
            Task(
                name=f"direct_M{m}_k{ks}_o{label}",
                kind="direct",
                params={
                    "antennas": m,
                    "k_self": ks,
                    "k_others": others,
                    "beta": betas[1],
                    "trials": DIRECT_BLOCKS * montecarlo.BLOCK_TRIALS,
                    "seed": _mc_seed(rng),
                    "workers": workers,
                },
            )
        )
    return tasks


def _analytic_tasks(rng: random.Random) -> list[Task]:
    def cli_task(name, argv):
        return Task(name=name, kind="cli", params={"argv": tuple(argv)})

    fig2_betas = ",".join(repr(b) for b in sorted(_betas(rng, 5)))
    return [
        cli_task(
            "optimize_N6_M4",
            ["optimize", "--links", "6", "--antennas", "4",
             "--beta", repr(_betas(rng, 1)[0])],
        ),
        cli_task("fig1", ["figure", "fig1", "--beta", repr(_betas(rng, 1)[0])]),
        cli_task("fig2", ["figure", "fig2", "--beta-list", fig2_betas]),
        # fig3 stays at beta = 1, where the best allocation is known.
        cli_task("fig3", ["figure", "fig3"]),
        cli_task("nstar_M10", ["nstar", "--antennas", "10", "--beta", "0.01"]),
        Task(
            name="coordinate_N30_M10",
            kind="search",
            params={"links": 30, "antennas": 10, "beta": _betas(rng, 1)[0],
                    "mode": "coordinate"},
        ),
        Task(
            name="exhaustive_N3_M3",
            kind="search",
            params={"links": 3, "antennas": 3, "beta": 1.0, "mode": "exhaustive"},
        ),
    ]


def _mcsearch_tasks(rng: random.Random, workers: int) -> list[Task]:
    def best_response(name, scenario, link, start):
        return Task(
            name=name,
            kind="best_response",
            params={**scenario, "link": link, "start": start,
                    "trials": SEARCH_TRIALS, "seed": _mc_seed(rng),
                    "workers": workers},
        )

    three = {"antennas": 3, "beta": 1.0, "links": 3}
    # The nine short 3x3 best responses (every link, from each uniform
    # start) give the per-task latencies enough samples for a tail.
    return [
        Task(
            name="mc_exhaustive_N3_M3",
            kind="search",
            params={**three, "mode": "exhaustive", "trials": SEARCH_TRIALS,
                    "seed": _mc_seed(rng), "workers": workers},
        ),
        best_response("mc_best_response_M10_N7", CROWDED, 0, 1),
        *(best_response(f"mc_best_response_N3_start{k}_link{link}", three, link, k)
          for k in (1, 2, 3) for link in range(3)),
        # fig3 on two antennas: 24 Monte Carlo calls instead of 81, so a
        # pass is short enough for its median to cover several passes.
        Task(
            name="fig3_both",
            kind="cli",
            params={"argv": ("figure", "fig3", "--antennas", "2", "--backend", "both",
                             "--trials", str(SEARCH_TRIALS),
                             "--seed", str(_mc_seed(rng)),
                             "--workers", str(workers))},
            workers_check=True,
        ),
    ]


# The cheapest task of each workload, timed in a fresh interpreter for setup_s.
SETUP_TASK = {
    "simulate": "direct_M4_k1_o124",
    "analytic": "fig3",
    "mcsearch": "mc_best_response_N3_start1_link0",
}


def setup_task(workload: str, tasks: list[Task]) -> Task:
    """The task of ``tasks`` that set-up time is measured with."""
    return next(t for t in tasks if t.name == SETUP_TASK[workload])


def with_workers(task: Task, workers: int) -> Task:
    """Copy of ``task`` with its Monte Carlo worker count replaced."""
    params = dict(task.params)
    if task.kind == "cli":
        argv = list(params["argv"])
        argv[argv.index("--workers") + 1] = str(workers)
        params["argv"] = tuple(argv)
    else:
        params["workers"] = workers
    return Task(task.name, task.kind, params, task.workers_check)


def run_task(task: Task):
    """Call zfoutage for one task and return what the checks need.

    CLI tasks run ``cli.main(argv)`` in-process with stdout captured; the
    result is (exit code, stdout text).
    """
    p = task.params
    if task.kind == "sweep":
        config = SystemConfig(len(p["streams"]), p["antennas"], 1.0)
        return montecarlo.link_success_sweep(
            config, StreamAllocation(p["streams"]), 0, p["betas"], p["trials"],
            p["seed"], workers=p["workers"],
        )
    if task.kind == "direct":
        return montecarlo.direct_distribution_outage(
            p["antennas"], p["k_self"], p["k_others"], p["beta"], p["trials"],
            p["seed"], workers=p["workers"],
        )
    if task.kind == "search":
        mc = "trials" in p
        return optimizer.maximize_sum_capacity(
            SystemConfig(p["links"], p["antennas"], p["beta"]),
            mode=p["mode"],
            objective="montecarlo" if mc else "analytic",
            trials=p.get("trials"),
            seed=p.get("seed"),
            workers=p.get("workers", 1),
        )
    if task.kind == "best_response":
        return optimizer.best_response(
            SystemConfig(p["links"], p["antennas"], p["beta"]),
            StreamAllocation.uniform(p["links"], p["start"]),
            p["link"],
            "montecarlo",
            trials=p["trials"],
            seed=p["seed"],
            workers=p["workers"],
        )
    if task.kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(p["argv"]))
        return code, out.getvalue()
    raise ValueError(f"unknown task kind {task.kind!r}")

