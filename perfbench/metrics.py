"""The benchmark's specification, and what each per-layer metric should move.

Names, units, directions, bounds and workloads live only in BENCHMARK.json
at the root of the checkout; ``load_spec`` reads it.  A metric's layer is
the prefix of its name (``analytic.calls`` -> ``analytic``); end-to-end
names have no prefix.  ``MOVES`` records, before any optimisation is
measured, which end-to-end metric a per-layer metric should move and on
which workload, and where the prediction is no change.

Two user-facing numbers are not end-to-end entries, because an
end-to-end metric must never be 0: ``fail_frac`` is the result line's
failed / attempted, and the requested Monte Carlo rate is the per-layer
``montecarlo.mtrials_per_s`` (there is no simulation in `analytic`).
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Metric group (a layer, or montecarlo's dispatch metrics) -> prediction.
MOVES = {
    "core": "any event counts as a failure on every workload",
    "analytic": "wall_s and task_p50_ms on analytic; no change on simulate",
    "montecarlo": "wall_s, montecarlo.mtrials_per_s and task_tail_ms on simulate; "
                  "less on mcsearch; no change on analytic",
    "montecarlo dispatch": "wall_s and cpu_s, mostly on mcsearch; no change on analytic",
    "optimizer": "wall_s on analytic and mcsearch; no change on simulate",
    "cli": "wall_s on analytic (optimize prints 4,096 rows); no change on simulate",
    "trace": "nothing: the cost and size of the traced pass",
}
# Montecarlo metrics of pool dispatch rather than of the sampling kernels.
DISPATCH = {"montecarlo.calls", "montecarlo.serial_mtps", "montecarlo.speedup",
            "montecarlo.dispatch_ms", "montecarlo.workers1_wall_s"}


def load_spec() -> dict:
    """BENCHMARK.json as a dict."""
    return json.loads(SPEC_PATH.read_text())


def layer(name: str) -> str:
    """The layer a metric belongs to: its name's prefix, or ``end_to_end``."""
    return name.split(".")[0] if "." in name else "end_to_end"


def group(name: str) -> str:
    """The key of ``MOVES`` that holds a per-layer metric's prediction."""
    return "montecarlo dispatch" if name in DISPATCH else layer(name)
