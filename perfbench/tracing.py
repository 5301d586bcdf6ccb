"""Spans around zfoutage's public functions, and the per-layer numbers they give.

The tracer wraps, from the outside, every public function of the
`analytic`, `montecarlo` and `optimizer` layers and `cli.main`, and
rebinds each wrapped function wherever a zfoutage module imported it
(for example `zfoutage.optimizer.empirical_link_success`), so nested
calls across layers produce nested spans.  `core` is not wrapped: its
functions are called per series term and its one per-layer number,
clamp events, is read from `clamp_count()`.

A span is [name, layer, parent index, start, end, args, kwargs, result]
with times from `time.perf_counter`; spans stay in memory until the
benchmark writes them out.  Results are kept only for the functions whose
counts need them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import defaultdict

NAME, LAYER, PARENT, START, END, ARGS, KWARGS, RESULT = range(8)

LAYERS = ("analytic", "montecarlo", "optimizer", "cli")
KEEP_RESULT = {"empirical_link_success", "link_success_sweep", "maximize_sum_capacity"}
FULL_CHANNEL = {"empirical_link_success", "link_success_sweep", "link_sir_samples",
                "link_power_samples"}
DIRECT = {"direct_distribution_outage", "direct_sir_samples"}
# Per-link objective calls an optimizer makes.
LINK_LEVEL = {"link_success_prob", "empirical_link_success", "success_prob_equal_k"}


class Tracer:
    """Installs span-recording wrappers; `uninstall` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.signatures: dict[str, inspect.Signature] = {}

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span around the benchmark's own code, such as a task."""
        stack = self._stack
        record = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, (), {}, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        keep = name in KEEP_RESULT
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, args, kwargs, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
                if keep:
                    record[RESULT] = result
                return result
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` ({layer: module})."""
        wrapped = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ("main",)):
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrapped[id(fn)] = self._wrap(fn, layer)
                    self.signatures[fn.__name__] = inspect.signature(fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "zfoutage" and not mod_name.startswith("zfoutage."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _bound(signatures, span) -> dict:
    return signatures[span[NAME]].bind(*span[ARGS], **span[KWARGS]).arguments


def layer_metrics(spans, signatures, block_trials: int) -> dict[str, float]:
    """Busy time, self time, calls and counts per layer for one traced pass.

    A layer's busy time sums its outermost spans (those whose parent is in
    another layer), so nested calls inside a layer are not counted twice;
    its self time sums every span's self time.  Rates are trials over the
    busy time of the calls that requested them, so they include dispatch.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        outer = [i for i, s in enumerate(spans)
                 if s[LAYER] == layer and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer)]
        out[f"{layer}.calls"] = len(outer)
        out[f"{layer}.busy_s"] = sum(spans[i][END] - spans[i][START] for i in outer)
        out[f"{layer}.self_s"] = sum(t for t, s in zip(own, spans) if s[LAYER] == layer)

    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def mean_us(name):
        group = by_name[name]
        return 1e6 * sum(s[END] - s[START] for s in group) / len(group) if group else 0.0

    out["analytic.equal_k_us"] = mean_us("success_prob_equal_k")
    out["analytic.general_us"] = mean_us("success_prob_general")
    out["analytic.nstar_us"] = mean_us("min_links_single_stream")
    terms = 0
    for name in ("success_prob_equal_k", "success_prob_general"):
        for s in by_name[name]:
            a = _bound(signatures, s)
            terms += a["num_antennas"] - a["k_self"] + 1
    out["analytic.series_terms"] = terms

    out.update(_montecarlo_counts(spans, signatures, block_trials))
    out.update(_optimizer_counts(spans, signatures))
    return out


def _kernel_class(k_self: int, m: int) -> str:
    if k_self == 1:
        return "k1"
    return "qr" if k_self == m else "zf"


def _montecarlo_counts(spans, signatures, block_trials) -> dict[str, float]:
    trials = blocks = resampled = 0
    normals_bytes = 0
    rate = defaultdict(lambda: [0, 0.0])  # class -> [trials, seconds]
    for s in spans:
        if s[NAME] not in FULL_CHANNEL and s[NAME] not in DIRECT:
            continue
        a = _bound(signatures, s)
        n = a["trials"]
        trials += n
        blocks += math.ceil(n / block_trials)
        if s[NAME] in DIRECT:
            cls = "direct"
        else:
            m = a["config"].num_antennas
            k_self = a["alloc"].streams[a["link"]]
            cls = _kernel_class(k_self, m)
            normals_bytes += n * 16 * m * sum(a["alloc"].streams)
            result = s[RESULT]
            if isinstance(result, list):
                result = result[0]
            resampled += getattr(result, "resampled", 0)
        rate[cls][0] += n
        rate[cls][1] += s[END] - s[START]

    def mtps(cls):
        n, secs = rate[cls]
        return n / secs / 1e6 if secs else 0.0

    return {
        "montecarlo.trials": trials,
        "montecarlo.blocks": blocks,
        "montecarlo.resampled": resampled,
        "montecarlo.full_mtps_k1": mtps("k1"),
        "montecarlo.full_mtps_zf": mtps("zf"),
        "montecarlo.full_mtps_qr": mtps("qr"),
        "montecarlo.direct_mtps": mtps("direct"),
        "montecarlo.normals_mb": normals_bytes / 1e6,
    }


def _link_key(span, signatures):
    """(scenario, k_self, sorted interferer streams) of one per-link call."""
    a = _bound(signatures, span)
    if span[NAME] == "success_prob_equal_k":
        n = a["num_links"]
        return (a["num_antennas"], n, a["beta"], a["k_self"],
                (a["k_other"],) * (n - 1))
    config, alloc, link = a["config"], a["alloc"], a["link"]
    key = (config.num_antennas, config.num_links, config.sir_threshold,
           alloc.streams[link], tuple(sorted(alloc.others(link))))
    if span[NAME] == "empirical_link_success":
        key += (a["trials"], a["seed"])
    return key


def _optimizer_counts(spans, signatures, indices=None) -> dict[str, float]:
    evaluations = 0
    link_evals = 0
    keys = set()
    for i in range(len(spans)) if indices is None else indices:
        s = spans[i]
        if s[NAME] == "maximize_sum_capacity" and s[RESULT] is not None:
            evaluations += s[RESULT].evaluations
        if s[NAME] not in LINK_LEVEL:
            continue
        # Count a per-link call made on an optimizer's behalf, once: skip
        # calls nested inside another per-link call.
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] not in LINK_LEVEL:
            if spans[parent][LAYER] == "optimizer":
                link_evals += 1
                keys.add(_link_key(s, signatures))
                break
            parent = spans[parent][PARENT]
    return {
        "optimizer.evaluations": evaluations,
        "optimizer.link_evals": link_evals,
        "optimizer.distinct_ratio": len(keys) / link_evals if link_evals else 0.0,
    }


def task_breakdown(spans, signatures) -> dict[str, dict]:
    """Seconds and optimizer counts per task, from the benchmark's task spans."""
    root = []
    members = defaultdict(list)
    for i, s in enumerate(spans):  # a parent is always recorded before its children
        root.append(i if s[PARENT] < 0 else root[s[PARENT]])
        members[root[i]].append(i)
    out = {}
    for i, s in enumerate(spans):
        if s[LAYER] == "task":
            counts = _optimizer_counts(spans, signatures, members[i])
            out[s[NAME]] = {
                "seconds": s[END] - s[START],
                "link_evals": counts["optimizer.link_evals"],
                "distinct_ratio": counts["optimizer.distinct_ratio"],
            }
    return out
