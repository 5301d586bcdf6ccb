"""Command-line front-end: scenarios, figure datasets, thresholds, search.

Subcommands
    capacity   per-link success probabilities and capacities for one
               allocation, or a sweep over every allocation
    figure     the three standard datasets (capacity vs streams for
               several link counts; vs threshold; the 27-allocation
               sum-capacity table)
    nstar      analytic and empirical single-stream thresholds
    optimize   exhaustive or coordinate-descent sum-capacity search
    validate   self-check run comparing the backends against each other

Output is CSV (default) or JSON.  The first CSV line is a `#` comment
recording the resolved scenario and seed, so every file names the run
that produced it; no timestamps or host details appear anywhere, and
floats are printed with repr so files are byte-stable across runs and
worker counts.  Exit codes: 0 success, 2 invalid scenario or arguments,
3 numerical failure or failed validation, 4 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from . import analytic, montecarlo, optimizer
from .core import (
    DomainError,
    SearchBudgetError,
    StreamAllocation,
    SystemConfig,
    ZfOutageError,
    check_int,
    check_positive,
    clamp_count,
    reset_clamp_count,
)

_BACKENDS = ("analytic", "mc", "both")
_FORMATS = ("csv", "json")
# The optimizer objective of each single backend.
_OBJECTIVES = {"analytic": "analytic", "mc": "montecarlo"}

# Every optional value of every subcommand.  _COMMAND_DEFAULTS replaces
# the few that differ for one command or figure; a config file and then
# explicit flags override both.
_DEFAULTS = {
    "beta": 1.0,
    "rate": 1.0,
    "alloc": None,
    "alloc_sweep": False,
    "backend": "analytic",
    "trials": 100_000,
    "seed": 0,
    "workers": None,  # every CPU
    "out": None,
    "format": "csv",
    "k_other": 1,
    "window": 5,
    "cap": 10_000,
    "mode": "exhaustive",
    "budget": 1_000_000,
    "max_sweeps": 50,
}

_COMMAND_DEFAULTS = {
    "validate": {"trials": 20_000},
    "fig1": {"antennas": 10, "n_list": (5, 10, 15, 20, 30)},
    "fig2": {"antennas": 5, "links": 5, "beta_list": (0.25, 0.5, 1.0, 2.0, 4.0)},
    "fig3": {"antennas": 3, "links": 3},
}

# Comma-separated flags: element type, and the message for a bad entry.
_LISTS = {
    "alloc": (int, "alloc must be comma-separated integers"),
    "n_list": (int, "expected comma-separated values"),
    "beta_list": (float, "expected comma-separated values"),
}

# Figure flags, and the figures that read them.
_FIGURE_FLAGS = {
    "links": ("fig2", "fig3"),
    "beta": ("fig1", "fig3"),
    "n_list": ("fig1",),
    "beta_list": ("fig2",),
}

# Column suffixes (analytic, Monte Carlo) of the two backends' cells.
_PLAIN = ("", "")
_SUFFIXED = ("_analytic", "_mc")
_FIGURE = ("", "_mc")

# Stamp keys of the commands that take a scenario (capacity, optimize).
_SCENARIO_STAMP = ("links", "antennas", "beta", "rate", "backend")


def _parse_list(key: str, text: str) -> tuple:
    kind, message = _LISTS[key]
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"{message}, got {text!r}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"expected a boolean, got {text!r}")


# Keys a scenario config file may set, with their parsers.
_FILE_KEYS = {
    "links": int,
    "antennas": int,
    "beta": float,
    "rate": float,
    "rate_to_beta": float,
    "alloc": lambda text: _parse_list("alloc", text),
    "alloc_sweep": _parse_bool,
    "backend": str,
    "trials": int,
    "seed": int,
    "workers": int,
    "out": str,
    "format": str,
}


def _load_config_file(path: str) -> dict:
    """Parse a key=value scenario file; errors carry line numbers."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in _FILE_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FILE_KEYS[key](value)
        except DomainError:
            # A DomainError is also a ValueError, and already names the value.
            raise
        except ValueError:
            raise DomainError(f"{path}:{lineno}: bad value {value!r} for {key!r}")
    if "beta" in values and "rate_to_beta" in values:
        raise DomainError(f"{path}: sets both beta and rate_to_beta")
    if "backend" in values and values["backend"] not in _BACKENDS:
        raise DomainError(f"{path}: backend must be one of {_BACKENDS}")
    if "format" in values and values["format"] not in _FORMATS:
        raise DomainError(f"{path}: format must be one of {_FORMATS}")
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Merge defaults < config file < explicit command-line flags.

    The result holds every value the command reads.  Commands that read
    a config file (capacity, optimize) have no built-in scenario, so they
    need links and antennas from the file or the flags.
    """
    merged: dict = dict(_DEFAULTS)
    merged.update(_COMMAND_DEFAULTS.get(getattr(args, "which", args.command), {}))
    file_vals = _load_config_file(args.config) if getattr(args, "config", None) else {}
    merged.update(file_vals)

    flags = {key: value for key, value in vars(args).items() if value is not None}
    if args.command == "figure":
        for key, figures in _FIGURE_FLAGS.items():
            if key in flags and args.which not in figures:
                flag = "--" + key.replace("_", "-")
                raise DomainError(f"{flag} does not apply to {args.which}")
    for key in _LISTS:
        if key not in flags:
            continue
        if flags[key] or key == "alloc":
            flags[key] = _parse_list(key, flags[key])
        else:
            del flags[key]  # an empty figure list keeps the default list
    # A threshold given on the command line replaces one from the file,
    # whichever of the two spellings each source used.
    if "beta" in flags:
        merged.pop("rate_to_beta", None)
    merged.update(flags)

    rate_to_beta = merged.pop("rate_to_beta", None)
    if rate_to_beta is not None:
        check_positive("rate_to_beta", rate_to_beta)
        try:
            merged["beta"] = 2.0**rate_to_beta - 1.0
        except OverflowError:
            raise DomainError(
                f"rate_to_beta {rate_to_beta!r} is too large: 2**R overflows"
            ) from None
        if "rate" not in file_vals and "rate" not in flags:
            merged["rate"] = rate_to_beta

    if "config" in args:
        for key in ("links", "antennas"):
            if merged.get(key) is None:
                raise DomainError(f"{key} is required (flag --{key} or config file)")
    if merged["workers"] is not None:
        check_int("workers", merged["workers"], 1)
    if merged["alloc"] is not None and merged["alloc_sweep"]:
        raise DomainError("alloc and alloc_sweep are mutually exclusive")
    if merged["backend"] != "analytic":
        trials = check_int("trials", merged["trials"], 1_000)
        if trials < 100_000:
            print(
                f"warning: {trials} trials is below 100000; "
                "standard errors will be wide",
                file=sys.stderr,
            )
    return argparse.Namespace(**merged)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)  # a float's str is its repr, which round-trips


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(run: argparse.Namespace, stamp: dict, rows: list[dict]) -> None:
    """Write the stamp and the rows; the keys of each row are the columns."""
    columns = list(rows[0])
    if run.format == "csv":
        lines = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in stamp.items())]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row.values()))
        text = "\n".join(lines) + "\n"
    else:
        values = [list(row.values()) for row in rows]
        payload = {"spec": stamp, "columns": columns, "rows": values}
        text = json.dumps(payload, indent=2) + "\n"
    _write(run.out, text)


def _stamp(run: argparse.Namespace, *keys: str) -> dict:
    """The command, the named run values, then trials and seed if simulated."""
    stamp = {"cmd": run.command}
    stamp.update((key, getattr(run, key)) for key in keys)
    if run.backend != "analytic":
        stamp["trials"] = run.trials
        stamp["seed"] = run.seed
    return stamp


def _k_columns(streams: Sequence[int]) -> dict:
    return {f"k{i + 1}": k for i, k in enumerate(streams)}


def _cells(prob: float, capacity: float, std_error: float | None = None) -> dict:
    """One backend's cells for a link; only Monte Carlo has a std_error."""
    cells = {"success_prob": prob}
    if std_error is not None:
        cells["std_error"] = std_error
    cells["capacity"] = capacity
    return cells


def _join(row: dict, cells: dict, suffixes: tuple, abs_diff: bool) -> dict:
    """Append each backend's cells to ``row`` and return it.

    ``cells`` maps "analytic" and/or "mc" to that backend's ordered
    {column: value} cells; a column is named with the backend's entry of
    ``suffixes``.  With both backends and ``abs_diff``, a last column
    holds the gap between the two backends' first cells.
    """
    for backend, values in cells.items():
        suffix = suffixes[0] if backend == "analytic" else suffixes[1]
        for name, value in values.items():
            row[name + suffix] = value
    if abs_diff and len(cells) == 2:
        first, second = (next(iter(values.values())) for values in cells.values())
        row["abs_diff"] = abs(first - second)
    return row


def _allocation_sweep(
    run: argparse.Namespace, config: SystemConfig, suffixes: tuple, abs_diff: bool
) -> list[dict]:
    """One row of sum capacities per allocation, in lexicographic order.

    Each backend's cells are the table of one exhaustive search, so the
    search's budget bounds the sweep.
    """
    backends = [b for b in _OBJECTIVES if run.backend in (b, "both")]
    tables = {
        backend: optimizer.maximize_sum_capacity(
            config, "exhaustive", _OBJECTIVES[backend], budget=run.budget,
            trials=run.trials, seed=run.seed, workers=run.workers,
        ).per_candidate_values
        for backend in backends
    }
    rows = []
    for streams in tables[backends[0]]:
        cells = {b: {"sum_capacity": tables[b][streams]} for b in backends}
        rows.append(_join(_k_columns(streams), cells, suffixes, abs_diff))
    return rows


def cmd_capacity(run: argparse.Namespace) -> int:
    config = SystemConfig(run.links, run.antennas, run.beta, run.rate)
    stamp = _stamp(run, *_SCENARIO_STAMP)

    if run.alloc_sweep:
        stamp["alloc"] = "sweep"
        _emit(run, stamp, _allocation_sweep(run, config, _SUFFIXED, True))
        return 0

    streams = run.alloc if run.alloc is not None else (1,) * run.links
    alloc = StreamAllocation(streams)
    stamp["alloc"] = ",".join(str(k) for k in alloc.streams)
    reports = {}
    if run.backend != "mc":
        reports["analytic"] = analytic.sum_capacity_analytic(config, alloc)
    if run.backend != "analytic":
        reports["mc"] = montecarlo.empirical_outage(
            config, alloc, run.trials, run.seed, workers=run.workers
        )
    # With both backends the table compares per-link values side by side;
    # the sum capacity appears only in a single-backend table.
    both = len(reports) == 2
    rows = []
    for n, k in enumerate(alloc.streams):
        cells = {}
        for backend, report in reports.items():
            std_error = None if report.std_error is None else report.std_error[n]
            cells[backend] = _cells(
                report.per_link_success_prob[n], report.per_link_capacity[n], std_error
            )
            if not both:
                cells[backend]["sum_capacity"] = report.sum_capacity
        row = {"link": n + 1, "streams": k}
        rows.append(_join(row, cells, _SUFFIXED if both else _PLAIN, both))
    _emit(run, stamp, rows)
    return 0


def cmd_figure(run: argparse.Namespace) -> int:
    stamp = _stamp(run, "which", "antennas", "rate", "backend")
    if run.which == "fig3":
        stamp["links"] = run.links
        stamp["beta"] = run.beta
        config = SystemConfig(run.links, run.antennas, run.beta, run.rate)
        _emit(run, stamp, _allocation_sweep(run, config, _FIGURE, False))
        return 0

    # fig1 sweeps the link count at one threshold, fig2 the threshold at
    # one link count; both vary the streams k1 of link 0 only.
    if run.which == "fig1":
        stamp["beta"] = run.beta
        stamp["n_list"] = ",".join(str(n) for n in run.n_list)
        column, values = "links", run.n_list
    else:
        stamp["links"] = run.links
        stamp["beta_list"] = ",".join(repr(b) for b in run.beta_list)
        column, values = "beta", run.beta_list
    # Only link 0's estimates are printed, so only link 0 is simulated.
    k1_values = range(1, run.antennas + 1)
    if run.backend != "analytic" and column == "beta":
        # The draws never depend on beta: one sweep per k1 gives every
        # threshold's estimate, bitwise the single-threshold one.
        config = SystemConfig(run.links, run.antennas, values[0], run.rate)
        per_beta = zip(*[
            montecarlo.link_success_sweep(
                config, StreamAllocation((k1,) + (1,) * (run.links - 1)), 0,
                values, run.trials, run.seed, workers=run.workers,
            )
            for k1 in k1_values
        ])
    rows = []
    for value in values:
        links, beta = (value, run.beta) if column == "links" else (run.links, value)
        config = SystemConfig(links, run.antennas, beta, run.rate)
        if run.backend != "analytic" and column == "links":
            # fig1 simulates each link count in one table over k1.
            allocs = [StreamAllocation((k1,) + (1,) * (links - 1)) for k1 in k1_values]
            estimates = montecarlo.link_success_table(
                config, allocs, 0, run.trials, run.seed, workers=run.workers
            )
        elif run.backend != "analytic":
            estimates = next(per_beta)
        for k1 in k1_values:
            cells = {}
            if run.backend != "mc":
                p = analytic.success_prob_equal_k(run.antennas, links, k1, 1, beta)
                cells["analytic"] = _cells(p, run.rate * k1 * p)
            if run.backend != "analytic":
                est = estimates[k1 - 1]
                cells["mc"] = _cells(est.prob, run.rate * k1 * est.prob, est.std_error)
            rows.append(_join({column: value, "k1": k1}, cells, _FIGURE, False))
    _emit(run, stamp, rows)
    return 0


def cmd_nstar(run: argparse.Namespace) -> int:
    threshold = optimizer.empirical_threshold(
        run.antennas, run.beta, run.k_other, window=run.window, cap=run.cap
    )
    # Past 2**53 there is no analytic bound: its cells are empty (JSON null).
    bound = threshold.analytic
    stamp = _stamp(run, "antennas", "beta", "k_other")
    row = {
        "analytic_n_star": bound and bound.n_star,
        "binding_p": bound and bound.binding_p,
        "empirical_threshold": threshold.threshold,
        "analytic_ratio": bound and bound.n_star / run.antennas,
        "empirical_ratio": threshold.threshold / run.antennas,
    }
    _emit(run, stamp, [row])
    return 0


def cmd_optimize(run: argparse.Namespace) -> int:
    if run.backend == "both":
        raise DomainError("optimize takes backend analytic or mc, not both")
    result = optimizer.maximize_sum_capacity(
        SystemConfig(run.links, run.antennas, run.beta, run.rate),
        mode=run.mode,
        objective=_OBJECTIVES[run.backend],
        budget=run.budget,
        max_sweeps=run.max_sweeps,
        trials=run.trials,
        seed=run.seed,
        workers=run.workers,
    )
    best = result.best_allocation.streams
    stamp = _stamp(run, *_SCENARIO_STAMP)
    stamp["mode"] = run.mode
    stamp["best"] = ",".join(str(k) for k in best)
    if run.mode == "exhaustive":
        rows = []
        for streams, value in result.per_candidate_values.items():
            row = {**_k_columns(streams), "sum_capacity": value}
            row["is_best"] = 1 if streams == best else 0
            rows.append(row)
    else:
        row = {
            **_k_columns(best),
            "sum_capacity": result.best_value,
            "fixed_point": result.fixed_point,
            "evaluations": result.evaluations,
        }
        rows = [row]
    _emit(run, stamp, rows)
    return 0


def cmd_validate(run: argparse.Namespace) -> int:
    """Cross-backend agreement suite; prints one PASS/FAIL line per check."""
    trials, seed, workers = run.trials, run.seed, run.workers
    check_int("trials", trials, 1_000)
    reset_clamp_count()
    lines: list[str] = []
    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    # Exact M=1 closed form against both samplers.
    cfg = SystemConfig(2, 1, 1.0, 1.0)
    al = StreamAllocation((1, 1))
    exact = 0.5
    p_analytic = analytic.success_prob_equal_k(1, 2, 1, 1, 1.0)
    check(
        "closed-form-exact",
        abs(p_analytic - exact) <= 1e-12,
        f"analytic {p_analytic!r} vs exact {exact!r}",
    )
    est = montecarlo.empirical_link_success(cfg, al, 0, trials, seed, workers=workers)
    tol = 3.0 * est.std_error
    check(
        "full-channel-vs-exact",
        abs(est.prob - exact) <= tol,
        f"mc {est.prob!r} within {tol!r} of {exact!r}",
    )
    direct = montecarlo.direct_distribution_outage(
        1, 1, [1], 1.0, trials, seed, workers=workers
    )
    tol = 3.0 * direct.std_error
    check(
        "direct-vs-exact",
        abs(direct.prob - exact) <= tol,
        f"direct {direct.prob!r} within {tol!r} of {exact!r}",
    )

    # Full-channel vs analytic on a multi-antenna scenario.
    cfg2 = SystemConfig(4, 3, 1.0, 1.0)
    al2 = StreamAllocation((2, 1, 1, 1))
    p_closed = analytic.link_success_prob(cfg2, al2, 0)
    est2 = montecarlo.empirical_link_success(cfg2, al2, 0, trials, seed, workers=workers)
    tol = max(3.0 * est2.std_error, 5e-3)
    check(
        "full-channel-vs-closed-form",
        abs(est2.prob - p_closed) <= tol,
        f"mc {est2.prob!r} vs closed form {p_closed!r} (tol {tol!r})",
    )

    # The two samplers against each other on a heterogeneous scenario.
    cfg3 = SystemConfig(4, 4, 1.0, 1.0)
    al3 = StreamAllocation((1, 1, 2, 4))
    full = montecarlo.empirical_link_success(cfg3, al3, 0, trials, seed, workers=workers)
    direct3 = montecarlo.direct_distribution_outage(
        4, 1, [1, 2, 4], 1.0, trials, seed, workers=workers
    )
    tol = 3.0 * math.hypot(full.std_error, direct3.std_error)
    check(
        "full-channel-vs-direct",
        abs(full.prob - direct3.prob) <= tol,
        f"full {full.prob!r} vs direct {direct3.prob!r} (tol {tol!r})",
    )

    # Equal-weight reduction of the general form.
    worst = 0.0
    for m, n, k, b in ((2, 4, 1, 0.5), (4, 3, 2, 1.0), (8, 5, 2, 4.0)):
        a = analytic.success_prob_equal_k(m, n, 1, k, b)
        g = analytic.success_prob_general(m, 1, [k] * (n - 1), b)
        if a > 0.0:
            worst = max(worst, abs(a - g) / a)
    check(
        "general-equal-k-consistency",
        worst <= 1e-12,
        f"worst relative gap {worst!r}",
    )

    # Threshold sweep shares its run with single-threshold calls.
    sweep = montecarlo.link_success_sweep(
        cfg2, al2, 0, [0.5, 2.0], trials, seed, workers=workers
    )
    single = montecarlo.empirical_link_success(
        SystemConfig(4, 3, 2.0, 1.0), al2, 0, trials, seed, workers=workers
    )
    check(
        "sweep-matches-single",
        sweep[1].prob == single.prob,
        f"sweep {sweep[1].prob!r} vs single {single.prob!r}",
    )

    check("clamp-diagnostics", clamp_count() == 0, f"{clamp_count()} clamp events")

    text = "\n".join(lines) + "\n"
    summary = f"{len(lines) - failures}/{len(lines)} checks passed\n"
    _write(run.out, text + summary)
    return 3 if failures else 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Backend, Monte Carlo and output flags of capacity, figure and optimize."""
    parser.add_argument(
        "--backend", choices=_BACKENDS, help="computation backend (default analytic)"
    )
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per estimate")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed (default 0)")
    parser.add_argument(
        "--workers", type=int, help="parallel workers (default: every CPU)"
    )
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=_FORMATS, help="output format")


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value scenario file")
    parser.add_argument("--links", type=int, help="number of links N")
    parser.add_argument("--antennas", type=int, help="antennas per node M")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, help="SIR threshold")
    group.add_argument(
        "--rate-to-beta",
        dest="rate_to_beta",
        type=float,
        metavar="R",
        help="set beta = 2**R - 1 (and rate = R unless --rate is given)",
    )
    parser.add_argument("--rate", type=float, help="per-stream rate R (default 1)")
    _add_run_flags(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfoutage",
        description="Outage capacities of zero-forcing MIMO interference links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="per-link capacities for one scenario")
    _add_scenario_flags(p_cap)
    alloc_group = p_cap.add_mutually_exclusive_group()
    alloc_group.add_argument("--alloc", help="stream counts k1,k2,... (default all 1)")
    alloc_group.add_argument(
        "--alloc-sweep",
        dest="alloc_sweep",
        action="store_const",
        const=True,
        help="tabulate every allocation instead of one",
    )

    p_fig = sub.add_parser("figure", help="reproduce a standard dataset")
    p_fig.add_argument("which", choices=("fig1", "fig2", "fig3"))
    p_fig.add_argument("--antennas", type=int, help="override the default M")
    p_fig.add_argument("--links", type=int, help="override N (fig2/fig3)")
    p_fig.add_argument("--beta", type=float, help="override beta (fig1/fig3)")
    p_fig.add_argument("--rate", type=float, help="per-stream rate (default 1)")
    p_fig.add_argument("--n-list", dest="n_list", help="fig1 link counts, e.g. 5,10,30")
    p_fig.add_argument(
        "--beta-list", dest="beta_list", help="fig2 thresholds, e.g. 0.25,1,4"
    )
    _add_run_flags(p_fig)

    p_nstar = sub.add_parser("nstar", help="single-stream link-count thresholds")
    p_nstar.add_argument("--antennas", type=int, required=True)
    p_nstar.add_argument("--beta", type=float)
    p_nstar.add_argument("--k-other", dest="k_other", type=int)
    p_nstar.add_argument("--window", type=int, help="stability window (default 5)")
    p_nstar.add_argument("--cap", type=int, help="scan cap (default 10000)")
    p_nstar.add_argument("--out")
    p_nstar.add_argument("--format", choices=_FORMATS)

    p_opt = sub.add_parser("optimize", help="search for the best allocation")
    _add_scenario_flags(p_opt)
    p_opt.add_argument("--mode", choices=("exhaustive", "coordinate"))
    p_opt.add_argument("--budget", type=int, help="exhaustive candidate budget")
    p_opt.add_argument("--max-sweeps", dest="max_sweeps", type=int)

    p_val = sub.add_parser("validate", help="run the cross-backend agreement suite")
    p_val.add_argument("--trials", type=int, help="trials per check (default 20000)")
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--workers", type=int)
    p_val.add_argument("--out", help="write the report here instead of stdout")

    return parser


# Exit status per error class; the first match wins, so every package
# error other than these two, a numerical failure among them, exits 3.
_EXIT_CODES = (
    (SearchBudgetError, 4),
    (DomainError, 2),
    (ZfOutageError, 3),
    (OSError, 2),
)

_COMMANDS = {
    "capacity": cmd_capacity,
    "figure": cmd_figure,
    "nstar": cmd_nstar,
    "optimize": cmd_optimize,
    "validate": cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_resolve(args))
    except (ZfOutageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
