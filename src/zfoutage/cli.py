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
import functools
import json
import math
import sys
from itertools import chain
from typing import Callable, NamedTuple, Sequence

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

# The optimizer objective of each single backend.
_OBJECTIVES = {"analytic": "analytic", "mc": "montecarlo"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"expected a boolean, got {text!r}")


class _Option(NamedTuple):
    """An option's default, how to read its value, and its help.

    ``kind`` reads a value from text, or one entry of it when
    ``list_error`` is set: the value is then a comma-separated list, and
    ``list_error`` the message for a bad entry.  A flag whose ``kind`` is
    ``_parse_bool`` takes no value.  ``file=False`` keeps the option out
    of config files.  The parser adds the default to ``help``.
    """

    default: object
    kind: Callable[[str], object]
    help: str
    choices: tuple | None = None
    list_error: str | None = None
    metavar: str | None = None
    file: bool = True


_BAD_LIST = "expected comma-separated values"

# Every option of every subcommand.  _COMMAND_DEFAULTS replaces the few
# defaults that differ for one command or figure; a config file and then
# explicit flags override both.
_OPTIONS = {
    "config": _Option(None, str, "key=value scenario file", file=False),
    "links": _Option(None, int, "number of links N"),
    "antennas": _Option(None, int, "antennas per node M"),
    "beta": _Option(1.0, float, "SIR threshold"),
    "rate_to_beta": _Option(
        None, float, "set beta = 2**R - 1 (and rate = R unless --rate is given)",
        metavar="R",
    ),
    "rate": _Option(1.0, float, "per-stream rate R"),
    "n_list": _Option(None, int, "fig1 link counts, e.g. 5,10,30", list_error=_BAD_LIST),
    "beta_list": _Option(
        None, float, "fig2 thresholds, e.g. 0.25,1,4", list_error=_BAD_LIST
    ),
    "backend": _Option(
        "analytic", str, "computation backend", choices=("analytic", "mc", "both")
    ),
    "trials": _Option(100_000, int, "Monte Carlo trials per estimate"),
    "seed": _Option(0, int, "Monte Carlo seed"),
    "workers": _Option(None, int, "parallel workers (default: every CPU)"),
    "out": _Option(None, str, "output path (default stdout)"),
    "format": _Option("csv", str, "output format", choices=("csv", "json")),
    "alloc": _Option(
        None, int, "stream counts k1,k2,... (default all 1)",
        list_error="alloc must be comma-separated integers",
    ),
    "alloc_sweep": _Option(False, _parse_bool, "tabulate every allocation, not one"),
    "k_other": _Option(1, int, "streams of every other link"),
    "window": _Option(5, int, "stability window"),
    "cap": _Option(10_000, int, "scan cap"),
    "mode": _Option(
        "exhaustive", str, "search mode", choices=("exhaustive", "coordinate"),
        file=False,
    ),
    "budget": _Option(1_000_000, int, "exhaustive candidate budget", file=False),
    "max_sweeps": _Option(50, int, "coordinate-descent sweep limit", file=False),
}

_COMMAND_DEFAULTS = {
    "validate": {"trials": 20_000},
    "fig1": {"antennas": 10, "n_list": (5, 10, 15, 20, 30)},
    "fig2": {"antennas": 5, "links": 5, "beta_list": (0.25, 0.5, 1.0, 2.0, 4.0)},
    "fig3": {"antennas": 3, "links": 3},
}

# The flags each figure reads, in the order its stamp names them.
_FIGURES = {
    "fig1": ("beta", "n_list"),
    "fig2": ("links", "beta_list"),
    "fig3": ("links", "beta"),
}

# Column suffixes (analytic, Monte Carlo) of the two backends' cells.
_PLAIN = ("", "")
_SUFFIXED = ("_analytic", "_mc")
_FIGURE = ("", "_mc")

# Each backend's cells of one link, in column order.
_LINK_CELLS = {
    "analytic": ("success_prob", "capacity"),
    "mc": ("success_prob", "std_error", "capacity"),
}

# Stamp keys of the commands that take a scenario (capacity, optimize).
_SCENARIO_STAMP = ("links", "antennas", "beta", "rate", "backend")


def _read_value(key: str, text: str):
    """``text`` as a value of option ``key``."""
    option = _OPTIONS[key]
    if option.list_error is None:
        return option.kind(text)
    try:
        return tuple(option.kind(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"{option.list_error}, got {text!r}")


def _load_config_file(path: str, keys) -> dict:
    """Parse a key=value scenario file that sets options among ``keys``.

    Every error about a line, its key or its value, names the line; a
    file setting both beta and rate_to_beta names the second of the two.
    """
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
        if key not in keys or key not in _OPTIONS or not _OPTIONS[key].file:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _read_value(key, value)
        except DomainError as exc:
            # A DomainError is also a ValueError, and already names the value.
            raise DomainError(f"{path}:{lineno}: {exc}") from None
        except ValueError:
            raise DomainError(f"{path}:{lineno}: bad value {value!r} for {key!r}")
        choices = _OPTIONS[key].choices
        if choices and values[key] not in choices:
            raise DomainError(f"{path}:{lineno}: {key} must be one of {choices}")
        if "beta" in values and "rate_to_beta" in values:
            raise DomainError(f"{path}:{lineno}: sets both beta and rate_to_beta")
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Merge defaults < config file < explicit command-line flags.

    The result holds every value the command reads.  Commands that read
    a config file (capacity, optimize) have no built-in scenario, so they
    need links and antennas from the file or the flags.
    """
    merged = {key: option.default for key, option in _OPTIONS.items()}
    merged.update(_COMMAND_DEFAULTS.get(getattr(args, "which", args.command), {}))
    config = getattr(args, "config", None)
    file_vals = _load_config_file(config, vars(args)) if config else {}
    merged.update(file_vals)

    flags = {key: value for key, value in vars(args).items() if value is not None}
    if args.command == "figure":
        # In a fixed order, not a set's: of two misplaced flags, the error
        # names the same one on every run.
        for key in dict.fromkeys(chain.from_iterable(_FIGURES.values())):
            if key in flags and key not in _FIGURES[args.which]:
                flag = "--" + key.replace("_", "-")
                raise DomainError(f"{flag} does not apply to {args.which}")
    for key, option in _OPTIONS.items():
        if option.list_error is not None and key in flags:
            flags[key] = _read_value(key, flags[key])
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


def _emit(run: argparse.Namespace, stamp: dict, columns: list[str], rows: list) -> None:
    """Write the stamp, the columns and one line per row, a tuple of cells."""
    if run.format == "csv":
        lines = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in stamp.items())]
        lines.append(",".join(columns))
        if {int, float}.issuperset(map(type, chain.from_iterable(rows))):
            # Ints and floats alone, as in every large table: a cell is its str.
            template = ",".join(["%s"] * len(columns))
            lines.extend(template % row for row in rows)
        else:
            lines.extend(",".join(map(_fmt, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {"spec": stamp, "columns": columns, "rows": rows}
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


def _k_columns(num_links: int) -> list[str]:
    return [f"k{i}" for i in range(1, num_links + 1)]


def _columns(
    head: Sequence[str], cells: dict, suffixes: tuple, abs_diff: bool
) -> list[str]:
    """``head``, then each backend's cell names, then abs_diff if asked.

    ``cells`` maps "analytic" and/or "mc" to that backend's cell names; a
    column is named with the backend's entry of ``suffixes``.
    """
    columns = list(head)
    for backend, names in cells.items():
        suffix = suffixes[0] if backend == "analytic" else suffixes[1]
        columns.extend(name + suffix for name in names)
    if abs_diff:
        columns.append("abs_diff")
    return columns


def _allocation_sweep(
    run: argparse.Namespace, config: SystemConfig, suffixes: tuple, abs_diff: bool
) -> tuple[list[str], list[tuple]]:
    """Columns, and a row of sum capacities per allocation in lexicographic order.

    Each backend's cells are the table of one exhaustive search, so the
    search's budget bounds the sweep.
    """
    backends = [b for b in _OBJECTIVES if run.backend in (b, "both")]
    abs_diff = abs_diff and len(backends) == 2
    tables = [
        optimizer.maximize_sum_capacity(
            config, "exhaustive", _OBJECTIVES[backend], budget=run.budget,
            trials=run.trials, seed=run.seed, workers=run.workers,
        ).per_candidate_values
        for backend in backends
    ]
    cells = {b: ("sum_capacity",) for b in backends}
    columns = _columns(_k_columns(config.num_links), cells, suffixes, abs_diff)
    # Every table lists the allocations in the same order.
    sums = zip(*(table.values() for table in tables))
    if abs_diff:
        sums = ((first, second, abs(first - second)) for first, second in sums)
    return columns, [streams + values for streams, values in zip(tables[0], sums)]


def cmd_capacity(run: argparse.Namespace) -> int:
    """Per-link capacities for one scenario."""
    config = SystemConfig(run.links, run.antennas, run.beta, run.rate)
    stamp = _stamp(run, *_SCENARIO_STAMP)

    if run.alloc_sweep:
        stamp["alloc"] = "sweep"
        _emit(run, stamp, *_allocation_sweep(run, config, _SUFFIXED, True))
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
    sums = () if both else ("sum_capacity",)
    names = {backend: _LINK_CELLS[backend] + sums for backend in reports}
    columns = _columns(("link", "streams"), names, _SUFFIXED if both else _PLAIN, both)
    rows = []
    for n, k in enumerate(alloc.streams):
        row = (n + 1, k)
        for report in reports.values():
            spread = () if report.std_error is None else (report.std_error[n],)
            total = () if both else (report.sum_capacity,)
            row += (report.per_link_success_prob[n], *spread)
            row += (report.per_link_capacity[n], *total)
        if both:
            first, second = (r.per_link_success_prob[n] for r in reports.values())
            row += (abs(first - second),)
        rows.append(row)
    _emit(run, stamp, columns, rows)
    return 0


def cmd_figure(run: argparse.Namespace) -> int:
    """Reproduce a standard dataset."""
    stamp = _stamp(run, "which", "antennas", "rate", "backend")
    for key in _FIGURES[run.which]:
        value = getattr(run, key)
        stamp[key] = ",".join(map(str, value)) if isinstance(value, tuple) else value
    if run.which == "fig3":
        config = SystemConfig(run.links, run.antennas, run.beta, run.rate)
        _emit(run, stamp, *_allocation_sweep(run, config, _FIGURE, False))
        return 0

    # fig1 sweeps the link count at one threshold, fig2 the threshold at
    # one link count; both vary the streams k1 of link 0 only.  Per link
    # count, the (printed value, scenario) pairs of its rows: every
    # scenario is checked before any simulation.
    if run.which == "fig1":
        column = "links"
        per_links = [
            [(n, SystemConfig(n, run.antennas, run.beta, run.rate))] for n in run.n_list
        ]
    else:
        column = "beta"
        per_links = [[
            (b, SystemConfig(run.links, run.antennas, b, run.rate))
            for b in run.beta_list
        ]]
    k1_values = range(1, run.antennas + 1)
    cells = {b: _LINK_CELLS[b] for b in _LINK_CELLS if run.backend in (b, "both")}
    columns = _columns((column, "k1"), cells, _FIGURE, False)
    rows = []
    for scenarios in per_links:
        links = scenarios[0][1].num_links
        if run.backend != "analytic":
            # One grid over k1 and the thresholds.  Only link 0's estimates
            # are printed, so only link 0 is simulated, and each entry is
            # bitwise its own empirical_link_success call.
            allocs = [StreamAllocation((k1,) + (1,) * (links - 1)) for k1 in k1_values]
            grid = montecarlo._link_estimates(
                scenarios[0][1], allocs, 0, [c.sir_threshold for _, c in scenarios],
                run.trials, run.seed, run.workers,
            )
        for j, (value, config) in enumerate(scenarios):
            for k1 in k1_values:
                row = (value, k1)
                if run.backend != "mc":
                    beta = config.sir_threshold
                    p = analytic.success_prob_equal_k(run.antennas, links, k1, 1, beta)
                    row += (p, run.rate * k1 * p)
                if run.backend != "analytic":
                    est = grid[k1 - 1][j]
                    row += (est.prob, est.std_error, run.rate * k1 * est.prob)
                rows.append(row)
    _emit(run, stamp, columns, rows)
    return 0


def cmd_nstar(run: argparse.Namespace) -> int:
    """Single-stream link-count thresholds."""
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
    _emit(run, stamp, list(row), [tuple(row.values())])
    return 0


def cmd_optimize(run: argparse.Namespace) -> int:
    """Search for the best allocation."""
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
        columns = [*_k_columns(run.links), "sum_capacity", "is_best"]
        rows = [
            (*streams, value, 1 if streams == best else 0)
            for streams, value in result.per_candidate_values.items()
        ]
    else:
        columns = [*_k_columns(run.links), "sum_capacity", "fixed_point", "evaluations"]
        rows = [(*best, result.best_value, result.fixed_point, result.evaluations)]
    _emit(run, stamp, columns, rows)
    return 0


def cmd_validate(run: argparse.Namespace) -> int:
    """Cross-backend agreement suite; prints one PASS/FAIL line per check."""
    check_int("trials", run.trials, 1_000)
    reset_clamp_count()
    mc = {"trials": run.trials, "seed": run.seed, "workers": run.workers}
    full = functools.partial(montecarlo.empirical_link_success, link=0, **mc)

    # An exact M=1 value, a multi-antenna scenario and a mixed-interferer one.
    full1 = full(SystemConfig(2, 1, 1.0, 1.0), StreamAllocation((1, 1)))
    direct1 = montecarlo.direct_distribution_outage(1, 1, [1], 1.0, **mc)
    cfg2, al2 = SystemConfig(4, 3, 1.0, 1.0), StreamAllocation((2, 1, 1, 1))
    full2 = full(cfg2, al2)
    cfg3, al3 = SystemConfig(4, 4, 1.0, 1.0), StreamAllocation((1, 1, 2, 4))
    full3 = full(cfg3, al3)
    direct3 = montecarlo.direct_distribution_outage(4, 1, [1, 2, 4], 1.0, **mc)
    exact3 = analytic.link_success_prob(cfg3, al3, 0)
    # A threshold sweep shares its run with single-threshold calls.
    sweep = montecarlo.link_success_sweep(cfg2, al2, 0, [0.5, 2.0], **mc)
    single = full(SystemConfig(4, 3, 2.0, 1.0), al2)
    # Equal-weight reduction of the general form.
    worst = 0.0
    for m, n, k, b in ((2, 4, 1, 0.5), (4, 3, 2, 1.0), (8, 5, 2, 4.0)):
        a = analytic.success_prob_equal_k(m, n, 1, k, b)
        g = analytic.success_prob_general(m, 1, [k] * (n - 1), b)
        if a > 0.0:
            worst = max(worst, abs(a - g) / a)

    # (name, label, value, reference label, reference, tolerance).  The
    # clamp count comes last, after every closed form the table evaluates.
    checks = (
        ("closed-form-exact", "analytic",
         analytic.success_prob_equal_k(1, 2, 1, 1, 1.0), "exact", 0.5, 1e-12),
        ("full-channel-vs-exact", "mc", full1.prob, "exact", 0.5,
         3.0 * full1.std_error),
        ("direct-vs-exact", "direct", direct1.prob, "exact", 0.5,
         3.0 * direct1.std_error),
        ("full-channel-vs-closed-form", "mc", full2.prob, "closed form",
         analytic.link_success_prob(cfg2, al2, 0), max(3.0 * full2.std_error, 5e-3)),
        ("full-channel-vs-direct", "full", full3.prob, "direct", direct3.prob,
         3.0 * math.hypot(full3.std_error, direct3.std_error)),
        ("full-channel-vs-exact-hetero", "full", full3.prob, "exact", exact3,
         3.0 * full3.std_error),
        ("direct-vs-exact-hetero", "direct", direct3.prob, "exact", exact3,
         3.0 * direct3.std_error),
        # The paper's gamma fit against the exact form, within the 2e-2 that
        # criterion 4 checks against the direct sampler only on M in {2, 4},
        # k_self in {1, 2}, mixes (1,2), (1,2,4), (1,1,2,3) and beta in {0.5, 1, 4}.
        ("gamma-fit-gap", "fit", analytic.success_prob_general(4, 1, [1, 2, 4], 1.0),
         "exact", exact3, 2e-2),
        ("general-equal-k-consistency", "worst relative gap", worst, "exact", 0.0,
         1e-12),
        ("sweep-matches-single", "sweep", sweep[1].prob, "single", single.prob, 0.0),
        ("clamp-diagnostics", "clamp events", clamp_count(), "expected", 0, 0),
    )
    lines = [
        f"{'PASS' if abs(value - reference) <= tol else 'FAIL'} {name}: "
        f"{label} {value!r} vs {ref_label} {reference!r} (tol {tol!r})\n"
        for name, label, value, ref_label, reference, tol in checks
    ]
    passed = sum(line.startswith("PASS") for line in lines)
    _write(run.out, "".join(lines) + f"{passed}/{len(lines)} checks passed\n")
    return 0 if passed == len(lines) else 3


# Exit status per error class; the first match wins, so every package
# error other than these two, a numerical failure among them, exits 3.
_EXIT_CODES = (
    (SearchBudgetError, 4),
    (DomainError, 2),
    (ZfOutageError, 3),
    (OSError, 2),
)

_RUN = ("backend", "trials", "seed", "workers", "out", "format")
_SCENARIO = ("config", "links", "antennas", "beta|rate_to_beta", "rate", *_RUN)

# Each command's function, whose docstring is its help, and its options
# in --help order; options joined by "|" are mutually exclusive.
_COMMANDS = {
    "capacity": (cmd_capacity, (*_SCENARIO, "alloc|alloc_sweep")),
    "figure": (
        cmd_figure, ("antennas", "links", "beta", "rate", "n_list", "beta_list", *_RUN)
    ),
    "nstar": (
        cmd_nstar, ("antennas", "beta", "k_other", "window", "cap", "out", "format")
    ),
    "optimize": (cmd_optimize, (*_SCENARIO, "mode", "budget", "max_sweeps")),
    "validate": (cmd_validate, ("trials", "seed", "workers", "out")),
}

# Flags a command needs on its command line.  capacity and optimize may
# take links and antennas from a config file; _resolve checks those.
_REQUIRED = {("nstar", "antennas")}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of every command, built on first use."""
    parser = argparse.ArgumentParser(
        prog="zfoutage",
        description="Outage capacities of zero-forcing MIMO interference links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (function, entries) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=function.__doc__)
        if command == "figure":
            p_cmd.add_argument("which", choices=("fig1", "fig2", "fig3"))
        defaults = _COMMAND_DEFAULTS.get(command, {})
        for entry in entries:
            keys = entry.split("|")
            group = p_cmd if len(keys) == 1 else p_cmd.add_mutually_exclusive_group()
            for key in keys:
                option = _OPTIONS[key]
                flag = "--" + key.replace("_", "-")
                if option.kind is _parse_bool:
                    group.add_argument(
                        flag, dest=key, action="store_const", const=True,
                        help=option.help,
                    )
                    continue
                default = defaults.get(key, option.default)
                shown = "" if default is None else f" (default {default})"
                group.add_argument(
                    flag,
                    dest=key,
                    type=None if option.list_error else option.kind,
                    choices=option.choices,
                    required=(command, key) in _REQUIRED,
                    metavar=option.metavar,
                    help=option.help + shown,
                )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve(args))
    except (ZfOutageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
