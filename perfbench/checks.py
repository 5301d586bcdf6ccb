"""Correctness checks on task results.

Every check must hold for any correct implementation, not for today's
bytes: Monte Carlo streams and the heterogeneous closed form are free to
change.  Equal-interferer success probabilities are compared with the
negative-binomial CDF from scipy.stats, an independent evaluation of the
exact series; Monte Carlo estimates get statistical tolerances.
"""

from __future__ import annotations

import math

from scipy.stats import nbinom

# nstar --antennas 10 --beta 0.01: analytic N*, its binding stream count,
# and the empirical single-stream threshold.
NSTAR_EXPECTED = (4757, 1, 438)
# Best allocation of three links at beta = 1, with two or three antennas,
# under both objectives.
BEST_3LINK = (1, 1, 1)
# Accepted error of the moment-matched heterogeneous form (criterion 4).
GAMMA_FIT_TOL = 2e-2


def equal_k_exact(m: int, n: int, k_self: int, k_other: int, beta: float) -> float:
    """P(SIR >= beta) with equal interferers: NegBin(lam, 1/(1+d)) CDF at M-k."""
    lam = (n - 1) * k_other
    d = beta * k_self / k_other
    return float(nbinom.cdf(m - k_self, lam, 1.0 / (1.0 + d)))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _csv_rows(text: str) -> list[list[str]]:
    """Data rows of the CLI's CSV: the # stamp and the header dropped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_results(tasks, results) -> list[tuple[str, bool, str]]:
    """(check name, passed, detail) for every check on one pass's results."""
    out: list[tuple[str, bool, str]] = []
    by_name = dict(zip((t.name for t in tasks), results))
    for task, result in zip(tasks, results):
        if isinstance(result, BaseException):
            continue  # counted as a task exception by the caller
        for name, ok, detail in _CHECKERS[task.kind](task, result, by_name):
            out.append((f"{task.name}:{name}", ok, detail))
    return out


def _check_sweep(task, estimates, by_name):
    p = task.params
    streams = p["streams"]
    others = streams[1:]
    if len(set(others)) != 1:
        return  # heterogeneous: compared with the direct sampler instead
    m, n, ks, ko = p["antennas"], len(streams), streams[0], others[0]
    for beta, est in zip(p["betas"], estimates):
        exact = equal_k_exact(m, n, ks, ko, beta)
        tol = max(4.0 * est.std_error, 5e-3)
        yield (f"closed-form@{beta}", abs(est.prob - exact) <= tol,
               f"mc {est.prob!r} vs exact {exact!r} (tol {tol!r})")


def _check_direct(task, est, by_name):
    p = task.params
    label = "".join(str(k) for k in p["k_others"])
    full = by_name[f"sweep_M{p['antennas']}_k{p['k_self']}_o{label}"]
    if isinstance(full, BaseException):
        return
    full_est = full[1]  # the sweep's middle threshold is the direct task's beta
    tol = 4.0 * math.hypot(est.std_error, full_est.std_error)
    yield ("direct-vs-full", abs(est.prob - full_est.prob) <= tol,
           f"direct {est.prob!r} vs full {full_est.prob!r} (tol {tol!r})")


def _check_search(task, result, by_name):
    p = task.params
    m = p["antennas"]
    if p["mode"] == "coordinate":
        streams = result.best_allocation.streams
        yield ("fixed-point", result.fixed_point is True, f"{result.fixed_point!r}")
        yield ("in-range", all(1 <= k <= m for k in streams), f"{streams!r}")
        return
    best = result.best_allocation.streams
    table = result.per_candidate_values
    yield ("best", best == BEST_3LINK, f"best {best!r}")
    yield ("table-size", len(table) == m ** p["links"], f"{len(table)} candidates")
    if "trials" not in p:
        for k in range(1, m + 1):
            exact = p["links"] * k * equal_k_exact(m, p["links"], k, k, p["beta"])
            got = table[(k,) * p["links"]]
            yield (f"equal-k{k}", _close(got, exact), f"{got!r} vs {exact!r}")


def _check_best_response(task, k, by_name):
    # Every interferer runs `start` streams, so the exact capacities are
    # known; the margins here dwarf the Monte Carlo error.
    p = task.params
    m, n, start, beta = p["antennas"], p["links"], p["start"], p["beta"]
    caps = [c * equal_k_exact(m, n, c, start, beta) for c in range(1, m + 1)]
    expected = 1 + caps.index(max(caps))
    yield ("best-response", k == expected, f"{k!r} vs exact argmax {expected!r}")


def _check_cli(task, result, by_name):
    code, text = result
    yield ("exit", code == 0, f"exit code {code}")
    if code != 0:
        return
    argv = task.params["argv"]
    rows = _csv_rows(text)
    if argv[0] == "nstar":
        got = tuple(int(v) for v in rows[0][:3])
        yield ("nstar", got == NSTAR_EXPECTED, f"{got!r} vs {NSTAR_EXPECTED!r}")
    elif argv[0] == "optimize":
        yield from _check_optimize_rows(argv, rows)
    elif argv[:2] == ("figure", "fig3"):
        yield from _check_fig3_rows(argv, rows)
    else:
        yield from _check_fig12_rows(argv, rows)


def _flag(argv, name, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


def _check_optimize_rows(argv, rows):
    n = _flag(argv, "--links", 0)
    m = _flag(argv, "--antennas", 0)
    beta = _flag(argv, "--beta", 1.0)
    yield ("rows", len(rows) == m**n, f"{len(rows)} rows")
    values = [float(r[n]) for r in rows]
    marked = [i for i, r in enumerate(rows) if r[n + 1] == "1"]
    ok = len(marked) == 1 and values[marked[0]] == max(values)
    yield ("is-best", ok, f"rows marked best: {marked[:3]!r}")
    for row, value in zip(rows, values):
        streams = tuple(int(v) for v in row[:n])
        if len(set(streams)) == 1:
            k = streams[0]
            exact = n * k * equal_k_exact(m, n, k, k, beta)
            yield (f"equal-k{k}", _close(value, exact), f"{value!r} vs {exact!r}")


def _check_fig12_rows(argv, rows):
    which = argv[1]
    m = 10 if which == "fig1" else 5
    beta = _flag(argv, "--beta", 1.0)
    worst = 0.0
    for row in rows:
        if which == "fig1":
            n, k1, p = int(row[0]), int(row[1]), float(row[2])
            exact = equal_k_exact(m, n, k1, 1, beta)
        else:
            b, k1, p = float(row[0]), int(row[1]), float(row[2])
            exact = equal_k_exact(m, 5, k1, 1, b)
        if not _close(p, exact):
            worst = max(worst, abs(p - exact))
    yield ("closed-form", worst == 0.0, f"{len(rows)} rows, worst gap {worst!r}")


def _check_fig3_rows(argv, rows):
    n = _flag(argv, "--links", 3)
    m = _flag(argv, "--antennas", 3)
    yield ("rows", len(rows) == m**n, f"{len(rows)} rows")
    table = {tuple(int(v) for v in r[:n]): [float(v) for v in r[n:]] for r in rows}
    analytic = {s: v[0] for s, v in table.items()}
    best = max(analytic, key=lambda s: (analytic[s], tuple(-k for k in s)))
    yield ("best", best == BEST_3LINK, f"best {best!r}")
    for k in range(1, m + 1):
        exact = n * k * equal_k_exact(m, n, k, k, 1.0)
        got = analytic[(k,) * n]
        yield (f"equal-k{k}", _close(got, exact), f"{got!r} vs {exact!r}")
    if "--trials" not in argv:
        return
    trials = _flag(argv, "--trials", 0)
    mc = {s: v[1] for s, v in table.items()}
    best_mc = max(mc, key=lambda s: (mc[s], tuple(-k for k in s)))
    yield ("best-mc", best_mc == BEST_3LINK, f"best {best_mc!r}")
    worst = 0.0
    for streams, (a, s) in table.items():
        tol = sum(streams) * (4.0 * 0.5 / math.sqrt(trials) + GAMMA_FIT_TOL)
        worst = max(worst, abs(a - s) / tol)
    yield ("mc-vs-closed-form", worst <= 1.0, f"worst gap/tolerance {worst!r}")


_CHECKERS = {
    "sweep": _check_sweep,
    "direct": _check_direct,
    "search": _check_search,
    "best_response": _check_best_response,
    "cli": _check_cli,
}
