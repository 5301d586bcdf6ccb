"""Command-line behavior: output shape, determinism, and exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import zfoutage
import zfoutage.analytic
from zfoutage import montecarlo, optimizer
from zfoutage.cli import main
from zfoutage.core import NumericalError, SystemConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# ")
    stamp = dict(item.split("=", 1) for item in lines[0][2:].split(" "))
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return stamp, columns, rows


class TestCapacityCommand:
    def test_symmetric_pair_exact_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--links", "2", "--antennas", "1", "--beta", "1"
        )
        assert code == 0
        stamp, columns, rows = parse_csv(out)
        assert stamp["cmd"] == "capacity"
        assert stamp["links"] == "2"
        assert stamp["beta"] == "1.0"
        assert "trials" not in stamp
        assert "workers" not in stamp
        assert columns == ["link", "streams", "success_prob", "capacity", "sum_capacity"]
        assert rows == [
            ["1", "1", "0.5", "0.5", "1.0"],
            ["2", "1", "0.5", "0.5", "1.0"],
        ]

    def test_csv_values_satisfy_capacity_identity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "capacity",
            "--links", "3", "--antennas", "2", "--beta", "0.5",
            "--rate", "2.0", "--alloc", "1,2,1",
        )
        assert code == 0
        stamp, columns, rows = parse_csv(out)
        rate = float(stamp["rate"])
        sums = []
        for row in rows:
            record = dict(zip(columns, row))
            k = int(record["streams"])
            p = float(record["success_prob"])
            # repr round-trip: the parsed float reproduces the printed
            # value and the capacity identity bitwise.
            assert repr(p) == record["success_prob"]
            assert float(record["capacity"]) == rate * k * p
            sums.append(rate * k * p)
        assert float(rows[0][-1]) == math.fsum(sums)

    def test_rate_to_beta_conversion(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--links", "2", "--antennas", "2", "--rate-to-beta", "2"
        )
        assert code == 0
        stamp, _, _ = parse_csv(out)
        assert stamp["beta"] == "3.0"
        assert stamp["rate"] == "2.0"

    def test_beta_and_rate_to_beta_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "capacity", "--links", "2", "--antennas", "1",
                    "--beta", "1", "--rate-to-beta", "1",
                ]
            )
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_alloc_sweep_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "capacity", "--links", "2", "--antennas", "2", "--beta", "1",
            "--alloc-sweep",
        )
        assert code == 0
        stamp, columns, rows = parse_csv(out)
        assert stamp["alloc"] == "sweep"
        assert columns == ["k1", "k2", "sum_capacity_analytic"]
        assert len(rows) == 4
        table = {(row[0], row[1]): float(row[2]) for row in rows}
        assert max(table, key=table.get) == ("1", "1")

    @pytest.mark.parametrize(
        "backend, objective", [("analytic", "analytic"), ("mc", "montecarlo")]
    )
    def test_alloc_sweep_is_the_search_table(self, capsys, backend, objective):
        # The sweep prints the exhaustive search's table, bit for bit.
        code, out, _ = run_cli(
            capsys,
            "capacity", "--links", "3", "--antennas", "3", "--beta", "0.8",
            "--rate", "1.5", "--alloc-sweep", "--backend", backend,
            "--trials", "10000", "--seed", "4",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        table = optimizer.maximize_sum_capacity(
            SystemConfig(3, 3, 0.8, 1.5), "exhaustive", objective,
            trials=10_000, seed=4,
        ).per_candidate_values
        assert [tuple(int(k) for k in row[:3]) for row in rows] == list(table)
        assert [float(row[3]) for row in rows] == list(table.values())

    def test_both_backend_reports_gap(self, capsys):
        code, out, err = run_cli(
            capsys,
            "capacity", "--links", "2", "--antennas", "1", "--beta", "1",
            "--backend", "both", "--trials", "20000", "--seed", "3",
        )
        assert code == 0
        assert "below 100000" in err
        stamp, columns, rows = parse_csv(out)
        assert stamp["trials"] == "20000"
        assert stamp["seed"] == "3"
        assert "abs_diff" in columns
        for row in rows:
            record = dict(zip(columns, row))
            gap = abs(
                float(record["success_prob_analytic"]) - float(record["success_prob_mc"])
            )
            assert float(record["abs_diff"]) == gap
            assert gap < 5 * float(record["std_error_mc"])


class TestDeterminism:
    def test_reruns_are_byte_identical(self, capsys):
        argv = (
            "capacity", "--links", "3", "--antennas", "2", "--beta", "1",
            "--backend", "mc", "--trials", "20000", "--seed", "11",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_worker_count_does_not_change_bytes(self, capsys):
        base = (
            "capacity", "--links", "3", "--antennas", "2", "--beta", "1",
            "--backend", "mc", "--trials", "20000", "--seed", "11",
        )
        _, serial, _ = run_cli(capsys, *base, "--workers", "1")
        _, parallel, _ = run_cli(capsys, *base, "--workers", "2")
        assert serial == parallel

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "result.csv"
        argv = ("capacity", "--links", "2", "--antennas", "1", "--beta", "1")
        _, stdout_text, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text


class TestConfigFile:
    def test_file_supplies_scenario(self, capsys, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("links = 3\nantennas = 2\nbeta = 0.5\n\n# note\nalloc = 1,2,1\n")
        code, out, _ = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == 0
        stamp, _, rows = parse_csv(out)
        assert stamp["links"] == "3"
        assert stamp["alloc"] == "1,2,1"
        assert len(rows) == 3

    def test_cli_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("links = 2\nantennas = 1\nbeta = 2.0\n")
        code, out, _ = run_cli(
            capsys, "capacity", "--config", str(cfg), "--beta", "1.0"
        )
        assert code == 0
        stamp, _, rows = parse_csv(out)
        assert stamp["beta"] == "1.0"
        assert rows[0][2] == "0.5"

    def test_cli_beta_overrides_file_rate_to_beta(self, capsys, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("links = 2\nantennas = 1\nrate_to_beta = 2.0\n")
        code, out, _ = run_cli(
            capsys, "capacity", "--config", str(cfg), "--beta", "1.0"
        )
        assert code == 0
        stamp, _, _ = parse_csv(out)
        assert stamp["beta"] == "1.0"
        assert stamp["rate"] == "1.0"

    def test_unknown_key_is_line_numbered(self, capsys, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("links = 2\nbogus = 3\n")
        code, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == 2
        assert f"{cfg}:2" in err
        assert "bogus" in err

    def test_conflicting_threshold_keys_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("links = 2\nantennas = 1\nbeta = 1\nrate_to_beta = 1\n")
        code, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == 2
        assert "beta" in err and "rate_to_beta" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "capacity", "--config", str(tmp_path / "absent.cfg")
        )
        assert code == 2
        assert "error" in err


class TestFigureCommands:
    def test_allocation_table_argmax(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig3")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["k1", "k2", "k3", "sum_capacity"]
        assert len(rows) == 27
        best = max(rows, key=lambda row: float(row[3]))
        assert best[:3] == ["1", "1", "1"]

    def test_stream_sweep_decreasing_for_crowded_network(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig1")
        assert code == 0
        stamp, columns, rows = parse_csv(out)
        assert stamp["antennas"] == "10"
        crowded = [
            float(row[columns.index("capacity")])
            for row in rows
            if row[0] == "30"
        ]
        assert len(crowded) == 10
        assert all(a > b for a, b in zip(crowded, crowded[1:]))

    def test_threshold_sweep_argmax_shifts_down(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig2")
        assert code == 0
        _, columns, rows = parse_csv(out)
        cap = columns.index("capacity")

        def argmax_k(beta):
            subset = [row for row in rows if row[0] == beta]
            return max(subset, key=lambda row: float(row[cap]))[1]

        assert argmax_k("4.0") == "1"
        assert int(argmax_k("0.25")) > 1

    def test_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure", "fig1", "--antennas", "3", "--n-list", "4,8"
        )
        assert code == 0
        stamp, _, rows = parse_csv(out)
        assert stamp["antennas"] == "3"
        assert stamp["n_list"] == "4,8"
        assert len(rows) == 6

    @pytest.mark.parametrize(
        "which, flag, value",
        [
            ("fig1", "--links", "5"),
            ("fig2", "--beta", "2"),
            ("fig2", "--n-list", "4,8"),
            ("fig3", "--n-list", "4,8"),
            ("fig1", "--beta-list", "1,2"),
            ("fig3", "--beta-list", "1,2"),
        ],
    )
    def test_ignored_flag_rejected(self, capsys, which, flag, value):
        # A flag the chosen figure would ignore is an error, not a no-op.
        code, out, err = run_cli(capsys, "figure", which, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert flag in err


class TestNstarCommand:
    def test_reports_both_thresholds(self, capsys):
        code, out, _ = run_cli(capsys, "nstar", "--antennas", "3", "--beta", "1")
        assert code == 0
        stamp, columns, rows = parse_csv(out)
        assert stamp["antennas"] == "3"
        record = dict(zip(columns, rows[0]))
        assert record["analytic_n_star"] == "9"
        assert record["empirical_threshold"] == "3"
        assert int(record["binding_p"]) >= 1
        np = float(record["analytic_ratio"])
        assert np == 9 / 3

    def test_cap_exhausted(self, capsys):
        code, _, err = run_cli(capsys, "nstar", "--antennas", "10", "--cap", "3")
        assert code == 4
        assert "error" in err

    def test_analytic_bound_beyond_default_cap(self, capsys):
        # The analytic N* (1,220,629) lies past 10^6, the default cap of
        # min_links_single_stream; the scan's cap does not bound it.
        code, out, err = run_cli(capsys, "nstar", "--antennas", "1", "--beta", "1e-5")
        assert code == 0, err
        _, columns, rows = parse_csv(out)
        record = dict(zip(columns, rows[0]))
        assert record["analytic_n_star"] == "1220629"
        assert record["empirical_threshold"] == "2"

    def test_analytic_bound_beyond_double_range(self, capsys):
        # N* passes 2**53 here, so there is no analytic bound to print; the
        # empirical threshold still is one, and its cells are filled.
        argv = ("nstar", "--antennas", "1", "--beta", "1e-15")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        _, columns, rows = parse_csv(out)
        assert dict(zip(columns, rows[0])) == {
            "analytic_n_star": "",
            "binding_p": "",
            "empirical_threshold": "2",
            "analytic_ratio": "",
            "empirical_ratio": "2.0",
        }
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["rows"] == [[None, None, 2, None, 2.0]]


class TestOptimizeCommand:
    def test_exhaustive_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--links", "2", "--antennas", "2", "--beta", "1",
            "--mode", "exhaustive",
        )
        assert code == 0
        stamp, columns, rows = parse_csv(out)
        assert stamp["best"] == "1,1"
        assert columns == ["k1", "k2", "sum_capacity", "is_best"]
        flags = [row[-1] for row in rows]
        assert flags.count("1") == 1
        best_row = rows[flags.index("1")]
        assert best_row[:2] == ["1", "1"]

    def test_coordinate_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--links", "3", "--antennas", "2", "--beta", "1",
            "--mode", "coordinate",
        )
        assert code == 0
        stamp, columns, rows = parse_csv(out)
        assert stamp["best"] == "1,1,1"
        record = dict(zip(columns, rows[0]))
        assert [record["k1"], record["k2"], record["k3"]] == ["1", "1", "1"]
        assert record["fixed_point"] == "1"
        assert int(record["evaluations"]) > 0

    def test_budget_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys,
            "optimize", "--links", "8", "--antennas", "10", "--beta", "1",
            "--mode", "exhaustive", "--budget", "100",
        )
        assert code == 4
        assert "budget" in err

    @pytest.mark.parametrize(
        "limit, mode",
        [
            (["--budget", "0"], "exhaustive"),
            (["--budget", "-5"], "coordinate"),
            (["--max-sweeps", "0"], "exhaustive"),
        ],
        ids=["budget_0", "budget_negative_coordinate", "sweeps_0_exhaustive"],
    )
    def test_search_limit_rejected(self, capsys, limit, mode):
        code, _, err = run_cli(
            capsys,
            "optimize", "--links", "3", "--antennas", "3", "--mode", mode, *limit,
        )
        assert code == 2
        name = limit[0][2:].replace("-", "_")
        assert f"error: {name} must be an int >= 1, got {limit[1]}" in err

    def test_both_backend_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "optimize", "--links", "2", "--antennas", "2", "--beta", "1",
            "--backend", "both",
        )
        assert code == 2


class TestValidateCommand:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--trials", "5000")
        assert code == 0
        assert "8/8 checks passed" in out
        assert out.count("PASS") == 8
        assert "FAIL" not in out

    def test_workers_reach_every_monte_carlo_call(self, capsys, monkeypatch):
        from zfoutage import montecarlo

        seen = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                seen.append((fn.__name__, kwargs.get("workers")))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("empirical_link_success", "link_success_sweep",
                     "direct_distribution_outage"):
            monkeypatch.setattr(montecarlo, name, spy(getattr(montecarlo, name)))
        argv = ("validate", "--trials", "20000", "--seed", "3")
        _, serial, _ = run_cli(capsys, *argv, "--workers", "1")
        seen.clear()
        code, parallel, _ = run_cli(capsys, *argv, "--workers", "2")
        assert code == 0
        assert len(seen) == 7
        assert all(workers == 2 for _, workers in seen), seen
        assert {name for name, _ in seen} == {
            "empirical_link_success", "link_success_sweep",
            "direct_distribution_outage",
        }
        assert parallel == serial


class TestExitCodes:
    def test_missing_links(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "--antennas", "2", "--beta", "1")
        assert code == 2
        assert "links" in err

    def test_alloc_length_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "capacity", "--links", "2", "--antennas", "2", "--alloc", "1,2,3",
        )
        assert code == 2

    def test_alloc_entry_out_of_range(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "capacity", "--links", "2", "--antennas", "2", "--alloc", "1,3",
        )
        assert code == 2

    def test_small_mc_trials_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "capacity", "--links", "2", "--antennas", "1", "--backend", "mc",
            "--trials", "500",
        )
        assert code == 2
        assert "1000" in err

    def test_sweep_budget(self, capsys, monkeypatch):
        # The search refuses the sweep before it simulates anything.
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(montecarlo, "link_success_table", spy)
        monkeypatch.setattr(optimizer, "link_success_table", spy)
        for backend in ("analytic", "mc", "both"):
            code, out, err = run_cli(
                capsys,
                "capacity", "--links", "40", "--antennas", "8", "--alloc-sweep",
                "--backend", backend,
            )
            assert code == 4
            assert out == ""
            assert err == (
                f"error: exhaustive search needs {8**40} evaluations, "
                "budget is 1000000\n"
            )
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("capacity", "--links", "3", "--antennas", "2", "--beta", "0.01",
             "--rate", "1e308"),
            ("figure", "fig3", "--links", "2", "--antennas", "2", "--beta", "0.01",
             "--rate", "1e308"),
            ("capacity", "--links", "2", "--antennas", "2", "--rate", "1e308",
             "--alloc", "2,2"),
        ],
        ids=["capacity", "fig3", "alloc"],
    )
    def test_huge_rate(self, argv):
        # Capacities past the float range are an invalid rate: one error
        # line, not inf cells or an OverflowError from fsum.
        result = subprocess.run(
            [sys.executable, "-m", "zfoutage", *argv],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(
            "error: rate * num_links * num_antennas must be finite"
        )
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_out_of_range_seed(self, seed):
        # A seed the generator cannot key is an invalid argument, reported
        # before any simulation, not a traceback.
        result = subprocess.run(
            [
                sys.executable, "-m", "zfoutage",
                "capacity", "--links", "2", "--antennas", "1", "--backend", "mc",
                "--trials", "100000", "--seed", seed,
            ],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    def test_rate_to_beta_overflow(self):
        # 2**2000 does not fit a float: an invalid argument, not a traceback.
        result = subprocess.run(
            [
                sys.executable, "-m", "zfoutage",
                "capacity", "--links", "2", "--antennas", "1", "--rate-to-beta", "2000",
            ],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("backend", ["analytic", "mc"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, capsys, backend, workers):
        code, out, err = run_cli(
            capsys,
            "capacity", "--links", "2", "--antennas", "1", "--backend", backend,
            "--workers", workers,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "workers" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--workers", "0"), "workers must be an int >= 1, got 0"),
            (("--backend", "mc", "--trials", "999"),
             "trials must be an int >= 1000, got 999"),
            (("--rate-to-beta", "-1"), "rate_to_beta must be finite and > 0, got -1.0"),
        ],
        ids=["workers", "trials", "rate_to_beta"],
    )
    def test_checks_worded_as_in_the_library(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "capacity", "--links", "2", "--antennas", "1", *flags
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_numerical_failure_maps_to_three(self, capsys, monkeypatch):
        def explode(config, allocs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(zfoutage.analytic, "success_table", explode)
        code, _, err = run_cli(
            capsys, "capacity", "--links", "2", "--antennas", "1", "--beta", "1"
        )
        assert code == 3
        assert "synthetic failure" in err


SCENARIO_STAMP = ["cmd", "links", "antennas", "beta", "rate", "backend"]
FIGURE_STAMP = ["cmd", "which", "antennas", "rate", "backend"]

# argv, stamp keys before and after trials/seed, columns per backend.
HEADER_CASES = {
    "capacity": (
        ("capacity", "--links", "2", "--antennas", "2"),
        SCENARIO_STAMP,
        ["alloc"],
        {
            "analytic": ["link", "streams", "success_prob", "capacity", "sum_capacity"],
            "mc": [
                "link", "streams", "success_prob", "std_error", "capacity",
                "sum_capacity",
            ],
            "both": [
                "link", "streams", "success_prob_analytic", "capacity_analytic",
                "success_prob_mc", "std_error_mc", "capacity_mc", "abs_diff",
            ],
        },
    ),
    "capacity_sweep": (
        ("capacity", "--links", "2", "--antennas", "2", "--alloc-sweep"),
        SCENARIO_STAMP,
        ["alloc"],
        {
            "analytic": ["k1", "k2", "sum_capacity_analytic"],
            "mc": ["k1", "k2", "sum_capacity_mc"],
            "both": [
                "k1", "k2", "sum_capacity_analytic", "sum_capacity_mc", "abs_diff",
            ],
        },
    ),
    "fig1": (
        ("figure", "fig1", "--antennas", "2", "--n-list", "2"),
        FIGURE_STAMP,
        ["beta", "n_list"],
        {
            "analytic": ["links", "k1", "success_prob", "capacity"],
            "mc": ["links", "k1", "success_prob_mc", "std_error_mc", "capacity_mc"],
            "both": [
                "links", "k1", "success_prob", "capacity",
                "success_prob_mc", "std_error_mc", "capacity_mc",
            ],
        },
    ),
    "fig2": (
        ("figure", "fig2", "--antennas", "2", "--links", "2", "--beta-list", "1"),
        FIGURE_STAMP,
        ["links", "beta_list"],
        {
            "analytic": ["beta", "k1", "success_prob", "capacity"],
            "mc": ["beta", "k1", "success_prob_mc", "std_error_mc", "capacity_mc"],
            "both": [
                "beta", "k1", "success_prob", "capacity",
                "success_prob_mc", "std_error_mc", "capacity_mc",
            ],
        },
    ),
    "fig3": (
        ("figure", "fig3", "--antennas", "2", "--links", "2"),
        FIGURE_STAMP,
        ["links", "beta"],
        {
            "analytic": ["k1", "k2", "sum_capacity"],
            "mc": ["k1", "k2", "sum_capacity_mc"],
            "both": ["k1", "k2", "sum_capacity", "sum_capacity_mc"],
        },
    ),
}


class TestOutputHeaders:
    @pytest.mark.parametrize("backend", ["analytic", "mc", "both"])
    @pytest.mark.parametrize("case", sorted(HEADER_CASES))
    def test_stamp_keys_and_columns(self, capsys, case, backend):
        argv, head, tail, columns = HEADER_CASES[case]
        code, out, _ = run_cli(capsys, *argv, "--backend", backend, "--trials", "1000")
        assert code == 0
        stamp, got_columns, rows = parse_csv(out)
        simulated = ["trials", "seed"] if backend != "analytic" else []
        assert list(stamp) == head + simulated + tail
        assert got_columns == columns[backend]
        assert all(len(row) == len(got_columns) for row in rows)


class TestJsonFormat:
    def test_round_trips_and_matches_csv(self, capsys):
        argv = ("capacity", "--links", "2", "--antennas", "1", "--beta", "1")
        _, csv_text, _ = run_cli(capsys, *argv)
        code, json_text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(json_text)
        assert payload["spec"]["cmd"] == "capacity"
        assert payload["spec"]["links"] == 2
        _, csv_columns, csv_rows = parse_csv(csv_text)
        assert payload["columns"] == csv_columns
        assert len(payload["rows"]) == len(csv_rows)
        for js_row, csv_row in zip(payload["rows"], csv_rows):
            assert js_row[2] == float(csv_row[2])


PAIR_ARGV = ("capacity", "--links", "2", "--antennas", "1", "--beta", "1")


def checkout_env():
    """Child environment that imports the zfoutage package under test.

    The directory holding the imported package goes first on PYTHONPATH,
    so a child finds this checkout whatever its working directory and
    never a stale installed copy.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(zfoutage.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def console_script_target():
    """``(module, function)`` of ``[project.scripts] zfoutage`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zfoutage"]
    module, function = target.split(":")
    return module, function


def run_console_script(*argv):
    """Run the declared console-script target as the installed wrapper would.

    The wrapper pip generates imports the target, sets ``sys.argv[0]``
    to the script name and exits with the target's return value; the
    child interpreter here does the same, so no ``zfoutage`` executable
    has to be installed.
    """
    module, function = console_script_target()
    wrapper = (
        "import sys\n"
        f"from {module} import {function}\n"
        "sys.argv[0] = 'zfoutage'\n"
        f"sys.exit({function}())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )


class TestEntryPoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "zfoutage", *PAIR_ARGV],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert result.returncode == 0
        assert "0.5" in result.stdout

    def test_console_script(self):
        result = run_console_script(*PAIR_ARGV)
        assert result.returncode == 0, result.stderr
        assert "0.5" in result.stdout

        invalid = run_console_script("capacity", "--links", "0")
        assert invalid.returncode == 2
        assert invalid.stderr.startswith("error:")
        assert "Traceback" not in invalid.stderr

    def test_import_loads_numpy_random_not_scipy(self):
        # scipy is a test dependency only: the package and its CLI run on
        # numpy alone.  numpy.random is loaded at import so that its
        # loading cost stays out of the first Monte Carlo call.
        code = (
            "import sys, zfoutage, zfoutage.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
            "assert 'numpy.random' in sys.modules, 'numpy.random not loaded'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=checkout_env(),
        )
        assert result.returncode == 0, result.stderr
