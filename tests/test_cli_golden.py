"""Byte-identity corpus: fixed CLI runs against expected files.

Each case runs ``cli.main`` in-process and compares its exit code, its
stderr and its output (stdout, or the file named by ``--out``) with the
files ``tests/golden/<case>.out`` and ``tests/golden/<case>.err``.  A
change that must keep the output the same keeps this test green.

A change that alters output on purpose (a new random stream, say)
re-baselines the corpus once with

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites every expected file from the current checkout, and names
the re-baseline in CHANGES.md.  Naming cases rewrites only those:

    PYTHONPATH=src python tests/test_cli_golden.py fig2_mc
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from zfoutage import optimizer
from zfoutage.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Case name -> (argv, exit code).  "{out}" stands for a written file.
CASES = {
    "fig1": (["figure", "fig1"], 0),
    "fig2": (["figure", "fig2"], 0),
    "fig3": (["figure", "fig3"], 0),
    "capacity_alloc": (
        ["capacity", "--links", "4", "--antennas", "3", "--alloc", "1,1,2,3"], 0
    ),
    "capacity_sweep": (
        ["capacity", "--links", "3", "--antennas", "2", "--alloc-sweep"], 0
    ),
    "capacity_sweep_N4_M3": (
        ["capacity", "--links", "4", "--antennas", "3", "--beta", "0.7",
         "--alloc-sweep"],
        0,
    ),
    "optimize_exhaustive": (["optimize", "--links", "3", "--antennas", "3"], 0),
    "optimize_N6_M4": (
        ["optimize", "--links", "6", "--antennas", "4", "--beta", "1.3"], 0
    ),
    "optimize_coordinate": (
        ["optimize", "--links", "3", "--antennas", "3", "--mode", "coordinate"], 0
    ),
    "optimize_json_file": (
        ["optimize", "--links", "3", "--antennas", "3", "--beta", "0.5",
         "--format", "json", "--out", "{out}"],
        0,
    ),
    "nstar_m3": (["nstar", "--antennas", "3", "--beta", "1"], 0),
    "nstar_m10": (["nstar", "--antennas", "10", "--beta", "0.01"], 0),
    "nstar_json": (
        ["nstar", "--antennas", "4", "--beta", "2", "--k-other", "2",
         "--format", "json"],
        0,
    ),
    "capacity_mc": (
        ["capacity", "--links", "3", "--antennas", "3", "--alloc", "1,2,3",
         "--backend", "mc", "--trials", "20000", "--seed", "17"],
        0,
    ),
    "capacity_both": (
        ["capacity", "--links", "4", "--antennas", "3", "--alloc", "1,1,2,3",
         "--backend", "both", "--trials", "20000", "--seed", "11"],
        0,
    ),
    "fig3_both": (
        ["figure", "fig3", "--antennas", "2", "--backend", "both",
         "--trials", "10000"],
        0,
    ),
    "optimize_exhaustive_mc": (
        ["optimize", "--links", "3", "--antennas", "3", "--backend", "mc",
         "--trials", "20000", "--seed", "5"],
        0,
    ),
    "optimize_coordinate_mc": (
        ["optimize", "--links", "3", "--antennas", "3", "--backend", "mc",
         "--trials", "20000", "--seed", "5", "--mode", "coordinate"],
        0,
    ),
    "fig1_mc": (
        ["figure", "fig1", "--antennas", "4", "--n-list", "3,6", "--backend", "mc",
         "--trials", "10000", "--seed", "3"],
        0,
    ),
    "fig2_mc": (
        ["figure", "fig2", "--antennas", "3", "--links", "4", "--beta-list", "0.5,2",
         "--backend", "mc", "--trials", "10000", "--seed", "9"],
        0,
    ),
    "capacity_sweep_mc": (
        ["capacity", "--links", "3", "--antennas", "2", "--alloc-sweep",
         "--backend", "mc", "--trials", "10000"],
        0,
    ),
    "error_alloc_range": (
        ["capacity", "--links", "2", "--antennas", "2", "--alloc", "1,3"], 2
    ),
    "error_nstar_cap": (["nstar", "--antennas", "10", "--cap", "3"], 4),
}


def run_case(name: str, directory: pathlib.Path) -> tuple[int, bytes, bytes]:
    """Exit code, output bytes and stderr bytes of one case."""
    argv, _ = CASES[name]
    out_path = directory / f"{name}.written"
    argv = [arg.replace("{out}", str(out_path)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    output = stdout.getvalue().encode()
    if out_path.exists():
        assert output == b"", "a case that writes a file prints nothing"
        output = out_path.read_bytes()
    return code, output, stderr.getvalue().encode()


def expected(name: str) -> tuple[int, bytes, bytes]:
    """What run_case must return for ``name``."""
    files = ((GOLDEN / f"{name}{ext}").read_bytes() for ext in (".out", ".err"))
    return (CASES[name][1], *files)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    assert run_case(name, tmp_path) == expected(name)


@pytest.mark.parametrize("name", ["capacity_sweep_N4_M3", "fig3_both"])
def test_golden_with_small_search_chunks(name, tmp_path, monkeypatch):
    # Sweeps print the exhaustive search's table, which the search fills
    # chunk by chunk; chunk borders must not change a byte.
    monkeypatch.setattr(optimizer, "_SEARCH_CHUNK", 5)
    assert run_case(name, tmp_path) == expected(name)


def regenerate(names: list[str]) -> None:
    """Rewrite the expected files of ``names``, or of every case if none."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(set(names) or CASES):
            code, output, err = run_case(name, pathlib.Path(tmp))
            if code != CASES[name][1]:
                sys.exit(f"{name}: exit code {code}, table says {CASES[name][1]}")
            (GOLDEN / f"{name}.out").write_bytes(output)
            (GOLDEN / f"{name}.err").write_bytes(err)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
