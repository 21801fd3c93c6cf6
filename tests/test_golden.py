"""Byte-identity gate: CLI outputs on the stored fixtures must not drift.

Each case runs one subcommand through ``regionrules.cli.main`` and compares
the bytes it writes with ``tests/fixtures/golden/<case>.json``. A change that
moves any byte of ``extract``, ``explain``, ``evaluate`` or
``select-features`` output fails here; an intended change regenerates the
files with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from regionrules.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
TWO_MODE = FIXTURES / "two_mode.csv"

SEARCH = [
    "--target-column", "label", "--features", "f0,f1",
    "--min-support", "150", "--max-rules", "2", "--n-grids", "10",
]
STRATEGIES = ("uniform", "quantile", "kmeans")


def _extract(strategy: str, *extra: str) -> list[str]:
    return ["extract", "--data", str(TWO_MODE), *SEARCH, "--strategy", strategy, *extra]


# case name -> argv without --out; evaluate reads the stored uniform rules
CASES = {
    **{f"extract_{s}": _extract(s) for s in STRATEGIES},
    # 40 grids: the root sorts its values to count them (39 edges > log2 rows)
    **{f"extract_{s}_40": _extract(s, "--n-grids", "40") for s in ("uniform", "quantile")},
    "explain": ["explain", "--data", str(TWO_MODE), *SEARCH, "--row-index", "3"],
    "evaluate": [
        "evaluate", "--data", str(TWO_MODE), "--target-column", "label",
        "--rules", str(GOLDEN / "extract_uniform.json"),
    ],
    "select_features": [
        "select-features", "--matrix", str(FIXTURES / "importance.csv"),
    ],
}


def run_case(argv: list[str], out: Path) -> bytes:
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case, tmp_path, capsys):
    got = run_case(CASES[case], tmp_path / "out.json")
    capsys.readouterr()
    assert got == (GOLDEN / f"{case}.json").read_bytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_extract_twice_gives_identical_bytes(strategy, tmp_path):
    first = run_case(_extract(strategy), tmp_path / "a.json")
    second = run_case(_extract(strategy), tmp_path / "b.json")
    assert first == second


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES, key=lambda c: c != "extract_uniform"):  # evaluate reads it
        run_case(CASES[name], GOLDEN / f"{name}.json")
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
