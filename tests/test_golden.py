"""Byte-identity gate: CLI outputs on the stored fixtures must not drift.

Each case runs one subcommand through ``regionrules.cli.main`` and compares
the bytes it writes with ``tests/fixtures/golden/<case>.json``. A change that
moves any byte of ``extract``, ``explain``, ``evaluate`` or
``select-features`` output fails here; an intended change regenerates the
files with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
The ``extract_blocks_*`` cases read a 200,000-row table that ``synth``
writes from ``blocks_spec.json`` first, so their root columns span several
counting blocks. The ``*_mixed*`` cases read ``mixed.csv``: ``two_mode.csv``
with a 4-level categorical column ``grp`` that leans towards the label, and
a few empty ``grp`` and ``f1`` cells.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from regionrules.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
TWO_MODE = FIXTURES / "two_mode.csv"
MIXED = FIXTURES / "mixed.csv"
BLOCKS_SPEC = FIXTURES / "blocks_spec.json"
BLOCKS = "{blocks}"  # stands for the synthesized table's path in an argv

SEARCH = [
    "--target-column", "label", "--features", "f0,f1",
    "--min-support", "150", "--max-rules", "2", "--n-grids", "10",
]
STRATEGIES = ("uniform", "quantile", "kmeans")


def _extract(strategy: str, *extra: str) -> list[str]:
    return ["extract", "--data", str(TWO_MODE), *SEARCH, "--strategy", strategy, *extra]


def _mixed(command: str, strategy: str, *extra: str) -> list[str]:
    return [
        command, "--data", str(MIXED), "--schema", "grp:categorical", "--target-column",
        "label", "--features", "f0,f1,grp", "--min-support", "150", "--max-rules", "2",
        "--n-grids", "10", "--strategy", strategy, *extra,
    ]


def _blocks(strategy: str, n_grids: int) -> list[str]:
    return [
        "extract", "--data", BLOCKS, "--target-column", "label",
        "--min-support", "1000", "--max-rules", "3", "--n-grids", str(n_grids),
        "--strategy", strategy,
    ]


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
    # 200,000 rows: more than three counting blocks at the root, and nodes on
    # both sides of the sort-or-count rule
    **{f"extract_blocks_{n}": _blocks("uniform", n) for n in (10, 20)},
    **{f"extract_blocks_{s}_10": _blocks(s, 10) for s in ("quantile", "kmeans")},
    # numeric and categorical features with missing cells
    **{f"extract_mixed_{s}": _mixed("extract", s) for s in ("uniform", "kmeans")},
    "explain_mixed": _mixed("explain", "uniform", "--row-index", "2"),
}


def synth_blocks(directory: Path) -> Path:
    """Write the table of ``blocks_spec.json`` into ``directory``."""
    out = directory / "blocks.csv"
    assert main(["synth", "--spec-file", str(BLOCKS_SPEC), "--out", str(out)]) == 0
    return out


def run_case(argv: list[str], out: Path, blocks: Path | None = None) -> bytes:
    argv = [str(blocks) if a == BLOCKS else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def blocks_csv(tmp_path_factory):
    return synth_blocks(tmp_path_factory.mktemp("blocks"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case, tmp_path, capsys, request):
    blocks = request.getfixturevalue("blocks_csv") if BLOCKS in CASES[case] else None
    got = run_case(CASES[case], tmp_path / "out.json", blocks)
    capsys.readouterr()
    assert got == (GOLDEN / f"{case}.json").read_bytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_extract_twice_gives_identical_bytes(strategy, tmp_path):
    first = run_case(_extract(strategy), tmp_path / "a.json")
    second = run_case(_extract(strategy), tmp_path / "b.json")
    assert first == second


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        blocks = synth_blocks(Path(tmp))
        for name in sorted(CASES, key=lambda c: c != "extract_uniform"):  # evaluate reads it
            run_case(CASES[name], GOLDEN / f"{name}.json", blocks)
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
