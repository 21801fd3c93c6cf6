import json
from pathlib import Path

import pytest

from regionrules import GridHistogram, load_csv, TargetIndicator

from helpers import fixture_table

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def grid_table():
    return fixture_table()


@pytest.fixture()
def grid_hist():
    """Histogram of the canonical 20-row fixture: (1,5),(3,5),(5,5),(1,5)."""
    return GridHistogram(
        edges=(0.0, 1.0, 2.0, 3.0, 4.0),
        target_counts=(1, 3, 5, 1),
        total_counts=(5, 5, 5, 5),
        condition_total=20,
        condition_target=10,
    )


@pytest.fixture(scope="session")
def two_mode():
    """Stored two-mode planted-rectangle dataset (CSV committed in-repo)."""
    table = load_csv(
        FIXTURES / "two_mode.csv",
        schema={"f0": "numeric", "f1": "numeric", "label": "numeric"},
    )
    meta = json.loads((FIXTURES / "two_mode_meta.json").read_text())
    label = table.column("label").values
    target = TargetIndicator(flags=label == 1.0)
    return table.drop(["label"]), target, meta
