"""Every function the benchmark's span recorder wraps exists in the package.

``perfbench/spans.py`` records a target whose name the code no longer has as
absent and carries on, so a renamed function would make its per-layer
metrics read zero without failing the benchmark; this test fails instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


TARGETS = span_targets()


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.qualname)
def test_span_target_resolves_to_a_package_function(target):
    owner = importlib.import_module(target.module)
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    source = Path(inspect.getsourcefile(owner)).resolve()
    assert source.is_relative_to(ROOT / "src" / "regionrules")


def test_the_search_kernel_is_among_the_targets():
    names = {t.qualname for t in TARGETS}
    assert {"regionrules.binning.make_grids", "regionrules.binning._kmeans_1d"} <= names
