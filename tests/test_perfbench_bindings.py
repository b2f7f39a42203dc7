"""The names the benchmark binds to must exist in the package.

perfbench/spans.py patches every `(module, function)` of its LAYERS table
and perfbench/run.py reports `kernels.IMPLEMENTATION`; a rename in the
package would otherwise break the benchmark and its traced runs without
failing any test here.  The module is loaded from its path, read only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _, _ in _layers()])
def test_traced_layer_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"tamewall.{module}"), function))


def test_kernel_implementation_is_reported():
    from tamewall import kernels

    assert isinstance(kernels.IMPLEMENTATION, str)
