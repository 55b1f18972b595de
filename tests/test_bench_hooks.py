"""The benchmark's traced run wraps package attributes by name
(``bench/spans.py``); every one it names must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    patches = _load_spans().PATCHES
    assert patches
    missing = [
        (name, attr) for name, attr, _ in patches
        if not callable(getattr(
            importlib.import_module(f"metric_union.{name}"), attr, None))]
    assert not missing
