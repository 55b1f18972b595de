"""What the benchmark relies on from outside the package: its traced run
wraps package attributes by name (``bench/spans.py``), so every one it
names must exist, and its set-up times a fresh interpreter importing the
package, so the import must stay light."""

import importlib
import importlib.util
import re
import subprocess
import sys
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


# top-level modules that ``import metric_union`` may load beyond the
# standard library: numpy's compiled submodules create the Cython runtime
_ALLOWED = re.compile(r"numpy|metric_union|cython_runtime|_cython_\d+(_\d+)*")


def test_package_import_loads_only_numpy(src_env):
    # scipy, for one, would double the import time the set-up measures
    probe = ("import sys, numpy; before = set(sys.modules); "
             "import metric_union; print(*set(sys.modules) - before)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=src_env, check=True)
    loaded = {m.partition(".")[0] for m in proc.stdout.split()}
    assert "metric_union" in loaded
    assert sorted(m for m in loaded - sys.stdlib_module_names
                  if not _ALLOWED.fullmatch(m)) == []
