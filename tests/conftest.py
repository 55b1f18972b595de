"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import metric_union
from metric_union import metric


@pytest.fixture(scope="session")
def src_env():
    """Environment for subprocesses that import the package the tests
    import, also when only pytest's own ``pythonpath`` setting put it on
    the path."""
    src = str(Path(metric_union.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The argument tuples of every distance-kernel call made while the
    test runs.  Every module reaches the kernel through ``metric`` at call
    time, so this sees all of them."""
    calls = []
    kernel = metric._squared_distances

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(metric, "_squared_distances", counted)
    return calls
