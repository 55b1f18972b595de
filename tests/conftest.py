"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import metric_union


@pytest.fixture(scope="session")
def src_env():
    """Environment for subprocesses that import the package the tests
    import, also when only pytest's own ``pythonpath`` setting put it on
    the path."""
    src = str(Path(metric_union.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
