"""Shared fixtures."""

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import metric_union
from metric_union import metric, union_embed


@pytest.fixture(scope="session")
def src_env():
    """Environment for subprocesses that import the package the tests
    import, also when only pytest's own ``pythonpath`` setting put it on
    the path."""
    src = str(Path(metric_union.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@dataclass(frozen=True)
class KernelCall:
    """One distance-kernel call: its rows, its columns (the rows of its
    second argument, or its first again) and its coordinates."""

    rows: int
    cols: int
    dim: int

    @property
    def work(self):
        """Squared differences of all rows * cols pairs: rows * cols * dim.
        An upper bound on what the call sums, since a self call sums only
        its upper triangle's tiles, about half of it."""
        return self.rows * self.cols * self.dim


@pytest.fixture()
def kernel_calls(monkeypatch):
    """A ``KernelCall`` for every distance-kernel call made while the test
    runs.  Every module reaches the kernel through ``metric`` at call
    time, so this sees all of them."""
    calls = []
    kernel = metric._squared_distances

    def counted(p, q=None):
        rows, dim = np.shape(getattr(p, "points", p))
        cols = rows if q is None else np.shape(getattr(q, "points", q))[0]
        calls.append(KernelCall(rows, cols, dim))
        return kernel(p, q)

    monkeypatch.setattr(metric, "_squared_distances", counted)
    return calls


@pytest.fixture()
def report_scans(monkeypatch):
    """The arguments of every all-pairs distortion scan
    (``union_embed._distortion_report``) made while the test runs."""
    scans = []
    report = union_embed._distortion_report

    def counted(*args):
        scans.append(args)
        return report(*args)

    monkeypatch.setattr(union_embed, "_distortion_report", counted)
    return scans
