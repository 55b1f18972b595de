"""Acceptance criteria, one test per numbered criterion.

Each test delegates to the matching check in ``metric_union.acceptance``
(the same code the ``selftest`` subcommand runs) and asserts its verdict,
so a failure here prints the measured quantities for the criterion that
broke.  Criterion 10 is checked on the real CLI: two subprocess runs of
``python -m metric_union.cli selftest`` must emit byte-identical reports.
"""

import subprocess
import sys
import time

import pytest

from metric_union.acceptance import (_Context, check_cover_properties,
                                     check_determinism,
                                     check_distorted_inputs,
                                     check_extension_certificates,
                                     check_glue_extension,
                                     check_headline_bound, check_iso_bound,
                                     check_lower_bound, check_metric_validity,
                                     check_psi_audit)


@pytest.fixture(scope="module")
def ctx():
    return _Context(seed=0)


def test_criterion_01_headline_bound(ctx):
    res = check_headline_bound(ctx)
    assert res.passed, res.detail


def test_criterion_02_isometric_sharp_bound(ctx):
    res = check_iso_bound(ctx)
    assert res.passed, res.detail


def test_criterion_03_distorted_inputs(ctx):
    res = check_distorted_inputs(ctx)
    assert res.passed, res.detail


def test_criterion_04_map_audit_items(ctx):
    res = check_psi_audit(ctx)
    assert res.passed, res.detail


def test_criterion_05_cover_properties(ctx):
    res = check_cover_properties(ctx)
    assert res.passed, res.detail


def test_criterion_06_extension_certificates(ctx):
    res = check_extension_certificates(ctx)
    assert res.passed, res.detail


def test_criterion_07_spectral_lower_bound(ctx):
    res = check_lower_bound(ctx)
    assert res.passed, res.detail


def test_criterion_08_metric_validity(ctx):
    res = check_metric_validity(ctx)
    assert res.passed, res.detail


def test_criterion_09_glue_extension(ctx):
    res = check_glue_extension(ctx)
    assert res.passed, res.detail


def test_criterion_10_selftest_determinism(ctx, tmp_path, src_env):
    res = check_determinism(ctx)
    assert res.passed, res.detail

    runs = []
    for k in range(2):
        out = tmp_path / f"selftest{k}.json"
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "metric_union.cli", "selftest",
             "--output", str(out)],
            capture_output=True, env=src_env)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"selftest took {elapsed:.1f}s"
        assert proc.returncode in (0, 2)
        runs.append((proc.returncode, proc.stdout, out.read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1], "selftest stdout differs between runs"
    assert runs[0][2] == runs[1][2], "selftest JSON differs between runs"
