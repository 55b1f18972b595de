"""The demo scripts the README advertises run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["embed_walkthrough.py",
                                    "lower_bound_demo.py", "glue_demo.py"])
def test_demo_runs(script, src_env):
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
