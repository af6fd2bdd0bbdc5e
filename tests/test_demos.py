"""Smoke test: the walk-through demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# each demo runs in its own temporary directory, where 05 writes its sweep
# CSVs
DEMOS = ("01_special_functions", "02_channel_models", "03_underlay_cdfs",
         "04_secrecy_metrics", "05_figure_sweeps", "06_validation_run")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
