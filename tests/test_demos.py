"""Smoke test: every demo script runs to completion from a checkout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_scaling_laws.py", "02_single_run_estimation.py",
         "03_sweep_and_report.py", "04_published_table_check.py")

# Demo 01 prints pure arithmetic (scaling laws and their inverses), so its
# stdout is the same on every host and no printed number may move.
DEMO_01_STDOUT_SHA256 = "1cae7fcb62c399de5f111f242960e44071113eaba86ebd951fb636526efa2b68"


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo == "01_scaling_laws.py":
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_01_STDOUT_SHA256
    if demo == "03_sweep_and_report.py":
        assert "byte for byte: True" in proc.stdout
