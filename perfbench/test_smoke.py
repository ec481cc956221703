"""The harness's own test: every workload at smoke scale, both modes.

    python3 -m pytest perfbench/test_smoke.py
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_mode_passes():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout + out.stderr
