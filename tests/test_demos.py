"""The README's demo scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name, timeout):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         env=env, capture_output=True, text=True, timeout=timeout)
    assert out.returncode == 0, out.stderr
    return out


def test_identifiability_demo_runs():
    out = _run_demo("identifiability.py", 120)
    for act in ("act 1:", "act 2:", "act 3:"):
        assert act in out.stdout
    assert "training premise met: True" in out.stdout


@pytest.mark.slow
def test_quickstart_demo_runs():
    out = _run_demo("quickstart.py", 300)
    assert f"{'method':>14} {'task':>9} {'SSIM':>7} {'PSNR':>7} {'MSE':>9}" in out.stdout
