"""The README's demo scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_identifiability_demo_runs():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / "identifiability.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    for act in ("act 1:", "act 2:", "act 3:"):
        assert act in out.stdout
    assert "training premise met: True" in out.stdout
