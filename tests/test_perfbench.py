"""The benchmark still runs against the package: its self-check at tiny sizes."""

import subprocess
import sys
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parent.parent / "perfbench" / "selfcheck.py"


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFCHECK)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout
