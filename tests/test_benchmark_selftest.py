"""The benchmark's own self-test runs clean against this checkout.

The benchmark reads result traces and module attributes by name
(``trace.steps``, each step's ``pair`` and ``answer``, the functions its
tracer wraps), so a rename in the package shows up here first.  The
self-test writes only under the git-ignored ``perfbench/traces/``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 failed"
