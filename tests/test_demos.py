"""Smoke test for the demo scripts: each runs and prints exactly what it did.

The expected digests are sha256 sums of each script's stdout, recorded
before the oracles were merged into one class.  Demo 04's accuracy table
reads the noisy oracle's seeded random streams directly, so a change to
how noise is drawn shows up here.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "01_trace_walkthrough.py": "dc536888780a382eed9b70707dfb6b7c8b9c384e441881fd4b9052539aa94627",
    "02_query_complexity.py": "86ca3b3a57902166625bf43af141c65874b47a48422aa8df3aca36b5c8dbc2b7",
    "03_bruteforce_minimums.py": "314bf865508b8c2e15c1fdd41693db6946a31d4608afb0b487780aa7faaab577",
    "04_noisy_majority.py": "d654bc08985690596dcb027863b0e5f50704c4ed1c41e8a3fd41f9688a0a0733",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, check=True, timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == EXPECTED[name]
