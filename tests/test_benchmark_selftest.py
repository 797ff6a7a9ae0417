"""The benchmark's own self-test runs clean against this checkout.

The benchmark reads result traces and module attributes by name
(``trace.steps``, each step's ``pair`` and ``answer``, the functions its
tracer wraps), so a rename in the package shows up here first.  The
self-test writes only under the git-ignored ``perfbench/traces/``.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from quartetmerge import GroundTruth, Oracle, make_tree, random_config, run_gbs, run_rea
from quartetmerge import gbs, rea

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 failed"


def _perfbench_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "shape, size", [("star", 12), ("tall_binary", 9), ("perfect_binary", 16)]
)
def test_tracer_sees_every_inner_call(monkeypatch, shape, size):
    # the tracer times the inner calls by patching the module attributes
    # in tracing.INNER; a call that bypasses them would read as 0 there
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = {"rea": rea, "gbs": gbs}
    for algo, attrs in _perfbench_tracing().INNER.items():
        for attr in attrs:
            fn = getattr(modules[algo], attr)
            monkeypatch.setattr(modules[algo], attr, counted(f"{algo}.{attr}", fn))

    tree = make_tree(shape, size)
    gt = GroundTruth(tree, random_config(tree, 1))
    n = tree.n_receivers
    assert run_rea(tree, Oracle(gt)).queries_used == n - 1
    assert counts == {"rea.WorkingTree": 1, "rea.pick_siblings": n - 1,
                      "rea.apply_answer": n - 1}

    counts.clear()
    steps = len(run_gbs(tree, Oracle(gt), propagate_equalities=True).trace.steps)
    assert counts == {"gbs.CandidateState": 1, "gbs.select_quartet": steps,
                      "gbs.apply_update": steps}
