"""Spans around the calls into each module, kept in memory.

A span is (name, start, end, parent span, instance id).  The benchmark
opens spans around the public calls it makes itself; the calls that
``run_rea`` and ``run_gbs`` make are reached through the module attributes
they look up at call time, and the oracle through a proxy.  Collector
pauses come from ``gc.callbacks`` and are kept as spans named ``gc``.
"""

from __future__ import annotations

import gc
import time
from array import array
from pathlib import Path

import numpy as np

# the attributes run_rea and run_gbs look up on every call
INNER = {
    "rea": ("WorkingTree", "pick_siblings", "apply_answer"),
    "gbs": ("CandidateState", "select_quartet", "apply_update"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("i")
        self.inst = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.instance = -1
        # collector pauses land here, not in the span arrays, so that a
        # pause inside a span's bookkeeping cannot misalign them
        self._gc: list[tuple[float, float, int, int]] = []
        self._gc_start = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        nid = self._id(name)
        names, parents, insts = self.name, self.parent, self.inst
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            insts.append(self.instance)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def oracle(self, oracle):
        return _TimedOracle(oracle, self.wrap("oracle.query", oracle.query))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._gc.append(
                (self._gc_start, time.perf_counter(), self._stack[-1], self.instance)
            )

    def install(self, modules: dict) -> None:
        """Route the inner calls of each algorithm module through spans."""
        for algo, attrs in INNER.items():
            module = modules[algo]
            for attr in attrs:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(f"{algo}.{attr}", fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans, collector pauses appended after the others."""
        gc_id = self._id("gc")
        g = np.array(self._gc, dtype=np.float64).reshape(-1, 4)
        return {
            "names": np.array(self.names),
            "name": np.concatenate([np.frombuffer(self.name, np.int16),
                                    np.full(len(g), gc_id, np.int16)]),
            "start": np.concatenate([np.frombuffer(self.start, np.float64), g[:, 0]]),
            "end": np.concatenate([np.frombuffer(self.end, np.float64), g[:, 1]]),
            "parent": np.concatenate([np.frombuffer(self.parent, np.int32),
                                      g[:, 2].astype(np.int32)]),
            "instance": np.concatenate([np.frombuffer(self.inst, np.int32),
                                        g[:, 3].astype(np.int32)]),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


class _TimedOracle:
    """The oracle passed to an algorithm, with a span around each query."""

    def __init__(self, oracle, query):
        self.stats = oracle.stats
        self.query = query


def layer_times(spans: dict[str, np.ndarray]) -> list[dict[str, float]]:
    """Per instance: total seconds and call count of every span name,
    the self time of each algorithm's top-level call, and the collector
    time and collections inside that call."""
    names = [str(n) for n in spans["names"]]
    name, parent, inst = spans["name"], spans["parent"], spans["instance"]
    dur = spans["end"] - spans["start"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=len(dur))
    gc_id = names.index("gc")
    tops = {names.index(n): n.split(".")[0]
            for n in ("rea.run_rea", "gbs.run_gbs") if n in names}

    def algo_above(k: int) -> str | None:
        while k >= 0:
            if int(name[k]) in tops:
                return tops[int(name[k])]
            k = int(parent[k])
        return None

    special = np.array([gc_id, *tops])
    out = []
    for i in range(int(inst.max()) + 1 if len(inst) else 0):
        rows = np.flatnonzero(inst == i)
        ids, inverse, counts = np.unique(name[rows], return_inverse=True,
                                         return_counts=True)
        totals = np.bincount(inverse, weights=dur[rows])
        agg: dict[str, float] = {}
        for nid, total, count in zip(ids, totals, counts):
            agg[f"{names[nid]}:s"] = float(total)
            agg[f"{names[nid]}:n"] = int(count)
        for k in rows[np.isin(name[rows], special)]:
            nid = int(name[k])
            if nid in tops:
                agg[f"{tops[nid]}:self"] = float(dur[k] - child[k])
                continue
            algo = algo_above(int(parent[k]))
            if algo is not None:
                agg[f"{algo}:gc_s"] = agg.get(f"{algo}:gc_s", 0.0) + float(dur[k])
                agg[f"{algo}:gc_n"] = agg.get(f"{algo}:gc_n", 0) + 1
        out.append(agg)
    return out
