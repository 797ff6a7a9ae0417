"""Benchmark of the REA and GBS inference pipelines.

    python3 perfbench/run.py --workload rea_deep --seed 0 --seconds 10 --trace 0

Run from the repository root.  One operation is one instance of the
pipeline make_tree -> random_config -> GroundTruth -> run_rea / run_gbs,
followed by the checks in checks.py.  The run repeats whole rounds of the
workload's instances for --seconds seconds in this one process and thread,
then measures one more instance under tracemalloc.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Every reported time is wall time scaled to a reference host speed: each
inference call is bracketed by two passes of a fixed workload, and its
time is multiplied by hostspeed.REF_S over their mean (hostspeed.py).
The unscaled figures go to standard error.

--trace 0 reports the end-to-end metrics, timed with tracing off.
--trace 1 reports the per-layer metrics from spans around the calls into
each module, and writes the spans to perfbench/traces/<workload>.npz.
See README.md for the workloads and what each metric should move with.
"""

import time

_T0 = time.perf_counter()  # the cold set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"
CHECK_SAMPLE = 32  # queried pairs per instance whose answer is recomputed
LCA_PAIRS = 20_000  # receiver pairs timed for topology.lca_depth_us
MIB = 1 << 20

END_TO_END = {
    "setup_s": "s",
    "infer_s": "s",
    "queries": "count",
    "peak_mib": "MiB",
}
PER_LAYER = {
    "generators.make_tree_s": "s",
    "generators.random_config_s": "s",
    "topology.lca_table_s": "s",
    "topology.ground_truth_s": "s",
    "topology.tree_mib": "MiB",
    "topology.lca_depth_us": "us",
    "oracle.query_s": "s",
    "oracle.query_us": "us",
    "oracle.queries": "count",
    "rea.run_s": "s",
    "rea.working_tree_s": "s",
    "rea.pick_s": "s",
    "rea.surgery_s": "s",
    "rea.self_s": "s",
    "rea.steps": "count",
    "rea.contractions": "count",
    "rea.gc_s": "s",
    "rea.gc_collections": "count",
    "rea.peak_mib": "MiB",
    "gbs.run_s": "s",
    "gbs.init_s": "s",
    "gbs.select_s": "s",
    "gbs.select_ms_per_step": "ms",
    "gbs.update_s": "s",
    "gbs.self_s": "s",
    "gbs.steps": "count",
    "gbs.gc_s": "s",
    "gbs.peak_mib": "MiB",
}


@dataclass(frozen=True)
class Instance:
    """How to build one instance's tree, and its configuration seed."""

    builder: str  # span name of the tree-building call
    build: Callable
    config_seed: int


def load_package():
    """Import quartetmerge from this checkout's src/, and nowhere else."""
    if not (SRC / "quartetmerge" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import quartetmerge

    if Path(quartetmerge.__file__).resolve().parent != SRC / "quartetmerge":
        sys.exit(f"imported quartetmerge from {quartetmerge.__file__}, not {SRC}")
    return quartetmerge


# -- workloads ---------------------------------------------------------------
# Each returns (algorithm, instances of one round) for a seed.


def rea_deep(qm, seed):
    # criterion 9's caterpillar: the deepest trees, set-up near half the cost
    return "rea", [Instance("generators.make_tree",
                            lambda: qm.make_tree("tall_binary", 100_000), seed)]


def rea_wide(qm, seed):
    # one hub under the root: fan-out 4000, run_rea quadratic in it
    return "rea", [Instance("generators.make_tree",
                            lambda: qm.make_tree("star", 4000), seed)]


SHUFFLE_SEEDS = (0, 1, 2, 3)


def rea_shuffled(qm, seed):
    # receivers listed out of planar order send random_config down its
    # PlacementScan path, whose cost moves by half from one shuffle and
    # configuration to the next.  The four shuffles are fixed, so the first
    # round, whose set-ups setup_s times cold, does the same work in every
    # run; the seed orders them and draws the checked pairs
    template = qm.make_tree("perfect_ternary", 3**9)
    edges = template.edges()
    order = list(SHUFFLE_SEEDS)
    random.Random(seed).shuffle(order)
    instances = []
    for s in order:
        receivers = list(template.receivers)
        random.Random(s).shuffle(receivers)
        instances.append(Instance(
            "topology.LogicalTree",
            lambda receivers=receivers: qm.LogicalTree(template.root, edges, receivers),
            s))
    return "rea", instances


GBS_CONFIG_SEEDS = (0, 1, 2, 3, 4)


def gbs_binary(qm, seed):
    # fixed configurations, so the query count repeats exactly from run to
    # run; the seed orders them and draws the checked pairs
    order = list(GBS_CONFIG_SEEDS)
    random.Random(seed).shuffle(order)
    return "gbs", [Instance("generators.make_tree",
                            lambda: qm.make_tree("perfect_binary", 256), s)
                   for s in order]


WORKLOADS = {f.__name__: f for f in (rea_deep, rea_wide, rea_shuffled, gbs_binary)}


# -- one operation -------------------------------------------------------------


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Outcome:
    ok: bool
    correct: bool
    setup_s: float
    infer_s: float
    queries: int
    contractions: int = 0
    pace_s: float = 0.0  # mean of the host-speed passes around inference

    @property
    def scale(self) -> float:
        """Factor from this operation's wall times to reference-host times."""
        return hostspeed.REF_S / self.pace_s


def operation(qm, algo, inst, rng, host, call=direct, oracle=lambda o: o,
              corrupt=None):
    """Build, configure, infer and check one instance; (Outcome, tree).

    ``rng`` draws the checked pairs, ``host`` brackets the inference call
    with host-speed passes, ``call(name, fn, *args)`` makes each public
    call, ``oracle`` wraps the oracle handed to the algorithm, and
    ``corrupt`` alters the result before it is checked (the self-test uses
    it).
    """
    start = time.perf_counter()
    try:
        tree = call(inst.builder, inst.build)
        # the first lca query builds the range-min table; random_config
        # would build it otherwise, so this only gives it its own span
        call("topology.lca_table", tree.lca_depth, tree.receivers[0], tree.receivers[1])
        config = call("generators.random_config", qm.random_config, tree,
                      inst.config_seed)
        gt = call("topology.GroundTruth", qm.GroundTruth, tree, config)
        setup_end = time.perf_counter()
        pace_before = host.pass_s()
        infer_start = time.perf_counter()
        exact = qm.ExactOracle(gt)
        if algo == "rea":
            result = call("rea.run_rea", qm.run_rea, tree, oracle(exact))
        else:
            result = call("gbs.run_gbs", qm.run_gbs, tree, oracle(exact),
                          propagate_equalities=True)
        infer_s = time.perf_counter() - infer_start
        pace_s = (pace_before + host.pass_s()) / 2
    except qm.QuartetMergeError as exc:
        print(f"operation failed: {exc!r}", file=sys.stderr)
        return Outcome(False, True, 0.0, 0.0, 0), None
    if corrupt is not None:
        result = corrupt(tree, result)
    failures = checks.check(algo, tree, config, result, exact.stats, rng,
                            CHECK_SAMPLE)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    contractions = sum(1 for st in result.trace.steps
                       if getattr(st, "contracted_edge", None) is not None)
    return Outcome(not failures, not failures, setup_end - start, infer_s,
                   result.queries_used, contractions, pace_s), tree


def memory_pass(qm, algo, inst) -> dict[str, float]:
    """tracemalloc figures for one instance, in MiB.

    ``peak`` covers the whole pipeline, ``held`` what the tree, its lca
    table, the configuration and the ground truth hold after set-up, and
    ``infer_peak`` the peak of the inference call above that.
    """
    gc.collect()
    tracemalloc.start()
    try:
        tree = inst.build()
        tree.lca_depth(tree.receivers[0], tree.receivers[1])
        gt = qm.GroundTruth(tree, qm.random_config(tree, inst.config_seed))
        held, setup_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        if algo == "rea":
            qm.run_rea(tree, qm.ExactOracle(gt))
        else:
            qm.run_gbs(tree, qm.ExactOracle(gt), propagate_equalities=True)
        infer_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "peak": max(setup_peak, infer_peak) / MIB,
        "held": held / MIB,
        "infer_peak": (infer_peak - held) / MIB,
    }


def lca_depth_us(tree, seed: int) -> float:
    """Median per-call time of tree.lca_depth over a seeded set of pairs."""
    rng = random.Random(seed)
    rec = tree.receivers
    pairs = [tuple(rng.sample(rec, 2)) for _ in range(LCA_PAIRS)]
    lca = tree.lca_depth
    clock = time.perf_counter
    times = []
    for _ in range(5):
        t = clock()
        for a, b in pairs:
            lca(a, b)
        times.append((clock() - t) / LCA_PAIRS * 1e6)
    return statistics.median(times)


# -- runs ------------------------------------------------------------------------


def measure(qm, algo, instances, seed, seconds, trace, host, corrupt=None,
            workload="run"):
    """Run whole rounds of ``instances`` for ``seconds``; return the result."""
    rng = random.Random(seed)
    tracer = None
    call, wrap_oracle = direct, (lambda o: o)
    if trace:
        tracer = tracing.Tracer()
        tracer.install({"rea": qm.rea, "gbs": qm.gbs})
        call, wrap_oracle = tracer.call, tracer.oracle
    outcomes = []
    last_tree = None
    first_start = time.perf_counter()
    deadline = first_start + seconds
    try:
        while True:
            for inst in instances:
                if tracer is not None:
                    tracer.instance = len(outcomes)
                outcome, tree = operation(qm, algo, inst, rng, host, call,
                                          wrap_oracle, corrupt)
                outcomes.append(outcome)
                last_tree = tree or last_tree
                del tree
                gc.collect()
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    lca_us = lca_depth_us(last_tree, seed) if trace and last_tree else 0.0
    last_tree = None
    mem = memory_pass(qm, algo, instances[0])

    good = [o for o in outcomes if o.ok]
    report = {
        "correct": all(o.correct for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(good),
    }
    if not good:
        report["metrics"] = {}
        return report
    # the run's host speed, for the figures not bracketed by passes
    pace_s = statistics.median(o.pace_s for o in good)
    run_scale = hostspeed.REF_S / pace_s
    if not trace:
        # the cold set-up: imports and inputs, then the set-ups of the
        # first round; building the host-speed pass falls between and is
        # left out
        setup_s = (host.created - _T0
                   + sum(o.setup_s for o in outcomes[:len(instances)]))
        print(f"unscaled: setup_s {setup_s:.4f} "
              f"infer_s {statistics.median(o.infer_s for o in good):.4f}; "
              f"host-speed pass {pace_s:.4f} s", file=sys.stderr)
        print("per operation, infer_s / pass:", " ".join(
            f"{o.infer_s:.4f}/{o.pace_s:.4f}" for o in good), file=sys.stderr)
        values = {
            "setup_s": setup_s * run_scale,
            "infer_s": statistics.median(o.infer_s * o.scale for o in good),
            "queries": statistics.median(o.queries for o in good),
            "peak_mib": mem["peak"],
        }
        units = END_TO_END
    else:
        spans = tracer.arrays()
        tracer.write(TRACES / f"{workload}.npz")
        per_instance = [scaled(a, o.scale) if o.ok else a
                        for a, o in zip(tracing.layer_times(spans), outcomes)]
        values = layer_metrics(algo, per_instance, good, outcomes)
        values["topology.lca_depth_us"] = lca_us * run_scale
        values["topology.tree_mib"] = mem["held"]
        values[f"{algo}.peak_mib"] = mem["infer_peak"]
        units = PER_LAYER
    report["metrics"] = {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()}
    return report


def scaled(agg: dict[str, float], factor: float) -> dict[str, float]:
    """One instance's layer figures with every time multiplied by ``factor``."""
    return {k: v if k.endswith(("_n", ":n")) else v * factor
            for k, v in agg.items()}


def layer_metrics(algo, per_instance, good, outcomes) -> dict[str, float]:
    """Medians over the checked instances of each layer's figures."""
    ok = [per_instance[i] for i, o in enumerate(outcomes) if o.ok]

    def med(f):
        return statistics.median(f(a) for a in ok)

    def s(name):
        return lambda a: a.get(f"{name}:s", 0.0)

    def n(name):
        return lambda a: a.get(f"{name}:n", 0)

    values = {
        "generators.make_tree_s": med(lambda a: a.get("generators.make_tree:s",
                                                      a.get("topology.LogicalTree:s", 0.0))),
        "generators.random_config_s": med(s("generators.random_config")),
        "topology.lca_table_s": med(s("topology.lca_table")),
        "topology.ground_truth_s": med(s("topology.GroundTruth")),
        "oracle.query_s": med(s("oracle.query")),
        "oracle.query_us": med(lambda a: a["oracle.query:s"] / a["oracle.query:n"] * 1e6),
        "oracle.queries": med(n("oracle.query")),
    }
    if algo == "rea":
        values.update({
            "rea.run_s": med(s("rea.run_rea")),
            "rea.working_tree_s": med(s("rea.WorkingTree")),
            "rea.pick_s": med(s("rea.pick_siblings")),
            "rea.surgery_s": med(s("rea.apply_answer")),
            "rea.self_s": med(lambda a: a["rea:self"]),
            "rea.steps": med(n("rea.apply_answer")),
            "rea.gc_s": med(lambda a: a.get("rea:gc_s", 0.0)),
            "rea.gc_collections": med(lambda a: a.get("rea:gc_n", 0)),
        })
        values["rea.contractions"] = statistics.median(o.contractions for o in good)
    else:
        values.update({
            "gbs.run_s": med(s("gbs.run_gbs")),
            "gbs.init_s": med(s("gbs.CandidateState")),
            "gbs.select_s": med(s("gbs.select_quartet")),
            "gbs.select_ms_per_step": med(
                lambda a: a["gbs.select_quartet:s"] / a["gbs.select_quartet:n"] * 1e3),
            "gbs.update_s": med(s("gbs.apply_update")),
            "gbs.self_s": med(lambda a: a["gbs:self"]),
            "gbs.steps": med(n("gbs.apply_update")),
            "gbs.gc_s": med(lambda a: a.get("gbs:gc_s", 0.0)),
        })
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    qm = load_package()
    algo, instances = WORKLOADS[args.workload](qm, args.seed)
    host = hostspeed.HostSpeed()
    report = measure(qm, algo, instances, args.seed, args.seconds, args.trace,
                     host, workload=args.workload)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
