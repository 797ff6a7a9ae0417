"""Self-test of the benchmark's output checks and of its result line.

    python3 perfbench/selftest.py

Runs small instances of every workload kind through run.measure, clean
and with one fault injected into each result: a changed join, a query
count off by one either way, a wrong traced answer.  Every clean run must
report no failed operation and every faulty one only failed operations.
Also checks that the metric names and units match BENCHMARK.json and that
a traced run reports every per-layer metric.  Exits 1 on any mismatch.
"""

import dataclasses
import json
import random
import sys

import checks
import hostspeed
import run

qm = run.load_package()


def tree_of(shape, n):
    return lambda: qm.make_tree(shape, n)


def shuffled_ternary():
    template = qm.make_tree("perfect_ternary", 27)
    receivers = list(template.receivers)
    random.Random(3).shuffle(receivers)
    return qm.LogicalTree(template.root, template.edges(), receivers)


# every case queries at most run.CHECK_SAMPLE pairs, so each traced answer
# is recomputed and a wrong one is always caught
CASES = {
    "rea tall_binary 24": ("rea", [run.Instance("generators.make_tree",
                                                tree_of("tall_binary", 24), 5)]),
    "rea star 20": ("rea", [run.Instance("generators.make_tree", tree_of("star", 20), 1)]),
    "rea shuffled perfect_ternary 27": ("rea", [run.Instance("topology.LogicalTree",
                                                             shuffled_ternary, 2)]),
    "gbs perfect_binary 16": ("gbs", [run.Instance("generators.make_tree",
                                                   tree_of("perfect_binary", 16), s)
                                      for s in (0, 1)]),
}


def change_one_join(tree, result):
    joins = dict(result.joins.joins)
    ref = checks.Reference(tree)
    r = next(r for r in tree.receivers if len(ref.root_path(r)) > 1)
    joins[r] = next(e for e in ref.root_path(r) if e != joins[r])
    return dataclasses.replace(result, joins=qm.JoiningConfig(joins))


def queries_plus_one(tree, result):
    return dataclasses.replace(result, queries_used=result.queries_used + 1)


def queries_minus_one(tree, result):
    return dataclasses.replace(result, queries_used=result.queries_used - 1)


def wrong_answer(tree, result):
    steps = result.trace.steps
    k = next(k for k, s in enumerate(steps) if not getattr(s, "from_cache", False))
    other = qm.QuartetType(steps[k].answer % 4 + 1)
    steps[k] = dataclasses.replace(steps[k], answer=other)
    return result


FAULTS = (change_one_join, queries_plus_one, queries_minus_one, wrong_answer)


def main() -> int:
    bad = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            bad.append(what)

    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "end-to-end names and units match BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "per-layer names and units match BENCHMARK.json")
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "workload names match BENCHMARK.json")

    host = hostspeed.HostSpeed()
    for label, (algo, instances) in CASES.items():
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            res = run.measure(qm, algo, instances, 0, 0, trace, host,
                              workload="selftest")
            expect(res["failed"] == 0 and res["correct"]
                   and set(res["metrics"]) == set(names),
                   f"{label}, trace {trace}: clean run, every metric reported")
        for fault in FAULTS:
            res = run.measure(qm, algo, instances, 0, 0, 0, host, corrupt=fault)
            expect(res["attempted"] > 0 and res["failed"] == res["attempted"]
                   and not res["correct"],
                   f"{label}: {fault.__name__} fails every operation")
    print(f"{len(bad)} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
