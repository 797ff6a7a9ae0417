#!/usr/bin/env python3
"""Majority voting against a noisy oracle.

Each quartet answer is flipped to a uniformly random wrong type with
probability p.  Repeating every query an odd number of times and taking
the per-query majority drives the effective error rate down; this script
measures end-to-end recovery accuracy as the repeat count grows.
"""

from quartetmerge import GroundTruth, NoiseSpec, Oracle, make_tree, random_config, run_rea

RUNS = 400
tree = make_tree("perfect_binary", 8)

print(f"receiver elimination on perfect_binary(8), {RUNS} runs per cell")
print(f"{'p':>6}{'repeats':>9}{'accuracy':>10}{'probes/run':>12}")
for p in (0.05, 0.10, 0.20):
    for repeats in (1, 3, 5):
        correct = 0
        probes = 0
        for k in range(RUNS):
            config = random_config(tree, k)
            oracle = Oracle(
                GroundTruth(tree, config),
                NoiseSpec(p=p, repeats=repeats, seed=1000 * repeats + k),
            )
            result = run_rea(tree, oracle)
            correct += result.matches(config)
            probes += oracle.stats.total_queries
        print(f"{p:>6.2f}{repeats:>9}{correct / RUNS:>10.3f}{probes / RUNS:>12.1f}")
    print()

print("a wrong answer anywhere poisons the whole map, so raw accuracy at")
print("repeats=1 decays quickly with p; majority voting buys it back at a")
print("linear cost in probes (probes = repeats x (n-1))")
