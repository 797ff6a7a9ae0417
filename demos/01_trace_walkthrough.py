#!/usr/bin/env python3
"""Walk through receiver elimination on a small hand-built instance.

A root edge feeds a three-way fork: receiver r1, a nested pair (r2, r3)
and receiver r4.  The second source joins on e3 for both r2 and r3, just
below the fork for r1, and on the root edge for r4.  Three queries pin
all four joining edges; this script prints every intermediate step.
"""

from quartetmerge import (
    GroundTruth,
    JoiningConfig,
    LogicalTree,
    Oracle,
    enumerate_valid_configs,
    run_rea,
)

tree = LogicalTree(
    "s1",
    [
        ("s1", "b14", "e1"),
        ("b14", "r1", "e2"),
        ("b14", "b23", "e3"),
        ("b14", "r4", "e4"),
        ("b23", "r2", "e5"),
        ("b23", "r3", "e6"),
    ],
    ["r1", "r2", "r3", "r4"],
)
truth = JoiningConfig({"r1": "e2", "r2": "e3", "r3": "e3", "r4": "e1"})

print("known tree (parent -> child via label):")
for u, v, lab in tree.edges():
    print(f"  {u} -> {v}  [{lab}]")
print(f"\nhidden joining map: {dict(truth.joins)}")
print(f"valid joining maps on this tree: {len(enumerate_valid_configs(tree))}")

result = run_rea(tree, Oracle(GroundTruth(tree, truth)))

print(f"\nreceiver elimination, {result.queries_used} queries:")
for k, step in enumerate(result.trace.steps, start=1):
    a, b = step.pair
    print(f"\nquery {k}: ({a}, {b}) -> {step.answer.name}")
    print(f"  removed {step.deleted_receiver} and its leaf edge {step.deleted_edge}")
    if step.contracted_edge is not None:
        print(f"  contracted away {step.contracted_edge}")
    if step.identified is None:
        print(f"  join deferred: {step.deleted_receiver} shares its join "
              f"with the surviving receiver")
    else:
        r, edge = step.identified
        print(f"  identified: {r} joins on {edge}")

if result.trace.aliases:
    print(f"\nalias resolution: {result.trace.aliases}")
print(f"\ninferred map: {dict(result.joins)}")
print(f"matches the hidden map: {result.matches(truth)}")
