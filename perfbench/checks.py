"""Output checks that share no logic with the package.

Depths and branching points come from parent-pointer walks over
``tree.edges()``, as in ``tests/reference.py``; nothing here calls the
package's lca table, its validity sweep or its quartet classifier.
"""

from __future__ import annotations

import math
import random


class Reference:
    """Parent pointers and node depths of one tree, from its edge list."""

    def __init__(self, tree):
        self.parent: dict[str, str] = {}
        self.child_of: dict[str, str] = {}  # edge label -> child endpoint
        for p, c, label in tree.edges():
            self.parent[c] = p
            self.child_of[label] = c
        self._depth: dict[str, int] = {}

    def depth(self, v: str) -> int:
        """Edges from the root down to ``v``, memoized along the walk."""
        chain = []
        while v not in self._depth and v in self.parent:
            chain.append(v)
            v = self.parent[v]
        d = self._depth.get(v, 0)  # the root is the one node without a parent
        for u in reversed(chain):
            d += 1
            self._depth[u] = d
        return d

    def lca_depth(self, a: str, b: str) -> int:
        parent = self.parent
        da, db = self.depth(a), self.depth(b)
        while da > db:
            a, da = parent[a], da - 1
        while db > da:
            b, db = parent[b], db - 1
        while a != b:
            a, b, da = parent[a], parent[b], da - 1
        return da

    def root_path(self, r: str) -> list[str]:
        """Edge labels from the root down to ``r``."""
        label_of = {c: lab for lab, c in self.child_of.items()}
        out = []
        while r in self.parent:
            out.append(label_of[r])
            r = self.parent[r]
        out.reverse()
        return out

    def quartet_type(self, joins, first: str, second: str) -> int:
        """Type number 1..4 from the definition of the four answers."""
        branch = self.lca_depth(first, second)
        above_first = self.depth(self.child_of[joins[first]]) <= branch
        above_second = self.depth(self.child_of[joins[second]]) <= branch
        if above_first and above_second:
            return 1
        if above_first:
            return 2
        if above_second:
            return 3
        return 4


def queried(result) -> list[tuple[tuple[str, str], int]]:
    """(pair, answer) of every oracle query the result's trace records.

    GBS steps replayed from its answer cache asked the oracle nothing.
    """
    return [
        (s.pair, int(s.answer))
        for s in result.trace.steps
        if not getattr(s, "from_cache", False)
    ]


def check(algo: str, tree, config, result, stats, rng: random.Random,
          sample: int) -> list[str]:
    """Failures found in one inference result; empty when it is right.

    ``stats`` is the oracle's own OracleStats.  ``sample`` queried pairs,
    drawn with ``rng``, have their traced answer recomputed.
    """
    failures = []
    truth = dict(config.joins)
    got = dict(result.joins.joins)
    if got != truth:
        wrong = sum(1 for r in truth if got.get(r) != truth[r])
        failures.append(f"inferred map differs from the ground truth at {wrong} receivers")
    n = tree.n_receivers
    q = result.queries_used
    if algo == "rea" and q != n - 1:
        failures.append(f"REA used {q} queries on {n} receivers, not {n - 1}")
    if algo == "gbs" and q < math.ceil(n / 2):
        failures.append(f"GBS used {q} queries on {n} receivers, under {math.ceil(n / 2)}")
    if stats.quartet_queries != q:
        failures.append(
            f"oracle counted {stats.quartet_queries} queries, the result {q}"
        )
    pairs = queried(result)
    ref = Reference(tree)
    for (a, b), answer in rng.sample(pairs, min(sample, len(pairs))):
        expected = ref.quartet_type(truth, a, b)
        if answer != expected:
            failures.append(f"traced answer {answer} for {(a, b)}, reference {expected}")
    return failures
