"""Deterministic tree families and seeded joining-configuration sampling.

Node and label names follow one scheme across all shapes: the root is
``s1``, internal nodes are ``b1, b2, ...`` in construction order, receivers
are ``r1..rN``, and edge labels are ``e1, e2, ...`` in the order the edges
are laid down.  Receivers are numbered so that the planar leaf order of the
built tree equals the index order.
"""

from __future__ import annotations

import random
from itertools import count, islice

from .errors import BadSpec
from .topology import JoiningConfig, LogicalTree, PlacementScan, _NearestBlockers


def star(n: int) -> LogicalTree:
    """Root edge into a hub with ``n`` receiver leaves.

    Every root path has two edges (the shared root edge and a private leaf
    edge), so star instances exercise the case where no receiver starts
    resolved.
    """
    if n < 2:
        raise BadSpec(f"star needs at least 2 receivers, got {n}")
    receivers = [f"r{k}" for k in range(1, n + 1)]

    def edges():
        yield "s1", "b1", "e1"
        for k, r in enumerate(receivers, 2):
            yield "b1", r, f"e{k}"

    return LogicalTree("s1", edges(), receivers)


def tall_binary(n: int) -> LogicalTree:
    """Caterpillar: a chain of branch nodes, one leaf each, two at the bottom.

    Path lengths run from n (receivers r1, r2 at the bottom) down to 2
    (receiver rN just under the root).  This is the depth-extreme family:
    the deepest shared prefixes and the longest candidate paths.
    """
    if n < 2:
        raise BadSpec(f"tall_binary needs at least 2 receivers, got {n}")
    receivers = [f"r{k}" for k in range(1, n + 1)]

    def edges():
        yield "s1", "b1", "e1"
        b = "b1"
        for k in range(1, n - 1):
            # continue the chain before hanging this node's own leaf, so
            # the planar leaf order matches the receiver indexing
            c = f"b{k + 1}"
            yield b, c, f"e{2 * k}"
            yield b, receivers[n - k], f"e{2 * k + 1}"
            b = c
        yield b, receivers[0], f"e{2 * n - 2}"
        yield b, receivers[1], f"e{2 * n - 1}"

    return LogicalTree("s1", edges(), receivers)


def _perfect(arity: int, depth: int) -> LogicalTree:
    if depth < 1:
        raise BadSpec(f"depth must be >= 1, got {depth}")
    receivers = [f"r{k}" for k in range(1, arity**depth + 1)]

    def edges():
        yield "s1", "b1", "e1"
        labels = (f"e{k}" for k in count(2))
        names = (f"b{k}" for k in count(2))
        frontier = ["b1"]
        for level in range(1, depth + 1):
            children = names if level < depth else iter(receivers)
            below = []
            for node in frontier:
                for child in islice(children, arity):
                    yield node, child, next(labels)
                    below.append(child)
            frontier = below

    return LogicalTree("s1", edges(), receivers)


def perfect_binary(depth: int) -> LogicalTree:
    """Root edge into a complete binary tree; 2**depth receivers."""
    return _perfect(2, depth)


def perfect_ternary(depth: int) -> LogicalTree:
    """Root edge into a complete ternary tree; 3**depth receivers."""
    return _perfect(3, depth)


_SHAPES = ("star", "perfect_binary", "tall_binary", "perfect_ternary")


def _log_exact(n: int, base: int) -> int:
    d = 0
    m = 1
    while m < n:
        m *= base
        d += 1
    if m != n:
        raise BadSpec(f"size {n} is not a power of {base}")
    return d


def make_tree(shape: str, size: int) -> LogicalTree:
    """Build a shape by receiver count.

    ``size`` is always the receiver count N; for the perfect families it
    must be an exact power of the arity.
    """
    if not isinstance(size, int) or isinstance(size, bool):
        raise BadSpec(f"size must be an int, got {size!r}")
    if shape == "star":
        return star(size)
    if shape == "tall_binary":
        return tall_binary(size)
    if shape == "perfect_binary":
        return perfect_binary(_log_exact(size, 2))
    if shape == "perfect_ternary":
        return perfect_ternary(_log_exact(size, 3))
    raise BadSpec(f"unknown shape {shape!r}; expected one of {_SHAPES}")


def random_config(tree: LogicalTree, seed: int) -> JoiningConfig:
    """Seeded valid configuration, one receiver at a time in index order.

    Each receiver draws uniformly among the root-path edges that keep the
    partial configuration valid; the result is always valid, and the leaf
    edge is always available so sampling cannot fail.  Identical seeds give
    identical configurations.
    """
    rng = random.Random(seed)
    depth = tree._depth
    # When index order is the planar leaf order, the nearest-blocker stack
    # answers the same constraints as PlacementScan in amortized O(1) each,
    # against O(log N) per query and per newly marked node for the scan's
    # marked-ancestor tree.
    scan = _NearestBlockers(tree) if tree._planar else PlacementScan(tree)
    chosen: list[int] = []
    for r, v in zip(tree.receivers, tree._leaf):
        blocked, exception = scan.allowed(r)
        n_choices = depth[v] - blocked + (1 if exception is not None else 0)
        pick = rng.randrange(n_choices)
        if exception is not None and pick == n_choices - 1:
            cd = exception
        else:
            cd = blocked + 1 + pick
        chosen.append(cd)
        scan.place(r, cd)
    del scan  # the scan's lists would otherwise set the peak under the lookup
    return JoiningConfig._of(tree, tree._nodes_at(chosen))
