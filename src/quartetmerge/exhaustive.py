"""Ground-truth enumeration, identifiability, and minimum query counts.

These tools answer "how few quartets could possibly suffice" questions by
brute force on small instances: enumerate every valid joining
configuration, compare answer vectors, and search identifying subsets in
breadth-first size order.  Everything here is exponential by nature and
guarded by explicit caps.  Both the enumeration and the answer vectors
read the quartet formula over join depths in numpy, a row per map.

Two notions of "the answers identify the configuration" are supported and
they are not equivalent:

* ``elimination`` (the default): no other valid configuration produces
  the same answers on the chosen pairs.  This is the information-theoretic
  reading; it exploits cross-receiver validity coupling.
* ``deduction``: closing the answers under the per-pair interval rules
  (above/below the branching point) and type-1 equalities pins every
  joining edge.  This is what an interval-based solver can conclude
  without enumerating configurations, and it may need strictly more pairs.
  It is GBS's candidate intervals (``gbs.Intervals``) narrowed by the
  answers with equalities folded in.

On the 4-receiver caterpillar with all joins coincident on the root edge,
deduction needs 3 pairs while elimination needs only 2: the answer pair
{(r1,r3): 1, (r2,r4): 1} leaves r1's interval ambiguous between depths 1
and 2, yet the depth-2 alternative would force two distinct joins onto the
shared prefix of (r1, r2) and is therefore no valid configuration at all.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

import numpy as np

from .errors import InsufficientReceivers, StructuralViolation, TooLarge
from .gbs import Intervals
from .topology import (
    GroundTruth,
    JoiningConfig,
    LogicalTree,
    Pair,
    QuartetType,
    _join_nodes,
    _quartet,
)

MODES = ("elimination", "deduction")


def lower_bound(n: int) -> int:
    """Queries any algorithm needs in the worst case: ceil(n / 2).

    Each quartet involves two receivers and every receiver's join must be
    pinned by at least one answer.
    """
    if n < 2:
        raise InsufficientReceivers(f"need at least 2 receivers, got {n}")
    return (n + 1) // 2


def all_pairs(tree: LogicalTree) -> list[Pair]:
    """Receiver pairs in nested-loop order, each in index order."""
    rec = tree.receivers
    return [(rec[i], rec[j]) for i in range(len(rec)) for j in range(i + 1, len(rec))]


def enumerate_valid_configs(
    tree: LogicalTree, *, max_receivers: int = 8, max_raw: int = 1_000_000
) -> list[JoiningConfig]:
    """All valid joining configurations, in lexicographic order.

    Order is by receiver index, then edge depth along the root path.  The
    caps bound the raw product of path lengths, not the (smaller) valid
    count; TooLarge asks the caller to decide, never silently truncates.
    The maps grow as rows of join depths, a receiver at a time: depth x
    for receiver k extends a row unless an earlier join and x both lie on
    their pair's shared prefix (type 1) at different depths.  np.nonzero
    lists the survivors row by row, depths ascending, keeping the order.
    """
    n = tree.n_receivers
    if n > max_receivers:
        raise TooLarge(f"{n} receivers exceeds the enumeration cap {max_receivers}")
    raw = prod(tree.node_depth(r) for r in tree.receivers)
    if raw > max_raw:
        raise TooLarge(f"{raw} raw combinations exceed the cap {max_raw}")

    depths = np.zeros((1, 0), dtype=np.int64)
    for k, r in enumerate(tree.receivers):
        x = np.arange(1, tree.node_depth(r) + 1)
        ok = np.ones((len(depths), len(x)), dtype=bool)
        for j in range(k):
            d = depths[:, j, None]
            ok &= (_quartet(d, x, tree._lca_depth_at(j, k)) != 1) | (d == x)
        rows, cols = np.nonzero(ok)
        depths = np.column_stack((depths[rows], x[cols]))
    return [JoiningConfig._of(tree, tree._nodes_at(row)) for row in depths.tolist()]


def answer_set(gt: GroundTruth, pairs: list[Pair]) -> dict[Pair, QuartetType]:
    """Quartet answers for the given pairs, oriented as written."""
    return {p: gt.quartet_type(*p) for p in pairs}


def _answer_matrix(
    tree: LogicalTree, configs: list[JoiningConfig], pairs: list[Pair]
) -> np.ndarray:
    """Quartet type value of every pair, as written, on every config."""
    nodes = np.array([_join_nodes(tree, c) for c in configs], dtype=np.intp)
    depths = np.asarray(tree._depth)[nodes.reshape(-1, tree.n_receivers)]
    ij = [tree._pair_indices(a, b) for a, b in pairs]
    branch = np.array([tree._lca_depth_at(i, j) for i, j in ij], dtype=np.int64)
    i, j = np.array(ij, dtype=np.intp).reshape(-1, 2).T
    return _quartet(depths[:, i], depths[:, j], branch).astype(np.int8)


def _deduction_identified(gt: GroundTruth, pairs: list[Pair]) -> bool:
    """Narrow GBS's intervals by the answers, with equalities folded in;
    True if every join is pinned."""
    tree = gt.tree
    state = Intervals(tree, propagate_equalities=True)
    for a, b in pairs:
        i, j = tree._pair_indices(a, b)
        state.narrow(i, j, gt._type_at(i, j))
    return state.all_resolved()


def identifies(
    tree: LogicalTree,
    pairs: list[Pair],
    config: JoiningConfig,
    *,
    configs: list[JoiningConfig] | None = None,
    mode: str = "elimination",
) -> bool:
    """True when the answers on ``pairs`` pin ``config`` uniquely.

    Raises MisplacedJoin or InvalidConfiguration when ``config`` is not a
    valid joining configuration of ``tree``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    gt = GroundTruth(tree, config)  # raises on an invalid map
    if mode == "deduction":
        return _deduction_identified(gt, pairs)
    target = _answer_matrix(tree, [config], pairs)
    if configs is None:
        configs = enumerate_valid_configs(tree)
    others = _answer_matrix(tree, [c for c in configs if c != config], pairs)
    return not (others == target).all(axis=1).any()


def _subsets(m: int, max_subsets: int):
    """Non-empty index subsets of range(m), breadth-first in size and in
    combination order within a size.  Raises TooLarge when asked for one
    more than ``max_subsets``.  The last subset of size k starts at m - k.
    """
    explored = 0
    for k in range(1, m + 1):
        for cols in combinations(range(m), k):
            explored += 1
            if explored > max_subsets:
                raise TooLarge(f"subset search exceeded the cap {max_subsets}")
            yield cols


def min_identifying_set(
    tree: LogicalTree,
    config: JoiningConfig,
    *,
    max_subsets: int = 5_000_000,
    mode: str = "elimination",
) -> tuple[Pair, ...]:
    """Smallest pair subset whose answers pin ``config`` uniquely.

    Breadth-first in subset size; among equal-size subsets the first in
    combination order wins, so the witness is deterministic.  Raises
    MisplacedJoin or InvalidConfiguration when ``config`` is not a valid
    joining configuration of ``tree``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    gt = GroundTruth(tree, config)  # raises on an invalid map
    pairs = all_pairs(tree)
    if mode == "deduction":
        if _deduction_identified(gt, []):
            return ()
        for cols in _subsets(len(pairs), max_subsets):
            subset = tuple(pairs[c] for c in cols)
            if _deduction_identified(gt, list(subset)):
                return subset
        raise StructuralViolation("the full pair set failed to pin the config")
    configs = enumerate_valid_configs(tree)
    if len(configs) == 1:
        return ()
    matrix = _answer_matrix(tree, configs, pairs)
    row = configs.index(config)
    target = matrix[row]
    for cols in _subsets(len(pairs), max_subsets):
        sel = list(cols)
        hits = (matrix[:, sel] == target[sel]).all(axis=1)
        if int(hits.sum()) == 1:
            return tuple(pairs[c] for c in cols)
    raise StructuralViolation("the full pair set failed to identify a valid config")


def min_quartets(tree: LogicalTree, config: JoiningConfig, **caps) -> int:
    """Size of the smallest identifying pair subset for ``config``."""
    return len(min_identifying_set(tree, config, **caps))


def min_quartets_all(
    tree: LogicalTree, *, max_subsets: int = 5_000_000, mode: str = "elimination"
) -> list[int]:
    """min_quartets for every valid configuration, in enumeration order.

    Under elimination each subset is evaluated against all configurations
    at once, which is far cheaper than per-configuration searches on the
    same tree; deduction falls back to the per-configuration search.  The
    search stops at the end of the first size level that leaves every
    configuration identified.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    pairs = all_pairs(tree)
    configs = enumerate_valid_configs(tree)
    if mode == "deduction":
        return [
            min_quartets(tree, c, max_subsets=max_subsets, mode="deduction")
            for c in configs
        ]
    if len(configs) == 1:
        return [0]
    matrix = _answer_matrix(tree, configs, pairs)
    result = np.full(len(configs), -1, dtype=np.int64)
    m = len(pairs)
    for cols in _subsets(m, max_subsets):
        k = len(cols)
        sub = matrix[:, list(cols)]
        _, inverse, counts = np.unique(
            sub, axis=0, return_inverse=True, return_counts=True
        )
        unique_row = counts[inverse] == 1
        result[unique_row & (result < 0)] = k
        if cols[0] == m - k and not (result < 0).any():
            break
    if (result < 0).any():
        raise StructuralViolation("some valid configs were never identified")
    return result.tolist()
