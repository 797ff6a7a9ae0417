"""Ground-truth enumeration, identifiability, and minimum query counts.

These tools answer "how few quartets could possibly suffice" questions by
brute force on small instances: enumerate every valid joining
configuration, compare answer vectors, and search identifying subsets in
breadth-first size order.  Everything here is exponential by nature and
guarded by explicit caps.  The maps stay one numpy matrix of join depths,
a row per map, from enumeration to the answer vectors, which read the
quartet formula over it; only enumerate_valid_configs turns the rows into
configs, by one node lookup.  Each mode is a predicate on pair subsets,
and one breadth-first search serves them all.

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
from .topology import GroundTruth, JoiningConfig, LogicalTree, Pair, QuartetType, _quartet

MODES = ("elimination", "deduction")
# the default caps on the enumeration and on the subset searches
_MAX_RECEIVERS, _MAX_RAW, _MAX_SUBSETS = 8, 1_000_000, 5_000_000


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


def _valid_depths(
    tree: LogicalTree, max_receivers: int = _MAX_RECEIVERS, max_raw: int = _MAX_RAW
) -> np.ndarray:
    """Join depths of every valid map, a row per map by receiver index, in
    the order of enumerate_valid_configs.

    The maps grow a receiver at a time: depth x for receiver k extends a
    row unless an earlier join and x both lie on their pair's shared
    prefix (type 1) at different depths.  np.nonzero lists the survivors
    row by row, depths ascending, keeping the order.
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
    return depths


def enumerate_valid_configs(
    tree: LogicalTree, *, max_receivers: int = _MAX_RECEIVERS, max_raw: int = _MAX_RAW
) -> list[JoiningConfig]:
    """All valid joining configurations, in lexicographic order.

    Order is by receiver index, then edge depth along the root path.  The
    caps bound the raw product of path lengths, not the (smaller) valid
    count; TooLarge asks the caller to decide, never silently truncates.
    """
    nodes = tree._nodes_at(_valid_depths(tree, max_receivers, max_raw))
    return [JoiningConfig._of(tree, row) for row in nodes]


def answer_set(gt: GroundTruth, pairs: list[Pair]) -> dict[Pair, QuartetType]:
    """Quartet answers for the given pairs, oriented as written."""
    return {p: gt.quartet_type(*p) for p in pairs}


def _answer_matrix(tree: LogicalTree, depths: np.ndarray, pairs: list[Pair]) -> np.ndarray:
    """Quartet type value of every pair, as written, on every row of join
    depths (a map by receiver index); one row gives one vector."""
    ij = [tree._pair_indices(a, b) for a, b in pairs]
    branch = np.array([tree._lca_depth_at(i, j) for i, j in ij], dtype=np.int64)
    i, j = np.array(ij, dtype=np.intp).reshape(-1, 2).T
    return _quartet(depths[..., i], depths[..., j], branch).astype(np.int8)


def _pins(tree: LogicalTree, config: JoiningConfig, pairs: list[Pair], mode: str):
    """Predicate on index subsets of ``pairs``: do their answers pin
    ``config`` under ``mode``?

    Raises ValueError on an unknown mode, and MisplacedJoin or
    InvalidConfiguration when ``config`` is not a valid joining
    configuration of ``tree``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    gt = GroundTruth(tree, config)  # raises on an invalid map
    if mode == "deduction":
        # GBS's intervals narrowed by the answers, equalities folded in
        ij = [tree._pair_indices(a, b) for a, b in pairs]

        def pinned(cols):
            state = Intervals(tree, propagate_equalities=True)
            for c in cols:
                state.narrow(*ij[c], gt._type_at(*ij[c]))
            return state.all_resolved()

        return pinned
    # no other valid map answers alike: config's own row is the one match
    matrix = _answer_matrix(tree, _valid_depths(tree), pairs)
    target = _answer_matrix(tree, np.asarray(gt._join_depth), pairs)
    return lambda cols: int((matrix[:, cols] == target[cols]).all(axis=1).sum()) == 1


def identifies(
    tree: LogicalTree, pairs: list[Pair], config: JoiningConfig, *, mode: str = "elimination"
) -> bool:
    """True when the answers on ``pairs`` pin ``config`` uniquely.

    Raises MisplacedJoin or InvalidConfiguration when ``config`` is not a
    valid joining configuration of ``tree``.
    """
    return _pins(tree, config, pairs, mode)(list(range(len(pairs))))


def _subsets(m: int, max_subsets: int):
    """Index subsets of range(m) as lists: the empty one, then breadth-first
    in size and in combination order within a size.  Raises TooLarge when
    asked for one more than ``max_subsets`` non-empty ones.  The last
    subset of size k starts at m - k.
    """
    yield []
    explored = 0
    for k in range(1, m + 1):
        for cols in combinations(range(m), k):
            explored += 1
            if explored > max_subsets:
                raise TooLarge(f"subset search exceeded the cap {max_subsets}")
            yield list(cols)


def min_identifying_set(
    tree: LogicalTree,
    config: JoiningConfig,
    *,
    max_subsets: int = _MAX_SUBSETS,
    mode: str = "elimination",
) -> tuple[Pair, ...]:
    """Smallest pair subset whose answers pin ``config`` uniquely.

    Breadth-first in subset size; among equal-size subsets the first in
    combination order wins, so the witness is deterministic.  Raises
    MisplacedJoin or InvalidConfiguration when ``config`` is not a valid
    joining configuration of ``tree``.
    """
    pairs = all_pairs(tree)
    pinned = _pins(tree, config, pairs, mode)
    for cols in _subsets(len(pairs), max_subsets):
        if pinned(cols):
            return tuple(pairs[c] for c in cols)
    raise StructuralViolation("the full pair set failed to pin the config")


def min_quartets(tree: LogicalTree, config: JoiningConfig, **caps) -> int:
    """Size of the smallest identifying pair subset for ``config``."""
    return len(min_identifying_set(tree, config, **caps))


def min_quartets_all(
    tree: LogicalTree, *, max_subsets: int = _MAX_SUBSETS, mode: str = "elimination"
) -> list[int]:
    """min_quartets for every valid configuration, in enumeration order.

    Under elimination each subset is evaluated against all configurations
    at once, which is far cheaper than per-configuration searches on the
    same tree; any other mode runs the per-configuration search.  The
    batch stops at the end of the first size level that leaves every
    configuration identified.
    """
    if mode != "elimination":
        return [
            min_quartets(tree, c, max_subsets=max_subsets, mode=mode)
            for c in enumerate_valid_configs(tree)
        ]
    matrix = _answer_matrix(tree, _valid_depths(tree), all_pairs(tree))
    m = matrix.shape[1]
    # a map's answers on a subset as one int64, each answer - 1 the base-4
    # digit at its pair's column: 28 pairs fit in 56 bits
    digits = (matrix - 1).astype(np.int64) << (2 * np.arange(m, dtype=np.int64))
    result = np.full(len(matrix), -1, dtype=np.int64)
    for cols in _subsets(m, max_subsets):
        _, inverse, counts = np.unique(
            digits[:, cols].sum(axis=1), return_inverse=True, return_counts=True
        )
        result[(counts[inverse] == 1) & (result < 0)] = len(cols)
        if (not cols or cols[0] == m - len(cols)) and (result >= 0).all():
            break
    if (result < 0).any():
        raise StructuralViolation("some valid configs were never identified")
    return result.tolist()
