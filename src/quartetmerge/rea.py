"""Receiver elimination: resolve one receiver per query by tree surgery.

Each round queries a pair of sibling leaves.  Whatever the answer, one of
the two receivers' joining edges becomes known (or known-equal to its
sibling's), and that receiver is cut off.  If the cut leaves the parent
with the other receiver alone, the parent is spliced out and one of the
two edges it joined disappears, so every internal node below the root
keeps two or more children.  N receivers therefore cost exactly N - 1
queries.

A splice removes an edge but never relabels one that survives off its
path, so a receiver's leaf edge in the working tree is always an edge of
its original root path; answers are taken at face value, which keeps the
procedure total even under a noisy oracle (the returned map may then
simply be wrong).

The working state is per receiver, over the immutable logical tree: its
parent, leaf-edge label and depth (see WorkingTree).  A step costs
amortized O(log N) on every tree shape.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from .errors import InsufficientReceivers, StructuralViolation
from .oracle import Pair
from .results import InferenceResult, Step, Trace
from .topology import JoiningConfig, LogicalTree, QuartetType


class WorkingTree:
    """Per-receiver state of the tree that receiver elimination cuts down.

    Surgery deletes a leaf or lifts a surviving leaf into its grandparent,
    and never moves or relabels an internal node, so the logical tree
    serves every internal node.  Three lists indexed by receiver hold the
    current ``parent`` (None once cut off), leaf-edge ``label`` and
    ``depth``; each node keeps a list of its leaf children's indices.  A
    step costs amortized O(log N) on every tree shape: a heap push per
    lift, a pop per stale entry, and one sort per node over the run.
    """

    __slots__ = ("tree", "parent", "label", "depth", "_heap", "_leaves", "_cursor")

    def __init__(self, tree: LogicalTree):
        self.tree = tree
        rec = tree.receivers
        self.parent = list(map(tree._parent.__getitem__, rec))
        self.label = list(map(tree._labels.__getitem__, rec))
        self.depth = list(map(tree._depth.__getitem__, rec))
        leaves = self._leaves = defaultdict(list)
        for k, p in enumerate(self.parent):
            leaves[p].append(k)
        # position in a node's sorted leaves of the next receiver to pair,
        # for each node picked so far
        self._cursor: dict[str, int] = {}
        # key -depth * N + index orders by depth descending, then index;
        # entries go stale when a cut lifts a receiver, every lift pushes
        # a fresh entry and pick_siblings skips the stale ones
        n = len(rec)
        self._heap = [-d * n + k for k, d in enumerate(self.depth)]
        heapq.heapify(self._heap)

    def cut(self, deleted: int, survivor: int, keep_leaf_edge: bool) -> str | None:
        """Remove receiver ``deleted``; splice out a parent it leaves with one child.

        Both receivers, given by index, must be the pair pick_siblings
        returned last.  When their parent p is not the root and
        ``survivor`` is its last child, survivor takes p's place under the
        grandparent.  With ``keep_leaf_edge`` survivor keeps its own leaf
        edge and p's incoming label disappears; otherwise survivor takes
        p's label and its own leaf edge disappears.  Returns the label that
        disappeared, or None when nothing was spliced.
        """
        p = self.parent[deleted]
        self.parent[deleted] = None
        at = self._cursor[p] = self._cursor[p] + 1
        if at < len(self._leaves[p]) or p == self.tree.root:
            return None
        g = self.parent[survivor] = self.tree._parent[p]
        self._leaves[g].append(survivor)
        removed = self.tree._labels[p]
        if not keep_leaf_edge:
            removed, self.label[survivor] = self.label[survivor], removed
        d = self.depth[survivor] = self.depth[survivor] - 1
        heapq.heappush(self._heap, -d * len(self.depth) + survivor)
        return removed


def pick_siblings(wt: WorkingTree) -> Pair:
    """Deterministic pair policy: deepest receiver, then its lowest sibling.

    Among the deepest live receivers the one with the lowest index is
    taken; its sibling with the lowest index completes the pair.  Every
    sibling of a deepest receiver is a leaf as deep as it (a non-leaf
    sibling would hang a deeper leaf below it), so the pair comes out in
    index order.  For the same reason a node is first picked only after
    its last internal child was spliced out, when every leaf that will
    ever hang below it has arrived.  Its leaf indices are sorted then,
    once; each later step under it pairs the survivor so far, always the
    lowest live index, with the next index in that order.
    """
    heap, parent, depth = wt._heap, wt.parent, wt.depth
    n = len(depth)
    while heap:
        neg_depth, first = divmod(heap[0], n)
        p = parent[first]
        if p is not None and depth[first] == -neg_depth:
            break
        heapq.heappop(heap)
    else:
        raise StructuralViolation("no live receivers left to pick")
    leaves = wt._leaves[p]
    at = wt._cursor.get(p)
    if at is None:
        leaves.sort()
        at = wt._cursor[p] = 1
    rec = wt.tree.receivers
    if at == len(leaves):
        raise StructuralViolation(f"deepest receiver {rec[first]!r} has no sibling leaf")
    return rec[first], rec[leaves[at]]


def apply_answer(
    wt: WorkingTree, pair: Pair, answer: QuartetType, trace: Trace
) -> WorkingTree:
    """One surgery step for the answered pair that pick_siblings returned.

    Appends a Step to the trace and returns the tree.
    """
    first, second = pair
    if answer == QuartetType.BOTH_ABOVE:
        # joins coincide somewhere above; keep the sibling, remember the tie
        trace.aliases[first] = second
        deleted, survivor = first, second
    elif answer == QuartetType.SECOND_ABOVE:
        deleted, survivor = first, second
    else:
        deleted, survivor = second, first
    index = wt.tree._rindex
    d = index[deleted]
    deleted_edge = wt.label[d]
    contracted = wt.cut(d, index[survivor], answer == QuartetType.BOTH_BELOW)
    trace.steps.append(Step(pair, answer, deleted, deleted_edge, contracted))
    return wt


def run_rea(tree: LogicalTree, oracle) -> InferenceResult:
    """Infer the full joining map with exactly N - 1 quartet queries."""
    n = tree.n_receivers
    if n < 2:
        raise InsufficientReceivers("receiver elimination needs at least 2 receivers")
    wt = WorkingTree(tree)
    trace = Trace()
    for _ in range(n - 1):
        first, second = pick_siblings(wt)
        answer = oracle.query(first, second)
        apply_answer(wt, answer.pair, answer.qtype, trace)

    live = [k for k, p in enumerate(wt.parent) if p is not None]
    if len(live) != 1 or wt.parent[live[0]] != tree.root:
        raise StructuralViolation("working tree did not reduce to a single edge")
    joins = {tree.receivers[live[0]]: wt.label[live[0]]}
    # every answer but type 1 pins down the deleted receiver's leaf edge;
    # a type-1 survivor outlives the receiver aliased to it, so walking
    # the steps backwards finds its join already resolved
    for step in reversed(trace.steps):
        first, second = step.pair
        if step.answer == QuartetType.BOTH_ABOVE:
            joins[first] = joins[second]
        else:
            joins[step.deleted_receiver] = step.deleted_edge

    return InferenceResult(
        joins=JoiningConfig({r: joins[r] for r in tree.receivers}),
        queries_used=len(trace.steps),
        trace=trace,
    )
