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
"""

from __future__ import annotations

import heapq

from .errors import InsufficientReceivers, StructuralViolation
from .oracle import Pair
from .results import InferenceResult, Step, Trace
from .topology import JoiningConfig, LogicalTree, QuartetType


class WorkingTree:
    """Mutable view of a logical tree that receiver elimination cuts down.

    Leaves and live receivers coincide at all times, and a receiver is
    live while it has a ``parent`` entry.  ``cut`` is the only edit; the
    one node it lifts is the surviving leaf, so receiver depths stay exact
    at O(1) per step, while internal-node depths go stale unread.  Edge
    labels are keyed by child node, as in LogicalTree.
    """

    __slots__ = ("root", "parent", "children", "labels", "depth",
                 "_heap", "_index", "_receivers")

    def __init__(self, tree: LogicalTree):
        self.root = tree.root
        self.parent = dict(tree._parent)
        # children start as the tree's own tuples; _edit_children copies
        # a node's tuple into a list the first time surgery changes it
        self.children = dict(tree._children)
        self.labels = dict(tree._labels)
        self.depth = dict(tree._depth)
        self._index = tree._rindex
        self._receivers = tree.receivers
        # key -depth * N + index orders by depth descending, then index;
        # entries go stale when a cut lifts a receiver, every lift pushes
        # a fresh entry and deepest_receiver skips the stale ones
        n = len(tree.receivers)
        depth = self.depth
        self._heap = [-depth[r] * n + k for k, r in enumerate(tree.receivers)]
        heapq.heapify(self._heap)

    def _edit_children(self, node: str) -> list[str]:
        cs = self.children[node]
        if type(cs) is not list:
            cs = self.children[node] = list(cs)
        return cs

    def deepest_receiver(self) -> str:
        heap = self._heap
        n = len(self._receivers)
        while heap:
            neg_depth, k = divmod(heap[0], n)
            r = self._receivers[k]
            if r in self.parent and self.depth[r] == -neg_depth:
                return r
            heapq.heappop(heap)
        raise StructuralViolation("no live receivers left to pick")

    def cut(self, deleted: str, survivor: str, keep_leaf_edge: bool) -> str | None:
        """Remove leaf ``deleted``; splice out a parent it leaves with one child.

        When the parent p is not the root and ``survivor`` is its last
        child, survivor takes p's place among the grandparent's children.
        With ``keep_leaf_edge`` survivor keeps its own leaf edge and p's
        incoming label disappears; otherwise survivor takes p's label and
        its own leaf edge disappears.  Returns the label that disappeared,
        or None when nothing was spliced.
        """
        parent, labels = self.parent, self.labels
        p = parent.pop(deleted)
        siblings = self._edit_children(p)
        siblings.remove(deleted)
        del labels[deleted]
        del self.children[deleted]
        if len(siblings) != 1 or p == self.root:
            return None
        g = parent.pop(p)
        up = self._edit_children(g)
        up[up.index(p)] = survivor
        parent[survivor] = g
        del self.children[p]
        removed = labels.pop(p)
        if not keep_leaf_edge:
            removed, labels[survivor] = labels[survivor], removed
        d = self.depth[survivor] = self.depth[survivor] - 1
        heapq.heappush(self._heap, -d * len(self._receivers) + self._index[survivor])
        return removed


def pick_siblings(wt: WorkingTree) -> Pair:
    """Deterministic pair policy: deepest receiver, then its lowest sibling.

    Among the deepest live receivers the one with the lowest index is
    taken; its sibling with the lowest index completes the pair.  Every
    sibling of a deepest receiver is a leaf as deep as it (a non-leaf
    sibling would hang a deeper leaf below it), so the pair comes out in
    index order.
    """
    first = wt.deepest_receiver()
    index = wt._index
    best = None
    for c in wt.children[wt.parent[first]]:
        if c != first:
            k = index[c]
            if best is None or k < best:
                best = k
    if best is None:
        raise StructuralViolation(f"deepest receiver {first!r} has no sibling leaf")
    return first, wt._receivers[best]


def apply_answer(
    wt: WorkingTree, pair: Pair, answer: QuartetType, trace: Trace
) -> WorkingTree:
    """One surgery step for an answered sibling-leaf pair.

    The pair must be in receiver index order with both members children of
    one parent.  Appends a Step to the trace and returns the tree.
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
    deleted_edge = wt.labels[deleted]
    contracted = wt.cut(deleted, survivor, answer == QuartetType.BOTH_BELOW)
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

    top = wt.children[wt.root]
    if len(top) != 1 or wt.children[top[0]]:
        raise StructuralViolation("working tree did not reduce to a single edge")
    joins = {top[0]: wt.labels[top[0]]}
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
