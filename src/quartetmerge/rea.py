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
parent, leaf edge and depth, as ints (see WorkingTree).  A step costs
amortized O(log N) on every tree shape.  Receivers pass from the pick to
the surgery as indices, and become names only for the oracle; each step
is recorded in the trace's int columns, so the loop keeps no object past
its step.
"""

from __future__ import annotations

import heapq
from array import array

from .errors import InsufficientReceivers, StructuralViolation
from .results import InferenceResult, Trace, cut_order
from .topology import JoiningConfig, LogicalTree, QuartetType


class WorkingTree:
    """Per-receiver state of the tree that receiver elimination cuts down.

    Surgery deletes a leaf or lifts a surviving leaf into its grandparent,
    and never moves or relabels an internal node, so the logical tree
    serves every internal node, by id.  Indexed by receiver, three int
    arrays hold the current ``parent`` node (-1 once cut off), leaf
    ``edge`` (the id of its child end) and ``depth``.  A receiver stands
    for each node: a leaf's own, or the survivor lifted out of a spliced
    node.  Only the nodes picked and not yet spliced keep a list, of their
    children's standing receivers.  A step costs amortized O(log N) on
    every tree shape: a heap push per lift, a pop per stale entry, and one
    sort per node.
    """

    __slots__ = ("tree", "parent", "edge", "depth", "_heap", "_stand", "_open")

    def __init__(self, tree: LogicalTree):
        self.tree = tree
        leaf = tree._leaf
        self.parent = array("i", map(tree._parent.__getitem__, leaf))
        self.edge = array("i", leaf)
        self.depth = array("i", map(tree._depth.__getitem__, leaf))
        self._stand = array("i", [-1]) * len(tree._parent)
        for k, v in enumerate(leaf):
            self._stand[v] = k
        # for each node picked and not yet spliced: its children's standing
        # receivers still to pair, highest index first
        self._open: dict[int, list[int]] = {}
        # key -depth * N + index orders by depth descending, then index;
        # entries go stale when a cut lifts a receiver, every lift pushes
        # a fresh entry and pick_siblings skips the stale ones
        n = len(leaf)
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
        self.parent[deleted] = -1
        pending = self._open[p]
        pending.pop()
        if pending or p == 0:  # the root is node 0
            return None
        del self._open[p]
        self._stand[p] = survivor
        self.parent[survivor] = self.tree._parent[p]
        removed = p
        if not keep_leaf_edge:
            removed, self.edge[survivor] = self.edge[survivor], removed
        d = self.depth[survivor] = self.depth[survivor] - 1
        # the heap's top is the entry pick_siblings took, of the pair's
        # lower index, which this cut has deleted or lifted: replace it
        heapq.heapreplace(self._heap, -d * len(self.depth) + survivor)
        return self.tree._labels[removed]


def pick_siblings(wt: WorkingTree) -> tuple[int, int]:
    """Deterministic pair policy: deepest receiver, then its lowest sibling.

    Returns the pair as two receiver indices.  Among the deepest live
    receivers the one with the lowest index is taken; its sibling with the
    lowest index completes the pair.  Every sibling of a deepest receiver
    is a leaf as deep as it (a non-leaf sibling would hang a deeper leaf
    below it), so the pair comes out in index order.  For the same reason
    a node is first picked only after its last internal child was spliced
    out, when a receiver stands for every child.  Those are sorted then,
    once; each step under the node pairs the survivor so far, always the
    lowest live index, with the next index in that order.
    """
    heap, parent, depth = wt._heap, wt.parent, wt.depth
    n = len(depth)
    while heap:
        neg_depth, first = divmod(heap[0], n)
        p = parent[first]
        if p >= 0 and depth[first] == -neg_depth:
            break
        heapq.heappop(heap)
    else:
        raise StructuralViolation("no live receivers left to pick")
    pending = wt._open.get(p)
    if pending is None:
        # a subtree ends where its next sibling starts, so the children
        # of p are p + 1 and each next one at the end of the one before
        end, stand = wt.tree._end, wt._stand
        pending, c = [], p + 1
        while c < end[p]:
            pending.append(stand[c])
            c = end[c]
        # first, the lowest, is paired with the others in index order
        pending.sort(reverse=True)
        pending.pop()
        wt._open[p] = pending
    if not pending:
        name = wt.tree.receivers[first]
        raise StructuralViolation(f"deepest receiver {name!r} has no sibling leaf")
    return first, pending[-1]


def apply_answer(
    wt: WorkingTree, first: int, second: int, answer: QuartetType, trace: Trace
) -> WorkingTree:
    """One surgery step for the pair of receiver indices that pick_siblings
    returned and its answer.

    Records the step in the trace and returns the tree.  A type-1 answer
    also aliases ``first``'s join to ``second``'s; run_rea resolves it.
    """
    deleted, survivor = cut_order(first, second, answer)
    # type 4 puts the survivor's join below the branching point too, so it
    # keeps its leaf edge
    contracted = wt.cut(deleted, survivor, answer == 4)
    trace.record(first, second, answer, contracted)
    return wt


def run_rea(tree: LogicalTree, oracle) -> InferenceResult:
    """Infer the full joining map with exactly N - 1 quartet queries."""
    n = tree.n_receivers
    if n < 2:
        raise InsufficientReceivers("receiver elimination needs at least 2 receivers")
    wt = WorkingTree(tree)
    rec = tree.receivers
    trace = Trace(rec, JoiningConfig._of(tree, wt.edge))
    for _ in range(n - 1):
        first, second = pick_siblings(wt)
        apply_answer(wt, first, second, oracle.query(rec[first], rec[second]), trace)

    # one receiver left, under the root, and every other one cut off
    if wt.parent.count(-1) != n - 1 or wt.parent.count(0) != 1:
        raise StructuralViolation("working tree did not reduce to a single edge")
    # every answer but type 1 leaves the deleted receiver's join as its
    # last leaf edge, and the one receiver left joins on its leaf edge; a
    # type-1 survivor outlives the receiver aliased to it, so walking the
    # steps backwards finds its join already resolved
    joins = array("i", wt.edge)
    del wt  # its arrays and heap go before the result is built
    first, second, answer = trace.first, trace.second, trace.answer
    for t in reversed(range(len(trace))):
        if answer[t] == 1:
            joins[first[t]] = joins[second[t]]

    return InferenceResult(
        joins=JoiningConfig._of(tree, joins),
        queries_used=len(trace),
        trace=trace,
    )
