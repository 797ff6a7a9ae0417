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
from array import array

from .errors import InsufficientReceivers, StructuralViolation
from .oracle import Pair
from .results import InferenceResult, Step, Trace
from .topology import JoiningConfig, LogicalTree, QuartetType


class WorkingTree:
    """Per-receiver state of the tree that receiver elimination cuts down.

    Surgery deletes a leaf or lifts a surviving leaf into its grandparent,
    and never moves or relabels an internal node, so the logical tree
    serves every internal node, by id.  Three lists indexed by receiver
    hold the current ``parent`` node (None once cut off), leaf-edge
    ``label`` and ``depth``.  A receiver stands for each node: a leaf's
    own, or the survivor lifted out of a spliced node.  Only the nodes
    picked and not yet spliced keep a list, of their children's standing
    receivers.  A step costs amortized O(log N) on every tree shape: a
    heap push per lift, a pop per stale entry, and one sort per node.
    """

    __slots__ = ("tree", "parent", "label", "depth", "_heap", "_stand", "_open")

    def __init__(self, tree: LogicalTree):
        self.tree = tree
        leaf = tree._leaf
        self.parent = list(map(tree._parent.__getitem__, leaf))
        self.label = list(map(tree._labels.__getitem__, leaf))
        self.depth = list(map(tree._depth.__getitem__, leaf))
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
        self.parent[deleted] = None
        pending = self._open[p]
        pending.pop()
        if pending or p == 0:  # the root is node 0
            return None
        del self._open[p]
        self._stand[p] = survivor
        g = self.parent[survivor] = self.tree._parent[p]
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
    its last internal child was spliced out, when a receiver stands for
    every child.  Those are sorted then, once; each step under the node
    pairs the survivor so far, always the lowest live index, with the next
    index in that order.
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
    rec = wt.tree.receivers
    if not pending:
        raise StructuralViolation(f"deepest receiver {rec[first]!r} has no sibling leaf")
    return rec[first], rec[pending[-1]]


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
    if len(live) != 1 or wt.parent[live[0]] != 0:
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
