"""Receiver elimination: resolve one receiver per query by tree surgery.

Each round queries a pair of sibling leaves.  Whatever the answer, one of
the two receivers' joining edges becomes known (or known-equal to its
sibling's), that receiver is cut off, and the tree is re-normalized by
contracting any out-degree-1 node the cut exposes.  N receivers therefore
cost exactly N - 1 queries.

Contractions preserve the labels of surviving edges, so a receiver's leaf
edge in the working tree is always an edge of its original root path;
answers are taken at face value, which keeps the procedure total even
under a noisy oracle (the returned map may then simply be wrong).
"""

from __future__ import annotations

import heapq

from .errors import InsufficientReceivers, StructuralViolation
from .oracle import Pair
from .results import InferenceResult, Step, Trace
from .topology import JoiningConfig, LogicalTree, QuartetType


class WorkingTree:
    """Mutable view of a logical tree that receiver elimination cuts down.

    Leaves and live receivers coincide at all times.  Depth bookkeeping is
    O(1) per surgery step because the only node a contraction ever lifts,
    beyond the merged node itself, is the surviving sibling leaf.  Edge
    labels are keyed by child node, as in LogicalTree, so a contraction
    re-keys at most the label of the merged node.
    """

    __slots__ = ("root", "parent", "children", "labels", "depth", "live",
                 "_heap", "_index", "_receivers")

    def __init__(self, tree: LogicalTree):
        self.root = tree.root
        self.parent = dict(tree._parent)
        # children start as the tree's own tuples; _edit_children copies
        # a node's tuple into a list the first time surgery changes it
        self.children = dict(tree._children)
        self.labels = dict(tree._labels)
        self.depth = dict(tree._depth)
        self.live = set(tree.receivers)
        self._index = tree._rindex
        self._receivers = tree.receivers
        # key -depth * N + index orders by depth descending, then index;
        # entries go stale when a contraction lifts a receiver, every lift
        # pushes a fresh entry and deepest_receiver skips the stale ones
        n = len(tree.receivers)
        depth = self.depth
        self._heap = [-depth[r] * n + k for k, r in enumerate(tree.receivers)]
        heapq.heapify(self._heap)

    def is_leaf(self, node: str) -> bool:
        return not self.children[node]

    def leaf_label(self, r: str) -> str:
        return self.labels[r]

    def out_degree(self, node: str) -> int:
        return len(self.children[node])

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
            if r in self.live and self.depth[r] == -neg_depth:
                return r
            heapq.heappop(heap)
        raise StructuralViolation("no live receivers left to pick")

    def _lift(self, r: str) -> None:
        n = len(self._receivers)
        heapq.heappush(self._heap, -self.depth[r] * n + self._index[r])

    def delete_leaf(self, r: str) -> str:
        """Remove receiver ``r`` and its leaf edge; returns the old parent."""
        p = self.parent.pop(r)
        self._edit_children(p).remove(r)
        del self.labels[r]
        del self.children[r]
        self.live.discard(r)
        return p

    def contract_leaf_edge(self, p: str, leaf: str) -> str | None:
        """Merge out-degree-1 node ``p`` into its sole leaf child.

        The leaf keeps its identity and inherits p's incoming edge label;
        the leaf's own edge label disappears.  No contraction happens when
        p is the root, since a root of out-degree 1 is legal.
        """
        if p == self.root:
            return None
        g = self.parent[p]
        removed = self.labels[leaf]
        self.labels[leaf] = self.labels.pop(p)
        siblings = self._edit_children(g)
        siblings[siblings.index(p)] = leaf
        self.parent[leaf] = g
        del self.parent[p]
        del self.children[p]
        self.depth[leaf] -= 1
        if leaf in self.live:
            self._lift(leaf)
        return removed

    def contract_into_parent(self, p: str) -> str | None:
        """Merge ``p`` with its parent; the merged node keeps p's name.

        p's incoming edge label disappears; the grandparent edge label and
        the labels of the parent's other children survive on the merged
        node.  When the parent was the root, p becomes the root.  Depth
        bookkeeping assumes p's own children are leaves, which holds at
        the only call site (the sole remaining child is the surviving
        sibling leaf).
        """
        if p == self.root:
            return None
        q = self.parent[p]
        removed = self.labels.pop(p)
        own = tuple(self.children[p])
        merged = self._edit_children(p)
        for c in self.children[q]:
            if c != p:
                merged.append(c)
                self.parent[c] = p
        g = self.parent.get(q)
        if g is None:
            self.root = p
            del self.parent[p]
        else:
            siblings = self._edit_children(g)
            siblings[siblings.index(q)] = p
            self.parent[p] = g
            self.labels[p] = self.labels.pop(q)
        del self.children[q]
        self.depth[p] -= 1
        for c in own:
            if self.children[c]:
                raise StructuralViolation("contracted under a non-leaf child")
            self.depth[c] -= 1
            if c in self.live:
                self._lift(c)
        return removed


def pick_siblings(wt: WorkingTree) -> tuple[str, str, str]:
    """Deterministic pair policy: deepest receiver, then its lowest sibling.

    Among the deepest live receivers the one with the lowest index is
    taken; its sibling leaf with the lowest index completes the pair,
    returned in index order together with the shared parent.  A deepest
    leaf always has a sibling leaf: a non-leaf sibling would hang a deeper
    leaf below it.
    """
    first = wt.deepest_receiver()
    p = wt.parent[first]
    best: tuple[int, str] | None = None
    for c in wt.children[p]:
        if c != first and wt.is_leaf(c):
            k = wt._index[c]
            if best is None or k < best[0]:
                best = (k, c)
    if best is None:
        raise StructuralViolation(f"deepest receiver {first!r} has no sibling leaf")
    second = best[1]
    if wt._index[first] > wt._index[second]:
        first, second = second, first
    return first, second, p


def apply_answer(
    wt: WorkingTree, pair: Pair, parent: str, answer: QuartetType, trace: Trace
) -> WorkingTree:
    """One surgery step for an answered sibling-leaf pair.

    The pair must be in receiver index order with both members children of
    ``parent``.  Appends a Step to the trace and returns the tree.
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
    deleted_edge = wt.leaf_label(deleted)

    wt.delete_leaf(deleted)
    contracted = None
    if wt.out_degree(parent) == 1:
        if answer == QuartetType.BOTH_BELOW:
            contracted = wt.contract_into_parent(parent)
        else:
            contracted = wt.contract_leaf_edge(parent, survivor)
    trace.steps.append(Step(pair, answer, deleted, deleted_edge, contracted))
    return wt


def run_rea(tree: LogicalTree, oracle) -> InferenceResult:
    """Infer the full joining map with exactly N - 1 quartet queries."""
    n = tree.n_receivers
    if n < 2:
        raise InsufficientReceivers("receiver elimination needs at least 2 receivers")
    wt = WorkingTree(tree)
    trace = Trace()
    joins: dict[str, str] = {}
    while len(wt.live) > 1:
        first, second, parent = pick_siblings(wt)
        answer = oracle.query(first, second)
        apply_answer(wt, answer.pair, parent, answer.qtype, trace)
        step = trace.steps[-1]
        # every answer but type 1 pins down the deleted receiver's leaf edge
        if step.answer != QuartetType.BOTH_ABOVE:
            joins[step.deleted_receiver] = step.deleted_edge

    (last,) = wt.live
    if wt.parent.get(last) != wt.root or wt.out_degree(wt.root) != 1:
        raise StructuralViolation("working tree did not reduce to a single edge")
    joins[last] = wt.leaf_label(last)

    # aliased receivers are deleted strictly before their targets, so each
    # chain ends at a receiver with a pinned edge
    for r in tree.receivers:
        chain = []
        t = r
        while t not in joins:
            chain.append(t)
            t = trace.aliases[t]
        for c in chain:
            joins[c] = joins[t]

    return InferenceResult(
        joins=JoiningConfig({r: joins[r] for r in tree.receivers}),
        queries_used=len(trace.steps),
        trace=trace,
    )
