"""Logical routing trees, root paths, joining configurations and quartet types.

A logical tree is rooted and leaf-labelled: the root is the probing source,
every leaf is a receiver, and every internal node except possibly the root
has out-degree at least two (degree-two relay nodes are collapsed away, as in
traceroute-style logical topologies).  A second source attaches to the tree
at one "joining" edge per receiver; a quartet query on a receiver pair
reports how the two joining edges sit relative to the pair's branching point.

Conventions used throughout:

* Nodes and edge labels are non-empty strings.  Edge labels are unique.
* The depth of an edge is the depth of its child endpoint, so the edges of a
  root path have depths 1..len(path) with no gaps.
* Receiver order is significant and fixed at construction; "lower receiver"
  always means lower index in that order, never lexicographic on names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidConfiguration,
    InvalidTree,
    MisplacedJoin,
    SameReceiver,
    UnknownReceiver,
)


class QuartetType(IntEnum):
    """Relation of two joining edges to the pair's branching point.

    For an ordered pair (first, second), "above" means the joining edge lies
    on the shared prefix of the two root paths (strictly above the branching
    point).  BOTH_ABOVE additionally implies the two joining edges coincide.
    """

    BOTH_ABOVE = 1
    FIRST_ABOVE = 2
    SECOND_ABOVE = 3
    BOTH_BELOW = 4


@dataclass(frozen=True)
class JoiningConfig:
    """One joining edge per receiver, keyed by receiver name."""

    joins: Mapping[str, str]

    def __getitem__(self, receiver: str) -> str:
        return self.joins[receiver]

    def __contains__(self, receiver: str) -> bool:
        return receiver in self.joins

    def __iter__(self) -> Iterator[str]:
        return iter(self.joins)

    def __len__(self) -> int:
        return len(self.joins)

    def keys(self):
        return self.joins.keys()

    def items(self):
        return self.joins.items()

    def __hash__(self) -> int:
        return hash(frozenset(self.joins.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, JoiningConfig):
            return dict(self.joins) == dict(other.joins)
        if isinstance(other, Mapping):
            return dict(self.joins) == dict(other)
        return NotImplemented


class LogicalTree:
    """Immutable rooted tree with labelled edges and ordered receiver leaves.

    Construction validates the full shape contract: one root, acyclic and
    connected, no relay nodes (non-root internal nodes have out-degree >= 2),
    and the receiver sequence names exactly the leaves.  Instances never
    mutate after construction and are safe to share.

    Every node has exactly one incoming edge, so edge labels are keyed by
    their child endpoint.  One depth-first preorder pass lays the tree out:
    node depths, the preorder itself, the planar leaf order, the lca depth
    of each adjacent leaf pair and the first leaf position under every
    node.  The constructor then closes each node's span of leaf positions
    and builds a sparse table of range minima over the adjacent-lca depths,
    which makes lca and edge-membership checks O(1), as the oracles and
    samplers need at large N.  Child lists are dropped once the layout is
    built: every later walk goes up through parents or across spans.  The
    table's levels are memoryviews, and level 0 is the adjacent-lca depths
    themselves.
    """

    __slots__ = (
        "root",
        "receivers",
        "_parent",
        "_labels",
        "_by_label",
        "_depth",
        "_order",
        "_rindex",
        "_leaf_pos",
        "_leaf_at",
        "_sparse",
        "_span_lo",
        "_span_hi",
        "_planar",
    )

    def __init__(
        self,
        root: str,
        edges: Iterable[tuple[str, str, str]],
        receivers: Iterable[str],
    ):
        parent: dict[str, str] = {}
        # a node's key sits where the node first appears in the edge list,
        # as parent or as child; leaves share the empty tuple
        children: dict[str, list[str] | tuple[str, ...]] = {}
        labels: dict[str, str] = {}  # child -> label of its incoming edge
        by_label: dict[str, str] = {}  # label -> child

        if not root or not isinstance(root, str):
            raise InvalidTree("root must be a non-empty string")
        for u, v, lab in edges:
            if not u or not v or not lab:
                raise InvalidTree(f"empty field in edge ({u!r}, {v!r}, {lab!r})")
            if u == v:
                raise InvalidTree(f"self-loop at {u!r}")
            if v in parent:
                raise InvalidTree(f"node {v!r} has two incoming edges")
            if lab in by_label:
                raise InvalidTree(f"duplicate edge label {lab!r}")
            parent[v] = u
            cs = children.get(u)
            if cs:
                cs.append(v)
            else:
                children[u] = [v]
            children.setdefault(v, ())
            labels[v] = lab
            by_label[lab] = v
        if not labels:
            raise InvalidTree("a tree needs at least one edge")
        if root in parent:
            raise InvalidTree("root has an incoming edge")
        if root not in children:
            raise InvalidTree("root is not an endpoint of any edge")

        # Preorder pass, children left to right.  Every non-root node has
        # one parent, so nothing reachable from the root repeats.  After a
        # leaf comes the next sibling of the leaf or of one of its
        # ancestors; that node's parent is where the leaf and the next leaf
        # branch apart, so its depth is the pair's lca depth.
        depth: dict[str, int] = {root: 0}
        order: list[str] = []
        leaf_at: list[str] = []
        adj: list[int] = []
        span_lo: dict[str, int] = {}
        relays: set[str] = set()
        after_leaf = False
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            span_lo[u] = len(leaf_at)
            if after_leaf:
                adj.append(depth[parent[u]])
            cs = children[u]
            after_leaf = not cs
            if after_leaf:
                leaf_at.append(u)
                continue
            if len(cs) == 1 and u != root:
                relays.add(u)
            du = depth[u] + 1
            for c in cs:
                depth[c] = du
            stack.extend(reversed(cs))
        if len(depth) != len(children):
            raise InvalidTree("graph is not connected from the root")
        if relays:
            # name the relay that appears first in the edge list
            first = next(u for u in children if u in relays)
            raise InvalidTree(f"relay node {first!r} has out-degree 1")

        rec = tuple(receivers)
        rindex = {r: k for k, r in enumerate(rec)}
        if len(rindex) != len(rec):
            raise InvalidTree("duplicate receiver name")
        leaf_pos = dict(zip(leaf_at, range(len(leaf_at))))
        if rindex.keys() != leaf_pos.keys():
            raise InvalidTree("receivers must name exactly the leaves")

        # a leaf's span is its own position; an internal node's span ends
        # where its last child's does, and reverse preorder visits that
        # child first
        span_hi = dict(span_lo)
        for u in reversed(order):
            cs = children[u]
            if cs:
                span_hi[u] = span_hi[cs[-1]]
        # level k of the sparse table holds the minimum adjacent-lca depth
        # of every run of 2**k consecutive leaf pairs
        sparse = [np.array(adj, dtype=np.int32)]
        half = 1
        while len(sparse[-1]) > half:
            sparse.append(np.minimum(sparse[-1][:-half], sparse[-1][half:]))
            half *= 2

        self.root = root
        self.receivers = rec
        self._parent = parent
        self._labels = labels
        self._by_label = by_label
        self._depth = depth
        # tuples: the cyclic collector stops tracking a tuple of strings or
        # ints once it has seen it, so full collections skip them, while a
        # list would be rescanned every time
        self._order = tuple(order)
        self._rindex = rindex
        self._leaf_pos = leaf_pos
        self._leaf_at = tuple(leaf_at)
        # indexing a memoryview yields a plain int, which compares faster
        # than a numpy scalar; np.asarray reads one back without a copy
        self._sparse = [memoryview(level) for level in sparse]
        self._span_lo = span_lo
        self._span_hi = span_hi
        self._planar = self._leaf_at == rec

    # -- basic accessors -------------------------------------------------

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    def receiver_index(self, r: str) -> int:
        try:
            return self._rindex[r]
        except KeyError:
            raise UnknownReceiver(f"unknown receiver {r!r}") from None

    def edges(self) -> tuple[tuple[str, str, str], ...]:
        """Edges as (parent, child, label) in depth-first preorder."""
        parent, labels = self._parent, self._labels
        return tuple((parent[v], v, labels[v]) for v in self._order[1:])

    def edge_labels(self) -> tuple[str, ...]:
        labels = self._labels
        return tuple(labels[v] for v in self._order[1:])

    def has_label(self, label: str) -> bool:
        return label in self._by_label

    def _edge_child(self, label: str) -> str:
        try:
            return self._by_label[label]
        except KeyError:
            raise InvalidTree(f"no edge labelled {label!r}") from None

    def node_depth(self, node: str) -> int:
        return self._depth[node]

    # -- paths and ancestry ----------------------------------------------

    def root_path(self, r: str) -> tuple[str, ...]:
        """Edge labels from the root down to receiver ``r``."""
        self.receiver_index(r)
        parent, labels = self._parent, self._labels
        out = []
        while r != self.root:
            out.append(labels[r])
            r = parent[r]
        out.reverse()
        return tuple(out)

    def _joins_at(self, depths: Sequence[int]) -> dict[str, str]:
        """Label of the edge at depth ``depths[k]`` on receiver k's root
        path, for every receiver k, keyed in receiver order.

        Replays the preorder: the edge at depth d overwrites slot d-1 of
        the current root path, so every leaf reads its label in O(1).
        """
        depth, labels, rindex = self._depth, self._labels, self._rindex
        path = [""] * max(depth.values())
        out = [""] * len(self.receivers)
        for v in self._order[1:]:
            path[depth[v] - 1] = labels[v]
            k = rindex.get(v)
            if k is not None:
                out[k] = path[depths[k] - 1]
        return dict(zip(self.receivers, out))

    def _range_min(self, lo: int, hi: int) -> int:
        """Minimum adjacent-lca depth over planar positions lo..hi, inclusive."""
        k = (hi - lo + 1).bit_length() - 1
        level = self._sparse[k]
        a = level[lo]
        b = level[hi - (1 << k) + 1]
        return a if a < b else b

    def _lca_depths(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """lca depth of every receiver pair (I[p], J[p]), given by receiver
        index: the array form of _range_min, with the pairs grouped by the
        table level their planar span needs.  Mapping the receivers to
        planar positions costs O(N) per call, so callers pass a few
        thousand pairs at a time, which also bounds the temporaries."""
        rec = self.receivers
        pos = np.fromiter(map(self._leaf_pos.__getitem__, rec), np.int32, len(rec))
        pi, pj = pos[I], pos[J]
        # the adjacent-lca depths lo .. hi-1 span the pair
        lo = np.minimum(pi, pj)
        hi = np.maximum(pi, pj)
        level = np.frexp(hi - lo)[1] - 1
        out = np.empty(len(lo), dtype=np.int32)
        for k, view in enumerate(self._sparse):
            sel = np.flatnonzero(level == k)
            if sel.size:
                table = np.asarray(view)
                out[sel] = np.minimum(table[lo[sel]], table[hi[sel] - (1 << k)])
        return out

    def _pair_positions(self, ri: str, rj: str) -> tuple[int, int]:
        """Planar positions of two distinct receivers, in ascending order."""
        pos = self._leaf_pos
        pi = pos.get(ri)
        pj = pos.get(rj)
        if pi is None or pj is None or pi == pj:
            # slow path only to raise the right error
            self.receiver_index(ri)
            self.receiver_index(rj)
            raise SameReceiver(f"need two distinct receivers, got {ri!r} twice")
        if pi > pj:
            return pj, pi
        return pi, pj

    def lca_depth(self, ri: str, rj: str) -> int:
        pi, pj = self._pair_positions(ri, rj)
        return self._range_min(pi, pj - 1)

    def _covers(self, v: str, r: str) -> bool:
        """True when receiver ``r`` lies in the subtree of node ``v``."""
        return self._span_lo[v] <= self._leaf_pos[r] <= self._span_hi[v]

    def on_root_path(self, label: str, r: str) -> bool:
        """True when the labelled edge lies on ``r``'s root path."""
        self.receiver_index(r)
        v = self._edge_child(label)
        return self._covers(v, r)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicalTree):
            return NotImplemented
        return (
            self.root == other.root
            and self.receivers == other.receivers
            and self._parent == other._parent
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash((self.root, self.receivers, frozenset(self._labels.items())))

    def __repr__(self) -> str:
        return (
            f"LogicalTree(root={self.root!r}, edges={len(self._labels)}, "
            f"receivers={len(self.receivers)})"
        )


class PlacementScan:
    """Incremental pairwise-validity tracking over receivers in any order.

    Placing joins one receiver at a time, the edges still allowed for the
    next receiver form a contiguous suffix of its root path (every edge
    strictly below the deepest branching point it shares with an already
    placed "blocking" receiver), plus at most one exception edge: the join
    of that deepest blocker, which it is allowed to coincide with.

    Call J(q) the join node of a placed receiver q, the child end of its
    join edge.  q blocks p exactly when p lies in J(q)'s leaf span:
    cd[q] <= depth(lca(p, q)) holds iff J(q) is an ancestor-or-self of
    lca(p, q), that is iff J(q) is an ancestor of p.  Spans are contiguous
    in planar order and J(q)'s always holds q, so a q right of p blocks it
    iff J(q)'s span starts at or before p, and a q left of p iff the span
    ends at or after p.  Two segment trees over planar positions keep the
    minimum span start and the maximum span end of the placed receivers;
    the nearest blocker on each side is the first (last) position whose
    value passes that fixed threshold, found by one descent.  Among the
    blockers on one side the nearest has the deepest branching point, and
    a tie between the two sides goes to the left one.  allowed, place and
    unplace each cost O(log N).

    When receivers are placed in planar order, _NearestBlockers answers
    the same constraints from a stack in amortized O(1) per receiver,
    about four times faster than this scan when sampling a planar
    100 000-receiver caterpillar, so samplers and checks pick it for
    planar orders.  Both offer allowed(r) and place(r, depth), so callers
    drive either one the same way.
    """

    __slots__ = ("tree", "_size", "_lo", "_hi", "_cd")

    def __init__(self, tree: LogicalTree):
        self.tree = tree
        n = len(tree.receivers)
        size = 1 << (n - 1).bit_length()
        self._size = size
        # heap-ordered trees, node k over children 2k and 2k+1, leaf p at
        # size + p; an empty slot holds a value no threshold passes
        self._lo = [n] * (2 * size)  # min span start of J(q) below a node
        self._hi = [-1] * (2 * size)  # max span end of J(q) below a node
        self._cd = [0] * n  # join edge depth by planar position

    def _join_span(self, p: int, cd: int) -> tuple[int, int]:
        """Leaf span of the node at depth ``cd`` above planar position p.

        The span runs over every neighbouring leaf whose adjacent-lca
        depths, back to p, stay at least ``cd``; each side is found by one
        descent over the sparse table's power-of-two runs.
        """
        runs = self.tree._sparse
        n_adj = len(runs[0])
        lo = hi = p
        for k in range(len(runs) - 1, -1, -1):
            run = 1 << k
            level = runs[k]
            if hi + run <= n_adj and level[hi] >= cd:
                hi += run
            if lo >= run and level[lo - run] >= cd:
                lo -= run
        return lo, hi

    def allowed(self, r: str) -> tuple[int, int | None]:
        """Constraint on ``r``: (blocked_depth, exception_depth_or_None).

        Edges at depth > blocked_depth are allowed; the edge at the
        exception depth (when present) is the single allowed edge within
        the blocked prefix.  blocked_depth = 0 means unconstrained.
        """
        tree = self.tree
        p = tree._leaf_pos[r]
        size = self._size
        lo, hi = self._lo, self._hi
        # climb from p's leaf: a right child's left sibling covers positions
        # left of p, a left child's right sibling positions right of p, each
        # nearer than any sibling higher up; note the first that passes on
        # each side (node 0 is never a sibling, so 0 means none yet)
        left = right = 0
        i = size + p
        while i > 1:
            if i & 1:
                if not left and hi[i - 1] >= p:
                    left = i - 1
                    if right:
                        break
            elif not right and lo[i + 1] <= p:
                right = i + 1
                if left:
                    break
            i >>= 1
        # then descend to the passing leaf nearest p
        best = None
        if left:
            while left < size:
                left = 2 * left + 1
                if hi[left] < p:
                    left -= 1
            q = left - size
            best = tree._range_min(q, p - 1), self._cd[q]
        if right:
            while right < size:
                right *= 2
                if lo[right] > p:
                    right += 1
            q = right - size
            branch_depth = tree._range_min(p, q - 1)
            if best is None or branch_depth > best[0]:
                best = branch_depth, self._cd[q]
        if best is None:
            return 0, None
        return best

    def place(self, r: str, join_depth: int) -> None:
        tree = self.tree
        p = tree._leaf_pos[r]
        self._cd[p] = join_depth
        if join_depth == tree._depth[r]:
            span_lo = span_hi = p
        else:
            span_lo, span_hi = self._join_span(p, join_depth)
        # from p's empty leaf up; placing only tightens, so stop at the
        # first node that already holds a value at least as tight
        lo, hi = self._lo, self._hi
        i = self._size + p
        while i and lo[i] > span_lo:
            lo[i] = span_lo
            i >>= 1
        i = self._size + p
        while i and hi[i] < span_hi:
            hi[i] = span_hi
            i >>= 1

    def unplace(self, r: str) -> None:
        p = self.tree._leaf_pos[r]
        lo, hi = self._lo, self._hi
        i = self._size + p
        lo[i] = len(self._cd)
        hi[i] = -1
        i >>= 1
        while i:
            a, b = lo[2 * i], lo[2 * i + 1]
            lo[i] = a if a < b else b
            a, b = hi[2 * i], hi[2 * i + 1]
            hi[i] = a if a > b else b
            i >>= 1


class _NearestBlockers:
    """Constraint tracking specialized to leaves placed in planar order.

    Gives the same (blocked, exception) answers as PlacementScan.allowed
    when placements follow the planar leaf order (the successor side is
    then always empty) but in amortized O(1) per leaf.  The receiver
    arguments are not read: the t-th placement is the t-th leaf.  Once
    the branch depth separating a placed receiver from the frontier drops
    below its join depth, that receiver can never block again and is
    dropped, so a stack of (branch_depth, join_depth) pairs with branch
    depths strictly increasing toward the top carries the whole state.
    Receivers merged by a shared capped branch depth always hold equal
    join depths in a valid prefix, so keeping one entry per depth loses
    nothing.
    """

    __slots__ = ("_adj", "_placed", "_branch", "_cd")

    def __init__(self, tree: LogicalTree):
        self._adj = tree._sparse[0]
        self._placed = 0
        self._branch: list[int] = []
        self._cd: list[int] = []

    def allowed(self, r: str) -> tuple[int, int | None]:
        """(blocked_depth, exception_depth_or_None) for the next leaf."""
        if not self._branch:
            return 0, None
        return self._branch[-1], self._cd[-1]

    def place(self, r: str, join_depth: int) -> None:
        """Absorb the next leaf, joined at ``join_depth``.

        The adjacent-pair lca depth after it is the branch depth that
        separates it and every leaf before it from the leaves still to
        come; the last leaf has none and leaves nothing to absorb.
        """
        t = self._placed
        self._placed = t + 1
        if t == len(self._adj):
            return
        boundary_depth = self._adj[t]
        branch, cd = self._branch, self._cd
        keep = join_depth if join_depth <= boundary_depth else -1
        while branch and branch[-1] >= boundary_depth:
            branch.pop()
            dropped = cd.pop()
            if keep < 0 and dropped <= boundary_depth:
                keep = dropped
        if keep >= 0:
            branch.append(boundary_depth)
            cd.append(keep)


def _join_depths(
    tree: LogicalTree, config: JoiningConfig | Mapping[str, str]
) -> dict[str, int]:
    """Edge depth of every receiver's join, checking each lies on its path.

    Raises MisplacedJoin when a join is missing or is not an edge of its
    receiver's root path.
    """
    joins = config.joins if isinstance(config, JoiningConfig) else config
    by_label = tree._by_label
    depth = tree._depth
    depths = {}
    for r in tree.receivers:
        if r not in joins:
            raise MisplacedJoin(f"no join assigned to receiver {r!r}")
        label = joins[r]
        v = by_label.get(label)
        if v is None or not tree._covers(v, r):
            raise MisplacedJoin(f"join {label!r} is not on the root path of {r!r}")
        depths[r] = depth[v]
    return depths


def _depths_valid(tree: LogicalTree, depths: Mapping[str, int]) -> bool:
    """The pairwise shared-prefix rule over per-receiver join depths."""
    blockers = _NearestBlockers(tree)
    for r in tree._leaf_at:
        cd = depths[r]
        blocked, exception = blockers.allowed(r)
        if cd <= blocked and cd != exception:
            return False
        blockers.place(r, cd)
    return True


def is_valid_config(tree: LogicalTree, config: JoiningConfig | Mapping[str, str]) -> bool:
    """Check the pairwise shared-prefix rule for a full joining configuration.

    For every receiver pair, two distinct joins must not both lie on the
    pair's common prefix.  Raises MisplacedJoin when a join is missing or
    is not an edge of its receiver's root path; returns False only for
    violations of the pairwise rule itself.

    Runs in O(N): sweeping leaves in planar order, the earliest violating
    pair is always visible through the nearest-blocker stack when its
    second member is reached.
    """
    return _depths_valid(tree, _join_depths(tree, config))


def _classify(
    first: str, second: str, e1: str, e2: str, d1: int, d2: int, branch_depth: int
) -> QuartetType:
    above1 = d1 <= branch_depth
    above2 = d2 <= branch_depth
    if above1 and above2:
        if e1 != e2:
            raise InvalidConfiguration(
                f"distinct joins {e1!r}, {e2!r} on the shared prefix of "
                f"({first!r}, {second!r})"
            )
        return QuartetType.BOTH_ABOVE
    if above1:
        return QuartetType.FIRST_ABOVE
    if above2:
        return QuartetType.SECOND_ABOVE
    return QuartetType.BOTH_BELOW


def quartet_type(gt: "GroundTruth", first: str, second: str) -> QuartetType:
    """Classify the ordered receiver pair against the ground truth.

    The orientation follows the argument order: FIRST_ABOVE means the first
    receiver's join sits on the pair's shared prefix while the second's sits
    below the branching point.  Swapping the arguments exchanges types 2 and
    3 and fixes types 1 and 4.
    """
    branch_depth = gt.tree.lca_depth(first, second)
    joins = gt.config.joins
    depth = gt._join_depth
    return _classify(
        first, second, joins[first], joins[second], depth[first], depth[second],
        branch_depth,
    )


@dataclass(frozen=True)
class GroundTruth:
    """A logical tree together with a valid joining configuration.

    Keeps the edge depth of every receiver's join, which validation
    computes anyway and every quartet classification needs.
    """

    tree: LogicalTree
    config: JoiningConfig
    _join_depth: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depths = _join_depths(self.tree, self.config)
        if not _depths_valid(self.tree, depths):
            raise InvalidConfiguration("configuration violates the pairwise rule")
        object.__setattr__(self, "_join_depth", depths)

    def quartet_type(self, first: str, second: str) -> QuartetType:
        return quartet_type(self, first, second)
