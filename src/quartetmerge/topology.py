"""Logical routing trees, root paths, joining configurations and quartet types.

A logical tree is rooted and leaf-labelled: the root is the probing source,
every leaf is a receiver, and every internal node except possibly the root
has out-degree at least two (degree-two relay nodes are collapsed away, as in
traceroute-style logical topologies).  A second source attaches to the tree
at one "joining" edge per receiver; a quartet query on a receiver pair
reports how the two joining edges sit relative to the pair's branching point.

Conventions used throughout:

* Nodes and edge labels are non-empty strings wherever they cross the API,
  and edge labels are unique.  Inside a tree, nodes are ints numbered in
  preorder and receivers are indices into the receiver order.
* The depth of an edge is the depth of its child endpoint, so the edges of a
  root path have depths 1..len(path) with no gaps.
* Receiver order is significant and fixed at construction; "lower receiver"
  always means lower index in that order, never lexicographic on names.
"""

from __future__ import annotations

from array import array
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

    Nodes are the ints 0..V-1 in depth-first preorder, children in the
    order their edges first appear, so the root is 0 and every subtree is
    the run of ids from its root up to its end.  Names and incoming-edge
    labels are each one tuple indexed by node id; parent, depth and end
    are int arrays, as are each receiver's leaf node and planar position
    and the receiver at each planar position.  Only two dicts key by
    name: label to node id, and receiver name to index.  A sparse table
    of range minima over the lca depths of adjacent leaves makes lca
    queries O(1), as the oracles and samplers need at large N; its levels
    are memoryviews, and level 0 is the adjacent-lca depths themselves.
    """

    __slots__ = ("root", "receivers", "_names", "_labels", "_parent", "_depth",
                 "_end", "_by_label", "_rindex", "_leaf", "_pos", "_leaf_at",
                 "_sparse", "_planar")

    def __init__(
        self,
        root: str,
        edges: Iterable[tuple[str, str, str]],
        receivers: Iterable[str],
    ):
        if not root or not isinstance(root, str):
            raise InvalidTree("root must be a non-empty string")
        # Read the edges under temporary ids, dense in order of first
        # appearance as parent or child; no edge list names more than
        # twice as many nodes as edges.  Each node's children form a list
        # linked through first/after, newest first: pushed onto the
        # preorder stack in that order, the oldest child ends on top.
        edges = list(edges)
        size = 2 * len(edges)
        ids: dict[str, int] = {}
        up = [-1] * size  # parent's temporary id
        labels: list[str | None] = [None] * size  # of the incoming edge
        first = [-1] * size  # newest child
        after = [-1] * size  # next older sibling
        seen: set[str] = set()
        for u, v, lab in edges:
            if not u or not v or not lab:
                raise InvalidTree(f"empty field in edge ({u!r}, {v!r}, {lab!r})")
            if u == v:
                raise InvalidTree(f"self-loop at {u!r}")
            iu = ids.setdefault(u, len(ids))
            iv = ids.setdefault(v, len(ids))
            if up[iv] >= 0:
                raise InvalidTree(f"node {v!r} has two incoming edges")
            if lab in seen:
                raise InvalidTree(f"duplicate edge label {lab!r}")
            seen.add(lab)
            up[iv] = iu
            labels[iv] = lab
            after[iv] = first[iu]
            first[iu] = iv
        if not edges:
            raise InvalidTree("a tree needs at least one edge")
        top = ids.get(root)
        if top is None:
            raise InvalidTree("root is not an endpoint of any edge")
        if up[top] >= 0:
            raise InvalidTree("root has an incoming edge")
        names = list(ids)
        del edges, seen, ids  # lowers the peak of a large build

        # Preorder pass: a node's id is its place in the pass, and each
        # child's up slot takes its parent's id before the child is reached.
        # Every non-root node has one parent, so no node repeats.
        order = []  # temporary ids in preorder
        parent = array("i")
        depth = array("i")
        leaves = []  # leaf ids in planar order
        relays = []
        stack = [top]
        while stack:
            u = stack.pop()
            i = len(order)
            p = up[u]
            order.append(u)
            parent.append(p)
            depth.append(depth[p] + 1 if i else 0)
            c = first[u]
            if c < 0:
                leaves.append(i)
                continue
            if after[c] < 0 and i:
                relays.append(u)
            while c >= 0:
                up[c] = i
                stack.append(c)
                c = after[c]
        if len(order) != len(names):
            raise InvalidTree("graph is not connected from the root")
        if relays:
            # name the relay that appears first in the edge list
            raise InvalidTree(f"relay node {names[min(relays)]!r} has out-degree 1")
        names = tuple(map(names.__getitem__, order))
        labels = tuple(map(labels.__getitem__, order))
        del up, first, after, order

        rec = tuple(receivers)
        rindex = dict(zip(rec, range(len(rec))))
        if len(rindex) != len(rec):
            raise InvalidTree("duplicate receiver name")
        leaf_at = list(map(rindex.get, map(names.__getitem__, leaves)))
        if len(leaf_at) != len(rec) or None in leaf_at:
            raise InvalidTree("receivers must name exactly the leaves")
        # planar position of each receiver: the inverse permutation
        pos = array("i", sorted(range(len(rec)), key=leaf_at.__getitem__))
        leaf = array("i", map(leaves.__getitem__, pos))
        # key the receivers by the node names, not the caller's strings
        rec = tuple(map(names.__getitem__, leaf))

        # A subtree ends after its last leaf, found by following last
        # children down: each node points at its last child, a leaf at
        # itself, and every doubling of the pointers halves the way left.
        last = np.arange(len(names), dtype=np.int32)
        np.maximum.at(last, np.asarray(parent)[1:], last[1:].copy())
        for _ in range(max(depth).bit_length()):
            last = last[last]
        # After a leaf comes a child of the node where it and the next leaf
        # branch apart, one deeper than the pair's lca.  Level k of the
        # sparse table holds the minimum of these adjacent-lca depths over
        # every run of 2**k consecutive leaf pairs.
        sparse = [np.asarray(depth)[np.asarray(leaves)[:-1] + 1] - 1]
        half = 1
        while len(sparse[-1]) > half:
            sparse.append(np.minimum(sparse[-1][:-half], sparse[-1][half:]))
            half *= 2

        self.root = root
        self.receivers = rec
        # tuples: the cyclic collector stops tracking a tuple of strings
        # once it has seen it, while it rescans a list every full pass
        self._names = names
        self._labels = labels
        self._parent = parent
        self._depth = depth
        self._end = memoryview(last + 1)
        self._by_label = dict(zip(labels[1:], range(1, len(names))))
        self._rindex = dict(zip(rec, range(len(rec))))
        self._leaf = leaf
        self._pos = pos
        self._leaf_at = array("i", leaf_at)
        # indexing a memoryview yields a plain int, which compares faster
        # than a numpy scalar; np.asarray reads one back without a copy
        self._sparse = [memoryview(level) for level in sparse]
        self._planar = rec == tuple(map(names.__getitem__, leaves))

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
        names = self._names
        return tuple(
            zip(map(names.__getitem__, self._parent[1:]), names[1:], self._labels[1:])
        )

    def edge_labels(self) -> tuple[str, ...]:
        return self._labels[1:]

    def has_label(self, label: str) -> bool:
        return label in self._by_label

    def node_depth(self, node: str) -> int:
        # only receivers are keyed by name; a linear scan finds other nodes
        k = self._rindex.get(node)
        if k is not None:
            return self._depth[self._leaf[k]]
        try:
            return self._depth[self._names.index(node)]
        except ValueError:
            raise InvalidTree(f"no node named {node!r}") from None

    # -- paths and ancestry ----------------------------------------------

    def root_path(self, r: str) -> tuple[str, ...]:
        """Edge labels from the root down to receiver ``r``."""
        v = self._leaf[self.receiver_index(r)]
        parent, labels = self._parent, self._labels
        out = []
        while v:
            out.append(labels[v])
            v = parent[v]
        out.reverse()
        return tuple(out)

    def _joins_at(self, depths: Sequence[int]) -> dict[str, str]:
        """Label of the edge at depth ``depths[k]`` on receiver k's root
        path, for every receiver k, keyed in receiver order.

        Replays the preorder a leaf at a time: the ids after one leaf up
        to the next are a chain down from the pair's branch point, so
        they overwrite the tail of the current root path in one slice,
        and every leaf reads its label in O(1).
        """
        depth, labels, leaf = self._depth, self._labels, self._leaf
        path = [""] * max(depth)
        out = [""] * len(leaf)
        prev = 0
        for k in self._leaf_at:
            v = leaf[k]
            d = depth[v]
            path[d - (v - prev) : d] = labels[prev + 1 : v + 1]
            out[k] = path[depths[k] - 1]
            prev = v
        return dict(zip(self.receivers, out))

    def _range_min(self, lo: int, hi: int) -> int:
        """Minimum adjacent-lca depth over planar positions lo..hi, inclusive."""
        k = (hi - lo + 1).bit_length() - 1
        level = self._sparse[k]
        a = level[lo]
        b = level[hi - (1 << k) + 1]
        return a if a < b else b

    def _lca_depths(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """lca depth of receiver k with every receiver, in receiver order,
        written to ``out`` (int32, one entry per receiver) when given;
        entry k is k's own depth.

        The row form of _range_min: running minima of the adjacent-lca
        depths outwards from k's planar position, one rightwards and one
        leftwards, give k's lca depth with every planar position in O(N).
        """
        adjacent = np.asarray(self._sparse[0])
        q = self._pos[k]
        row = np.empty(len(adjacent) + 1, dtype=np.int32)
        row[q] = self._depth[self._leaf[k]]
        np.minimum.accumulate(adjacent[q:], out=row[q + 1 :])
        np.minimum.accumulate(adjacent[:q][::-1], out=row[:q][::-1])
        return np.take(row, self._pos, out=out)

    def _pair_indices(self, ri: str, rj: str) -> tuple[int, int]:
        """Receiver indices of two distinct receivers."""
        i, j = self._rindex.get(ri), self._rindex.get(rj)
        if i is None or j is None or i == j:
            # slow path only to raise the right error
            self.receiver_index(ri)
            self.receiver_index(rj)
            raise SameReceiver(f"need two distinct receivers, got {ri!r} twice")
        return i, j

    def _lca_depth_at(self, i: int, j: int) -> int:
        """lca depth of two distinct receivers, given by index."""
        pi, pj = self._pos[i], self._pos[j]
        if pi > pj:
            pi, pj = pj, pi
        return self._range_min(pi, pj - 1)

    def lca_depth(self, ri: str, rj: str) -> int:
        return self._lca_depth_at(*self._pair_indices(ri, rj))

    def on_root_path(self, label: str, r: str) -> bool:
        """True when the labelled edge lies on ``r``'s root path."""
        k = self.receiver_index(r)
        v = self._by_label.get(label)
        if v is None:
            raise InvalidTree(f"no edge labelled {label!r}")
        return v <= self._leaf[k] < self._end[v]

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        # by name structure: node ids follow the edge order, which is free
        if not isinstance(other, LogicalTree):
            return NotImplemented
        return (
            self.root == other.root
            and self.receivers == other.receivers
            and set(self.edges()) == set(other.edges())
        )

    def __hash__(self) -> int:
        pairs = zip(self._names[1:], self._labels[1:])
        return hash((self.root, self.receivers, frozenset(pairs)))

    def __repr__(self) -> str:
        return (
            f"LogicalTree(root={self.root!r}, edges={len(self._labels) - 1}, "
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
    about three times faster than this scan when sampling a planar
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
        p = tree._pos[tree._rindex[r]]
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
        k = tree._rindex[r]
        p = tree._pos[k]
        self._cd[p] = join_depth
        if join_depth == tree._depth[tree._leaf[k]]:
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
        p = self.tree._pos[self.tree._rindex[r]]
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
) -> list[int]:
    """Edge depth of every receiver's join, by receiver index.

    Raises MisplacedJoin when a join is missing or is not an edge of its
    receiver's root path.
    """
    joins = config.joins if isinstance(config, JoiningConfig) else config
    by_label, depth, leaf, end = tree._by_label, tree._depth, tree._leaf, tree._end
    depths = []
    for k, r in enumerate(tree.receivers):
        if r not in joins:
            raise MisplacedJoin(f"no join assigned to receiver {r!r}")
        label = joins[r]
        v = by_label.get(label)
        if v is None or not v <= leaf[k] < end[v]:
            raise MisplacedJoin(f"join {label!r} is not on the root path of {r!r}")
        depths.append(depth[v])
    return depths


def _depths_valid(tree: LogicalTree, depths: Sequence[int]) -> bool:
    """The pairwise shared-prefix rule over join depths by receiver index."""
    blockers = _NearestBlockers(tree)
    for k in tree._leaf_at:
        cd = depths[k]
        blocked, exception = blockers.allowed(k)
        if cd <= blocked and cd != exception:
            return False
        blockers.place(k, cd)
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


def quartet_type(gt: "GroundTruth", first: str, second: str) -> QuartetType:
    """Classify the ordered receiver pair against the ground truth.

    The orientation follows the argument order: FIRST_ABOVE means the first
    receiver's join sits on the pair's shared prefix while the second's sits
    below the branching point.  Swapping the arguments exchanges types 2 and
    3 and fixes types 1 and 4.
    """
    return gt._type_at(*gt.tree._pair_indices(first, second))


@dataclass(frozen=True)
class GroundTruth:
    """A logical tree together with a valid joining configuration.

    Keeps the edge depth of every receiver's join by receiver index, which
    validation computes anyway and every quartet classification needs.
    """

    tree: LogicalTree
    config: JoiningConfig
    _join_depth: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depths = _join_depths(self.tree, self.config)
        if not _depths_valid(self.tree, depths):
            raise InvalidConfiguration("configuration violates the pairwise rule")
        object.__setattr__(self, "_join_depth", depths)

    def quartet_type(self, first: str, second: str) -> QuartetType:
        return quartet_type(self, first, second)

    def _type_at(self, i: int, j: int) -> QuartetType:
        """quartet_type of two distinct receivers, given by index."""
        branch_depth = self.tree._lca_depth_at(i, j)
        d1, d2 = self._join_depth[i], self._join_depth[j]
        if d1 <= branch_depth and d2 <= branch_depth:
            # both on one root path, so one edge exactly when level
            if d1 != d2:
                r1, r2 = self.tree.receivers[i], self.tree.receivers[j]
                raise InvalidConfiguration(
                    f"distinct joins {self.config[r1]!r}, {self.config[r2]!r} on "
                    f"the shared prefix of ({r1!r}, {r2!r})"
                )
            return QuartetType.BOTH_ABOVE
        if d1 <= branch_depth:
            return QuartetType.FIRST_ABOVE
        if d2 <= branch_depth:
            return QuartetType.SECOND_ABOVE
        return QuartetType.BOTH_BELOW
