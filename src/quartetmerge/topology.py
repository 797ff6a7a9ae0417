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
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import islice

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


# QuartetType by its value: a tuple lookup costs less than an Enum call
_TYPES = (None, *QuartetType)

Pair = tuple[str, str]


def _quartet(d1, d2, branch_depth):
    """Quartet type value of joins at edge depths d1, d2 on a pair that
    branches at ``branch_depth``; on ints, or elementwise on arrays."""
    return 1 + 2 * (d1 > branch_depth) + (d2 > branch_depth)


class JoiningConfig(Mapping):
    """One joining edge per receiver, keyed by receiver name.

    The samplers and the inference algorithms build theirs over a tree, as
    the node id of each receiver's join by receiver index (see _of): the
    name dict is then built on first name access, and validation, and
    equality with a config over the same tree object, read the ids.  A
    config built from a mapping keeps its own copy of it.
    """

    __slots__ = ("_joins", "_tree", "_nodes")

    def __init__(self, joins: Mapping[str, str]):
        self._joins, self._tree, self._nodes = dict(joins), None, None

    @classmethod
    def _of(cls, tree: LogicalTree, nodes: array) -> JoiningConfig:
        config = cls.__new__(cls)
        config._joins, config._tree, config._nodes = None, tree, nodes
        return config

    @property
    def joins(self) -> Mapping[str, str]:
        if self._joins is None:
            labels = map(self._tree._labels.__getitem__, self._nodes)
            self._joins = dict(zip(self._tree.receivers, labels))
        return self._joins

    def __getitem__(self, receiver: str) -> str:
        return self.joins[receiver]

    def __iter__(self) -> Iterator[str]:
        return iter(self.joins)

    def __len__(self) -> int:
        return len(self.joins)

    def __hash__(self) -> int:
        return hash(frozenset(self.joins.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, JoiningConfig) and other._tree is self._tree is not None:
            return self._nodes == other._nodes
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"JoiningConfig(joins={self.joins!r})"


class LogicalTree:
    """Immutable rooted tree with labelled edges and ordered receiver leaves.

    Construction validates the full shape contract: one root, acyclic and
    connected, no relay nodes (non-root internal nodes have out-degree >= 2),
    and the receiver sequence names exactly the leaves.  The edges are read
    once, in order, so a generator serves as well as a list and spares the
    caller a copy of every edge; a malformed edge raises at the same edge
    either way.  Instances never mutate after construction and are safe to
    share.

    Nodes are the ints 0..V-1 in depth-first preorder, children in the
    order their edges first appear, so the root is 0 and every subtree is
    the run of ids from its root up to its end.  Names and incoming-edge
    labels are each one tuple indexed by node id; parent, depth and end
    are int arrays, as are each receiver's leaf node and planar position
    and the receiver at each planar position.  One dict keys by name,
    receiver name to index: joins pass from sampling to result as node
    ids, so the label-to-node dict is built on first use (_label_ids).  A
    sparse table of range minima over the lca depths of adjacent leaves
    makes lca queries O(1), as the oracles and samplers need at large N;
    its levels are memoryviews, and level 0 is the adjacent-lca depths
    themselves.
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
        # Read the edges in one pass, so any iterable will do, under
        # temporary ids dense in order of first appearance as parent or
        # child; the work lists grow by one slot per new node.  Each node's
        # children form a list linked through first/after, newest first:
        # pushed onto the preorder stack in that order, the oldest child
        # ends on top.  The label dict that finds duplicates goes before
        # the preorder pass; the tree builds its own on first use.
        ids: dict[str, int] = {}
        by_label: dict[str, int] = {}  # to the child's temporary id
        up: list[int] = []  # parent's temporary id
        labels: list[str | None] = []  # of the incoming edge
        first: list[int] = []  # newest child
        after: list[int] = []  # next older sibling
        for u, v, lab in edges:
            if not u or not v or not lab:
                raise InvalidTree(f"empty field in edge ({u!r}, {v!r}, {lab!r})")
            if u == v:
                raise InvalidTree(f"self-loop at {u!r}")
            n = len(up)
            iu = ids.setdefault(u, n)
            if iu == n:
                up.append(-1)
                labels.append(None)
                first.append(-1)
                after.append(-1)
                n += 1
            iv = ids.setdefault(v, n)
            if iv == n:
                up.append(iu)
                labels.append(lab)
                first.append(-1)
                after.append(first[iu])
            elif up[iv] >= 0:
                raise InvalidTree(f"node {v!r} has two incoming edges")
            else:
                up[iv] = iu
                labels[iv] = lab
                after[iv] = first[iu]
            if by_label.setdefault(lab, iv) != iv:
                raise InvalidTree(f"duplicate edge label {lab!r}")
            first[iu] = iv
        if not up:
            raise InvalidTree("a tree needs at least one edge")
        top = ids.get(root)
        if top is None:
            raise InvalidTree("root is not an endpoint of any edge")
        if up[top] >= 0:
            raise InvalidTree("root has an incoming edge")
        names = list(ids)
        del ids, by_label  # lowers the peak of a large build

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
        del up, first, after
        names = tuple(map(names.__getitem__, order))
        labels = tuple(map(labels.__getitem__, order))
        del order

        rec = tuple(receivers)
        rindex = dict(zip(rec, range(len(rec))))
        if len(rindex) != len(rec):
            raise InvalidTree("duplicate receiver name")
        leaf_at = list(map(rindex.get, map(names.__getitem__, leaves)))
        if len(leaf_at) != len(rec) or None in leaf_at:
            raise InvalidTree("receivers must name exactly the leaves")
        del rindex
        # planar position of each receiver: the inverse permutation
        pos = array("i", sorted(range(len(rec)), key=leaf_at.__getitem__))
        leaf = array("i", map(leaves.__getitem__, pos))
        # key the receivers by the node names, not the caller's strings
        rec = tuple(map(names.__getitem__, leaf))
        leaf_at = array("i", leaf_at)

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
        del leaves
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
        last += 1
        self._end = memoryview(last)
        self._leaf = leaf
        self._pos = pos
        self._leaf_at = leaf_at
        # indexing a memoryview yields a plain int, which compares faster
        # than a numpy scalar; np.asarray reads one back without a copy
        self._sparse = [memoryview(level) for level in sparse]
        self._planar = pos == array("i", range(len(pos)))
        self._by_label = None
        self._rindex = dict(zip(rec, range(len(rec))))

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
        return label in self._label_ids()

    def _label_ids(self) -> dict[str, int]:
        """Node id by incoming-edge label, built on the first call."""
        if self._by_label is None:
            labels = self._labels
            self._by_label = dict(zip(islice(labels, 1, None), range(1, len(labels))))
        return self._by_label

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

    def _nodes_at(self, depths: Sequence[int]) -> array:
        """Node at depth ``depths[k]`` on receiver k's root path, for
        every receiver k: the child end of the edge at that depth.

        Replays the preorder a leaf at a time: the ids after one leaf up
        to the next, v at depth d, are a chain down from their branch
        point, the one at depth x being v - d + x; one slice per leaf sets
        that offset along the chain, and each leaf reads its node in O(1).
        """
        depth, leaf = self._depth, self._leaf
        path = [0] * max(depth)  # chain offset by depth - 1
        out = array("i", [0]) * len(leaf)
        prev = 0
        for k in self._leaf_at:
            v = leaf[k]
            d = depth[v]
            path[d - (v - prev) : d] = [v - d] * (v - prev)
            x = depths[k]
            out[k] = path[x - 1] + x
            prev = v
        return out

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
        Receivers listed in planar order need no reordering afterwards.
        """
        adjacent = np.asarray(self._sparse[0])
        q = self._pos[k]
        if self._planar and out is not None:
            row = out
        else:
            row = np.empty(len(adjacent) + 1, dtype=np.int32)
        row[q] = self._depth[self._leaf[k]]
        np.minimum.accumulate(adjacent[q:], out=row[q + 1 :])
        np.minimum.accumulate(adjacent[:q][::-1], out=row[:q][::-1])
        return row if self._planar else np.take(row, self._pos, out=out)

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
        v = self._label_ids().get(label)
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
    a tie between the two sides goes to the left one.  allowed and place
    each cost O(log N).

    When receivers are placed in planar order, _NearestBlockers answers
    the same constraints from a stack in amortized O(1) per receiver,
    about three times faster than this scan when sampling a planar
    100 000-receiver caterpillar, so the sampler picks it for planar
    orders.  Both offer allowed(r) and place(r, depth), so callers drive
    either one the same way.
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


def _join_nodes(
    tree: LogicalTree, config: JoiningConfig | Mapping[str, str]
) -> array:
    """Node id of every receiver's join, the child end of its edge, by
    receiver index.

    Reads a config built over this tree by its node ids, and any other by
    name.  Raises MisplacedJoin at the first receiver whose join is
    missing or is not an edge of its root path, and then UnknownReceiver
    for a join keyed by a name that is no receiver.
    """
    if isinstance(config, JoiningConfig) and config._tree is tree:
        nodes, joins = config._nodes, None
    else:
        # -1 stands for an unknown label, -2 for a missing join
        joins, by_label = config, tree._label_ids()
        nodes = array("i", [by_label.get(joins[r], -1) if r in joins else -2
                            for r in tree.receivers])
    v, leaf = np.asarray(nodes), np.asarray(tree._leaf)
    off_path = np.flatnonzero((v < 0) | (v > leaf) | (leaf >= np.asarray(tree._end)[v]))
    if off_path.size:
        k = off_path[0]
        r = tree.receivers[k]
        if v[k] == -2:
            raise MisplacedJoin(f"no join assigned to receiver {r!r}")
        label = tree._labels[v[k]] if joins is None else joins[r]
        raise MisplacedJoin(f"join {label!r} is not on the root path of {r!r}")
    if joins is not None and len(joins) != len(nodes):
        for r in joins:
            tree.receiver_index(r)
    return nodes


def _nodes_valid(tree: LogicalTree, nodes: array) -> bool:
    """The pairwise shared-prefix rule over join nodes by receiver index.

    Two distinct joins on a pair's shared prefix lie on one root path, so
    the lower one's leaf span holds a receiver that joins above it; and
    such a receiver puts both joins on the prefix it shares with the lower
    join's receiver.  So a map is valid iff no join's leaf span holds a
    shallower join depth.  Level k of a sparse table of join depths in
    planar order takes the spans of 2**k to 2**(k+1) - 1 leaves.
    """
    v, planar = np.asarray(nodes), np.asarray(tree._leaf_at)
    depth = np.asarray(tree._depth)[v]
    leaves = np.asarray(tree._leaf)[planar]  # ascending
    lo = np.searchsorted(leaves, v)
    hi = np.searchsorted(leaves, np.asarray(tree._end)[v])
    size = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo))
    run = depth[planar]
    for k in range(int(size.max()) + 1):
        at = np.flatnonzero(size == k)
        if (np.minimum(run[lo[at]], run[hi[at] - (1 << k)]) < depth[at]).any():
            return False
        run = np.minimum(run[: -(1 << k)], run[1 << k :])
    return True


def is_valid_config(tree: LogicalTree, config: JoiningConfig | Mapping[str, str]) -> bool:
    """Check the pairwise shared-prefix rule for a full joining configuration.

    For every receiver pair, two distinct joins must not both lie on the
    pair's common prefix.  Raises MisplacedJoin when a join is missing or
    is not an edge of its receiver's root path; returns False only for
    violations of the pairwise rule itself.

    Runs in O(N log N) numpy steps over N-element arrays: one range
    minimum of join depths per receiver (see _nodes_valid).
    """
    return _nodes_valid(tree, _join_nodes(tree, config))


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
    every quartet classification needs.
    """

    tree: LogicalTree
    config: JoiningConfig
    _join_depth: array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = _join_nodes(self.tree, self.config)
        if not _nodes_valid(self.tree, nodes):
            raise InvalidConfiguration("configuration violates the pairwise rule")
        depths = np.asarray(self.tree._depth)[np.asarray(nodes)]
        object.__setattr__(self, "_join_depth", array("i", depths.tobytes()))

    def quartet_type(self, first: str, second: str) -> QuartetType:
        return quartet_type(self, first, second)

    def _type_at(self, i: int, j: int) -> QuartetType:
        """quartet_type of two distinct receivers, given by index."""
        depth = self._join_depth
        return _TYPES[_quartet(depth[i], depth[j], self.tree._lca_depth_at(i, j))]
