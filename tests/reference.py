"""Slow, obviously-correct reference implementations for the test suite.

Everything here works off the raw (parent, child, label) edge list and
first principles, deliberately sharing no logic with the package: paths
come from parent-map walks, validity from the literal all-pairs rule,
identifiability from whole-space enumeration.  Tests compare the fast
implementations against these.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


def parent_map(tree) -> dict[str, tuple[str, str]]:
    """child -> (parent, edge label), straight from the edge list."""
    return {child: (parent, label) for parent, child, label in tree.edges()}


def ref_node_path(tree, leaf: str) -> list[str]:
    """Nodes from the root down to ``leaf``, inclusive."""
    pm = parent_map(tree)
    out = [leaf]
    while out[-1] in pm:
        out.append(pm[out[-1]][0])
    out.reverse()
    return out


def ref_root_path(tree, leaf: str) -> list[str]:
    """Edge labels from the root down to ``leaf``."""
    pm = parent_map(tree)
    out = []
    node = leaf
    while node in pm:
        parent, label = pm[node]
        out.append(label)
        node = parent
    out.reverse()
    return out


def ref_lca_depth(tree, ri: str, rj: str) -> int:
    pi, pj = ref_node_path(tree, ri), ref_node_path(tree, rj)
    depth = 0
    for a, b in zip(pi[1:], pj[1:]):
        if a != b:
            break
        depth += 1
    return depth


def ref_edge_depth(tree, label: str) -> int:
    pm = parent_map(tree)
    for child, (_, lab) in pm.items():
        if lab == label:
            return len(ref_node_path(tree, child)) - 1
    raise KeyError(label)


def ref_quartet_type(tree, joins: Mapping[str, str], first: str, second: str) -> int:
    """Type number 1..4 from the definition: a join is "above" when its
    edge lies on the pair's shared root-path prefix."""
    branch = ref_lca_depth(tree, first, second)
    above_first = ref_edge_depth(tree, joins[first]) <= branch
    above_second = ref_edge_depth(tree, joins[second]) <= branch
    if above_first and above_second:
        return 1
    if above_first:
        return 2
    if above_second:
        return 3
    return 4


def ref_is_valid(tree, joins: Mapping[str, str]) -> bool:
    """The all-pairs rule, checked literally against every pair."""
    for ri, rj in itertools.combinations(tree.receivers, 2):
        branch = ref_lca_depth(tree, ri, rj)
        di = ref_edge_depth(tree, joins[ri])
        dj = ref_edge_depth(tree, joins[rj])
        if di <= branch and dj <= branch and joins[ri] != joins[rj]:
            return False
    return True


def ref_enumerate(tree) -> list[dict[str, str]]:
    """Product-and-filter enumeration, lexicographic by receiver index
    then edge depth (root-to-leaf path order)."""
    paths = [ref_root_path(tree, r) for r in tree.receivers]
    out = []
    for combo in itertools.product(*paths):
        joins = dict(zip(tree.receivers, combo))
        if ref_is_valid(tree, joins):
            out.append(joins)
    return out


class RefPlacementScan:
    """Reference for PlacementScan: the same answers from an outward scan.

    A receiver j blocks i exactly when j's join lies on the shared prefix
    of i and j.  Among blockers on one side of i in planar leaf order the
    nearest one has the deepest branching point, so an outward scan per
    side finds the constraint, stepping over every placed receiver between
    i and that blocker: O(N) per call.  Ties between the two sides go to
    the left.  It reads the tree's planar positions and range minima,
    which test_properties checks against ref_lca_depth.
    """

    def __init__(self, tree: LogicalTree):
        self.tree = tree
        self._positions: list[int] = []  # sorted planar positions of placed receivers
        self._cd_at: dict[int, int] = {}  # position -> join edge depth

    def _side_block(self, p: int, idx: int, step: int) -> tuple[int, int] | None:
        """Nearest blocker scanning outward from sorted slot ``idx``."""
        positions = self._positions
        tree = self.tree
        while 0 <= idx < len(positions):
            q = positions[idx]
            lo, hi = (p, q - 1) if p < q else (q, p - 1)
            branch_depth = tree._range_min(lo, hi)
            cd = self._cd_at[q]
            if cd <= branch_depth:
                return branch_depth, cd
            idx += step
        return None

    def allowed(self, r: str) -> tuple[int, int | None]:
        """Constraint on ``r``: (blocked_depth, exception_depth_or_None).

        Edges at depth > blocked_depth are allowed; the edge at the
        exception depth (when present) is the single allowed edge within
        the blocked prefix.  blocked_depth = 0 means unconstrained.
        """
        p = self.tree._pos[self.tree.receiver_index(r)]
        idx = bisect.bisect_left(self._positions, p)
        left = self._side_block(p, idx - 1, -1)
        right = self._side_block(p, idx, +1)
        best = None
        for cand in (left, right):
            if cand is not None and (best is None or cand[0] > best[0]):
                best = cand
        if best is None:
            return 0, None
        return best

    def place(self, r: str, join_depth: int) -> None:
        p = self.tree._pos[self.tree.receiver_index(r)]
        positions = self._positions
        if not positions or p > positions[-1]:
            positions.append(p)
        else:
            bisect.insort(positions, p)
        self._cd_at[p] = join_depth


def ref_answers(tree, joins: Mapping[str, str], pairs: Iterable[tuple[str, str]]):
    return tuple(ref_quartet_type(tree, joins, a, b) for a, b in pairs)


def ref_identifies_elimination(tree, pairs, joins, configs=None) -> bool:
    """True when no other valid configuration answers identically."""
    if configs is None:
        configs = ref_enumerate(tree)
    target = ref_answers(tree, joins, pairs)
    hits = [c for c in configs if ref_answers(tree, c, pairs) == target]
    return hits == [dict(joins)]


def ref_identifies_deduction(tree, pairs, joins) -> bool:
    """Fixpoint closure of the answers alone: per-receiver candidate edge
    sets pruned by each answer, coincident receivers intersected."""
    candidates = {r: set(ref_root_path(tree, r)) for r in tree.receivers}
    groups = {r: {r} for r in tree.receivers}
    answered = [(a, b, ref_quartet_type(tree, joins, a, b)) for a, b in pairs]

    changed = True
    while changed:
        changed = False
        for a, b, t in answered:
            branch = ref_lca_depth(tree, a, b)
            for r, above in ((a, t in (1, 2)), (b, t in (1, 3))):
                keep = {
                    e for e in candidates[r]
                    if (ref_edge_depth(tree, e) <= branch) == above
                }
                if keep != candidates[r]:
                    candidates[r] = keep
                    changed = True
            if t == 1 and groups[a] is not groups[b]:
                merged = groups[a] | groups[b]
                joint = candidates[a] & candidates[b]
                for m in merged:
                    groups[m] = merged
                    if candidates[m] != joint:
                        candidates[m] = joint & candidates[m]
                        changed = True
        for r in tree.receivers:
            joint = set.intersection(*(candidates[m] for m in groups[r]))
            if joint != candidates[r]:
                candidates[r] = joint
                changed = True
    return all(len(c) == 1 for c in candidates.values())


def ref_min_quartets(tree, joins, mode: str = "elimination") -> int:
    """Smallest identifying pair-set size by brute subset search."""
    pairs = list(itertools.combinations(tree.receivers, 2))
    configs = ref_enumerate(tree)
    if len(configs) == 1:
        return 0
    for size in range(1, len(pairs) + 1):
        for subset in itertools.combinations(pairs, size):
            if mode == "elimination":
                ok = ref_identifies_elimination(tree, subset, joins, configs)
            else:
                ok = ref_identifies_deduction(tree, subset, joins)
            if ok:
                return size
    raise AssertionError("the full pair set must identify a valid config")


@dataclass(frozen=True)
class BenefitQuad:
    """Surviving-fraction ratios of the four answers for one pair."""

    t1: Fraction
    t2: Fraction
    t3: Fraction
    t4: Fraction

    @property
    def worst_case(self) -> Fraction:
        return max(self.t1, self.t2, self.t3, self.t4)


def compute_benefits(state, ri: str, rj: str) -> BenefitQuad:
    """Exact benefit ratios of a pair against a search state's intervals.

    ``state`` carries per-receiver inclusive depth bounds ``lo``/``hi`` in
    receiver index order.  ``t1`` is |up_i| / (|P_i||P_j|): a type-1
    answer collapses the pair to the shared prefix where the two joins
    coincide, so a single factor counts the surviving candidates.
    """
    tree = state.tree
    i, j = sorted((tree.receivers.index(ri), tree.receivers.index(rj)))
    d = ref_lca_depth(tree, ri, rj)
    loi, hii = int(state.lo[i]), int(state.hi[i])
    loj, hij = int(state.lo[j]), int(state.hi[j])
    up_i = max(0, min(hii, d) - loi + 1)
    dn_i = max(0, hii - max(loi - 1, d))
    up_j = max(0, min(hij, d) - loj + 1)
    dn_j = max(0, hij - max(loj - 1, d))
    den = (hii - loi + 1) * (hij - loj + 1)
    return BenefitQuad(
        t1=Fraction(up_i, den),
        t2=Fraction(up_i * dn_j, den),
        t3=Fraction(dn_i * up_j, den),
        t4=Fraction(dn_i * dn_j, den),
    )


@dataclass
class RefGbsRun:
    """What the reference search did: every step, the distinct queries,
    and the map it read off."""

    steps: list[tuple[tuple[str, str], int]]
    queries_used: int
    joins: dict[str, str]


def ref_gbs(tree, oracle, propagate_equalities: bool = False) -> RefGbsRun:
    """Benefit-guided search with an answer cache, one exact step at a time.

    Each step takes the first pair in nested-loop order whose exact
    ``compute_benefits`` worst case is minimal, among pairs that are not
    both resolved and are either unanswered or hold a cached answer that
    would still shrink an interval.  A cached pair is replayed without
    asking the oracle.  Answers name the half of each interval the join
    lies in; with ``propagate_equalities`` a type-1 answer links the two
    receivers, and linked receivers keep the intersection of their
    intervals.  Raises the package's InconsistentAnswer when an interval
    comes out empty and Stalled when no pair is left.
    """
    from quartetmerge import InconsistentAnswer, Stalled

    rec = list(tree.receivers)
    state = _RefState(tree)
    group = {r: {r} for r in rec}
    cache: dict[tuple[str, str], int] = {}
    steps = []

    def halves(ri, rj, answer):
        d = ref_lca_depth(tree, ri, rj)
        out = {}
        for r, above in ((ri, answer in (1, 2)), (rj, answer in (1, 3))):
            k = rec.index(r)
            lo, hi = state.lo[k], state.hi[k]
            out[k] = (lo, min(hi, d)) if above else (max(lo, d + 1), hi)
        return out

    while any(lo != hi for lo, hi in zip(state.lo, state.hi)):
        best = None
        for a, b in itertools.combinations(range(len(rec)), 2):
            if state.lo[a] == state.hi[a] and state.lo[b] == state.hi[b]:
                continue
            pair = (rec[a], rec[b])
            if pair in cache:
                new = halves(*pair, cache[pair])
                if all(new[k] == (state.lo[k], state.hi[k]) for k in new):
                    continue
            wc = compute_benefits(state, *pair).worst_case
            if best is None or wc < best[0]:
                best = (wc, pair)
        if best is None:
            raise Stalled("reference search has no eligible pair left")
        pair = best[1]
        if pair in cache:
            answer = cache[pair]
        else:
            answer = cache[pair] = int(oracle.query(*pair))
        new = halves(*pair, answer)
        if any(lo > hi for lo, hi in new.values()):
            raise InconsistentAnswer("reference interval came out empty")
        for k, (lo, hi) in new.items():
            state.lo[k], state.hi[k] = lo, hi
        if propagate_equalities:
            if answer == 1:
                merged = group[pair[0]] | group[pair[1]]
                for r in merged:
                    group[r] = merged
            for r in pair:
                ks = [rec.index(m) for m in group[r]]
                lo = max(state.lo[k] for k in ks)
                hi = min(state.hi[k] for k in ks)
                if lo > hi:
                    raise InconsistentAnswer("reference group came out empty")
                for k in ks:
                    state.lo[k], state.hi[k] = lo, hi
        steps.append((pair, answer))

    joins = {r: ref_root_path(tree, r)[state.lo[k] - 1] for k, r in enumerate(rec)}
    return RefGbsRun(steps=steps, queries_used=len(cache), joins=joins)


@dataclass
class RefReaRun:
    """What the reference elimination did: every step as (pair, answer,
    deleted receiver, deleted edge, contracted edge), the type-1 aliases,
    and the map it read off."""

    steps: list[tuple[tuple[str, str], int, str, str, str | None]]
    aliases: dict[str, str]
    joins: dict[str, str]
    queries_used: int


def ref_rea(tree, oracle) -> RefReaRun:
    """Receiver elimination on a plain child -> parent map.

    Each step takes the deepest remaining receiver, lowest index first,
    and its lowest-index sibling leaf, and asks about the pair in index
    order.  Type 1 deletes the first and aliases it to the second, type 3
    deletes the first, types 2 and 4 delete the second.  If the deletion
    leaves a non-root parent p with one child, p is contracted: on type 4
    p merges into its own parent and p's edge label disappears, on any
    other answer the surviving leaf takes p's place and label and its own
    label disappears.  Depths and children are recomputed from the map
    every time.
    """
    pm = parent_map(tree)
    parent = {c: p for c, (p, _) in pm.items()}
    label = {c: lab for c, (_, lab) in pm.items()}
    root = tree.root
    rec = list(tree.receivers)
    live = list(rec)
    steps = []
    aliases: dict[str, str] = {}
    joins: dict[str, str] = {}

    def kids(v):
        return [c for c in parent if parent[c] == v]

    def depth(v):
        d = 0
        while v != root:
            v = parent[v]
            d += 1
        return d

    while len(live) > 1:
        first = max(live, key=lambda r: (depth(r), -rec.index(r)))
        p = parent[first]
        second = min((c for c in kids(p) if c != first and not kids(c)), key=rec.index)
        pair = tuple(sorted((first, second), key=rec.index))
        answer = int(oracle.query(*pair))
        if answer == 1:
            aliases[pair[0]] = pair[1]
        deleted, survivor = pair if answer in (1, 3) else pair[::-1]
        deleted_edge = label.pop(deleted)
        del parent[deleted]
        live.remove(deleted)
        contracted = None
        if p != root and len(kids(p)) == 1:
            q = parent.pop(p)
            if answer == 4:
                contracted = label.pop(p)
                for c in kids(q):
                    parent[c] = p
                if q == root:
                    root = p
                else:
                    parent[p] = parent.pop(q)
                    label[p] = label.pop(q)
            else:
                contracted = label[survivor]
                label[survivor] = label.pop(p)
                parent[survivor] = q
        steps.append((pair, answer, deleted, deleted_edge, contracted))
        if answer != 1:
            joins[deleted] = deleted_edge

    joins[live[0]] = label[live[0]]
    for r in rec:
        t = r
        while t not in joins:
            t = aliases[t]
        joins[r] = joins[t]
    return RefReaRun(steps=steps, aliases=aliases, joins=joins, queries_used=len(steps))


class _RefState:
    """Inclusive edge-depth bounds per receiver, in receiver index order,
    shaped as ``compute_benefits`` reads them."""

    def __init__(self, tree):
        self.tree = tree
        self.lo = [1] * len(tree.receivers)
        self.hi = [len(ref_root_path(tree, r)) for r in tree.receivers]
