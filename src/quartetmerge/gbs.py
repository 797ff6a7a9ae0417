"""Benefit-guided binary search over per-receiver candidate intervals.

Every receiver starts with its whole root path as the candidate set for
its joining edge.  Candidate sets stay contiguous: an answer splits each
interval at the pair's branching point and keeps the half the answer
names.  The next pair to query is the one minimizing the worst-case
surviving fraction of candidates over the four possible answers, with the
benefit ratios of one pair sharing a denominator |P_i||P_j|.

The search keeps every pair's worst case in one array and, after an
answer, recomputes only the pairs that touch a receiver whose interval
changed: two receivers, or one equality group.  Each pair's entry comes
from the same float64 arithmetic whether it is refreshed or computed
afresh, so the cache holds exactly what a full rescan would.

Selection arithmetic is exact.  Worst cases are compared as num/den in
float64, and distinct rationals with numerator and denominator below
2**26 cannot collide in double precision.  The denominator is
|P_i||P_j|, so this holds while every interval has fewer than 2**13
edges.

Type-1 answers assert that two joins coincide.  By default that equality
is not folded back into the intervals; ``propagate_equalities`` links the
two receivers so that later shrinks of one narrow the other as well.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentAnswer, InsufficientReceivers, Stalled
from .oracle import Pair
from .results import InferenceResult, Trace
from .topology import JoiningConfig, LogicalTree, QuartetType

# pairs per block when every pair is computed at once, which bounds the
# temporaries of the set-up to a few hundred KiB at any receiver count
_BLOCK = 4096


class CandidateState:
    """Candidate intervals, each pair's cached worst case, the pairs asked
    so far, and optional equality groups.

    Intervals are stored as inclusive edge-depth bounds (lo, hi) into each
    receiver's root path; a receiver is resolved when lo == hi.  Receivers
    whose root path is a single edge start resolved at zero cost.

    Pairs (i, j), i < j, are numbered in nested-loop order; ``I``, ``J``
    and ``branch_depth`` (the depth where the two root paths part) are
    int32 arrays over that numbering.  ``wc`` holds each pair's worst-case
    surviving fraction, and ``inf`` for a pair that is asked or whose
    receivers are both resolved.  It is current except for the pairs that
    touch a receiver in ``_changed``, which ``select_quartet`` refreshes.
    """

    def __init__(self, tree: LogicalTree, propagate_equalities: bool = False):
        n = tree.n_receivers
        self.tree = tree
        self.propagate = propagate_equalities
        self.lo = np.ones(n, dtype=np.int64)
        self.hi = np.array([tree.node_depth(r) for r in tree.receivers], dtype=np.int64)
        # pair (i, j) sits at col_base[i] + j, so row i runs from
        # col_base[i] + i + 1 to col_base[i] + n - 1
        counts = np.arange(n - 1, -1, -1)
        self._col_base = np.cumsum(counts) - counts - np.arange(n) - 1
        m = n * (n - 1) // 2
        self.I = np.repeat(np.arange(n, dtype=np.int32), counts)
        self.J = np.arange(m, dtype=np.int32)
        self.J -= np.repeat(self._col_base.astype(np.int32), counts)
        self.branch_depth = np.empty(m, dtype=np.int32)
        self.asked = np.zeros(m, dtype=bool)
        self.wc = np.empty(m)
        for s in range(0, m, _BLOCK):
            block = slice(s, s + _BLOCK)
            self.branch_depth[block] = tree._lca_depths(self.I[block], self.J[block])
            self.wc[block] = _worst_cases(self, block)
        self._changed: set[int] = set()
        # receiver -> equality group id, and each group's receivers
        self._group = list(range(n))
        self._members = {k: [k] for k in range(n)}

    # -- plain views -------------------------------------------------------

    def interval(self, r: str) -> tuple[int, int]:
        k = self.tree.receiver_index(r)
        return int(self.lo[k]), int(self.hi[k])

    def is_resolved(self, r: str) -> bool:
        k = self.tree.receiver_index(r)
        return self.lo[k] == self.hi[k]

    def all_resolved(self) -> bool:
        return bool(np.all(self.lo == self.hi))

    def unresolved(self) -> list[str]:
        return [r for k, r in enumerate(self.tree.receivers) if self.lo[k] != self.hi[k]]

    def _set_interval(self, k: int, lo: int, hi: int) -> None:
        if self.lo[k] != lo or self.hi[k] != hi:
            self.lo[k] = lo
            self.hi[k] = hi
            self._changed.add(k)

    # -- equality groups ----------------------------------------------------

    def _sync_group(self, k: int) -> None:
        members = self._members[self._group[k]]
        if len(members) == 1:
            return
        glo = max(int(self.lo[m]) for m in members)
        ghi = min(int(self.hi[m]) for m in members)
        if glo > ghi:
            raise InconsistentAnswer("equality group intersected to nothing")
        for m in members:
            self._set_interval(m, glo, ghi)

    def _union(self, i: int, j: int) -> None:
        gi, gj = self._group[i], self._group[j]
        if gi == gj:
            return
        if len(self._members[gi]) < len(self._members[gj]):
            gi, gj = gj, gi
        moved = self._members.pop(gj)
        for m in moved:
            self._group[m] = gi
        self._members[gi].extend(moved)


def _worst_cases(state: CandidateState, sel) -> np.ndarray:
    """Worst-case surviving fraction of the pairs at ``sel`` (a slice or an
    index array), ``inf`` where a pair is asked or both its receivers are
    resolved."""
    I, J, d = state.I[sel], state.J[sel], state.branch_depth[sel]
    loi, hii = state.lo[I], state.hi[I]
    loj, hij = state.lo[J], state.hi[J]
    si = hii - loi + 1
    sj = hij - loj + 1
    eligible = ((si > 1) | (sj > 1)) & ~state.asked[sel]
    up_i = np.clip(np.minimum(hii, d) - loi + 1, 0, None)
    dn_i = np.clip(hii - np.maximum(loi - 1, d), 0, None)
    up_j = np.clip(np.minimum(hij, d) - loj + 1, 0, None)
    dn_j = np.clip(hij - np.maximum(loj - 1, d), 0, None)
    # a type-1 answer puts both joins on one shared-prefix edge, so up_i
    # alone counts its surviving candidate pairs
    num = np.maximum.reduce([up_i, up_i * dn_j, dn_i * up_j, dn_i * dn_j])
    return np.where(eligible, num / (si * sj), np.inf)


def select_quartet(state: CandidateState) -> Pair | None:
    """Eligible pair with the minimum worst-case surviving fraction.

    Skips pairs whose receivers are both resolved, and pairs already
    asked: an answer leaves both intervals inside the halves it names and
    later updates only narrow them, so asking again would shrink nothing.

    First brings ``state.wc`` up to date.  A pair's worst case depends only
    on its two intervals and whether it was asked, so only the pairs that
    touch a receiver in ``state._changed`` are recomputed: receiver k's row
    (k, j > k) and its column (i < k, k), gathered into one index array.
    Ties break in nested-loop order (ascending first index, then second),
    which is the cache's order, so argmin's first-minimum rule matches the
    enumeration exactly.  Returns None when nothing is eligible.
    """
    wc = state.wc
    if state._changed:
        base, n = state._col_base, len(state.lo)
        idx = np.concatenate(
            [
                part
                for k in state._changed
                for part in (np.arange(base[k] + k + 1, base[k] + n), base[:k] + k)
            ]
        )
        wc[idx] = _worst_cases(state, idx)
        state._changed.clear()
    if not wc.size:
        return None
    p = int(np.argmin(wc))
    if wc[p] == np.inf:
        return None
    rec = state.tree.receivers
    return rec[int(state.I[p])], rec[int(state.J[p])]


def apply_update(state: CandidateState, pair: Pair, answer: QuartetType) -> None:
    """Shrink the pair's intervals according to the answer; mark it asked.

    The answer is read in the pair's given order: FIRST_ABOVE puts
    ``pair[0]``'s join above the branching point even when ``pair[0]`` has
    the higher index.  Receivers whose interval moved go into
    ``state._changed``, and the pair's cached worst case becomes ``inf``.
    Raises InconsistentAnswer when an interval would come out empty, which
    cannot happen with an exact oracle.
    """
    i, j = state.tree._pair_indices(*pair)
    p = int(state._col_base[min(i, j)]) + max(i, j)
    d = int(state.branch_depth[p])
    halves = (
        (i, answer in (QuartetType.BOTH_ABOVE, QuartetType.FIRST_ABOVE)),
        (j, answer in (QuartetType.BOTH_ABOVE, QuartetType.SECOND_ABOVE)),
    )
    new = []
    for k, above in halves:
        if above:
            nlo, nhi = int(state.lo[k]), min(int(state.hi[k]), d)
        else:
            nlo, nhi = max(int(state.lo[k]), d + 1), int(state.hi[k])
        if nlo > nhi:
            raise InconsistentAnswer(
                f"answer {answer!r} for {pair!r} empties a candidate interval"
            )
        new.append((k, nlo, nhi))
    for k, nlo, nhi in new:
        state._set_interval(k, nlo, nhi)
    state.asked[p] = True
    state.wc[p] = np.inf
    if state.propagate:
        if answer == QuartetType.BOTH_ABOVE:
            state._union(i, j)
        state._sync_group(i)
        state._sync_group(j)


def run_gbs(
    tree: LogicalTree, oracle, *, propagate_equalities: bool = False
) -> InferenceResult:
    """Run the search to full resolution and read off the joining map.

    Each selected pair is queried once, so the trace lists every query
    and its length is the query count.  Raises Stalled if unresolved
    receivers remain with no eligible pair, which an exact oracle never
    produces.
    """
    if tree.n_receivers < 2:
        raise InsufficientReceivers("the search needs at least 2 receivers")
    state = CandidateState(tree, propagate_equalities)
    trace = Trace(tree.receivers)
    while not state.all_resolved():
        pair = select_quartet(state)
        if pair is None:
            raise Stalled(f"no eligible pair left; unresolved: {state.unresolved()}")
        answer = oracle.query(*pair).qtype
        apply_update(state, pair, answer)
        trace.record(*tree._pair_indices(*pair), answer)

    return InferenceResult(
        joins=JoiningConfig(tree._joins_at(state.lo.tolist())),
        queries_used=len(trace),
        trace=trace,
    )
