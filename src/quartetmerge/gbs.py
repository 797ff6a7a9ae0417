"""Benefit-guided binary search over per-receiver candidate intervals.

Every receiver starts with its whole root path as the candidate set for
its joining edge.  Candidate sets stay contiguous: an answer splits each
interval at the pair's branching point and keeps the half the answer
names.  The next pair to query is the one minimizing the worst-case
surviving fraction of candidates over the four possible answers, with the
benefit ratios of one pair sharing a denominator |P_i||P_j|.

The search keeps every pair's worst case in one float64 array, 8 bytes
per pair and nothing else per pair, and after an answer recomputes only
the pairs that touch a receiver whose interval changed: two receivers,
or one equality group.  It does so a receiver at a time: receiver k's
"line" holds the worst case of every pair through k, from k's lca depth
with every receiver, which the tree gives in O(N).  Each entry comes from
the same integer numerator and denominator and the same float64 division
whether it is refreshed or computed afresh, so the cache holds exactly
what a full rescan would.

Selection arithmetic is exact.  Worst cases are compared as num/den in
float64, with num <= den.  Two such quotients with denominators below
2**26 order in double precision exactly as the rationals do, ties
included: distinct ones differ by at least 2**-52, more than their two
roundings together.  The denominator is |P_i||P_j|, so this holds while
every interval has fewer than 2**13 edges.

Type-1 answers assert that two joins coincide.  By default that equality
is not folded back into the intervals; ``propagate_equalities`` links the
two receivers so that later shrinks of one narrow the other as well.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InconsistentAnswer, InsufficientReceivers, Stalled
from .oracle import Pair
from .results import InferenceResult, Trace
from .topology import JoiningConfig, LogicalTree, QuartetType

# line entries per batch, for the set-up and the refresh alike: a batch
# is as many whole lines as fit, and at least one, so its temporaries stay
# near 130 KiB up to 2048 receivers and grow as one line beyond; smaller
# batches pay more numpy calls per line
_BLOCK = 2048


class CandidateState:
    """Candidate intervals, each pair's cached worst case, the pairs asked
    so far, and optional equality groups.

    Intervals are stored as inclusive edge-depth bounds (lo, hi) into each
    receiver's root path; a receiver is resolved when lo == hi.  Receivers
    whose root path is a single edge start resolved at zero cost.

    Pairs (i, j), i < j, are numbered in nested-loop order, and ``wc``
    holds each pair's worst-case surviving fraction in that order: row i
    is one contiguous slice, and column k, the pairs (i, k) with i < k,
    sits at ``_col_base[:k] + k``.  It is the only per-pair state.  An
    entry is ``inf`` for a pair that is asked or whose receivers are both
    resolved.  ``asked_with[k]`` lists the receivers asked with k, so that
    a recomputed line keeps the asked pairs at ``inf``.  ``wc`` is
    current except for the pairs that touch a receiver in ``_changed``,
    which ``select_quartet`` refreshes.
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
        self.asked_with: list[list[int]] = [[] for _ in range(n)]
        self.wc = np.empty(n * (n - 1) // 2)
        _refresh(self, range(n))
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


def _lines(state: CandidateState, ks: Sequence[int]) -> np.ndarray:
    """Worst case of every pair through each receiver in ``ks``, one row
    per receiver: in k's line, column i < k is the pair (i, k) and column
    j > k the pair (k, j).  An entry is ``inf`` where the pair is asked or
    both its receivers are resolved; column k itself means nothing."""
    tree, lo, hi = state.tree, state.lo, state.hi
    d = np.empty((len(ks), len(lo)), dtype=np.int32)
    for row, k in zip(d, ks):
        tree._lca_depths(k, row)
    kc = np.array(ks)[:, None]
    s = hi - lo + 1
    sk = s[kc]
    # candidates on the shared prefix of the column's receiver (up) and
    # of k (upk); dn and dnk count the rest.  In place, to keep few
    # batch-sized temporaries alive at once
    up = np.minimum(hi, d)
    up -= lo - 1
    np.maximum(up, 0, out=up)
    upk = np.minimum(hi[kc], d)
    upk -= lo[kc] - 1
    np.maximum(upk, 0, out=upk)
    del d
    dn = s - up
    dnk = sk - upk
    num = up * dnk
    np.maximum(num, np.multiply(dn, upk), out=num)
    np.maximum(num, np.multiply(dn, dnk, out=dn), out=num)
    del dn, dnk
    # a type-1 answer puts both joins on one shared-prefix edge, so the
    # first receiver's up alone counts its surviving candidate pairs: the
    # column's for i < k, and k's for j > k
    np.copyto(up, upk, where=np.arange(len(lo)) > kc)
    np.maximum(num, up, out=num)
    del up, upk
    wc = num / (s * sk)
    wc[(s == 1) & (sk == 1)] = np.inf
    for line, k in zip(wc, ks):
        line[state.asked_with[k]] = np.inf
    return wc


def _refresh(state: CandidateState, ks: Sequence[int]) -> None:
    """Recompute the cached worst case of every pair through a receiver
    in ``ks``, in batches of at most _BLOCK line entries or one line."""
    wc, base, n = state.wc, state._col_base, len(state.lo)
    rows = max(1, _BLOCK // n)
    for start in range(0, len(ks), rows):
        batch = ks[start : start + rows]
        for k, line in zip(batch, _lines(state, batch)):
            wc[base[k] + k + 1 : base[k] + n] = line[k + 1 :]
            wc[base[:k] + k] = line[:k]


def select_quartet(state: CandidateState) -> Pair | None:
    """Eligible pair with the minimum worst-case surviving fraction.

    Skips pairs whose receivers are both resolved, and pairs already
    asked: an answer leaves both intervals inside the halves it names and
    later updates only narrow them, so asking again would shrink nothing.

    First brings ``state.wc`` up to date.  A pair's worst case depends only
    on its two intervals and whether it was asked, so only the lines of
    the receivers in ``state._changed`` are recomputed.  Ties break in
    nested-loop order (ascending first index, then second), which is the
    cache's order, so argmin's first-minimum rule matches the enumeration
    exactly.  Returns None when nothing is eligible.
    """
    wc = state.wc
    if state._changed:
        _refresh(state, list(state._changed))
        state._changed.clear()
    if not wc.size:
        return None
    p = int(np.argmin(wc))
    if wc[p] == np.inf:
        return None
    # row i starts right after col_base[i] + i, which rises with i
    base = state._col_base
    i = int(np.searchsorted(base + np.arange(len(base)), p)) - 1
    rec = state.tree.receivers
    return rec[i], rec[p - int(base[i])]


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
    d = state.tree._lca_depth_at(i, j)
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
    state.asked_with[i].append(j)
    state.asked_with[j].append(i)
    state.wc[int(state._col_base[min(i, j)]) + max(i, j)] = np.inf
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
        joins=JoiningConfig._of(tree, tree._nodes_at(state.lo.tolist())),
        queries_used=len(trace),
        trace=trace,
    )
