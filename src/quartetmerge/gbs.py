"""Benefit-guided binary search over per-receiver candidate intervals.

Every receiver starts with its whole root path as the candidate set for
its joining edge.  Candidate sets stay contiguous: an answer splits each
interval at the pair's branching point and keeps the half the answer
names.  The next pair to query is the one minimizing the worst-case
surviving fraction of candidates over the four possible answers, with the
benefit ratios of one pair sharing a denominator |P_i||P_j|.

``Intervals`` holds the intervals and that rule, and the brute-force
deduction closure in ``exhaustive`` runs it too; ``CandidateState`` adds
the selection cache below.  The step loop passes receiver indices, as
REA's does: only the oracle is asked by name.

The search keeps every pair's worst case in one float64 array, 8 bytes
per pair and nothing else per pair, and after an answer recomputes only
the pairs that touch a receiver whose interval changed: two receivers,
or one equality group.  It does so a receiver at a time: receiver k's
"line" holds the worst case of every pair through k, from k's lca depth
with every receiver, which the tree gives in O(N).  Each entry comes from
the same integer numerator and denominator and the same float64 division
whether it is refreshed or computed afresh, so the cache holds exactly
what a full rescan would.

Selection does not scan that array.  Each row, the pairs (i, j) with
j > i for one i, keeps a float64 lower bound on its minimum: a
recomputed line sets its own row's bound exactly, and its column entries
can only lower the bounds of the rows they sit in.  Selection rescans
the row with the smallest bound until a row's minimum meets its bound,
about twice per step on perfect binary trees of 256 to 2048 receivers,
so a step costs O(N) per receiver that moved rather than O(N**2).

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

from array import array
from typing import Sequence

import numpy as np

from .errors import InconsistentAnswer, InsufficientReceivers, Stalled
from .results import InferenceResult, Trace
from .topology import JoiningConfig, LogicalTree, QuartetType

# line entries per batch, for the set-up and the refresh alike: a batch
# is as many whole lines as fit, and at least one, so its temporaries stay
# near 130 KiB up to 2048 receivers and grow as one line beyond; smaller
# batches pay more numpy calls per line
_BLOCK = 2048


class Intervals:
    """Candidate intervals and optional equality groups, by receiver index.

    Intervals are inclusive edge-depth bounds (lo, hi) into each
    receiver's root path, in two ``array("i")``; a receiver is resolved
    when lo == hi, as one whose root path is a single edge starts.
    ``_changed`` collects the receivers whose interval moved.
    """

    def __init__(self, tree: LogicalTree, propagate_equalities: bool = False):
        n = tree.n_receivers
        self.tree = tree
        self.propagate = propagate_equalities
        self.lo = array("i", [1]) * n
        self.hi = array("i", map(tree._depth.__getitem__, tree._leaf))
        self._unresolved = n - self.hi.count(1)
        self._changed: set[int] = set()
        # receiver -> equality group id, and each group's receivers
        self._group = list(range(n))
        self._members = {k: [k] for k in range(n)}

    def all_resolved(self) -> bool:
        return not self._unresolved

    def narrow(self, i: int, j: int, answer: QuartetType) -> None:
        """Keep the half of each interval that the answer on receivers i
        and j names, read in that order: FIRST_ABOVE puts i's join above
        the branching point even when i is the higher index.  Under
        ``propagate`` a type-1 answer links the two receivers.

        Raises InconsistentAnswer when an interval or an equality group
        would come out empty, which cannot happen with an exact oracle.
        """
        d = self.tree._lca_depth_at(i, j)
        lo, hi = self.lo, self.hi
        # above keeps the depths up to d, below the depths past it
        if answer in (QuartetType.BOTH_ABOVE, QuartetType.FIRST_ABOVE):
            ilo, ihi = lo[i], min(hi[i], d)
        else:
            ilo, ihi = max(lo[i], d + 1), hi[i]
        if answer in (QuartetType.BOTH_ABOVE, QuartetType.SECOND_ABOVE):
            jlo, jhi = lo[j], min(hi[j], d)
        else:
            jlo, jhi = max(lo[j], d + 1), hi[j]
        if ilo > ihi or jlo > jhi:
            pair = self.tree.receivers[i], self.tree.receivers[j]
            raise InconsistentAnswer(
                f"answer {answer!r} for {pair!r} empties a candidate interval"
            )
        self._set_interval(i, ilo, ihi)
        self._set_interval(j, jlo, jhi)
        if self.propagate:
            if answer == QuartetType.BOTH_ABOVE:
                self._union(i, j)
            self._sync_group(i)
            self._sync_group(j)

    def _set_interval(self, k: int, lo: int, hi: int) -> None:
        olo, ohi = self.lo[k], self.hi[k]
        if olo != lo or ohi != hi:
            self._unresolved += (lo != hi) - (olo != ohi)
            self.lo[k] = lo
            self.hi[k] = hi
            self._changed.add(k)

    # -- equality groups ----------------------------------------------------

    def _sync_group(self, k: int) -> None:
        members = self._members[self._group[k]]
        if len(members) == 1:
            return
        glo = max(map(self.lo.__getitem__, members))
        ghi = min(map(self.hi.__getitem__, members))
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


class CandidateState(Intervals):
    """The intervals, plus each pair's cached worst case, a lower bound on
    each row's minimum, and the pairs asked so far.

    The line kernel reads the intervals through int32 numpy views of
    ``lo`` and ``hi``.  Pairs (i, j), i < j, are numbered in nested-loop
    order, and ``wc`` holds each pair's worst-case surviving fraction in
    that order: row i is one contiguous slice, and column k, the pairs
    (i, k) with i < k, sits at ``_col_base[:k] + k``.  It is the only
    per-pair state.  An entry is ``inf`` for a pair that is asked or whose
    receivers are both resolved.  ``asked_with[k]`` lists the receivers
    asked with k, so that a recomputed line keeps the asked pairs at
    ``inf``.  ``wc`` is current except for the pairs that touch a receiver
    in ``_changed``, which ``select_quartet`` refreshes.  ``_bound[i]`` is
    at or below the minimum of row i once those pairs are refreshed, and
    equals it when the row was last recomputed or rescanned; the last row
    is empty and its bound stays ``inf``.
    """

    def __init__(self, tree: LogicalTree, propagate_equalities: bool = False):
        super().__init__(tree, propagate_equalities)
        n = tree.n_receivers
        self._lo = np.frombuffer(self.lo, dtype=np.int32)
        self._hi = np.frombuffer(self.hi, dtype=np.int32)
        # row i of wc is wc[_row_start[i] : _row_start[i + 1]], and pair
        # (i, j) sits at col_base[i] + j
        counts = np.arange(n - 1, -1, -1)
        self._row_start = array("q", [0, *np.cumsum(counts).tolist()])
        self._col_base = np.array(self._row_start[:-1]) - np.arange(n) - 1
        self._index = np.arange(n)
        self.asked_with: list[list[int]] = [[] for _ in range(n)]
        self.wc = np.empty(n * (n - 1) // 2)
        self._bound = np.full(n, np.inf)
        _refresh(self, range(n))


def _lines(state: CandidateState, ks: Sequence[int]) -> np.ndarray:
    """Worst case of every pair through each receiver in ``ks``, one row
    per receiver: in k's line, column i < k is the pair (i, k) and column
    j > k the pair (k, j).  An entry is ``inf`` where the pair is asked or
    both its receivers are resolved; column k itself means nothing.

    The arithmetic is int64 up to the one division, so every numerator
    and denominator is exact at any depth."""
    tree, lo, hi = state.tree, state.lo, state.hi
    # k's own bounds and interval size, as columns
    kc, lok1, hik, sk = np.array(
        [ks, [lo[k] - 1 for k in ks], [hi[k] for k in ks],
         [hi[k] - lo[k] + 1 for k in ks]],
        dtype=np.int64,
    )[:, :, None]
    # the columns j > k, found before any batch-sized array is live:
    # numpy buffers this broadcast compare, which would add to the peak
    after = state._index > kc
    d = np.empty((len(ks), len(lo)), dtype=np.int32)
    for row, k in enumerate(ks):
        tree._lca_depths(k, d[row])
    d = d.astype(np.int64)
    lo1 = np.subtract(state._lo, 1, dtype=np.int64)
    hic = state._hi.astype(np.int64)
    s = hic - lo1
    # the branch point clipped into each interval splits it into the
    # candidates on the shared prefix (up) and the rest (dn): for the
    # column's receiver, and for k (upk, dnk)
    up = np.maximum(d, lo1)
    np.minimum(up, hic, out=up)
    dn = hic - up
    up -= lo1
    upk = np.maximum(d, lok1, out=d)
    np.minimum(upk, hik, out=upk)
    dnk = hik - upk
    upk -= lok1
    # the numerator is the largest count of candidate pairs an answer
    # leaves: up * dnk, dn * upk and dn * dnk for three of them, and for
    # a type-1 answer, which puts both joins on one shared-prefix edge,
    # the first receiver's up alone: the column's for i < k, k's for j > k
    num = up * dnk
    np.copyto(up, upk, where=after)
    np.maximum(num, up, out=num)
    np.multiply(dn, np.maximum(upk, dnk, out=upk), out=dn)
    np.maximum(num, dn, out=num)
    del d, up, dn, upk, dnk, after
    wc = num / (s * sk)
    resolved = None
    for line, k, size in zip(wc, ks, sk.flat):
        if size == 1:
            if resolved is None:
                resolved = s == 1
            line[resolved] = np.inf
        if state.asked_with[k]:
            line[state.asked_with[k]] = np.inf
    return wc


def _refresh(state: CandidateState, ks: Sequence[int]) -> None:
    """Recompute the cached worst case of every pair through a receiver
    in ``ks``, in batches of at most _BLOCK line entries or one line.

    A recomputed row's bound is its exact minimum; each recomputed column
    entry can only lower the bound of the row it sits in."""
    wc, bound, start, base = state.wc, state._bound, state._row_start, state._col_base
    rows = max(1, _BLOCK // len(bound))
    for first in range(0, len(ks), rows):
        batch = ks[first : first + rows]
        for k, line in zip(batch, _lines(state, batch)):
            row, col = line[k + 1 :], line[:k]
            wc[start[k] : start[k + 1]] = row
            bound[k] = np.minimum.reduce(row, initial=np.inf)
            wc[base[:k] + k] = col
            np.minimum(bound[:k], col, out=bound[:k])


def select_quartet(state: CandidateState) -> tuple[int, int] | None:
    """Receiver indices (i, j), i < j, of the eligible pair with the
    minimum worst-case surviving fraction.

    Skips pairs whose receivers are both resolved, and pairs already
    asked: an answer leaves both intervals inside the halves it names and
    later updates only narrow them, so asking again would shrink nothing.

    First brings ``state.wc`` up to date.  A pair's worst case depends only
    on its two intervals and whether it was asked, so only the lines of
    the receivers in ``state._changed`` are recomputed.  Then takes the
    row with the smallest bound and rescans it: when the row's minimum
    equals its bound, no row holds a smaller entry and no earlier row an
    equal one, so the row's first minimum is the whole array's;
    otherwise the minimum becomes the row's bound and the search goes on.
    Ties thus break in nested-loop order (ascending first index, then
    second), the order a full enumeration uses.  Returns None when
    nothing is eligible.
    """
    if state._changed:
        _refresh(state, list(state._changed))
        state._changed.clear()
    wc, bound, start = state.wc, state._bound, state._row_start
    while True:
        i = int(bound.argmin())
        b = bound[i]
        if b == np.inf:
            return None
        row = wc[start[i] : start[i + 1]]
        j = int(row.argmin())
        if row[j] == b:
            return i, i + 1 + j
        bound[i] = row[j]


def apply_update(state: CandidateState, i: int, j: int, answer: QuartetType) -> None:
    """Narrow the intervals of receivers i and j by the answer, read in
    that order (see Intervals.narrow), and mark the pair asked.

    Receivers whose interval moved go into ``state._changed``, and the
    pair's cached worst case becomes ``inf``.
    """
    state.narrow(i, j, answer)
    state.asked_with[i].append(j)
    state.asked_with[j].append(i)
    state.wc[int(state._col_base[min(i, j)]) + max(i, j)] = np.inf


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
    rec = tree.receivers
    trace = Trace(rec)
    while not state.all_resolved():
        pair = select_quartet(state)
        if pair is None:
            unresolved = [r for r, lo, hi in zip(rec, state.lo, state.hi) if lo != hi]
            raise Stalled(f"no eligible pair left; unresolved: {unresolved}")
        i, j = pair
        answer = oracle.query(rec[i], rec[j])
        apply_update(state, i, j, answer)
        trace.record(i, j, answer)

    return InferenceResult(
        joins=JoiningConfig._of(tree, tree._nodes_at(state.lo)),
        queries_used=len(trace),
        trace=trace,
    )
