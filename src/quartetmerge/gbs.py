"""Benefit-guided binary search over per-receiver candidate intervals.

Every receiver starts with its whole root path as the candidate set for
its joining edge.  Candidate sets stay contiguous: an answer splits each
interval at the pair's branching point and keeps the half the answer
names.  The next pair to query is the one minimizing the worst-case
surviving fraction of candidates over the four possible answers, with the
benefit ratios of one pair sharing a denominator |P_i||P_j|.

Selection arithmetic is exact.  The selection loop compares num/den in
float64, which is exact here because distinct rationals with numerator and
denominator below 2**26 cannot collide in double precision (root paths are
far shorter than that).

Type-1 answers assert that two joins coincide.  By default that equality
is not folded back into the intervals; ``propagate_equalities`` links the
two receivers so that later shrinks of one narrow the other as well.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentAnswer, InsufficientReceivers, Stalled
from .oracle import Pair
from .results import InferenceResult, Step, Trace
from .topology import JoiningConfig, LogicalTree, QuartetType


class CandidateState:
    """Candidate intervals, the pairs asked so far, and optional
    equality groups.

    Intervals are stored as inclusive edge-depth bounds (lo, hi) into each
    receiver's root path; a receiver is resolved when lo == hi.  Receivers
    whose root path is a single edge start resolved at zero cost.
    """

    def __init__(self, tree: LogicalTree, propagate_equalities: bool = False):
        n = tree.n_receivers
        self.tree = tree
        self.propagate = propagate_equalities
        self.pathlen = np.array(
            [tree.node_depth(r) for r in tree.receivers], dtype=np.int64
        )
        self.lo = np.ones(n, dtype=np.int64)
        self.hi = self.pathlen.copy()
        self.I, self.J = (a.astype(np.int64) for a in np.triu_indices(n, k=1))
        rec = tree.receivers
        self.branch_depth = np.array(
            [tree.lca_depth(rec[i], rec[j]) for i, j in zip(self.I, self.J)],
            dtype=np.int64,
        )
        self.asked = np.zeros(len(self.I), dtype=bool)
        self._uf = list(range(n))
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

    def _pair_index(self, i: int, j: int) -> int:
        n = self.tree.n_receivers
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    # -- equality groups ----------------------------------------------------

    def _find(self, k: int) -> int:
        uf = self._uf
        while uf[k] != k:
            uf[k] = uf[uf[k]]
            k = uf[k]
        return k

    def _sync_group(self, k: int) -> None:
        root = self._find(k)
        members = self._members[root]
        if len(members) == 1:
            return
        glo = max(int(self.lo[m]) for m in members)
        ghi = min(int(self.hi[m]) for m in members)
        if glo > ghi:
            raise InconsistentAnswer("equality group intersected to nothing")
        for m in members:
            self.lo[m] = glo
            self.hi[m] = ghi

    def _union(self, i: int, j: int) -> None:
        ri, rj = self._find(i), self._find(j)
        if ri == rj:
            return
        if len(self._members[ri]) < len(self._members[rj]):
            ri, rj = rj, ri
        self._uf[rj] = ri
        self._members[ri].extend(self._members.pop(rj))


def select_quartet(state: CandidateState) -> Pair | None:
    """Eligible pair with the minimum worst-case surviving fraction.

    Skips pairs whose receivers are both resolved, and pairs already
    asked: an answer leaves both intervals inside the halves it names and
    later updates only narrow them, so asking again would shrink nothing.
    Ties break in nested-loop order (ascending first index, then second),
    so argmin's first-minimum rule matches the enumeration exactly.
    Returns None when nothing is eligible.
    """
    I, J, d = state.I, state.J, state.branch_depth
    loi, hii = state.lo[I], state.hi[I]
    loj, hij = state.lo[J], state.hi[J]
    si = hii - loi + 1
    sj = hij - loj + 1

    eligible = ((si > 1) | (sj > 1)) & ~state.asked
    if not eligible.any():
        return None

    up_i = np.clip(np.minimum(hii, d) - loi + 1, 0, None)
    dn_i = np.clip(hii - np.maximum(loi - 1, d), 0, None)
    up_j = np.clip(np.minimum(hij, d) - loj + 1, 0, None)
    dn_j = np.clip(hij - np.maximum(loj - 1, d), 0, None)
    # a type-1 answer puts both joins on one shared-prefix edge, so up_i
    # alone counts its surviving candidate pairs
    num = np.maximum.reduce([up_i, up_i * dn_j, dn_i * up_j, dn_i * dn_j])
    wc = np.where(eligible, num / (si * sj), np.inf)
    k = int(np.argmin(wc))
    rec = state.tree.receivers
    return rec[int(I[k])], rec[int(J[k])]


def apply_update(state: CandidateState, pair: Pair, answer: QuartetType) -> None:
    """Shrink the pair's intervals according to the answer; mark it asked.

    The answer is read in the pair's given order: FIRST_ABOVE puts
    ``pair[0]``'s join above the branching point even when ``pair[0]`` has
    the higher index.  Raises InconsistentAnswer when an interval would
    come out empty, which cannot happen with an exact oracle.
    """
    tree = state.tree
    i = tree.receiver_index(pair[0])
    j = tree.receiver_index(pair[1])
    d = tree.lca_depth(pair[0], pair[1])
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
        state.lo[k] = nlo
        state.hi[k] = nhi
    state.asked[state._pair_index(min(i, j), max(i, j))] = True
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
    trace = Trace()
    while not state.all_resolved():
        pair = select_quartet(state)
        if pair is None:
            raise Stalled(f"no eligible pair left; unresolved: {state.unresolved()}")
        answer = oracle.query(*pair).qtype
        apply_update(state, pair, answer)
        trace.steps.append(Step(pair, answer))

    joins = {
        r: tree.root_path(r)[int(state.lo[k]) - 1]
        for k, r in enumerate(tree.receivers)
    }
    return InferenceResult(
        joins=JoiningConfig(joins),
        queries_used=len(trace.steps),
        trace=trace,
    )
