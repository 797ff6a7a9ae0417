"""The quartet oracle: exact answers, or noisy ones resolved by majority vote.

The oracle normalizes a receiver pair to ascending index order before
answering, so callers may pass the pair either way round.  It keeps an
OracleStats; inference code reads query budgets from it instead of
counting on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BadSpec
from .topology import GroundTruth, QuartetType

Pair = tuple[str, str]


@dataclass
class OracleStats:
    """Probe and query counters.

    ``total_queries`` counts probes at the oracle, so a majority vote of
    r sub-probes adds r.  ``quartet_queries`` counts logical quartet
    answers handed back to the caller (one per query call).
    """

    total_queries: int = 0
    quartet_queries: int = 0


class OracleAnswer(NamedTuple):
    """An answered quartet: the index-ascending pair and its type.

    The oracle builds one per query, and a named tuple builds faster than
    a frozen dataclass.
    """

    pair: Pair
    qtype: QuartetType


@dataclass(frozen=True)
class NoiseSpec:
    """Independent substitution noise.

    With probability ``p`` an answer is replaced by one of the three wrong
    types, chosen uniformly.  ``repeats`` odd sub-probes are taken per
    query and resolved by majority, ties going to the lowest type number;
    repeats = 1 is plain noisy querying.
    """

    p: float = 0.0
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise BadSpec(f"noise probability {self.p} outside [0, 1]")
        if self.repeats < 1 or self.repeats % 2 == 0:
            raise BadSpec(f"repeats must be odd and positive, got {self.repeats}")


class Oracle:
    """Answers quartet queries from the ground truth, under optional noise.

    Without noise, or with p = 0, answers are exact and no random numbers
    are drawn.  With p > 0 each query takes ``repeats`` independently
    corrupted sub-probes and returns the modal answer; the random stream
    is fixed by the noise seed and the query sequence.  Every query costs
    ``repeats`` probes and one logical quartet in the stats.
    """

    def __init__(self, gt: GroundTruth, noise: NoiseSpec | None = None):
        self.gt = gt
        self.noise = noise
        self.stats = OracleStats()
        self._probes = 1 if noise is None else noise.repeats
        noisy = noise is not None and noise.p > 0
        self._rng = random.Random(noise.seed) if noisy else None

    def _corrupt(self, true_type: QuartetType) -> QuartetType:
        if self._rng.random() < self.noise.p:
            wrong = [t for t in QuartetType if t != true_type]
            return wrong[self._rng.randrange(3)]
        return true_type

    def query(self, ri: str, rj: str) -> OracleAnswer:
        i, j = self.gt.tree._pair_indices(ri, rj)
        if i > j:
            i, j, ri, rj = j, i, rj, ri
        qtype = self.gt._type_at(i, j)
        if self._rng is not None:
            votes = [0, 0, 0, 0]
            for _ in range(self._probes):
                votes[self._corrupt(qtype) - 1] += 1
            # index() finds the lowest type among tied maxima
            qtype = QuartetType(votes.index(max(votes)) + 1)
        stats = self.stats
        stats.total_queries += self._probes
        stats.quartet_queries += 1
        return OracleAnswer((ri, rj), qtype)


# without a NoiseSpec the oracle is exact; callers that build one for
# exact answers may say so by name
ExactOracle = Oracle
