"""Records shared by both inference algorithms.

A run records each query into the int columns of its Trace as it goes:
the two receiver indices, the answer and, for REA, the edge its splice
contracted.  The Step records are built from those on the first read of
``Trace.steps``, so the step loop keeps no per-step object; that first
read costs about 0.23 s per 100 000 steps with Python 3.11 on a shared
2-core host.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .topology import _TYPES, JoiningConfig, Pair, QuartetType


def cut_order(first: int, second: int, answer: int) -> tuple[int, int]:
    """(deleted, survivor) of an REA step on the pair (first, second).

    The receiver that goes is one whose join the answer pins down: type 3
    puts the first's on its leaf edge, below the branching point, and type
    1 makes it the second's; types 2 and 4 put the second's on its leaf
    edge.
    """
    return (first, second) if answer & 1 else (second, first)


@dataclass(frozen=True, slots=True)
class Step:
    """One query and what it did.

    REA fills in its surgery: the receiver it cut off, that receiver's
    leaf edge, and the edge that went when the cut spliced out the
    parent (None when nothing was spliced).  GBS leaves all three None.
    """

    pair: Pair
    answer: QuartetType
    deleted_receiver: str | None = None
    deleted_edge: str | None = None
    contracted_edge: str | None = None

    @property
    def identified(self) -> tuple[str, str] | None:
        """The receiver and joining edge the step pinned down.

        None for GBS steps, and for an REA type-1 answer, which only
        aliases the deleted receiver's join to its sibling's.
        """
        if self.deleted_receiver is None or self.answer == QuartetType.BOTH_ABOVE:
            return None
        return self.deleted_receiver, self.deleted_edge


class Trace:
    """The steps of one run in order, plus REA's join aliases.

    ``record`` appends a step as two receiver indices, the answer and the
    contracted edge label.  An REA trace also holds the run's leaf-edge
    labels keyed by receiver: a receiver's leaf edge never changes once it
    is cut off, so the final ones give every step's deleted edge.  A GBS
    trace has none, and its steps leave the surgery fields None.

    ``steps`` builds the Step records on first read and keeps that list,
    so an edit to it is what later reads return.  ``aliases`` maps each
    receiver REA deleted on a type-1 answer to the sibling whose join it
    shares, in step order; GBS leaves it empty.  Traces compare equal when
    their steps and aliases do.
    """

    __slots__ = ("first", "second", "answer", "contracted", "_names", "_labels", "_steps")

    def __init__(self, receivers: Sequence[str], labels: Mapping[str, str] | None = None):
        self.first = array("i")
        self.second = array("i")
        self.answer = array("b")
        self.contracted: list[str | None] = []
        self._names = receivers
        self._labels = labels
        self._steps: list[Step] | None = None

    def record(self, first: int, second: int, answer: int, contracted: str | None = None):
        self.first.append(first)
        self.second.append(second)
        self.answer.append(answer)
        self.contracted.append(contracted)

    def __len__(self) -> int:
        return len(self.answer)

    @property
    def steps(self) -> list[Step]:
        if self._steps is None:
            name = self._names.__getitem__
            fields = [
                zip(map(name, self.first), map(name, self.second)),
                map(_TYPES.__getitem__, self.answer),
            ]
            if self._labels is not None:
                cols = zip(self.first, self.second, self.answer)
                deleted = [name(cut_order(*col)[0]) for col in cols]
                fields += (
                    deleted,
                    map(self._labels.__getitem__, deleted),
                    self.contracted,
                )
            self._steps = list(map(Step, *fields))
        return self._steps

    @property
    def aliases(self) -> dict[str, str]:
        if self._labels is None:
            return {}
        both = QuartetType.BOTH_ABOVE
        return {s.pair[0]: s.pair[1] for s in self.steps if s.answer == both}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.steps == other.steps and self.aliases == other.aliases


@dataclass(frozen=True)
class InferenceResult:
    """Inferred joining edges plus the query budget spent to get them.

    ``queries_used`` counts logical quartet queries (majority sub-probes
    excluded); the oracle's stats carry probe counts.
    """

    joins: JoiningConfig
    queries_used: int
    trace: Trace

    def matches(self, config: JoiningConfig) -> bool:
        return self.joins == config
