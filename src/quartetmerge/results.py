"""Records shared by both inference algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from .oracle import Pair
from .topology import JoiningConfig, QuartetType


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


@dataclass
class Trace:
    """The steps of one run in order, plus REA's join aliases.

    ``aliases`` maps a receiver REA deleted on a type-1 answer to the
    sibling whose join it shares; GBS leaves it empty.
    """

    steps: list[Step] = field(default_factory=list)
    aliases: dict[str, str] = field(default_factory=dict)


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
