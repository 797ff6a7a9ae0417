"""Several unknown sources joining the same known tree.

Sources do not interact: each one induces its own joining configuration
and its own quartet answers, so the joint problem decomposes into one
independent inference per source.  With receiver elimination that is
(M - 1)(N - 1) queries for M - 1 unknown sources over N receivers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .oracle import NoiseSpec, Oracle
from .results import InferenceResult
from .sweep import run_algorithm
from .topology import GroundTruth, JoiningConfig, LogicalTree


@dataclass(frozen=True)
class MultiResult:
    """Per-source inference results in input order."""

    results: tuple[InferenceResult, ...]

    @property
    def total_queries(self) -> int:
        return sum(r.queries_used for r in self.results)

    def joins_per_source(self) -> tuple[JoiningConfig, ...]:
        return tuple(r.joins for r in self.results)


def run_multi(
    tree: LogicalTree,
    configs: Sequence[JoiningConfig],
    *,
    algorithm: str = "rea",
    noise: NoiseSpec | None = None,
    propagate_equalities: bool = False,
) -> MultiResult:
    """Infer every source's joining map, one oracle per source.

    ``configs`` holds the ground truth for each unknown source.  Under a
    seeded noise spec each source gets an offset seed so the noise streams
    stay independent but reproducible.
    """
    results = []
    for k, config in enumerate(configs):
        gt = GroundTruth(tree, config)
        src_noise = noise
        if noise is not None:
            src_noise = replace(noise, seed=noise.seed + k)
        oracle = Oracle(gt, src_noise)
        results.append(
            run_algorithm(
                algorithm, tree, oracle, propagate_equalities=propagate_equalities
            )
        )
    return MultiResult(results=tuple(results))
