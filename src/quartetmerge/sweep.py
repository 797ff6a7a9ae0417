"""Batched experiments over shapes, sizes, algorithms and seeds.

A sweep is the cross product of tree shapes, receiver counts and inference
algorithms, each repeated over a number of seeded realizations.  Rows are
plain records meant for CSV export; reruns with the same base seed
reproduce everything except the runtime column.
"""

from __future__ import annotations

import csv
import time
import zlib
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import QuartetMergeError
from .exhaustive import lower_bound
from .gbs import run_gbs
from .generators import make_tree, random_config
from .oracle import NoiseSpec, Oracle
from .rea import run_rea
from .topology import GroundTruth, LogicalTree

CSV_COLUMNS = (
    "shape",
    "n",
    "algorithm",
    "seed",
    "queries_used",
    "lower_bound",
    "correct",
    "runtime_ms",
    "error",
)

ALGORITHMS = ("rea", "gbs")


@dataclass(frozen=True)
class SweepRow:
    shape: str
    n: int
    algorithm: str
    seed: int
    queries_used: int
    lower_bound: int
    correct: bool
    runtime_ms: float
    error: str = ""


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate over one (shape, n, algorithm) group."""

    shape: str
    n: int
    algorithm: str
    runs: int
    mean_queries: float
    success_rate: float
    mean_runtime_ms: float


def realization_seed(base_seed: int, shape: str, n: int, k: int) -> int:
    """Seed for realization ``k`` of one (shape, n) cell.

    Mixing with a checksum of the cell key decouples the streams of
    different cells, so adding a size to a sweep never shifts the random
    draws of the others.
    """
    return base_seed ^ zlib.crc32(f"{shape}:{n}:{k}".encode())


def run_algorithm(name: str, tree: LogicalTree, oracle, *, propagate_equalities=False):
    if name == "rea":
        return run_rea(tree, oracle)
    if name == "gbs":
        return run_gbs(tree, oracle, propagate_equalities=propagate_equalities)
    raise ValueError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")


def run_sweep(
    shapes: Sequence[str],
    sizes: Sequence[int],
    algorithms: Sequence[str] = ALGORITHMS,
    *,
    realizations: int = 10,
    base_seed: int = 0,
    noise: NoiseSpec | None = None,
    propagate_equalities: bool = False,
) -> list[SweepRow]:
    """Run the full cross product and return one row per realization.

    An algorithm failure (for example a stall under noise) becomes a row
    with the error column set rather than aborting the sweep; a malformed
    shape/size combination raises immediately, since that is a caller
    mistake and every realization would fail the same way.
    """
    rows: list[SweepRow] = []
    for shape in shapes:
        for n in sizes:
            tree = make_tree(shape, n)
            bound = lower_bound(tree.n_receivers)
            for name in algorithms:
                for k in range(realizations):
                    seed = realization_seed(base_seed, shape, n, k)
                    config = random_config(tree, seed)
                    gt = GroundTruth(tree, config)
                    row_noise = noise
                    if noise is not None:
                        row_noise = replace(noise, seed=noise.seed ^ seed)
                    oracle = Oracle(gt, row_noise)
                    start = time.perf_counter()
                    try:
                        result = run_algorithm(
                            name, tree, oracle,
                            propagate_equalities=propagate_equalities,
                        )
                        queries = result.queries_used
                        correct = result.matches(config)
                        error = ""
                    except QuartetMergeError as exc:
                        queries = oracle.stats.quartet_queries
                        correct = False
                        error = f"{type(exc).__name__}: {exc}"
                    elapsed_ms = (time.perf_counter() - start) * 1000.0
                    rows.append(
                        SweepRow(
                            shape=shape,
                            n=tree.n_receivers,
                            algorithm=name,
                            seed=seed,
                            queries_used=queries,
                            lower_bound=bound,
                            correct=correct,
                            runtime_ms=elapsed_ms,
                            error=error,
                        )
                    )
    return rows


def write_csv(rows: Iterable[SweepRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.shape,
                    r.n,
                    r.algorithm,
                    r.seed,
                    r.queries_used,
                    r.lower_bound,
                    "true" if r.correct else "false",
                    f"{r.runtime_ms:.3f}",
                    r.error,
                ]
            )


def summarize(rows: Iterable[SweepRow]) -> list[SweepSummary]:
    """Group rows by (shape, n, algorithm) in first-seen order."""
    groups: dict[tuple[str, int, str], list[SweepRow]] = {}
    for r in rows:
        groups.setdefault((r.shape, r.n, r.algorithm), []).append(r)
    out = []
    for (shape, n, name), members in groups.items():
        runs = len(members)
        out.append(
            SweepSummary(
                shape=shape,
                n=n,
                algorithm=name,
                runs=runs,
                mean_queries=sum(m.queries_used for m in members) / runs,
                success_rate=sum(1 for m in members if m.correct) / runs,
                mean_runtime_ms=sum(m.runtime_ms for m in members) / runs,
            )
        )
    return out
