"""Frozen digests of seeded sampling, elimination and noisy-oracle runs.

The expected values were recorded from the implementation that walked the
tree with iterator-stack DFS passes and keyed edge labels by (parent,
child); the rest of the suite checks that implementation's sampled maps
and recoveries against ``tests/reference.py``.  Any change to the
sampler's random stream, the planar leaf order, the pair policy or the
surgery shows up here as a changed digest.  The shuffled cases rebuild a
family tree with its receivers in a seeded random order, which takes the
sampler off its planar fast path.

The noisy cases run both algorithms at 64 receivers against a seeded
noisy oracle and digest every query's (pair, answer, probes) plus the
outcome.  Their values were recorded from the implementation that had one
oracle class per noise mode (exact, substitution noise, majority vote),
so they pin the random stream each noise spec draws.

The GBS cases run the search with an exact oracle at the sizes where its
per-pair worst-case cache matters, and digest every step's (pair, answer)
plus the joins read off.  The first three were recorded from the
implementation that rescanned every pair at every step; the perfect_binary
256 and 1024 runs, from the one that took a whole-array argmin over the
cached worst cases at every step.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from quartetmerge import (
    ExactOracle,
    GroundTruth,
    LogicalTree,
    NoiseSpec,
    Oracle,
    QuartetMergeError,
    make_tree,
    random_config,
    run_gbs,
    run_rea,
)


def config_digest(config) -> str:
    text = "\n".join(f"{r} {e}" for r, e in config.items())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def trace_digest(result) -> str:
    text = "\n".join(
        f"{s.pair[0]} {s.pair[1]} {int(s.answer)} {s.deleted_receiver} "
        f"{s.contracted_edge}"
        for s in result.trace.steps
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(shape: str, size: int, shuffled: bool) -> LogicalTree:
    tree = make_tree(shape, size)
    if not shuffled:
        return tree
    order = list(tree.receivers)
    random.Random(size).shuffle(order)
    return LogicalTree(tree.root, tree.edges(), order)


EXPECTED = {
    ("tall_binary", 2500, False, 0): ("20aa6e12f9a6893f", "3cd9c0b27ad4bf8b"),
    ("tall_binary", 2500, False, 7): ("603975461861c920", "86cd1635af951496"),
    ("perfect_ternary", 2187, False, 0): ("fcef9f2d8848c88f", "75042a6a6f7fb150"),
    ("perfect_ternary", 2187, False, 7): ("7d43286cc916f791", "409699ef997c618a"),
    ("star", 2500, False, 0): ("7e5aaedbbe73dc1d", "024aef98d472a480"),
    ("star", 2500, False, 7): ("f8b366e371dec989", "f4eef6508c3f9d3f"),
    ("tall_binary", 2500, True, 0): ("739f7f48827416ff", "87230c3c66be3f67"),
    ("perfect_ternary", 2187, True, 0): ("d883109890e8c4f3", "acdb0870bd79eeda"),
}


@pytest.mark.parametrize("shape, size, shuffled, seed", sorted(EXPECTED))
def test_seeded_outputs_are_frozen(shape, size, shuffled, seed):
    tree = build(shape, size, shuffled)
    config = random_config(tree, seed)
    result = run_rea(tree, ExactOracle(GroundTruth(tree, config)))
    assert result.matches(config)
    assert result.queries_used == size - 1
    digests = (config_digest(config), trace_digest(result))
    assert digests == EXPECTED[shape, size, shuffled, seed]


class Recorder:
    """Passes queries through to an oracle and logs what each one cost."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.stats = oracle.stats
        self.log: list[str] = []

    def query(self, ri, rj):
        before = self.stats.total_queries
        answer = self.oracle.query(ri, rj)
        probes = self.stats.total_queries - before
        self.log.append(f"{ri} {rj} {int(answer)} {probes}")
        return answer


# (algorithm, shape, p, repeats, seed) -> digest, with the outcome and the
# query count as comments; 64 receivers each, the configuration and the
# noise stream both seeded with ``seed``
NOISY = {
    ("rea", "perfect_binary", 0.05, 1, 0): "346e9d1de5fe894a",  # False, 63 q
    ("rea", "perfect_binary", 0.05, 1, 5): "eb0f4240e8dac394",  # False, 63 q
    ("rea", "perfect_binary", 0.05, 3, 0): "c557e30fffd3f52b",  # True, 63 q
    ("rea", "perfect_binary", 0.05, 3, 5): "9b9ae04ddbc33b41",  # True, 63 q
    ("rea", "perfect_binary", 0.2, 1, 0): "695402d25897eb5e",  # False, 63 q
    ("rea", "perfect_binary", 0.2, 1, 5): "c755a935f651eead",  # False, 63 q
    ("rea", "perfect_binary", 0.2, 3, 0): "88155e99a45def86",  # False, 63 q
    ("rea", "perfect_binary", 0.2, 3, 5): "5cb23b934a0ab1c3",  # False, 63 q
    ("rea", "star", 0.05, 1, 0): "16fcf2da5cd47340",  # True, 63 q
    ("rea", "star", 0.05, 1, 5): "699941984d5873a7",  # False, 63 q
    ("rea", "star", 0.05, 3, 0): "b2ac93cf29be732e",  # True, 63 q
    ("rea", "star", 0.05, 3, 5): "5452b955c3cbf8e0",  # True, 63 q
    ("rea", "star", 0.2, 1, 0): "712653a299571734",  # False, 63 q
    ("rea", "star", 0.2, 1, 5): "efb4959e168ad3a9",  # False, 63 q
    ("rea", "star", 0.2, 3, 0): "aae09a77f4a117d8",  # False, 63 q
    ("rea", "star", 0.2, 3, 5): "5171822c49beaa19",  # False, 63 q
    ("gbs", "perfect_binary", 0.05, 1, 0): "7569e3af7c8412c9",  # False, 65 q
    ("gbs", "perfect_binary", 0.05, 1, 5): "68a9ffabeaea7fc2",  # InconsistentAnswer, 67 q
    ("gbs", "perfect_binary", 0.05, 3, 0): "58ac02ffbc4ba4e7",  # True, 65 q
    ("gbs", "perfect_binary", 0.05, 3, 5): "be7c1cb5495cc207",  # True, 65 q
    ("gbs", "perfect_binary", 0.2, 1, 0): "805b1b6a31d595da",  # InconsistentAnswer, 55 q
    ("gbs", "perfect_binary", 0.2, 1, 5): "ef5771e8d244056d",  # InconsistentAnswer, 50 q
    ("gbs", "perfect_binary", 0.2, 3, 0): "c4012de70893fa47",  # InconsistentAnswer, 52 q
    ("gbs", "perfect_binary", 0.2, 3, 5): "b41c9a2db7cf7ff8",  # InconsistentAnswer, 58 q
    ("gbs", "star", 0.05, 1, 0): "c53a36a7819c6c37",  # True, 32 q
    ("gbs", "star", 0.05, 1, 5): "d043f8fcf6b2e04b",  # False, 32 q
    ("gbs", "star", 0.05, 3, 0): "d90741708a7cdfae",  # True, 32 q
    ("gbs", "star", 0.05, 3, 5): "384e62aade8bafb5",  # True, 32 q
    ("gbs", "star", 0.2, 1, 0): "7c6639576a1561aa",  # False, 32 q
    ("gbs", "star", 0.2, 1, 5): "ace7e65833ccb338",  # False, 32 q
    ("gbs", "star", 0.2, 3, 0): "2387fdeaa6bfcf14",  # False, 32 q
    ("gbs", "star", 0.2, 3, 5): "e4361e17cdbba29e",  # False, 32 q
}


@pytest.mark.parametrize("algo, shape, p, repeats, seed", sorted(NOISY))
def test_noisy_streams_are_frozen(algo, shape, p, repeats, seed):
    tree = make_tree(shape, 64)
    config = random_config(tree, seed)
    oracle = Recorder(
        Oracle(GroundTruth(tree, config), NoiseSpec(p=p, repeats=repeats, seed=seed))
    )
    try:
        if algo == "rea":
            result = run_rea(tree, oracle)
        else:
            result = run_gbs(tree, oracle, propagate_equalities=True)
        outcome = f"correct {result.matches(config)}"
    except QuartetMergeError as exc:
        outcome = type(exc).__name__
    text = "\n".join(oracle.log + [outcome])
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == NOISY[algo, shape, p, repeats, seed]


# (shape, size, seed, propagate_equalities) -> digest, with the query
# count as a comment
GBS = {
    ("perfect_binary", 512, 0, True): "4ed9080ccff2d512",  # 655 q
    ("tall_binary", 128, 3, False): "c4854528e38fd582",  # 1078 q
    ("star", 256, 1, True): "6b486d5d7c53c56f",  # 128 q
    # the benchmark's gbs_binary runs, and one size up
    ("perfect_binary", 256, 0, True): "c5e109b6ba19d66a",  # 282 q
    ("perfect_binary", 256, 1, True): "41f60fadc4c5c20a",  # 324 q
    ("perfect_binary", 256, 2, True): "2dec2529b7f3b381",  # 353 q
    ("perfect_binary", 256, 3, True): "7c1504cd49598fae",  # 293 q
    ("perfect_binary", 256, 4, True): "55d97054fc6e1cfe",  # 308 q
    ("perfect_binary", 1024, 0, True): "36feba95951d9b93",  # 1230 q
}


@pytest.mark.parametrize("shape, size, seed, propagate", sorted(GBS))
def test_gbs_runs_are_frozen(shape, size, seed, propagate):
    tree = make_tree(shape, size)
    config = random_config(tree, seed)
    result = run_gbs(
        tree, ExactOracle(GroundTruth(tree, config)), propagate_equalities=propagate
    )
    assert result.matches(config)
    lines = [f"{s.pair[0]} {s.pair[1]} {int(s.answer)}" for s in result.trace.steps]
    lines += [f"{r} {e}" for r, e in result.joins.items()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == GBS[shape, size, seed, propagate]
