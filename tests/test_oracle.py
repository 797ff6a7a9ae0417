"""Oracle behaviour: exact answers, noise injection, majority voting."""

from __future__ import annotations

import itertools

import pytest

from quartetmerge import (
    BadSpec,
    ExactOracle,
    GroundTruth,
    NoiseSpec,
    Oracle,
    QuartetType,
    make_tree,
    random_config,
)
from reference import ref_quartet_type


@pytest.fixture
def ground_truth(three_fork_tree, three_fork_config):
    return GroundTruth(three_fork_tree, three_fork_config)


def test_exact_oracle_matches_reference(ground_truth):
    oracle = ExactOracle(ground_truth)
    tree = ground_truth.tree
    for ri, rj in itertools.combinations(tree.receivers, 2):
        answer = oracle.query(ri, rj)
        assert answer.value == ref_quartet_type(
            tree, ground_truth.config.joins, ri, rj
        )


def test_a_reversed_query_swaps_types_2_and_3(ground_truth):
    oracle = ExactOracle(ground_truth)
    swap = {2: 3, 3: 2}
    for ri, rj in itertools.combinations(ground_truth.tree.receivers, 2):
        fwd, rev = oracle.query(ri, rj), oracle.query(rj, ri)
        assert rev == swap.get(fwd, fwd)
        assert rev is ground_truth.quartet_type(rj, ri)
    assert {oracle.query("r1", "r4"), oracle.query("r4", "r1")} == {
        QuartetType.FIRST_ABOVE,
        QuartetType.SECOND_ABOVE,
    }
    assert oracle.stats.quartet_queries == 14


def test_stats_count_probes_and_quartets(ground_truth):
    oracle = Oracle(ground_truth, NoiseSpec(p=0.2, repeats=5, seed=0))
    oracle.query("r1", "r2")
    oracle.query("r1", "r3")
    assert oracle.stats.quartet_queries == 2
    assert oracle.stats.total_queries == 10


@pytest.mark.parametrize("p", [-0.5, 1.5])
def test_noise_probability_validated(p):
    with pytest.raises(BadSpec):
        NoiseSpec(p=p)


@pytest.mark.parametrize("repeats", [0, 2, -3, 3.0])
def test_repeats_must_be_odd_positive(repeats):
    with pytest.raises(BadSpec):
        NoiseSpec(repeats=repeats)


def test_oracle_corrupts_only_under_noise(monkeypatch):
    # without noise, or with p = 0, the answer comes straight from the
    # ground truth and no sub-probe is drawn; with p > 0 every query draws
    # ``repeats`` of them
    tree = make_tree("star", 4)
    gt = GroundTruth(tree, random_config(tree, 0))
    truth = ExactOracle(gt).query("r1", "r2")
    cases = [
        (None, 1, 0),
        (NoiseSpec(), 1, 0),
        (NoiseSpec(p=0.0, repeats=3), 3, 0),
        (NoiseSpec(p=0.1), 1, 1),
        (NoiseSpec(p=0.1, repeats=3), 3, 3),
    ]
    for noise, probes, draws in cases:
        oracle = Oracle(gt, noise)
        calls = []
        monkeypatch.setattr(oracle, "_corrupt", lambda t: calls.append(t) or t)
        assert oracle.query("r1", "r2") == truth
        assert len(calls) == draws, noise
        assert oracle.stats.total_queries == probes, noise


def test_zero_noise_reproduces_exact_answers_bit_for_bit():
    tree = make_tree("perfect_binary", 8)
    gt = GroundTruth(tree, random_config(tree, 11))
    exact = ExactOracle(gt)
    for repeats in (1, 5):
        noisy = Oracle(gt, NoiseSpec(p=0.0, repeats=repeats, seed=99))
        for ri, rj in itertools.combinations(tree.receivers, 2):
            assert noisy.query(ri, rj) == exact.query(ri, rj)


def test_noisy_oracle_is_seed_deterministic():
    tree = make_tree("perfect_binary", 8)
    gt = GroundTruth(tree, random_config(tree, 3))
    pairs = list(itertools.combinations(tree.receivers, 2))
    runs = []
    for _ in range(2):
        oracle = Oracle(gt, NoiseSpec(p=0.4, seed=7))
        runs.append([oracle.query(*p) for p in pairs])
    assert runs[0] == runs[1]
    other = Oracle(gt, NoiseSpec(p=0.4, seed=8))
    assert [other.query(*p) for p in pairs] != runs[0]


def test_noise_flips_roughly_p_fraction():
    tree = make_tree("star", 4)
    gt = GroundTruth(tree, random_config(tree, 0))
    truth = ExactOracle(gt).query("r1", "r2")
    oracle = Oracle(gt, NoiseSpec(p=0.3, seed=5))
    flips = sum(oracle.query("r1", "r2") != truth for _ in range(2000))
    assert 0.25 < flips / 2000 < 0.35


def test_majority_vote_suppresses_noise():
    tree = make_tree("star", 4)
    gt = GroundTruth(tree, random_config(tree, 0))
    truth = ExactOracle(gt).query("r1", "r2")
    lone = Oracle(gt, NoiseSpec(p=0.3, seed=2))
    voted = Oracle(gt, NoiseSpec(p=0.3, repeats=9, seed=2))
    n = 500
    lone_wrong = sum(lone.query("r1", "r2") != truth for _ in range(n))
    voted_wrong = sum(voted.query("r1", "r2") != truth for _ in range(n))
    assert voted_wrong < lone_wrong


def test_majority_tie_goes_to_lowest_type(monkeypatch):
    tree = make_tree("star", 4)
    gt = GroundTruth(tree, random_config(tree, 0))
    oracle = Oracle(gt, NoiseSpec(p=1.0, repeats=3, seed=0))
    fed = iter(
        [QuartetType.BOTH_BELOW, QuartetType.SECOND_ABOVE, QuartetType.FIRST_ABOVE]
    )
    monkeypatch.setattr(oracle, "_corrupt", lambda t: next(fed))
    # one vote each for types 2, 3, 4: the three-way tie resolves to 2
    assert oracle.query("r1", "r2") is QuartetType.FIRST_ABOVE
