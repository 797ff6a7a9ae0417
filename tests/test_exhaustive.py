"""Brute-force enumeration, identifiability modes, minimum query counts."""

from __future__ import annotations

import math

import pytest

from quartetmerge import (
    GroundTruth,
    InsufficientReceivers,
    InvalidConfiguration,
    JoiningConfig,
    LogicalTree,
    MisplacedJoin,
    QuartetType,
    TooLarge,
    all_pairs,
    answer_set,
    enumerate_valid_configs,
    identifies,
    is_valid_config,
    lower_bound,
    make_tree,
    min_identifying_set,
    min_quartets,
    min_quartets_all,
)
from reference import (
    ref_enumerate,
    ref_identifies_deduction,
    ref_identifies_elimination,
    ref_min_quartets,
)


@pytest.mark.parametrize("n, expected", [(2, 1), (3, 2), (4, 2), (5, 3), (31, 16)])
def test_lower_bound(n, expected):
    assert lower_bound(n) == expected


def test_lower_bound_needs_two():
    with pytest.raises(InsufficientReceivers):
        lower_bound(1)


def test_all_pairs_order(three_fork_tree):
    assert all_pairs(three_fork_tree) == [
        ("r1", "r2"),
        ("r1", "r3"),
        ("r1", "r4"),
        ("r2", "r3"),
        ("r2", "r4"),
        ("r3", "r4"),
    ]


@pytest.mark.parametrize(
    "shape, size, count",
    [
        ("tall_binary", 2, 4),
        ("star", 3, 8),
        ("tall_binary", 3, 14),
        ("perfect_binary", 4, 49),
        ("tall_binary", 4, 48),
        ("perfect_ternary", 3, 8),
        ("tall_binary", 5, 164),
    ],
)
def test_enumeration_counts(shape, size, count):
    assert len(enumerate_valid_configs(make_tree(shape, size))) == count


@pytest.mark.parametrize(
    "shape, size", [("star", 3), ("tall_binary", 3), ("perfect_binary", 4)]
)
def test_enumeration_matches_reference_order(shape, size):
    tree = make_tree(shape, size)
    got = [dict(c.joins) for c in enumerate_valid_configs(tree)]
    assert got == ref_enumerate(tree)


def test_enumeration_on_worked_example(three_fork_tree):
    configs = enumerate_valid_configs(three_fork_tree)
    assert len(configs) == 28
    assert [dict(c.joins) for c in configs] == ref_enumerate(three_fork_tree)
    assert all(is_valid_config(three_fork_tree, c) for c in configs)
    assert len(set(configs)) == len(configs)


def test_receiver_cap():
    with pytest.raises(TooLarge):
        enumerate_valid_configs(make_tree("star", 9))
    assert len(enumerate_valid_configs(make_tree("star", 9), max_receivers=9)) > 0


def test_raw_product_cap(three_fork_tree):
    with pytest.raises(TooLarge):
        enumerate_valid_configs(three_fork_tree, max_raw=10)


def test_answer_set_orientation(three_fork_tree, three_fork_config):
    gt = GroundTruth(three_fork_tree, JoiningConfig(three_fork_config))
    got = answer_set(gt, [("r2", "r3"), ("r1", "r3"), ("r1", "r4"), ("r4", "r1")])
    assert got == {
        ("r2", "r3"): QuartetType.BOTH_ABOVE,
        ("r1", "r3"): QuartetType.BOTH_BELOW,
        ("r1", "r4"): QuartetType.SECOND_ABOVE,
        ("r4", "r1"): QuartetType.FIRST_ABOVE,
    }


class TestIdentifies:
    def test_matches_reference_on_small_subsets(self, three_fork_tree):
        import itertools

        tree = three_fork_tree
        configs = enumerate_valid_configs(tree)
        raw = [dict(c.joins) for c in configs]
        pairs = all_pairs(tree)
        subsets = [list(s) for k in (1, 2) for s in itertools.combinations(pairs, k)]
        for cfg, joins in zip(configs, raw):
            for sub in subsets:
                assert identifies(tree, sub, cfg) == (
                    ref_identifies_elimination(tree, sub, joins, raw)
                )
                assert identifies(tree, sub, cfg, mode="deduction") == (
                    ref_identifies_deduction(tree, sub, joins)
                )

    def test_full_pair_set_identifies_everything(self):
        tree = make_tree("tall_binary", 4)
        pairs = all_pairs(tree)
        for cfg in enumerate_valid_configs(tree):
            assert identifies(tree, pairs, cfg)

    def test_unknown_mode(self, three_fork_tree, three_fork_config):
        cfg = JoiningConfig(three_fork_config)
        with pytest.raises(ValueError):
            identifies(three_fork_tree, [], cfg, mode="guessing")
        with pytest.raises(ValueError):
            min_identifying_set(three_fork_tree, cfg, mode="guessing")
        with pytest.raises(ValueError):
            min_quartets_all(three_fork_tree, mode="guessing")


class TestMinimums:
    def test_leaf_joins_anchor(self, leaf_joins_anchor):
        tree, config = leaf_joins_anchor
        witness = (("r1", "r2"), ("r3", "r4"))
        assert min_identifying_set(tree, config) == witness
        assert min_identifying_set(tree, config, mode="deduction") == witness

    def test_root_join_anchor_modes_differ(self, root_join_anchor):
        tree, config = root_join_anchor
        assert min_identifying_set(tree, config) == (("r1", "r3"), ("r2", "r4"))
        assert min_identifying_set(tree, config, mode="deduction") == (
            ("r1", "r2"),
            ("r1", "r3"),
            ("r1", "r4"),
        )

    @pytest.mark.parametrize("mode", ["elimination", "deduction"])
    def test_matches_reference(self, three_fork_tree, mode):
        tree = three_fork_tree
        for cfg in enumerate_valid_configs(tree):
            assert min_quartets(tree, cfg, mode=mode) == ref_min_quartets(
                tree, dict(cfg.joins), mode
            )

    def test_deduction_never_cheaper(self, three_fork_tree):
        tree = three_fork_tree
        for cfg in enumerate_valid_configs(tree):
            assert min_quartets(tree, cfg, mode="deduction") >= min_quartets(tree, cfg)

    @pytest.mark.parametrize(
        "shape, size", [("star", 4), ("tall_binary", 4), ("perfect_binary", 4)]
    )
    def test_all_configs_batch_agrees_and_is_bounded(self, shape, size):
        tree = make_tree(shape, size)
        configs = enumerate_valid_configs(tree)
        batch = min_quartets_all(tree)
        assert batch == [min_quartets(tree, c) for c in configs]
        assert min(batch) >= 1
        assert lower_bound(size) <= max(batch) <= size - 1

    @pytest.mark.parametrize("shape", [None, "tall_binary"])
    def test_deduction_batch_agrees_and_bounds_elimination(self, three_fork_tree, shape):
        tree = three_fork_tree if shape is None else make_tree(shape, 4)
        configs = enumerate_valid_configs(tree)
        batch = min_quartets_all(tree, mode="deduction")
        assert batch == [min_quartets(tree, c, mode="deduction") for c in configs]
        assert all(d >= e for d, e in zip(batch, min_quartets_all(tree)))

    @pytest.mark.parametrize("shape, size", [("star", 4), ("tall_binary", 4)])
    def test_batch_cap_covers_whole_levels(self, shape, size):
        # the batch search stops only at the end of the level that
        # identifies the last configuration, so it needs every subset up to
        # and including that level, and no more
        tree = make_tree(shape, size)
        batch = min_quartets_all(tree)
        m = len(all_pairs(tree))
        needed = sum(math.comb(m, k) for k in range(1, max(batch) + 1))
        assert min_quartets_all(tree, max_subsets=needed) == batch
        with pytest.raises(TooLarge):
            min_quartets_all(tree, max_subsets=needed - 1)

    def test_subset_cap(self, leaf_joins_anchor):
        tree, config = leaf_joins_anchor
        with pytest.raises(TooLarge):
            min_identifying_set(tree, config, max_subsets=2)

    def test_single_valid_config_needs_no_queries(self):
        tree = LogicalTree("s1", [("s1", "r1", "e1"), ("s1", "r2", "e2")], ["r1", "r2"])
        assert len(enumerate_valid_configs(tree)) == 1
        config = enumerate_valid_configs(tree)[0]
        assert min_quartets(tree, config) == 0
        assert min_quartets(tree, config, mode="deduction") == 0
        assert min_quartets_all(tree) == [0]


class TestInvalidMaps:
    """Every exhaustive entry point checks the map it is handed."""

    @staticmethod
    def maps():
        tree = make_tree("perfect_binary", 4)
        leaf = {r: tree.root_path(r)[-1] for r in tree.receivers}
        misplaced = {**leaf, "r1": leaf["r4"]}
        missing = {r: e for r, e in leaf.items() if r != "r4"}
        # e1 and r1's e2 both lie on the shared prefix of (r1, r2)
        clashing = {**leaf, "r1": tree.root_path("r1")[1], "r2": tree.root_path("r2")[0]}
        return tree, [
            (misplaced, MisplacedJoin),
            (missing, MisplacedJoin),
            (clashing, InvalidConfiguration),
        ]

    @pytest.mark.parametrize("mode", ["elimination", "deduction"])
    def test_entry_points_raise_on_an_invalid_map(self, mode):
        tree, cases = self.maps()
        pairs = [("r1", "r2"), ("r3", "r4")]
        for joins, error in cases:
            config = JoiningConfig(joins)
            with pytest.raises(error):
                identifies(tree, pairs, config, mode=mode)
            with pytest.raises(error):
                min_identifying_set(tree, config, mode=mode)
            with pytest.raises(error):
                min_quartets(tree, config, mode=mode)
