"""Benefit-guided search: benefit math, selection, updates, recovery."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quartetmerge import (
    ExactOracle,
    GroundTruth,
    InconsistentAnswer,
    InsufficientReceivers,
    JoiningConfig,
    LogicalTree,
    QuartetType,
    Stalled,
    all_pairs,
    enumerate_valid_configs,
    make_tree,
    random_config,
    run_gbs,
)
from quartetmerge.gbs import CandidateState, apply_update, select_quartet
from reference import compute_benefits


def oracle_for(tree, joins) -> ExactOracle:
    return ExactOracle(GroundTruth(tree, JoiningConfig(dict(joins))))


class TestBenefits:
    def test_fresh_deep_pair(self, three_fork_tree):
        state = CandidateState(three_fork_tree)
        quad = compute_benefits(state, "r2", "r3")
        # paths of length 3 meeting at depth 2: two candidates above, one below
        assert quad.t1 == Fraction(2, 9)
        assert quad.t2 == Fraction(2, 9)
        assert quad.t3 == Fraction(2, 9)
        assert quad.t4 == Fraction(1, 9)
        assert quad.worst_case == Fraction(2, 9)

    def test_fresh_uneven_pair(self, three_fork_tree):
        state = CandidateState(three_fork_tree)
        quad = compute_benefits(state, "r1", "r2")
        assert quad == compute_benefits(state, "r2", "r1")
        assert quad.t1 == Fraction(1, 6)
        assert quad.t2 == Fraction(1, 3)
        assert quad.t3 == Fraction(1, 6)
        assert quad.t4 == Fraction(1, 3)
        assert quad.worst_case == Fraction(1, 3)

    def test_resolved_pair_keeps_everything(self, three_fork_tree):
        state = CandidateState(three_fork_tree)
        apply_update(state, ("r1", "r4"), QuartetType.FIRST_ABOVE)
        assert state.is_resolved("r1") and state.is_resolved("r4")
        quad = compute_benefits(state, "r1", "r4")
        assert quad.worst_case == Fraction(1, 1)


class TestBranchDepths:
    @pytest.mark.parametrize(
        "tree",
        [
            make_tree("star", 9),
            # one level: every leaf hangs off the root, so every pair parts
            # at depth 0 and the adjacent-lca table has one or two entries
            LogicalTree("s1", [("s1", "r1", "e1"), ("s1", "r2", "e2")], ["r1", "r2"]),
            LogicalTree(
                "s1",
                [("s1", "r1", "e1"), ("s1", "r2", "e2"), ("s1", "r3", "e3")],
                ["r3", "r1", "r2"],
            ),
        ],
        ids=["star", "one-level-2", "one-level-3"],
    )
    def test_match_lca_depth(self, tree):
        # receiver k's row holds its lca depth with every receiver, and its
        # own depth at k
        rec = tree.receivers
        for k, r in enumerate(rec):
            row = tree._lca_depths(k)
            assert row.dtype == np.int32
            assert [int(d) for d in row] == [
                tree.node_depth(r) if i == k else tree.lca_depth(r, other)
                for i, other in enumerate(rec)
            ]


class TestSelection:
    def test_picks_minimum_worst_case(self, three_fork_tree):
        # worst cases on the fresh tree: (r2,r3) 2/9, (r1,r4) 1/4, rest 1/3
        state = CandidateState(three_fork_tree)
        assert select_quartet(state) == ("r2", "r3")

    def test_never_reselects_an_answered_pair(self, three_fork_tree):
        state = CandidateState(three_fork_tree)
        apply_update(state, ("r2", "r3"), QuartetType.BOTH_ABOVE)
        assert select_quartet(state) != ("r2", "r3")

    @pytest.mark.parametrize(
        "shape, size",
        [("star", 6), ("tall_binary", 7), ("perfect_binary", 8), ("perfect_ternary", 9)],
    )
    def test_matches_exact_fraction_reference(self, shape, size):
        # along a whole run, each selected pair is the first in nested-loop
        # order whose exact worst case is minimal among the eligible pairs
        tree = make_tree(shape, size)
        gt = GroundTruth(tree, random_config(tree, 1))
        state = CandidateState(tree)
        asked = set()
        while (pair := select_quartet(state)) is not None:
            eligible = [
                p for p in all_pairs(tree)
                if not (state.is_resolved(p[0]) and state.is_resolved(p[1]))
                and p not in asked
            ]
            worst = {p: compute_benefits(state, *p).worst_case for p in eligible}
            best = min(worst.values())
            assert pair == next(p for p in eligible if worst[p] == best)
            apply_update(state, pair, gt.quartet_type(*pair))
            asked.add(pair)

    def test_none_when_all_resolved(self):
        tree = LogicalTree("s1", [("s1", "r1", "e1"), ("s1", "r2", "e2")], ["r1", "r2"])
        state = CandidateState(tree)
        assert state.all_resolved()
        assert select_quartet(state) is None


class TestUpdates:
    def test_both_above_clips_to_shared_prefix(self, three_fork_tree):
        state = CandidateState(three_fork_tree)
        apply_update(state, ("r2", "r3"), QuartetType.BOTH_ABOVE)
        assert state.interval("r2") == (1, 2)
        assert state.interval("r3") == (1, 2)

    def test_contradiction_raises(self, three_fork_tree):
        state = CandidateState(three_fork_tree)
        apply_update(state, ("r2", "r3"), QuartetType.FIRST_ABOVE)
        assert state.interval("r3") == (3, 3)
        with pytest.raises(InconsistentAnswer):
            apply_update(state, ("r2", "r3"), QuartetType.BOTH_ABOVE)

    def test_reversed_pair_reads_the_answer_in_its_own_order(self):
        # an answer names "first" and "second" by the pair as given, so a
        # pair in reverse index order must leave the same intervals as the
        # index-ordered pair with the index-ordered answer
        tree = make_tree("tall_binary", 5)
        for seed in range(30):
            gt = GroundTruth(tree, random_config(tree, seed))
            for a, b in all_pairs(tree):
                ordered, reversed_ = CandidateState(tree), CandidateState(tree)
                apply_update(ordered, (a, b), gt.quartet_type(a, b))
                apply_update(reversed_, (b, a), gt.quartet_type(b, a))
                for r in (a, b):
                    assert reversed_.interval(r) == ordered.interval(r), (seed, a, b)

    def test_equality_propagation_syncs_group(self, three_fork_tree):
        state = CandidateState(three_fork_tree, propagate_equalities=True)
        apply_update(state, ("r2", "r3"), QuartetType.BOTH_ABOVE)
        apply_update(state, ("r1", "r3"), QuartetType.SECOND_ABOVE)
        # r3 tightened to depth 1, and the linked r2 follows
        assert state.interval("r3") == (1, 1)
        assert state.interval("r2") == (1, 1)


class TestRuns:
    def test_no_queries_when_paths_are_single_edges(self):
        tree = LogicalTree("s1", [("s1", "r1", "e1"), ("s1", "r2", "e2")], ["r1", "r2"])
        res = run_gbs(tree, None)
        assert res.queries_used == 0
        assert dict(res.joins) == {"r1": "e1", "r2": "e2"}

    def test_single_receiver_rejected(self):
        tree = LogicalTree("s", [("s", "r", "e1")], ["r"])
        with pytest.raises(InsufficientReceivers):
            run_gbs(tree, None)

    @pytest.mark.parametrize("size, expected", [(4, 2), (5, 3)])
    def test_star_needs_half_the_receivers(self, size, expected):
        tree = make_tree("star", size)
        for joins in enumerate_valid_configs(tree):
            res = run_gbs(tree, oracle_for(tree, joins.joins))
            assert res.matches(joins)
            assert res.queries_used == expected

    @pytest.mark.parametrize("propagate", [False, True])
    @pytest.mark.parametrize(
        "shape, size",
        [("tall_binary", 4), ("perfect_binary", 4), ("perfect_ternary", 3)],
    )
    def test_recovers_every_config(self, shape, size, propagate):
        tree = make_tree(shape, size)
        for joins in enumerate_valid_configs(tree):
            oracle = oracle_for(tree, joins.joins)
            res = run_gbs(tree, oracle, propagate_equalities=propagate)
            assert res.matches(joins)
            pairs = [s.pair for s in res.trace.steps]
            assert res.queries_used == len(pairs) == oracle.stats.quartet_queries
            assert len(set(pairs)) == len(pairs)

    def test_propagation_saves_queries_on_coincident_joins(self, root_join_anchor):
        tree, config = root_join_anchor
        oracle = ExactOracle(GroundTruth(tree, config))
        plain = run_gbs(tree, oracle)
        linked = run_gbs(tree, oracle, propagate_equalities=True)
        assert plain.matches(config) and linked.matches(config)
        assert plain.queries_used == 6
        assert linked.queries_used == 3

    def test_leaf_joins_resolve_in_two(self, leaf_joins_anchor):
        tree, config = leaf_joins_anchor
        res = run_gbs(tree, ExactOracle(GroundTruth(tree, config)))
        assert res.matches(config)
        assert res.queries_used == 2

    def test_run_holds_at_most_12_bytes_per_pair(self):
        # the cached worst cases take 8 bytes per pair; the line batches,
        # the asked lists and the trace take O(N) more
        n = 512
        tree = make_tree("perfect_binary", n)
        oracle = oracle_for(tree, random_config(tree, 0).joins)
        tracemalloc.start()
        try:
            run_gbs(tree, oracle, propagate_equalities=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * (n - 1) // 2) <= 12

    def test_stall_guard(self, three_fork_tree, monkeypatch):
        import quartetmerge.gbs as gbs_mod

        monkeypatch.setattr(gbs_mod, "select_quartet", lambda state: None)
        with pytest.raises(Stalled):
            gbs_mod.run_gbs(three_fork_tree, None)
