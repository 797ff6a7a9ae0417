"""Receiver elimination: pair policy, surgery, traces, query budget."""

from __future__ import annotations

import dataclasses
import gc

import pytest

from quartetmerge import (
    ExactOracle,
    GroundTruth,
    InsufficientReceivers,
    JoiningConfig,
    LogicalTree,
    QuartetType,
    enumerate_valid_configs,
    make_tree,
    random_config,
    run_gbs,
    run_rea,
)
from quartetmerge.rea import WorkingTree, pick_siblings


def oracle_for(tree, joins) -> ExactOracle:
    return ExactOracle(GroundTruth(tree, JoiningConfig(dict(joins))))


def test_worked_example_full_trace(three_fork_tree, three_fork_config):
    """Freezes the complete three-query run on the worked example."""
    res = run_rea(three_fork_tree, oracle_for(three_fork_tree, three_fork_config))
    assert res.queries_used == 3
    assert dict(res.joins) == {"r1": "e2", "r2": "e3", "r3": "e3", "r4": "e1"}

    s1, s2, s3 = res.trace.steps
    assert s1.pair == ("r2", "r3")
    assert s1.answer is QuartetType.BOTH_ABOVE
    assert (s1.deleted_receiver, s1.deleted_edge) == ("r2", "e5")
    assert s1.contracted_edge == "e6"
    assert s1.identified is None

    assert s2.pair == ("r1", "r3")
    assert s2.answer is QuartetType.BOTH_BELOW
    assert (s2.deleted_receiver, s2.deleted_edge) == ("r3", "e3")
    assert s2.contracted_edge is None
    assert s2.identified == ("r3", "e3")

    assert s3.pair == ("r1", "r4")
    assert s3.answer is QuartetType.SECOND_ABOVE
    assert (s3.deleted_receiver, s3.deleted_edge) == ("r1", "e2")
    assert s3.contracted_edge == "e4"
    assert s3.identified == ("r1", "e2")

    assert res.trace.aliases == {"r2": "r3"}


def picked(wt) -> tuple[str, str]:
    """The pair pick_siblings returns, by receiver name."""
    return tuple(wt.tree.receivers[k] for k in pick_siblings(wt))


def test_initial_pick_is_deepest_then_lowest_sibling(three_fork_tree):
    wt = WorkingTree(three_fork_tree)
    assert picked(wt) == ("r2", "r3")


def parent_names(wt) -> list[str | None]:
    """Each receiver's current parent by node name, None once cut off."""
    return [None if p == -1 else wt.tree._names[p] for p in wt.parent]


def edge_label(wt, k) -> str:
    """Receiver k's current leaf-edge label."""
    return wt.tree._labels[wt.edge[k]]


def live_under(wt, node) -> list[str]:
    """Live receivers whose current parent is ``node``, in index order."""
    return [wt.tree.receivers[k] for k, p in enumerate(parent_names(wt)) if p == node]


def test_contract_inherits_parent_edge_label(three_fork_tree):
    wt = WorkingTree(three_fork_tree)
    assert picked(wt) == ("r2", "r3")
    removed = wt.cut(1, 2, keep_leaf_edge=False)
    assert removed == "e6"
    assert (edge_label(wt, 2), parent_names(wt)[2], wt.depth[2]) == ("e3", "b14", 2)
    assert wt.parent[1] == -1
    assert live_under(wt, "b14") == ["r1", "r3", "r4"]
    assert "b23" not in parent_names(wt)
    assert picked(wt) == ("r1", "r3")


def test_cut_keeping_the_leaf_edge_drops_the_parent_label(three_fork_tree):
    wt = WorkingTree(three_fork_tree)
    assert picked(wt) == ("r2", "r3")
    removed = wt.cut(1, 2, keep_leaf_edge=True)
    assert removed == "e3"
    assert (edge_label(wt, 2), parent_names(wt)[2], wt.depth[2]) == ("e6", "b14", 2)
    assert wt.parent[1] == -1
    assert live_under(wt, "b14") == ["r1", "r3", "r4"]
    assert "b23" not in parent_names(wt)
    assert picked(wt) == ("r1", "r3")


def test_cut_splices_nothing_under_the_root_or_a_fork():
    tree = LogicalTree("s", [("s", "a", "e1"), ("s", "b", "e2")], ["a", "b"])
    wt = WorkingTree(tree)
    assert picked(wt) == ("a", "b")
    assert wt.cut(0, 1, keep_leaf_edge=False) is None
    assert live_under(wt, "s") == ["b"]
    assert (parent_names(wt)[1], edge_label(wt, 1), wt.depth[1]) == ("s", "e2", 1)
    assert wt.parent[0] == -1

    fork = WorkingTree(make_tree("star", 3))
    hub = parent_names(fork)[0]
    assert hub != fork.tree.root
    assert picked(fork) == ("r1", "r2")
    assert fork.cut(0, 1, keep_leaf_edge=True) is None
    assert live_under(fork, hub) == ["r2", "r3"]
    assert (edge_label(fork, 1), fork.depth[1]) == (fork.tree.root_path("r2")[-1], 2)
    assert picked(fork) == ("r2", "r3")


def test_two_receivers_take_one_query():
    tree = make_tree("tall_binary", 2)
    for joins in enumerate_valid_configs(tree):
        res = run_rea(tree, oracle_for(tree, joins.joins))
        assert res.queries_used == 1
        assert res.matches(joins)


def test_single_receiver_rejected():
    tree = LogicalTree("s", [("s", "r", "e1")], ["r"])
    with pytest.raises(InsufficientReceivers):
        run_rea(tree, None)


@pytest.mark.parametrize(
    "shape, size",
    [("star", 4), ("tall_binary", 5), ("perfect_binary", 8), ("perfect_ternary", 3)],
)
def test_recovers_every_config_in_n_minus_one(shape, size):
    tree = make_tree(shape, size)
    for joins in enumerate_valid_configs(tree):
        res = run_rea(tree, oracle_for(tree, joins.joins))
        assert res.matches(joins)
        assert res.queries_used == size - 1


def test_trace_is_deterministic(three_fork_tree, three_fork_config):
    runs = [
        run_rea(three_fork_tree, oracle_for(three_fork_tree, three_fork_config))
        for _ in range(2)
    ]
    assert runs[0].trace.steps == runs[1].trace.steps


def test_trace_steps_are_built_once_and_keep_edits():
    tree = make_tree("perfect_binary", 32)
    gt = GroundTruth(tree, random_config(tree, 4))
    res, again = run_rea(tree, ExactOracle(gt)), run_rea(tree, ExactOracle(gt))
    assert res == again
    steps = res.trace.steps
    assert res.trace.steps is steps
    ones = [s.pair for s in steps if s.answer is QuartetType.BOTH_ABOVE]
    assert len(ones) >= 2
    assert list(res.trace.aliases.items()) == ones

    k = next(k for k, s in enumerate(steps) if s.answer is not QuartetType.BOTH_ABOVE)
    edited = dataclasses.replace(steps[k], answer=QuartetType.BOTH_ABOVE)
    steps[k] = edited
    assert res.trace.steps[k] is edited
    assert steps[k].pair[0] in res.trace.aliases
    assert res != again


def test_gbs_trace_has_no_surgery_and_no_aliases():
    tree = make_tree("perfect_binary", 16)
    res = run_gbs(tree, ExactOracle(GroundTruth(tree, random_config(tree, 0))))
    steps = res.trace.steps
    assert len(steps) == res.queries_used
    assert any(s.answer is QuartetType.BOTH_ABOVE for s in steps)
    assert all(s.deleted_receiver is s.deleted_edge is s.contracted_edge is None for s in steps)
    assert res.trace.aliases == {}


@pytest.mark.parametrize(
    "shape, size", [("tall_binary", 20_000), ("perfect_ternary", 3**9), ("star", 20_000)]
)
def test_step_loop_leaves_the_collector_idle(shape, size):
    # each step's records die with the step, so the cyclic collector's
    # allocation count never reaches a threshold; per-step records kept
    # until the run ends trigger one collection every 350 steps or so
    tree = make_tree(shape, size)
    oracle = ExactOracle(GroundTruth(tree, random_config(tree, 0)))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        run_rea(tree, oracle)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= 1


def test_alias_chain_resolves_through_coincident_joins(root_join_anchor):
    tree, config = root_join_anchor
    res = run_rea(tree, ExactOracle(GroundTruth(tree, config)))
    assert res.matches(config)
    assert res.queries_used == 3
    # every answer was type 1, so all but the survivor resolve by alias
    assert len(res.trace.aliases) == 3


class _StuckOracle:
    """Always answers the same type, regardless of the instance."""

    def __init__(self, qtype):
        self.qtype = qtype

    def query(self, ri, rj):
        return self.qtype


@pytest.mark.parametrize("qtype", list(QuartetType))
def test_total_under_arbitrary_answers(qtype):
    # answers are taken at face value: a lying oracle yields a complete
    # (if wrong) map rather than a crash
    tree = make_tree("perfect_binary", 8)
    res = run_rea(tree, _StuckOracle(qtype))
    assert set(res.joins.keys()) == set(tree.receivers)
    assert res.queries_used == 7
    for r in tree.receivers:
        assert tree.on_root_path(res.joins[r], r)
