"""Tree model, ancestry queries, quartet classification, validity."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

from quartetmerge import (
    GroundTruth,
    InvalidConfiguration,
    InvalidTree,
    JoiningConfig,
    LogicalTree,
    MisplacedJoin,
    QuartetType,
    SameReceiver,
    UnknownReceiver,
    is_valid_config,
    make_tree,
    quartet_type,
    random_config,
    serialize_topology,
)
from quartetmerge.topology import PlacementScan
from reference import (
    ref_enumerate,
    ref_is_valid,
    ref_lca_depth,
    ref_quartet_type,
    ref_root_path,
)

SHAPES = [
    ("star", 4),
    ("star", 7),
    ("tall_binary", 2),
    ("tall_binary", 6),
    ("perfect_binary", 8),
    ("perfect_ternary", 9),
]


# -- construction contract -------------------------------------------------

def test_minimal_tree_is_one_edge():
    tree = LogicalTree("s", [("s", "r", "e")], ["r"])
    assert tree.n_receivers == 1
    assert list(tree.root_path("r")) == ["e"]


MALFORMED = [
    ([("s", "s", "e1")], ["s"], "self-loop"),
    ([("s", "a", "e1"), ("b", "a", "e2")], ["a"], "two incoming"),
    ([("s", "a", "e1"), ("s", "b", "e1")], ["a", "b"], "duplicate edge label"),
    ([("s", "a", "e1"), ("a", "s", "e2")], ["a"], "incoming"),
    ([("s", "a", "e1"), ("b", "c", "e2")], ["a", "c"], "not connected"),
    ([("s", "a", "e1"), ("a", "b", "e2")], ["b"], "relay"),
    ([("s", "a", "e1"), ("s", "b", "e2")], ["a", "a"], "duplicate receiver"),
    ([("s", "a", "e1"), ("s", "b", "e2")], ["a"], "exactly the leaves"),
    ([], ["r"], "at least one edge"),
]


@pytest.mark.parametrize("edges, receivers, msg", MALFORMED)
def test_malformed_trees_rejected(edges, receivers, msg):
    with pytest.raises(InvalidTree, match=msg):
        LogicalTree("s", edges, receivers)


@pytest.mark.parametrize(
    "edges, receivers",
    [(edges, receivers) for edges, receivers, _ in MALFORMED]
    + [
        # two faults each: the earlier edge's fault is the one reported
        ([("s", "a", "e1"), ("s", "b", "e1"), ("c", "c", "e2")], ["a", "b"]),
        ([("s", "a", "e1"), ("c", "c", "e2"), ("s", "b", "e1")], ["a", "b"]),
        ([("s", "a", "e1"), ("b", "a", "e1"), ("s", "", "e3")], ["a"]),
        ([("s", "a", "e1"), ("a", "b", "e2"), ("x", "y", "e3")], ["b", "y"]),
    ],
)
def test_malformed_edges_raise_alike_from_a_one_shot_iterator(edges, receivers):
    # the edges are read in one pass, so a generator meets each check at
    # the same edge as a list does
    errors = []
    for given in (edges, (edge for edge in edges)):
        with pytest.raises(InvalidTree) as info:
            LogicalTree("s", given, iter(receivers))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("shape, size", SHAPES)
def test_tree_from_a_one_shot_iterator_equals_the_tree_from_a_list(shape, size):
    tree = make_tree(shape, size)
    assert tree._planar
    edges = list(tree.edges())
    receivers = list(tree.receivers)
    random.Random(0).shuffle(receivers)
    for order in (tree.receivers, receivers):
        from_list = LogicalTree(tree.root, edges, order)
        twin = LogicalTree(tree.root, (edge for edge in edges), iter(order))
        assert twin.edges() == from_list.edges() == tree.edges()
        assert twin.receivers == from_list.receivers == tuple(order)
        assert twin._planar == from_list._planar == (tuple(order) == tree.receivers)


def test_root_with_single_child_is_allowed():
    # only non-root internal nodes are relay-checked
    tree = LogicalTree("s", [("s", "h", "e1"), ("h", "a", "e2"), ("h", "b", "e3")], ["a", "b"])
    assert tree.node_depth("h") == 1


def test_node_depth_of_an_unknown_node_raises_invalid_tree():
    tree = LogicalTree("s", [("s", "h", "e1"), ("h", "a", "e2"), ("h", "b", "e3")], ["a", "b"])
    assert (tree.node_depth("s"), tree.node_depth("a")) == (0, 2)
    with pytest.raises(InvalidTree, match="no node named 'no-such-node'"):
        tree.node_depth("no-such-node")


def test_trees_compare_by_structure():
    a = make_tree("star", 3)
    b = make_tree("star", 3)
    assert a == b and hash(a) == hash(b)
    assert a != make_tree("star", 4)
    # the same nodes with two leaf labels swapped
    edges = list(a.edges())
    (u1, v1, l1), (u2, v2, l2) = edges[-2:]
    edges[-2:] = [(u1, v1, l2), (u2, v2, l1)]
    assert a != LogicalTree(a.root, edges, a.receivers)


def permuted(tree: LogicalTree, seed: int, receivers=None) -> LogicalTree:
    """``tree`` rebuilt from its edges in a seeded random order, which also
    reorders each node's children."""
    edges = list(tree.edges())
    random.Random(seed).shuffle(edges)
    return LogicalTree(tree.root, edges, receivers or tree.receivers)


@pytest.mark.parametrize("shape, size", SHAPES)
def test_edge_and_child_order_leave_equality_alone(shape, size):
    tree = make_tree(shape, size)
    twins = [permuted(tree, seed) for seed in range(4)]
    for twin in twins:
        assert twin == tree and hash(twin) == hash(tree)
    # the shuffles reorder children, so the twins' preorders differ
    assert any(twin.edges() != tree.edges() for twin in twins)


@pytest.mark.parametrize(
    "shape, size, edges_digest, file_digest",
    [
        ("perfect_ternary", 27, "d7332919facae624", "5459078ccacfc76b"),
        ("tall_binary", 12, "5e658b4773f7db50", "6e9590cf83c76a8a"),
    ],
)
def test_shuffled_tree_output_is_pinned(shape, size, edges_digest, file_digest):
    # shuffled edges and receivers: the tree is not planar in index order,
    # and however nodes are numbered inside, edges() and the file follow
    # the preorder of the given edge order; digests recorded from the
    # name-keyed implementation
    tree = make_tree(shape, size)
    receivers = list(tree.receivers)
    random.Random(1).shuffle(receivers)
    tree = permuted(tree, 2, receivers)
    text = serialize_topology(tree, random_config(tree, 0))

    def digest(s: str) -> str:
        return hashlib.sha256(s.encode()).hexdigest()[:16]

    assert digest(repr(tree.edges())) == edges_digest
    assert digest(text) == file_digest


@pytest.mark.parametrize(
    "shape, size",
    [("star", 20_000), ("tall_binary", 20_000), ("perfect_ternary", 3**9)],
)
def test_tree_holds_at_most_275_bytes_per_node(shape, size):
    # names and labels are stored once, the layout in int arrays, and the
    # only dict keys the receivers; trees keyed by name in dicts held
    # 430-500 bytes per node on these shapes, and with a label dict kept
    # for the tree's life 237-281
    gc.collect()
    tracemalloc.start()
    try:
        tree = make_tree(shape, size)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / (len(tree.edges()) + 1) <= 275


@pytest.mark.parametrize(
    "shape, size",
    [("star", 20_000), ("tall_binary", 20_000), ("perfect_ternary", 3**9)],
)
def test_tree_build_peaks_at_most_1_3_times_what_it_holds(shape, size):
    # the generators stream their edges, which the constructor reads once,
    # and its work lists are gone before it fills the dicts; a build from
    # an edge list peaked at 1.58-1.72 times the tree on these shapes
    gc.collect()
    tracemalloc.start()
    try:
        tree = make_tree(shape, size)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.n_receivers == size
    assert peak / held <= 1.3, peak / held


# -- ancestry against the reference ----------------------------------------

@pytest.mark.parametrize("shape, size", SHAPES)
def test_root_paths_match_reference(shape, size):
    tree = make_tree(shape, size)
    for r in tree.receivers:
        assert list(tree.root_path(r)) == ref_root_path(tree, r)
        assert tree.node_depth(r) == len(ref_root_path(tree, r))


@pytest.mark.parametrize("shape, size", SHAPES)
def test_lca_and_prefix_match_reference(shape, size):
    tree = make_tree(shape, size)
    for ri, rj in itertools.combinations(tree.receivers, 2):
        assert tree.lca_depth(ri, rj) == ref_lca_depth(tree, ri, rj)
        assert tree.lca_depth(rj, ri) == ref_lca_depth(tree, ri, rj)


def test_lca_rejects_equal_and_unknown_receivers():
    tree = make_tree("star", 3)
    with pytest.raises(SameReceiver):
        tree.lca_depth("r1", "r1")
    with pytest.raises(UnknownReceiver):
        tree.lca_depth("r1", "nope")


def test_on_root_path(three_fork_tree):
    t = three_fork_tree
    assert t.on_root_path("e1", "r3")
    assert t.on_root_path("e3", "r2")
    assert not t.on_root_path("e5", "r3")
    assert not t.on_root_path("e2", "r4")


# -- quartet classification -------------------------------------------------

def test_worked_example_types(three_fork_tree, three_fork_config):
    gt = GroundTruth(three_fork_tree, three_fork_config)
    assert quartet_type(gt, "r2", "r3") is QuartetType.BOTH_ABOVE
    assert quartet_type(gt, "r1", "r3") is QuartetType.BOTH_BELOW
    assert quartet_type(gt, "r1", "r4") is QuartetType.SECOND_ABOVE
    assert quartet_type(gt, "r4", "r1") is QuartetType.FIRST_ABOVE


@pytest.mark.parametrize("shape, size", SHAPES)
def test_quartet_types_match_reference(shape, size):
    tree = make_tree(shape, size)
    for seed in range(5):
        gt = GroundTruth(tree, random_config(tree, seed))
        for ri, rj in itertools.combinations(tree.receivers, 2):
            got = quartet_type(gt, ri, rj)
            assert got.value == ref_quartet_type(tree, gt.config.joins, ri, rj)


def test_swap_exchanges_types_two_and_three(three_fork_tree):
    tree = three_fork_tree
    swap = {1: 1, 2: 3, 3: 2, 4: 4}
    for joins in ref_enumerate(tree):
        gt = GroundTruth(tree, JoiningConfig(joins))
        for ri, rj in itertools.combinations(tree.receivers, 2):
            assert quartet_type(gt, rj, ri).value == swap[quartet_type(gt, ri, rj).value]


# -- validity ----------------------------------------------------------------

def test_missing_and_misplaced_joins_raise(three_fork_tree):
    with pytest.raises(MisplacedJoin, match="no join"):
        is_valid_config(three_fork_tree, {"r1": "e2"})
    bad = {"r1": "e5", "r2": "e3", "r3": "e3", "r4": "e1"}
    with pytest.raises(MisplacedJoin, match="root path"):
        is_valid_config(three_fork_tree, bad)


@pytest.mark.parametrize(
    "joins, message",
    [
        ({"r1": "e2"}, "no join assigned to receiver 'r2'"),
        ({"r1": "e9", "r2": "e3"}, "join 'e9' is not on the root path of 'r1'"),
        ({"r1": "e5", "r2": "e3"}, "join 'e5' is not on the root path of 'r1'"),
        ({"r1": "e2", "r2": None}, "join None is not on the root path of 'r2'"),
        ({"r1": "e2", "r3": "e5"}, "no join assigned to receiver 'r2'"),
        ({"r1": "e2", "nosuch": "e1"}, "no join assigned to receiver 'r2'"),
        ({"nosuch": "e1", "r1": "e5", "r2": "e3"},
         "join 'e5' is not on the root path of 'r1'"),
    ],
    ids=["missing", "unknown", "off-path-first", "not-a-label", "missing-first",
         "missing-before-extra", "off-path-before-extra"],
)
def test_the_first_bad_receiver_names_the_misplaced_join(three_fork_tree, joins, message):
    # receivers are checked in index order, and the first one whose join is
    # missing, unknown or off its root path is the one reported, before a
    # join keyed by a name that is no receiver
    for check in (is_valid_config, GroundTruth):
        with pytest.raises(MisplacedJoin) as err:
            check(three_fork_tree, JoiningConfig(joins))
        assert str(err.value) == message


def test_a_join_for_an_unknown_receiver_raises():
    # every join on the tree is right; the extra key names no receiver
    tree = make_tree("perfect_binary", 8)
    joins = dict(random_config(tree, 0).joins)
    joins["nosuch"] = "e1"
    for check in (is_valid_config, GroundTruth):
        with pytest.raises(UnknownReceiver) as err:
            check(tree, joins)
        assert str(err.value) == "unknown receiver 'nosuch'"


def test_a_config_does_not_follow_later_edits_of_its_source(three_fork_tree):
    joins = {"r1": "e2", "r2": "e3", "r3": "e3", "r4": "e4"}
    config = JoiningConfig(joins)
    gt = GroundTruth(three_fork_tree, config)
    before = hash(config)
    joins["r1"] = "e1"
    assert hash(config) == before
    assert config == {"r1": "e2", "r2": "e3", "r3": "e3", "r4": "e4"}
    assert config != joins
    assert gt.config["r1"] == "e2"


def test_ground_truth_rejects_invalid_config(three_fork_tree):
    # two distinct joins on the shared prefix of (r2, r3)
    with pytest.raises(InvalidConfiguration):
        GroundTruth(
            three_fork_tree,
            JoiningConfig({"r1": "e2", "r2": "e1", "r3": "e3", "r4": "e4"}),
        )


@pytest.mark.parametrize(
    "shape, size",
    [("star", 3), ("tall_binary", 4), ("perfect_binary", 4), ("perfect_ternary", 3)],
)
def test_validity_matches_reference_exhaustively(shape, size):
    tree = make_tree(shape, size)
    paths = [list(tree.root_path(r)) for r in tree.receivers]
    for combo in itertools.product(*paths):
        joins = dict(zip(tree.receivers, combo))
        assert is_valid_config(tree, joins) == ref_is_valid(tree, joins)


def test_validity_accepts_mapping_or_config(three_fork_tree, three_fork_config):
    assert is_valid_config(three_fork_tree, three_fork_config)
    assert is_valid_config(three_fork_tree, dict(three_fork_config.joins))


# -- incremental scan ---------------------------------------------------------

def test_scan_tracks_allowed_suffix_and_exception(three_fork_tree):
    scan = PlacementScan(three_fork_tree)
    assert scan.allowed("r2") == (0, None)
    scan.place("r2", 2)  # join on e3, the shared prefix of (r2, r3)
    blocked, exception = scan.allowed("r3")
    assert (blocked, exception) == (2, 2)


def test_scan_out_of_order_placements(three_fork_tree):
    # placement order is free; constraints depend only on what is placed
    scan = PlacementScan(three_fork_tree)
    scan.place("r4", 1)
    scan.place("r1", 2)
    blocked, exception = scan.allowed("r3")
    assert blocked == 1 and exception == 1


# -- JoiningConfig mapping behaviour ------------------------------------------

def test_config_behaves_like_a_mapping(three_fork_config):
    cfg = three_fork_config
    assert cfg["r2"] == "e3" and "r2" in cfg
    assert len(cfg) == 4
    assert dict(cfg) == {"r1": "e2", "r2": "e3", "r3": "e3", "r4": "e1"}
    assert cfg == {"r1": "e2", "r2": "e3", "r3": "e3", "r4": "e1"}
    assert cfg == JoiningConfig(dict(cfg))
    assert hash(cfg) == hash(JoiningConfig(dict(cfg)))
