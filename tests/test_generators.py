"""Tree families: frozen shapes, naming scheme, seeded config sampling."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from quartetmerge import (
    BadSpec,
    LogicalTree,
    is_valid_config,
    make_tree,
    perfect_binary,
    perfect_ternary,
    random_config,
    star,
    tall_binary,
)
from test_properties import trees

ALL_SHAPES = [
    ("star", 2),
    ("star", 5),
    ("tall_binary", 2),
    ("tall_binary", 7),
    ("perfect_binary", 4),
    ("perfect_binary", 16),
    ("perfect_ternary", 3),
    ("perfect_ternary", 9),
]


def planar_receivers(tree: LogicalTree) -> tuple[str, ...]:
    """The receivers in planar order: as preorder reaches their leaves."""
    receivers = set(tree.receivers)
    return tuple(v for _, v, _ in tree.edges() if v in receivers)


def test_star_layout():
    tree = star(4)
    assert tree.receivers == ("r1", "r2", "r3", "r4")
    for k, r in enumerate(tree.receivers):
        assert tree.root_path(r) == ("e1", f"e{k + 2}")


def test_tall_binary_layout():
    tree = tall_binary(4)
    assert set(tree.edges()) == {
        ("s1", "b1", "e1"),
        ("b1", "b2", "e2"),
        ("b1", "r4", "e3"),
        ("b2", "b3", "e4"),
        ("b2", "r3", "e5"),
        ("b3", "r1", "e6"),
        ("b3", "r2", "e7"),
    }
    assert tree.root_path("r1") == ("e1", "e2", "e4", "e6")
    assert tree.root_path("r2") == ("e1", "e2", "e4", "e7")
    assert tree.root_path("r3") == ("e1", "e2", "e5")
    assert tree.root_path("r4") == ("e1", "e3")


def test_perfect_binary_layout():
    tree = perfect_binary(2)
    assert set(tree.edges()) == {
        ("s1", "b1", "e1"),
        ("b1", "b2", "e2"),
        ("b1", "b3", "e3"),
        ("b2", "r1", "e4"),
        ("b2", "r2", "e5"),
        ("b3", "r3", "e6"),
        ("b3", "r4", "e7"),
    }
    assert tree.root_path("r3") == ("e1", "e3", "e6")


@pytest.mark.parametrize(
    "size, depth", [(2, 1), (4, 2), (8, 3), (32, 5)]
)
def test_perfect_binary_by_receiver_count(size, depth):
    tree = make_tree("perfect_binary", size)
    assert tree.n_receivers == size
    assert all(len(tree.root_path(r)) == depth + 1 for r in tree.receivers)


def test_perfect_ternary_by_receiver_count():
    tree = make_tree("perfect_ternary", 9)
    assert tree.n_receivers == 9
    assert all(len(tree.root_path(r)) == 3 for r in tree.receivers)


@pytest.mark.parametrize(
    "shape, size",
    [
        ("star", 1),
        ("tall_binary", 0),
        ("perfect_binary", 3),
        ("perfect_binary", 0),
        ("perfect_ternary", 4),
        ("mesh", 4),
        ("star", 4.0),
        ("tall_binary", 4.0),
        ("perfect_binary", 4.0),
        ("perfect_binary", True),
        ("perfect_ternary", "9"),
    ],
)
def test_bad_specs(shape, size):
    with pytest.raises(BadSpec):
        make_tree(shape, size)


@pytest.mark.parametrize("shape, size", ALL_SHAPES)
def test_receiver_names_and_label_uniqueness(shape, size):
    tree = make_tree(shape, size)
    assert tree.receivers == tuple(f"r{k}" for k in range(1, size + 1))
    labels = [lab for _, _, lab in tree.edges()]
    assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("shape, size", ALL_SHAPES)
def test_generated_trees_are_planar_in_index_order(shape, size):
    # the sampler's fast path relies on this invariant
    tree = make_tree(shape, size)
    assert tree._planar
    assert planar_receivers(tree) == tree.receivers


@pytest.mark.parametrize("shape, size", ALL_SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_random_config_is_valid_and_deterministic(shape, size, seed):
    tree = make_tree(shape, size)
    config = random_config(tree, seed)
    assert set(config.keys()) == set(tree.receivers)
    assert is_valid_config(tree, config)
    assert random_config(tree, seed) == config


def test_random_config_varies_with_seed():
    tree = tall_binary(6)
    assert len({random_config(tree, s) for s in range(10)}) > 1


@pytest.mark.parametrize("shape, size", ALL_SHAPES)
@pytest.mark.parametrize("seed", [0, 3])
def test_sampler_fast_path_matches_full_scan(shape, size, seed):
    fast = random_config(make_tree(shape, size), seed)
    slow_tree = make_tree(shape, size)
    slow_tree._planar = False
    assert random_config(slow_tree, seed) == fast


@given(trees(max_receivers=10), st.integers(0, 2**16))
@settings(deadline=None)
def test_sampler_fast_path_matches_full_scan_on_random_trees(tree, seed):
    # rebuild with the receivers in planar order, so the sampler may take
    # its nearest-blocker path; then force the full scan on a twin
    fast_tree = LogicalTree(tree.root, tree.edges(), planar_receivers(tree))
    fast = random_config(fast_tree, seed)
    assert fast_tree._planar
    slow_tree = LogicalTree(tree.root, tree.edges(), planar_receivers(tree))
    slow_tree._planar = False
    assert random_config(slow_tree, seed) == fast


def test_sampling_cost_does_not_depend_on_receiver_order():
    # a ratio of two timings in one process holds across host speeds; a
    # scan that steps over placed receivers, as RefPlacementScan does,
    # puts it near 60 on this pair, an O(log N) one near 4
    planar = tall_binary(40_000)
    receivers = list(planar.receivers)
    random.Random(0).shuffle(receivers)
    shuffled = LogicalTree(planar.root, planar.edges(), receivers)

    def best_of_3(tree):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            random_config(tree, 0)
            times.append(time.perf_counter() - start)
        return min(times)

    assert not shuffled._planar
    assert best_of_3(shuffled) / best_of_3(planar) <= 40
