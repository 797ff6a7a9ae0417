"""Topology file grammar: round trips, golden output, parse failures."""

from __future__ import annotations

import time

import pytest

from quartetmerge import (
    InvalidConfiguration,
    InvalidTree,
    JoiningConfig,
    LogicalTree,
    ParseError,
    make_tree,
    parse_topology,
    parse_topology_file,
    random_config,
    serialize_topology,
    write_topology_file,
)

SHAPES = [("star", 5), ("tall_binary", 4), ("perfect_binary", 8), ("perfect_ternary", 3)]


@pytest.mark.parametrize("shape, size", SHAPES)
def test_tree_round_trip(shape, size):
    tree = make_tree(shape, size)
    parsed, config = parse_topology(serialize_topology(tree))
    assert parsed == tree
    assert config is None


@pytest.mark.parametrize("shape, size", SHAPES)
@pytest.mark.parametrize("seed", [0, 2])
def test_config_round_trip(shape, size, seed):
    tree = make_tree(shape, size)
    config = random_config(tree, seed)
    parsed, parsed_config = parse_topology(serialize_topology(tree, config))
    assert parsed == tree
    assert parsed_config == config


def test_file_round_trip(tmp_path, three_fork_tree, three_fork_config):
    path = tmp_path / "fork.topo"
    config = JoiningConfig(three_fork_config)
    write_topology_file(path, three_fork_tree, config)
    parsed, parsed_config = parse_topology_file(path)
    assert parsed == three_fork_tree
    assert parsed_config == config


def test_golden_serialization(three_fork_tree, three_fork_config):
    text = serialize_topology(three_fork_tree, JoiningConfig(three_fork_config))
    # edges come out in depth-first preorder
    assert text == (
        "root s1\n"
        "edge s1 b14 e1\n"
        "edge b14 r1 e2\n"
        "edge b14 b23 e3\n"
        "edge b23 r2 e5\n"
        "edge b23 r3 e6\n"
        "edge b14 r4 e4\n"
        "receiver r1\n"
        "receiver r2\n"
        "receiver r3\n"
        "receiver r4\n"
        "join r1 e2\n"
        "join r2 e3\n"
        "join r3 e3\n"
        "join r4 e1\n"
    )


def test_comments_blank_lines_and_spacing():
    text = """
    # a 1-by-2 instance
    root  s1

    edge s1 b1 e1   # shared root edge
    edge b1 r1 e2
    edge b1 r2 e3
    receiver r1
    receiver r2
    """
    tree, config = parse_topology(text)
    assert tree.root == "s1"
    assert tree.receivers == ("r1", "r2")
    assert config is None


BAD = [
    ("edge s1 r1 e1\nreceiver r1\n", None, "missing root"),
    ("root s1\nroot s2\nedge s1 r1 e1\nreceiver r1\n", 2, "already declared"),
    ("root s1 extra\n", 1, "exactly one"),
    ("root s1\nedge s1 r1\nreceiver r1\n", 2, "parent, child and label"),
    ("root s1\nedge s1 r1 e1\nreceiver r1\nreceiver r1\n", 4, "listed twice"),
    ("root s1\nedge s1 r1 e1\nreceiver r1\nlink r1 e1\n", 4, "unknown directive"),
    ("root s1\nedge s1 r1 e1\nreceiver r1\njoin r1 e1\njoin r1 e1\n", 5, "given twice"),
]


@pytest.mark.parametrize("text, line, fragment", BAD, ids=[b[2] for b in BAD])
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_topology(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_structural_errors_become_parse_errors():
    text = "root s1\nedge s1 r1 e1\nedge s1 r1 e2\nreceiver r1\n"
    with pytest.raises(ParseError):
        parse_topology(text)


def fork_text(joins: dict[str, str]) -> str:
    lines = [
        "root s1",
        "edge s1 b14 e1",
        "edge b14 r1 e2",
        "edge b14 b23 e3",
        "edge b14 r4 e4",
        "edge b23 r2 e5",
        "edge b23 r3 e6",
        "receiver r1",
        "receiver r2",
        "receiver r3",
        "receiver r4",
    ]
    lines += [f"join {r} {lab}" for r, lab in joins.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "joins, fragment",
    [
        ({"r1": "e2", "r2": "e5", "r3": "e6", "r9": "e1"}, "unknown receiver"),
        ({"r1": "e2", "r2": "e5", "r3": "e6", "r4": "e9"}, "unknown edge"),
        ({"r1": "e2", "r2": "e5", "r3": "e6", "r4": "e5"}, "not on the root path"),
        ({"r1": "e2", "r2": "e5", "r3": "e6"}, "no join line"),
        ({"r1": "e2", "r2": "e1", "r3": "e3", "r4": "e4"}, "shared-prefix rule"),
    ],
)
def test_join_validation(joins, fragment):
    with pytest.raises(ParseError) as exc:
        parse_topology(fork_text(joins))
    assert fragment in str(exc.value)


def test_refuses_to_serialize_invalid_config(three_fork_tree):
    bad = JoiningConfig({"r1": "e2", "r2": "e1", "r3": "e3", "r4": "e4"})
    with pytest.raises(InvalidConfiguration):
        serialize_topology(three_fork_tree, bad)


@pytest.mark.parametrize(
    "root, a, label, fragment",
    [
        ("s", "a", "e1#x", "label 'e1#x'"),
        ("s", "a b", "e1", "node 'a b'"),
        ("s\t0", "a", "e1", "root 's\\t0'"),
        ("s", "a", "e 1", "label 'e 1'"),
        ("s", "a\u2028", "e1", "node 'a\\u2028'"),
    ],
)
def test_refuses_names_the_grammar_cannot_read(root, a, label, fragment):
    # written as is, "e1#x" would read back as "e1" and "a b" would not
    # read at all
    tree = LogicalTree(root, [(root, a, label), (root, "b", "e2")], [a, "b"])
    with pytest.raises(InvalidTree) as exc:
        serialize_topology(tree)
    assert fragment in str(exc.value)


def test_parsing_is_linear_in_the_receiver_count():
    # a star file lists one receiver line per leaf; a duplicate check that
    # scans the receivers read so far makes 4x the receivers cost about 16x
    def best_of_three(n):
        text = serialize_topology(make_tree("star", n))
        times = []
        for _ in range(3):
            t = time.perf_counter()
            parse_topology(text)
            times.append(time.perf_counter() - t)
        return min(times)

    small, large = best_of_three(10_000), best_of_three(40_000)
    assert large / small <= 8, (small, large)
