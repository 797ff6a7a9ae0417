"""Which package modules may read the tree's layout, and which maps it keeps."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import quartetmerge
from quartetmerge import (
    GroundTruth,
    InvalidTree,
    LogicalTree,
    Oracle,
    is_valid_config,
    make_tree,
    random_config,
    run_gbs,
    run_rea,
)

# LogicalTree's planar layout and range-min table: their format is known
# only to topology.py, which answers every ancestry query from them; the
# other modules read the tree by node id and receiver index
LAYOUT = {"_sparse", "_pos", "_leaf_at"}


def test_only_topology_reads_the_tree_layout():
    reads = {}
    for path in sorted(Path(quartetmerge.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        names = {
            node.attr
            for node in ast.walk(module)
            if isinstance(node, ast.Attribute) and node.attr in LAYOUT
        }
        if names:
            reads[path.name] = names
    assert reads.pop("topology.py") == LAYOUT
    assert reads == {}


def test_the_pipeline_passes_joins_as_node_ids():
    # from sampling to result no stage maps a label back to a node, so
    # the tree never builds its label dict; the name queries still work
    tree = make_tree("perfect_binary", 64)
    config = random_config(tree, 0)
    gt = GroundTruth(tree, config)
    for result in (run_rea(tree, Oracle(gt)), run_gbs(tree, Oracle(gt))):
        assert is_valid_config(tree, result.joins)
        assert result.matches(config)
    assert tree._by_label is None
    r = tree.receivers[5]
    path = tree.root_path(r)
    assert all(tree.has_label(label) and tree.on_root_path(label, r) for label in path)
    others = set(tree.edge_labels()) - set(path)
    assert not any(tree.on_root_path(label, r) for label in others)
    assert not tree.has_label("no-such-edge")


def test_a_duplicate_label_before_a_self_loop_is_the_error_reported():
    def edges():
        yield "s", "a", "e1"
        yield "s", "b", "e1"
        yield "c", "c", "e2"

    with pytest.raises(InvalidTree, match="duplicate edge label 'e1'"):
        LogicalTree("s", edges(), ["a", "b"])
