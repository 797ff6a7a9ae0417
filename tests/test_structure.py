"""Which package modules may read the tree's layout."""

from __future__ import annotations

import ast
from pathlib import Path

import quartetmerge

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
