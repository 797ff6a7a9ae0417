"""Line-based topology files.

Grammar (UTF-8, ``#`` starts a comment, fields are whitespace-separated)::

    root <node>                    exactly once
    edge <parent> <child> <label>  one per edge
    receiver <node>                fixes receiver order, one per line
    join <receiver> <label>        optional joining configuration

parse_topology returns the tree and, when any ``join`` line is present, the
joining configuration; serialize_topology writes the same format back so
that parse(serialize(tree)) reproduces the tree exactly, including edge
labels, child order and receiver order.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InvalidConfiguration, InvalidTree, ParseError
from .topology import JoiningConfig, LogicalTree, is_valid_config


def parse_topology(text: str) -> tuple[LogicalTree, JoiningConfig | None]:
    root: str | None = None
    root_line = 0
    edges: list[tuple[str, str, str]] = []
    receivers: list[str] = []
    seen: set[str] = set()
    joins: dict[str, str] = {}
    join_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "root":
            if len(args) != 1:
                raise ParseError("root takes exactly one node name", lineno)
            if root is not None:
                raise ParseError(f"root already declared on line {root_line}", lineno)
            root, root_line = args[0], lineno
        elif kind == "edge":
            if len(args) != 3:
                raise ParseError("edge takes parent, child and label", lineno)
            edges.append((args[0], args[1], args[2]))
        elif kind == "receiver":
            if len(args) != 1:
                raise ParseError("receiver takes exactly one node name", lineno)
            if args[0] in seen:
                raise ParseError(f"receiver {args[0]!r} listed twice", lineno)
            seen.add(args[0])
            receivers.append(args[0])
        elif kind == "join":
            if len(args) != 2:
                raise ParseError("join takes a receiver and an edge label", lineno)
            if args[0] in joins:
                raise ParseError(f"join for {args[0]!r} given twice", lineno)
            joins[args[0]] = args[1]
            join_lines[args[0]] = lineno
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)

    if root is None:
        raise ParseError("missing root declaration")
    try:
        tree = LogicalTree(root, edges, receivers)
    except InvalidTree as exc:
        raise ParseError(str(exc)) from exc

    if not joins:
        return tree, None
    known = set(tree.receivers)
    for r, lab in joins.items():
        lineno = join_lines[r]
        if r not in known:
            raise ParseError(f"join names unknown receiver {r!r}", lineno)
        if not tree.has_label(lab):
            raise ParseError(f"join references unknown edge {lab!r}", lineno)
        if not tree.on_root_path(lab, r):
            raise ParseError(f"join {lab!r} is not on the root path of {r!r}", lineno)
    for r in tree.receivers:
        if r not in joins:
            raise ParseError(f"no join line for receiver {r!r}")
    config = JoiningConfig(joins)
    if not is_valid_config(tree, config):
        raise ParseError("joins violate the pairwise shared-prefix rule")
    return tree, config


def parse_topology_file(path: str | Path) -> tuple[LogicalTree, JoiningConfig | None]:
    return parse_topology(Path(path).read_text(encoding="utf-8"))


def serialize_topology(tree: LogicalTree, config: JoiningConfig | None = None) -> str:
    """The tree, and the config when given, in the grammar above; raises
    InvalidTree at the first root, node or label name that holds
    whitespace or ``#``, which the grammar cannot read back."""
    if config is not None and not is_valid_config(tree, config):
        raise InvalidConfiguration("refusing to serialize an invalid configuration")
    lines = [f"root {tree.root}"]
    names = [("root", tree.root)]
    for u, v, lab in tree.edges():
        lines.append(f"edge {u} {v} {lab}")
        names += ("node", u), ("node", v), ("label", lab)
    for kind, name in names:
        if name.split() != [name] or "#" in name:
            raise InvalidTree(f"{kind} {name!r} holds whitespace or '#'")
    for r in tree.receivers:
        lines.append(f"receiver {r}")
    if config is not None:
        for r in tree.receivers:
            lines.append(f"join {r} {config[r]}")
    return "\n".join(lines) + "\n"


def write_topology_file(
    path: str | Path, tree: LogicalTree, config: JoiningConfig | None = None
) -> None:
    Path(path).write_text(serialize_topology(tree, config), encoding="utf-8")
