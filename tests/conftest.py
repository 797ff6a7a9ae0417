"""Shared fixtures and the acceptance-summary reporting hook."""

from __future__ import annotations

import pytest

from quartetmerge import JoiningConfig, LogicalTree, make_tree


@pytest.fixture
def three_fork_tree() -> LogicalTree:
    """The 4-receiver worked example used throughout the suite.

    A root edge feeds a 3-way fork: receiver r1, a nested pair (r2, r3),
    and receiver r4.  Small enough to reason about by hand, rich enough
    to exercise every quartet type and both kinds of splice: a cut that
    leaves the surviving leaf its own edge and one that hands it the
    parent's.
    """
    return LogicalTree(
        "s1",
        [
            ("s1", "b14", "e1"),
            ("b14", "r1", "e2"),
            ("b14", "b23", "e3"),
            ("b14", "r4", "e4"),
            ("b23", "r2", "e5"),
            ("b23", "r3", "e6"),
        ],
        ["r1", "r2", "r3", "r4"],
    )


@pytest.fixture
def three_fork_config() -> JoiningConfig:
    """Ground truth for the worked example: r2 and r3 join on the fork
    edge e3, r1 just below the fork, r4 above it on the root edge."""
    return JoiningConfig({"r1": "e2", "r2": "e3", "r3": "e3", "r4": "e1"})


@pytest.fixture
def leaf_joins_anchor():
    """Perfect binary, N=4, every join on its own leaf edge.

    Two type-4 answers, (r1,r2) and (r3,r4), pin all four joins at once;
    the minimum identifying set has size N/2 under both identifiability
    modes.
    """
    tree = make_tree("perfect_binary", 4)
    config = JoiningConfig({r: tree.root_path(r)[-1] for r in tree.receivers})
    return tree, config


@pytest.fixture
def root_join_anchor():
    """Caterpillar, N=4, all joins coinciding on the root edge.

    The instance where interval-plus-equality deduction needs 3 answers
    while cross-config elimination needs only 2.
    """
    tree = make_tree("tall_binary", 4)
    config = JoiningConfig({r: "e1" for r in tree.receivers})
    return tree, config


# -- acceptance criteria summary ------------------------------------------

def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, title): one numbered acceptance criterion",
    )
    config._acceptance_results = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        item.config._acceptance_results.append(
            (marker.args[0], marker.args[1], report.outcome)
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", [])
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, title, outcome in sorted(results):
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:>2}: {word}  {title}")
