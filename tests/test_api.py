"""The package's public names, frozen.

Growing or shrinking the public API has to be a deliberate edit of this
list.
"""

from __future__ import annotations

import quartetmerge

PUBLIC = [
    "ALGORITHMS",
    "BadSpec",
    "ExactOracle",
    "GroundTruth",
    "InconsistentAnswer",
    "InferenceResult",
    "InsufficientReceivers",
    "InvalidConfiguration",
    "InvalidTree",
    "JoiningConfig",
    "LogicalTree",
    "MisplacedJoin",
    "MultiResult",
    "NoiseSpec",
    "Oracle",
    "OracleStats",
    "ParseError",
    "QuartetMergeError",
    "QuartetType",
    "SameReceiver",
    "Stalled",
    "Step",
    "StructuralViolation",
    "SweepRow",
    "SweepSummary",
    "TooLarge",
    "Trace",
    "UnknownReceiver",
    "__version__",
    "all_pairs",
    "answer_set",
    "enumerate_valid_configs",
    "identifies",
    "is_valid_config",
    "lower_bound",
    "make_tree",
    "min_identifying_set",
    "min_quartets",
    "min_quartets_all",
    "parse_topology",
    "parse_topology_file",
    "perfect_binary",
    "perfect_ternary",
    "quartet_type",
    "random_config",
    "run_gbs",
    "run_multi",
    "run_rea",
    "run_sweep",
    "serialize_topology",
    "star",
    "summarize",
    "tall_binary",
    "write_csv",
    "write_topology_file",
]


def test_public_names_are_frozen():
    assert sorted(quartetmerge.__all__) == PUBLIC
    assert len(set(quartetmerge.__all__)) == len(quartetmerge.__all__)


def test_every_public_name_resolves():
    for name in quartetmerge.__all__:
        assert hasattr(quartetmerge, name), name
