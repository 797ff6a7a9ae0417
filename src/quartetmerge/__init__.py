"""Inferring where unknown sources join a known logical routing tree.

The tree from a probing source to N receivers is given; a second source
attaches at one edge per receiver root path.  Quartet queries on receiver
pairs reveal how the two joining edges sit relative to the pair's
branching point, and the algorithms here reconstruct the full joining map
from as few such queries as possible.
"""

from .errors import (
    BadSpec,
    InconsistentAnswer,
    InsufficientReceivers,
    InvalidConfiguration,
    InvalidTree,
    MisplacedJoin,
    ParseError,
    QuartetMergeError,
    SameReceiver,
    Stalled,
    StructuralViolation,
    TooLarge,
    UnknownReceiver,
)
from .exhaustive import (
    all_pairs,
    answer_set,
    enumerate_valid_configs,
    identifies,
    lower_bound,
    min_identifying_set,
    min_quartets,
    min_quartets_all,
)
from .gbs import run_gbs
from .generators import (
    make_tree,
    perfect_binary,
    perfect_ternary,
    random_config,
    star,
    tall_binary,
)
from .multisource import MultiResult, run_multi
from .oracle import ExactOracle, NoiseSpec, Oracle, OracleStats
from .rea import run_rea
from .results import InferenceResult, Step, Trace
from .sweep import (
    ALGORITHMS,
    SweepRow,
    SweepSummary,
    run_sweep,
    summarize,
    write_csv,
)
from .topofile import (
    parse_topology,
    parse_topology_file,
    serialize_topology,
    write_topology_file,
)
from .topology import (
    GroundTruth,
    JoiningConfig,
    LogicalTree,
    QuartetType,
    is_valid_config,
    quartet_type,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
