"""Command line front end.

Subcommands mirror the library's main entry points: ``gen`` writes a tree
plus a random joining configuration as a topology file, ``infer`` runs one
algorithm against a file, ``sweep`` batches experiments into CSV,
``bruteforce`` reports enumeration and minimum-query numbers, and
``multi`` runs several independent sources over one tree.
"""

from __future__ import annotations

import argparse
import sys

from .errors import QuartetMergeError
from .exhaustive import (
    all_pairs,
    enumerate_valid_configs,
    lower_bound,
    min_identifying_set,
    min_quartets_all,
)
from .generators import make_tree, random_config
from .multisource import run_multi
from .oracle import NoiseSpec, Oracle
from .sweep import ALGORITHMS, run_algorithm, run_sweep, summarize, write_csv
from .topofile import parse_topology_file, serialize_topology, write_topology_file
from .topology import GroundTruth


def _add_noise_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise-p", type=float, default=0.0,
                   help="probability of a wrong quartet answer (default 0)")
    p.add_argument("--repeats", type=int, default=1,
                   help="odd number of probes per query, majority wins (default 1)")
    p.add_argument("--noise-seed", type=int, default=0,
                   help="seed for the noise stream (default 0)")


def _noise_from(args) -> NoiseSpec:
    return NoiseSpec(p=args.noise_p, repeats=args.repeats, seed=args.noise_seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartetmerge",
        description="Infer where a second source joins a known routing tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a tree and a random joining map")
    p.add_argument("--shape", required=True,
                   help="star, tall_binary, perfect_binary or perfect_ternary")
    p.add_argument("--size", type=int, required=True, help="number of receivers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output topology file (default stdout)")

    p = sub.add_parser("infer", help="run an inference algorithm on a topology file")
    p.add_argument("file", help="topology file with ground-truth join lines")
    p.add_argument("--alg", choices=ALGORITHMS, default="rea")
    p.add_argument("--propagate-equalities", action="store_true",
                   help="fold type-1 equalities back into the candidate intervals")
    _add_noise_args(p)

    p = sub.add_parser("sweep", help="batch experiments over shapes and sizes")
    p.add_argument("--shape", nargs="+", required=True, dest="shapes")
    p.add_argument("--size", nargs="+", type=int, required=True, dest="sizes")
    p.add_argument("--alg", nargs="+", choices=ALGORITHMS, default=list(ALGORITHMS),
                   dest="algs")
    p.add_argument("--realizations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--propagate-equalities", action="store_true")
    p.add_argument("--out", help="CSV output path")
    _add_noise_args(p)

    p = sub.add_parser("bruteforce", help="enumerate configs and minimum query sets")
    p.add_argument("file", nargs="?", help="topology file; joins select one config")
    p.add_argument("--shape", help="generate instead of reading a file")
    p.add_argument("--size", type=int)

    p = sub.add_parser("multi", help="independent sources over one tree")
    p.add_argument("--shape", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--sources", type=int, default=2,
                   help="total source count; sources - 1 joining maps are inferred")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alg", choices=ALGORITHMS, default="rea")
    p.add_argument("--propagate-equalities", action="store_true")
    _add_noise_args(p)

    return parser


def _cmd_gen(args) -> int:
    tree = make_tree(args.shape, args.size)
    config = random_config(tree, args.seed)
    if args.out:
        write_topology_file(args.out, tree, config)
        print(f"wrote {args.out}: {tree.n_receivers} receivers, "
              f"{len(tree.edge_labels())} edges")
    else:
        sys.stdout.write(serialize_topology(tree, config))
    return 0


def _cmd_infer(args) -> int:
    tree, config = parse_topology_file(args.file)
    if config is None:
        print("error: the file has no join lines to act as ground truth",
              file=sys.stderr)
        return 2
    gt = GroundTruth(tree, config)
    oracle = Oracle(gt, _noise_from(args))
    result = run_algorithm(args.alg, tree, oracle,
                           propagate_equalities=args.propagate_equalities)
    for r in tree.receivers:
        print(f"{r} {result.joins[r]}")
    print(f"queries: {result.queries_used}")
    print(f"probes: {oracle.stats.total_queries}")
    print(f"correct: {'true' if result.matches(config) else 'false'}")
    return 0


def _cmd_sweep(args) -> int:
    rows = run_sweep(
        args.shapes,
        args.sizes,
        args.algs,
        realizations=args.realizations,
        base_seed=args.seed,
        noise=_noise_from(args),
        propagate_equalities=args.propagate_equalities,
    )
    if args.out:
        write_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    header = f"{'shape':<16}{'n':>6}{'alg':>6}{'runs':>6}" \
             f"{'mean_queries':>14}{'success':>9}{'ms':>10}"
    print(header)
    for s in summarize(rows):
        print(f"{s.shape:<16}{s.n:>6}{s.algorithm:>6}{s.runs:>6}"
              f"{s.mean_queries:>14.2f}{s.success_rate:>9.2f}"
              f"{s.mean_runtime_ms:>10.2f}")
    return 0


def _cmd_bruteforce(args) -> int:
    config = None
    if args.file:
        tree, config = parse_topology_file(args.file)
    elif args.shape and args.size:
        tree = make_tree(args.shape, args.size)
    else:
        print("error: give a topology file or both --shape and --size",
              file=sys.stderr)
        return 2
    configs = enumerate_valid_configs(tree)
    n = tree.n_receivers
    print(f"receivers: {n}")
    print(f"pairs: {len(all_pairs(tree))}")
    print(f"valid configs: {len(configs)}")
    print(f"lower bound: {lower_bound(n)}")
    if config is not None:
        witness = min_identifying_set(tree, config)
        print(f"min quartets for the file's config: {len(witness)}")
        print("witness: " + ", ".join(f"({a},{b})" for a, b in witness))
    else:
        counts = min_quartets_all(tree)
        print(f"min quartets over all configs: min {min(counts)}, "
              f"max {max(counts)}, mean {sum(counts) / len(counts):.3f}")
    return 0


def _cmd_multi(args) -> int:
    if args.sources < 2:
        print("error: --sources must be at least 2", file=sys.stderr)
        return 2
    tree = make_tree(args.shape, args.size)
    configs = [random_config(tree, args.seed + k) for k in range(args.sources - 1)]
    outcome = run_multi(
        tree,
        configs,
        algorithm=args.alg,
        noise=_noise_from(args),
        propagate_equalities=args.propagate_equalities,
    )
    for k, (cfg, res) in enumerate(zip(configs, outcome.results), start=2):
        ok = "true" if res.matches(cfg) else "false"
        print(f"source {k}: queries {res.queries_used}, correct {ok}")
    print(f"total queries: {outcome.total_queries}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "infer": _cmd_infer,
    "sweep": _cmd_sweep,
    "bruteforce": _cmd_bruteforce,
    "multi": _cmd_multi,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QuartetMergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
