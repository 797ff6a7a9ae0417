"""Randomized invariants over arbitrary small trees, not just the families."""

from __future__ import annotations

import itertools
import random
from array import array
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from quartetmerge import (
    ExactOracle,
    GroundTruth,
    JoiningConfig,
    LogicalTree,
    NoiseSpec,
    Oracle,
    QuartetMergeError,
    QuartetType,
    all_pairs,
    enumerate_valid_configs,
    identifies,
    is_valid_config,
    parse_topology,
    quartet_type,
    random_config,
    run_gbs,
    run_rea,
    serialize_topology,
)
from quartetmerge.exhaustive import _answer_matrix, _valid_depths
from quartetmerge.gbs import CandidateState, apply_update, select_quartet
from quartetmerge.topology import PlacementScan
from reference import (
    RefPlacementScan,
    compute_benefits,
    ref_enumerate,
    ref_gbs,
    ref_identifies_deduction,
    ref_is_valid,
    ref_lca_depth,
    ref_quartet_type,
    ref_rea,
    ref_root_path,
)

SWAPPED = {
    QuartetType.BOTH_ABOVE: QuartetType.BOTH_ABOVE,
    QuartetType.FIRST_ABOVE: QuartetType.SECOND_ABOVE,
    QuartetType.SECOND_ABOVE: QuartetType.FIRST_ABOVE,
    QuartetType.BOTH_BELOW: QuartetType.BOTH_BELOW,
}


@st.composite
def trees(draw, max_receivers: int = 6) -> LogicalTree:
    """Random relay-free tree with receivers exactly at the leaves."""
    n = draw(st.integers(2, max_receivers))
    leaves = [f"r{k}" for k in range(1, n + 1)]
    edges: list[tuple[str, str, str]] = []
    labels = itertools.count(1)
    branches = itertools.count(1)

    def build(parent: str, group: list[str]) -> None:
        k = draw(st.integers(2, len(group)))
        cuts = sorted(
            draw(
                st.sets(
                    st.integers(1, len(group) - 1), min_size=k - 1, max_size=k - 1
                )
            )
        )
        for lo, hi in zip([0, *cuts], [*cuts, len(group)]):
            part = group[lo:hi]
            if len(part) == 1:
                edges.append((parent, part[0], f"e{next(labels)}"))
            else:
                b = f"b{next(branches)}"
                edges.append((parent, b, f"e{next(labels)}"))
                build(b, part)

    if draw(st.booleans()):
        # root edge into a hub, as in the generated families
        edges.append(("s1", "b0", f"e{next(labels)}"))
        build("b0", leaves)
    else:
        build("s1", leaves)
    order = draw(st.permutations(leaves))
    return LogicalTree("s1", edges, list(order))


@st.composite
def instances(draw):
    """Tree plus an arbitrary (not necessarily valid) joining map."""
    tree = draw(trees())
    joins = {}
    for r in tree.receivers:
        path = tree.root_path(r)
        joins[r] = path[draw(st.integers(0, len(path) - 1))]
    return tree, joins


@st.composite
def valid_instances(draw):
    tree = draw(trees())
    return tree, random_config(tree, draw(st.integers(0, 2**16)))


@given(valid_instances(), st.data())
@settings(deadline=None)
def test_swap_exchanges_one_sided_types(inst, data):
    tree, config = inst
    gt = GroundTruth(tree, config)
    pairs = list(itertools.combinations(tree.receivers, 2))
    a, b = data.draw(st.sampled_from(pairs))
    assert quartet_type(gt, b, a) == SWAPPED[quartet_type(gt, a, b)]


@given(valid_instances(), st.data())
@settings(deadline=None)
def test_quartet_type_matches_reference(inst, data):
    tree, config = inst
    gt = GroundTruth(tree, config)
    pairs = list(itertools.combinations(tree.receivers, 2))
    a, b = data.draw(st.sampled_from(pairs))
    assert int(quartet_type(gt, a, b)) == ref_quartet_type(tree, config.joins, a, b)


@given(trees(max_receivers=10))
@settings(deadline=None)
def test_on_root_path_matches_reference(tree):
    labels = [lab for _, _, lab in tree.edges()]
    for r in tree.receivers:
        path = set(ref_root_path(tree, r))
        for label in labels:
            assert tree.on_root_path(label, r) == (label in path), (label, r)


@given(trees(max_receivers=10))
@settings(deadline=None)
def test_lca_depth_matches_reference(tree):
    for ri, rj in itertools.permutations(tree.receivers, 2):
        assert tree.lca_depth(ri, rj) == ref_lca_depth(tree, ri, rj), (ri, rj)


@given(instances())
@settings(deadline=None)
def test_validity_scan_matches_naive_all_pairs(inst):
    tree, joins = inst
    assert is_valid_config(tree, joins) == ref_is_valid(tree, joins)


@given(valid_instances())
@settings(deadline=None)
def test_sampled_configs_are_valid(inst):
    tree, config = inst
    assert ref_is_valid(tree, config.joins)


@given(valid_instances())
@settings(deadline=None)
def test_rea_recovers_in_exactly_n_minus_one(inst):
    tree, config = inst
    res = run_rea(tree, ExactOracle(GroundTruth(tree, config)))
    assert res.matches(config)
    assert res.queries_used == tree.n_receivers - 1


class _ArbitraryOracle:
    """Answers every query with a seeded, uniformly drawn type."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def query(self, ri: str, rj: str) -> QuartetType:
        return QuartetType(self._rng.randrange(1, 5))


@given(
    trees(max_receivers=10),
    st.sampled_from(["exact", "noisy", "arbitrary"]),
    st.integers(0, 2**16),
)
@settings(deadline=None)
def test_rea_matches_the_contraction_reference(tree, kind, seed):
    # the reference picks, deletes and contracts on a plain parent map;
    # the package must make the same queries and the same surgery
    gt = GroundTruth(tree, random_config(tree, seed))

    def oracle():
        if kind == "exact":
            return Oracle(gt)
        if kind == "noisy":
            return Oracle(gt, NoiseSpec(p=0.2, seed=seed))
        return _ArbitraryOracle(seed)

    res, ref = run_rea(tree, oracle()), ref_rea(tree, oracle())
    assert [
        (s.pair, int(s.answer), s.deleted_receiver, s.deleted_edge, s.contracted_edge)
        for s in res.trace.steps
    ] == ref.steps
    assert res.trace.aliases == ref.aliases
    assert dict(res.joins) == ref.joins
    assert res.queries_used == ref.queries_used == tree.n_receivers - 1


def _outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except QuartetMergeError as exc:
        return type(exc), str(exc)


@given(trees(max_receivers=8), st.integers(0, 2**16), st.data())
@settings(deadline=None)
def test_id_backed_maps_behave_like_name_keyed_ones(tree, seed, data):
    # the samplers and both algorithms return maps held as node ids; each
    # must act exactly like the name-keyed map of the same labels
    config = random_config(tree, seed)
    gt = GroundTruth(tree, config)
    maps = [
        config,
        run_rea(tree, Oracle(gt)).joins,
        run_rea(tree, _ArbitraryOracle(seed)).joins,
        run_gbs(tree, Oracle(gt)).joins,
    ]
    # one receiver's join moved to any edge, and one moved along its root
    # path, which most often breaks the pairwise rule
    k = data.draw(st.integers(0, tree.n_receivers - 1))
    depths = [1] * tree.n_receivers
    depths[k] = data.draw(st.integers(1, tree.node_depth(tree.receivers[k])))
    for node in (data.draw(st.integers(1, len(tree._labels) - 1)), tree._nodes_at(depths)[k]):
        nodes = array("i", config._nodes)
        nodes[k] = node
        maps.append(JoiningConfig._of(tree, nodes))
    assert all(m._tree is tree for m in maps)
    plain = [dict(zip(tree.receivers, map(tree._labels.__getitem__, m._nodes))) for m in maps]
    for m, joins in zip(maps, plain):
        named = JoiningConfig(dict(joins))
        for other, other_joins in zip(maps, plain):
            same = joins == other_joins
            other_named = JoiningConfig(dict(other_joins))
            assert (m == other) is (other == m) is same
            assert (m != other) is (other != m) is (not same)
            assert (m == other_named) is (other_named == m) is same
            assert (m != other_named) is (other_named != m) is (not same)
            assert (m == other_joins) is (other_joins == m) is same
            assert (m != other_joins) is (other_joins != m) is (not same)
        assert hash(m) == hash(named)
        assert repr(m) == repr(named)
        assert list(m) == list(named) == list(tree.receivers)
        assert len(m) == len(named)
        assert all(r in m for r in tree.receivers) and "no-such-receiver" not in m
        assert m.keys() == named.keys() and list(m.keys()) == list(named.keys())
        assert list(m.items()) == list(named.items())
        for check in (GroundTruth, is_valid_config):
            got, want = _outcome(check, tree, m), _outcome(check, tree, named)
            if check is GroundTruth and not isinstance(got, tuple):
                got, want = got._join_depth, want._join_depth
            assert got == want


@given(valid_instances(), st.booleans())
@settings(deadline=None)
def test_gbs_recovers_within_the_pair_budget(inst, propagate):
    tree, config = inst
    oracle = ExactOracle(GroundTruth(tree, config))
    res = run_gbs(tree, oracle, propagate_equalities=propagate)
    assert res.matches(config)
    n = tree.n_receivers
    assert res.queries_used <= n * (n - 1) // 2
    pairs = [s.pair for s in res.trace.steps]
    assert res.queries_used == len(pairs) == oracle.stats.quartet_queries
    assert len(set(pairs)) == len(pairs)


@given(
    valid_instances(),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 2**16).map(lambda s: NoiseSpec(p=0.1, seed=s))),
)
@settings(deadline=None)
def test_gbs_matches_the_answer_cache_reference(inst, propagate, noise):
    # the reference keeps an answer cache and replays a cached pair while
    # its answer still shrinks an interval; the package asks each pair
    # once, and must make the same queries with the same outcome
    tree, config = inst
    gt = GroundTruth(tree, config)

    def run(fn):
        try:
            return fn(tree, Oracle(gt, noise), propagate_equalities=propagate)
        except QuartetMergeError as exc:
            return type(exc)

    res, ref = run(run_gbs), run(ref_gbs)
    if isinstance(ref, type):
        assert res is ref
        return
    assert not isinstance(res, type), res
    assert [(s.pair, int(s.answer)) for s in res.trace.steps] == ref.steps
    assert res.queries_used == ref.queries_used
    assert dict(res.joins) == ref.joins


@given(
    trees(max_receivers=10),
    st.integers(0, 2**16),
    st.booleans(),
    st.booleans(),
)
@settings(deadline=None)
def test_gbs_worst_case_cache_matches_a_full_recompute(tree, seed, noisy, propagate):
    # select_quartet refreshes only the lines of the receivers an answer
    # moved; after every update the cache must hold, bit for bit, every
    # pair's worst case rebuilt from scratch with the same intervals and
    # asked pairs, and the pair it returns must be that array's first
    # minimum.  float() of the exact Fraction rounds num/den correctly,
    # as float64 division of the integers does.  Each row's bound must be
    # at or below the row's minimum, and equal it on the row selected;
    # the unresolved count must match a rescan of the intervals.
    gt = GroundTruth(tree, random_config(tree, seed))
    oracle = Oracle(gt, NoiseSpec(p=0.1, seed=seed) if noisy else None)
    state = CandidateState(tree, propagate)
    pairs = all_pairs(tree)
    asked = set()
    while True:
        assert state._unresolved == sum(lo != hi for lo, hi in zip(state.lo, state.hi))
        if state.all_resolved():
            return
        pair = select_quartet(state)
        full = np.array([
            np.inf
            if p in asked or all(
                state.lo[k] == state.hi[k] for k in map(tree.receiver_index, p)
            )
            else float(compute_benefits(state, *p).worst_case)
            for p in pairs
        ])
        assert state.wc.tobytes() == full.tobytes()
        row_min = [np.inf] * tree.n_receivers
        for p, w in zip(pairs, full):
            i = tree.receiver_index(p[0])
            row_min[i] = min(row_min[i], w)
        assert all(b <= m for b, m in zip(state._bound, row_min))
        if pair is None:
            assert np.all(full == np.inf)
            return
        names = pairs[int(np.argmin(full))]
        assert pair == tuple(map(tree.receiver_index, names))
        i = pair[0]
        assert state._bound[i] == row_min[i]
        try:
            apply_update(state, *pair, oracle.query(*names))
        except QuartetMergeError:
            return
        asked.add(names)


@given(trees(max_receivers=12))
@settings(deadline=None)
def test_gbs_branch_depths_match_lca_depth(tree):
    # receiver k's row holds its lca depth with every receiver and its own
    # depth at k, returned fresh or written into a given row
    rec = tree.receivers
    for k, r in enumerate(rec):
        expected = [
            tree.node_depth(r) if i == k else tree.lca_depth(r, other)
            for i, other in enumerate(rec)
        ]
        row = tree._lca_depths(k)
        assert row.dtype == np.int32
        assert [int(d) for d in row] == expected
        out = np.full(len(rec), -1, dtype=np.int32)
        assert tree._lca_depths(k, out) is out
        assert [int(d) for d in out] == expected


_DEN = 2**26


@st.composite
def quotient_pairs(draw):
    """Two quotients num/den with 0 <= num <= den < 2**26: unrelated, equal
    as rationals, or neighbours at a multiple of the first's denominator."""
    den = draw(st.integers(1, _DEN - 1))
    num = draw(st.integers(0, den))
    kind = draw(st.sampled_from(["free", "tie", "near"]))
    if kind == "free":
        den2 = draw(st.integers(1, _DEN - 1))
        return num, den, draw(st.integers(0, den2)), den2
    k = draw(st.integers(1, (_DEN - 1) // den))
    if kind == "tie":
        return num, den, num * k, den * k
    den2 = min(max(den * k + draw(st.integers(-1, 1)), 1), _DEN - 1)
    num2 = min(max(num * k + draw(st.integers(-1, 1)), 0), den2)
    return num, den, num2, den2


@given(quotient_pairs())
def test_float64_quotients_order_like_fractions(q):
    # gbs compares worst cases as float64 num/den, which must order them
    # exactly as the rationals, ties included
    a, b, c, d = q
    x, y = np.array([a, c], dtype=np.int64) / np.array([b, d], dtype=np.int64)
    fx, fy = Fraction(a, b), Fraction(c, d)
    assert (x < y) == (fx < fy)
    assert (x == y) == (fx == fy)


@given(trees(max_receivers=10), st.data())
@settings(deadline=None)
def test_joins_at_reads_each_receivers_root_path(tree, data):
    # one map of depths at a time, and a stack of them looked up at once
    maps = [
        [data.draw(st.integers(1, tree.node_depth(r))) for r in tree.receivers]
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    stacked = tree._nodes_at(np.array(maps))
    assert stacked.shape == (len(maps), tree.n_receivers)
    for depths, nodes in zip(maps, stacked.tolist()):
        assert tree._nodes_at(depths).tolist() == nodes
        for r, d, v in zip(tree.receivers, depths, nodes):
            assert tree._labels[v] == ref_root_path(tree, r)[d - 1]


@given(trees(max_receivers=10), st.data())
@settings(deadline=None)
def test_placement_scan_matches_the_outward_scan(tree, data):
    # receivers are placed in any order, each join drawn from the allowed
    # edges, so the partial map stays valid as the scan requires, and
    # every receiver not yet placed is asked after each place
    scan, ref = PlacementScan(tree), RefPlacementScan(tree)
    placed: list[str] = []

    def same_answers():
        for r in tree.receivers:
            if r not in placed:
                assert scan.allowed(r) == ref.allowed(r)

    same_answers()
    for r in data.draw(st.permutations(tree.receivers)):
        blocked, exception = ref.allowed(r)
        depths = list(range(blocked + 1, tree.node_depth(r) + 1))
        if exception is not None:
            depths.append(exception)
        cd = data.draw(st.sampled_from(depths))
        scan.place(r, cd)
        ref.place(r, cd)
        placed.append(r)
        same_answers()


@given(trees(max_receivers=5))
@settings(deadline=None)
def test_enumeration_matches_reference_in_any_receiver_order(tree):
    got = [dict(c.joins) for c in enumerate_valid_configs(tree)]
    assert got == ref_enumerate(tree)


@given(trees(max_receivers=5))
@settings(deadline=None)
def test_answer_matrix_matches_the_reference_on_every_map(tree):
    # one numpy expression classifies every enumerated map on both orders
    # of every pair, as the definition does one quartet at a time
    pairs = list(itertools.permutations(tree.receivers, 2))
    configs = enumerate_valid_configs(tree)
    matrix = _answer_matrix(tree, _valid_depths(tree), pairs)
    for config, row in zip(configs, matrix.tolist()):
        joins = dict(config.joins)
        assert row == [ref_quartet_type(tree, joins, a, b) for a, b in pairs]


@given(valid_instances())
@settings(deadline=None)
def test_serialization_round_trip(inst):
    tree, config = inst
    parsed, parsed_config = parse_topology(serialize_topology(tree, config))
    assert parsed == tree
    assert parsed_config == config
    bare, none = parse_topology(serialize_topology(tree))
    assert bare == tree and none is None


@given(valid_instances(), st.data())
@settings(deadline=None, max_examples=50)
def test_deduction_implies_elimination(inst, data):
    tree, config = inst
    pairs = list(itertools.combinations(tree.receivers, 2))
    subset = data.draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True)
    )
    if identifies(tree, subset, config, mode="deduction"):
        assert identifies(tree, subset, config, mode="elimination")


@given(trees(max_receivers=6), st.integers(0, 2**16), st.data())
@settings(deadline=None, max_examples=100)
def test_deduction_matches_the_fixpoint_reference(tree, seed, data):
    # pairs in either order and possibly repeated: the interval closure
    # must read each answer in the pair's own order and pin exactly what
    # the reference's fixpoint over candidate edge sets pins
    config = random_config(tree, seed)
    pairs = list(itertools.permutations(tree.receivers, 2))
    subset = data.draw(st.lists(st.sampled_from(pairs), max_size=8))
    assert identifies(tree, subset, config, mode="deduction") == (
        ref_identifies_deduction(tree, subset, dict(config.joins))
    )
