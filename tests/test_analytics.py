"""Degree multisets, CCDFs, activity ranking, repeats, and summaries."""

from __future__ import annotations

import io
import random
from collections import Counter

import chainpetri.analytics
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainpetri import (
    GeneratorConfig,
    PlaceTransitionNet,
    accumulate_only,
    build_entity_net,
    ccdf,
    ccdf_to_csv,
    compute_entities,
    degree_multiset,
    generate_synthetic,
    ingest,
    repeat_report,
    repeated_groups,
    summary,
    top_k_active,
)
from conftest import SAMPLE_TXS
from helpers import allpairs_repeat_groups, build_net, dense_replay, random_transactions

multisets = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60)


# -- degree multisets ----------------------------------------------------------


def test_sample_degrees(sample_net):
    assert Counter(degree_multiset(sample_net, "pre").counts.tolist()) == Counter(
        [1, 2, 1, 0, 0, 1]
    )
    assert Counter(degree_multiset(sample_net, "post").counts.tolist()) == Counter(
        [2, 3, 1, 1, 2, 1]
    )
    assert Counter(degree_multiset(sample_net, "both").counts.tolist()) == Counter(
        [3, 5, 2, 1, 2, 2]
    )


def test_degree_cardinality(sample_net):
    for side in ("pre", "post", "both"):
        assert degree_multiset(sample_net, side).counts.size == sample_net.num_places


def test_degree_bad_side(sample_net):
    with pytest.raises(ValueError):
        degree_multiset(sample_net, "sideways")


# -- ccdf ------------------------------------------------------------------------


def test_ccdf_small():
    assert ccdf([1, 1, 2]).points == [(0, 1.0), (1, 1 / 3), (2, 0.0)]


def test_ccdf_all_equal():
    assert ccdf([5, 5, 5, 5]).points == [(0, 1.0), (5, 0.0)]


def test_ccdf_sample_pre(sample_net):
    series = ccdf(degree_multiset(sample_net, "pre"))
    assert series.points == [(0, 4 / 6), (1, 1 / 6), (2, 0.0)]


def test_ccdf_all_zero():
    assert ccdf([0, 0]).points == [(0, 0.0)]


def test_ccdf_empty_rejected():
    with pytest.raises(ValueError):
        ccdf([])


@pytest.mark.parametrize("values", [[0.5, 1.7, -0.5], [1.0, 2.0], [-1, 2], ["1"], [True]])
def test_ccdf_non_integer_or_negative_rejected(values):
    with pytest.raises(ValueError):
        ccdf(values)


@given(multisets)
def test_ccdf_properties(values):
    points = ccdf(values).points
    xs = [x for x, _ in points]
    ps = [p for _, p in points]
    assert xs == sorted(set(xs))
    assert all(a > b or a == b for a, b in zip(ps, ps[1:]))
    assert all(earlier >= later for earlier, later in zip(ps, ps[1:]))
    assert ps[-1] == 0.0
    assert points[0][0] == 0
    assert points[0][1] == sum(1 for v in values if v >= 1) / len(values)
    assert xs[-1] == max(values)


def test_ccdf_csv_format():
    buffer = io.StringIO()
    ccdf_to_csv(ccdf([1, 1, 2]), buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "x,ccdf"
    assert lines[1] == "x,ccdf".replace("x,ccdf", "0,1.000000000000e+00")
    x, p = lines[2].split(",")
    assert x == "1"
    assert abs(float(p) - 1 / 3) < 1e-12
    assert len(p.split("e")[0].replace(".", "").replace("-", "")) >= 12


# -- top-k ------------------------------------------------------------------------


def test_top_k_sample(sample_net):
    (place, pre_nnz, post_nnz), = top_k_active(sample_net, 1)
    assert sample_net.address_of(place) == "a2"
    assert (pre_nnz, post_nnz) == (2, 3)


def test_top_k_larger_than_net(sample_net):
    assert len(top_k_active(sample_net, 100)) == sample_net.num_places


def test_top_k_tie_break_by_place_id():
    net = build_net([("t", [], ["A", "B", "C"])])
    ranked = top_k_active(net, 3)
    assert [p for p, _, _ in ranked] == [0, 1, 2]


def test_top_k_invalid_k(sample_net):
    with pytest.raises(ValueError):
        top_k_active(sample_net, 0)


# -- accumulate-only ----------------------------------------------------------------


def test_sample_accumulate_only(sample_net):
    deposits = accumulate_only(sample_net)
    assert sample_net.addresses_of(np.flatnonzero(deposits).tolist()) == ["a4", "a5"]


def test_accumulate_only_empty_net():
    assert accumulate_only(PlaceTransitionNet().seal()).tolist() == []


def test_accumulate_only_synthetic_deposits():
    config = GeneratorConfig(entity_sizes=[3], chain_lengths=[2], fillers=5)
    blocks, truth = generate_synthetic(config, seed=6)
    net, _ = ingest(blocks)
    names = set(net.addresses_of(np.flatnonzero(accumulate_only(net)).tolist()))
    assert names == truth.deposit_addresses


# -- repeated groups -----------------------------------------------------------------


def test_sample_repeats(sample_net):
    repeats = repeated_groups(sample_net)
    groups = {frozenset(sample_net.tx_id_of(t) for t in g) for g in repeats.groups}
    assert groups == {frozenset({"t1", "t2"}), frozenset({"t4", "t6"})}
    assert repeats.repetition_count == 2
    assert repeats.fraction == 2 / 7


def test_no_repeats():
    for txs in (
        [("c1", [], ["A"]), ("c2", [], ["B"])],
        # the same three entries, split 2+1 and 1+2 between pre and post
        [("x", ["A", "B"], ["C"]), ("y", ["A"], ["B", "C"])],
    ):
        repeats = repeated_groups(build_net(txs))
        assert repeats.groups == []
        assert repeats.repetition_count == 0
        assert repeats.fraction == 0.0


def test_repeats_empty_net():
    assert repeated_groups(PlaceTransitionNet().seal()).fraction == 0.0


def _oracle_net(seed: int, level: str):
    """A seeded net with its dense pre/post matrices: a replay of the stream
    at the address level, the entity net's own matrices at the entity level."""
    rng = random.Random(seed)
    txs = random_transactions(rng, n_tx=rng.randint(0, 50), pool_size=rng.randint(1, 8))
    net = build_net(txs)
    if level == "entity":
        net = build_entity_net(net, compute_entities(net)).net
        return net, net.pre.toarray(), net.post.toarray()
    _, pre, post = dense_replay(txs)
    return net, pre, post


# address-level cases keep their plain seed ids
@pytest.mark.parametrize("level, seed", [
    *(pytest.param("address", seed, id=str(seed)) for seed in range(10)),
    *(pytest.param("entity", seed, id=f"entity-{seed}") for seed in range(10)),
])
def test_repeats_match_allpairs_oracle(level, seed):
    net, pre, post = _oracle_net(seed, level)
    assert repeated_groups(net).groups == allpairs_repeat_groups(pre, post)


def test_repeat_oracle_seeds_reach_multiplicities():
    # the entity-level oracle cases above must hold values above 1 somewhere
    assert any(_oracle_net(seed, "entity")[1].max(initial=0) > 1 for seed in range(10))


@pytest.mark.parametrize("collide", [False, True], ids=["mixed", "every-column-collides"])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), level=st.sampled_from(["address", "entity"]))
def test_repeats_match_allpairs_oracle_whatever_the_hashes(collide, seed, level):
    net, pre, post = _oracle_net(seed, level)
    with pytest.MonkeyPatch.context() as patch:
        if collide:
            # a column hashes to its entry count, so only the entry-by-entry check and
            # the grouping shape by shape tell the columns of one count apart
            patch.setattr(chainpetri.analytics, "_MIX", np.int64(0))
        assert repeated_groups(net).groups == allpairs_repeat_groups(pre, post)


def test_repeat_count_definition(sample_net):
    repeats = repeated_groups(sample_net)
    assert repeats.repetition_count == sum(len(g) - 1 for g in repeats.groups)
    assert repeats.group_count == len(repeats.groups)


def test_entity_level_values_distinguish_columns():
    # both transactions touch the same entity pair, but with different
    # multiplicities, so they must not group at the entity level either
    txs = [
        ("f", [], ["A", "B"]),
        ("x", ["A", "B"], ["C"]),
        ("y", ["A"], ["C"]),
    ]
    net = build_net(txs)
    entity_net = build_entity_net(net, compute_entities(net)).net
    assert repeated_groups(entity_net).groups == []


@pytest.mark.parametrize("seed", range(6))
def test_entity_level_repeats_coarsen(seed):
    rng = random.Random(seed)
    txs = random_transactions(rng, n_tx=40, pool_size=6)
    net = build_net(txs)
    entity_net = build_entity_net(net, compute_entities(net)).net
    address_groups = repeated_groups(net).groups
    entity_groups = repeated_groups(entity_net).groups
    membership = {}
    for index, group in enumerate(entity_groups):
        for t in group:
            membership[t] = index
    # identical address columns sum to identical entity columns, so an
    # address-level repeat group lands whole inside one entity-level group
    for group in address_groups:
        assert all(t in membership for t in group)
        assert len({membership[t] for t in group}) == 1


def test_repeat_report_shape(sample_net):
    report = repeat_report(sample_net, repeated_groups(sample_net))
    assert report["group_count"] == 2
    assert report["repetition_count"] == 2
    assert sorted(map(sorted, report["groups"])) == [["t1", "t2"], ["t4", "t6"]]


# -- summary ----------------------------------------------------------------------


def test_sample_summary(sample_net):
    report = summary(sample_net)
    assert report.places == 6
    assert report.transitions == 7
    assert report.pre_arcs == 5
    assert report.post_arcs == 10
    assert report.accumulate_only == 2
    assert report.disposable == 2


def test_summary_empty_net():
    report = summary(PlaceTransitionNet().seal())
    assert report.as_dict() == {
        "places": 0,
        "transitions": 0,
        "pre_arcs": 0,
        "post_arcs": 0,
        "accumulate_only": 0,
        "disposable": 0,
    }


def test_summary_matches_ingest_report(sample_blocks):
    net, ingest_report = ingest(sample_blocks)
    report = summary(net)
    assert report.places == ingest_report.addresses
    assert report.transitions == ingest_report.transactions
    assert report.pre_arcs == ingest_report.pre_arcs
    assert report.post_arcs == ingest_report.post_arcs
