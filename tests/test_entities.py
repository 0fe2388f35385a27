"""Entity partition and entity-net construction."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainpetri import (
    EntityPartition,
    NetNotSealedError,
    PartitionMismatchError,
    build_entity_net,
    compute_entities,
    cyclic_transitions,
    entity_report,
)
from conftest import SAMPLE_ENTITIES, SAMPLE_PRE_E, SAMPLE_POST_E, SAMPLE_TXS
from helpers import build_net, coinput_components, dense_replay, random_transactions

pool = st.sampled_from([f"p{i}" for i in range(10)])
tx_batches = st.lists(
    st.tuples(st.lists(pool, max_size=4), st.lists(pool, min_size=1, max_size=3)),
    max_size=15,
)


def _batch_to_txs(batch):
    return [(f"x{j}", ins, outs) for j, (ins, outs) in enumerate(batch)]


def test_sample_partition(sample_net):
    partition = compute_entities(sample_net)
    names = [[sample_net.address_of(p) for p in members] for members in partition.entities]
    assert names == SAMPLE_ENTITIES


def test_partition_ordered_by_smallest_member(sample_net):
    partition = compute_entities(sample_net)
    minima = [members[0] for members in partition.entities]
    assert minima == sorted(minima)
    for members in partition.entities:
        assert members == sorted(members)


def test_place_to_entity_consistent(sample_net):
    partition = compute_entities(sample_net)
    for index, members in enumerate(partition.entities):
        for p in members:
            assert partition.place_to_entity[p] == index


def test_coinbase_only_net_all_singletons():
    net = build_net([("c1", [], ["A"]), ("c2", [], ["B", "C"])])
    partition = compute_entities(net)
    assert partition.entities == [[0], [1], [2]]
    # entities follow the labels, with no stale copy after a reassignment
    partition.place_to_entity = np.array([0, 0, 1])
    assert partition.entities == [[0, 1], [2]]


def test_requires_sealed_net():
    net = build_net(SAMPLE_TXS, seal=False)
    with pytest.raises(NetNotSealedError):
        compute_entities(net)


def test_entity_net_rejected_as_input(sample_net):
    entity_net = build_entity_net(sample_net, compute_entities(sample_net)).net
    with pytest.raises(ValueError):
        compute_entities(entity_net)
    singleton = EntityPartition(np.arange(entity_net.num_places))
    with pytest.raises(ValueError):
        build_entity_net(entity_net, singleton)


def test_determinism(sample_net):
    first = compute_entities(sample_net)
    second = compute_entities(sample_net)
    assert first.entities == second.entities
    assert np.array_equal(first.place_to_entity, second.place_to_entity)


def test_partition_value_equality(sample_net):
    first = compute_entities(sample_net)
    assert first == compute_entities(sample_net)
    assert first == EntityPartition(first.place_to_entity.copy())
    singletons = EntityPartition(np.arange(sample_net.num_places))
    assert first != singletons
    assert EntityPartition(np.array([0, 1])) != EntityPartition(np.array([0, 1, 2]))


def _seeded_transactions(seed):
    rng = random.Random(seed)
    return random_transactions(rng, n_tx=rng.randint(0, 40), pool_size=rng.randint(1, 30))


# A co-input path over places 0..15 whose ids zigzag so that each hooking
# round only merges neighbouring roots: the path needs four rounds.
ZIGZAG = [0, 15, 7, 14, 3, 13, 6, 12, 1, 11, 5, 10, 2, 9, 4, 8]
ZIGZAG_TXS = [("fund", [], [f"p{i}" for i in range(16)])] + [
    (f"z{j}", [f"p{a}", f"p{b}"], ["sink"]) for j, (a, b) in enumerate(zip(ZIGZAG, ZIGZAG[1:]))
]


@pytest.mark.parametrize(
    "txs",
    [pytest.param(_seeded_transactions(seed), id=str(seed)) for seed in range(20)]
    + [pytest.param(ZIGZAG_TXS, id="zigzag")],
)
def test_matches_component_oracle(txs):
    net = build_net(txs)
    expected = coinput_components(txs, net.place_names)
    assert compute_entities(net).entities == expected


@given(tx_batches)
def test_every_input_set_within_one_entity(batch):
    txs = _batch_to_txs(batch)
    net = build_net(txs)
    partition = compute_entities(net)
    for t in range(net.num_transitions):
        owners = {partition.place_to_entity[p] for p in net.column_places("pre", t)}
        assert len(owners) <= 1


@given(tx_batches)
def test_entity_count_bound(batch):
    txs = _batch_to_txs(batch)
    net = build_net(txs)
    partition = compute_entities(net)
    assert len(partition.entities) <= net.num_places
    has_multi_input = any(len(set(i)) >= 2 for _, i, _ in txs)
    if not has_multi_input:
        assert len(partition.entities) == net.num_places


# -- entity net ---------------------------------------------------------------


def test_sample_entity_net(sample_net):
    entity = build_entity_net(sample_net, compute_entities(sample_net))
    assert np.array_equal(entity.net.pre.toarray(), SAMPLE_PRE_E)
    assert np.array_equal(entity.net.post.toarray(), SAMPLE_POST_E)
    assert entity.net.level == "entity"
    assert entity.net.sealed
    # entity 1 holds two addresses feeding one transaction, hence the 2s
    assert entity.net.pre.toarray().max() == 2


def test_entity_net_shares_transitions(sample_net):
    entity = build_entity_net(sample_net, compute_entities(sample_net))
    assert entity.net.transaction_ids == sample_net.transaction_ids


def test_all_singleton_partition_is_identity(sample_net):
    m = sample_net.num_places
    partition = EntityPartition(np.arange(m))
    entity = build_entity_net(sample_net, partition)
    assert np.array_equal(entity.net.pre.toarray(), sample_net.pre.toarray())
    assert np.array_equal(entity.net.post.toarray(), sample_net.post.toarray())


@given(tx_batches)
def test_column_sums_conserved(batch):
    txs = _batch_to_txs(batch)
    net = build_net(txs)
    entity = build_entity_net(net, compute_entities(net))
    for side in ("pre", "post"):
        address_level = net.incidence(side).toarray().sum(axis=0)
        entity_level = entity.net.incidence(side).toarray().sum(axis=0)
        assert np.array_equal(address_level, entity_level)


@pytest.mark.parametrize("seed", range(12))
def test_entity_net_matches_dense_oracle(seed):
    rng = random.Random(4000 + seed)
    # seed 0 has no transactions and seed 1 one address; the others give
    # entities two or more addresses on average, so summed entries exceed 1
    if seed < 2:
        n_tx, pool_size = 20 * seed, 1
    else:
        n_tx, pool_size = rng.randint(10, 60), rng.randint(4, 25)
    net = build_net(random_transactions(rng, n_tx=n_tx, pool_size=pool_size, max_in=4))
    k = rng.randint(1, max(net.num_places // 2, 1)) if net.num_places else 0
    labels = np.array([rng.randrange(k) for _ in range(net.num_places - k)] + list(range(k)),
                      dtype=np.int64)
    rng.shuffle(labels)
    indicator = np.zeros((net.num_places, k), dtype=np.int64)
    indicator[np.arange(net.num_places), labels] = 1
    entity_net = build_entity_net(net, EntityPartition(labels)).net
    assert entity_net.place_names == [f"e{i}" for i in range(k)]
    for side in ("pre", "post"):
        expected = indicator.T @ net.incidence(side).toarray()
        assert np.array_equal(entity_net.incidence(side).toarray(), expected)
        assert np.array_equal(entity_net.incidence(side).row_nnz_all(),
                              np.count_nonzero(expected, axis=1))
    if seed >= 2:
        assert entity_net.post.toarray().max() > 1  # summed multiplicities occur


def test_partition_mismatch_rejected(sample_net):
    m = sample_net.num_places
    wrong_length = np.zeros(m - 1, dtype=np.int64)
    gap = np.array([0, 2, 2, 3, 3, 3])  # no entity 1
    negative = np.array([0, -1, 1, 2, 3, 4])
    floats = np.zeros(m)
    bools = np.zeros(m, dtype=bool)
    two_d = np.zeros((m, 1), dtype=np.int64)
    for labels in (wrong_length, gap, negative, floats, bools, two_d):
        with pytest.raises(PartitionMismatchError):
            build_entity_net(sample_net, EntityPartition(labels))
    labels = compute_entities(sample_net).place_to_entity
    from_list = build_entity_net(sample_net, EntityPartition(labels.tolist()))
    assert np.array_equal(from_list.net.pre.toarray(),
                          build_entity_net(sample_net, EntityPartition(labels)).net.pre.toarray())


def test_cyclic_transitions_sample(sample_net):
    # a5 moves funds inside its own entity exactly once in the sample ledger
    entity = build_entity_net(sample_net, compute_entities(sample_net))
    cyclic = cyclic_transitions(entity.net)
    assert [entity.net.tx_id_of(t) for t in cyclic] == ["t5"]
    assert cyclic_transitions(sample_net) == []


@pytest.mark.parametrize("seed", range(10))
def test_cyclic_transitions_match_dense_oracle(seed):
    rng = random.Random(3000 + seed)
    txs = random_transactions(rng, n_tx=rng.randint(1, 60), pool_size=rng.randint(2, 25),
                              max_in=4)
    net = build_net(txs)
    entity_net = build_entity_net(net, compute_entities(net)).net
    pre = entity_net.pre.toarray()
    post = entity_net.post.toarray()
    expected = np.flatnonzero(((pre > 0) & (post > 0)).any(axis=0)).tolist()
    assert pre.max() > 1  # summed multiplicities occur
    assert cyclic_transitions(entity_net) == expected


def test_entity_report_ordering(sample_net):
    rows = entity_report(compute_entities(sample_net), sample_net)
    assert [r["size"] for r in rows] == [3, 1, 1, 1]
    assert rows[0]["addresses"] == ["a2", "a3", "a6"]
    # ties broken by entity index
    assert [r["entity"] for r in rows[1:]] == [0, 2, 3]
    for seed in range(10):
        rng = random.Random(4000 + seed)
        txs = random_transactions(rng, n_tx=rng.randint(1, 60), pool_size=rng.randint(2, 25))
        net = build_net(txs)
        order, _, _ = dense_replay(txs)
        components = coinput_components(txs, order)
        ranked = sorted(range(len(components)), key=lambda i: (-len(components[i]), i))
        expected = [{"entity": i, "size": len(components[i]),
                     "addresses": [order[p] for p in components[i]]} for i in ranked]
        assert entity_report(compute_entities(net), net) == expected
