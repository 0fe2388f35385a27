"""Synthetic generator: determinism, validity, and exact ground truth."""

from __future__ import annotations

import json

import numpy as np
import pytest

from chainpetri import (
    GeneratorConfig,
    GeneratorConfigError,
    accumulate_only,
    build_chains,
    compute_entities,
    disposable_addresses,
    disposable_transactions,
    encode_block,
    generate_synthetic,
    ingest,
    repeated_groups,
)
from chainpetri.cli import main
from helpers import synth_sha256

MIXED = GeneratorConfig(
    entity_sizes=[2, 3, 6],
    chain_lengths=[1, 4, 2, 7],
    repeat_group_sizes=[2, 4],
    fillers=25,
    addresses_per_filler=2,
    block_size=16,
)


def test_empty_config_empty_stream():
    blocks, truth = generate_synthetic(GeneratorConfig(), seed=1)
    assert blocks == []
    assert truth.entity_partition == []
    assert truth.planted_chains == []
    assert truth.planted_repeat_groups == []
    assert truth.deposit_addresses == set()


def test_same_seed_byte_identical():
    first, _ = generate_synthetic(MIXED, seed=7)
    second, _ = generate_synthetic(MIXED, seed=7)
    assert [encode_block(b) for b in first] == [encode_block(b) for b in second]


# sha256 over `synth`'s block files and ground truth for MIXED, by seed; a
# change to the generator or to the block encoding that moves a byte moves these
SYNTH_SHA256 = {
    1: "2b625799c704d8afefd925797a4f373ed636b4a668302b080a99d5ef144a4646",
    2: "1acf9abfedd8d66e6509bc4c00f48d96fd1ee2540aaa8dd3040c3a3c20360ff7",
}


@pytest.mark.parametrize("seed", sorted(SYNTH_SHA256))
def test_synth_output_pinned(tmp_path, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(MIXED.as_dict()))
    out = tmp_path / "blocks"
    assert main(["--no-timestamp", "synth", "--config", str(config), "--seed", str(seed),
                 "--out", str(out)]) == 0
    assert synth_sha256(out) == SYNTH_SHA256[seed]


def test_different_seed_differs():
    first, _ = generate_synthetic(MIXED, seed=7)
    second, _ = generate_synthetic(MIXED, seed=8)
    assert [encode_block(b) for b in first] != [encode_block(b) for b in second]


def test_planned_count_matches_emitted():
    for config in (
        MIXED,
        GeneratorConfig(fillers=1),
        GeneratorConfig(fillers=2),
        GeneratorConfig(fillers=3),
        GeneratorConfig(chain_lengths=[1]),
        GeneratorConfig(entity_sizes=[2], repeat_group_sizes=[5]),
    ):
        blocks, _ = generate_synthetic(config, seed=3)
        emitted = sum(len(b.tx_ids) for b in blocks)
        assert emitted == config.planned_transactions()


def test_heights_and_block_size():
    blocks, _ = generate_synthetic(MIXED, seed=5)
    assert [b.height for b in blocks] == list(range(len(blocks)))
    assert all(len(b.tx_ids) <= MIXED.block_size for b in blocks)
    assert all(len(b.tx_ids) == MIXED.block_size for b in blocks[:-1])


def test_stream_is_strict_valid():
    blocks, _ = generate_synthetic(MIXED, seed=13)
    _, report = ingest(blocks, mode="strict")
    assert report.rejects == 0


def test_single_chain_recovery():
    blocks, truth = generate_synthetic(GeneratorConfig(chain_lengths=[3]), seed=7)
    assert len(truth.planted_chains) == 1
    assert len(truth.planted_chains[0]) == 3
    net, _ = ingest(blocks)
    sets = disposable_transactions(net, disposable_addresses(net))
    found = build_chains(net, sets)
    assert [[net.tx_id_of(t) for t in c.links] for c in found] == truth.planted_chains


@pytest.mark.parametrize("seed", range(6))
def test_ground_truth_recovered_exactly(seed):
    blocks, truth = generate_synthetic(MIXED, seed=seed)
    net, _ = ingest(blocks, mode="strict")

    partition = compute_entities(net)
    multi = {
        frozenset(net.address_of(p) for p in members)
        for members in partition.entities
        if len(members) > 1
    }
    assert multi == {frozenset(e) for e in truth.entity_partition}

    sets = disposable_transactions(net, disposable_addresses(net))
    recovered = {tuple(net.tx_id_of(t) for t in c.links) for c in build_chains(net, sets)}
    assert recovered == {tuple(c) for c in truth.planted_chains}

    groups = {
        frozenset(net.tx_id_of(t) for t in g)
        for g in repeated_groups(net).groups
    }
    assert groups == {frozenset(g) for g in truth.planted_repeat_groups}

    deposits = set(net.addresses_of(np.flatnonzero(accumulate_only(net)).tolist()))
    assert deposits == truth.deposit_addresses


def test_planted_chain_addresses_are_disposable():
    blocks, truth = generate_synthetic(GeneratorConfig(chain_lengths=[5, 2]), seed=2)
    net, _ = ingest(blocks)
    disposable = disposable_addresses(net)
    for hops in truth.chain_addresses:
        assert disposable[[net.place_of(a) for a in hops]].all()


@pytest.mark.parametrize(
    "config",
    [
        GeneratorConfig(entity_sizes=[1]),
        GeneratorConfig(entity_sizes=[-2]),
        GeneratorConfig(chain_lengths=[0]),
        GeneratorConfig(repeat_group_sizes=[1]),
        GeneratorConfig(fillers=-1),
        GeneratorConfig(fillers=1, addresses_per_filler=0),
        GeneratorConfig(block_size=0),
        GeneratorConfig(chain_lengths=[10], max_transactions=5),
        GeneratorConfig(fillers=2.5),
        GeneratorConfig(chain_lengths=[True]),
        GeneratorConfig(entity_sizes="33"),
    ],
)
def test_invalid_configs_rejected(config):
    with pytest.raises(GeneratorConfigError):
        generate_synthetic(config, seed=1)


def test_config_budget_allows_exact_fit():
    config = GeneratorConfig(chain_lengths=[3], max_transactions=5)
    blocks, _ = generate_synthetic(config, seed=1)
    assert sum(len(b.tx_ids) for b in blocks) == 5


def test_config_dict_round_trip():
    doc = MIXED.as_dict()
    assert GeneratorConfig.from_dict(doc) == MIXED


def test_config_unknown_field_rejected():
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig.from_dict({"chains": [3]})


def test_truth_as_dict_is_json_friendly():
    _, truth = generate_synthetic(MIXED, seed=4)
    doc = json.loads(json.dumps(truth.as_dict()))
    assert set(doc) == {
        "entity_partition",
        "planted_chains",
        "chain_addresses",
        "planted_repeat_groups",
        "deposit_addresses",
    }
    assert all(isinstance(chain, list) for chain in doc["planted_chains"])
