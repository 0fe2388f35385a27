"""The direct writers of entities.json and chains.json against `json.dumps` of the reports."""

from __future__ import annotations

import io
import json
import random

import pytest

import chainpetri.net
from chainpetri import (
    GeneratorConfig,
    PlaceTransitionNet,
    build_chains,
    chain_report,
    compute_entities,
    disposable_addresses,
    disposable_transactions,
    entity_report,
    generate_synthetic,
    ingest,
    write_chain_report,
    write_entity_report,
)
from chainpetri.cli import main
from chainpetri.entities import EntityPartition
from helpers import build_net, random_spend_tree, random_transactions

# names that json escapes, or writes as they are under ensure_ascii=False; a net
# holds no lone surrogate, which UTF-8 cannot encode
AWKWARD = ['q"uote', "back\\slash", "new\nline", "tab\tcr\r", "\x00nul\x1fus\x7f",
           "\u2028line\u2029para", "café", "日本", "astral\U0001f600"]


class _WriteLog:
    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str):
        self.writes.append(text)


def _dumped(rows) -> str:
    return json.dumps(rows, indent=2, ensure_ascii=False) + "\n"


def _written(write, *args) -> str:
    fh = io.StringIO()
    write(fh, *args)
    return fh.getvalue()


def _chains(net):
    return build_chains(net, disposable_transactions(net, disposable_addresses(net)))


def _assert_writers_match(net):
    partition, chains = compute_entities(net), _chains(net)
    assert _written(write_entity_report, partition, net) == _dumped(entity_report(partition, net))
    assert _written(write_chain_report, net, chains) == _dumped(chain_report(net, chains))
    return partition, chains


def _renamed(txs):
    """The transactions with every address and id made awkward for JSON."""
    def name(text):
        return AWKWARD[sum(map(ord, text)) % len(AWKWARD)] + text

    return [(name(t), [name(a) for a in ins], [name(a) for a in outs]) for t, ins, outs in txs]


@pytest.mark.parametrize("seed", range(4))
def test_synthetic_nets(seed):
    config = GeneratorConfig(entity_sizes=[300, 40, 7, 2], chain_lengths=[12, 5, 5, 1],
                             repeat_group_sizes=[3, 2], fillers=200, addresses_per_filler=2,
                             block_size=50)
    net, _ = ingest(generate_synthetic(config, seed=seed)[0])
    partition, chains = _assert_writers_match(net)
    assert max(map(len, partition.entities)) >= 300
    assert len(chains) >= 4


def test_fork_heavy_chain_nets():
    forks = 0
    for seed in range(20):
        rng = random.Random(5000 + seed)
        net = build_net(random_spend_tree(rng, n_tx=rng.randint(1, 200)))
        _, chains = _assert_writers_match(net)
        forks += sum(len(chain.bypassed) for chain in chains)
    assert forks > 0


def test_random_co_spend_nets():
    for seed in range(10):
        rng = random.Random(6000 + seed)
        _assert_writers_match(build_net(random_transactions(rng, rng.randint(1, 80), 30)))


def test_names_that_need_escaping():
    net = build_net(_renamed(random_spend_tree(random.Random(7), n_tx=150)))
    partition, chains = _assert_writers_match(net)
    text = _written(write_chain_report, net, chains) + _written(write_entity_report, partition, net)
    for awkward in AWKWARD:
        assert json.dumps(awkward, ensure_ascii=False)[1:-1] in text


def test_empty_net_writes_empty_arrays():
    net = PlaceTransitionNet().seal()
    assert _written(write_entity_report, compute_entities(net), net) == "[]\n"
    assert _written(write_chain_report, net, []) == "[]\n"


def test_entities_without_chains(sample_net):
    partition, chains = _assert_writers_match(sample_net)
    assert chains == []
    assert len(entity_report(partition, sample_net)) == 4


def test_unused_entity_label_writes_an_empty_entity(sample_net):
    # labels 0 and 2 are used, 1 is not: entity 1 has no members
    partition = EntityPartition([0, 2, 2, 0, 0, 2])
    rows = entity_report(partition, sample_net)
    assert rows[-1] == {"entity": 1, "size": 0, "addresses": []}
    assert _written(write_entity_report, partition, sample_net) == _dumped(rows)


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 8, 13])
def test_rows_split_across_writes(monkeypatch, limit):
    monkeypatch.setattr(chainpetri.net, "_STRINGS_PER_WRITE", limit)
    config = GeneratorConfig(entity_sizes=[9, 3], chain_lengths=[6, 2, 2, 1], fillers=14)
    net, _ = ingest(generate_synthetic(config, seed=limit)[0])
    _assert_writers_match(net)
    _assert_writers_match(build_net(random_spend_tree(random.Random(limit), n_tx=60)))


def _row_spans(rows):
    """Where each row's text lies in the dumped file."""
    spans, pos = [], len("[\n")
    for row in rows:
        length = len(json.dumps([row], indent=2, ensure_ascii=False)) - len("[\n\n]")
        spans.append((pos, pos + length))
        pos += length + len(",\n")
    return spans


def _assert_bounded(writes, rows, strings, limit):
    """Each write holds one row, or rows whose strings plus one per row stay within `limit`."""
    assert "".join(writes) == _dumped(rows)
    spans, start = _row_spans(rows), 0
    for write in writes:
        end = start + len(write)
        held = [i for i, (lo, hi) in enumerate(spans) if lo < end and hi > start]
        assert len(held) == 1 or sum(strings[i] + 1 for i in held) <= limit
        start = end
    # one write of the whole file would hold more
    assert len(rows) > 1 and sum(strings) + len(rows) > limit


def test_entity_writes_are_bounded():
    config = GeneratorConfig(entity_sizes=[40, 5], fillers=5000, block_size=1000)
    net, _ = ingest(generate_synthetic(config, seed=3)[0])
    partition = compute_entities(net)
    log = _WriteLog()
    write_entity_report(log, partition, net)
    rows = entity_report(partition, net)
    _assert_bounded(log.writes, rows, [row["size"] for row in rows],
                    chainpetri.net._STRINGS_PER_WRITE)


def test_chain_writes_are_bounded(monkeypatch):
    monkeypatch.setattr(chainpetri.net, "_STRINGS_PER_WRITE", 20)
    # some chains hold more strings than one write allows, most fewer
    config = GeneratorConfig(chain_lengths=[15, 9, 4, 3, 3, 2, 2, 1, 1, 1], fillers=5)
    net, _ = ingest(generate_synthetic(config, seed=4)[0])
    chains = _chains(net)
    log = _WriteLog()
    write_chain_report(log, net, chains)
    rows = chain_report(net, chains)
    _assert_bounded(log.writes, rows, [row["length"] + len(row["addresses"]) for row in rows], 20)


def _cli_reports(tmp_path, blocks: str):
    (tmp_path / "blocks.json").write_text(blocks)
    snapshot, out = tmp_path / "net.snapshot", tmp_path / "out"
    assert main(["build", str(tmp_path / "blocks.json"), "--out", str(snapshot)]) == 0
    assert main(["entities", str(snapshot), "--out", str(out)]) == 0
    assert main(["chains", str(snapshot), "--out", str(out)]) == 0
    return [(out / name).read_text(encoding="utf-8") for name in ("entities.json", "chains.json")]


def test_cli_empty_ledger_writes_empty_arrays(tmp_path):
    assert _cli_reports(tmp_path, '{"height": 0, "transactions": []}') == ["[]\n", "[]\n"]


def test_cli_files_match_library_reports(tmp_path):
    txs = _renamed(random_spend_tree(random.Random(11), n_tx=120))
    block = {"height": 0, "transactions": [
        {"tx_id": t, "inputs": ins, "outputs": outs} for t, ins, outs in txs]}
    entities, chains = _cli_reports(tmp_path, json.dumps(block))
    net = build_net(txs)
    partition, found = compute_entities(net), _chains(net)
    assert entities == _dumped(entity_report(partition, net))
    assert chains == _dumped(chain_report(net, found))
    assert found
