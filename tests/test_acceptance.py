"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import functools
import io
import json
import random
import subprocess
import sys
import time

import numpy as np

from chainpetri import (
    GeneratorConfig,
    build_chains,
    build_entity_net,
    ccdf,
    compute_entities,
    degree_multiset,
    disposable_addresses,
    disposable_transactions,
    encode_block,
    generate_synthetic,
    ingest,
    load_snapshot,
    repeated_groups,
    summary,
)
from chainpetri.cli import main as cli_main
from conftest import (
    SAMPLE_ENTITIES,
    SAMPLE_PRE,
    SAMPLE_PRE_E,
    SAMPLE_POST,
    SAMPLE_POST_E,
    SAMPLE_TXS,
)
from helpers import (
    allpairs_repeat_groups,
    build_net,
    coinput_components,
    dense_replay,
    random_transactions,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            import conftest

            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"ACCEPTANCE {number} {title}: FAIL"
                conftest.ACCEPTANCE_LINES.append(line)
                print(f"\n{line}")
                raise
            line = f"ACCEPTANCE {number} {title}: PASS"
            conftest.ACCEPTANCE_LINES.append(line)
            print(f"\n{line}")
        return wrapper
    return decorate


@criterion(1, "worked-example incidence matrices")
def test_criterion_1(sample_blocks):
    started = time.perf_counter()
    net, _ = ingest(sample_blocks)
    elapsed = time.perf_counter() - started
    assert np.array_equal(net.pre.toarray(), SAMPLE_PRE)
    assert np.array_equal(net.post.toarray(), SAMPLE_POST)
    assert elapsed < 1.0


@criterion(2, "worked-example entities")
def test_criterion_2(sample_net):
    partition = compute_entities(sample_net)
    names = [[sample_net.address_of(p) for p in members] for members in partition.entities]
    assert names == SAMPLE_ENTITIES
    entity = build_entity_net(sample_net, partition)
    pre = entity.net.pre.toarray()
    post = entity.net.post.toarray()
    assert np.array_equal(pre, SAMPLE_PRE_E)
    assert np.array_equal(post, SAMPLE_POST_E)
    assert pre[1, 4] == 2 and pre[1, 6] == 2  # the summed two-input columns
    assert post[1, 2] == 2


@criterion(3, "entity partition equals component oracle on 100 seeded nets")
def test_criterion_3():
    mismatches = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        txs = random_transactions(
            rng,
            n_tx=rng.randint(0, 400),
            pool_size=rng.randint(1, 200),
            max_in=4,
        )
        net = build_net(txs)
        assert net.num_places <= 200
        assert net.num_transitions <= 400
        if compute_entities(net).entities != coinput_components(txs, net.place_names):
            mismatches += 1
    assert mismatches == 0


@criterion(4, "exact chain recovery on 50 seeded synthetic blockchains")
def test_criterion_4():
    violations = 0
    for seed in range(50):
        rng = random.Random(2000 + seed)
        if seed == 0:
            lengths = [1, 50]  # pin the extremes of the 1..50 range
        else:
            lengths = [rng.randint(1, 50) for _ in range(rng.randint(1, 8))]
        config = GeneratorConfig(
            chain_lengths=lengths,
            fillers=rng.randint(0, 40),
            entity_sizes=[rng.randint(2, 5) for _ in range(rng.randint(0, 3))],
            block_size=64,
        )
        blocks, truth = generate_synthetic(config, seed=seed)
        net, _ = ingest(blocks)
        sets = disposable_transactions(net, disposable_addresses(net))
        found = build_chains(net, sets)

        recovered = {tuple(net.tx_id_of(t) for t in c.links) for c in found}
        if recovered != {tuple(c) for c in truth.planted_chains}:
            violations += 1
        for chain in found:
            for earlier, later in zip(chain.links, chain.links[1:]):
                inputs = net.column_places("pre", later)
                if len(inputs) != 1:
                    violations += 1
                    continue
                (hop,) = inputs
                if hop not in sets.addresses_d or hop not in net.column_places("post", earlier):
                    violations += 1
    assert violations == 0


@criterion(5, "repeat groups equal all-pairs oracle on 50 seeded nets")
def test_criterion_5(sample_net):
    for seed in range(50):
        rng = random.Random(3000 + seed)
        txs = random_transactions(
            rng,
            n_tx=rng.randint(0, 500),
            pool_size=rng.randint(1, 12),
            repeat_bias=0.3,
        )
        net = build_net(txs)
        assert net.num_transitions <= 500
        _, pre, post = dense_replay(txs)
        assert repeated_groups(net).groups == allpairs_repeat_groups(pre, post)

    groups = {
        frozenset(sample_net.tx_id_of(t) for t in g)
        for g in repeated_groups(sample_net).groups
    }
    assert groups == {frozenset({"t1", "t2"}), frozenset({"t4", "t6"})}


@criterion(6, "CCDF properties on 1000 generated multisets")
def test_criterion_6():
    rng = random.Random(4000)
    for trial in range(1000):
        size = rng.randint(1, 300)
        if trial % 3 == 0:
            values = [rng.randint(0, 60) for _ in range(size)]
        elif trial % 3 == 1:
            values = [min(int(rng.paretovariate(1.2)), 500) for _ in range(size)]
        else:
            values = [0] * size
        points = ccdf(values).points
        xs = [x for x, _ in points]
        ps = [p for _, p in points]
        assert all(a < b for a, b in zip(xs, xs[1:]))          # x strictly increasing
        assert all(a >= b for a, b in zip(ps, ps[1:]))          # non-increasing
        assert ps[-1] == 0.0                                    # nothing above the max
        assert points[0][0] == 0
        assert points[0][1] == sum(1 for v in values if v >= 1) / len(values)


@criterion(7, "snapshot round-trip on 20 seeded nets up to 100k transactions")
def test_criterion_7():
    sizes = [100] * 7 + [1_000] * 6 + [10_000] * 4 + [50_000] * 2 + [100_000]
    assert len(sizes) == 20
    for seed, target in enumerate(sizes):
        rng = random.Random(5000 + seed)
        config = GeneratorConfig(
            chain_lengths=[rng.randint(1, 6) for _ in range(3)],
            entity_sizes=[rng.randint(2, 4) for _ in range(2)],
            repeat_group_sizes=[2],
            fillers=max(1, target // 2),
            block_size=4096,
        )
        blocks, _ = generate_synthetic(config, seed=seed)
        assert sum(len(b.transactions) for b in blocks) <= 100_000 + 64
        net, _ = ingest(blocks)
        spots = rng.sample(range(net.num_transitions), k=min(50, net.num_transitions))
        buffer = io.BytesIO()
        net.save_snapshot(buffer)
        loaded = load_snapshot(io.BytesIO(buffer.getvalue()))

        assert summary(loaded) == summary(net)
        for side in ("pre", "post", "both"):
            assert np.array_equal(
                degree_multiset(loaded, side).counts, degree_multiset(net, side).counts
            )
        # column_places equality for every transition, via the compressed
        # column structures, plus spot checks through the set API
        for side in ("pre", "post"):
            a = net.incidence(side).tocsc()
            b = loaded.incidence(side).tocsc()
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
        for t in spots:
            assert net.column_places("pre", t) == loaded.column_places("pre", t)
            assert net.column_places("post", t) == loaded.column_places("post", t)


PERF_SCRIPT = """
import json, resource, sys, time
import chainpetri as cp

config = cp.GeneratorConfig(
    entity_sizes=[4] * 1000,
    chain_lengths=[3] * 50_000,
    repeat_group_sizes=[3] * 500,
    fillers=375_000,
    addresses_per_filler=1,
    block_size=5000,
)
blocks, _ = cp.generate_synthetic(config, seed=8)

started = time.perf_counter()
net, report = cp.ingest(blocks, mode="lax")
ingest_seconds = time.perf_counter() - started

started = time.perf_counter()
partition = cp.compute_entities(net)
entity_seconds = time.perf_counter() - started

print(json.dumps({
    "transactions": report.transactions,
    "addresses": report.addresses,
    "entities": len(partition.entities),
    "ingest_seconds": ingest_seconds,
    "entity_seconds": entity_seconds,
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
}))
"""


@criterion(8, "1M-transaction ingest < 60s / < 2GB, entities < 30s")
def test_criterion_8():
    # Separate process so the resident-memory peak measures this pipeline
    # alone, not the rest of the test session.
    proc = subprocess.run(
        [sys.executable, "-c", PERF_SCRIPT],
        capture_output=True,
        text=True,
        timeout=580,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    print(
        f"\n  ingest+seal {result['ingest_seconds']:.1f}s, "
        f"entities {result['entity_seconds']:.1f}s, "
        f"peak {result['peak_rss_bytes'] / 1e9:.2f} GB",
        end="",
    )
    assert result["transactions"] >= 1_000_000
    assert 1_100_000 <= result["addresses"] <= 1_300_000
    assert result["ingest_seconds"] < 60.0
    assert result["entity_seconds"] < 30.0
    assert result["peak_rss_bytes"] < 2_000_000_000


def _rawblock_prefix():
    """A small ledger in the external rawblock shape, with realistic noise:
    coinbases, co-spends, a disposable hop, a repeated pair, and one
    script-only output that carries no address."""
    def tx(tx_id, inputs, outputs, extra_out=None):
        ins = [{"prev_out": {"addr": a}} for a in inputs] if inputs else [{}]
        outs = [{"addr": a} for a in outputs]
        if extra_out:
            outs.append(extra_out)
        return {"hash": tx_id, "inputs": ins, "out": outs}

    return [
        {"height": 0, "tx": [tx("cb0", [], ["miner0"])]},
        {"height": 1, "tx": [
            tx("cb1", [], ["miner1"]),
            tx("pay1", ["miner0"], ["alice", "miner0c"]),
        ]},
        {"height": 2, "tx": [
            tx("cb2", [], ["miner2"]),
            tx("pay2", ["miner1"], ["bob", "carol"]),
            tx("hop", ["alice"], ["alice2", "dave"], extra_out={"script": "6a00"}),
        ]},
        {"height": 3, "tx": [
            tx("cb3", [], ["miner3"]),
            tx("join", ["bob", "carol"], ["erin"]),
            tx("rep_a", ["miner2"], ["frank", "grace"]),
        ]},
        {"height": 4, "tx": [
            tx("cb4", [], ["miner4"]),
            tx("rep_b", ["miner2"], ["frank", "grace"]),
            tx("sweep", ["alice2"], ["heidi"]),
        ]},
    ]


@criterion(9, "rawblock prefix runs end-to-end with all invariants")
def test_criterion_9(tmp_path):
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    for block in _rawblock_prefix():
        (raw_dir / f"block_{block['height']}.json").write_text(json.dumps(block))

    snapshot = tmp_path / "net.json"
    assert cli_main(["build", str(raw_dir), "--format", "rawblock",
                     "--out", str(snapshot)]) == 0
    for argv in (
        ["entities", str(snapshot), "--out", str(tmp_path / "entities")],
        ["chains", str(snapshot), "--out", str(tmp_path / "chains")],
        ["stats", str(snapshot), "--out", str(tmp_path / "stats")],
        ["stats", str(snapshot), "--level", "entity", "--out", str(tmp_path / "estats")],
        ["repeats", str(snapshot)],
        ["top", str(snapshot), "--k", "5"],
    ):
        assert cli_main(argv) == 0

    # invariant suites (criteria 3-6 checks) on the resulting net
    net = load_snapshot(snapshot)
    from chainpetri import convert_rawblock
    txs = []
    for block in _rawblock_prefix():
        converted, _ = convert_rawblock(json.dumps(block))
        txs.extend((t.tx_id, t.inputs, t.outputs) for t in converted.transactions)

    assert compute_entities(net).entities == coinput_components(txs, net.place_names)

    sets = disposable_transactions(net, disposable_addresses(net))
    for chain in build_chains(net, sets):
        assert chain.links[0] in sets.starts_d
        for earlier, later in zip(chain.links, chain.links[1:]):
            (hop,) = net.column_places("pre", later)
            assert hop in net.column_places("post", earlier)

    _, pre, post = dense_replay(txs)
    assert repeated_groups(net).groups == allpairs_repeat_groups(pre, post)
    groups = {frozenset(net.tx_id_of(t) for t in g) for g in repeated_groups(net).groups}
    assert frozenset({"rep_a", "rep_b"}) in groups

    for side in ("pre", "post", "both"):
        points = ccdf(degree_multiset(net, side)).points
        ps = [p for _, p in points]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert ps[-1] == 0.0

    # the disposable hop is found: alice received once (pay1), spent once (hop)
    assert net.place_of("alice") in sets.addresses_d
    chains_found = build_chains(net, sets)
    assert [net.tx_id_of(t) for c in chains_found for t in c.links].count("hop") == 1
