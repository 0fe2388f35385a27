"""Disposable addresses, chain transactions, and chain reconstruction."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from chainpetri import (
    ChainIntegrityError,
    DisposableSets,
    EntityPartition,
    GeneratorConfig,
    NetNotSealedError,
    PlaceTransitionNet,
    accumulate_only,
    build_chains,
    build_entity_net,
    chain_report,
    compute_entities,
    cyclic_transitions,
    degree_multiset,
    disposable_addresses,
    disposable_transactions,
    generate_synthetic,
    ingest,
    repeated_groups,
    summary,
    top_k_active,
)
from conftest import SAMPLE_TXS
from helpers import build_net, mask, random_spend_tree, walk_chains


def _pipeline(net):
    sets = disposable_transactions(net, disposable_addresses(net))
    return sets, build_chains(net, sets)


# -- disposable addresses -------------------------------------------------------


def test_sample_disposables(sample_net):
    # a3 and a6 are the only places received exactly once and spent exactly
    # once; a1 receives twice (two coinbases), so it does not qualify
    disposable = disposable_addresses(sample_net)
    assert sample_net.addresses_of(np.flatnonzero(disposable).tolist()) == ["a3", "a6"]


def test_empty_net():
    net = PlaceTransitionNet().seal()
    assert disposable_addresses(net).tolist() == []
    sets = disposable_transactions(net, np.zeros(0, dtype=bool))
    assert sets.transactions_d.tolist() == []
    assert sets.starts_d.tolist() == []
    assert build_chains(net, sets) == []


# every analysis of a sealed net; the sealed rule is enforced by the net alone
SEALED_ONLY = {
    "disposable_addresses": disposable_addresses,
    # masks of the wrong size: the sealed check must come first
    "disposable_transactions": lambda net: disposable_transactions(net, np.zeros(0, dtype=bool)),
    "build_chains": lambda net: build_chains(net, DisposableSets(*[np.zeros(0, dtype=bool)] * 3)),
    "compute_entities": compute_entities,
    # a partition of the wrong size: the sealed check must come first
    "build_entity_net": lambda net: build_entity_net(net, EntityPartition(np.zeros(0, int))),
    "cyclic_transitions": cyclic_transitions,
    "degree_multiset": lambda net: degree_multiset(net, "both"),
    "top_k_active": lambda net: top_k_active(net, 1),
    "accumulate_only": accumulate_only,
    "repeated_groups": repeated_groups,
    "summary": summary,
}


@pytest.mark.parametrize("analysis", SEALED_ONLY.values(), ids=SEALED_ONLY.keys())
def test_requires_sealed(analysis):
    net = build_net(SAMPLE_TXS, seal=False)
    with pytest.raises(NetNotSealedError):
        analysis(net)


def test_planted_chain_addresses_found():
    blocks, truth = generate_synthetic(GeneratorConfig(chain_lengths=[6]), seed=3)
    net, _ = ingest(blocks)
    disposable = disposable_addresses(net)
    assert disposable[[net.place_of(a) for a in truth.chain_addresses[0]]].all()


# -- disposable transactions ------------------------------------------------------


def test_sample_has_no_chain_transactions(sample_net):
    # t3 has three outputs; t5 and t7 have two inputs
    sets = disposable_transactions(sample_net, disposable_addresses(sample_net))
    assert not sets.transactions_d.any()
    assert not sets.starts_d.any()


def test_single_chain_sets():
    blocks, _ = generate_synthetic(GeneratorConfig(chain_lengths=[3]), seed=5)
    net, _ = ingest(blocks)
    sets = disposable_transactions(net, disposable_addresses(net))
    assert np.count_nonzero(sets.transactions_d) == 3
    assert np.count_nonzero(sets.starts_d) == 1
    assert not (sets.starts_d & ~sets.transactions_d).any()


def test_coinbase_only():
    net = build_net([("c1", [], ["A"]), ("c2", [], ["B", "C"])])
    sets = disposable_transactions(net, disposable_addresses(net))
    assert sets.transactions_d.tolist() == [False, False]
    assert sets.starts_d.tolist() == [False, False]


# -- chain building ----------------------------------------------------------------


def test_planted_chains_recovered_in_order():
    blocks, truth = generate_synthetic(
        GeneratorConfig(chain_lengths=[3, 5, 2]), seed=11
    )
    net, _ = ingest(blocks)
    _, found = _pipeline(net)
    assert [len(c.links) for c in found] == [5, 3, 2]  # sorted by descending length
    recovered = {tuple(net.tx_id_of(t) for t in c.links) for c in found}
    assert recovered == {tuple(c) for c in truth.planted_chains}


def test_length_one_chains_kept():
    blocks, truth = generate_synthetic(GeneratorConfig(chain_lengths=[1, 1]), seed=9)
    net, _ = ingest(blocks)
    _, found = _pipeline(net)
    assert sorted(len(c.links) for c in found) == [1, 1]
    assert {net.tx_id_of(c.links[0]) for c in found} == {c[0] for c in truth.planted_chains}


def test_links_increase_and_are_disjoint():
    blocks, _ = generate_synthetic(
        GeneratorConfig(chain_lengths=[4, 7, 1, 3], fillers=20), seed=21
    )
    net, _ = ingest(blocks)
    _, found = _pipeline(net)
    seen = set()
    for chain in found:
        assert chain.links == sorted(chain.links)
        assert not (set(chain.links) & seen)
        seen.update(chain.links)


def test_link_invariant():
    # successor's sole input must be a disposable output of its predecessor
    blocks, _ = generate_synthetic(GeneratorConfig(chain_lengths=[5, 8]), seed=31)
    net, _ = ingest(blocks)
    sets, found = _pipeline(net)
    for chain in found:
        assert sets.starts_d[chain.links[0]]
        for earlier, later in zip(chain.links, chain.links[1:]):
            inputs = net.column_places("pre", later)
            assert len(inputs) == 1
            (hop,) = inputs
            assert sets.addresses_d[hop]
            assert hop in net.column_places("post", earlier)


def _fork_net():
    # start spends f and pays two disposable addresses, both spent by
    # chain-shaped transactions; the smaller transition id must win
    return build_net(
        [
            ("fund", [], ["f", "pad"]),
            ("start", ["f"], ["left", "right"]),
            ("take_left", ["left"], ["l2", "lc"]),
            ("take_right", ["right"], ["r2", "rc"]),
            ("end_left", ["l2"], ["zl"]),
            ("end_right", ["r2"], ["zr"]),
        ]
    )


def test_next_ambiguity_prefers_smaller_id_and_records_bypassed():
    net = _fork_net()
    sets, found = _pipeline(net)
    assert sets.transactions_d[net.transition_of("take_left")]
    assert sets.transactions_d[net.transition_of("take_right")]
    main = found[0]
    assert [net.tx_id_of(t) for t in main.links] == ["start", "take_left"]
    assert [net.tx_id_of(t) for t in main.bypassed] == ["take_right"]
    # the bypassed branch is not a start (its funder is a chain transaction)
    assert not sets.starts_d[net.transition_of("take_right")]


def test_doctored_starts_raise_integrity_error():
    net = _fork_net()
    sets = disposable_transactions(net, disposable_addresses(net))
    doctored = DisposableSets(
        sets.addresses_d,
        sets.transactions_d,
        sets.starts_d | mask(net.num_transitions, [net.transition_of("take_left")]),
    )
    with pytest.raises(ChainIntegrityError):
        build_chains(net, doctored)


def test_multiply_spent_place_follows_smallest_spender():
    # x is spent twice, so it is not disposable; sets that list it anyway
    # follow only its smallest spender, and drop x when that one is no link
    net = build_net(
        [
            ("fund", [], ["a"]),
            ("link", ["a"], ["x", "y"]),
            ("small", ["x"], ["p", "q"]),
            ("big", ["x"], ["r", "s"]),
        ]
    )
    t = {name: net.transition_of(name) for name in ("link", "small", "big")}
    places = mask(net.num_places, [net.place_of("a"), net.place_of("x")])
    start = mask(net.num_transitions, [t["link"]])
    found = build_chains(net, DisposableSets(places, mask(net.num_transitions, t.values()), start))
    assert [(c.links, c.bypassed) for c in found] == [([t["link"], t["small"]], [])]
    chain_tx = mask(net.num_transitions, [t["link"], t["big"]])
    found = build_chains(net, DisposableSets(places, chain_tx, start))
    assert [(c.links, c.bypassed) for c in found] == [([t["link"]], [])]


def test_cycle_guard():
    # x and y fund each other; forcing one of them in as a start would loop
    net = build_net(
        [
            ("a", ["y"], ["x", "ca"]),
            ("b", ["x"], ["y", "cb"]),
        ]
    )
    disposable = disposable_addresses(net)
    sets = disposable_transactions(net, disposable)
    assert sets.transactions_d.tolist() == [True, True]
    assert not sets.starts_d.any()  # a cycle has no start, so no chains
    assert build_chains(net, sets) == []
    forced = DisposableSets(sets.addresses_d, sets.transactions_d, mask(2, [0]))
    with pytest.raises(ChainIntegrityError):
        build_chains(net, forced)

    # the same unreached cycle beside a real chain: the chain comes back alone
    net = build_net(
        [
            ("a", ["y"], ["x", "ca"]),
            ("b", ["x"], ["y", "cb"]),
            ("fund", [], ["f"]),
            ("s1", ["f"], ["g", "c1"]),
            ("s2", ["g"], ["h", "c2"]),
            ("end", ["h"], ["z"]),
        ]
    )
    sets, found = _pipeline(net)
    assert sets.transactions_d.tolist() == [True, True, False, True, True, False]
    assert [(c.links, c.bypassed) for c in found] == [([3, 4], [])]

    # two chain links pay p, which a third link spends; p has two payers, so
    # only hand-made masks can list it as disposable
    net = build_net(
        [
            ("fa", [], ["a"]),
            ("fb", [], ["b"]),
            ("A", ["a"], ["p", "ca"]),
            ("B", ["b"], ["p", "cb"]),
            ("C", ["p"], ["z1", "z2"]),
        ]
    )
    links = [net.transition_of(name) for name in ("A", "B", "C")]
    hand_made = DisposableSets(
        mask(net.num_places, [net.place_of(name) for name in ("a", "b", "p")]),
        mask(net.num_transitions, links),
        mask(net.num_transitions, links[:2]),
    )
    with pytest.raises(ChainIntegrityError):
        build_chains(net, hand_made)


def test_build_chains_deterministic():
    blocks, _ = generate_synthetic(GeneratorConfig(chain_lengths=[3, 3, 2], fillers=10), seed=29)
    net, _ = ingest(blocks)
    sets = disposable_transactions(net, disposable_addresses(net))
    first = [(c.links, c.bypassed) for c in build_chains(net, sets)]
    second = [(c.links, c.bypassed) for c in build_chains(net, sets)]
    assert first == second


def test_chain_report_matches_truth():
    blocks, truth = generate_synthetic(GeneratorConfig(chain_lengths=[4]), seed=17)
    net, _ = ingest(blocks)
    _, found = _pipeline(net)
    rows = chain_report(net, found)
    assert rows[0]["length"] == 4
    assert rows[0]["transactions"] == truth.planted_chains[0]
    assert rows[0]["addresses"] == truth.chain_addresses[0]


def test_report_sorted_by_descending_length():
    blocks, _ = generate_synthetic(GeneratorConfig(chain_lengths=[2, 6, 4]), seed=19)
    net, _ = ingest(blocks)
    _, found = _pipeline(net)
    rows = chain_report(net, found)
    assert [r["length"] for r in rows] == [6, 4, 2]


def test_chains_match_walk_oracle():
    forks = disordered = 0
    for seed, shuffled in itertools.product(range(20), (False, True)):
        rng = random.Random(4000 + seed)
        txs = random_spend_tree(rng, n_tx=rng.randint(1, 150))
        if shuffled:
            # recorded out of spending order, so links run against id order
            rng.shuffle(txs)
        net = build_net(txs)
        sets, found = _pipeline(net)
        chain_tx, starts, expected = walk_chains(net.pre.toarray(), net.post.toarray())
        assert np.array_equal(sets.transactions_d, mask(net.num_transitions, chain_tx))
        assert np.array_equal(sets.starts_d, mask(net.num_transitions, starts))
        assert [(c.links, c.bypassed) for c in found] == [(l, b) for l, b, _ in expected]
        rows = chain_report(net, found)
        assert [r["addresses"] for r in rows] == [
            [net.address_of(p) for p in path] for _, _, path in expected
        ]
        forks += sum(len(c.bypassed) for c in found)
        disordered += sum(c.links != sorted(c.links) for c in found)
    assert forks > 0  # the seeded trees do exercise the smaller-id rule
    assert disordered > 0  # and the shuffled ones chains out of id order
