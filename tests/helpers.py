"""Independent brute-force oracles and random-net builders for the tests.

Everything here recomputes expectations from first principles (dense
replay, BFS, all-pairs comparison) so the package's sparse fast paths are
checked against a second, unrelated route.
"""

from __future__ import annotations

import io
import random
from collections import Counter

import numpy as np

from chainpetri import PlaceTransitionNet


def build_net(transactions, seal=True) -> PlaceTransitionNet:
    net = PlaceTransitionNet()
    for tx_id, inputs, outputs in transactions:
        net.record_transaction(tx_id, inputs, outputs)
    if seal:
        net.seal()
    return net


# v2 snapshot records in file order
PLACES, PLACE_OFFSETS, TXS, TX_OFFSETS, PRE_PTR, PRE_ROWS, POST_PTR, POST_ROWS = range(8)


def v2_bytes(net) -> bytes:
    buffer = io.BytesIO()
    net.save_snapshot(buffer)
    return buffer.getvalue()


def v2_split(data: bytes):
    """The magic line and the eight arrays of a v2 snapshot."""
    magic, rest = data.split(b"\n", 1)
    stream = io.BytesIO(rest)
    return magic + b"\n", [np.lib.format.read_array(stream) for _ in range(8)]


def v2_join(magic: bytes, records) -> bytes:
    buffer = io.BytesIO()
    buffer.write(magic)
    for record in records:
        np.lib.format.write_array(buffer, np.asanyarray(record), allow_pickle=True)
    return buffer.getvalue()


def v2_set_names(records, at: int, names):
    """Replace the name blob at record `at` and its offsets after it."""
    encoded = [name.encode("utf-8") for name in names]
    records[at] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    records[at + 1] = np.cumsum([0] + [len(e) for e in encoded])


def dense_replay(transactions):
    """Naive dense model of the same stream: (addr_order, pre, post)."""
    index: dict[str, int] = {}
    order: list[str] = []
    for _, inputs, outputs in transactions:
        for addr in list(inputs) + list(outputs):
            if addr not in index:
                index[addr] = len(order)
                order.append(addr)
    m, n = len(order), len(transactions)
    pre = np.zeros((m, n), dtype=np.int64)
    post = np.zeros((m, n), dtype=np.int64)
    for j, (_, inputs, outputs) in enumerate(transactions):
        for addr in set(inputs):
            pre[index[addr], j] = 1
        for addr in set(outputs):
            post[index[addr], j] = 1
    return order, pre, post


def coinput_components(transactions, addr_order):
    """BFS connected components of the co-input graph, as a partition.

    Returns entity member lists sorted ascending, ordered by smallest
    member, covering every address in `addr_order` (isolated addresses are
    singletons).
    """
    index = {addr: i for i, addr in enumerate(addr_order)}
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(addr_order))}
    for _, inputs, _ in transactions:
        ids = sorted({index[a] for a in inputs})
        for other in ids[1:]:
            adjacency[ids[0]].add(other)
            adjacency[other].add(ids[0])
    seen: set[int] = set()
    partition = []
    for start in range(len(addr_order)):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        component = []
        while queue:
            node = queue.pop()
            component.append(node)
            for peer in adjacency[node]:
                if peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
        partition.append(sorted(component))
    return partition


def allpairs_repeat_groups(pre: np.ndarray, post: np.ndarray):
    """All-pairs column comparison over dense matrices; groups of size >= 2."""
    n = pre.shape[1]
    taken = [False] * n
    groups = []
    for i in range(n):
        if taken[i]:
            continue
        group = [i]
        for j in range(i + 1, n):
            if taken[j]:
                continue
            if np.array_equal(pre[:, i], pre[:, j]) and np.array_equal(post[:, i], post[:, j]):
                group.append(j)
                taken[j] = True
        taken[i] = True
        if len(group) >= 2:
            groups.append(group)
    return groups


def simulate_strict(transactions):
    """Independent running-utxo simulation; returns (accepted, rejected) tx ids."""
    received: Counter = Counter()
    spent: Counter = Counter()
    accepted, rejected = [], []
    for tx_id, inputs, outputs in transactions:
        distinct_in = set(inputs)
        if distinct_in and any(received[a] - spent[a] <= 0 for a in distinct_in):
            rejected.append(tx_id)
            continue
        accepted.append(tx_id)
        for a in distinct_in:
            spent[a] += 1
        for a in set(outputs):
            received[a] += 1
    return accepted, rejected


def random_transactions(rng: random.Random, n_tx: int, pool_size: int,
                        repeat_bias: float = 0.2, max_in: int = 3, max_out: int = 4):
    """Random stream over a small address pool; sometimes clones an earlier
    transaction's address sets so repeat groups actually occur."""
    pool = [f"p{i}" for i in range(pool_size)]
    txs = []
    for j in range(n_tx):
        if txs and rng.random() < repeat_bias:
            _, inputs, outputs = rng.choice(txs)
            txs.append((f"x{j}", list(inputs), list(outputs)))
            continue
        inputs = rng.sample(pool, k=rng.randint(0, min(max_in, pool_size)))
        outputs = rng.sample(pool, k=rng.randint(1, min(max_out, pool_size)))
        txs.append((f"x{j}", inputs, outputs))
    return txs


def random_spend_tree(rng: random.Random, n_tx: int):
    """Mostly one-input/two-output spends of fresh outputs, so disposable
    hops branch and chain forks occur; some co-spends and address reuse."""
    txs, unspent, fresh = [], [], iter(f"f{i}" for i in range(3 * n_tx + 2))
    for j in range(n_tx):
        r = rng.random()
        if not unspent or r < 0.1:
            outs, inputs = [next(fresh), next(fresh)], []
        elif r < 0.8:
            inputs, outs = [unspent.pop(rng.randrange(len(unspent)))], [next(fresh), next(fresh)]
        elif r < 0.9 and len(unspent) >= 2:
            inputs = [unspent.pop(rng.randrange(len(unspent))) for _ in range(2)]
            outs = [next(fresh)]
        else:
            reused = rng.choice(unspent)
            inputs, outs = [reused], [next(fresh), reused]
        txs.append((f"s{j}", inputs, outs))
        unspent.extend(o for o in outs if o not in unspent)
    return txs


def walk_chains(pre: np.ndarray, post: np.ndarray):
    """Disposable sets and chains by a per-transition walk over dense matrices.

    Returns (chain transactions, starts, [(links, bypassed, address path)])
    with chains in the documented order: descending length, then first link.
    """
    def places(matrix, t):
        return set(np.flatnonzero(matrix[:, t]).tolist())

    def first(row):
        return int(np.flatnonzero(row)[0])

    disposable = {p for p in range(pre.shape[0]) if pre[p].sum() == 1 and post[p].sum() == 1}
    chain_tx = {
        t for t in range(pre.shape[1])
        if len(places(post, t)) == 2 and places(post, t) & disposable
        and len(places(pre, t)) == 1 and places(pre, t) <= disposable
    }
    starts = {t for t in chain_tx if first(post[min(places(pre, t))]) not in chain_tx}
    chains = []
    for start in sorted(starts):
        links, bypassed = [start], []
        while True:
            hops = places(post, links[-1]) & disposable
            spenders = sorted(first(pre[p]) for p in hops if first(pre[p]) in chain_tx)
            if not spenders:
                break
            links.append(spenders[0])
            bypassed.extend(spenders[1:])
        path = [min(places(pre, t)) for t in links]
        path += sorted(places(post, links[-1]) & disposable)
        chains.append((links, bypassed, path))
    chains.sort(key=lambda c: (-len(c[0]), c[0][0]))
    return chain_tx, starts, chains
