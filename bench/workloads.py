"""Seeded inputs for the benchmark's two workloads, made without chainpetri.

A ledger is kept in the generator's own model: blocks of `Tx` records whose
inputs and outputs are address strings, with `None` standing for a rawblock
entry that carries no address.  `expected.py` computes every expected result
from this model, and `write_inputs` serialises it as the block files that
`chainpetri build` and the library pass read.  Both workloads hold the same
number of transactions and planted structures for every seed; the seed only
moves names, orderings and which actor takes part in which transaction.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

# Bump whenever the generated bytes change, so cached inputs are remade.
GENERATOR_VERSION = 1

WORKLOADS = ("long_chains", "cospend_rawblock")

_ODD128 = 0x9E3779B97F4A7C15F39CC0605CEDC835
_ODD256 = (_ODD128 << 128) | 0xC2B2AE3D27D4EB4F165667B19E3779F9


@dataclass(slots=True)
class Tx:
    tx_id: str
    inputs: list  # address strings; None is a rawblock input without an address
    outputs: list  # address strings; None is a script-only rawblock output
    coinbase: bool = False  # rawblock: carries one input without prev_out


@dataclass
class Ledger:
    workload: str
    fmt: str  # "canonical" or "rawblock"
    mode: str  # "lax" or "strict"
    blocks: list  # [(height, [Tx, ...]), ...] in ascending height
    planted: dict = field(default_factory=dict)


class _Names:
    """Unique, random-looking address and transaction names for one seed.

    Multiplying a counter by an odd constant is a bijection modulo a power of
    two, so names never repeat.
    """

    def __init__(self, rng: random.Random):
        self._addr_salt = rng.getrandbits(128)
        self._tx_salt = rng.getrandbits(256)
        self._addrs = 0
        self._txs = 0

    def address(self) -> str:
        self._addrs += 1
        return "1" + format(((self._addrs * _ODD128) % (1 << 128)) ^ self._addr_salt, "032x")

    def tx(self) -> str:
        self._txs += 1
        return format(((self._txs * _ODD256) % (1 << 256)) ^ self._tx_salt, "064x")


def _blocks(txs: list, block_size: int) -> list:
    return [(h, txs[i:i + block_size]) for h, i in enumerate(range(0, len(txs), block_size))]


# -- long_chains ---------------------------------------------------------------

# Peel-chain lengths are the quantiles of a Pareto law (x_min 1.5, shape
# 0.85) capped at 3,000 links, close to the paper's longest chain of 3,658:
# half the chains have at most 3 links and a few hold thousands.
LONG_CHAINS = {
    "chains": 1500,
    "pareto_shape": 0.85,
    "pareto_min": 1.5,
    "longest": 3000,
    "forks": 40,
    "branch_max": 12,
    "cospends": 60,
    "repeat_groups": 30,
    "block_size": 500,
}


def chain_lengths(chains: int, shape: float, minimum: float, longest: int) -> list[int]:
    return [
        max(1, min(longest, int(minimum * ((i + 0.5) / chains) ** (-1.0 / shape))))
        for i in range(chains)
    ]


def long_chains(seed: int, params: dict = LONG_CHAINS) -> Ledger:
    """Canonical ledger dominated by one-input/two-output peel chains.

    Each chain is funded by a coinbase, every link pays a fresh payee and
    the next disposable address, and a sweep of the last address ends it.
    A few chains fork: one link's payee is
    itself spent by a branch of chain transactions, so the chain continues
    along whichever spender has the smaller transaction id and the other
    path is bypassed.  A few co-spends of payees make small entities, and a
    service address repeats identical payments.
    """
    rng = random.Random(f"long_chains/{seed}")
    names = _Names(rng)
    lengths = chain_lengths(params["chains"], params["pareto_shape"],
                            params["pareto_min"], params["longest"])
    rng.shuffle(lengths)
    forked = set(rng.sample([i for i, n in enumerate(lengths) if n >= 3], params["forks"]))

    sequences = []  # each sequence keeps its transactions in funding order
    spendable = []  # payees: unspent addresses for the co-spends
    forks = 0
    for index, length in enumerate(lengths):
        address = names.address()
        sequence = [Tx(names.tx(), [], [address])]  # coinbase funding the chain
        fork_at = rng.randrange(length - 1) if index in forked else None
        branch = []
        for link in range(length):
            nxt, payee = names.address(), names.address()
            if link == fork_at:  # the payee opens a branch of chain transactions
                forks += 1
                branch = _branch(names, payee, 1 + forks % params["branch_max"], spendable)
            else:
                spendable.append(payee)
            outputs = [nxt, payee] if rng.random() < 0.5 else [payee, nxt]
            sequence.append(Tx(names.tx(), [address], outputs))
            address = nxt
        sequence.append(_terminator(names, address))
        if branch:
            # interleave the branch with the rest of the main path, keeping
            # each in order, so either may spend first
            head, main = sequence[:fork_at + 2], sequence[fork_at + 2:]
            sequence = head + _merge(rng, main, branch)
        sequences.append(sequence)

    service = names.address()
    repeats = []
    for group in range(params["repeat_groups"]):
        payee = names.address()
        for _ in range(2 + group % 3):
            repeats.append([Tx(names.tx(), [service], [payee])])
    sequences.extend(repeats)

    txs = [Tx(names.tx(), [], [service])]
    cursors = [0] * len(sequences)
    tokens = [i for i, s in enumerate(sequences) for _ in s]
    rng.shuffle(tokens)
    for i in tokens:
        txs.append(sequences[i][cursors[i]])
        cursors[i] += 1

    chosen = rng.sample(range(len(spendable)), params["cospends"] * 3)
    for c in range(params["cospends"]):
        inputs = [spendable[i] for i in chosen[3 * c:3 * c + rng.randint(2, 3)]]
        txs.append(Tx(names.tx(), inputs, [names.address()]))

    planted = {"chain_lengths": sorted(lengths, reverse=True), "transactions": len(txs)}
    return Ledger("long_chains", "canonical", "lax", _blocks(txs, params["block_size"]), planted)


def _branch(names: _Names, address: str, length: int, spendable: list) -> list:
    links = []
    for _ in range(length):
        nxt, payee = names.address(), names.address()
        links.append(Tx(names.tx(), [address], [payee, nxt]))
        spendable.append(payee)
        address = nxt
    return links + [_terminator(names, address)]


def _terminator(names: _Names, address: str) -> Tx:
    # one input, one output: keeps the last link's output disposable, so the
    # last link is a chain transaction, without extending the chain
    return Tx(names.tx(), [address], [names.address()])


def _merge(rng: random.Random, a: list, b: list) -> list:
    slots = [0] * len(a) + [1] * len(b)
    rng.shuffle(slots)
    ia, ib = iter(a), iter(b)
    return [next(ib) if s else next(ia) for s in slots]


# -- cospend_rawblock ----------------------------------------------------------

# Transactions per kind, besides the funding coinbases and one coinbase per
# block.  The kinds are shuffled into a fixed-size schedule, so every seed
# yields the same number of transactions.
COSPEND_RAWBLOCK = {
    "blocks": 90,
    "block_size": 400,
    "streams": 4,
    "users": 1200,
    "exchange_deposit_addresses": 1500,
    "pools": 4,
    "hubs": 10,
    "share": {  # of the non-coinbase slots; "payment" fills the remainder
        "fund": 0.05,
        "deposit": 0.20,
        "consolidate": 0.025,
        "cospend": 0.17,
        "hub_payout": 0.13,
        "repeat_payout": 0.108,
        "entity_repeat": 0.10,
    },
    "dropped": 40,  # every output script-only: conversion drops the transaction
    "addressless_spends": 20,  # only input lacks an address: recorded like a coinbase
    "rejects": 40,  # spends that strict mode rejects
}


class _Economy:
    """Running utxo counts under the binary model, as strict mode keeps them."""

    def __init__(self):
        self.utxo: dict[str, int] = {}
        self.exhausted: list[str] = []  # addresses seen to reach zero

    def apply(self, tx: Tx) -> Tx:
        spent = dict.fromkeys(a for a in tx.inputs if a is not None)
        received = dict.fromkeys(a for a in tx.outputs if a is not None)
        for a in spent:
            if a not in received:
                self.utxo[a] -= 1
                if self.utxo[a] == 0:
                    self.exhausted.append(a)
        for a in received:
            if a not in spent:
                self.utxo[a] = self.utxo.get(a, 0) + 1
        return tx

    def funded(self, addrs) -> list:
        return [a for a in addrs if self.utxo.get(a, 0) > 0]


def cospend_rawblock(seed: int, params: dict = COSPEND_RAWBLOCK) -> Ledger:
    """Strict-mode rawblock ledger of co-spends, hubs, repeats and noise.

    - Users own several addresses and co-spend overlapping pairs and triples
      of them, so entities form across many transactions.
    - An exchange hot wallet co-spends deposit addresses in batches, which
      joins thousands of addresses into one entity.
    - Hubs receive and pay out with distinct, very high activity.
    - Hubs repeat identical payouts and users pay a hub from one address with
      change to another, so repeats are more frequent at the entity level.
    - Noise: coinbase inputs without prev_out, script-only outputs, inputs
      without addresses, dropped transactions and rejected spends.
    """
    rng = random.Random(f"cospend_rawblock/{seed}")
    names = _Names(rng)
    eco = _Economy()
    p = params

    pools = [names.address() for _ in range(p["pools"])]
    hubs = [names.address() for _ in range(p["hubs"])]
    hot = names.address()
    deposits = [names.address() for _ in range(p["exchange_deposit_addresses"])]
    users = [[] for _ in range(p["users"])]
    payouts: list[tuple[str, str]] = []  # (hub, payee) pairs paid so far

    slots = p["blocks"] * (p["block_size"] - 1)
    kinds = []
    for kind, share in p["share"].items():
        kinds += [kind] * int(share * slots)
    fixed = (["dropped"] * p["dropped"] + ["addressless"] * p["addressless_spends"]
             + ["reject"] * p["rejects"])
    kinds += ["payment"] * (slots - len(kinds) - len(fixed))
    rng.shuffle(kinds)
    # fixed kinds go to the second half, when exhausted addresses exist
    half = slots // 2
    for kind in fixed:
        kinds.insert(rng.randrange(half, len(kinds) + 1), kind)
    # hubs take part with fixed, distinct weights: hub h gets weight h + 1;
    # each user pays one favourite hub in its entity_repeat transactions
    hub_turns = _weighted_turns(rng, hubs, kinds.count("cospend"))
    payout_turns = _weighted_turns(rng, hubs, kinds.count("hub_payout"))
    favourite = list(_weighted_turns(rng, hubs, len(users)))

    def user_with(k: int):
        for _ in range(64):
            u = rng.randrange(len(users))
            if len(eco.funded(users[u])) >= k:
                return u
        return None

    def new_user_address(u: int) -> str:
        a = names.address()
        users[u].append(a)
        return a

    def change_address(u: int) -> str:
        if users[u] and rng.random() < 0.6:
            return rng.choice(users[u])
        return new_user_address(u)

    def event(kind: str) -> Tx:
        tx = names.tx()
        if kind == "fund":
            pool = rng.choice(eco.funded(pools) or pools)
            outs = [new_user_address(rng.randrange(len(users))) for _ in range(8)]
            if not eco.utxo.get(pool):
                return Tx(tx, [], outs + [None], coinbase=True)
            return Tx(tx, [pool], outs + [pool])
        if kind == "deposit" and (u := user_with(1)) is not None:
            src = rng.choice(eco.funded(users[u]))
            # half the deposits go to a heavy-tailed few addresses
            if rng.random() < 0.5:
                dep = deposits[(int(rng.paretovariate(1.2)) - 1) % len(deposits)]
            else:
                dep = rng.choice(deposits)
            return Tx(tx, [src], [dep, change_address(u)])
        if kind == "consolidate":
            batch = eco.funded(deposits)
            batch = rng.sample(batch, min(len(batch), rng.randint(4, 12)))
            inputs = [hot] + batch + ([None] if rng.random() < 0.3 else [])
            return Tx(tx, inputs, [hot, new_user_address(rng.randrange(len(users)))])
        if kind == "cospend" and (u := user_with(2)) is not None:
            funded = eco.funded(users[u])
            inputs = rng.sample(funded, min(len(funded), rng.randint(2, 3)))
            return Tx(tx, inputs, [next(hub_turns), change_address(u)])
        if kind == "entity_repeat" and (u := user_with(1)) is not None and len(users[u]) >= 2:
            src = rng.choice(eco.funded(users[u]))
            change = rng.choice([a for a in users[u] if a != src])
            return Tx(tx, [src], [favourite[u], change])
        if kind == "hub_payout":
            hub = next(payout_turns)
            payee = new_user_address(rng.randrange(len(users)))
            payouts.append((hub, payee))
            outs = [payee, hub] + ([None] if rng.random() < 0.05 else [])
            return Tx(tx, [hub], outs)
        if kind == "repeat_payout" and payouts:
            hub, payee = rng.choice(payouts)
            return Tx(tx, [hub], [payee, hub])
        if kind == "dropped":
            u = user_with(1)
            inputs = [None] if u is None else [rng.choice(eco.funded(users[u]))]
            return Tx(tx, inputs, [None, None])
        if kind == "addressless":
            return Tx(tx, [None], [new_user_address(rng.randrange(len(users)))])
        if kind == "reject":
            if eco.exhausted and rng.random() < 0.5:
                gone = [a for a in eco.exhausted[-256:] if eco.utxo.get(a) == 0]
                if gone:
                    return Tx(tx, [rng.choice(gone)], [names.address()])
            return Tx(tx, [names.address()], [names.address()])
        # payment: one user pays another user's new address
        u = user_with(1)
        if u is None:
            return Tx(tx, [], [new_user_address(rng.randrange(len(users)))], coinbase=True)
        src = rng.choice(eco.funded(users[u]))
        return Tx(tx, [src], [new_user_address(rng.randrange(len(users))), change_address(u)])

    # the hot wallet, the hubs and two addresses of every user are funded
    # before the schedule starts
    txs = [eco.apply(Tx(names.tx(), [], [hot] + hubs, coinbase=True))]
    owners = [u for u in range(len(users)) for _ in range(2)]
    for i in range(0, len(owners), 8):
        outs = [new_user_address(u) for u in owners[i:i + 8]]
        txs.append(eco.apply(Tx(names.tx(), [], outs, coinbase=True)))
    for i, kind in enumerate(kinds):
        if i % (p["block_size"] - 1) == 0:
            pool = pools[(i // (p["block_size"] - 1)) % len(pools)]
            txs.append(eco.apply(Tx(names.tx(), [], [pool, None], coinbase=True)))
        tx = event(kind)
        if kind in ("dropped", "reject"):
            txs.append(tx)  # never recorded, so it moves no utxo
        else:
            txs.append(eco.apply(tx))

    block_size = math.ceil(len(txs) / p["blocks"])
    planted = {"kinds": {k: kinds.count(k) for k in sorted(set(kinds))}, "transactions": len(txs)}
    return Ledger("cospend_rawblock", "rawblock", "strict", _blocks(txs, block_size), planted)


def _weighted_turns(rng: random.Random, actors: list, total: int):
    weights = list(range(1, len(actors) + 1))
    counts = [total * w // sum(weights) for w in weights]
    counts[-1] += total - sum(counts)
    turns = [a for a, n in zip(actors, counts) for _ in range(n)]
    rng.shuffle(turns)
    return iter(turns)


GENERATORS = {"long_chains": long_chains, "cospend_rawblock": cospend_rawblock}
DEFAULTS = {"long_chains": LONG_CHAINS, "cospend_rawblock": COSPEND_RAWBLOCK}
# counts that grow with --scale; shares, lengths and block sizes stay
SCALED = {
    "long_chains": ("chains", "forks", "cospends", "repeat_groups"),
    "cospend_rawblock": ("blocks", "users", "exchange_deposit_addresses", "dropped",
                         "addressless_spends", "rejects"),
}


def generate(workload: str, seed: int, scale: float = 1.0) -> Ledger:
    params = dict(DEFAULTS[workload])
    for key in SCALED[workload]:
        params[key] = max(1, round(params[key] * scale))
    return GENERATORS[workload](seed, params)


# -- serialisation -------------------------------------------------------------


def write_inputs(ledger: Ledger, directory: str, seed: int) -> list[str]:
    """Write the ledger's block files; returns the build inputs, relative to `directory`."""
    os.makedirs(directory, exist_ok=True)
    if ledger.fmt == "canonical":
        os.makedirs(os.path.join(directory, "blocks"), exist_ok=True)
        for height, txs in ledger.blocks:
            doc = {
                "height": height,
                "transactions": [
                    {"tx_id": t.tx_id, "inputs": t.inputs, "outputs": t.outputs} for t in txs
                ],
            }
            with open(os.path.join(directory, "blocks", f"block_{height}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))
                fh.write("\n")
        return ["blocks"]

    # rawblock streams: blocks dealt to the streams in a seeded order, so
    # heights neither ascend within a stream nor across them
    rng = random.Random(f"streams/{ledger.workload}/{seed}")
    order = list(range(len(ledger.blocks)))
    rng.shuffle(order)
    count = COSPEND_RAWBLOCK["streams"]
    paths = [f"stream_{k}.ndjson" for k in range(count)]
    handles = [open(os.path.join(directory, name), "w", encoding="utf-8") for name in paths]
    try:
        for n, index in enumerate(order):
            height, txs = ledger.blocks[index]
            doc = _rawblock(rng, height, txs)
            handles[n % count].write(json.dumps(doc, separators=(",", ":")) + "\n")
    finally:
        for fh in handles:
            fh.close()
    return paths


def _rawblock(rng: random.Random, height: int, txs: list) -> dict:
    docs = []
    for t in txs:
        inputs = []
        if t.coinbase:
            script = format(height, "06x") + "0b2f503253482f"
            inputs.append({"sequence": 4294967295, "script": script})
        for a in t.inputs:
            prev = {"type": 0, "value": rng.randrange(1, 10**9)}
            if a is None:
                prev["script"] = "41" + format(rng.getrandbits(256), "064x") + "ac"
            else:
                prev["addr"] = a
            inputs.append({"prev_out": prev, "sequence": 4294967295})
        outs = []
        for n, a in enumerate(t.outputs):
            out = {"type": 0, "n": n, "value": rng.randrange(0, 10**9)}
            if a is None:
                out["script"] = "6a24aa21a9ed" + format(rng.getrandbits(128), "032x")
            else:
                out["addr"] = a
            outs.append(out)
        docs.append({"hash": t.tx_id, "ver": 1, "vin_sz": len(inputs), "vout_sz": len(outs),
                     "inputs": inputs, "out": outs})
    return {"height": height, "hash": format(rng.getrandbits(256), "064x"), "tx": docs}
