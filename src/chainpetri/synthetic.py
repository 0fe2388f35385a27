"""Seeded synthetic blockchain generator with exact ground truth.

The generator plants three detectable structures -- co-spending entity
clusters, disposable-address chains, and repeated-transaction groups --
plus filler traffic, and guarantees that nothing else in the stream
triggers the detectors:

* every spend references addresses funded by strictly earlier
  transactions (streams pass strict-mode ingestion);
* filler and repeat inputs are funded twice or spent repeatedly, so they
  are never disposable and cannot open accidental chains;
* every coinbase output set is unique (fresh padding addresses), so no
  accidental repeat groups arise;
* each planted chain ends in a one-input/one-output terminator, which
  keeps the last link's output disposable without extending the chain.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields

from .errors import GeneratorConfigError
from .net import Block


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(slots=True)
class GeneratorConfig:
    """Sizes of the planted structures; see `generate_synthetic`."""

    entity_sizes: list[int] = field(default_factory=list)
    chain_lengths: list[int] = field(default_factory=list)
    repeat_group_sizes: list[int] = field(default_factory=list)
    fillers: int = 0
    addresses_per_filler: int = 1
    block_size: int = 1000
    max_transactions: int | None = None

    def validate(self):
        for name in ("entity_sizes", "chain_lengths", "repeat_group_sizes"):
            values = getattr(self, name)
            if not isinstance(values, list) or not all(_is_int(v) for v in values):
                raise GeneratorConfigError(f"{name} must be a list of integers")
        for name in ("fillers", "addresses_per_filler", "block_size"):
            if not _is_int(getattr(self, name)):
                raise GeneratorConfigError(f"{name} must be an integer")
        if self.max_transactions is not None and not _is_int(self.max_transactions):
            raise GeneratorConfigError("max_transactions must be an integer or null")
        for size in self.entity_sizes:
            if size < 2:
                raise GeneratorConfigError(
                    f"entity sizes must be >= 2 (a co-spending cluster), got {size}"
                )
        for length in self.chain_lengths:
            if length < 1:
                raise GeneratorConfigError(f"chain lengths must be >= 1, got {length}")
        for size in self.repeat_group_sizes:
            if size < 2:
                raise GeneratorConfigError(
                    f"repeat group sizes must be >= 2 (a repetition), got {size}"
                )
        if self.fillers < 0:
            raise GeneratorConfigError("fillers must be >= 0")
        if self.addresses_per_filler < 1:
            raise GeneratorConfigError("addresses_per_filler must be >= 1")
        if self.block_size < 1:
            raise GeneratorConfigError("block_size must be >= 1")

    def planned_transactions(self) -> int:
        total = sum(2 for _ in self.entity_sizes)
        total += sum(2 * k for k in self.repeat_group_sizes)
        total += sum(length + 2 for length in self.chain_lengths)
        if self.fillers:
            funding = 2 * self.fillers if self.fillers < 3 else self.fillers
            total += funding + self.fillers
        return total

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        unknown = doc.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise GeneratorConfigError(f"unknown config field(s) {sorted(unknown)}")
        return cls(**doc)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class SyntheticGroundTruth:
    """Exactly what was planted, in the detectors' own terms."""

    entity_partition: list[set[str]] = field(default_factory=list)
    planted_chains: list[list[str]] = field(default_factory=list)
    chain_addresses: list[list[str]] = field(default_factory=list)
    planted_repeat_groups: list[set[str]] = field(default_factory=list)
    deposit_addresses: set[str] = field(default_factory=set)

    def as_dict(self) -> dict:
        return {
            "entity_partition": [sorted(e) for e in self.entity_partition],
            "planted_chains": [list(c) for c in self.planted_chains],
            "chain_addresses": [list(c) for c in self.chain_addresses],
            "planted_repeat_groups": [sorted(g) for g in self.planted_repeat_groups],
            "deposit_addresses": sorted(self.deposit_addresses),
        }


class _Minter:
    """Deterministic unique address / tx-id strings (random-looking prefix)."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._addr_n = 0
        self._tx_n = 0

    def addr(self) -> str:
        self._addr_n += 1
        return f"a{self._rng.getrandbits(32):08x}{self._addr_n:07d}"

    def tx_id(self) -> str:
        self._tx_n += 1
        return f"{self._rng.getrandbits(32):08x}{self._tx_n:07d}"


def generate_synthetic(config: GeneratorConfig, seed: int) -> tuple[list[Block], SyntheticGroundTruth]:
    """Emit a deterministic block stream plus the ground truth it realizes.

    Same (config, seed) always yields byte-identical streams.  The stream is
    temporally valid, so it also passes strict-mode ingestion.
    """
    config.validate()
    planned = config.planned_transactions()
    if config.max_transactions is not None and planned > config.max_transactions:
        raise GeneratorConfigError(
            f"config plans {planned} transactions, over the budget of "
            f"{config.max_transactions}"
        )

    rng = random.Random(seed)
    mint = _Minter(rng)
    truth = SyntheticGroundTruth()
    units: list[list[tuple]] = []

    for size in config.entity_sizes:
        units.append(_entity_unit(size, mint, rng, truth))
    for size in config.repeat_group_sizes:
        units.append(_repeat_unit(size, mint, truth))
    for length in config.chain_lengths:
        units.append(_chain_unit(length, mint, rng, truth))
    if config.fillers:
        units.append(_filler_unit(config.fillers, config.addresses_per_filler, mint, truth))

    stream = _interleave(units, rng)
    blocks = [
        Block.of(height, stream[i:i + config.block_size])
        for height, i in enumerate(range(0, len(stream), config.block_size))
    ]
    return blocks, truth


def _entity_unit(size, mint, rng, truth) -> list[tuple]:
    # One coinbase funds all members; one transaction co-spends them,
    # which is exactly what the shared-input clustering detects.
    members = [mint.addr() for _ in range(size)]
    outs = [mint.addr(), mint.addr()]
    spend_inputs = list(members)
    rng.shuffle(spend_inputs)
    truth.entity_partition.append(set(members))
    truth.deposit_addresses.update(outs)
    return [
        (mint.tx_id(), [], members),
        (mint.tx_id(), spend_inputs, outs),
    ]


def _repeat_unit(size, mint, truth) -> list[tuple]:
    # The spender address is funded `size` times and spent `size` times, so
    # it is never disposable; padding keeps the funding coinbases distinct.
    spender = mint.addr()
    outs = [mint.addr(), mint.addr()]
    records = []
    for _ in range(size):
        pad = mint.addr()
        truth.deposit_addresses.add(pad)
        records.append((mint.tx_id(), [], [spender, pad]))
    group = []
    for _ in range(size):
        tx_id = mint.tx_id()
        group.append(tx_id)
        records.append((tx_id, [spender], outs))
    truth.planted_repeat_groups.append(set(group))
    truth.deposit_addresses.update(outs)
    return records


def _chain_unit(length, mint, rng, truth) -> list[tuple]:
    hops = [mint.addr() for _ in range(length + 1)]
    pad = mint.addr()
    records = [(mint.tx_id(), [], [hops[0], pad])]
    truth.deposit_addresses.add(pad)
    link_ids = []
    for i in range(length):
        change = mint.addr()
        truth.deposit_addresses.add(change)
        outputs = [hops[i + 1], change]
        rng.shuffle(outputs)
        tx_id = mint.tx_id()
        link_ids.append(tx_id)
        records.append((tx_id, [hops[i]], outputs))
    terminal = mint.addr()
    truth.deposit_addresses.add(terminal)
    records.append((mint.tx_id(), [hops[-1]], [terminal]))
    truth.planted_chains.append(link_ids)
    truth.chain_addresses.append(list(hops))
    return records


def _filler_unit(count, per_filler, mint, truth) -> list[tuple]:
    spenders = [mint.addr() for _ in range(count)]
    records = []
    if count >= 3:
        # Cyclic pairing funds every spender exactly twice with all-distinct
        # coinbase output sets and no padding addresses.
        for i in range(count):
            pair = [spenders[i], spenders[(i + 1) % count]]
            records.append((mint.tx_id(), [], pair))
    else:
        for spender in spenders:
            for _ in range(2):
                pad = mint.addr()
                truth.deposit_addresses.add(pad)
                records.append((mint.tx_id(), [], [spender, pad]))
    for spender in spenders:
        outs = [mint.addr() for _ in range(per_filler)]
        truth.deposit_addresses.update(outs)
        records.append((mint.tx_id(), [spender], outs))
    return records


def _interleave(units, rng) -> list[tuple]:
    """Merge units uniformly at random, preserving each unit's inner order."""
    order = []
    for uid, unit in enumerate(units):
        order.extend([uid] * len(unit))
    rng.shuffle(order)
    cursors = [0] * len(units)
    stream = []
    for uid in order:
        stream.append(units[uid][cursors[uid]])
        cursors[uid] += 1
    return stream
