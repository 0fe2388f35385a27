"""Owner entities: places clustered by shared-input co-occurrence.

All input addresses of one transaction must be controlled by the same
owner, so two places belong to the same entity exactly when they are
connected in the graph whose edges join places co-occurring in some
transaction's input set.  Places never used as inputs become singleton
entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PartitionMismatchError
from .net import ADDRESS_LEVEL, ENTITY_LEVEL, PlaceTransitionNet, SparseIncidence, _Registry


@dataclass(eq=False)
class EntityPartition:
    """Disjoint place groups covering all places of the source net.

    `place_to_entity[p]` is the index of the entity that contains place p;
    entities are numbered by smallest member.  `entities` lists each
    entity's members ascending, in index order, and is derived from the
    labels on first use.  Two partitions are equal when their labels are.
    """

    place_to_entity: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, EntityPartition):
            return NotImplemented
        return np.array_equal(self.place_to_entity, other.place_to_entity)

    @cached_property
    def entities(self) -> list[list[int]]:
        labels = self.place_to_entity
        members = np.argsort(labels, kind="stable").tolist()
        ends = np.cumsum(np.bincount(labels)).tolist()
        return [members[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


@dataclass
class EntityNet:
    """Entity-level net (one place per entity, transitions shared)."""

    net: PlaceTransitionNet
    partition: EntityPartition

    @property
    def member_map(self) -> list[list[int]]:
        """Members of each entity place (the partition's own `entities`)."""
        return self.partition.entities


def compute_entities(net: PlaceTransitionNet) -> EntityPartition:
    """Partition places into entities: components of the co-input graph."""
    csc = net.pre.tocsc()
    if net.level != ADDRESS_LEVEL:
        raise ValueError("compute_entities runs on address-level nets")

    # Star edges join each transaction's first input to its other inputs.
    first = csc.indices[csc.indptr[net.pre.entry_columns()]]
    star = first != csc.indices
    u, v = first[star], csc.indices[star]

    # Min-label hooking: each round hooks every root that has a smaller root
    # across some edge onto the smallest such root, then jumps pointers until
    # every place points at its root.  Labels only decrease, so a component
    # ends rooted at its smallest place, and each round removes at least one
    # root.
    label = np.arange(net.num_places)
    while len(u):
        lu, lv = label[u], label[v]
        u, v = np.minimum(lu, lv), np.maximum(lu, lv)
        apart = u != v
        u, v = u[apart], v[apart]
        np.minimum.at(label, v, u)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return EntityPartition(np.unique(label, return_inverse=True)[1])


def build_entity_net(net: PlaceTransitionNet, partition: EntityPartition) -> EntityNet:
    """Sum member rows of the partition into entity-level pre/post matrices."""
    sides = (net.pre, net.post)
    if net.level != ADDRESS_LEVEL:
        raise ValueError("build_entity_net runs on address-level nets")
    k = _check_partition(partition, net.num_places)

    labels = partition.place_to_entity
    summed = [
        SparseIncidence(labels[side.tocsc().indices], side.entry_columns(),
                        side.tocsc().data, (k, net.num_transitions))
        for side in sides
    ]
    # the entity net shares the address net's transaction registry
    entity_net = PlaceTransitionNet._assemble(
        _Registry([f"e{i}" for i in range(k)]), net._txs, *summed, ENTITY_LEVEL
    )
    return EntityNet(entity_net, partition)


def _check_partition(partition: EntityPartition, num_places: int) -> int:
    """Validate the labels; returns the number of entities."""
    labels = partition.place_to_entity
    if len(labels) != num_places:
        raise PartitionMismatchError(
            f"partition maps {len(labels)} places, net has {num_places}"
        )
    if num_places and labels.min() < 0:
        raise PartitionMismatchError("negative entity label")
    sizes = np.bincount(labels)
    if not sizes.all():
        raise PartitionMismatchError("entity labels skip an index")
    return len(sizes)


def cyclic_transitions(net: PlaceTransitionNet) -> list[int]:
    """Transitions with some place on both sides (inputs and outputs).

    At the entity level these mark owners moving funds between their own
    addresses.  An entry's key `col * places + row` is sorted in
    compressed-column order, so matching keys find the shared entries.
    """
    pre_cols = net.pre.entry_columns()
    pre_keys = pre_cols * net.num_places + net.pre.tocsc().indices
    post_keys = net.post.entry_columns() * net.num_places + net.post.tocsc().indices
    found = np.searchsorted(post_keys, pre_keys)
    shared = post_keys.take(found, mode="clip") == pre_keys
    return np.flatnonzero(np.bincount(pre_cols[shared], minlength=net.num_transitions)).tolist()


def entity_report(partition: EntityPartition, net: PlaceTransitionNet) -> list[dict]:
    """Report rows sorted by descending size, ties by entity index."""
    rows = [
        {
            "entity": index,
            "size": len(members),
            "addresses": [net.address_of(p) for p in members],
        }
        for index, members in enumerate(partition.entities)
    ]
    rows.sort(key=lambda r: (-r["size"], r["entity"]))
    return rows
