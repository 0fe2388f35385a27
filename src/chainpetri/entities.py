"""Owner entities: places clustered by shared-input co-occurrence.

All input addresses of one transaction must be controlled by the same
owner, so two places belong to the same entity exactly when they are
connected in the graph whose edges join places co-occurring in some
transaction's input set.  Places never used as inputs become singleton
entities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionMismatchError
from .net import (
    ADDRESS_LEVEL, ENTITY_LEVEL, PlaceTransitionNet, SparseIncidence, _label_groups, _Registry,
)


@dataclass(eq=False)
class EntityPartition:
    """Disjoint place groups covering all places of the source net.

    `place_to_entity[p]` is the index of the entity that contains place p;
    entities are numbered by smallest member.  `entities` lists each
    entity's members ascending, in index order, derived from the labels on
    each access.  Two partitions are equal when their labels are.
    """

    place_to_entity: np.ndarray

    def __post_init__(self):
        self.place_to_entity = np.asarray(self.place_to_entity)

    def __eq__(self, other):
        if not isinstance(other, EntityPartition):
            return NotImplemented
        return np.array_equal(self.place_to_entity, other.place_to_entity)

    @property
    def entities(self) -> list[list[int]]:
        # min_size 0 keeps an unused label's empty list, so entities[i] is label i
        return _label_groups(self.place_to_entity, 0)


@dataclass
class EntityNet:
    """Entity-level net (one place per entity, transitions shared)."""

    net: PlaceTransitionNet
    partition: EntityPartition


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
    # bool casts safely to an index but is not a label
    if labels.ndim != 1 or labels.dtype == bool or not np.can_cast(labels.dtype, np.intp):
        raise PartitionMismatchError(
            f"entity labels must be a 1-D integer array, got {labels.dtype} of shape {labels.shape}"
        )
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
    labels = partition.place_to_entity
    order = np.argsort(-np.bincount(labels), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    groups = _label_groups(rank[labels], 0, net.place_names)
    return [{"entity": index, "size": len(names), "addresses": names}
            for index, names in zip(order.tolist(), groups)]
