"""Expected results of every benchmarked output, computed without chainpetri.

The ledger is replayed the way the README documents `build`: blocks in
ascending height; per transaction, addresses interned in first-appearance
order (inputs, then outputs); duplicate addresses on one side collapse to one
arc; in strict mode a spend is rejected when an input address is unknown or
has no unspent receive left.  Every analysis is then recomputed from the
recorded columns with plain Python containers.
"""

from __future__ import annotations

import heapq
from collections import Counter

TOP_K = 10
SIDES = ("pre", "post", "both")


class Replay:
    """The recorded net: place names, transaction ids and sorted column lists."""

    def __init__(self, ledger):
        self.places: list[str] = []
        self.place_of: dict[str, int] = {}
        self.tx_ids: list[str] = []
        self.pre: list[tuple] = []  # per transaction, sorted distinct place ids
        self.post: list[tuple] = []
        self.rejected: list[str] = []
        self.blocks = 0
        self.conversion = Counter()
        strict = ledger.mode == "strict"
        balance: list[int] = []  # receives minus spends, per place

        for _, txs in sorted(ledger.blocks, key=lambda b: b[0]):
            self.blocks += 1
            for tx in txs:
                inputs = [a for a in tx.inputs if a is not None]
                outputs = [a for a in tx.outputs if a is not None]
                self.conversion["skipped_inputs"] += len(tx.inputs) - len(inputs)
                self.conversion["skipped_outputs"] += len(tx.outputs) - len(outputs)
                if not outputs:
                    self.conversion["skipped_transactions"] += 1
                    continue
                self.conversion["transactions"] += 1
                if strict and inputs and not all(
                    a in self.place_of and balance[self.place_of[a]] > 0 for a in inputs
                ):
                    self.rejected.append(tx.tx_id)
                    continue
                pre = tuple(sorted({self._intern(a, balance) for a in inputs}))
                post = tuple(sorted({self._intern(a, balance) for a in outputs}))
                for p in pre:
                    balance[p] -= 1
                for p in post:
                    balance[p] += 1
                self.tx_ids.append(tx.tx_id)
                self.pre.append(pre)
                self.post.append(post)

    def _intern(self, address: str, balance: list) -> int:
        place = self.place_of.get(address)
        if place is None:
            place = self.place_of[address] = len(self.places)
            self.places.append(address)
            balance.append(0)
        return place


def build_report(replay: Replay, ledger) -> dict:
    report = {
        "blocks": replay.blocks,
        "transactions": len(replay.tx_ids),
        "addresses": len(replay.places),
        "pre_arcs": sum(map(len, replay.pre)),
        "post_arcs": sum(map(len, replay.post)),
        "rejects": len(replay.rejected),
        "rejected_tx_ids": list(replay.rejected),
        "mode": ledger.mode,
        "format": ledger.fmt,
    }
    if ledger.fmt == "rawblock":
        keys = ("transactions", "skipped_inputs", "skipped_outputs", "skipped_transactions")
        report["conversion"] = {key: replay.conversion[key] for key in keys}
    return report


def entity_labels(num_places: int, pre_columns) -> tuple[list[int], list[list[int]]]:
    """Union-find over input sets; entities ordered by smallest member."""
    parent = list(range(num_places))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for column in pre_columns:
        if len(column) > 1:
            root = find(column[0])
            for p in column[1:]:
                other = find(p)
                if other != root:
                    if other < root:
                        root, other = other, root
                    parent[other] = root
    members: dict[int, list[int]] = {}
    for p in range(num_places):
        members.setdefault(find(p), []).append(p)
    entities = list(members.values())  # roots met in ascending order of first member
    label = [0] * num_places
    for index, group in enumerate(entities):
        for p in group:
            label[p] = index
    return label, entities


def entity_columns(columns, label: list[int]) -> list[tuple]:
    """Entity-level columns: sorted (entity, multiplicity) pairs."""
    return [tuple(sorted(Counter(label[p] for p in column).items())) for column in columns]


def degrees(columns, size: int) -> list[int]:
    counts = [0] * size
    for column in columns:
        for item in column:
            counts[item[0] if isinstance(item, tuple) else item] += 1
    return counts


def ccdf_points(values: list[int]) -> list[list]:
    """(x, P(L > x)) at x = 0 and at every distinct value."""
    n = len(values)
    histogram = Counter(values)
    xs = sorted(set(histogram) | {0})
    points, greater = [], n
    for x in xs:
        greater -= histogram.get(x, 0)
        points.append([x, greater / n])
    return points


def ccdf_csv(points) -> str:
    return "x,ccdf\n" + "".join(f"{x},{p:.12e}\n" for x, p in points)


def repeat_groups(pre, post) -> list[list[int]]:
    buckets: dict[tuple, list[int]] = {}
    for t, key in enumerate(zip(pre, post)):
        buckets.setdefault(key, []).append(t)
    return [g for g in buckets.values() if len(g) >= 2]


def level_results(names: list[str], tx_ids: list[str], pre, post) -> dict:
    size = len(names)
    pre_deg, post_deg = degrees(pre, size), degrees(post, size)
    both = [a + b for a, b in zip(pre_deg, post_deg)]
    groups = repeat_groups(pre, post)
    repetitions = sum(len(g) - 1 for g in groups)
    top = heapq.nsmallest(TOP_K, range(size), key=lambda p: (-both[p], p))
    return {
        "summary": {
            "places": size,
            "transitions": len(tx_ids),
            "pre_arcs": sum(map(len, pre)),
            "post_arcs": sum(map(len, post)),
            "accumulate_only": sum(1 for a, b in zip(pre_deg, post_deg) if a == 0 and b > 0),
            "disposable": sum(1 for a, b in zip(pre_deg, post_deg) if a == 1 and b == 1),
        },
        "ccdf": {
            "pre": ccdf_points(pre_deg),
            "post": ccdf_points(post_deg),
            "both": ccdf_points(both),
        },
        "repeats": {
            "group_count": len(groups),
            "repetition_count": repetitions,
            "repetition_fraction": repetitions / len(tx_ids) if tx_ids else 0.0,
            "groups": [[tx_ids[t] for t in g] for g in groups],
        },
        "top": [[p, pre_deg[p], post_deg[p]] for p in top],
    }


def chains(replay: Replay) -> tuple[list[dict], dict]:
    """Chains as README documents them, with their report rows and totals.

    A disposable address has one receive and one spend.  A chain transaction
    has one input, which is disposable, and two outputs, at least one
    disposable.  Chains start at chain transactions whose funder is not one;
    each link continues to the smallest-id chain transaction that spends one
    of its disposable outputs.
    """
    pre, post = replay.pre, replay.post
    size = len(replay.places)
    pre_deg, post_deg = degrees(pre, size), degrees(post, size)
    disposable = [a == 1 and b == 1 for a, b in zip(pre_deg, post_deg)]
    spender, funder = {}, {}
    for t, column in enumerate(pre):
        for p in column:
            if disposable[p]:
                spender[p] = t
    for t, column in enumerate(post):
        for p in column:
            if disposable[p]:
                funder[p] = t
    linked = {
        t for t in range(len(pre))
        if len(pre[t]) == 1 and len(post[t]) == 2 and disposable[pre[t][0]]
        and (disposable[post[t][0]] or disposable[post[t][1]])
    }
    starts = sorted(t for t in linked if funder[pre[t][0]] not in linked)
    found, used = [], set()
    for start in starts:
        links = [start]
        used.add(start)
        while True:
            nxt = [spender[p] for p in post[links[-1]] if disposable[p] and spender[p] in linked]
            if not nxt:
                break
            t = min(nxt)
            if t in used:
                raise ValueError(f"transaction {replay.tx_ids[t]} reached twice")
            used.add(t)
            links.append(t)
        found.append(links)
    found.sort(key=lambda links: (-len(links), links[0]))
    rows = [
        {
            "length": len(links),
            "transactions": [replay.tx_ids[t] for t in links],
            "addresses": [replay.places[pre[t][0]] for t in links]
            + [replay.places[p] for p in post[links[-1]] if disposable[p]],
        }
        for links in found
    ]
    totals = {
        "chains_total": len(found),
        "chains_length_ge_2": sum(1 for links in found if len(links) >= 2),
        "longest": max((len(links) for links in found), default=0),
        "disposable_addresses": sum(disposable),
        "chain_transactions": len(linked),
    }
    return rows, totals


def expected_results(ledger) -> dict:
    """Everything the checks compare against, as one JSON-ready document."""
    replay = Replay(ledger)
    label, entities = entity_labels(len(replay.places), replay.pre)
    entity_pre = entity_columns(replay.pre, label)
    entity_post = entity_columns(replay.post, label)
    entity_rows = sorted(
        ({"entity": i, "size": len(g), "addresses": [replay.places[p] for p in g]}
         for i, g in enumerate(entities)),
        key=lambda r: (-r["size"], r["entity"]),
    )
    chain_rows, chain_totals = chains(replay)
    cyclic = [
        replay.tx_ids[t] for t in range(len(replay.tx_ids))
        if {e for e, _ in entity_pre[t]} & {e for e, _ in entity_post[t]}
    ]
    address = level_results(replay.places, replay.tx_ids, replay.pre, replay.post)
    entity = level_results([f"e{i}" for i in range(len(entities))], replay.tx_ids,
                           entity_pre, entity_post)
    return {
        "report": build_report(replay, ledger),
        "entities": entity_rows,
        "chains": chain_rows,
        "chains_totals": chain_totals,
        "cyclic": cyclic,
        "top_addresses": [replay.places[p] for p, _, _ in address["top"]],
        "levels": {"address": address, "entity": entity},
    }
