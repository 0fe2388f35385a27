"""Disposable addresses and the chains of transactions they link.

A disposable address is used exactly twice: once to receive and once to
spend everything onward.  Chain transactions have a single disposable
input and exactly two outputs, one of which is usually the next
disposable hop; following those hops from each chain start reconstructs
the whole chain in execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChainIntegrityError
from .net import PlaceTransitionNet, _json_strings, _offsets, _split, _write_json_rows


@dataclass
class DisposableSets:
    """Disposable places plus the transitions and chain starts they induce."""

    addresses_d: set[int]
    transactions_d: set[int]
    starts_d: set[int]


@dataclass
class Chain:
    """Transitions of one chain in execution order.

    `bypassed` lists viable successors that were not followed when both
    outputs of a link were disposable and spent by chain transactions
    (the smaller transition id wins).
    """

    links: list[int]
    bypassed: list[int] = field(default_factory=list)

    def __len__(self):
        return len(self.links)


def disposable_addresses(net: PlaceTransitionNet) -> set[int]:
    """Places with exactly one pre-arc and exactly one post-arc."""
    return set(np.flatnonzero(_disposable_mask(net)).tolist())


def _disposable_mask(net: PlaceTransitionNet) -> np.ndarray:
    return (net.pre.row_nnz_all() == 1) & (net.post.row_nnz_all() == 1)


def disposable_transactions(net: PlaceTransitionNet, addresses_d: set[int]) -> DisposableSets:
    """Select the chain transactions and the subset that starts a chain.

    A chain transaction has one input (a disposable address) and two
    outputs, at least one disposable.  A start is a chain transaction whose
    funding transaction is not itself a chain transaction.
    """
    disposable = _mask(net.num_places, list(addresses_d))
    pre = net.pre.tocsc()
    post = net.post.tocsc()

    shaped = np.flatnonzero((np.diff(pre.indptr) == 1) & (np.diff(post.indptr) == 2))
    first_out = post.indptr[shaped]
    chain = shaped[
        disposable[pre.indices[pre.indptr[shaped]]]
        & (disposable[post.indices[first_out]] | disposable[post.indices[first_out + 1]])
    ]

    # the input is disposable, so the only transaction paying it is its funder
    in_chain = _mask(net.num_transitions, chain)
    paid_by_chain = _mask(net.num_places, post.indices[in_chain[net.post.entry_columns()]])
    starts = chain[~paid_by_chain[pre.indices[pre.indptr[chain]]]]
    return DisposableSets(set(addresses_d), set(chain.tolist()), set(starts.tolist()))


def build_chains(net: PlaceTransitionNet, sets: DisposableSets) -> list[Chain]:
    """One chain per start, extended link by link until no successor remains.

    The successor of a link is the smallest chain transaction spending one
    of its disposable outputs; any other such spender is recorded in the
    chain's `bypassed`.  Chains are returned sorted by descending length,
    ties by first link id.  Raises ChainIntegrityError if successors
    revisit a transaction, which cannot happen on temporally valid input.
    """
    disposable = _mask(net.num_places, list(sets.addresses_d))
    in_chain = _mask(net.num_transitions, list(sets.transactions_d))
    # each place's smallest spender, or num_transitions if nothing spends
    # it; a disposable place has one spender
    spender_of = np.full(net.num_places, net.num_transitions)
    np.minimum.at(spender_of, net.pre.tocsc().indices, net.pre.entry_columns())

    # (link, spender) for each disposable output of a chain transaction,
    # spent by a chain transaction
    link = net.post.entry_columns()
    place = net.post.tocsc().indices
    keep = in_chain[link] & disposable[place] & (spender_of[place] < net.num_transitions)
    link, spender = link[keep], spender_of[place[keep]]
    keep = in_chain[spender]
    link, spender = link[keep], spender[keep]
    order = np.lexsort((spender, link))
    link, spender = link[order], spender[order]
    smallest = np.ones(len(link), dtype=bool)
    smallest[1:] = link[1:] != link[:-1]
    successor = dict(zip(link[smallest].tolist(), spender[smallest].tolist()))
    others: dict[int, list[int]] = {}
    for t, s in zip(link[~smallest].tolist(), spender[~smallest].tolist()):
        others.setdefault(t, []).append(s)

    used: set[int] = set()
    chains = []
    for start in sorted(sets.starts_d):
        if start in used:
            raise ChainIntegrityError(f"start {start} already belongs to a chain")
        used.add(start)
        chain = Chain([start])
        current = start
        while current in successor:
            chain.bypassed.extend(others.get(current, ()))
            current = successor[current]
            if current in used:
                raise ChainIntegrityError(
                    f"transition {current} reached twice; successor cycle"
                )
            used.add(current)
            chain.links.append(current)
        chains.append(chain)
    chains.sort(key=lambda c: (-len(c.links), c.links[0]))
    return chains


def _mask(size: int, index) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[index] = True
    return mask


def chain_report(net: PlaceTransitionNet, chains: list[Chain]) -> list[dict]:
    """Report rows sorted by descending length (the build_chains order).

    Addresses are the disposable path: each link's input plus the last
    link's disposable outputs.
    """
    path, bounds = _chain_paths(net, chains)
    paths = _split(list(map(net.place_names.__getitem__, path.tolist())), bounds)
    tx_ids = net.transaction_ids
    return [
        {
            "length": len(chain.links),
            "transactions": [tx_ids[t] for t in chain.links],
            "addresses": addresses,
        }
        for chain, addresses in zip(chains, paths)
    ]


_ROW = ('  {\n    "length": %d,\n    "transactions": [\n      %s\n    ],\n'
        '    "addresses": [\n      %s\n    ]\n  }')


def write_chain_report(fh, net: PlaceTransitionNet, chains: list[Chain]):
    """Write `chain_report(net, chains)` to the text stream `fh` as
    `json.dump(rows, fh, indent=2, ensure_ascii=False)` and a newline would,
    in writes of bounded size."""
    path, bounds = _chain_paths(net, chains)
    links = [t for chain in chains for t in chain.links]
    lengths = np.fromiter(map(len, chains), np.int64, len(chains))
    ends = _offsets(lengths)

    def rows(lo, hi):
        tx_ids = _json_strings(net.tx_ids_of(links[ends[lo]:ends[hi]]))
        addresses = _json_strings(net.addresses_of(path[bounds[lo]:bounds[hi]].tolist()))
        tx_at = (ends[lo:hi + 1] - ends[lo]).tolist()
        at = (bounds[lo:hi + 1] - bounds[lo]).tolist()
        return [_ROW % (t_end - t_start, ",\n      ".join(tx_ids[t_start:t_end]),
                        ",\n      ".join(addresses[start:end]))
                for t_start, t_end, start, end in zip(tx_at, tx_at[1:], at, at[1:])]

    _write_json_rows(fh, lengths + np.diff(bounds), rows)


def _chain_paths(net: PlaceTransitionNet, chains: list[Chain]) -> tuple[np.ndarray, np.ndarray]:
    """Each chain's disposable path: every link's input (a chain link has one),
    then the last link's disposable outputs.  Chain i's path is
    `path[bounds[i]:bounds[i + 1]]`.  Returns (path, bounds)."""
    pre, post = net.pre.tocsc(), net.post.tocsc()
    lengths = np.fromiter(map(len, chains), np.int64, len(chains))
    links = np.array([t for chain in chains for t in chain.links], dtype=np.int64)
    last = links[_offsets(lengths)[1:] - 1]
    # every output entry of each last link, then the disposable ones
    first = post.indptr[last]
    counts = post.indptr[last + 1] - first
    entries = np.arange(counts.sum()) + np.repeat(first - _offsets(counts)[:-1], counts)
    outputs = post.indices[entries]
    keep = _disposable_mask(net)[outputs]
    chain_ids = np.arange(len(chains))
    owner = np.concatenate([np.repeat(chain_ids, lengths), np.repeat(chain_ids, counts)[keep]])
    path = np.concatenate([pre.indices[pre.indptr[links]], outputs[keep]])
    # a stable sort on the owning chain puts each chain's outputs after its inputs
    return (path[np.argsort(owner, kind="stable")],
            _offsets(np.bincount(owner, minlength=len(chains))))
