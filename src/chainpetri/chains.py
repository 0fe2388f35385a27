"""Disposable addresses and the chains of transactions they link.

A disposable address is used exactly twice: once to receive and once to
spend everything onward.  Chain transactions have a single disposable
input and exactly two outputs, one of which is usually the next
disposable hop; following those hops from each chain start reconstructs
the whole chain in execution order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainIntegrityError
from .net import PlaceTransitionNet, _json_strings, _offsets, _ranges, _split, _write_json_rows


@dataclass
class DisposableSets:
    """Masks of the disposable places (over places) and of the chain
    transactions and chain starts they induce (over transitions)."""

    addresses_d: np.ndarray
    transactions_d: np.ndarray
    starts_d: np.ndarray


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


def disposable_addresses(net: PlaceTransitionNet) -> np.ndarray:
    """Mask of the places with exactly one pre-arc and exactly one post-arc."""
    return (net.pre.row_nnz_all() == 1) & (net.post.row_nnz_all() == 1)


def disposable_transactions(net: PlaceTransitionNet, addresses_d: np.ndarray) -> DisposableSets:
    """Select the chain transactions and the subset that starts a chain.

    A chain transaction has one input (a disposable address) and two
    outputs, at least one disposable.  A start is a chain transaction whose
    funding transaction is not itself a chain transaction.
    """
    pre, post = net.pre.tocsc(), net.post.tocsc()
    shaped = np.flatnonzero((np.diff(pre.indptr) == 1) & (np.diff(post.indptr) == 2))
    first_out = post.indptr[shaped]
    chain = shaped[
        addresses_d[pre.indices[pre.indptr[shaped]]]
        & (addresses_d[post.indices[first_out]] | addresses_d[post.indices[first_out + 1]])
    ]
    in_chain = np.zeros(net.num_transitions, dtype=bool)
    in_chain[chain] = True

    # the input is disposable, so the only transaction paying it is its funder
    paid_by_chain = np.zeros(net.num_places, dtype=bool)
    paid_by_chain[post.indices[in_chain[net.post.entry_columns()]]] = True
    starts = np.zeros(net.num_transitions, dtype=bool)
    starts[chain[~paid_by_chain[pre.indices[pre.indptr[chain]]]]] = True
    return DisposableSets(addresses_d, in_chain, starts)


def build_chains(net: PlaceTransitionNet, sets: DisposableSets) -> list[Chain]:
    """One chain per start: the start, then each link's successor in turn.

    The successor of a link is the smallest chain transaction spending one
    of its disposable outputs; any other such spender is recorded in the
    chain's `bypassed`.  Pointer jumping over the links' predecessors, cut
    at the starts, gives every link its chain's start and its depth; links
    that no start reaches (a successor cycle) are dropped.  Chains are
    returned sorted by descending length, ties by first link id.  Raises
    ChainIntegrityError unless every chain link's successor is the next
    link of its own chain, which holds on temporally valid input.
    """
    # work at the stored indices' width: it holds any transition id, as each has an output
    pre, post = net.pre.tocsc(), net.post.tocsc()
    width = np.result_type(pre.indices, post.indices)
    # each place's smallest spender, or num_transitions if nothing spends
    # it; a disposable place has one spender
    spender_of = np.full(net.num_places, net.num_transitions, dtype=width)
    np.minimum.at(spender_of, pre.indices,
                  np.repeat(np.arange(net.num_transitions, dtype=width), net.pre.col_nnz_all()))

    # (link, spender) for each disposable output of a chain transaction,
    # spent by a chain transaction
    in_chain = sets.transactions_d
    link = np.repeat(np.arange(net.num_transitions, dtype=width), net.post.col_nnz_all())
    place = post.indices
    keep = in_chain[link] & sets.addresses_d[place] & (spender_of[place] < net.num_transitions)
    link, spender = link[keep], spender_of[place[keep]]
    del spender_of, place
    keep = in_chain[spender]
    link, spender = link[keep], spender[keep]
    order = np.lexsort((spender, link))
    link, spender = link[order], spender[order]
    del keep, order
    smallest = np.ones(len(link), dtype=bool)
    smallest[1:] = link[1:] != link[:-1]

    # the jumping arrays index the chain transactions only
    ids = np.flatnonzero(in_chain).astype(width)
    link = np.searchsorted(ids, link).astype(width)
    tails, successor = link[smallest], np.searchsorted(ids, spender[smallest]).astype(width)
    is_start = sets.starts_d[ids]
    # each link's predecessor, or itself at a start and where no link chose it;
    # of two links choosing one successor the smaller is kept
    root = np.arange(len(ids), dtype=width)
    chosen, first = np.unique(successor, return_index=True)
    root[chosen] = tails[first]
    del chosen, first
    root[is_start] = np.flatnonzero(is_start)
    depth = (root != np.arange(len(ids), dtype=width)).astype(width)
    for _ in range(len(ids).bit_length()):
        depth += depth[root]
        root = root[root]
    # a cycle holds no start, so its links never reach one
    placed = is_start[root]
    broken = placed[tails] & ((root[successor] != root[tails])
                              | (depth[successor] != depth[tails] + 1))
    if broken.any():
        raise ChainIntegrityError(f"the successor of transition {ids[tails[broken.argmax()]]} "
                                  "is not the next link of its chain")
    del broken, tails, successor

    # chains in report order; a link sits at its chain's offset plus its depth
    heads = np.flatnonzero(is_start)
    lengths = np.bincount(root[placed], minlength=len(ids))[heads]
    ranked = np.lexsort((heads, -lengths))
    rank = np.zeros(len(ids), dtype=width)
    rank[heads[ranked]] = np.arange(len(heads))
    ends = _offsets(lengths[ranked])
    at = ends[rank[root]] + depth
    links = np.empty(ends[-1], dtype=width)
    links[at[placed]] = ids[placed]

    others = ~smallest & placed[link]
    bypassed = spender[others]
    bypassed = bypassed[np.lexsort((bypassed, at[link[others]]))]
    counts = np.bincount(rank[root[link[others]]], minlength=len(heads))
    return [Chain(chain_links, spenders) for chain_links, spenders in
            zip(_split(links.tolist(), ends), _split(bypassed.tolist(), _offsets(counts)))]


def chain_report(net: PlaceTransitionNet, chains: list[Chain]) -> list[dict]:
    """Report rows sorted by descending length (the build_chains order).

    Addresses are the disposable path: each link's input plus the last
    link's disposable outputs.
    """
    links, ends, path, bounds = _chain_paths(net, chains)
    return [{"length": len(tx_ids), "transactions": tx_ids, "addresses": addresses}
            for tx_ids, addresses in zip(_split(net.tx_ids_of(links.tolist()), ends),
                                         _split(net.addresses_of(path.tolist()), bounds))]


_ROW = ('  {\n    "length": %d,\n    "transactions": [\n      %s\n    ],\n'
        '    "addresses": [\n      %s\n    ]\n  }')


def write_chain_report(fh, net: PlaceTransitionNet, chains: list[Chain]):
    """Write `chain_report(net, chains)` to the text stream `fh` as
    `json.dump(rows, fh, indent=2, ensure_ascii=False)` and a newline would,
    in writes of bounded size."""
    links, ends, path, bounds = _chain_paths(net, chains)

    def rows(lo, hi):
        tx_ids = _json_strings(net.tx_ids_of(links[ends[lo]:ends[hi]].tolist()))
        addresses = _json_strings(net.addresses_of(path[bounds[lo]:bounds[hi]].tolist()))
        tx_at = (ends[lo:hi + 1] - ends[lo]).tolist()
        at = (bounds[lo:hi + 1] - bounds[lo]).tolist()
        return [_ROW % (t_end - t_start, ",\n      ".join(tx_ids[t_start:t_end]),
                        ",\n      ".join(addresses[start:end]))
                for t_start, t_end, start, end in zip(tx_at, tx_at[1:], at, at[1:])]

    _write_json_rows(fh, np.diff(ends) + np.diff(bounds), rows)


def _chain_paths(net: PlaceTransitionNet, chains: list[Chain]):
    """Every chain's links, flat, and each chain's disposable path: every link's
    input (a chain link has one), then the last link's disposable outputs.
    Chain i's links are `links[ends[i]:ends[i + 1]]` and its path is
    `path[bounds[i]:bounds[i + 1]]`.  Returns (links, ends, path, bounds)."""
    pre, post = net.pre.tocsc(), net.post.tocsc()
    width = np.result_type(pre.indices, post.indices)
    lengths = np.fromiter(map(len, chains), np.int64, len(chains))
    ends = _offsets(lengths)
    links = np.fromiter(itertools.chain.from_iterable(chain.links for chain in chains), width,
                        ends[-1])
    last = links[ends[1:] - 1]
    # every output entry of each last link, then the disposable ones
    first = post.indptr[last]
    counts = post.indptr[last + 1] - first
    outputs = post.indices[_ranges(first, counts)]
    keep = disposable_addresses(net)[outputs]
    chain_ids = np.arange(len(chains), dtype=width)
    owner = np.concatenate([np.repeat(chain_ids, lengths), np.repeat(chain_ids, counts)[keep]])
    path = np.concatenate([pre.indices[pre.indptr[links]], outputs[keep]])
    # a stable sort on the owning chain puts each chain's outputs after its inputs
    return (links, ends, path[np.argsort(owner, kind="stable")],
            _offsets(np.bincount(owner, minlength=len(chains))))
