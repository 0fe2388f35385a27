"""Stored width: int32 and int64 matrices must give every analysis the same answer.

A sealed `SparseIncidence` stores int32 arrays where its counts and values
fit, and under NumPy's promotion rules a product of int32 arrays stays int32
and wraps.  The referee below patches the narrowing limit to 0, so the same
ledger is held at int64, and compares every analysis of both.  Its net has
more than 2**31 place-transition cells, so a `column * places + row` key
made at int32 would wrap on it.  The report writers' bytes are compared
too, and the chain paths must be held at the stored width.
"""

from __future__ import annotations

import dataclasses
import io

import chainpetri.net
import numpy as np
import pytest

from chainpetri import (
    GeneratorConfig,
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
    entity_report,
    generate_synthetic,
    ingest,
    load_snapshot,
    repeat_report,
    repeated_groups,
    summary,
    top_k_active,
    write_chain_report,
    write_entity_report,
)
from chainpetri.chains import _chain_paths
from helpers import v2_bytes
from test_chains import SEALED_ONLY

# 57,040 places by 46,800 transitions, 1.24 times 2**31 cells, recorded block by
# block; it holds entities, chains and repeat groups
WIDE = GeneratorConfig(entity_sizes=[4] * 60, chain_lengths=[3] * 2500,
                       repeat_group_sizes=[3] * 30, fillers=17000, block_size=2000)


def _plain(value):
    """The value with arrays as lists, dataclasses as dicts and a net as its level,
    names and column forms, so `==` compares what it holds and not its widths."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, PlaceTransitionNet):
        return [value.level, value.place_names, value.transaction_ids,
                *(_plain(list(value.incidence(side).tocsc())) for side in ("pre", "post"))]
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _written(writer, *args) -> str:
    fh = io.StringIO()
    writer(fh, *args)
    return fh.getvalue()


def _level_analyses(net) -> dict:
    """What every analysis that runs at either level makes of the net."""
    sets = disposable_transactions(net, disposable_addresses(net))
    chains = build_chains(net, sets)
    links, _, path, _ = _chain_paths(net, chains)
    assert links.dtype == path.dtype == np.result_type(net.pre.tocsc().indices,
                                                       net.post.tocsc().indices)
    repeats = repeated_groups(net)
    return {
        "disposable_addresses": disposable_addresses(net),
        "disposable_transactions": sets,
        "build_chains": chains,
        "cyclic_transitions": cyclic_transitions(net),
        "degree_multiset": [degree_multiset(net, side) for side in ("pre", "post", "both")],
        "top_k_active": top_k_active(net, 50),
        "accumulate_only": accumulate_only(net),
        "repeated_groups": repeats,
        "summary": summary(net),
        "chain_report": chain_report(net, chains),
        "write_chain_report": _written(write_chain_report, net, chains),
        "repeat_report": repeat_report(net, repeats),
    }


def _analyses(net) -> dict:
    """Every analysis of the address net and of its entity net, as plain values."""
    partition = compute_entities(net)
    entity = build_entity_net(net, partition)
    results = {"compute_entities": partition, "build_entity_net": entity,
               "entity_report": entity_report(partition, net),
               "write_entity_report": _written(write_entity_report, partition, net),
               **_level_analyses(net)}
    assert set(SEALED_ONLY) <= results.keys()
    results["entity level"] = _level_analyses(entity.net)
    return _plain(results)


def _widths(net) -> set[str]:
    return {array.dtype.name for side in ("pre", "post")
            for array in (*net.incidence(side).tocsc(), net.incidence(side).row_nnz_all())}


def _nets():
    """The built net of `WIDE`, the net loaded from its snapshot and the entity net."""
    blocks, _ = generate_synthetic(WIDE, seed=5)
    built, _ = ingest(blocks)
    loaded = load_snapshot(io.BytesIO(v2_bytes(built)))
    return built, loaded, build_entity_net(built, compute_entities(built)).net


def test_int32_and_int64_storage_give_the_same_answers():
    narrow = _nets()
    built = narrow[0]
    assert built.num_places * built.num_transitions >= 2**31
    assert [_widths(net) for net in narrow] == [{"int32"}] * 3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chainpetri.net, "_INT32_LIMIT", 0)
        wide = _nets()
        assert [_widths(net) for net in wide] == [{"int64"}] * 3
        wide_results = [_analyses(net) for net in wide[:2]]
        wide_bytes = v2_bytes(wide[0])
    assert v2_bytes(built) == wide_bytes
    for net, wide_result in zip(narrow, wide_results):
        assert _analyses(net) == wide_result
