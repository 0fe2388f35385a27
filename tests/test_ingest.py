"""Block parsing, rawblock conversion, and stream ingestion."""

from __future__ import annotations

import importlib
import json
import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chainpetri import (
    Block,
    BlockOrderingError,
    BlockParseError,
    BlockValidationError,
    DuplicateTransactionError,
    MalformedTransactionError,
    PlaceTransitionNet,
    convert_rawblock,
    encode_block,
    ingest,
    parse_block,
)
from conftest import SAMPLE_PRE, SAMPLE_POST
from helpers import block_json, random_transactions, rawblock_doc, simulate_strict

addr_text = st.text(min_size=1, max_size=8).filter(lambda s: s.strip())
block_values = st.builds(
    Block.of,
    height=st.integers(min_value=0, max_value=10**9),
    transactions=st.lists(
        st.tuples(
            addr_text,
            st.lists(addr_text, max_size=3),
            st.lists(addr_text, min_size=1, max_size=3),
        ),
        max_size=6,
    ),
)


def test_block_is_defined_once_in_the_net_module():
    from chainpetri.ingest import Block as ingest_block
    from chainpetri.net import Block as net_block

    assert Block is ingest_block is net_block
    assert Block.__module__ == "chainpetri.net"


def test_chainpetri_ingest_is_the_function_and_its_module_holds_block():
    # the package binds the function over its submodule of the same name, so
    # the module is reached by import, never as an attribute
    import chainpetri

    assert isinstance(chainpetri.ingest, types.FunctionType) and chainpetri.ingest is ingest
    assert not hasattr(chainpetri.ingest, "Block")
    assert importlib.import_module("chainpetri.ingest").Block is chainpetri.Block


# -- parse_block ---------------------------------------------------------------


def test_parse_block_basic():
    block = parse_block(
        '{"transactions": [{"outputs": ["B"], "tx_id": "x", "inputs": ["A"], '
        '"note": "ignored"}], "height": 3, "weird": null}'
    )
    assert block.height == 3
    assert list(block.transactions()) == [("x", ["A"], ["B"])]


def test_parse_block_empty():
    block = parse_block('{"height":0,"transactions":[]}')
    assert block.height == 0
    assert list(block.transactions()) == []


def test_parse_block_empty_outputs():
    with pytest.raises(BlockValidationError) as err:
        parse_block('{"height":0,"transactions":[{"tx_id":"bad","inputs":[],"outputs":[]}]}')
    assert err.value.tx_id == "bad"


def test_parse_block_malformed_json_offset():
    with pytest.raises(BlockParseError) as err:
        parse_block('{"height": 0, "transactions": [}')
    assert err.value.offset == 31


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"transactions":[]}',
        '{"height":true,"transactions":[]}',
        '{"height":-1,"transactions":[]}',
        '{"height":0}',
        '{"height":0,"transactions":{}}',
        '{"height":0,"transactions":[3]}',
        '{"height":0,"transactions":[{"tx_id":"","inputs":[],"outputs":["A"]}]}',
        '{"height":0,"transactions":[{"tx_id":"x","outputs":["A"]}]}',
        '{"height":0,"transactions":[{"tx_id":"x","inputs":[""],"outputs":["A"]}]}',
        '{"height":0,"transactions":[{"tx_id":"x","inputs":[],"outputs":[7]}]}',
    ],
)
def test_parse_block_schema_violations(text):
    with pytest.raises(BlockValidationError):
        parse_block(text)


@given(block_values)
# quotes, backslashes, control characters, DEL, line and paragraph separators
# and non-ASCII, which JSON escapes or keeps in their own ways
@example(Block.of(7, [('"\\\x00\x1f', ["\x7f\u2028"], ["\u2029\u00e9\U0001f600", "t\tx\n"])]))
def test_encode_parse_identity(block):
    assert parse_block(encode_block(block)) == block
    assert encode_block(block) == block_json(block)


# values a name may or may not be: empty, lone surrogates, astral characters
# and every other JSON type
name_values = st.one_of(
    st.text(st.sampled_from(["a", "\u00e9", "\ud800", "\udfff", "\U0001f600"]), max_size=3),
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.lists(st.just("a"), max_size=1), st.dictionaries(st.just("a"), st.just("a"), max_size=1),
)


@given(name_values, st.lists(name_values, max_size=2), st.lists(name_values, max_size=2))
# JSON text decodes a high then a low surrogate escape as one astral character
@example("\ud800\udfff", [], ["a"])
def test_parse_block_refuses_what_the_net_refuses(tx_id, inputs, outputs):
    text = json.dumps({"height": 0, "transactions": [
        {"tx_id": tx_id, "inputs": inputs, "outputs": outputs}]})
    try:
        parse_block(text)
        parsed = True
    except BlockValidationError:
        parsed = False
    # the net gets the values as the parser sees them
    tx = json.loads(text)["transactions"][0]
    try:
        PlaceTransitionNet().record_transaction(tx["tx_id"], tx["inputs"], tx["outputs"])
        recorded = True
    except (ValueError, MalformedTransactionError):
        recorded = False
    assert parsed == recorded


# -- convert_rawblock -----------------------------------------------------------


def test_rawblock_coinbase():
    block, report = convert_rawblock(
        json.dumps({"height": 1, "tx": [{"hash": "c", "inputs": [{}], "out": [{"addr": "M"}]}]})
    )
    assert list(block.transactions()) == [("c", [], ["M"])]
    assert report.transactions == 1
    assert report.skipped_outputs == 0


def test_rawblock_skips_addressless_output():
    block, report = convert_rawblock(
        json.dumps(
            {
                "height": 1,
                "tx": [
                    {
                        "hash": "t",
                        "inputs": [{}],
                        "out": [{"addr": "A"}, {"script": "6a"}],
                    }
                ],
            }
        )
    )
    assert list(block.transactions()) == [("t", [], ["A"])]
    assert report.skipped_outputs == 1


def test_rawblock_spend_chain():
    raw = {
        "height": 2,
        "tx": [
            {"hash": "t1", "inputs": [{}], "out": [{"addr": "A"}]},
            {"hash": "t2", "inputs": [{"prev_out": {"addr": "A"}}], "out": [{"addr": "B"}]},
        ],
    }
    block, report = convert_rawblock(json.dumps(raw))
    assert list(block.transactions()) == [("t1", [], ["A"]), ("t2", ["A"], ["B"])]
    assert report.transactions == 2


def test_rawblock_skipped_input_counted():
    raw = {
        "height": 0,
        "tx": [
            {
                "hash": "t",
                "inputs": [{"prev_out": {"script": "xx"}}],
                "out": [{"addr": "A"}],
            }
        ],
    }
    block, report = convert_rawblock(json.dumps(raw))
    assert list(block.transactions()) == [("t", [], ["A"])]
    assert report.skipped_inputs == 1


def test_rawblock_drops_transaction_without_usable_outputs():
    raw = {
        "height": 0,
        "tx": [
            {"hash": "gone", "inputs": [{}], "out": [{"script": "6a"}]},
            {"hash": "kept", "inputs": [{}], "out": [{"addr": "A"}]},
        ],
    }
    block, report = convert_rawblock(json.dumps(raw))
    assert block.tx_ids == ["kept"]
    assert report.skipped_transactions == 1
    assert report.skipped_outputs == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"tx": []},
        {"height": 0},
        {"height": 0, "tx": 3},
        {"height": 0, "tx": [{"inputs": [], "out": [{"addr": "A"}]}]},
        {"height": 0, "tx": [{"hash": "h", "inputs": 5, "out": [{"addr": "A"}]}]},
        {"height": 0, "tx": [{"hash": "h", "inputs": [{}], "out": 5}]},
        {"height": -3, "tx": []},
        [{"height": 0, "tx": []}],
        {"height": 0, "tx": [3]},
        {"height": 0, "tx": [{"hash": "h", "inputs": [5], "out": [{"addr": "A"}]}]},
        {"height": 0, "tx": [{"hash": "h", "inputs": [{}], "out": ["A"]}]},
        # refused for the missing hash although its only output is skipped
        {"height": 0, "tx": [{"inputs": [{}], "out": [{"script": "6a"}]}]},
    ],
)
def test_rawblock_validation_errors(doc):
    with pytest.raises(BlockValidationError) as err:
        convert_rawblock(json.dumps(doc))
    txs = doc.get("tx") if isinstance(doc, dict) else None
    first = txs[0] if isinstance(txs, list) and txs else None
    if isinstance(first, dict) and "hash" in first:
        assert err.value.tx_id == first["hash"]


def test_rawblock_malformed_json():
    with pytest.raises(BlockParseError):
        convert_rawblock("{nope")


@given(block_values)
def test_rawblock_round_trip_preserves_addresses(block):
    converted, report = convert_rawblock(json.dumps(rawblock_doc(block)))
    assert converted == block
    assert report.transactions == len(block.tx_ids)
    assert report.skipped_inputs == report.skipped_outputs == 0


def test_rawblock_preserves_address_multiset():
    raw = {
        "height": 0,
        "tx": [
            {"hash": "f", "inputs": [{}], "out": [{"addr": "A"}, {"addr": "A"}, {"addr": "B"}]},
        ],
    }
    block, _ = convert_rawblock(json.dumps(raw))
    assert list(block.transactions()) == [("f", [], ["A", "A", "B"])]


# -- ingest ---------------------------------------------------------------------


def test_ingest_sample(sample_blocks):
    net, report = ingest(sample_blocks)
    assert report.blocks == 2
    assert report.addresses == 6
    assert report.transactions == 7
    assert report.pre_arcs == 5
    assert report.post_arcs == 10
    assert report.rejects == 0
    assert net.sealed
    assert np.array_equal(net.pre.toarray(), SAMPLE_PRE)
    assert np.array_equal(net.post.toarray(), SAMPLE_POST)


def test_ingest_empty_stream():
    net, report = ingest([])
    assert net.sealed
    assert net.num_places == 0
    assert report.as_dict() == {
        "blocks": 0,
        "transactions": 0,
        "addresses": 0,
        "pre_arcs": 0,
        "post_arcs": 0,
        "rejects": 0,
        "rejected_tx_ids": [],
    }


def test_ingest_rejects_unordered_heights(sample_blocks):
    with pytest.raises(BlockOrderingError):
        ingest(reversed(sample_blocks))
    with pytest.raises(BlockOrderingError):
        ingest([sample_blocks[0], sample_blocks[0]])


@pytest.mark.parametrize("mode", ["lax", "strict"])
@pytest.mark.parametrize("block, error, message", [
    (Block(0, ["c", "d"], ["A", "B"], [0, 0], [1, 5]), ValueError, "add up to its addresses"),
    (Block(0, ["c", "d"], ["A", "B"], [0, 0], [1]), ValueError, "one input and one output count"),
    (Block(0, ["c"], ["A"], [0], [True]), TypeError, "must be integers"),
], ids=["sum", "length", "bool"])
def test_ingest_refuses_counts_that_do_not_fit_the_block(mode, block, error, message):
    with pytest.raises(error, match=message):
        ingest([block], mode=mode)


def test_ingest_bad_mode(sample_blocks):
    with pytest.raises(ValueError):
        ingest(sample_blocks, mode="chaotic")


def test_strict_rejects_unfunded_spend():
    blocks = [
        Block.of(
            0,
            [
                ("fund", [], ["A"]),
                ("bad", ["Z"], ["B"]),
                ("ok", ["A"], ["C"]),
            ],
        )
    ]
    net, report = ingest(blocks, mode="strict")
    assert report.rejects == 1
    assert report.rejected_tx_ids == ["bad"]
    assert report.transactions == 2
    # the rejected transaction leaves no trace, not even its addresses
    assert net.lookup_place("Z") is None
    assert net.lookup_place("B") is None


def test_strict_rejects_double_spend():
    blocks = [
        Block.of(
            0,
            [
                ("fund", [], ["A"]),
                ("s1", ["A"], ["B"]),
                ("s2", ["A"], ["C"]),
            ],
        )
    ]
    _, report = ingest(blocks, mode="strict")
    assert report.rejected_tx_ids == ["s2"]


@pytest.mark.parametrize("mode", ["lax", "strict"])
@pytest.mark.parametrize("later, error, message", [
    ([("t", ["A"], ["C"])], DuplicateTransactionError, "transaction 't' already recorded"),
    ([("t", ["A"], ["C"]), ("u", ["A"], [])], DuplicateTransactionError,
     "transaction 't' already recorded"),
    ([("u", ["A"], []), ("t", ["A"], ["C"])], MalformedTransactionError,
     "transaction 'u' has no outputs"),
], ids=["alone", "duplicate-first", "no-outputs-first"])
@pytest.mark.parametrize("split", [True, False], ids=["two-blocks", "one-block"])
def test_a_rejected_tx_id_counts_as_recorded(mode, later, error, message, split):
    # strict rejects "t" (its input Z was never paid), yet a later "t" is a duplicate
    first = [("c", [], ["A"]), ("t", ["Z"], ["B"])]
    blocks = [Block.of(0, first), Block.of(1, later)] if split else [Block.of(1, first + later)]
    if error is DuplicateTransactionError:
        message = f"block 1: {message}"
    with pytest.raises(error) as raised:
        ingest(blocks, mode=mode)
    assert (type(raised.value), str(raised.value)) == (error, message)


@pytest.mark.parametrize("seed", range(8))
def test_strict_matches_independent_simulation(seed):
    import random

    rng = random.Random(seed)
    txs = random_transactions(rng, n_tx=60, pool_size=8, repeat_bias=0.0)
    # split at random points, so running counts carry across blocks
    cuts = [0, *sorted(rng.sample(range(1, len(txs)), k=rng.randint(0, 6))), len(txs)]
    blocks = [Block.of(h, txs[a:b]) for h, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    net, report = ingest(blocks, mode="strict")
    accepted, rejected = simulate_strict(txs)
    assert report.rejected_tx_ids == rejected
    assert net.transaction_ids == accepted


@pytest.mark.parametrize("seed", range(4))
def test_lax_never_rejects(seed):
    import random

    rng = random.Random(seed)
    txs = random_transactions(rng, n_tx=50, pool_size=6)
    blocks = [Block.of(0, txs)]
    _, report = ingest(blocks, mode="lax")
    assert report.rejects == 0
    assert report.transactions == len(txs)
