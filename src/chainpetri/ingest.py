"""Block parsing and streaming ingestion into a place/transition net.

Two wire formats are understood: the canonical block schema
(``{"height": .., "transactions": [{"tx_id", "inputs", "outputs"}, ..]}``)
and the blockchain.info-style rawblock subset handled by
`convert_rawblock`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import (
    BlockOrderingError,
    BlockParseError,
    BlockValidationError,
    DuplicateTransactionError,
)
from .net import PlaceTransitionNet

LAX = "lax"
STRICT = "strict"


@dataclass(slots=True)
class TransactionRecord:
    tx_id: str
    inputs: list[str]
    outputs: list[str]


@dataclass(slots=True)
class Block:
    height: int
    transactions: list[TransactionRecord]


@dataclass(slots=True)
class RawBlockReport:
    """Accounting of what a rawblock conversion had to skip."""

    transactions: int = 0
    skipped_inputs: int = 0
    skipped_outputs: int = 0
    skipped_transactions: int = 0


@dataclass(slots=True)
class IngestReport:
    blocks: int = 0
    transactions: int = 0
    addresses: int = 0
    pre_arcs: int = 0
    post_arcs: int = 0
    rejects: int = 0
    rejected_tx_ids: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def _require_int(value, what: str, tx_id: str | None = None) -> int:
    # bool is an int subclass; a JSON true/false here is a schema violation
    if isinstance(value, bool) or not isinstance(value, int):
        raise BlockValidationError(f"{what} must be an integer", tx_id)
    return value


def _require_height(doc: dict) -> int:
    if "height" not in doc:
        raise BlockValidationError("missing field 'height'")
    height = _require_int(doc["height"], "height")
    if height < 0:
        raise BlockValidationError("height must be non-negative")
    return height


def _require_list(value, what: str, tx_id: str) -> list:
    if not isinstance(value, list):
        raise BlockValidationError(f"{what} must be an array", tx_id)
    return value


def _require_addr_list(value, what: str, tx_id: str) -> list[str]:
    for addr in _require_list(value, what, tx_id):
        if not isinstance(addr, str) or not addr:
            raise BlockValidationError(f"{what} contains a non-address entry {addr!r}", tx_id)
    return value


def _require_utf8(records: list[TransactionRecord]) -> list[TransactionRecord]:
    # a JSON escape such as "\ud800" decodes to a lone surrogate, which UTF-8
    # cannot encode and so no snapshot can store; one join checks the block
    names = []
    for tx in records:
        names.append(tx.tx_id)
        names += tx.inputs
        names += tx.outputs
    try:
        "".join(names).encode()
    except UnicodeEncodeError:
        for tx in records:
            try:
                "".join([tx.tx_id, *tx.inputs, *tx.outputs]).encode()
            except UnicodeEncodeError:
                raise BlockValidationError(
                    "tx id or address is not encodable as UTF-8 (lone surrogate)", tx.tx_id
                ) from None
    return records


def parse_block(json_text: str) -> Block:
    """Parse canonical block JSON; field order irrelevant, unknown fields ignored."""
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise BlockParseError(exc.msg, exc.pos) from exc
    if not isinstance(doc, dict):
        raise BlockValidationError("block must be a JSON object")
    height = _require_height(doc)
    if "transactions" not in doc:
        raise BlockValidationError("missing field 'transactions'")
    txs_doc = doc["transactions"]
    if not isinstance(txs_doc, list):
        raise BlockValidationError("'transactions' must be an array")

    records = []
    for tx in txs_doc:
        if not isinstance(tx, dict):
            raise BlockValidationError("transaction entry must be an object")
        tx_id = tx.get("tx_id")
        if not isinstance(tx_id, str) or not tx_id:
            raise BlockValidationError("missing or empty 'tx_id'")
        if "inputs" not in tx or "outputs" not in tx:
            raise BlockValidationError("missing 'inputs' or 'outputs'", tx_id)
        inputs = _require_addr_list(tx["inputs"], "inputs", tx_id)
        outputs = _require_addr_list(tx["outputs"], "outputs", tx_id)
        if not outputs:
            raise BlockValidationError("outputs must be non-empty", tx_id)
        records.append(TransactionRecord(tx_id, list(inputs), list(outputs)))
    return Block(height, _require_utf8(records))


def encode_block(block: Block) -> str:
    """Canonical JSON encoding; `parse_block(encode_block(b))` reproduces `b`."""
    doc = {
        "height": block.height,
        "transactions": [
            {"tx_id": tx.tx_id, "inputs": tx.inputs, "outputs": tx.outputs}
            for tx in block.transactions
        ],
    }
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def convert_rawblock(json_text: str) -> tuple[Block, RawBlockReport]:
    """Convert a blockchain.info-style rawblock into a canonical Block.

    Mapping: ``tx[].inputs[].prev_out.addr`` -> inputs, ``tx[].out[].addr``
    -> outputs.  An input without ``prev_out`` marks a coinbase; entries
    without ``addr`` are skipped and counted.  A transaction whose outputs
    are all skipped is dropped whole (the canonical schema forbids empty
    output lists) and counted in ``skipped_transactions``.
    """
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise BlockParseError(exc.msg, exc.pos) from exc
    if not isinstance(doc, dict):
        raise BlockValidationError("rawblock must be a JSON object")
    height = _require_height(doc)
    if "tx" not in doc or not isinstance(doc["tx"], list):
        raise BlockValidationError("missing or invalid field 'tx'")

    report = RawBlockReport()
    records = []
    for tx in doc["tx"]:
        if not isinstance(tx, dict):
            raise BlockValidationError("rawblock tx entry must be an object")
        tx_id = tx.get("hash")
        if not isinstance(tx_id, str) or not tx_id:
            raise BlockValidationError("rawblock tx missing 'hash'")

        inputs = []
        for entry in _require_list(tx.get("inputs", []), "inputs", tx_id):
            if not isinstance(entry, dict):
                raise BlockValidationError("input entry must be an object", tx_id)
            prev = entry.get("prev_out")
            if prev is None:
                continue  # coinbase marker
            addr = prev.get("addr") if isinstance(prev, dict) else None
            if isinstance(addr, str) and addr:
                inputs.append(addr)
            else:
                report.skipped_inputs += 1

        outputs = []
        for entry in _require_list(tx.get("out", []), "out", tx_id):
            if not isinstance(entry, dict):
                raise BlockValidationError("output entry must be an object", tx_id)
            addr = entry.get("addr")
            if isinstance(addr, str) and addr:
                outputs.append(addr)
            else:
                report.skipped_outputs += 1

        if not outputs:
            report.skipped_transactions += 1
            continue
        report.transactions += 1
        records.append(TransactionRecord(tx_id, inputs, outputs))
    return Block(height, _require_utf8(records)), report


def ingest(blocks, mode: str = LAX) -> tuple[PlaceTransitionNet, IngestReport]:
    """Fold an ordered block stream into a sealed address-level net.

    Blocks must arrive with strictly increasing heights.  In strict mode a
    transaction is rejected (recorded, not fatal) when any of its input
    addresses has a running utxo count <= 0 at that moment; lax mode accepts
    everything.
    """
    if mode not in (LAX, STRICT):
        raise ValueError(f"mode must be '{LAX}' or '{STRICT}', got {mode!r}")
    net = PlaceTransitionNet()
    report = IngestReport()
    last_height = None
    strict = mode == STRICT

    for block in blocks:
        if last_height is not None and block.height <= last_height:
            raise BlockOrderingError(
                f"block height {block.height} follows {last_height}; "
                "heights must be strictly increasing"
            )
        last_height = block.height
        report.blocks += 1
        for tx in block.transactions:
            if strict and tx.inputs and not _spendable(net, tx.inputs):
                report.rejects += 1
                report.rejected_tx_ids.append(tx.tx_id)
                continue
            try:
                net.record_transaction(tx.tx_id, tx.inputs, tx.outputs)
            except DuplicateTransactionError as exc:
                raise DuplicateTransactionError(f"block {block.height}: {exc}") from exc

    net.seal()
    report.transactions = net.num_transitions
    report.addresses = net.num_places
    report.pre_arcs = net.pre.nnz
    report.post_arcs = net.post.nnz
    return net, report


def _spendable(net: PlaceTransitionNet, inputs) -> bool:
    # Never-seen addresses have utxo 0 and fail the check; look up without
    # interning so rejected transactions leave no trace in the registry.
    for addr in set(inputs):
        place = net.lookup_place(addr)
        if place is None or net.utxo_count(place) <= 0:
            return False
    return True
