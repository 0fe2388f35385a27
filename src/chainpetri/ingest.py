"""Block parsing and streaming ingestion into a place/transition net.

Two wire formats are understood: the canonical block schema
(``{"height": .., "transactions": [{"tx_id", "inputs", "outputs"}, ..]}``)
and the blockchain.info-style rawblock subset handled by
`convert_rawblock`.  Both parsers share one prologue (JSON decode, object
and height checks) and check the shape of each transaction themselves.
Whether a tx id or address is a name is the net's rule (`net.are_names`),
which each parser applies once per block.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from .errors import (
    BlockOrderingError,
    BlockParseError,
    BlockValidationError,
    DuplicateTransactionError,
)
from .net import NAME_RULE, Block, PlaceTransitionNet, _json_strings, are_names

LAX = "lax"
STRICT = "strict"


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


def _block_document(json_text: str) -> tuple[dict, int]:
    """The prologue both block formats share: decode the JSON, which must be
    an object holding a non-negative integer height."""
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise BlockParseError(exc.msg, exc.pos) from exc
    if not isinstance(doc, dict):
        raise BlockValidationError("block must be a JSON object")
    height = doc.get("height")
    # bool is an int subclass; a JSON true/false here is a schema violation
    if isinstance(height, bool) or not isinstance(height, int) or height < 0:
        raise BlockValidationError("'height' must be a non-negative integer")
    return doc, height


def _require_list(value, what: str, tx_id) -> list:
    if not isinstance(value, list):
        raise BlockValidationError(f"{what} must be an array", tx_id)
    return value


def _require_names(block: Block) -> Block:
    """Refuse a block unless every tx id and address in it is a name by the
    net's one rule, naming the first transaction that holds one that is not.
    A valid block costs one check of its tx ids and one of its addresses."""
    if not (are_names(block.tx_ids) and are_names(block.addresses)):
        for tx_id, inputs, outputs in block.transactions():
            if not are_names([tx_id, *inputs, *outputs]):
                _refuse_names(tx_id)
    return block


def _refuse_names(tx_id):
    raise BlockValidationError(f"tx id and addresses must be {NAME_RULE}", tx_id)


def parse_block(json_text: str) -> Block:
    """Parse canonical block JSON; field order irrelevant, unknown fields ignored."""
    doc, height = _block_document(json_text)
    txs_doc = doc.get("transactions")
    if not isinstance(txs_doc, list):
        raise BlockValidationError("missing or invalid field 'transactions'")

    tx_ids, addresses, input_counts, output_counts = [], [], [], []
    for tx in txs_doc:
        if not isinstance(tx, dict):
            raise BlockValidationError("transaction entry must be an object")
        tx_id = tx.get("tx_id")
        if "inputs" not in tx or "outputs" not in tx:
            raise BlockValidationError("missing 'inputs' or 'outputs'", tx_id)
        inputs, outputs = tx["inputs"], tx["outputs"]
        if not (isinstance(inputs, list) and isinstance(outputs, list) and outputs):
            _require_list(inputs, "inputs", tx_id)
            _require_list(outputs, "outputs", tx_id)
            raise BlockValidationError("outputs must be non-empty", tx_id)
        tx_ids.append(tx_id)
        addresses += inputs
        addresses += outputs
        input_counts.append(len(inputs))
        output_counts.append(len(outputs))
    return _require_names(Block(height, tx_ids, addresses, input_counts, output_counts))


def encode_block(block: Block) -> str:
    """Canonical JSON encoding, as `json.dumps` of the block document writes it
    with `ensure_ascii=False` and no spaces; `parse_block(encode_block(b))`
    reproduces `b`.  Each name is encoded once, then cut by the counts."""
    txs = replace(block, tx_ids=_json_strings(block.tx_ids),
                  addresses=_json_strings(block.addresses)).transactions()
    return (f'{{"height":{block.height},"transactions":['
            + ",".join(f'{{"tx_id":{tx_id},"inputs":[{",".join(inputs)}],'
                       f'"outputs":[{",".join(outputs)}]}}' for tx_id, inputs, outputs in txs)
            + "]}")


def convert_rawblock(json_text: str) -> tuple[Block, RawBlockReport]:
    """Convert a blockchain.info-style rawblock into a canonical Block.

    Mapping: ``tx[].inputs[].prev_out.addr`` -> inputs, ``tx[].out[].addr``
    -> outputs.  An input without ``prev_out`` marks a coinbase; entries
    without ``addr`` are skipped and counted.  A transaction whose outputs
    are all skipped is dropped whole (the canonical schema forbids empty
    output lists) and counted in ``skipped_transactions``.
    """
    doc, height = _block_document(json_text)
    if "tx" not in doc or not isinstance(doc["tx"], list):
        raise BlockValidationError("missing or invalid field 'tx'")

    report = RawBlockReport()
    block = Block(height, [], [], [], [])
    for tx in doc["tx"]:
        if not isinstance(tx, dict):
            raise BlockValidationError("rawblock tx entry must be an object")
        tx_id = tx.get("hash")

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
            # dropped, so its addresses go unchecked, but its hash must still be a name
            if not are_names([tx_id]):
                _refuse_names(tx_id)
            report.skipped_transactions += 1
            continue
        report.transactions += 1
        block.append(tx_id, inputs, outputs)
    return _require_names(block), report


def ingest(blocks, mode: str = LAX) -> tuple[PlaceTransitionNet, IngestReport]:
    """Fold an ordered stream of `Block`s into a sealed address-level net.

    Blocks must arrive with strictly increasing heights; each is recorded
    when it arrives, so a generator may make and drop them one at a time.
    Lax mode accepts every transaction and records each block whole with
    `PlaceTransitionNet.record_block`.  Strict mode records transaction by
    transaction with `record_transaction` and rejects (records in the
    report, not fatal) one whose input addresses include one with a running
    count of receives minus spends <= 0 at that moment.  It keeps those
    counts itself, so a rejected transaction interns nothing, but its tx id
    counts as recorded.  Both modes first refuse a malformed block with the
    error `record_block` raises: the first a `record_transaction` loop over
    the whole block would meet.  A duplicate tx id raises
    `DuplicateTransactionError` naming the block's height.
    """
    if mode not in (LAX, STRICT):
        raise ValueError(f"mode must be '{LAX}' or '{STRICT}', got {mode!r}")
    net = PlaceTransitionNet()
    report = IngestReport()
    last_height = None
    strict = mode == STRICT
    # strict mode's receives minus spends per address (none if never paid), and its rejects
    unspent, rejected = {}, set()

    for block in blocks:
        if last_height is not None and block.height <= last_height:
            raise BlockOrderingError(
                f"block height {block.height} follows {last_height}; "
                "heights must be strictly increasing"
            )
        last_height = block.height
        report.blocks += 1
        try:
            if not strict:
                net.record_block(block)
                continue
            net._check_block(block, rejected)
            for tx_id, inputs, outputs in block.transactions():
                spent = set(inputs)
                # counts never fall below 0, so this fails only on an input
                # never paid (None) or spent out (0)
                if not all(map(unspent.get, spent)):
                    report.rejects += 1
                    report.rejected_tx_ids.append(tx_id)
                    rejected.add(tx_id)
                    continue
                net.record_transaction(tx_id, inputs, outputs)
                for addr in spent:
                    unspent[addr] -= 1
                for addr in set(outputs):
                    unspent[addr] = unspent.get(addr, 0) + 1
        except DuplicateTransactionError as exc:
            raise DuplicateTransactionError(f"block {block.height}: {exc}") from exc

    net.seal()
    report.transactions = net.num_transitions
    report.addresses = net.num_places
    report.pre_arcs = net.pre.nnz
    report.post_arcs = net.post.nnz
    return net, report

