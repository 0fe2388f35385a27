"""Place/transition net over a ledger: registries plus sparse pre/post incidence.

Addresses become places, transactions become transitions.  Construction is
single-writer (record); `seal()` freezes the net, after which every query is
read-only and safe to share across threads.  A sealed address net
persists as one binary snapshot format (`save_snapshot`/`load_snapshot`).
"""

from __future__ import annotations

import itertools
import os
import tokenize
from array import array
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicateTransactionError,
    MalformedTransactionError,
    NetNotSealedError,
    NetSealedError,
    SnapshotError,
)

SNAPSHOT_MAGIC = b"chainpetri-snapshot-v2\n"

ADDRESS_LEVEL = "address"
ENTITY_LEVEL = "entity"
SIDES = ("pre", "post")

_INT32_LIMIT = 2**31  # a `SparseIncidence` below it on every count and value is int32


class Compressed(NamedTuple):
    """One compressed form: line i holds `indices[indptr[i]:indptr[i + 1]]`
    (ascending) with values `data[indptr[i]:indptr[i + 1]]`."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class SparseIncidence:
    """Immutable sparse positive-integer matrix with row and column iteration.

    Stores one compressed column form, whose arrays are read-only, plus the
    per-row entry counts; the row form is derived on request.  Zero entries
    are never stored.  All four arrays are int32 when the row count and every
    value are below `_INT32_LIMIT`, else int64, whatever the input's width:
    a product or sum of stored values must widen first.
    """

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        """Check and store a compressed column form: column j holds rows
        `indices[indptr[j]:indptr[j + 1]]`, strictly rising, with values
        `data[indptr[j]:indptr[j + 1]]`, each at least 1.  Raises ValueError
        on a float, bool or object array, on a malformed `indptr`, on a row
        outside `shape` (naming the first), on rows that do not rise within
        a column and on a value below 1."""
        self.num_rows, self.num_cols = shape
        arrays = [np.asarray(a) for a in (indptr, indices, data)]
        if any(a.size and a.dtype.kind not in "iu" for a in arrays):
            raise ValueError("indptr, rows and values must be integer arrays")
        fits = all(-_INT32_LIMIT <= a.min(initial=0) and a.max(initial=0) < _INT32_LIMIT
                   for a in arrays)
        width = np.int32 if fits and self.num_rows < _INT32_LIMIT else np.int64
        indptr, indices, data = (a.astype(width, copy=False) for a in arrays)
        nnz = len(indices)
        if (len(indptr) != self.num_cols + 1 or indptr[0] != 0 or indptr[-1] != nnz
                or np.any(indptr[1:] < indptr[:-1]) or len(data) != nnz):
            raise ValueError("indptr must start at 0, not fall and end at nnz == len(data)")
        # the rows as given, so that an error names a row before the width changes it
        rows = arrays[1]
        if nnz and (rows.min() < 0 or rows.max() >= self.num_rows):
            bad = rows[(rows < 0) | (rows >= self.num_rows)][0]
            raise ValueError(f"row {bad} out of range (0..{self.num_rows - 1})")
        # a row may only fail to rise where its entry starts a column
        starts = np.zeros(nnz + 1, dtype=bool)
        starts[indptr] = True
        if np.any((indices[1:] <= indices[:-1]) & ~starts[1:nnz]):
            raise ValueError("rows must rise strictly within each column")
        if nnz and data.min() < 1:
            raise ValueError("incidence entries must be at least 1")
        self._csc = Compressed(indptr, indices, data)
        self._row_nnz = np.bincount(indices, minlength=self.num_rows).astype(width)
        for stored in (*self._csc, self._row_nnz):
            stored.flags.writeable = False

    @property
    def nnz(self) -> int:
        return len(self._csc.data)

    def row_nnz(self, row: int) -> int:
        _check_index(row, self.num_rows, "row")
        return int(self._row_nnz[row])

    def row_nnz_all(self) -> np.ndarray:
        """Per-row entry counts as one read-only array."""
        return self._row_nnz

    def column_entries(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and values stored in one column."""
        _check_index(col, self.num_cols, "column")
        csc = self._csc
        lo, hi = csc.indptr[col], csc.indptr[col + 1]
        return csc.indices[lo:hi], csc.data[lo:hi]

    def row_entries(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Column ids and values stored in one row: a scan of all entries."""
        _check_index(row, self.num_rows, "row")
        csc = self._csc
        hits = np.flatnonzero(csc.indices == row)
        return np.searchsorted(csc.indptr, hits, side="right") - 1, csc.data[hits]

    def col_nnz_all(self) -> np.ndarray:
        """Per-column entry counts as one array."""
        return np.diff(self._csc.indptr)

    def entry_columns(self) -> np.ndarray:
        """Column id of every entry in compressed-column order."""
        return np.repeat(np.arange(self.num_cols), self.col_nnz_all())

    def tocsc(self) -> Compressed:
        """The stored column form itself; its arrays are read-only."""
        return self._csc

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.int64)
        dense[self._csc.indices, self.entry_columns()] = self._csc.data
        return dense


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`arange(s, s + n)` for each start s and length n, end to end."""
    return np.arange(lengths.sum()) + np.repeat(starts - _offsets(lengths)[:-1], lengths)


def _label_groups(labels: np.ndarray, min_size: int) -> list[list[int]]:
    """The ids carrying each label, ascending, in label order; labels held by
    fewer than `min_size` ids are left out."""
    sizes = np.bincount(labels)
    keep = sizes >= min_size
    members = np.argsort(labels, kind="stable")[np.repeat(keep, sizes)].tolist()
    return _split(members, _offsets(sizes[keep]))


def _split(items: list, bounds: np.ndarray) -> list[list]:
    """`items[bounds[i]:bounds[i + 1]]` for each i."""
    bounds = bounds.tolist()
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# strings per write of `_write_json_rows`, each row counting as one more, and names
# per write of a snapshot's name blob: bounds the text held at once
_STRINGS_PER_WRITE = 2048


def _write_json_rows(fh, sizes: np.ndarray, rows):
    """Write report rows as `json.dump(rows, fh, indent=2, ensure_ascii=False)` and a
    newline would.  Row i holds `sizes[i]` strings.  Each `fh.write` takes as many
    of the next rows as `_STRINGS_PER_WRITE` allows, and at least one.  `rows(lo, hi)`
    returns the texts of rows lo..hi-1, each an object indented by one level."""
    ends = _offsets(sizes + 1)
    count, lo = len(ends) - 1, 0
    if not count:
        fh.write("[]\n")
    while lo < count:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _STRINGS_PER_WRITE, "right")) - 1)
        fh.write(("[\n" if lo == 0 else ",\n") + ",\n".join(rows(lo, hi))
                 + ("\n]\n" if hi == count else ""))
        lo = hi


def _json_strings(names: list[str]) -> list[str]:
    """Each name as a JSON string literal, as `ensure_ascii=False` writes it."""
    return list(map(encode_basestring, names))


# the rule of `are_names` in words, for the errors that refuse a name
NAME_RULE = "a non-empty string that UTF-8 can encode (no lone surrogate)"


def are_names(values) -> bool:
    """Whether every value can name a place or a transition: a non-empty str
    that UTF-8, and so a snapshot, can encode, which a lone surrogate bars.
    The one rule for names; one join checks the whole batch."""
    try:
        # TypeError unless every value is a str, UnicodeEncodeError on a lone surrogate
        "".join(values).encode()
    except (TypeError, UnicodeEncodeError):
        return False
    return all(values)


def _ones(count: int) -> np.ndarray:
    """The values of an address-level matrix: a read-only view of one int32 1."""
    return np.broadcast_to(np.int32(1), count)


@dataclass(slots=True)
class Block:
    """One block held column-wise, as both parsers return it and as the net
    records it: the height, the tx ids, every address in document order
    (each transaction's inputs, then its outputs) and, per transaction, the
    counts of its inputs and outputs.  `Block.of` builds one from
    (tx_id, inputs, outputs) triples and `transactions` yields them back."""

    height: int
    tx_ids: list[str]
    addresses: list[str]
    input_counts: list[int]
    output_counts: list[int]

    @classmethod
    def of(cls, height: int, transactions) -> "Block":
        block = cls(height, [], [], [], [])
        for tx in transactions:
            block.append(*tx)
        return block

    def append(self, tx_id: str, inputs: list[str], outputs: list[str]):
        """Add one transaction after the others; nothing is checked."""
        self.tx_ids.append(tx_id)
        self.addresses += inputs
        self.addresses += outputs
        self.input_counts.append(len(inputs))
        self.output_counts.append(len(outputs))

    def transactions(self):
        """An iterator of (tx_id, inputs, outputs) per transaction, each side a
        fresh slice of `addresses` made only when it is reached.  Counts that
        do not fit the block raise as in `_sizes`, before the first transaction."""
        cut = self.addresses.__getitem__
        bounds = _offsets(self._sizes()).tolist()
        inputs = map(cut, map(slice, bounds[0::2], bounds[1::2]))
        outputs = map(cut, map(slice, bounds[1::2], bounds[2::2]))
        return zip(self.tx_ids, inputs, outputs)

    def _sizes(self) -> np.ndarray:
        """Each transaction's input count, then its output count, in turn.
        Raises TypeError on a count that is not an integer (a bool is not),
        and ValueError unless there is one input and one output count per tx
        id, none negative, and they add up to the addresses."""
        ins, outs, total = self.input_counts, self.output_counts, len(self.addresses)
        if not len(ins) == len(outs) == len(self.tx_ids):
            raise ValueError("a block needs one input and one output count per transaction")
        kinds = {*map(type, ins), *map(type, outs)}
        if not all(issubclass(kind, (int, np.integer)) and kind is not bool for kind in kinds):
            raise TypeError("the counts of a block must be integers")
        sizes = np.empty(2 * len(ins), dtype=np.int64)
        try:
            sizes[0::2], sizes[1::2] = ins, outs
            # with every count within 0..total, the sum cannot wrap around
            fits = 0 <= sizes.min(initial=0) and sizes.max(initial=0) <= total == sizes.sum()
        except OverflowError:  # a count beyond int64
            fits = False
        if not fits:
            raise ValueError("the counts of a block must add up to its addresses")
        return sizes


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of where each run of equal values starts in an ascending array."""
    starts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """Distinct values of an ascending array by a neighbour mask (`np.unique` hashes: slower)."""
    return ordered[_run_starts(ordered)]


def _check_index(index: int, size: int, what: str):
    if not 0 <= index < size:
        raise IndexError(f"{what} {index} out of range (0..{size - 1})")


class _Registry:
    """Names in id order plus the name -> id dict, built on the first lookup.
    Subclasses hold the names in other forms and decode on demand."""

    def __init__(self, names: list[str]):
        self.names, self.index = names, None

    def __len__(self) -> int:
        return len(self.names)

    def name(self, i: int) -> str:
        return self.take([i])[0]

    def take(self, ids: list[int]) -> list[str]:
        """The names of the ids, in their order; a negative id counts from the
        end, as a list index does."""
        return list(map(self.names.__getitem__, ids))

    def all(self) -> list[str]:
        """Every name in id order, as a fresh list."""
        return self.take(range(len(self)))

    def ids(self) -> dict[str, int]:
        if self.index is None:
            self.index = {name: i for i, name in enumerate(self.all())}
        return self.index

    def write_blob(self, fh) -> np.ndarray:
        """Write the names' UTF-8 blob as `write_array` would, the UTF-8 of
        `_STRINGS_PER_WRITE` names per write; return each name's offset in it."""
        names, step = self.names, _STRINGS_PER_WRITE
        bounds = _offsets(np.fromiter(map(len, map(str.encode, names)), np.int64, len(names)))
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "|u1", "fortran_order": False, "shape": (int(bounds[-1]),)})
        for lo in range(0, len(names), step):
            fh.write("".join(names[lo:lo + step]).encode())
        return bounds


class _Building(_Registry):
    """A building net's registry: `names`, a plain dict in id order from a tx id to
    its id or from an address to its stamp, which the collector never walks (a dict
    subclass it would).  It answers no name query until `seal()`."""

    def name(self, *_):
        raise NetNotSealedError("name queries exist only on a sealed net")

    take = all = ids = name


class _BlobRegistry(_Registry):
    """The names as a snapshot stores them: one UTF-8 blob, name i at
    `blob[bounds[i]:bounds[i + 1]]`.  A name is decoded only when asked for,
    so `all()` decodes every name on each call."""

    def __init__(self, blob: bytes, bounds: np.ndarray):
        self.blob, self.bounds, self.index = blob, bounds, None

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def take(self, ids: list[int]) -> list[str]:
        count, ids = len(self), np.asarray(ids, dtype=np.int64)
        if len(ids) and (ids.min() < -count or ids.max() >= count):
            raise IndexError(f"name id out of range (0..{count - 1})")
        ids = np.where(ids < 0, ids + count, ids)
        blob, bounds = self.blob, self.bounds
        return [blob[lo:hi].decode()
                for lo, hi in zip(bounds[ids].tolist(), bounds[ids + 1].tolist())]

    def write_blob(self, fh) -> np.ndarray:
        np.lib.format.write_array(fh, np.frombuffer(self.blob, np.uint8), allow_pickle=False)
        return self.bounds


class _LabelRegistry(_Registry):
    """The names `e0` .. `e<count - 1>` of an entity net, formatted when asked for."""

    def __init__(self, count: int):
        self.count, self.index = count, None

    def __len__(self) -> int:
        return self.count

    def take(self, ids: list[int]) -> list[str]:
        labels = range(self.count)
        return [f"e{labels[i]}" for i in ids]


class PlaceTransitionNet:
    """Bipartite incidence model: places (addresses) x transitions (transactions).

    Address-level nets are binary (every stored entry is 1); entity-level nets
    built by row summation may hold larger values.
    """

    def __init__(self):
        self._level = ADDRESS_LEVEL
        # Build state, dropped by seal(): a tx id maps to its id, an address to its
        # stamp (what `_stamps` gave its first occurrence); per side, the stamp of
        # every arc in column order plus the column offsets into it.
        self._places, self._txs = _Building({}), _Building({})
        self._stamps = itertools.count()
        self._arcs: dict[str, tuple[array, array]] | None = {
            side: (array("q"), array("q", [0])) for side in SIDES
        }
        self._incidence: dict[str, SparseIncidence] = {}

    @classmethod
    def _assemble(cls, places: _Registry, txs: _Registry, pre: SparseIncidence,
                  post: SparseIncidence, level: str) -> "PlaceTransitionNet":
        """Build an already-sealed net from finished parts, which it keeps."""
        net = cls()
        net._level, net._places, net._txs = level, places, txs
        net._incidence = {"pre": pre, "post": post}
        net._arcs = None
        return net

    # -- registry: on a building net only the counts answer ----------------

    @property
    def level(self) -> str:
        return self._level

    @property
    def sealed(self) -> bool:
        return self._arcs is None

    @property
    def num_places(self) -> int:
        return len(self._places)

    @property
    def num_transitions(self) -> int:
        return len(self._txs)

    @property
    def place_names(self) -> list[str]:
        """Every address in place order, as a fresh list on each access; a
        loaded or entity net decodes or formats them all to make it."""
        return self._places.all()

    @property
    def transaction_ids(self) -> list[str]:
        """Every transaction id in transition order, as a fresh list on each
        access; a loaded net decodes them all to make it."""
        return self._txs.all()

    def address_of(self, place: int) -> str:
        return self._places.name(place)

    def addresses_of(self, places: list[int]) -> list[str]:
        """The addresses of a batch of places, decoding only those."""
        return self._places.take(places)

    def place_of(self, addr: str) -> int:
        return self._places.ids()[addr]

    def lookup_place(self, addr: str) -> int | None:
        return self._places.ids().get(addr)

    def tx_id_of(self, transition: int) -> str:
        return self._txs.name(transition)

    def tx_ids_of(self, transitions: list[int]) -> list[str]:
        """The transaction ids of a batch of transitions, decoding only those."""
        return self._txs.take(transitions)

    def transition_of(self, tx_id: str) -> int:
        return self._txs.ids()[tx_id]

    # -- construction ------------------------------------------------------

    def record_transaction(self, tx_id: str, inputs, outputs) -> int:
        """Record one transaction: pre-arcs from inputs, post-arcs to outputs.

        `inputs` and `outputs` are each a list or tuple of addresses, and each
        is interned in one pass that draws a stamp per address.  Duplicate
        addresses within one side collapse to a single arc of weight 1.  Empty
        `inputs` marks a coinbase; `outputs` must be non-empty.  Everything is
        checked before anything changes, so a refused transaction leaves the
        net as it was.  Returns the new transition id.
        """
        if self._arcs is None:
            raise NetSealedError("cannot record transactions on a sealed net")
        self._check_transaction(tx_id, inputs, outputs)
        t = self._txs.names[tx_id] = len(self._txs)
        intern = self._places.names.setdefault
        for side, addresses in (("pre", inputs), ("post", outputs)):
            rows, offsets = self._arcs[side]
            rows.extend(sorted(set(map(intern, addresses, self._stamps))))
            offsets.append(len(rows))
        return t

    def _check_transaction(self, tx_id, inputs, outputs, earlier=()):
        """Raise the error `record_transaction` refuses the transaction with,
        if any; a tx id in `earlier` counts as recorded."""
        if not (isinstance(inputs, (list, tuple)) and isinstance(outputs, (list, tuple))):
            raise TypeError("inputs and outputs must each be a list or a tuple")
        if not outputs:
            raise MalformedTransactionError(f"transaction {tx_id!r} has no outputs")
        # one check of every name; the tx id alone is rechecked only on a fault
        named = are_names([tx_id, *inputs, *outputs])
        if not (named or are_names([tx_id])):
            raise MalformedTransactionError(f"transaction id must be {NAME_RULE}")
        if tx_id in self._txs.names or tx_id in earlier:
            raise DuplicateTransactionError(f"transaction {tx_id!r} already recorded")
        if not named:
            raise ValueError(f"address must be {NAME_RULE}")

    def record_block(self, block: Block):
        """Record a `Block` whole, interning it in one pass.

        Its `tx_ids` and `addresses` are lists or tuples.  The net, its stamps
        included, comes out as `record_transaction` on each transaction in turn
        leaves it, and a refused block raises what that loop would raise first,
        but leaves the net unchanged.
        """
        if self._arcs is None:
            raise NetSealedError("cannot record transactions on a sealed net")
        sizes = self._check_block(block)
        tx_ids, addresses, count = block.tx_ids, block.addresses, len(block.tx_ids)
        stamps = np.fromiter(map(self._places.names.setdefault, addresses, self._stamps),
                             dtype=np.int64, count=len(addresses))

        # one arc per distinct (column, place) of each side, in column order
        width = int(stamps.max(initial=0)) + 1
        cols = np.repeat(np.repeat(np.arange(count), 2), sizes)
        is_post = np.repeat(np.tile([False, True], count), sizes)
        for side, on in (("pre", ~is_post), ("post", is_post)):
            col, row = np.divmod(_distinct(np.sort(cols[on] * width + stamps[on])), width)
            rows, offsets = self._arcs[side]
            offsets.frombytes((len(rows) + np.cumsum(np.bincount(col, minlength=count))).tobytes())
            rows.frombytes(row.tobytes())
        self._txs.names.update(zip(tx_ids, itertools.count(len(self._txs))))

    def _check_block(self, block: Block, rejected=frozenset()) -> np.ndarray:
        """Raise the error a `record_transaction` loop over the block would raise
        first, if any, counting a tx id in the set `rejected` as recorded; else
        return the block's `_sizes`.  A valid block costs one whole-column test."""
        tx_ids, addresses = block.tx_ids, block.addresses
        if not (isinstance(tx_ids, (list, tuple)) and isinstance(addresses, (list, tuple))):
            raise TypeError("tx_ids and addresses must each be a list or a tuple")
        sizes = block._sizes()
        if not (sizes[1::2].min(initial=1) >= 1 and are_names(tx_ids) and are_names(addresses)
                and len(set(tx_ids)) == len(tx_ids) and self._txs.names.keys().isdisjoint(tx_ids)
                and rejected.isdisjoint(tx_ids)):
            earlier = set(rejected)
            for tx_id, inputs, outputs in block.transactions():
                self._check_transaction(tx_id, inputs, outputs, earlier)
                earlier.add(tx_id)
        return sizes

    def seal(self) -> "PlaceTransitionNet":
        """Freeze the net; analytics need a sealed net.  Idempotent.  Each registry keeps
        only its dict's names, and each arc's stamp becomes its place id: stamps rise in
        id order, so a place's id is the count of place stamps below its own."""
        if self._arcs is not None:
            stamps = np.fromiter(self._places.names.values(), np.int64, len(self._places))
            # the dicts go before the rank array comes, so no moment holds both
            self._places, self._txs = (_Registry(list(r.names)) for r in (self._places, self._txs))
            rank = np.zeros(int(stamps.max(initial=-1)) + 1, dtype=np.int64)
            rank[stamps] = 1
            del stamps
            np.cumsum(rank, out=rank)
            rank -= 1
            for rows, _ in self._arcs.values():
                arcs = np.frombuffer(rows, dtype=np.int64)
                # in place: "clip" never applies to a stamp and, unlike "raise", needs no buffer
                np.take(rank, arcs, out=arcs, mode="clip")
            del rank
            shape = (self.num_places, self.num_transitions)
            # a side's build arrays go once its matrix holds them, narrowed where they fit
            for side in SIDES:
                rows, offsets = self._arcs.pop(side)
                self._incidence[side] = SparseIncidence(offsets, rows, _ones(len(rows)), shape)
            self._arcs = self._stamps = None
        return self

    # -- queries -----------------------------------------------------------

    @property
    def pre(self) -> SparseIncidence:
        return self.incidence("pre")

    @property
    def post(self) -> SparseIncidence:
        return self.incidence("post")

    def incidence(self, side: str) -> SparseIncidence:
        """One side's incidence matrix (sealed nets only)."""
        if side not in SIDES:
            raise ValueError(f"side must be 'pre' or 'post', got {side!r}")
        if self._arcs is not None:
            raise NetNotSealedError("incidence matrices exist only on a sealed net")
        return self._incidence[side]

    def row_nnz(self, side: str, place: int) -> int:
        """Number of distinct transitions connected to `place` on `side`."""
        return self.incidence(side).row_nnz(place)

    def column_places(self, side: str, transition: int) -> set[int]:
        """Places with a nonzero entry in the transition's column on `side`."""
        rows, _ = self.incidence(side).column_entries(transition)
        return set(rows.tolist())

    def utxo_count(self, place: int) -> int:
        """Receives minus spends under the binary model (address nets only)."""
        if self._level != ADDRESS_LEVEL:
            raise ValueError("utxo_count is defined on address-level nets only")
        return self.post.row_nnz(place) - self.pre.row_nnz(place)

    def __repr__(self):
        state = "sealed" if self.sealed else "building"
        return (f"<PlaceTransitionNet level={self._level} places={self.num_places} "
                f"transitions={self.num_transitions} {state}>")

    # -- snapshot persistence -----------------------------------------------

    def save_snapshot(self, destination):
        """Write the net (sealed address nets only) as a binary v2 snapshot to
        a path, replaced atomically, or to a binary stream."""
        if not self.sealed:
            raise NetNotSealedError("snapshots require a sealed net")
        if self._level != ADDRESS_LEVEL:
            raise ValueError("snapshots are defined for address-level nets only")
        if hasattr(destination, "write"):
            self._write_v2(destination)
        else:
            tmp = f"{destination}.tmp"
            try:
                with open(tmp, "wb") as fh:
                    self._write_v2(fh)
                os.replace(tmp, destination)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)

    def _write_v2(self, fh):
        # The magic line, then .npy records: each registry's UTF-8 blob (written as its
        # offsets are asked for) and offsets, then each side's CSC indptr and indices.
        fh.write(SNAPSHOT_MAGIC)
        offsets = (registry.write_blob(fh) for registry in (self._places, self._txs))
        columns = (self._incidence[side].tocsc()[:2] for side in SIDES)
        for array in itertools.chain(offsets, *columns):
            if array.dtype == np.int64 and array.max(initial=0) < 2**31:
                array = array.astype(np.int32)
            np.lib.format.write_array(fh, array, allow_pickle=False)


def load_snapshot(source) -> PlaceTransitionNet:
    """Load a snapshot written by `save_snapshot`; returns a sealed net.

    `source` is a path or a binary stream holding a v2 snapshot.  Raises
    SnapshotError naming the offending section on any corruption, and section
    `document` when the magic line is missing.
    """
    if hasattr(source, "read"):
        return _load(source)
    with open(source, "rb") as fh:
        return _load(fh)


def _load(fh) -> PlaceTransitionNet:
    if fh.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
        raise SnapshotError("not a chainpetri v2 snapshot: no magic line", "document")
    places, txs = _read_names(fh, "places"), _read_names(fh, "transitions")
    shape = (len(places), len(txs))
    pre, post = (_incidence(_read_array(fh, side), _read_array(fh, side), side, shape)
                 for side in SIDES)
    if fh.read(1):
        raise SnapshotError("trailing data after the last array", "document")
    no_outputs = np.flatnonzero(post.col_nnz_all() == 0)
    if len(no_outputs):
        raise SnapshotError(
            f"transition {txs.name(no_outputs[0])!r} has no post arcs", "post"
        )
    return PlaceTransitionNet._assemble(places, txs, pre, post, ADDRESS_LEVEL)


def _incidence(indptr, rows, section: str, shape) -> SparseIncidence:
    """A binary matrix from its column form, with any fault as a SnapshotError."""
    try:
        return SparseIncidence(indptr, rows, _ones(len(rows)), shape)
    except ValueError as exc:
        raise SnapshotError(str(exc), section) from exc


def _read_array(fh, section: str, dtypes: tuple[str, ...] = ("int32", "int64")) -> np.ndarray:
    try:
        array = np.lib.format.read_array(fh, allow_pickle=False)
    # truncated, damaged, pickled or oversized; a header that loses its closing
    # brace fails numpy's retry through tokenize, and a shape past int64 overflows
    except (ValueError, MemoryError, OverflowError, tokenize.TokenError) as exc:
        raise SnapshotError(f"unreadable array: {exc}", section) from exc
    if array.ndim != 1 or array.dtype not in dtypes:
        raise SnapshotError(f"unexpected {array.dtype} array of shape {array.shape}", section)
    return array


def _read_names(fh, section: str) -> _BlobRegistry:
    blob = _read_array(fh, section, ("uint8",))
    bounds = _read_array(fh, section)
    if not len(bounds) or bounds[0] != 0 or bounds[-1] != len(blob) or np.any(np.diff(bounds) < 1):
        raise SnapshotError("offsets must start at 0, rise and end at the blob size", section)
    data = blob.tobytes()
    blob = np.frombuffer(data, dtype=np.uint8)
    # ASCII is valid UTF-8; otherwise the blob must decode and no name may start
    # inside a character
    if blob.max(initial=0) >= 0x80:
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            raise SnapshotError("a name is not valid UTF-8", section) from exc
        if np.any((blob[bounds[:-1]] & 0xC0) == 0x80):
            raise SnapshotError("a name is not valid UTF-8", section)
    if not _names_unique(data, bounds):
        raise SnapshotError("entries are not unique", section)
    return _BlobRegistry(data, bounds)


_FNV_OFFSET, _FNV_PRIME = np.uint64(0xCBF29CE484222325), np.uint64(0x100000001B3)


def _names_unique(data: bytes, bounds: np.ndarray) -> bool:
    """Whether no two names in the blob are equal.  Names are bucketed by length,
    each bucket is hashed (FNV-1a) into one uint64 per name, 8 bytes per step,
    and only names whose hash another name shares are compared as bytes."""
    blob, lengths = np.frombuffer(data, dtype=np.uint8), np.diff(bounds)
    # the 8 bytes from each offset as one little-endian word: unaligned, no copy
    words = np.ndarray((max(len(data) - 7, 0),), "<u8", data, strides=(1,))
    # stable, so each bucket reads the blob in ascending order
    order = np.argsort(lengths, kind="stable")
    edges = [*np.flatnonzero(_run_starts(lengths[order])).tolist(), len(order)]
    for lo, hi in zip(edges, edges[1:]):
        starts = bounds[order[lo:hi]]
        length = int(lengths[order[lo]])
        # whole words, the last overlapping the one before; a short name byte by byte
        window, columns = ((words, [*range(0, length - 8, 8), length - 8]) if length >= 8
                           else (blob, range(length)))
        hashes = np.full(len(starts), _FNV_OFFSET)
        for column in columns:
            hashes ^= window[starts + column]
            hashes *= _FNV_PRIME
        ordered = np.sort(hashes)
        starts = starts[np.isin(hashes, ordered[~_run_starts(ordered)])]
        names = [data[at:at + length] for at in starts.tolist()]
        if len(set(names)) != len(names):
            return False
    return True
