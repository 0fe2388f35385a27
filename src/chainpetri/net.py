"""Place/transition net over a ledger: registries plus sparse pre/post incidence.

Addresses become places, transactions become transitions.  Construction is
single-writer (intern/record); `seal()` freezes the net, after which every
query is read-only and safe to share across threads.
"""

from __future__ import annotations

import io
import json
import os
from array import array
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

SNAPSHOT_VERSION = 1
SNAPSHOT_MAGIC = b"chainpetri-snapshot-v2\n"

ADDRESS_LEVEL = "address"
ENTITY_LEVEL = "entity"
SIDES = ("pre", "post")


class Compressed(NamedTuple):
    """One compressed form: line i holds `indices[indptr[i]:indptr[i + 1]]`
    (ascending) with values `data[indptr[i]:indptr[i + 1]]`."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class SparseIncidence:
    """Immutable sparse positive-integer matrix with row and column iteration.

    Stores one compressed column form plus the per-row entry counts; the row
    form is derived on request.  Zero entries are never stored.
    """

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        """Check and store a compressed column form: column j holds rows
        `indices[indptr[j]:indptr[j + 1]]`, strictly rising, with values
        `data[indptr[j]:indptr[j + 1]]`, each at least 1.  Raises ValueError
        on a malformed `indptr`, on a row outside `shape` (naming the first),
        on rows that do not rise within a column and on a value below 1."""
        self.num_rows, self.num_cols = shape
        indptr, indices, data = (np.asarray(a, dtype=np.int64) for a in (indptr, indices, data))
        nnz = len(indices)
        if (len(indptr) != self.num_cols + 1 or indptr[0] != 0 or indptr[-1] != nnz
                or np.any(indptr[1:] < indptr[:-1]) or len(data) != nnz):
            raise ValueError("indptr must start at 0, not fall and end at nnz == len(data)")
        if nnz and (indices.min() < 0 or indices.max() >= self.num_rows):
            bad = indices[(indices < 0) | (indices >= self.num_rows)][0]
            raise ValueError(f"row {bad} out of range (0..{self.num_rows - 1})")
        # a row may only fail to rise where its entry starts a column
        starts = np.zeros(nnz + 1, dtype=bool)
        starts[indptr] = True
        if np.any((indices[1:] <= indices[:-1]) & ~starts[1:nnz]):
            raise ValueError("rows must rise strictly within each column")
        if nnz and data.min() < 1:
            raise ValueError("incidence entries must be at least 1")
        self._csc = Compressed(indptr, indices, data)
        self._row_nnz = np.bincount(indices, minlength=self.num_rows)
        self._row_nnz.flags.writeable = False

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

    def tocsr(self) -> Compressed:
        """The compressed row form, derived from the column form on each call."""
        csc, cols = self._csc, self.entry_columns()
        # sorting the unique row-major keys gives the order of a stable sort
        # by row, and is up to 3x faster than numpy's stable sort
        order = np.argsort(csc.indices * self.num_cols + cols)
        return Compressed(_offsets(self._row_nnz), cols[order], csc.data[order])

    def tocsc(self) -> Compressed:
        return self._csc

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.int64)
        dense[self._csc.indices, self.entry_columns()] = self._csc.data
        return dense

    def triplets(self) -> list[list[int]]:
        """All entries as [row, col, value] sorted by row then col."""
        csr = self.tocsr()
        rows = np.repeat(np.arange(self.num_rows), self._row_nnz)
        return np.column_stack([rows, csr.indices, csr.data]).tolist()


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


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


# strings per write of `_write_json_rows`, each row counting as one more: bounds
# the text held at once
_STRINGS_PER_WRITE = 8192


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


def _json_strings(items: list[str], ids: list[int]) -> list[str]:
    """`items[id]` for each id as a JSON string literal, as `ensure_ascii=False` writes it."""
    return list(map(encode_basestring, map(items.__getitem__, ids)))


def _check_index(index: int, size: int, what: str):
    if not 0 <= index < size:
        raise IndexError(f"{what} {index} out of range (0..{size - 1})")


def _check_side(side: str):
    if side not in SIDES:
        raise ValueError(f"side must be 'pre' or 'post', got {side!r}")


class _Registry:
    """Names in id order plus the name -> id dict, which a net under
    construction keeps current and any other builds on the first lookup."""

    def __init__(self, names: list[str], index: dict[str, int] | None = None):
        self.names = names
        self.index = index

    def ids(self) -> dict[str, int]:
        if self.index is None:
            self.index = {name: i for i, name in enumerate(self.names)}
        return self.index


class PlaceTransitionNet:
    """Bipartite incidence model: places (addresses) x transitions (transactions).

    Address-level nets are binary (every stored entry is 1); entity-level nets
    built by row summation may hold larger values.
    """

    def __init__(self):
        self._level = ADDRESS_LEVEL
        self._places = _Registry([], {})
        self._txs = _Registry([], {})
        # Build state, dropped by seal(): per side, the row id of every arc in
        # column order plus the column offsets into it; per place, the running
        # receives minus spends that strict ingest reads.
        self._arcs: dict[str, tuple[array, array]] | None = {
            side: (array("q"), array("q", [0])) for side in SIDES
        }
        self._utxo: array | None = array("q")
        self._incidence: dict[str, SparseIncidence] = {}

    @classmethod
    def _assemble(cls, places: _Registry, txs: _Registry, pre: SparseIncidence,
                  post: SparseIncidence, level: str) -> "PlaceTransitionNet":
        """Build an already-sealed net from finished parts, which it keeps."""
        net = cls()
        net._level, net._places, net._txs = level, places, txs
        net._incidence = {"pre": pre, "post": post}
        net._arcs = net._utxo = None
        return net

    # -- registry ----------------------------------------------------------

    @property
    def level(self) -> str:
        return self._level

    @property
    def sealed(self) -> bool:
        return self._arcs is None

    @property
    def num_places(self) -> int:
        return len(self._places.names)

    @property
    def num_transitions(self) -> int:
        return len(self._txs.names)

    @property
    def place_names(self) -> list[str]:
        return self._places.names

    @property
    def transaction_ids(self) -> list[str]:
        return self._txs.names

    def address_of(self, place: int) -> str:
        return self._places.names[place]

    def place_of(self, addr: str) -> int:
        return self._places.ids()[addr]

    def lookup_place(self, addr: str) -> int | None:
        return self._places.ids().get(addr)

    def tx_id_of(self, transition: int) -> str:
        return self._txs.names[transition]

    def transition_of(self, tx_id: str) -> int:
        return self._txs.ids()[tx_id]

    # -- construction ------------------------------------------------------

    def intern_address(self, addr: str) -> int:
        """Return the place id for `addr`, allocating the next id if new."""
        if self._arcs is None:
            raise NetSealedError("cannot intern addresses on a sealed net")
        if not isinstance(addr, str) or not addr:
            raise ValueError("address must be a non-empty string")
        places = self._places
        idx = places.index.get(addr)
        if idx is None:
            idx = len(places.names)
            places.index[addr] = idx
            places.names.append(addr)
            self._utxo.append(0)
        return idx

    def record_transaction(self, tx_id: str, inputs, outputs) -> int:
        """Record one transaction: pre-arcs from inputs, post-arcs to outputs.

        Duplicate addresses within one side collapse to a single arc of
        weight 1.  Empty `inputs` marks a coinbase; `outputs` must be
        non-empty.  Returns the new transition id.
        """
        if self._arcs is None:
            raise NetSealedError("cannot record transactions on a sealed net")
        if not outputs:
            raise MalformedTransactionError(f"transaction {tx_id!r} has no outputs")
        if not isinstance(tx_id, str) or not tx_id:
            raise MalformedTransactionError("transaction id must be a non-empty string")
        txs = self._txs
        if tx_id in txs.index:
            raise DuplicateTransactionError(f"transaction {tx_id!r} already recorded")
        try:
            "".join(inputs), "".join(outputs)  # TypeError unless every address is a str
            valid = all(inputs) and all(outputs)
        except TypeError:
            valid = False
        if not valid:
            raise ValueError("address must be a non-empty string")
        t = len(txs.names)
        txs.index[tx_id] = t
        txs.names.append(tx_id)
        self._append_column("pre", inputs, -1)
        self._append_column("post", outputs, 1)
        return t

    def _append_column(self, side: str, addrs, utxo_delta: int):
        ids = sorted({self.intern_address(a) for a in addrs})
        rows, offsets = self._arcs[side]
        rows.extend(ids)
        offsets.append(len(rows))
        utxo = self._utxo
        for p in ids:
            utxo[p] += utxo_delta

    def seal(self) -> "PlaceTransitionNet":
        """Freeze the net; all analytics require a sealed net.  Idempotent."""
        if self._arcs is not None:
            self._utxo = None
            shape = (self.num_places, self.num_transitions)
            # each matrix keeps its side's build arrays as indptr and indices, uncopied
            for side, (rows, offsets) in self._arcs.items():
                ones = np.ones(len(rows), dtype=np.int64)
                self._incidence[side] = SparseIncidence(offsets, rows, ones, shape)
            self._arcs = None
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
        _check_side(side)
        if self._arcs is not None:
            raise NetNotSealedError("incidence matrices exist only on a sealed net")
        return self._incidence[side]

    # row_nnz, column_places and utxo_count also answer during construction,
    # from the build state, so that ingest can check inputs as it goes.

    def row_nnz(self, side: str, place: int) -> int:
        """Number of distinct transitions connected to `place` on `side`."""
        if self._arcs is None:
            return self.incidence(side).row_nnz(place)
        _check_side(side)
        _check_index(place, self.num_places, "row")
        return self._arcs[side][0].count(place)

    def column_places(self, side: str, transition: int) -> set[int]:
        """Places with a nonzero entry in the transition's column on `side`."""
        if self._arcs is None:
            rows, _ = self.incidence(side).column_entries(transition)
            return set(rows.tolist())
        _check_side(side)
        _check_index(transition, self.num_transitions, "column")
        rows, offsets = self._arcs[side]
        return set(rows[offsets[transition]:offsets[transition + 1]])

    def utxo_count(self, place: int) -> int:
        """Receives minus spends under the binary model (address nets only)."""
        if self._level != ADDRESS_LEVEL:
            raise ValueError("utxo_count is defined on address-level nets only")
        if self._arcs is None:
            return self.post.row_nnz(place) - self.pre.row_nnz(place)
        _check_index(place, self.num_places, "row")
        return self._utxo[place]

    def __repr__(self):
        state = "sealed" if self.sealed else "building"
        return (f"<PlaceTransitionNet level={self._level} places={self.num_places} "
                f"transitions={self.num_transitions} {state}>")

    # -- snapshot persistence -----------------------------------------------

    def save_snapshot(self, destination):
        """Write the net (sealed address nets only): binary v2 to a path or a
        binary stream, JSON v1 to a text stream."""
        if not self.sealed:
            raise NetNotSealedError("snapshots require a sealed net")
        if self._level != ADDRESS_LEVEL:
            raise ValueError("snapshots are defined for address-level nets only")
        if isinstance(destination, io.TextIOBase):
            doc = {
                "version": SNAPSHOT_VERSION,
                "places": self._places.names,
                "transitions": self._txs.names,
                "pre": self.pre.triplets(),
                "post": self.post.triplets(),
            }
            json.dump(doc, destination, ensure_ascii=False, separators=(",", ":"))
        elif hasattr(destination, "write"):
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
        # The magic line, then .npy records: each registry as one UTF-8 blob
        # plus offsets, then each side's CSC indptr and indices (values are 1).
        arrays = []
        for names in (self._places.names, self._txs.names):
            encoded = [name.encode("utf-8") for name in names]
            lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
            arrays += [np.frombuffer(b"".join(encoded), dtype=np.uint8), _offsets(lengths)]
        for side in SIDES:
            csc = self.incidence(side).tocsc()
            arrays += [csc.indptr, csc.indices]
        fh.write(SNAPSHOT_MAGIC)
        for array in arrays:
            if array.dtype == np.int64 and array.max(initial=0) < 2**31:
                array = array.astype(np.int32)
            np.lib.format.write_array(fh, array, allow_pickle=False)


def load_snapshot(source) -> PlaceTransitionNet:
    """Load a snapshot written by `save_snapshot`; returns a sealed net.

    Binary v2 is told from JSON v1 by its magic line.  Raises SnapshotError
    naming the offending section on any corruption.
    """
    if hasattr(source, "read"):
        return _load(source)
    with open(source, "rb") as fh:
        return _load(fh)


def _load(fh) -> PlaceTransitionNet:
    head = fh.read(len(SNAPSHOT_MAGIC))
    if head != SNAPSHOT_MAGIC:
        places, txs, pre, post = _parse_v1(head + fh.read())
    else:
        places, txs = _read_names(fh, "places"), _read_names(fh, "transitions")
        shape = (len(places.names), len(txs.names))
        pre, post = (_incidence(_read_array(fh, side), _read_array(fh, side), side, shape)
                     for side in SIDES)
        if fh.read(1):
            raise SnapshotError("trailing data after the last array", "document")
    no_outputs = np.flatnonzero(post.col_nnz_all() == 0)
    if len(no_outputs):
        raise SnapshotError(
            f"transition {txs.names[no_outputs[0]]!r} has no post arcs", "post"
        )
    return PlaceTransitionNet._assemble(places, txs, pre, post, ADDRESS_LEVEL)


def _parse_v1(text):
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"not valid UTF-8 at byte {exc.start}", "document") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"not a valid JSON document: {exc.msg}", "document") from exc

    if not isinstance(doc, dict):
        raise SnapshotError("top level must be an object", "document")
    expected = {"version", "places", "transitions", "pre", "post"}
    missing = expected - doc.keys()
    if missing:
        raise SnapshotError(f"missing field(s) {sorted(missing)}", "document")
    extra = doc.keys() - expected
    if extra:
        raise SnapshotError(f"unexpected field(s) {sorted(extra)}", "document")
    # bool is an int subclass and True == 1, so compare the type exactly
    if type(doc["version"]) is not int or doc["version"] != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported version {doc['version']!r} (expected {SNAPSHOT_VERSION})",
            "version",
        )

    places = _check_names(doc["places"], "places")
    txs = _check_names(doc["transitions"], "transitions")
    shape = (len(places.names), len(txs.names))
    pre, post = (_check_triplets(doc[side], side, shape) for side in SIDES)
    return places, txs, pre, post


def _check_names(value, section: str) -> _Registry:
    if not isinstance(value, list):
        raise SnapshotError("must be an array", section)
    for name in value:
        if not isinstance(name, str) or not name:
            raise SnapshotError(f"invalid entry {name!r}", section)
    return _unique(value, section)


def _unique(names: list[str], section: str) -> _Registry:
    # a set costs half as much as the name -> id dict, which waits for a lookup
    if len(set(names)) != len(names):
        raise SnapshotError("entries are not unique", section)
    return _Registry(names)


def _check_triplets(value, section: str, shape: tuple[int, int]) -> SparseIncidence:
    if not isinstance(value, list):
        raise SnapshotError("must be an array of [row, col, value]", section)
    if not value:
        trip = np.empty((0, 3), dtype=np.int64)
    else:
        try:
            trip = np.array(value)
        except ValueError as exc:
            raise SnapshotError("ragged triplet array", section) from exc
        if trip.ndim != 2 or trip.shape[1] != 3 or trip.dtype.kind != "i":
            raise SnapshotError("entries must be integer [row, col, value] triplets", section)
        # numpy reads JSON true/false as 1/0 when they are mixed with integers
        if bool in {type(x) for entry in value for x in entry}:
            raise SnapshotError("entries must be integers, not booleans", section)
    rows, cols, vals = trip[:, 0], trip[:, 1], trip[:, 2]
    if np.any(vals != 1):
        raise SnapshotError("address-level entries must all equal 1", section)
    if len(cols) and (cols.min() < 0 or cols.max() >= shape[1]):
        bad = cols[(cols < 0) | (cols >= shape[1])][0]
        raise SnapshotError(f"column {bad} out of range (0..{shape[1] - 1})", section)
    key = rows * shape[1] + cols
    if np.any(key[1:] <= key[:-1]):
        raise SnapshotError("entries must be strictly sorted by row then col", section)
    # a stable sort on the column keeps each column's rows rising
    order = np.argsort(cols, kind="stable")
    return _incidence(_offsets(np.bincount(cols, minlength=shape[1])), rows[order], section, shape)


def _incidence(indptr, rows, section: str, shape) -> SparseIncidence:
    """A binary matrix from its column form, with any fault as a SnapshotError."""
    try:
        return SparseIncidence(indptr, rows, np.ones(len(rows), dtype=np.int64), shape)
    except ValueError as exc:
        raise SnapshotError(str(exc), section) from exc


def _read_array(fh, section: str, dtypes: tuple[str, ...] = ("int32", "int64")) -> np.ndarray:
    try:
        array = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, MemoryError) as exc:  # truncated, damaged, pickled, oversized
        raise SnapshotError(f"unreadable array: {exc}", section) from exc
    if array.ndim != 1 or array.dtype not in dtypes:
        raise SnapshotError(f"unexpected {array.dtype} array of shape {array.shape}", section)
    return array


def _read_names(fh, section: str) -> _Registry:
    blob = _read_array(fh, section, ("uint8",))
    bounds = _read_array(fh, section)
    if not len(bounds) or bounds[0] != 0 or bounds[-1] != len(blob) or np.any(np.diff(bounds) < 1):
        raise SnapshotError("offsets must start at 0, rise and end at the blob size", section)
    data, bounds = blob.tobytes(), bounds.tolist()
    try:
        names = [data[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise SnapshotError("a name is not valid UTF-8", section) from exc
    return _unique(names, section)
