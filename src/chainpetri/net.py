"""Place/transition net over a ledger: registries plus sparse pre/post incidence.

Addresses become places, transactions become transitions.  Construction is
single-writer (intern/record); `seal()` freezes the net, after which every
query is read-only and safe to share across threads.
"""

from __future__ import annotations

import json
import os
from array import array
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

    Holds compressed row and column forms of one matrix, so that both scan
    directions are O(entries touched).  Zero entries are never stored.
    """

    def __init__(self, rows, cols, values, shape: tuple[int, int]):
        """Build from (row, col, value) entries.  Duplicate positions are
        summed, zero sums are dropped and any other sum must be positive."""
        self.num_rows, self.num_cols = shape
        key = np.asarray(rows, dtype=np.int64) * self.num_cols + np.asarray(cols, dtype=np.int64)
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        data = np.add.reduceat(np.asarray(values, dtype=np.int64)[order], starts)
        del order
        nonzero = data != 0
        key, data = key[starts[nonzero]], data[nonzero]
        if len(data) and data.min() < 1:
            raise ValueError("incidence entries must be positive")
        rows, cols = np.divmod(key, max(self.num_cols, 1))
        del key
        self._row_nnz = np.bincount(rows, minlength=self.num_rows)
        self._row_nnz.flags.writeable = False
        self._csr = Compressed(_offsets(self._row_nnz), cols, data)
        order = np.argsort(cols * self.num_rows + rows)  # unique keys: column-major order
        self._csc = Compressed(
            _offsets(np.bincount(cols, minlength=self.num_cols)), rows[order], data[order]
        )

    @property
    def nnz(self) -> int:
        return len(self._csr.data)

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
        """Column ids and values stored in one row."""
        _check_index(row, self.num_rows, "row")
        csr = self._csr
        lo, hi = csr.indptr[row], csr.indptr[row + 1]
        return csr.indices[lo:hi], csr.data[lo:hi]

    def col_nnz_all(self) -> np.ndarray:
        """Per-column entry counts as one array."""
        return np.diff(self._csc.indptr)

    def entry_columns(self) -> np.ndarray:
        """Column id of every entry in compressed-column order."""
        return np.repeat(np.arange(self.num_cols), self.col_nnz_all())

    def tocsr(self) -> Compressed:
        return self._csr

    def tocsc(self) -> Compressed:
        return self._csc

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.int64)
        dense[self._entry_rows(), self._csr.indices] = self._csr.data
        return dense

    def triplets(self) -> list[list[int]]:
        """All entries as [row, col, value] sorted by row then col."""
        return np.column_stack([self._entry_rows(), self._csr.indices, self._csr.data]).tolist()

    def _entry_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_rows), self._row_nnz)


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


def _check_index(index: int, size: int, what: str):
    if not 0 <= index < size:
        raise IndexError(f"{what} {index} out of range (0..{size - 1})")


def _check_side(side: str):
    if side not in SIDES:
        raise ValueError(f"side must be 'pre' or 'post', got {side!r}")


class PlaceTransitionNet:
    """Bipartite incidence model: places (addresses) x transitions (transactions).

    Address-level nets are binary (every stored entry is 1); entity-level nets
    built by row summation may hold larger values.
    """

    def __init__(self, level: str = ADDRESS_LEVEL):
        if level not in (ADDRESS_LEVEL, ENTITY_LEVEL):
            raise ValueError(f"unknown net level {level!r}")
        self._level = level
        self._place_index: dict[str, int] = {}
        self._place_names: list[str] = []
        self._tx_index: dict[str, int] = {}
        self._tx_names: list[str] = []
        # Build state, dropped by seal(): per side, the row id of every arc in
        # column order plus the column offsets into it; per place, the running
        # receives minus spends that strict ingest reads.
        self._arcs: dict[str, tuple[array, array]] | None = {
            side: (array("q"), array("q", [0])) for side in SIDES
        }
        self._utxo: array | None = array("q")
        self._incidence: dict[str, SparseIncidence] = {}

    @classmethod
    def _assemble(cls, place_names, tx_names, pre: SparseIncidence,
                  post: SparseIncidence, level: str) -> "PlaceTransitionNet":
        """Build an already-sealed net from finished parts."""
        net = cls(level=level)
        net._place_names = list(place_names)
        net._place_index = {name: i for i, name in enumerate(net._place_names)}
        net._tx_names = list(tx_names)
        net._tx_index = {name: i for i, name in enumerate(net._tx_names)}
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
        return len(self._place_names)

    @property
    def num_transitions(self) -> int:
        return len(self._tx_names)

    @property
    def place_names(self) -> list[str]:
        return self._place_names

    @property
    def transaction_ids(self) -> list[str]:
        return self._tx_names

    def address_of(self, place: int) -> str:
        return self._place_names[place]

    def place_of(self, addr: str) -> int:
        return self._place_index[addr]

    def lookup_place(self, addr: str) -> int | None:
        return self._place_index.get(addr)

    def tx_id_of(self, transition: int) -> str:
        return self._tx_names[transition]

    def transition_of(self, tx_id: str) -> int:
        return self._tx_index[tx_id]

    # -- construction ------------------------------------------------------

    def intern_address(self, addr: str) -> int:
        """Return the place id for `addr`, allocating the next id if new."""
        if self._arcs is None:
            raise NetSealedError("cannot intern addresses on a sealed net")
        idx = self._place_index.get(addr)
        if idx is None:
            if not addr:
                raise ValueError("address must be a non-empty string")
            idx = len(self._place_names)
            self._place_index[addr] = idx
            self._place_names.append(addr)
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
        if not tx_id:
            raise MalformedTransactionError("transaction id must be non-empty")
        if tx_id in self._tx_index:
            raise DuplicateTransactionError(f"transaction {tx_id!r} already recorded")
        if not all(inputs) or not all(outputs):
            raise ValueError("address must be a non-empty string")
        t = len(self._tx_names)
        self._tx_index[tx_id] = t
        self._tx_names.append(tx_id)
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
            for side in SIDES:
                # Free each side's build arrays once its matrix holds a copy,
                # so that they are gone before the next conversion allocates.
                rows, offsets = self._arcs.pop(side)
                cols = np.repeat(np.arange(shape[1]), np.diff(offsets))
                del offsets
                self._incidence[side] = SparseIncidence(
                    rows, cols, np.ones(len(rows), dtype=np.int64), shape
                )
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
        """Write the net as a single JSON document (sealed address nets only)."""
        if not self.sealed:
            raise NetNotSealedError("snapshots require a sealed net")
        if self._level != ADDRESS_LEVEL:
            raise ValueError("snapshots are defined for address-level nets only")
        doc = {
            "version": SNAPSHOT_VERSION,
            "places": self._place_names,
            "transitions": self._tx_names,
            "pre": self.pre.triplets(),
            "post": self.post.triplets(),
        }
        if hasattr(destination, "write"):
            json.dump(doc, destination, ensure_ascii=False, separators=(",", ":"))
        else:
            tmp = f"{destination}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, ensure_ascii=False, separators=(",", ":"))
            os.replace(tmp, destination)


def load_snapshot(source) -> PlaceTransitionNet:
    """Load a snapshot written by `save_snapshot`; returns a sealed net.

    Raises SnapshotError naming the offending section on any corruption.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
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
    transitions = _check_names(doc["transitions"], "transitions")
    pre = _check_triplets(doc["pre"], "pre", len(places), len(transitions))
    post = _check_triplets(doc["post"], "post", len(places), len(transitions))
    no_outputs = np.flatnonzero(post.col_nnz_all() == 0)
    if len(no_outputs):
        raise SnapshotError(
            f"transition {transitions[no_outputs[0]]!r} has no post arcs", "post"
        )
    return PlaceTransitionNet._assemble(places, transitions, pre, post, ADDRESS_LEVEL)


def _check_names(value, section: str) -> list[str]:
    if not isinstance(value, list):
        raise SnapshotError("must be an array", section)
    for name in value:
        if not isinstance(name, str) or not name:
            raise SnapshotError(f"invalid entry {name!r}", section)
    if len(set(value)) != len(value):
        raise SnapshotError("entries are not unique", section)
    return value


def _check_triplets(value, section: str, num_rows: int, num_cols: int) -> SparseIncidence:
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
    if len(rows):
        if rows.min() < 0 or rows.max() >= num_rows:
            raise SnapshotError("row index out of range", section)
        if cols.min() < 0 or cols.max() >= num_cols:
            raise SnapshotError("column index out of range", section)
    if np.any(vals != 1):
        raise SnapshotError("address-level entries must all equal 1", section)
    key = rows * max(num_cols, 1) + cols
    if len(key) > 1 and np.any(np.diff(key) <= 0):
        raise SnapshotError("triplets must be strictly sorted by row then col", section)
    return SparseIncidence(rows, cols, vals, (num_rows, num_cols))
