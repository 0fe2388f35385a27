"""Net construction, queries, invariants, and snapshot persistence."""

from __future__ import annotations

import hashlib
import io
import random

import chainpetri.net

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainpetri import (
    Block,
    DuplicateTransactionError,
    GeneratorConfig,
    MalformedTransactionError,
    NetNotSealedError,
    NetSealedError,
    PlaceTransitionNet,
    SnapshotError,
    SparseIncidence,
    generate_synthetic,
    ingest,
    load_snapshot,
    top_k_active,
)
from conftest import SAMPLE_PRE, SAMPLE_POST, SAMPLE_TXS
from helpers import (
    PLACE_OFFSETS,
    PLACES,
    POST_PTR,
    POST_ROWS,
    PRE_PTR,
    PRE_ROWS,
    TX_OFFSETS,
    TXS,
    build_net,
    dense_replay,
    random_transactions,
    tocsr,
    v2_bytes,
    v2_join,
    v2_set_names,
    v2_split,
)

pool = st.sampled_from([f"p{i}" for i in range(9)])
tx_batches = st.lists(
    st.tuples(st.lists(pool, max_size=3), st.lists(pool, min_size=1, max_size=4)),
    max_size=14,
)


def _batch_to_txs(batch):
    return [(f"x{j}", ins, outs) for j, (ins, outs) in enumerate(batch)]


# -- recording ---------------------------------------------------------------


def test_sample_ledger_matrices(sample_net):
    assert np.array_equal(sample_net.pre.toarray(), SAMPLE_PRE)
    assert np.array_equal(sample_net.post.toarray(), SAMPLE_POST)


def test_coinbase_column(sample_net):
    net = PlaceTransitionNet()
    t = net.record_transaction("c", [], ["A"])
    net.seal()
    assert net.column_places("pre", t) == set()
    assert net.column_places("post", t) == {net.place_of("A")}


def test_duplicate_inputs_collapse():
    net = build_net([("x", ["A", "A"], ["B"])])
    assert net.pre.toarray()[net.place_of("A"), 0] == 1


def test_empty_outputs_rejected():
    net = PlaceTransitionNet()
    with pytest.raises(MalformedTransactionError):
        net.record_transaction("x", ["A"], [])


def test_duplicate_tx_id_rejected():
    net = PlaceTransitionNet()
    net.record_transaction("x", [], ["A"])
    with pytest.raises(DuplicateTransactionError):
        net.record_transaction("x", [], ["B"])


def test_rejected_address_leaves_net_unchanged():
    net = PlaceTransitionNet()
    net.record_transaction("c", [], ["A"])
    before = _building_state(net)
    for tx_id, inputs, outputs, error in (
        ("x", ["A"], [""], ValueError),
        ("x", ["B", ""], ["C"], ValueError),
        ("x", ["A"], [5], ValueError),
        ("x", [b"B"], ["C"], ValueError),
        ("x", ["B"], ["C", None], ValueError),
        ("x", ["A"], ["B\ud800"], ValueError),
        ("x", ["\udfffB"], ["C"], ValueError),
        (7, ["A"], ["B"], MalformedTransactionError),
        (["x"], ["A"], ["B"], MalformedTransactionError),
        ("x\ud83d", ["A"], ["B"], MalformedTransactionError),
        # with two faults, a bad tx id comes first, then a duplicate, then an address
        ("", ["A"], [""], MalformedTransactionError),
        ("c", ["A"], [""], DuplicateTransactionError),
        ("x", iter(["A"]), ["B"], TypeError),
        ("x", ["A"], (a for a in ["B"]), TypeError),
        ("x", "AB", ["C"], TypeError),
        ("x", {"A"}, ["C"], TypeError),
    ):
        with pytest.raises(error):
            net.record_transaction(tx_id, inputs, outputs)
        assert _building_state(net) == before
    net.record_transaction("x", ("A", "A"), ("B",))
    net.seal()
    assert net.place_names == ["A", "B"] and net.transaction_ids == ["c", "x"]
    assert net.pre.toarray().tolist() == [[0, 1], [0, 0]]
    assert net.post.toarray().tolist() == [[1, 0], [0, 1]]


def test_record_after_seal_fails():
    net = build_net([("x", [], ["A"])])
    with pytest.raises(NetSealedError):
        net.record_transaction("y", [], ["B"])


def test_same_address_on_both_sides():
    net = build_net([("f", [], ["A"]), ("x", ["A"], ["A", "B"])])
    a = net.place_of("A")
    assert net.row_nnz("pre", a) == 1
    assert net.row_nnz("post", a) == 2


# -- sparse incidence construction ---------------------------------------------


@pytest.mark.parametrize("seed", range(18))
def test_incidence_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    shape = [(0, 0), (0, 4), (5, 0), (1, 1), (6, 9), (40, 25)][seed % 6]
    density = [0.2, 0.6, 1.0][seed // 6]
    oracle = rng.integers(1, 5, shape) * (rng.random(shape) < density)
    # the column form of the dense oracle
    cols, rows = np.nonzero(oracle.T)
    indptr = np.r_[0, np.cumsum(np.count_nonzero(oracle, axis=0))]

    inc = SparseIncidence(indptr, rows, oracle[rows, cols], shape)
    assert np.array_equal(inc.toarray(), oracle)
    assert inc.nnz == len(rows)
    assert np.array_equal(inc.entry_columns(), cols)
    assert np.array_equal(inc.row_nnz_all(), np.count_nonzero(oracle, axis=1))
    assert np.array_equal(inc.col_nnz_all(), np.count_nonzero(oracle, axis=0))
    for form, dense in ((tocsr(inc), oracle), (inc.tocsc(), oracle.T)):
        assert form.indptr[0] == 0 and form.indptr[-1] == len(rows)
        for line in range(dense.shape[0]):
            lo, hi = form.indptr[line], form.indptr[line + 1]
            assert np.array_equal(form.indices[lo:hi], np.flatnonzero(dense[line]))
            assert np.array_equal(form.data[lo:hi], dense[line][form.indices[lo:hi]])
    for row in range(shape[0]):
        assert inc.row_nnz(row) == np.count_nonzero(oracle[row])
        found, vals = inc.row_entries(row)
        assert np.array_equal(found, np.flatnonzero(oracle[row]))
        assert np.array_equal(vals, oracle[row][found])
    for col in range(shape[1]):
        found, vals = inc.column_entries(col)
        assert np.array_equal(found, np.flatnonzero(oracle[:, col]))
        assert np.array_equal(vals, oracle[found, col])


def test_incidence_rejects_malformed_column_form():
    # 3x3: column 0 holds rows 0 and 2, column 1 nothing, column 2 row 1;
    # rows may fall where a column starts
    indptr, rows, values = [0, 2, 2, 3], [0, 2, 1], [1, 2, 1]
    assert SparseIncidence(indptr, rows, values, (3, 3)).toarray().tolist() == [
        [1, 0, 0], [0, 0, 1], [2, 0, 0]]
    for bad_indptr, bad_rows, bad_values, match in (
        ([0, 2, 3], rows, values, "^indptr"),  # one entry short
        ([0, 2, 2, 3, 3], rows, values, "^indptr"),  # one entry long
        ([1, 2, 2, 3], rows, values, "^indptr"),  # does not start at 0
        ([0, 2, 1, 3], rows, values, "^indptr"),  # falls
        ([0, 2, 2, 2], rows, values, "^indptr"),  # ends below nnz
        ([0, 2, 2, 4], rows, values, "^indptr"),  # ends above nnz
        (indptr, [0, 3, 1], values, "^row 3 out of range"),
        (indptr, [-1, 2, 1], values, "^row -1 out of range"),
        (indptr, [2, 0, 1], values, "rise strictly"),  # falls inside column 0
        (indptr, [2, 2, 1], values, "rise strictly"),  # repeats inside column 0
        (indptr, rows, [1, 0, 1], "at least 1"),
        (indptr, rows, [1, 1, -2], "at least 1"),
        (indptr, rows, [1, 1], "^indptr"),  # fewer values than rows
    ):
        with pytest.raises(ValueError, match=match):
            SparseIncidence(bad_indptr, bad_rows, bad_values, (3, 3))
    # a float, bool or object array is refused, not truncated or read as 0 and 1
    for bad_indptr, bad_rows, bad_values in (
        ([0, 1], [1.7], [2.9]),
        ([0, 1], [1], [2.9]),
        ([0, 1], [True], [1]),
        ([0, 1], [1], [True]),
        ([0.0, 1.0], [1], [1]),
        ([0, 1], np.array([1], dtype=object), [1]),
    ):
        with pytest.raises(ValueError, match="must be integer arrays"):
            SparseIncidence(bad_indptr, bad_rows, bad_values, (3, 1))
    # a uint64 row above int64 is named as given, not as the int64 it would wrap to
    with pytest.raises(ValueError, match=f"^row {2**63 + 5} out of range"):
        SparseIncidence(np.array([0, 1], np.uint64), np.array([2**63 + 5], np.uint64), [1], (3, 1))
    # empty lists are float64 to numpy, but hold no value to refuse
    assert SparseIncidence([0], [], [], (3, 0)).nnz == 0


def test_incidence_is_int32_unless_a_value_needs_int64():
    def widths(matrix):
        return {array.dtype.name for array in (*matrix.tocsc(), matrix.row_nnz_all())}

    assert widths(SparseIncidence(np.array([0, 1]), [2], [2**31 - 1], (3, 1))) == {"int32"}
    wide = SparseIncidence([0, 1], np.array([2], dtype=np.int32), [2**31], (3, 1))
    assert widths(wide) == {"int64"} and wide.toarray().tolist() == [[0], [0], [2**31]]
    # narrowing would wrap these rows into range
    for row in (-2**32 + 1, 2**32 + 1):
        with pytest.raises(ValueError, match=f"^row {row} out of range"):
            SparseIncidence([0, 1], [row], [1], (3, 1))


def test_stored_column_form_is_read_only(sample_net):
    from chainpetri import build_entity_net, compute_entities

    loaded = load_snapshot(io.BytesIO(v2_bytes(sample_net)))
    entity = build_entity_net(sample_net, compute_entities(sample_net)).net
    for net in (sample_net, loaded, entity):
        before = net.post.toarray()
        for stored in (*net.post.tocsc(), *net.post.column_entries(0), net.post.row_nnz_all()):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 2
        assert np.array_equal(net.post.toarray(), before)
        assert np.array_equal(net.post.row_nnz_all(), np.count_nonzero(before, axis=1))


# -- row/column queries --------------------------------------------------------


def test_row_nnz_sample(sample_net):
    a2 = sample_net.place_of("a2")
    assert sample_net.row_nnz("pre", a2) == 2
    assert sample_net.row_nnz("post", a2) == 3


def _lone_place_net():
    """A loaded net whose one place, "A", has no arcs: no recording call makes
    such a place, but `load_snapshot` accepts one."""
    magic, records = v2_split(v2_bytes(PlaceTransitionNet().seal()))
    v2_set_names(records, PLACES, ["A"])
    return load_snapshot(io.BytesIO(v2_join(magic, records)))


def test_row_nnz_no_transactions():
    net = _lone_place_net()
    p = net.place_of("A")
    assert net.row_nnz("pre", p) == 0
    assert net.row_nnz("post", p) == 0


def test_row_nnz_out_of_range(sample_net):
    with pytest.raises(IndexError):
        sample_net.row_nnz("pre", 6)
    with pytest.raises(IndexError):
        sample_net.row_nnz("post", -1)


def test_column_places_sample(sample_net):
    t5 = sample_net.transition_of("t5")
    t1 = sample_net.transition_of("t1")
    t3 = sample_net.transition_of("t3")
    names = lambda side, t: {sample_net.address_of(p) for p in sample_net.column_places(side, t)}
    assert names("pre", t5) == {"a2", "a3"}
    assert sample_net.column_places("pre", t1) == set()
    assert names("post", t3) == {"a2", "a3", "a4"}


def test_column_places_out_of_range(sample_net):
    with pytest.raises(IndexError):
        sample_net.column_places("pre", 7)


def test_bad_side_rejected(sample_net):
    with pytest.raises(ValueError):
        sample_net.row_nnz("sideways", 0)


# every name and matrix query of a net, each with the arguments it is asked here
net_queries = [
    lambda net: net.place_names,
    lambda net: net.transaction_ids,
    lambda net: net.address_of(1),
    lambda net: net.addresses_of([4, 0]),
    lambda net: net.place_of("a2"),
    lambda net: net.lookup_place("a2"),
    lambda net: net.tx_id_of(4),
    lambda net: net.tx_ids_of([6, 0]),
    lambda net: net.transition_of("t5"),
    lambda net: net.row_nnz("pre", 1),
    lambda net: net.column_places("pre", 4),
    lambda net: net.utxo_count(1),
]


def test_queries_require_seal(sample_net):
    net = build_net(SAMPLE_TXS, seal=False)
    for query in net_queries:
        with pytest.raises(NetNotSealedError):
            query(net)
    assert (net.num_places, net.num_transitions) == (6, 7)
    assert repr(net) == "<PlaceTransitionNet level=address places=6 transitions=7 building>"
    net.seal()
    answers = [query(net) for query in net_queries]
    assert answers == [query(sample_net) for query in net_queries]
    assert answers[2:9] == ["a2", ["a5", "a1"], 1, 1, "t5", ["t7", "t1"], 4]


# -- utxo ----------------------------------------------------------------------


def test_utxo_sample(sample_net):
    assert sample_net.utxo_count(sample_net.place_of("a2")) == 3 - 2
    assert sample_net.utxo_count(sample_net.place_of("a4")) == 1


def test_utxo_fresh_place():
    net = _lone_place_net()
    assert net.utxo_count(net.place_of("A")) == 0


def test_utxo_can_go_negative_in_lax():
    net = build_net([("f", [], ["A"]), ("s1", ["A"], ["B"]), ("s2", ["A"], ["C"])])
    assert net.utxo_count(net.place_of("A")) == -1


# -- seal lifecycle --------------------------------------------------------------


def test_seal_idempotent(sample_net):
    assert sample_net.seal() is sample_net
    assert sample_net.sealed


def test_row_iteration_requires_seal():
    net = build_net(SAMPLE_TXS, seal=False)
    with pytest.raises(NetNotSealedError):
        net.pre.row_entries(0)


# -- construction properties ------------------------------------------------------


@given(tx_batches)
def test_binary_and_matches_dense_oracle(batch):
    txs = _batch_to_txs(batch)
    net = build_net(txs)
    order, pre, post = dense_replay(txs)
    assert net.place_names == order
    assert np.array_equal(net.pre.toarray(), pre)
    assert np.array_equal(net.post.toarray(), post)
    if net.pre.nnz:
        assert tocsr(net.pre).data.max() == 1
    if net.post.nnz:
        assert tocsr(net.post).data.max() == 1


@given(tx_batches)
def test_arc_count_conservation(batch):
    txs = _batch_to_txs(batch)
    net = build_net(txs)
    assert net.pre.nnz == sum(len(set(i)) for _, i, _ in txs)
    assert net.post.nnz == sum(len(set(o)) for _, _, o in txs)


@given(tx_batches)
def test_row_column_duality(batch):
    txs = _batch_to_txs(batch)
    net = build_net(txs)
    for side in ("pre", "post"):
        inc = net.incidence(side)
        for p in range(net.num_places):
            cols, _ = inc.row_entries(p)
            for t in cols.tolist():
                assert p in net.column_places(side, t)
        for t in range(net.num_transitions):
            for p in net.column_places(side, t):
                assert t in inc.row_entries(p)[0]


def test_construction_determinism():
    first = build_net(SAMPLE_TXS)
    second = build_net(SAMPLE_TXS)
    _assert_nets_equal(first, second)


# -- snapshots ---------------------------------------------------------------------


def _assert_nets_equal(left, right):
    assert left.place_names == right.place_names
    assert left.transaction_ids == right.transaction_ids
    for side in ("pre", "post"):
        a, b = tocsr(left.incidence(side)), tocsr(right.incidence(side))
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)


def test_snapshot_round_trip_sample(tmp_path, sample_net):
    path = tmp_path / "net.json"
    sample_net.save_snapshot(path)
    loaded = load_snapshot(path)
    assert loaded.sealed
    _assert_nets_equal(sample_net, loaded)
    assert loaded.utxo_count(loaded.place_of("a2")) == 1


def test_snapshot_round_trip_synthetic():
    config = GeneratorConfig(
        entity_sizes=[3, 5],
        chain_lengths=[4, 2],
        repeat_group_sizes=[3],
        fillers=5000,
        addresses_per_filler=2,
        block_size=512,
    )
    blocks, _ = generate_synthetic(config, seed=23)
    assert sum(len(b.tx_ids) for b in blocks) >= 10_000
    net, _ = ingest(blocks)
    loaded = load_snapshot(io.BytesIO(v2_bytes(net)))
    _assert_nets_equal(net, loaded)


def test_snapshot_requires_seal():
    net = build_net(SAMPLE_TXS, seal=False)
    buffer = io.BytesIO()
    with pytest.raises(NetNotSealedError):
        net.save_snapshot(buffer)
    assert buffer.getvalue() == b""


def test_snapshot_text_stream_rejected(sample_net):
    text = io.StringIO()
    with pytest.raises(TypeError):
        sample_net.save_snapshot(text)
    assert text.getvalue() == ""


def test_snapshot_truncated_file(tmp_path, sample_net):
    path = tmp_path / "net.json"
    sample_net.save_snapshot(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_snapshot_trailing_data(tmp_path, sample_net):
    path = tmp_path / "net.json"
    sample_net.save_snapshot(path)
    path.write_bytes(path.read_bytes() + b"{}")
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_failed_save_keeps_destination_and_leaves_no_temporary(tmp_path, sample_net,
                                                               monkeypatch):
    path = tmp_path / "net.snapshot"
    path.write_bytes(b"previous")

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np.lib.format, "write_array", fail)
    with pytest.raises(OSError):
        sample_net.save_snapshot(path)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["net.snapshot"]


def _reverse(array, lo, hi):
    array[lo:hi] = array[lo:hi][::-1].copy()


@pytest.mark.parametrize(
    "mutate, section",
    [
        pytest.param(lambda r: r[PLACE_OFFSETS].__setitem__(0, 1), "places", id="offsets-start"),
        pytest.param(lambda r: r[PLACE_OFFSETS].__setitem__(2, r[PLACE_OFFSETS][1]), "places",
                     id="offsets-not-rising"),
        pytest.param(lambda r: r.__setitem__(PLACE_OFFSETS, r[PLACE_OFFSETS][:-1]), "places",
                     id="offsets-end"),
        pytest.param(lambda r: r.__setitem__(TX_OFFSETS, np.array([], dtype=np.int64)),
                     "transitions", id="offsets-empty"),
        pytest.param(lambda r: r[PLACES].__setitem__(0, 0xFF), "places", id="bad-utf8"),
        pytest.param(lambda r: v2_set_names(r, PLACES, ["a1", "", "a3", "a4", "a5", "a6"]),
                     "places", id="empty-name"),
        pytest.param(lambda r: v2_set_names(r, PLACES, ["a1", "a2", "a3", "a4", "a5", "a1"]),
                     "places", id="duplicate-place"),
        pytest.param(lambda r: v2_set_names(r, TXS, ["t1"] * 7), "transitions", id="duplicate-tx"),
        pytest.param(lambda r: r[PRE_PTR].__setitem__(0, 1), "pre", id="indptr-start"),
        pytest.param(lambda r: r[PRE_PTR].__setitem__(2, 4), "pre", id="indptr-falls"),
        pytest.param(lambda r: r.__setitem__(PRE_ROWS, r[PRE_ROWS][:-1]), "pre", id="indptr-end"),
        pytest.param(lambda r: r.__setitem__(PRE_PTR, r[PRE_PTR][:-1]), "pre",
                     id="indptr-length"),
        pytest.param(lambda r: r[PRE_ROWS].__setitem__(0, 6), "pre", id="row-out-of-range"),
        pytest.param(lambda r: r[PRE_ROWS].__setitem__(0, -1), "pre", id="row-negative"),
        pytest.param(lambda r: _reverse(r[POST_ROWS], 2, 5), "post", id="rows-not-rising"),
        pytest.param(lambda r: r[POST_ROWS].__setitem__(3, r[POST_ROWS][2]), "post",
                     id="row-repeated"),
        pytest.param(lambda r: (v2_set_names(r, TXS, [f"t{i}" for i in range(1, 9)]),
                                r.__setitem__(PRE_PTR, np.append(r[PRE_PTR], 5)),
                                r.__setitem__(POST_PTR, np.append(r[POST_PTR], 10))),
                     "post", id="no-post-arc"),
        pytest.param(lambda r: r.__setitem__(PRE_ROWS, r[PRE_ROWS].astype(np.float64)), "pre",
                     id="float-rows"),
        pytest.param(lambda r: r.__setitem__(PRE_ROWS, r[PRE_ROWS].astype(bool)), "pre",
                     id="bool-rows"),
        pytest.param(lambda r: r.__setitem__(POST_PTR, r[POST_PTR].astype(np.uint32)), "post",
                     id="unsigned-indptr"),
        pytest.param(lambda r: r.__setitem__(PLACES, r[PLACES].astype(np.int32)), "places",
                     id="int-blob"),
        pytest.param(lambda r: r.__setitem__(POST_ROWS, r[POST_ROWS].reshape(1, -1)), "post",
                     id="two-dimensional"),
        pytest.param(lambda r: r.__setitem__(TX_OFFSETS, np.array(list(r[TX_OFFSETS]),
                                                                  dtype=object)),
                     "transitions", id="pickled-object-array"),
    ],
)
def test_snapshot_v2_corruption_names_section(sample_net, mutate, section):
    magic, records = v2_split(v2_bytes(sample_net))
    mutate(records)
    with pytest.raises(SnapshotError) as err:
        load_snapshot(io.BytesIO(v2_join(magic, records)))
    assert err.value.section == section


@pytest.mark.parametrize(
    "damage, section",
    [
        pytest.param(lambda b: b[:-3], "post", id="truncated-last-record"),
        pytest.param(lambda b: b[:40], "places", id="truncated-first-record"),
        pytest.param(lambda b: b + b"\0", "document", id="trailing-byte"),
        pytest.param(lambda b: b.replace(b"-v2\n", b"-v9\n", 1), "document", id="bad-magic"),
        pytest.param(lambda b: b"\xff" + b, "document", id="not-utf8-not-v2"),
        pytest.param(lambda b: b"{nope", "document", id="not-json"),
        pytest.param(lambda b: b"[1]", "document", id="not-an-object"),
        # headers that promise far more data than the file holds; the places
        # blob of the sample ("a1".."a6") is the only 12-element record
        pytest.param(lambda b: b.replace(b"(12,)", b"(10000000,)", 1), "places",
                     id="declared-length-long"),
        pytest.param(lambda b: b.replace(b"(12,)", b"(1000000000000000,)", 1), "places",
                     id="declared-length-huge"),
    ],
)
def test_snapshot_v2_damaged_bytes(sample_net, damage, section):
    data = v2_bytes(sample_net)
    assert damage(data) != data
    with pytest.raises(SnapshotError) as err:
        load_snapshot(io.BytesIO(damage(data)))
    assert err.value.section == section


def _seeded_nets():
    yield pytest.param(PlaceTransitionNet().seal(), id="empty")
    yield pytest.param(build_net([("tx-\u00e9", [], ["\u00e4", "\u65e5\u672c"]),
                                ("tx-\U0001f600", ["\u00e4"], ["b\nc", "\u65e5\u672c"])]), id="unicode")
    for seed in range(4):
        rng = random.Random(seed)
        config = GeneratorConfig(
            entity_sizes=[rng.randint(2, 5)], chain_lengths=[rng.randint(1, 5), 3],
            repeat_group_sizes=[2], fillers=rng.randint(1, 400), block_size=64,
        )
        blocks, _ = generate_synthetic(config, seed=seed)
        yield pytest.param(ingest(blocks)[0], id=f"seed{seed}")


@pytest.mark.parametrize("net", list(_seeded_nets()))
def test_snapshot_v2_load_v2_byte_identical(net):
    first = v2_bytes(net)
    assert first.startswith(b"chainpetri-snapshot-v2\n")
    loaded = load_snapshot(io.BytesIO(first))
    _assert_nets_equal(net, loaded)
    # integer records are int32 while their values fit; int64 loads as well
    magic, records = v2_split(first)
    assert {record.dtype.name for record in records} == {"uint8", "int32"}
    wide = [r if r.dtype == np.uint8 else r.astype(np.int64) for r in records]
    widened = load_snapshot(io.BytesIO(v2_join(magic, wide)))
    _assert_nets_equal(net, widened)
    assert v2_bytes(loaded) == first
    assert v2_bytes(widened) == first


def test_registries_shared_and_looked_up(tmp_path, sample_net, sample_blocks):
    from chainpetri import build_entity_net, compute_entities

    # only a net under construction keeps the name -> id dicts
    built = {mode: ingest(sample_blocks, mode=mode)[0] for mode in ("lax", "strict")}
    for net in (sample_net, *built.values()):
        assert net._places.index is None and net._txs.index is None
    path = tmp_path / "net.snapshot"
    sample_net.save_snapshot(path)
    for net in (sample_net, *built.values(), load_snapshot(path),
                load_snapshot(io.BytesIO(v2_bytes(sample_net)))):
        assert net.place_of("a4") == 3 and net.lookup_place("zz") is None
        assert net.transition_of("t5") == 4
        entity = build_entity_net(net, compute_entities(net)).net
        assert entity._txs is net._txs
        assert entity.transition_of("t7") == 6 and entity.tx_id_of(6) == "t7"
        assert entity.place_of("e1") == 1 and entity.lookup_place("a1") is None
        assert entity.address_of(3) == "e3" and entity.place_names == ["e0", "e1", "e2", "e3"]


def test_name_lists_are_fresh_on_every_net(sample_net):
    from chainpetri import build_entity_net, compute_entities

    loaded = load_snapshot(io.BytesIO(v2_bytes(sample_net)))
    entity = build_entity_net(sample_net, compute_entities(sample_net)).net
    nets = (sample_net, loaded, entity)
    before = [(net.place_names, net.transaction_ids, net.pre.toarray()) for net in nets]
    for net in nets:
        places, txs = net.place_names, net.transaction_ids
        places.reverse()
        txs.clear()
    for net, (places, txs, pre) in zip(nets, before):
        assert net.place_names == places and net.transaction_ids == txs
        assert [net.address_of(p) for p in range(len(places))] == places
        assert [net.place_of(name) for name in places] == list(range(len(places)))
        assert [net.transition_of(tx) for tx in txs] == list(range(len(txs)))
        assert net.num_transitions == len(txs) == pre.shape[1]
        assert np.array_equal(net.pre.toarray(), pre)
    assert v2_bytes(sample_net) == v2_bytes(loaded)


def test_snapshot_empty_net():
    net = PlaceTransitionNet().seal()
    loaded = load_snapshot(io.BytesIO(v2_bytes(net)))
    assert loaded.num_places == 0
    assert loaded.num_transitions == 0
    assert loaded.place_names == [] and loaded.addresses_of([]) == []


def test_loaded_names_decode_one_at_a_time_in_batches_and_all():
    names = ["a", "\u00e4", "\u65e5\u672c", "b\nc", "\U0001f600x", "\x00"]
    net = build_net([(f"t\u00e9{i}", [], [name]) for i, name in enumerate(names)])
    loaded = load_snapshot(io.BytesIO(v2_bytes(net)))
    assert loaded.place_names == names
    assert loaded.transaction_ids == [f"t\u00e9{i}" for i in range(len(names))]
    assert [loaded.address_of(p) for p in range(-1, len(names))] == names[-1:] + names
    assert loaded.tx_id_of(4) == "t\u00e94"
    assert loaded.addresses_of([4, 0, 4, 2]) == [names[4], names[0], names[4], names[2]]
    assert loaded.tx_ids_of([5, -5]) == ["t\u00e95", "t\u00e91"]
    for bad in (len(names), -len(names) - 1):
        with pytest.raises(IndexError):
            loaded.address_of(bad)


@pytest.mark.parametrize("collide", [False, True], ids=["fnv", "every-hash-equal"])
@pytest.mark.parametrize("count", [3, chainpetri.net._HASHED_BUCKET], ids=["few", "hashed"])
def test_loaded_names_compared_by_their_bytes(sample_net, monkeypatch, collide, count):
    if collide:
        monkeypatch.setattr(chainpetri.net, "_FNV_PRIME", np.uint64(0))
    base = [f"n{i:06d}" for i in range(count)]
    # the 8-byte names differ only in their last byte, NUL or "x", and from the
    # 7-byte names only by one more byte
    names = base + [name + "\0" for name in base] + [name + "x" for name in base]
    magic, records = v2_split(v2_bytes(sample_net))
    v2_set_names(records, PLACES, names)
    assert load_snapshot(io.BytesIO(v2_join(magic, records))).place_names == names
    for duplicate in (names[count + 1], names[-1], names[0]):
        v2_set_names(records, PLACES, names + [duplicate])
        with pytest.raises(SnapshotError, match="not unique") as err:
            load_snapshot(io.BytesIO(v2_join(magic, records)))
        assert err.value.section == "places"


def test_loaded_names_that_differ_only_under_the_last_word():
    count = chainpetri.net._HASHED_BUCKET
    # 12-byte addresses that differ only in bytes 8-11, which only the last
    # word (bytes 4-11) covers, and sha256 hex tx ids, 64 bytes, 8 words each
    places = [f"pppppppp{i:04d}" for i in range(count)]
    txs = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(count)]
    magic, records = v2_split(v2_bytes(build_net([(tx, [], [p]) for tx, p in zip(txs, places)])))
    loaded = load_snapshot(io.BytesIO(v2_join(magic, records)))
    assert loaded.place_names == places and loaded.transaction_ids == txs
    for at, names, section in ((PLACES, places + places[-1:], "places"),
                               (TXS, txs[:count // 2] + txs[:1] + txs[count // 2:], "transitions")):
        bad = list(records)
        v2_set_names(bad, at, names)
        with pytest.raises(SnapshotError, match="not unique") as err:
            load_snapshot(io.BytesIO(v2_join(magic, bad)))
        assert err.value.section == section


# 1 to 20 UTF-8 bytes: shorter than a word, one word, and past it
short_names = st.text(st.sampled_from(["a", "b", "\u00e9", "\u65e5", "\U0001f600"]),
                      min_size=1, max_size=20).filter(lambda name: len(name.encode()) <= 20)


@pytest.mark.parametrize("collide", [False, True], ids=["fnv", "every-hash-equal"])
@settings(max_examples=300)
@given(names=st.lists(short_names, min_size=1, max_size=40),
       copies=st.lists(st.tuples(st.integers(0), st.integers(0)), max_size=3))
@example(names=["abcdefghij", "abcdefghik"], copies=[(1, 2)])
def test_names_unique_agrees_with_a_set(collide, names, copies):
    for source, to in copies:
        names.insert(to % (len(names) + 1), names[source % len(names)])
    encoded = [name.encode() for name in names]
    bounds = np.cumsum([0] + [len(name) for name in encoded])
    with pytest.MonkeyPatch.context() as patch:
        # every bucket of two or more names is hashed
        patch.setattr(chainpetri.net, "_HASHED_BUCKET", 2)
        if collide:
            patch.setattr(chainpetri.net, "_FNV_PRIME", np.uint64(0))
        unique = chainpetri.net._names_unique(b"".join(encoded), bounds)
    assert unique == (len(set(names)) == len(names))


def test_snapshot_name_offset_inside_a_character(sample_net):
    magic, records = v2_split(v2_bytes(sample_net))
    v2_set_names(records, PLACES, ["\u00e9a", "a2", "a3", "a4", "a5", "a6"])
    records[PLACE_OFFSETS][1] = 1  # the blob stays valid UTF-8
    with pytest.raises(SnapshotError, match="a name is not valid UTF-8") as err:
        load_snapshot(io.BytesIO(v2_join(magic, records)))
    assert err.value.section == "places"


def test_top_of_a_loaded_net_decodes_only_the_names_it_prints(monkeypatch):
    config = GeneratorConfig(entity_sizes=[3], chain_lengths=[2], fillers=300, block_size=64)
    net, _ = ingest(generate_synthetic(config, seed=5)[0])
    decoded = []
    take = chainpetri.net._BlobRegistry.take
    monkeypatch.setattr(chainpetri.net._BlobRegistry, "take",
                        lambda registry, ids: decoded.extend(ids) or take(registry, ids))
    loaded = load_snapshot(io.BytesIO(v2_bytes(net)))
    top = [loaded.address_of(p) for p, _, _ in top_k_active(loaded, 10)]
    assert len(decoded) == 10 and loaded.num_places > 300
    assert top == [net.address_of(p) for p, _, _ in top_k_active(net, 10)]


names_with_surrogates = st.text(st.sampled_from(["a", "\u00e9", "\ud800", "\udc00", "\U0001f600"]),
                                max_size=3)


@settings(max_examples=50)
@given(st.lists(st.tuples(names_with_surrogates, st.lists(names_with_surrogates, max_size=2),
                          st.lists(names_with_surrogates, min_size=1, max_size=2)), max_size=8))
def test_no_recorded_name_fails_the_snapshot_write(txs):
    net = PlaceTransitionNet()
    for tx_id, inputs, outputs in txs:
        try:
            net.record_transaction(tx_id, inputs, outputs)
        except (ValueError, MalformedTransactionError, DuplicateTransactionError):
            pass
    net.seal()
    _assert_nets_equal(net, load_snapshot(io.BytesIO(v2_bytes(net))))


def test_snapshot_entity_net_rejected(sample_net):
    from chainpetri import build_entity_net, compute_entities

    entity_net = build_entity_net(sample_net, compute_entities(sample_net)).net
    buffer = io.BytesIO()
    with pytest.raises(ValueError):
        entity_net.save_snapshot(buffer)
    assert buffer.getvalue() == b""


@settings(max_examples=25)
@given(tx_batches, st.randoms(use_true_random=False))
def test_snapshot_round_trip_property(batch, rnd):
    txs = _batch_to_txs(batch)
    net = build_net(txs)
    data = v2_bytes(net)
    loaded = load_snapshot(io.BytesIO(data))
    _assert_nets_equal(net, loaded)
    assert v2_bytes(loaded) == data
    if net.num_transitions:
        t = rnd.randrange(net.num_transitions)
        assert net.column_places("pre", t) == loaded.column_places("pre", t)
        assert net.column_places("post", t) == loaded.column_places("post", t)


# -- sides of a transaction and blocks recorded column-wise ------------------------


def _building_state(net):
    """Everything a net under construction holds: its address -> stamp and
    tx id -> id dicts and its arcs, as plain dicts and lists."""
    arcs = {side: (list(rows), list(offsets)) for side, (rows, offsets) in net._arcs.items()}
    return dict(net._places), dict(net._txs), arcs


side_names = st.lists(st.sampled_from(["A", "B", "C", "é", ""]), max_size=3)
side_kinds = st.sampled_from([list, tuple, iter, "".join, lambda names: (n for n in names)])


@given(side_kinds, side_names, side_kinds, side_names)
def test_record_transaction_takes_a_list_or_tuple_per_side(in_kind, inputs, out_kind, outputs):
    net = PlaceTransitionNet()
    net.record_transaction("c", [], ["A"])
    before = _building_state(net)
    sequences = in_kind in (list, tuple) and out_kind in (list, tuple)
    try:
        net.record_transaction("x", in_kind(inputs), out_kind(outputs))
    except (TypeError, ValueError, MalformedTransactionError):
        assert _building_state(net) == before
        assert not (sequences and outputs and all(inputs + outputs))
        return
    assert sequences
    net.seal()
    assert net.column_places("pre", 1) == {net.place_of(a) for a in inputs}
    _assert_nets_equal(net, load_snapshot(io.BytesIO(v2_bytes(net))))


def _first_error(net_txs, block_txs):
    """What a record_transaction loop over `block_txs` raises first, on a net
    that holds `net_txs`."""
    net = build_net(net_txs, seal=False)
    try:
        for tx in block_txs:
            net.record_transaction(*tx)
    except Exception as exc:  # noqa: BLE001 - the oracle reports whatever it meets
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", range(12))
def test_record_block_matches_record_transaction_loop(seed):
    rng = random.Random(seed)
    txs = []
    for tx_id, inputs, outputs in random_transactions(rng, n_tx=120, pool_size=10):
        # repeat some addresses within a side
        inputs += rng.sample(inputs, k=rng.randint(0, len(inputs)))
        outputs += rng.sample(outputs, k=rng.randint(0, len(outputs)))
        rng.shuffle(inputs)
        rng.shuffle(outputs)
        txs.append((tx_id, inputs, outputs))
    by_block, by_transaction = PlaceTransitionNet(), PlaceTransitionNet()
    start = 0
    while start < len(txs):
        block = txs[start:start + rng.randint(0, 15)]
        start += len(block)
        by_block.record_block(Block.of(0, block))
        for tx in block:
            by_transaction.record_transaction(*tx)
        assert _building_state(by_block) == _building_state(by_transaction)
    assert any(not inputs for _, inputs, _ in txs)
    assert any(len(set(outputs)) < len(outputs) for _, _, outputs in txs)
    assert v2_bytes(by_block.seal()) == v2_bytes(by_transaction.seal())


# calls that a net refuses whatever it holds, each with its error
refused_calls = st.sampled_from([
    (lambda net: net.record_transaction("y", ["p1"], ["p2", ""]), ValueError),
    (lambda net: net.record_transaction("y", ["p3"], []), MalformedTransactionError),
    (lambda net: net.record_block(Block.of(0, [("y", ["p4"], ["p5"]), ("y", [], ["p6"])])),
     DuplicateTransactionError),
    (lambda net: net.record_block(Block.of(0, [("y", ["p7"], ["p8"]), ("z", [], [7])])),
     ValueError),
])
one_transaction = st.tuples(st.lists(pool, max_size=3), st.lists(pool, min_size=1, max_size=4))
recording_steps = st.lists(st.one_of(
    st.tuples(st.just("transaction"), one_transaction),
    st.tuples(st.just("block"), st.lists(one_transaction, max_size=4)),
    st.tuples(st.just("refused"), refused_calls),
), max_size=12)


@given(recording_steps)
def test_recording_is_one_numbering_whatever_the_call_mix(steps):
    # `mixed` takes each step as drawn; `plain` records every transaction alone
    mixed, plain = PlaceTransitionNet(), PlaceTransitionNet()
    first_seen: dict[str, int] = {}
    tx_ids: list[str] = []
    for kind, arg in steps:
        if kind == "refused":
            call, error = arg
            before = _building_state(mixed), repr(mixed._stamps)
            with pytest.raises(error):
                call(mixed)
            assert (_building_state(mixed), repr(mixed._stamps)) == before
        else:
            sides = [arg] if kind == "transaction" else arg
            txs = [(f"x{len(tx_ids) + j}", ins, outs) for j, (ins, outs) in enumerate(sides)]
            if kind == "transaction":
                mixed.record_transaction(*txs[0])
            else:
                mixed.record_block(Block.of(0, txs))
            for tx_id, inputs, outputs in txs:
                plain.record_transaction(tx_id, inputs, outputs)
                tx_ids.append(tx_id)
                for addr in inputs + outputs:
                    first_seen.setdefault(addr, len(first_seen))
        assert _building_state(mixed) == _building_state(plain)
        assert repr(mixed._stamps) == repr(plain._stamps)
        assert mixed.num_places == len(first_seen) and mixed.num_transitions == len(tx_ids)
    names = list(first_seen)
    for net in (mixed.seal(), plain.seal()):
        assert net.place_names == names
        assert [net.address_of(p) for p in range(len(names))] == names
        assert [net.place_of(addr) for addr in names] == list(range(len(names)))
        assert net.lookup_place("zz") is None
        assert net.transaction_ids == tx_ids
        assert [net.transition_of(tx_id) for tx_id in tx_ids] == list(range(len(tx_ids)))
    _assert_nets_equal(mixed, plain)
    assert v2_bytes(mixed) == v2_bytes(plain)


@pytest.mark.parametrize("block", [
    [("n", [], ["A"]), ("n", ["A"], ["B"])],                  # tx id twice in the block
    [("n", [], ["Z"]), ("c", [], ["B"])],                     # tx id already recorded
    [("n", [], ["Z"]), ("m", ["A", ""], ["B"])],              # empty address
    [("n", [], ["Z"]), ("m", ["A"], ["B\ud800"])],            # lone surrogate
    [("n", [], ["Z"]), ("m", ["A"], [7])],                    # not a string
    [("n", [], ["Z"]), ("", ["A"], ["B"])],                   # empty tx id
    [("n", [], ["Z"]), (None, ["A"], ["B"])],                 # tx id not a string
    [("n", [], ["Z"]), ("m", ["A"], [])],                     # no outputs
    [("n", [], ["Z"]), ("m", [["x"]], ["B"])],                # unhashable address
    [("m", ["A"], [""]), ("c", [], ["B"])],                   # first fault wins: address
    [("c", [], ["B"]), ("m", ["A"], [""])],                   # first fault wins: duplicate
    [("m", ["A"], []), ("m", [], [""])],                      # first fault wins: no outputs
])
def test_refused_block_raises_the_loops_first_error_and_changes_nothing(block):
    recorded = [("c", [], ["A"]), ("d", ["A"], ["B", "C"])]
    net = build_net(recorded, seal=False)
    before = _building_state(net)
    error, message = _first_error(recorded, block)
    with pytest.raises(error) as raised:
        net.record_block(Block.of(0, block))
    assert str(raised.value) == message
    assert _building_state(net) == before
    net.record_block(Block.of(0, [("n", ["A"], ["Z", "A"])]))
    assert net.seal().place_names == ["A", "B", "C", "Z"]
    # ingest refuses the block with the same error in both modes, the height before a duplicate
    if error is DuplicateTransactionError:
        message = f"block 1: {message}"
    for mode in ("lax", "strict"):
        with pytest.raises(error) as raised:
            ingest([Block.of(0, recorded), Block.of(1, block)], mode=mode)
        assert (type(raised.value), str(raised.value)) == (error, message)


def test_record_block_checks_its_columns():
    net = PlaceTransitionNet()
    for columns, error in (
        ((iter(["x"]), ["A"], [0], [1]), TypeError),
        ((["x"], "A", [0], [1]), TypeError),
        ((["x"], ["A"], [0, 0], [1]), ValueError),
        ((["x"], ["A"], [0], [2]), ValueError),
        ((["x"], ["A", "B"], [-1], [3]), ValueError),
        ((["x"], ["a", "b"], [0.9], [2.2]), TypeError),
        ((["x"], ["A"], [0], ["1"]), TypeError),
        ((["x"], ["A"], [0], [True]), TypeError),
        ((["x"], ["A"], [0], [2**70]), ValueError),
        ((["a", "b"], ["A"], [2**62, 2**62], [2**62, 2**62 + 1]), ValueError),  # sum wraps to 1
    ):
        with pytest.raises(error):
            net.record_block(Block(0, *columns))
    assert _building_state(net) == _building_state(PlaceTransitionNet())
    net.record_block(Block(0, [], [], [], []))
    net.record_block(Block(0, ["x"], ["A", "B"], np.array([1]), np.array([1], dtype=np.int32)))
    net.record_block(Block(0, ["y"], ["B", "C"], [1], [1]))
    assert net.seal().place_names == ["A", "B", "C"]
    with pytest.raises(NetSealedError):
        net.record_block(Block(0, ["x"], ["A"], [0], [1]))


@pytest.mark.parametrize("heights", [(0, 0), (0, 1)], ids=["within-block", "across-blocks"])
def test_ingest_duplicate_names_its_block(heights):
    first = [("a", [], ["A"])]
    second = [("b", ["A"], ["B"]), ("a", [], ["C"])]
    if heights[0] == heights[1]:
        blocks = [Block.of(4, first + second)]
    else:
        blocks = [Block.of(4, first), Block.of(5, second)]
    for mode in ("lax", "strict"):
        with pytest.raises(DuplicateTransactionError) as raised:
            ingest(blocks, mode=mode)
        assert str(raised.value) == f"block {blocks[-1].height}: transaction 'a' already recorded"
