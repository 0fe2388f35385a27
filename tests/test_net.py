"""Net construction, queries, invariants, and snapshot persistence."""

from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainpetri import (
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


# -- interning ---------------------------------------------------------------


def test_intern_first_allocation():
    net = PlaceTransitionNet()
    assert net.intern_address("A") == 0


def test_intern_idempotent():
    net = PlaceTransitionNet()
    assert net.intern_address("A") == 0
    assert net.intern_address("A") == 0
    assert net.num_places == 1


def test_intern_first_seen_order():
    net = PlaceTransitionNet()
    assert [net.intern_address(a) for a in ["A", "B", "A", "C"]] == [0, 1, 0, 2]
    assert net.place_names == ["A", "B", "C"]


def test_intern_rejects_empty_address():
    net = PlaceTransitionNet()
    with pytest.raises(ValueError):
        net.intern_address("")


def test_intern_after_seal_fails():
    net = PlaceTransitionNet().seal()
    with pytest.raises(NetSealedError):
        net.intern_address("A")


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
    for tx_id, inputs, outputs, error in (
        ("x", ["A"], [""], ValueError),
        ("x", ["B", ""], ["C"], ValueError),
        ("x", ["A"], [5], ValueError),
        ("x", [b"B"], ["C"], ValueError),
        ("x", ["B"], ["C", None], ValueError),
        (7, ["A"], ["B"], MalformedTransactionError),
        (["x"], ["A"], ["B"], MalformedTransactionError),
    ):
        with pytest.raises(error):
            net.record_transaction(tx_id, inputs, outputs)
        assert net.place_names == ["A"]
        assert net.transaction_ids == ["c"]
    for addr in (5, ["a"], b"a", ""):
        with pytest.raises(ValueError):
            net.intern_address(addr)
    assert net.place_names == ["A"]
    net.record_transaction("x", ["A"], ["B"])
    net.seal()
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
    for form, dense in ((inc.tocsr(), oracle), (inc.tocsc(), oracle.T)):
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


# -- row/column queries --------------------------------------------------------


def test_row_nnz_sample(sample_net):
    a2 = sample_net.place_of("a2")
    assert sample_net.row_nnz("pre", a2) == 2
    assert sample_net.row_nnz("post", a2) == 3


def test_row_nnz_no_transactions():
    net = PlaceTransitionNet()
    p = net.intern_address("A")
    net.seal()
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


def test_queries_require_seal():
    net = build_net(SAMPLE_TXS, seal=False)
    a2 = net.place_of("a2")
    with pytest.raises(NetNotSealedError):
        net.row_nnz("pre", a2)
    with pytest.raises(NetNotSealedError):
        net.column_places("pre", net.transition_of("t5"))
    # strict ingest reads the running count while it records
    assert net.utxo_count(a2) == 1


# -- utxo ----------------------------------------------------------------------


def test_utxo_sample(sample_net):
    assert sample_net.utxo_count(sample_net.place_of("a2")) == 3 - 2
    assert sample_net.utxo_count(sample_net.place_of("a4")) == 1


def test_utxo_fresh_place():
    net = PlaceTransitionNet()
    p = net.intern_address("A")
    assert net.utxo_count(p) == 0


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
        assert net.pre.tocsr().data.max() == 1
    if net.post.nnz:
        assert net.post.tocsr().data.max() == 1


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
        a, b = left.incidence(side).tocsr(), right.incidence(side).tocsr()
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
    assert sum(len(b.transactions) for b in blocks) >= 10_000
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


def test_registries_shared_and_looked_up(tmp_path, sample_net):
    from chainpetri import build_entity_net, compute_entities

    path = tmp_path / "net.snapshot"
    sample_net.save_snapshot(path)
    for net in (sample_net, load_snapshot(path), load_snapshot(io.BytesIO(v2_bytes(sample_net)))):
        assert net.place_of("a4") == 3 and net.lookup_place("zz") is None
        assert net.transition_of("t5") == 4
        entity = build_entity_net(net, compute_entities(net)).net
        assert entity.transaction_ids is net.transaction_ids
        assert entity.transition_of("t7") == 6 and entity.tx_id_of(6) == "t7"
        assert entity.place_of("e1") == 1 and entity.lookup_place("a1") is None
        assert entity.address_of(3) == "e3" and entity.place_names == ["e0", "e1", "e2", "e3"]


def test_snapshot_empty_net():
    net = PlaceTransitionNet().seal()
    loaded = load_snapshot(io.BytesIO(v2_bytes(net)))
    assert loaded.num_places == 0
    assert loaded.num_transitions == 0


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
