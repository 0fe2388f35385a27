"""Command-line workflows and exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from chainpetri import (
    Block,
    GeneratorConfig,
    PlaceTransitionNet,
    encode_block,
    generate_synthetic,
    load_snapshot,
)
from chainpetri import cli
from chainpetri.cli import main
from conftest import SAMPLE_TXS
from helpers import (
    PLACES,
    POST_PTR,
    POST_ROWS,
    PRE_PTR,
    TX_OFFSETS,
    TXS,
    npy_header,
    rawblock_doc,
    v2_headers,
    v2_join,
    v2_split,
)


@pytest.fixture
def block_dir(tmp_path, sample_blocks):
    directory = tmp_path / "blocks"
    directory.mkdir()
    for block in sample_blocks:
        (directory / f"block_{block.height}.json").write_text(encode_block(block))
    return directory


@pytest.fixture
def snapshot(tmp_path, block_dir):
    path = tmp_path / "net.json"
    assert main(["build", str(block_dir), "--out", str(path)]) == 0
    return path


def _rawblock_text(block):
    return json.dumps(rawblock_doc(block))


# -- build ----------------------------------------------------------------------


def test_build_writes_snapshot_and_report(tmp_path, block_dir, capsys):
    out = tmp_path / "net.json"
    assert main(["build", str(block_dir), "--out", str(out)]) == 0
    net = load_snapshot(out)
    assert net.num_places == 6
    assert net.num_transitions == 7
    assert net.pre.nnz == 5
    assert net.post.nnz == 10
    report = json.loads((tmp_path / "net.json.report.json").read_text())
    assert report["addresses"] == 6
    assert report["transactions"] == 7
    assert "generated_at" in report


def test_build_report_goes_to_the_given_path(tmp_path, block_dir):
    args = ["--no-timestamp", "build", str(block_dir)]
    assert main(args + ["--out", str(tmp_path / "default.snap")]) == 0
    chosen = tmp_path / "reports" / "ingest.json"
    chosen.parent.mkdir()
    assert main(args + ["--out", str(tmp_path / "chosen.snap"), "--report", str(chosen)]) == 0
    assert chosen.read_bytes() == (tmp_path / "default.snap.report.json").read_bytes()
    assert not (tmp_path / "chosen.snap.report.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "blocks", "chosen.snap", "default.snap", "default.snap.report.json", "reports"]


def test_build_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "net.json"
    assert main(["build", str(empty), "--out", str(out)]) == 2
    assert "no input blocks" in capsys.readouterr().err


def test_build_rawblock_equals_canonical(tmp_path, sample_blocks, block_dir):
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    for block in sample_blocks:
        (raw_dir / f"block_{block.height}.json").write_text(_rawblock_text(block))
    canonical = tmp_path / "canonical.json"
    raw = tmp_path / "raw.json"
    assert main(["build", str(block_dir), "--out", str(canonical)]) == 0
    assert main(["build", str(raw_dir), "--format", "rawblock", "--out", str(raw)]) == 0
    assert canonical.read_bytes() == raw.read_bytes()


def test_build_ndjson_stream(tmp_path, sample_blocks):
    stream = tmp_path / "stream.ndjson"
    stream.write_text("\n".join(encode_block(b) for b in sample_blocks) + "\n")
    out = tmp_path / "net.json"
    assert main(["build", str(stream), "--out", str(out)]) == 0
    assert load_snapshot(out).num_transitions == 7


@pytest.mark.parametrize("fmt", ["canonical", "rawblock"])
def test_build_stream_splits_only_at_newlines(tmp_path, fmt):
    # JSON strings may hold U+2028 and U+0085 raw; str.splitlines breaks lines there
    addr = "A\u2028B\u0085C"
    if fmt == "canonical":
        docs = [{"height": 0, "transactions": [{"tx_id": "cb", "inputs": [], "outputs": [addr]}]},
                {"height": 1, "transactions": [{"tx_id": "t1", "inputs": [addr], "outputs": ["D"]}]}]
    else:
        docs = [{"height": 0, "tx": [{"hash": "cb", "inputs": [{}], "out": [{"addr": addr}]}]},
                {"height": 1, "tx": [{"hash": "t1", "inputs": [{"prev_out": {"addr": addr}}],
                                      "out": [{"addr": "D"}]}]}]
    stream = tmp_path / "s.ndjson"
    stream.write_text("\n".join(json.dumps(d, ensure_ascii=False) for d in docs) + "\n",
                      encoding="utf-8")
    out = tmp_path / "net.bin"
    assert main(["build", str(stream), "--format", fmt, "--out", str(out)]) == 0
    net = load_snapshot(out)
    assert net.place_names == [addr, "D"] and net.transaction_ids == ["cb", "t1"]


@pytest.mark.parametrize("fmt, encode", [("canonical", encode_block), ("rawblock", _rawblock_text)])
def test_build_decodes_each_single_document_file_once(tmp_path, sample_blocks, monkeypatch,
                                                      fmt, encode):
    paths = []
    for block in sample_blocks:
        path = tmp_path / f"b{block.height}.json"
        path.write_text(json.dumps(json.loads(encode(block)), indent=1))  # one document, many lines
        paths.append(str(path))
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(text) or loads(text, **kw))
    assert main(["build", *paths, "--format", fmt, "--out", str(tmp_path / "net.bin")]) == 0
    assert sorted(decoded) == sorted(pathlib.Path(p).read_text() for p in paths)


@pytest.mark.parametrize("text, origin", [
    ('{\n"height": -1,\n"transactions": []}', "f.json"),  # schema error in one document
    ('{"height": 0, "transactions": []}\n\n{"height": 1}\n', "f.json:3"),  # in a stream line
    ('{"height": 0, "transactions": []}\n{nope\n', "f.json:2"),  # unparseable line
    ("{nope", "f.json:1"),  # unparseable text
])
def test_build_error_names_file_or_stream_line(tmp_path, capsys, text, origin):
    (tmp_path / "f.json").write_text(text)
    assert main(["build", str(tmp_path / "f.json"), "--out", str(tmp_path / "net.bin")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / origin}: ")


def test_build_directory_with_glob_metacharacters(tmp_path, sample_blocks):
    directory = tmp_path / "run[1]"
    directory.mkdir()
    for block in sample_blocks:
        (directory / f"block_{block.height}.json").write_text(encode_block(block))
    out = tmp_path / "net.json"
    assert main(["build", str(directory), "--out", str(out)]) == 0
    assert load_snapshot(out).num_transitions == 7


def test_build_rawblock_report_sums_conversion(tmp_path):
    # every count is non-zero in both files, so each must be summed
    def raw(height, txs):
        return json.dumps({"height": height, "tx": txs})

    first = tmp_path / "block_0.json"
    first.write_text(raw(0, [
        {"hash": "c1", "inputs": [{}], "out": [{"addr": "A"}, {"value": 1}]},
        {"hash": "c2", "inputs": [{}], "out": [{"value": 2}]},
        {"hash": "c3", "inputs": [{"prev_out": {"value": 9}}], "out": [{"addr": "E"}]},
    ]))
    second = tmp_path / "block_1.json"
    second.write_text(raw(1, [
        {"hash": "s1", "inputs": [{"prev_out": {"addr": "A"}}, {"prev_out": {}}],
         "out": [{"addr": "B"}, {"addr": "C"}, {}]},
        {"hash": "s2", "inputs": [{"prev_out": {"value": 3}}], "out": [{"addr": "D"}]},
        {"hash": "s3", "inputs": [{"prev_out": {"addr": "B"}}], "out": [{}, {"addr": ""}]},
    ]))
    out = tmp_path / "net.json"
    assert main(["build", str(first), str(second), "--format", "rawblock", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "net.json.report.json").read_text())
    assert report["conversion"] == {
        "transactions": 4,
        "skipped_inputs": 3,
        "skipped_outputs": 5,
        "skipped_transactions": 2,
    }
    assert list(report["conversion"]) == [
        "transactions", "skipped_inputs", "skipped_outputs", "skipped_transactions"
    ]


def test_build_orders_directory_numerically(tmp_path, sample_blocks):
    directory = tmp_path / "blocks"
    directory.mkdir()
    # height 10 would sort before height 2 lexicographically
    (directory / "block_2.json").write_text(encode_block(Block.of(2, sample_blocks[0].transactions())))
    (directory / "block_10.json").write_text(encode_block(Block.of(10, sample_blocks[1].transactions())))
    out = tmp_path / "net.json"
    assert main(["build", str(directory), "--out", str(out)]) == 0


def test_build_invalid_block_names_file(tmp_path, capsys):
    directory = tmp_path / "blocks"
    directory.mkdir()
    bad = directory / "block_0.json"
    bad.write_text('{"height": 0, "transactions": [{]}')
    out = tmp_path / "net.json"
    assert main(["build", str(directory), "--out", str(out)]) == 2
    assert "block_0.json" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("inputs", 5), ("out", 5)])
def test_build_rawblock_non_array_field_names_file(tmp_path, capsys, field, value):
    tx = {"hash": "h1", "inputs": [{}], "out": [{"addr": "A"}], field: value}
    bad = tmp_path / "raw.json"
    bad.write_text(json.dumps({"height": 0, "tx": [tx]}))
    out = tmp_path / "net.json"
    assert main(["build", str(bad), "--format", "rawblock", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "raw.json" in err and "'h1'" in err and field in err


@pytest.mark.parametrize("fmt", ["canonical", "rawblock"])
@pytest.mark.parametrize("tx_id, addr", [("h1", "\ud800x"), ("\udc00h", "B")],
                         ids=["address", "tx-id"])
def test_build_lone_surrogate_name_exit_2(tmp_path, capsys, fmt, tx_id, addr):
    if fmt == "canonical":
        txs = [{"tx_id": "cb", "inputs": [], "outputs": ["A"]},
               {"tx_id": tx_id, "inputs": ["A"], "outputs": [addr]}]
        doc = {"height": 0, "transactions": txs}
    else:
        txs = [{"hash": "cb", "inputs": [{}], "out": [{"addr": "A"}]},
               {"hash": tx_id, "inputs": [{"prev_out": {"addr": "A"}}], "out": [{"addr": addr}]}]
        doc = {"height": 0, "tx": txs}
    bad = tmp_path / "block_0.json"
    bad.write_text(json.dumps(doc))  # the surrogate travels as a JSON escape
    out = tmp_path / "net.snapshot"
    assert main(["build", str(bad), "--format", fmt, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "block_0.json" in err and f"transaction {tx_id!r}" in err and "surrogate" in err
    assert not out.exists()


def test_build_duplicate_transaction_names_block(tmp_path, capsys):
    coinbase = {"hash": "cb", "inputs": [{}], "out": [{"addr": "A"}]}
    stream = tmp_path / "raw.ndjson"
    stream.write_text(
        "".join(json.dumps({"height": h, "tx": [coinbase]}) + "\n" for h in (0, 1))
    )
    out = tmp_path / "net.json"
    assert main(["build", str(stream), "--format", "rawblock", "--out", str(out)]) == 2
    assert "block 1: transaction 'cb' already recorded" in capsys.readouterr().err


def test_build_missing_input_path(tmp_path, capsys):
    assert main(["build", str(tmp_path / "nope"), "--out", str(tmp_path / "net.json")]) == 3
    # every input is checked before any is read, so an earlier bad block is not reported
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["build", str(bad), str(tmp_path / "nope"), "--out", str(tmp_path / "net.json")]) == 3
    assert "nope" in capsys.readouterr().err.splitlines()[-1]


def test_build_out_in_missing_directory_exit_3(tmp_path, block_dir, capsys):
    out = tmp_path / "missing" / "net.snapshot"
    assert main(["build", str(block_dir), "--out", str(out)]) == 3
    assert "I/O error" in capsys.readouterr().err
    assert not out.parent.exists()


def test_build_strict_mode_flag(tmp_path):
    directory = tmp_path / "blocks"
    directory.mkdir()
    doc = {
        "height": 0,
        "transactions": [
            {"tx_id": "fund", "inputs": [], "outputs": ["A"]},
            {"tx_id": "bad", "inputs": ["Z"], "outputs": ["B"]},
        ],
    }
    (directory / "block_0.json").write_text(json.dumps(doc))
    out = tmp_path / "net.json"
    assert main(["build", str(directory), "--mode", "strict", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "net.json.report.json").read_text())
    assert report["rejects"] == 1
    assert report["rejected_tx_ids"] == ["bad"]


def _layout_ledger(unfunded=True):
    """Seven synthetic blocks plus, unless told not to, one unfunded spend,
    which strict mode rejects."""
    config = GeneratorConfig(entity_sizes=[2, 3], chain_lengths=[3, 2], repeat_group_sizes=[2],
                             fillers=12, block_size=6)
    blocks, _ = generate_synthetic(config, seed=3)
    if unfunded:
        blocks[2].append("unfunded", ["nowhere"], ["somewhere"])
    assert len(blocks) == 7
    return blocks


def _layout_text(block, fmt):
    """A block as text; a rawblock tx also gets one output without an address."""
    if fmt == "canonical":
        return encode_block(block)
    doc = json.loads(_rawblock_text(block))
    for tx in doc["tx"]:
        tx["out"].append({"value": 1})
    return json.dumps(doc)


def _write_layouts(root, blocks, fmt):
    """The same blocks as the input of four builds: an ascending directory,
    one ascending stream, three streams dealt in shuffled order, and a
    directory where block_1.json holds height 3 and block_3.json height 1."""
    texts = {block.height: _layout_text(block, fmt) for block in blocks}
    layouts = {}
    for name, named in (("ascending", {h: h for h in texts}),
                        ("misnamed", {h: {1: 3, 3: 1}.get(h, h) for h in texts})):
        directory = root / name
        directory.mkdir()
        for height, text in texts.items():
            (directory / f"block_{named[height]}.json").write_text(text)
        layouts[name] = [directory]
    (root / "stream.ndjson").write_text("".join(f"{t}\n" for t in texts.values()))
    layouts["stream"] = [root / "stream.ndjson"]
    order = [5, 2, 6, 0, 3, 1, 4]
    layouts["shuffled"] = []
    for k in range(3):
        path = root / f"part_{k}.ndjson"
        path.write_text("\n".join(texts[h] for h in order[k::3]))
        layouts["shuffled"].append(path)
    return layouts


@pytest.mark.parametrize("mode", ["lax", "strict"])
@pytest.mark.parametrize("fmt", ["canonical", "rawblock"])
def test_build_layouts_give_identical_outputs(tmp_path, fmt, mode):
    blocks = _layout_ledger()
    layouts = _write_layouts(tmp_path, blocks, fmt)
    outputs = {}
    for name, inputs in layouts.items():
        out = tmp_path / f"{name}.snap"
        assert main(["--no-timestamp", "build", *map(str, inputs), "--format", fmt,
                     "--mode", mode, "--out", str(out)]) == 0
        outputs[name] = (hashlib.sha256(out.read_bytes()).hexdigest(),
                         hashlib.sha256((tmp_path / f"{name}.snap.report.json").read_bytes())
                         .hexdigest())
    assert len(set(outputs.values())) == 1, outputs
    if mode == "strict":
        # strict records transaction by transaction, lax block by block: without
        # the spend strict rejects, a lax build must give the same snapshot
        funded = tmp_path / "funded"
        funded.mkdir()
        for block in _layout_ledger(unfunded=False):
            (funded / f"block_{block.height}.json").write_text(_layout_text(block, fmt))
        out = tmp_path / "funded.snap"
        assert main(["--no-timestamp", "build", str(funded), "--format", fmt,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == outputs["ascending"][0]
    report = json.loads((tmp_path / "misnamed.snap.report.json").read_text())
    transactions = sum(len(block.tx_ids) for block in blocks)
    assert report["blocks"] == 7
    assert report["rejects"] == (1 if mode == "strict" else 0)
    if fmt == "rawblock":
        # counted once per transaction, although the fallback parsed two files twice
        assert report["conversion"] == {"transactions": transactions, "skipped_inputs": 0,
                                        "skipped_outputs": transactions,
                                        "skipped_transactions": 0}


def _logged_build(monkeypatch, argv):
    """Run `build` and return what it read and recorded, in order."""
    events = []
    read_text, record_block = cli._read_text, PlaceTransitionNet.record_block

    def logged_read(path):
        events.append(("read", os.path.basename(path)))
        return read_text(path)

    def logged_record(net, block):
        events.append(("record", len(block.tx_ids)))
        return record_block(net, block)

    monkeypatch.setattr(cli, "_read_text", logged_read)
    monkeypatch.setattr(PlaceTransitionNet, "record_block", logged_record)
    assert main(argv) == 0
    return events


def test_build_records_an_ascending_directory_file_by_file(tmp_path, monkeypatch):
    blocks = _layout_ledger()
    layouts = _write_layouts(tmp_path, blocks, "canonical")
    events = _logged_build(monkeypatch, ["build", str(layouts["ascending"][0]),
                                         "--out", str(tmp_path / "net.snap")])
    # a file is recorded once the next one is read, and before any later one
    reads = [("read", f"block_{block.height}.json") for block in blocks]
    records = [("record", len(block.tx_ids)) for block in blocks]
    assert events == [reads[0]] + [e for pair in zip(reads[1:], records) for e in pair] + [
        records[-1]]


def test_build_fallback_reparses_only_recorded_files(tmp_path, monkeypatch):
    blocks = _layout_ledger()
    layouts = _write_layouts(tmp_path, blocks, "canonical")
    events = _logged_build(monkeypatch, ["build", str(layouts["misnamed"][0]),
                                         "--out", str(tmp_path / "net.snap")])
    names = [f"block_{h}.json" for h in range(7)]
    # block_0 is recorded once block_1 (height 3) is read; block_2 breaks the
    # order, so only block_0 is read again
    assert events[:4] == [("read", names[0]), ("read", names[1]),
                          ("record", len(blocks[0].tx_ids)), ("read", names[2])]
    assert events[4:] == [("read", name) for name in names[:1] + names[3:]] + [
        ("record", len(block.tx_ids)) for block in blocks]


def _named_files(root, blocks, heights):
    """One named file per block, in the order of the heights given."""
    paths = []
    for height in heights:
        paths.append(root / f"h{height}.json")
        paths[-1].write_text(encode_block(blocks[height]))
    return paths


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_build_reads_a_pipe_once(tmp_path):
    blocks = _layout_ledger()
    layouts = _write_layouts(tmp_path, blocks, "canonical")
    want = tmp_path / "want.snap"
    assert main(["--no-timestamp", "build", str(layouts["ascending"][0]), "--out", str(want)]) == 0
    # a pipe, as a shell's <(...) gives; opened again, it reads empty
    read, write = os.pipe()
    os.write(write, encode_block(blocks[0]).encode())
    os.close(write)
    files = _named_files(tmp_path, blocks, [1, 3, 2, 4, 5, 6])
    out = tmp_path / "net.snap"
    try:
        assert main(["--no-timestamp", "build", f"/dev/fd/{read}", *map(str, files),
                     "--out", str(out)]) == 0
    finally:
        os.close(read)
    assert _sha256(out) == _sha256(want)


def test_build_refuses_a_recorded_file_that_reads_differently(tmp_path, monkeypatch, capsys):
    blocks = _layout_ledger()
    files = _named_files(tmp_path, blocks, [0, 1, 3, 2, 4, 5, 6])
    seen = set()
    read_text = cli._read_text

    def changing_read(path):
        # h0.json is recorded before h2.json breaks the order; read again, it is blank
        text = "" if path in seen and path.endswith("h0.json") else read_text(path)
        seen.add(path)
        return text

    monkeypatch.setattr(cli, "_read_text", changing_read)
    out = tmp_path / "net.snap"
    assert main(["build", *map(str, files), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: input changed while it was read: 2 file(s) from {files[0]} held 2 blocks, "
        "then 1\n")
    assert not out.exists()


@pytest.mark.parametrize("layout", ["files", "directory"])
def test_build_equal_heights_exit_2(tmp_path, capsys, sample_blocks, layout):
    first, second = (Block.of(3, block.transactions()) for block in sample_blocks)
    if layout == "files":
        inputs = [tmp_path / "a.json", tmp_path / "b.json"]
    else:
        (tmp_path / "blocks").mkdir()
        inputs = [tmp_path / "blocks" / "block_3.json", tmp_path / "blocks" / "block_03.json"]
    inputs[0].write_text(encode_block(first))
    inputs[1].write_text(encode_block(second))
    argv = [str(p) for p in inputs] if layout == "files" else [str(tmp_path / "blocks")]
    out = tmp_path / "net.snap"
    assert main(["build", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: block height 3 follows 3; heights must be strictly increasing\n")
    assert not out.exists()


def test_build_blank_inputs_have_no_blocks(tmp_path, capsys):
    (tmp_path / "blank.ndjson").write_text("\n \n\n")
    (tmp_path / "empty").mkdir()
    out = tmp_path / "net.snap"
    assert main(["build", str(tmp_path / "blank.ndjson"), str(tmp_path / "empty"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no input blocks\n"
    assert not out.exists()


# -- analysis commands -------------------------------------------------------------


def test_entities_command(tmp_path, snapshot):
    out = tmp_path / "reports"
    assert main(["entities", str(snapshot), "--out", str(out)]) == 0
    rows = json.loads((out / "entities.json").read_text())
    assert [r["size"] for r in rows] == [3, 1, 1, 1]
    assert rows[0]["addresses"] == ["a2", "a3", "a6"]


def test_repeats_command(snapshot, capsys):
    assert main(["repeats", str(snapshot)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group_count"] == 2
    assert sorted(map(sorted, report["groups"])) == [["t1", "t2"], ["t4", "t6"]]
    assert report["level"] == "address"


def test_repeats_entity_level(snapshot, capsys):
    assert main(["repeats", str(snapshot), "--level", "entity"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["level"] == "entity"
    assert sorted(map(sorted, report["groups"])) == [["t1", "t2"], ["t4", "t6"]]


def test_top_command(snapshot, capsys):
    assert main(["top", str(snapshot), "--k", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["address"] == "a2"
    assert rows[0]["pre_nnz"] == 2
    assert rows[0]["post_nnz"] == 3
    assert len(rows) == 2


def test_stats_command(tmp_path, snapshot):
    out = tmp_path / "stats"
    assert main(["stats", str(snapshot), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["places"] == 6
    assert summary["pre_arcs"] == 5
    pre_csv = (out / "ccdf_pre.csv").read_text().splitlines()
    assert pre_csv[0] == "x,ccdf"
    assert len(pre_csv) == 4  # x = 0, 1, 2
    assert (out / "ccdf_post.csv").exists()
    assert (out / "ccdf_both.csv").exists()


def test_stats_empty_net_writes_header_only_csvs(tmp_path):
    snapshot = tmp_path / "empty.snapshot"
    PlaceTransitionNet().seal().save_snapshot(snapshot)
    out = tmp_path / "stats"
    assert main(["stats", str(snapshot), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["places"] == 0
    for side in ("pre", "post", "both"):
        assert (out / f"ccdf_{side}.csv").read_text() == "x,ccdf\n"


def test_stats_entity_level(tmp_path, snapshot):
    out = tmp_path / "entity-stats"
    assert main(["stats", str(snapshot), "--level", "entity", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["places"] == 4
    assert summary["transitions"] == 7


def test_chains_command_end_to_end(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chain_lengths": [3, 5, 2], "fillers": 8}))
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--config", str(config), "--seed", "11", "--out", str(synth_dir)]) == 0
    truth = json.loads((synth_dir / "ground_truth.json").read_text())

    out = tmp_path / "net.json"
    assert main(["build", str(synth_dir), "--mode", "strict", "--out", str(out)]) == 0
    report_dir = tmp_path / "chain-reports"
    assert main(["chains", str(out), "--out", str(report_dir)]) == 0
    rows = json.loads((report_dir / "chains.json").read_text())
    assert [r["length"] for r in rows] == [5, 3, 2]
    assert sorted(map(tuple, (r["transactions"] for r in rows))) == sorted(
        map(tuple, truth["planted_chains"])
    )
    totals = json.loads((report_dir / "chains_totals.json").read_text())
    assert totals["chains_total"] == 3
    assert totals["longest"] == 5


def test_synth_writes_block_files(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fillers": 5, "block_size": 4}))
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(config), "--seed", "3", "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert "ground_truth.json" in names
    assert "block_0.json" in names


def test_synth_bad_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chain_lengths": [0]}))
    assert main(["synth", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "o")]) == 2


# -- exit codes and determinism ------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["build"]) == 1
    assert main(["stats", "x", "--level", "bogus", "--out", "y"]) == 1


def test_top_k_zero_exit_1(snapshot):
    assert main(["top", str(snapshot), "--k", "0"]) == 1


def test_missing_snapshot_exit_4(tmp_path, capsys):
    assert main(["entities", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 4


def test_corrupt_snapshot_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}')
    assert main(["stats", str(bad), "--out", str(tmp_path / "out")]) == 4


def test_top_on_v1_json_snapshot_exit_4(tmp_path, capsys):
    # the JSON format that builds wrote before the binary one no longer loads
    old = tmp_path / "net.json"
    old.write_text('{"version":1,"places":["A"],"transitions":["c"],"pre":[],"post":[[0,0,1]]}')
    assert main(["top", str(old)]) == 4
    assert "document: not a chainpetri v2 snapshot" in capsys.readouterr().err


def _add_unposted_transition(records):
    records[TXS] = np.append(records[TXS], np.frombuffer(b"t-unposted", dtype=np.uint8))
    records[TX_OFFSETS] = np.append(records[TX_OFFSETS], len(records[TXS]))
    for ptr in (PRE_PTR, POST_PTR):
        records[ptr] = np.append(records[ptr], records[ptr][-1])


@pytest.mark.parametrize(
    "mutate",
    [lambda r: r.__setitem__(POST_ROWS, r[POST_ROWS].astype(bool)), _add_unposted_transition],
    ids=["bool_arc", "empty_post_column"],
)
def test_top_on_invalid_snapshot_exit_4(snapshot, capsys, mutate):
    magic, records = v2_split(snapshot.read_bytes())
    mutate(records)
    snapshot.write_bytes(v2_join(magic, records))
    assert main(["top", str(snapshot)]) == 4
    assert "post" in capsys.readouterr().err


def test_top_on_truncated_binary_snapshot_exit_4(snapshot, capsys):
    data = snapshot.read_bytes()
    assert data.startswith(b"chainpetri-snapshot-v2\n")
    snapshot.write_bytes(data[:-3])
    assert main(["top", str(snapshot)]) == 4
    assert "post" in capsys.readouterr().err


def test_snapshot_header_without_closing_brace_exit_4(tmp_path, snapshot, capsys):
    # numpy retries such a header through tokenize, which raises TokenError
    magic, records = v2_headers(snapshot.read_bytes())
    records[PLACES][0] = records[PLACES][0].replace(b"}", b" ")
    snapshot.write_bytes(magic + b"".join(map(b"".join, records)))
    assert main(["entities", str(snapshot), "--out", str(tmp_path / "out")]) == 4
    assert "places: unreadable array" in capsys.readouterr().err


def test_snapshot_header_shape_past_int64_exit_4(tmp_path, snapshot, capsys):
    magic, records = v2_headers(snapshot.read_bytes())
    records[PRE_PTR][0] = npy_header({"descr": "<i4", "fortran_order": False,
                                      "shape": (99999999999999999999,)})
    snapshot.write_bytes(magic + b"".join(map(b"".join, records)))
    assert main(["entities", str(snapshot), "--out", str(tmp_path / "out")]) == 4
    assert "pre: unreadable array" in capsys.readouterr().err


def test_top_on_non_utf8_file_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    assert main(["top", str(bad)]) == 4
    assert "document" in capsys.readouterr().err


def test_build_non_utf8_block_exit_2(tmp_path, block_dir, capsys):
    (block_dir / "block_0.json").write_bytes(b'{"height": 0, "transactions": []}\xff')
    assert main(["build", str(block_dir), "--out", str(tmp_path / "net.json")]) == 2
    assert "block_0.json" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{nope", "[1, 2]"], ids=["not-json", "not-an-object"])
def test_synth_config_not_a_json_object_exit_2(tmp_path, capsys, text):
    config = tmp_path / "gen.json"
    config.write_text(text)
    assert main(["synth", "--config", str(config), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert "gen.json" in capsys.readouterr().err


def test_synth_non_utf8_config_exit_2(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_bytes(b"\xff")
    assert main(["synth", "--config", str(config), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert "gen.json" in capsys.readouterr().err


def test_no_timestamp_byte_identical(tmp_path, block_dir):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["--no-timestamp", "build", str(block_dir)]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report_a = (tmp_path / "a.json.report.json").read_bytes()
    report_b = (tmp_path / "b.json.report.json").read_bytes()
    assert report_a == report_b
    assert b"generated_at" not in report_a


def test_cli_import_loads_no_scipy():
    # importing scipy would cost every CLI process about 0.3 s and 20 MB
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys, chainpetri.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert result.stdout.strip() == "[]"
