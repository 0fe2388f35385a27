"""Mutated ledgers, generator configs and snapshots: the CLI answers with an
exit code, never a traceback, and every analysis of a snapshot it builds or
loads succeeds."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainpetri import GeneratorConfig, encode_block, generate_synthetic, ingest
from chainpetri.cli import main
from helpers import npy_header, rawblock_doc, v2_bytes, v2_headers, v2_join, v2_split

BASE_CONFIG = GeneratorConfig(entity_sizes=[2, 3], chain_lengths=[1, 3], repeat_group_sizes=[2],
                              fillers=4, addresses_per_filler=2, block_size=5,
                              max_transactions=60)
BLOCKS, _ = generate_synthetic(BASE_CONFIG, seed=3)
SNAPSHOT = v2_bytes(ingest(BLOCKS)[0])

# A mutation replaces a value or deletes it.  Half the time the new value is
# one a ledger or config may hold, so that more mutated inputs build and reach
# the analyses; half the time it is one that none may.
DELETE = object()
PLAUSIBLE = ["x", 7, DELETE]
IMPLAUSIBLE = [None, True, False, 0.5, -1.5, 2**70, -2**70, "", "\ud800", [], ["a"], {}, {"a": 1}]
# A large positive size is valid and makes a large ledger, so a config's huge
# integer is negative
CONFIG_IMPLAUSIBLE = [v for v in IMPLAUSIBLE if v != 2**70]


def _canonical(block) -> dict:
    return json.loads(encode_block(block))


def _slots(doc) -> list[tuple]:
    """Every (container, key) below `doc`, in document order."""
    slots = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        slots.append((doc, key))
        if isinstance(value, (dict, list)):
            slots += _slots(value)
    return slots


def _mutate(data, doc, implausible):
    """Apply one to three drawn mutations to `doc` in place."""
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            return
        container, key = data.draw(st.sampled_from(slots))
        value = data.draw(st.sampled_from(PLAUSIBLE) | st.sampled_from(implausible))
        if value is DELETE:
            del container[key]
        else:
            container[key] = copy.deepcopy(value)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


ANALYSES = [("entities",), ("chains",), ("stats", "--level", "address"),
            ("stats", "--level", "entity"), ("repeats", "--level", "address"),
            ("repeats", "--level", "entity"), ("top",)]


def _analyse(snapshot, root) -> list[int]:
    """The exit code of each analysis of the snapshot, in `ANALYSES` order;
    reports go under `root`."""
    codes = []
    for i, (command, *flags) in enumerate(ANALYSES):
        if command in ("entities", "chains", "stats"):
            flags += ["--out", str(root / f"out{i}")]
        codes.append(_run([command, str(snapshot), *flags]))
    return codes


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["canonical", "rawblock"]), st.sampled_from(["lax", "strict"]),
       st.booleans())
def test_mutated_ledger_builds_or_exits_2_and_every_analysis_exits_0(data, fmt, mode, stream):
    docs = [(_canonical if fmt == "canonical" else rawblock_doc)(block) for block in BLOCKS]
    _mutate(data, docs, IMPLAUSIBLE)
    with tempfile.TemporaryDirectory() as work:
        root = pathlib.Path(work)
        if stream:
            source = root / "ledger.jsonl"
            source.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        else:
            source = root / "blocks"
            source.mkdir()
            for i, doc in enumerate(docs):
                (source / f"block_{i}.json").write_text(json.dumps(doc))
        snapshot = root / "net.snap"
        code = _run(["build", str(source), "--format", fmt, "--mode", mode,
                     "--out", str(snapshot)])
        assert code in (0, 2)
        if code == 0:
            assert _analyse(snapshot, root) == [0] * len(ANALYSES)


@settings(max_examples=50, deadline=None)
@given(st.data(), st.integers(0, 5))
def test_mutated_config_synthesizes_or_exits_2(data, seed):
    doc = BASE_CONFIG.as_dict()
    _mutate(data, doc, CONFIG_IMPLAUSIBLE)
    with tempfile.TemporaryDirectory() as work:
        config = pathlib.Path(work) / "config.json"
        config.write_text(json.dumps(doc))
        assert _run(["synth", "--config", str(config), "--seed", str(seed),
                     "--out", str(pathlib.Path(work) / "blocks")]) in (0, 2)


# values a snapshot's .npy header fields may be given, valid or not
HEADER_VALUES = {
    "descr": ["<i4", "<i8", ">i8", "|u1", "|b1", "<f8", "<u8", "|O", "<U2", "V8", "bogus", 7, None],
    "fortran_order": [True, False, 1, "no", None],
    "shape": [(), (0,), (1,), (7,), (2, 3), (-1,), (99999999999999999999,), None, 3, "3"],
}


def _edit_bytes(data, snapshot: bytearray):
    """Flip, truncate, insert or delete bytes at a drawn position."""
    at = data.draw(st.integers(0, len(snapshot)))
    kind = data.draw(st.sampled_from(["flip", "truncate", "insert", "delete"]))
    if kind == "flip" and at < len(snapshot):
        snapshot[at] ^= data.draw(st.integers(1, 255))
    elif kind == "truncate":
        del snapshot[at:]
    elif kind == "insert":
        snapshot[at:at] = data.draw(st.binary(min_size=1, max_size=4))
    else:
        del snapshot[at:at + data.draw(st.integers(1, 8))]


def _edit_header(data) -> bytes:
    """One field of one record's .npy header set to a drawn value."""
    magic, records = v2_headers(SNAPSHOT)
    record = data.draw(st.integers(0, len(records) - 1))
    fields = np.lib.format.header_data_from_array_1_0(v2_split(SNAPSHOT)[1][record])
    name = data.draw(st.sampled_from(sorted(fields)))
    fields[name] = data.draw(st.sampled_from(HEADER_VALUES[name]))
    records[record][0] = npy_header(fields)
    return magic + b"".join(map(b"".join, records))


def _edit_length(data) -> bytes:
    """One record one entry shorter, or one longer by a drawn value."""
    magic, records = v2_split(SNAPSHOT)
    record = data.draw(st.integers(0, len(records) - 1))
    if data.draw(st.booleans()):
        records[record] = records[record][:-1]
    else:
        value = data.draw(st.sampled_from([0, 1, 2, 7, 127, 255, -1]))
        records[record] = np.append(records[record], np.array(value).astype(records[record].dtype))
    return v2_join(magic, records)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["bytes", "header", "length"]))
def test_mutated_snapshot_loads_or_exits_4_in_every_analysis(data, kind):
    snapshot = bytearray(SNAPSHOT if kind == "bytes" else
                         _edit_header(data) if kind == "header" else _edit_length(data))
    for _ in range(data.draw(st.integers(1 if kind == "bytes" else 0, 3))):
        _edit_bytes(data, snapshot)
    with tempfile.TemporaryDirectory() as work:
        root = pathlib.Path(work)
        path = root / "net.snap"
        path.write_bytes(snapshot)
        # every command loads the snapshot the same way, so all succeed or none
        assert set(_analyse(path, root)) in ({0}, {4})
