"""Mutated ledgers and generator configs: the CLI answers with an exit code,
never a traceback, and every analysis of a snapshot it builds succeeds."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from chainpetri import GeneratorConfig, encode_block, generate_synthetic
from chainpetri.cli import main
from helpers import rawblock_doc

BASE_CONFIG = GeneratorConfig(entity_sizes=[2, 3], chain_lengths=[1, 3], repeat_group_sizes=[2],
                              fillers=4, addresses_per_filler=2, block_size=5,
                              max_transactions=60)
BLOCKS, _ = generate_synthetic(BASE_CONFIG, seed=3)

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
            for i, (command, *flags) in enumerate(ANALYSES):
                if command in ("entities", "chains", "stats"):
                    flags += ["--out", str(root / f"out{i}")]
                assert _run([command, str(snapshot), *flags]) == 0, (command, flags)


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
