"""Smoke test of the scripts under tools/."""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys

from chainpetri import GeneratorConfig, generate_synthetic, load_snapshot
from helpers import synth_sha256

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def test_c8_build_times_repeated_builds_of_one_ledger(tmp_path):
    done = subprocess.run([sys.executable, str(TOOLS / "c8_build.py"), str(tmp_path),
                           "--scale", "0.0005", "--runs", "2", "--mode", "strict"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    synth, *runs = [json.loads(line) for line in done.stdout.splitlines()]
    assert synth["command"] == "synth" and synth["wall_s"] > 0 and synth["peak_rss_mb"] > 0
    assert synth["sha256"] == synth_sha256(tmp_path / "blocks")
    assert [run["run"] for run in runs] == [0, 1]
    for run in runs:
        assert run["mode"] == "strict" and run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    snapshot = tmp_path / "net.snap"
    assert {run["snapshot_sha256"] for run in runs} == {
        hashlib.sha256(snapshot.read_bytes()).hexdigest()}
    assert len({run["report_sha256"] for run in runs}) == 1
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["block_size"] == 5000 and config["fillers"] == 188
    blocks, _ = generate_synthetic(GeneratorConfig(**config), seed=8)
    assert load_snapshot(snapshot).num_transitions == sum(len(b.tx_ids) for b in blocks)
