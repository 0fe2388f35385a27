"""Smoke test of the scripts under tools/."""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys
import types

import pytest

from chainpetri import GeneratorConfig, generate_synthetic, load_snapshot
from helpers import synth_sha256, v2_bytes
from test_acceptance import _c8_build

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


# each analysis the tool runs, with the directory it writes and the files there
ANALYSES = {
    "entities": ("entities", ["entities.json"]),
    "chains": ("chains", ["chains.json", "chains_totals.json"]),
    "stats --level address": ("stats_level_address",
                              ["ccdf_both.csv", "ccdf_post.csv", "ccdf_pre.csv", "summary.json"]),
    "stats --level entity": ("stats_level_entity",
                             ["ccdf_both.csv", "ccdf_post.csv", "ccdf_pre.csv", "summary.json"]),
    "repeats --level address": ("repeats_level_address", ["stdout.json"]),
    "repeats --level entity": ("repeats_level_entity", ["stdout.json"]),
    "top --k 10": ("top_k_10", ["stdout.json"]),
}


def _analysis_sha256(workdir: pathlib.Path, command: str) -> str:
    """The sha256 over the files the analysis wrote, which must be exactly its own."""
    directory, files = ANALYSES[command]
    assert sorted(path.name for path in (workdir / directory).iterdir()) == files
    digest = hashlib.sha256()
    for name in files:
        digest.update((workdir / directory / name).read_bytes())
    return digest.hexdigest()


def test_c8_build_times_repeated_builds_of_one_ledger(tmp_path):
    done = subprocess.run([sys.executable, str(TOOLS / "c8_build.py"), str(tmp_path),
                           "--scale", "0.0005", "--runs", "2", "--mode", "strict"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    (synth, *runs), analyses = lines[:3], lines[3:]
    assert synth["command"] == "synth" and synth["wall_s"] > 0 and synth["peak_rss_mb"] > 0
    assert all(line["cpu_s"] > 0 for line in lines)
    assert synth["sha256"] == synth_sha256(tmp_path / "blocks")
    assert [run["run"] for run in runs] == [0, 1]
    for run in runs:
        assert run["mode"] == "strict" and run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    snapshot = tmp_path / "net.snap"
    assert {run["snapshot_sha256"] for run in runs} == {
        hashlib.sha256(snapshot.read_bytes()).hexdigest()}
    assert len({run["report_sha256"] for run in runs}) == 1
    # each run repeats every analysis, with the same output
    assert [(analysis["run"], analysis["command"]) for analysis in analyses] == [
        (number, command) for number in (0, 1) for command in ANALYSES]
    for analysis in analyses:
        assert analysis["wall_s"] > 0 and analysis["peak_rss_mb"] > 0
        assert analysis["sha256"] == _analysis_sha256(tmp_path, analysis["command"])
    top = json.loads((tmp_path / "top_k_10" / "stdout.json").read_text())
    assert len(top) == 10
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["block_size"] == 5000 and config["fillers"] == 188
    blocks, _ = generate_synthetic(GeneratorConfig(**config), seed=8)
    assert load_snapshot(snapshot).num_transitions == sum(len(b.tx_ids) for b in blocks)


def test_c8_build_analyses_a_given_snapshot(tmp_path, sample_net):
    snapshot = tmp_path / "given.snap"
    sample_net.save_snapshot(snapshot)
    workdir = tmp_path / "work"
    done = subprocess.run([sys.executable, str(TOOLS / "c8_build.py"), str(workdir),
                           "--snapshot", str(snapshot)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["command"] for line in lines] == list(ANALYSES)
    # neither synth nor build ran: the workdir holds only the analyses' output
    assert sorted(path.name for path in workdir.iterdir()) == sorted(
        directory for directory, _ in ANALYSES.values())
    for line in lines:
        assert set(line) == {"run", "command", "wall_s", "cpu_s", "peak_rss_mb", "sha256"}
        assert line["run"] == 0
        assert line["wall_s"] > 0 and line["cpu_s"] > 0 and line["peak_rss_mb"] > 0
        assert line["sha256"] == _analysis_sha256(workdir, line["command"])
    assert snapshot.read_bytes() == v2_bytes(sample_net)


def test_c8_build_reports_peaks_in_decimal_megabytes(monkeypatch):
    # `ru_maxrss` counts KiB: 1,000,000 KiB is 1024 MB of 10**6 bytes, as
    # bench/run.py reports peaks, and not 976.6 MiB
    c8 = _c8_build()
    usage = types.SimpleNamespace(ru_maxrss=1_000_000, ru_utime=1.25, ru_stime=0.5)
    monkeypatch.setattr(c8.subprocess, "Popen", lambda *args, **kwargs: types.SimpleNamespace(
        pid=0, returncode=None))
    monkeypatch.setattr(c8.os, "wait4", lambda pid, options: (pid, 0, usage))
    run = c8.chainpetri("top", "net.snap")
    assert run["peak_rss_mb"] == 1024.0 and run["cpu_s"] == 1.75


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(TOOLS.parent), *args], input="", capture_output=True,
                          text=True)


def test_bench_pair_runs_one_pair_against_head():
    if _git("rev-parse", "HEAD").returncode:
        pytest.skip("needs a git checkout with a commit")
    done = subprocess.run([sys.executable, str(TOOLS / "bench_pair.py"), "HEAD",
                           "--workload", "long_chains", "--pairs", "1", "--seconds", "0"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    *runs, summary = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(run["pair"], run["side"]) for run in runs] == [(0, "rev"), (0, "tree")]
    metrics = {"setup_s", "analyze_s", "library_s", "setup_peak_rss_mb", "analyze_peak_rss_mb",
               "library_peak_rss_mb", "snapshot_mb"}
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and set(run["metrics"]) == metrics
    assert summary["rev"] == "HEAD" and summary["pairs"] == 1
    assert set(summary["median_change_pct"]) == set(summary["better_pairs"]) == metrics
    # both sides read the same inputs, so they write snapshots of one size
    assert runs[0]["metrics"]["snapshot_mb"] == runs[1]["metrics"]["snapshot_mb"]


def test_bench_pair_refuses_a_revision_whose_benchmark_differs():
    if _git("rev-parse", "--git-dir").returncode:
        pytest.skip("needs a git checkout")
    empty_tree = _git("hash-object", "-t", "tree", "--stdin").stdout.strip()
    done = subprocess.run([sys.executable, str(TOOLS / "bench_pair.py"), empty_tree],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "refusing to compare" in done.stderr
    assert done.stdout == ""


def test_bench_pair_refuses_an_unknown_revision():
    done = subprocess.run([sys.executable, str(TOOLS / "bench_pair.py"), "no-such-revision"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == (f"no-such-revision names no revision of the git checkout "
                           f"{TOOLS.parent}\n")
