"""Tests of the benchmark's generator, expected results, checks and tracer.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import expected  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "long_chains": {
        **workloads.LONG_CHAINS, "chains": 40, "longest": 30, "forks": 4, "branch_max": 3,
        "cospends": 5, "repeat_groups": 3, "block_size": 25,
    },
    "cospend_rawblock": {
        **workloads.COSPEND_RAWBLOCK, "blocks": 6, "block_size": 40, "users": 20,
        "exchange_deposit_addresses": 15, "dropped": 3, "addressless_spends": 2, "rejects": 4,
    },
}


def tiny(workload: str, seed: int = 3):
    return workloads.GENERATORS[workload](seed, TINY[workload])


def written(workload: str, seed: int, directory: Path) -> dict:
    workloads.write_inputs(tiny(workload, seed), str(directory), seed)
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first = written(workload, 5, tmp_path / "a")
    assert first == written(workload, 5, tmp_path / "b")
    assert first != written(workload, 6, tmp_path / "c")
    # the size of a workload does not depend on its seed
    assert tiny(workload, 5).planted["transactions"] == tiny(workload, 6).planted["transactions"]


def test_long_chains_without_forks_recover_the_planted_lengths():
    ledger = workloads.long_chains(4, {**TINY["long_chains"], "forks": 0})
    rows = expected.expected_results(ledger)["chains"]
    assert [r["length"] for r in rows] == ledger.planted["chain_lengths"]


# -- brute-force recomputation ----------------------------------------------------


def brute_record(ledger):
    """Accepted transactions as (id, distinct inputs, distinct outputs), rescanning history."""
    accepted, rejected = [], []
    for _, txs in sorted(ledger.blocks):
        for tx in txs:
            ins = [a for a in tx.inputs if a]
            outs = [a for a in tx.outputs if a]
            if not outs:
                continue

            def balance(a):
                return (sum(a in o for _, _, o in accepted) - sum(a in i for _, i, _ in accepted))

            if ledger.mode == "strict" and ins and not all(balance(a) > 0 for a in ins):
                rejected.append(tx.tx_id)
                continue
            accepted.append((tx.tx_id, set(ins), set(outs)))
    return accepted, rejected


def brute_partition(accepted) -> list[set]:
    addresses = {a for _, i, o in accepted for a in i | o}
    neighbours = {a: set() for a in addresses}
    for _, ins, _ in accepted:
        for a in ins:
            neighbours[a] |= ins
    seen, groups = set(), []
    for a in addresses:
        if a in seen:
            continue
        group, todo = set(), [a]
        while todo:
            b = todo.pop()
            if b not in group:
                group.add(b)
                todo.extend(neighbours[b] - group)
        seen |= group
        groups.append(group)
    return groups


def brute_ccdf(values):
    n = len(values)
    return [[x, sum(v > x for v in values) / n] for x in sorted(set(values) | {0})]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_results_agree_with_brute_force(workload):
    ledger = tiny(workload)
    want = expected.expected_results(ledger)
    accepted, rejected = brute_record(ledger)
    assert want["report"]["rejected_tx_ids"] == rejected
    assert want["report"]["transactions"] == len(accepted)
    if workload == "cospend_rawblock":
        assert want["report"]["rejects"] == TINY[workload]["rejects"]
        assert want["report"]["conversion"]["skipped_transactions"] == TINY[workload]["dropped"]

    groups = brute_partition(accepted)
    assert sorted(map(sorted, groups)) == sorted(sorted(r["addresses"]) for r in want["entities"])

    entity_of = {a: i for i, g in enumerate(groups) for a in g}
    columns = {
        "address": [(frozenset(i), frozenset(o)) for _, i, o in accepted],
        "entity": [(frozenset(Counter(entity_of[a] for a in i).items()),
                    frozenset(Counter(entity_of[a] for a in o).items())) for _, i, o in accepted],
    }
    for level, cols in columns.items():
        got = want["levels"][level]
        key = (lambda item: item) if level == "address" else (lambda item: item[0])
        members = list({key(k) for i, o in cols for k in i | o})
        pre = Counter(key(k) for i, _ in cols for k in i)
        post = Counter(key(k) for _, o in cols for k in o)
        assert got["summary"]["places"] == len(members)
        pre_deg = [pre[m] for m in members]
        post_deg = [post[m] for m in members]
        both = [a + b for a, b in zip(pre_deg, post_deg)]
        assert got["ccdf"]["pre"] == brute_ccdf(pre_deg)
        assert got["ccdf"]["post"] == brute_ccdf(post_deg)
        assert got["ccdf"]["both"] == brute_ccdf(both)
        assert sorted(both, reverse=True)[:expected.TOP_K] == [p + q for _, p, q in got["top"]]

        pairs = [[accepted[t][0] for t in range(len(cols)) if cols[t] == cols[s]]
                 for s in range(len(cols))]
        brute_groups = sorted({tuple(g) for g in pairs if len(g) >= 2})
        assert sorted(map(tuple, got["repeats"]["groups"])) == brute_groups

    cyclic = [tx for tx, i, o in accepted
              if {entity_of[a] for a in i} & {entity_of[a] for a in o}]
    assert want["cyclic"] == cyclic


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_chains_agree_with_brute_force(workload):
    ledger = tiny(workload)
    accepted, _ = brute_record(ledger)
    spends = Counter(a for _, i, _ in accepted for a in i)
    receives = Counter(a for _, _, o in accepted for a in o)

    def disposable(a):
        return spends[a] == 1 and receives[a] == 1

    def is_link(t):
        _, ins, outs = accepted[t]
        return (len(ins) == 1 and len(outs) == 2 and disposable(next(iter(ins)))
                and any(map(disposable, outs)))

    links = [t for t in range(len(accepted)) if is_link(t)]
    funder = {a: t for t, (_, _, o) in enumerate(accepted) for a in o}
    spender = {a: t for t, (_, i, _) in enumerate(accepted) for a in i}
    chains = []
    for start in links:
        if funder[next(iter(accepted[start][1]))] in links:
            continue
        chain = [start]
        while True:
            nxt = [spender[a] for a in accepted[chain[-1]][2]
                   if disposable(a) and spender[a] in links]
            if not nxt:
                break
            chain.append(min(nxt))
        chains.append(chain)
    chains.sort(key=lambda c: (-len(c), c[0]))
    rows = expected.expected_results(ledger)["chains"]
    assert [r["transactions"] for r in rows] == [[accepted[t][0] for t in c] for c in chains]


# -- the checks fail on corrupted outputs ------------------------------------------


@pytest.fixture(scope="module")
def good():
    return json.loads(json.dumps(expected.expected_results(tiny("long_chains"))))


def library_doc(want: dict) -> dict:
    return {
        "report": want["report"],
        "entities": want["entities"],
        "chains": want["chains"],
        "cyclic": want["cyclic"],
        "levels": want["levels"],
    }


def test_checks_accept_the_expected_outputs(good):
    assert checks.check_report(good["report"], good) == []
    assert checks.check_entities(good["entities"], good) == []
    assert checks.check_chains(good["chains"], good["chains_totals"], good) == []
    for level in ("address", "entity"):
        assert checks.check_summary(good["levels"][level]["summary"], good, level) == []
        for side in expected.SIDES:
            text = expected.ccdf_csv(good["levels"][level]["ccdf"][side])
            assert checks.check_ccdf_csv(side, text, good, level) == []
        doc = {**good["levels"][level]["repeats"], "level": level}
        assert checks.check_repeats(doc, good, level) == []
    assert checks.check_library(library_doc(good), good) == []


def test_check_fails_on_a_dropped_chain_link(good):
    rows = copy.deepcopy(good["chains"])
    rows[0]["transactions"].pop()
    rows[0]["length"] -= 1
    assert checks.check_chains(rows, good["chains_totals"], good)
    doc = library_doc(good)
    doc["chains"] = rows
    assert checks.check_library(doc, good)


def test_check_fails_on_two_merged_entities(good):
    rows = copy.deepcopy(good["entities"])
    merged = rows.pop(1)
    rows[0]["addresses"] += merged["addresses"]
    rows[0]["size"] += merged["size"]
    assert checks.check_entities(rows, good)
    assert checks.check_library({**library_doc(good), "entities": rows}, good)


def test_check_fails_on_a_changed_ccdf_value(good):
    points = copy.deepcopy(good["levels"]["address"]["ccdf"]["post"])
    points[1][1] *= 1.001
    assert checks.check_ccdf_csv("post", expected.ccdf_csv(points), good, "address")
    doc = copy.deepcopy(library_doc(good))
    doc["levels"]["address"]["ccdf"]["post"] = points
    assert checks.check_library(doc, good)


def test_check_fails_on_a_split_repeat_group(good):
    repeats = copy.deepcopy(good["levels"]["address"]["repeats"])
    group = repeats["groups"].pop(0)
    repeats["groups"][:0] = [group[:1], group[1:]]
    assert checks.check_repeats({**repeats, "level": "address"}, good, "address")
    doc = copy.deepcopy(library_doc(good))
    doc["levels"]["address"]["repeats"] = repeats
    assert checks.check_library(doc, good)


# -- against the program ---------------------------------------------------------


def run_workflow(tmp_path: Path, workload: str, traced: bool) -> tuple[run.Workflow, dict]:
    ledger = tiny(workload)
    data = tmp_path / "data"
    inputs = workloads.write_inputs(ledger, str(data), 3)
    want = json.loads(json.dumps(expected.expected_results(ledger)))
    work = tmp_path / ("traced" if traced else "plain")
    work.mkdir(parents=True)
    flow = run.Workflow(data, {"format": ledger.fmt, "mode": ledger.mode, "inputs": inputs}, work)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for op in run.OPERATIONS:
        with open(flow.stdout(op), "wb") as out:
            done = subprocess.run(flow.argv(op, traced), stdout=out, stderr=subprocess.PIPE,
                                  env=env, cwd=ROOT, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
    return flow, want


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_program_outputs_pass_the_checks(tmp_path, workload):
    flow, want = run_workflow(tmp_path, workload, traced=False)
    for op in run.ANALYSES + ("build",):
        assert checks.check_cli_output(op, flow.ops[op][1], want) == [], op
    with open(flow.ops["library"][1], encoding="utf-8") as fh:
        assert checks.check_library(json.load(fh), want) == []


def test_traced_run_records_layers_without_changing_outputs(tmp_path):
    plain, _ = run_workflow(tmp_path, "cospend_rawblock", traced=False)
    traced, _ = run_workflow(tmp_path, "cospend_rawblock", traced=True)
    docs = {}
    for op in run.OPERATIONS:
        assert plain.digest(op) == traced.digest(op), op
        with open(traced.spans(op), encoding="utf-8") as fh:
            docs[op] = json.load(fh)
    assert not os.path.exists(plain.spans("build"))
    names = {s[0] for doc in docs.values() for s in doc["spans"]}
    wrapped = {f"{m.removeprefix('chainpetri.')}.{a}" for m, c, a, k in tracer.WRAPPED
               if k == "span"}
    assert wrapped - names == {"ingest.parse_block"}  # rawblocks are converted instead
    now = {op: 0.0 for op in run.OPERATIONS}
    walls = {op: 1.0 for op in run.OPERATIONS}
    metrics = tracer.layer_metrics(docs, walls, now, traced.report_bytes())
    assert metrics["net.load_snapshot_calls"] == len(run.ANALYSES)
    assert metrics["entities.compute_entities_calls"] == 4
    assert metrics["ingest.rejects"] == 2 * TINY["cospend_rawblock"]["rejects"]
    assert metrics["net.record_transaction_calls"] == metrics["ingest.transactions"]
    assert metrics["ingest.ingest_self_s"] > 0 and metrics["cli.analyze_self_s"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "long_chains",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_spawned_children_report_their_own_peak_rss(tmp_path):
    spawner = run.Spawner(dict(os.environ))
    try:
        ballast = bytes(range(256)) * 10**6  # this process grows after the spawner started
        out = str(tmp_path / "out")
        wall, rss_kb, code, _ = spawner.run([sys.executable, "-c", "pass"], out, out)
    finally:
        spawner.close()
    assert len(ballast) == 256 * 10**6
    assert code == 0 and wall > 0
    assert rss_kb * 1024 < 100e6
