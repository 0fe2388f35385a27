"""One in-process pass over the chainpetri library API, as the README quickstart uses it.

usage: python3 bench/libpass.py --format FMT --mode MODE --results PATH INPUT...

The block texts are read into memory first.  The timed pass then parses or
converts them, ingests, and runs every analysis at the address and entity
levels; it keeps no snapshot and writes no files.  Afterwards the results go
to PATH as JSON for the checks, and the last line of standard output is
{"library_s": seconds}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from chainpetri import (
    build_chains,
    build_entity_net,
    ccdf,
    chain_report,
    compute_entities,
    convert_rawblock,
    cyclic_transitions,
    degree_multiset,
    disposable_addresses,
    disposable_transactions,
    entity_report,
    ingest,
    parse_block,
    repeat_report,
    repeated_groups,
    summary,
    top_k_active,
)

SIDES = ("pre", "post", "both")
TOP_K = 10


def read_texts(inputs: list[str]) -> list[str]:
    """Directories of block_<height>.json, or newline-delimited stream files."""
    texts = []
    for path in inputs:
        if os.path.isdir(path):
            files = sorted(
                (int(m.group(1)), name) for name in os.listdir(path)
                if (m := re.fullmatch(r"block_(\d+)\.json", name))
            )
            for _, name in files:
                with open(os.path.join(path, name), "r", encoding="utf-8") as fh:
                    texts.append(fh.read())
        else:
            with open(path, "r", encoding="utf-8") as fh:
                texts.extend(line for line in fh.read().splitlines() if line.strip())
    return texts


def analyse(texts: list[str], fmt: str, mode: str) -> dict:
    conversion = None
    if fmt == "rawblock":
        blocks = []
        for text in texts:
            block, part = convert_rawblock(text)
            blocks.append(block)
            if conversion is None:
                conversion = part
            else:
                conversion.transactions += part.transactions
                conversion.skipped_inputs += part.skipped_inputs
                conversion.skipped_outputs += part.skipped_outputs
                conversion.skipped_transactions += part.skipped_transactions
    else:
        blocks = [parse_block(text) for text in texts]
    blocks.sort(key=lambda b: b.height)
    net, report = ingest(blocks, mode=mode)

    partition = compute_entities(net)
    entity_net = build_entity_net(net, partition).net
    cyclic = cyclic_transitions(entity_net)
    chains = build_chains(net, disposable_transactions(net, disposable_addresses(net)))

    levels = {}
    for level, level_net in (("address", net), ("entity", entity_net)):
        levels[level] = {
            "ccdf": {side: ccdf(degree_multiset(level_net, side)) for side in SIDES},
            "summary": summary(level_net),
            "top": top_k_active(level_net, TOP_K),
            "repeats": repeat_report(level_net, repeated_groups(level_net)),
        }
    return {
        "net": net,
        "report": report,
        "conversion": conversion,
        "entities": entity_report(partition, net),
        "chains": chain_report(net, chains),
        "cyclic": cyclic,
        "levels": levels,
    }


def as_json(result: dict, fmt: str, mode: str) -> dict:
    report = result["report"].as_dict()
    report.update(mode=mode, format=fmt)
    if result["conversion"] is not None:
        c = result["conversion"]
        report["conversion"] = {
            "transactions": c.transactions,
            "skipped_inputs": c.skipped_inputs,
            "skipped_outputs": c.skipped_outputs,
            "skipped_transactions": c.skipped_transactions,
        }
    net = result["net"]
    return {
        "report": report,
        "entities": result["entities"],
        "chains": result["chains"],
        "cyclic": [net.tx_id_of(t) for t in result["cyclic"]],
        "levels": {
            level: {
                "ccdf": {side: [list(p) for p in s.points] for side, s in got["ccdf"].items()},
                "summary": got["summary"].as_dict(),
                "top": [list(row) for row in got["top"]],
                "repeats": got["repeats"],
            }
            for level, got in result["levels"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=["canonical", "rawblock"], required=True)
    parser.add_argument("--mode", choices=["lax", "strict"], required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("inputs", nargs="+")
    args = parser.parse_args(argv)

    texts = read_texts(args.inputs)
    start = time.perf_counter()
    result = analyse(texts, args.format, args.mode)
    elapsed = time.perf_counter() - start
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(as_json(result, args.format, args.mode), fh)
    print(json.dumps({"library_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
