"""Command-line front end: build a net snapshot once, analyze it many times.

Exit codes: 0 success, 1 invalid flags, 2 parse/validation failure,
3 I/O failure, 4 snapshot load failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import glob
import json
import os
import re
import sys

import numpy as np

from . import analytics, chains as chains_mod, entities as entities_mod
from .errors import (
    BlockOrderingError,
    BlockParseError,
    BlockValidationError,
    DuplicateTransactionError,
    GeneratorConfigError,
    MalformedTransactionError,
    SnapshotError,
)
from .ingest import LAX, STRICT, RawBlockReport, convert_rawblock, encode_block, ingest, parse_block
from .net import load_snapshot
from .synthetic import GeneratorConfig, generate_synthetic

_BLOCK_FILE = re.compile(r"block_(\d+)\.json$")


class _Fail(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for data errors; flag errors must exit 1
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainpetri", description=__doc__)
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the generated_at field from JSON reports (byte-identical reruns)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="ingest block files into a net snapshot")
    p.add_argument("inputs", nargs="+", help="block files or directories of block_<height>.json")
    p.add_argument("--format", choices=["canonical", "rawblock"], default="canonical")
    p.add_argument("--mode", choices=[LAX, STRICT], default=LAX)
    p.add_argument("--out", required=True, help="snapshot path to write")
    p.add_argument("--report", help="ingest report path (default: <out>.report.json)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("entities", help="compute the owner partition")
    p.add_argument("snapshot")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_entities)

    p = sub.add_parser("chains", help="reconstruct disposable-address chains")
    p.add_argument("snapshot")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("stats", help="degree statistics, CCDFs and summary")
    p.add_argument("snapshot")
    p.add_argument("--level", choices=["address", "entity"], default="address")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("top", help="most active places")
    p.add_argument("snapshot")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("repeats", help="repeated-transaction groups")
    p.add_argument("snapshot")
    p.add_argument("--level", choices=["address", "entity"], default="address")
    p.set_defaults(func=_cmd_repeats)

    p = sub.add_parser("synth", help="generate a seeded synthetic blockchain")
    p.add_argument("--config", required=True, help="generator config JSON file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (BlockParseError, BlockValidationError, BlockOrderingError,
            MalformedTransactionError, DuplicateTransactionError,
            GeneratorConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


# -- command handlers --------------------------------------------------------


def _cmd_build(args) -> int:
    conversion = RawBlockReport() if args.format == "rawblock" else None
    net, report = _ingest_files(_block_files(args.inputs), conversion, args.mode)
    if not report.blocks:
        raise _Fail(2, "no input blocks")
    net.save_snapshot(args.out)

    report_doc = report.as_dict()
    report_doc["mode"] = args.mode
    report_doc["format"] = args.format
    if conversion is not None:
        report_doc["conversion"] = dataclasses.asdict(conversion)
    _write_json(args.report or f"{args.out}.report.json", report_doc, args)
    print(
        f"built snapshot {args.out}: {report.addresses} addresses, "
        f"{report.transactions} transactions, {report.rejects} rejected",
        file=sys.stderr,
    )
    return 0


def _cmd_entities(args) -> int:
    net = _load_net(args.snapshot)
    partition = entities_mod.compute_entities(net)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "entities.json"), "w", encoding="utf-8") as fh:
        count = entities_mod.write_entity_report(fh, partition, net)
    print(f"{count} entities over {net.num_places} addresses", file=sys.stderr)
    return 0


def _cmd_chains(args) -> int:
    net = _load_net(args.snapshot)
    disposable = chains_mod.disposable_addresses(net)
    sets = chains_mod.disposable_transactions(net, disposable)
    found = chains_mod.build_chains(net, sets)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "chains.json"), "w", encoding="utf-8") as fh:
        chains_mod.write_chain_report(fh, net, found)
    totals = {
        "chains_total": len(found),
        "chains_length_ge_2": sum(1 for c in found if len(c.links) >= 2),
        "longest": max((len(c.links) for c in found), default=0),
        "disposable_addresses": int(np.count_nonzero(disposable)),
        "chain_transactions": int(np.count_nonzero(sets.transactions_d)),
    }
    _write_json(os.path.join(args.out, "chains_totals.json"), totals, args)
    print(f"{totals['chains_total']} chains, longest {totals['longest']}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    net = _analysis_net(args)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "summary.json"),
                analytics.summary(net).as_dict(), args)
    for side in analytics.SIDES:
        degrees = analytics.degree_multiset(net, side)
        # the CCDF of no places is undefined: its file holds only the header
        series = analytics.ccdf(degrees) if degrees.counts.size else analytics.CcdfSeries([])
        analytics.ccdf_to_csv(series, os.path.join(args.out, f"ccdf_{side}.csv"))
    print(f"stats for {net.num_places} places written to {args.out}", file=sys.stderr)
    return 0


def _cmd_top(args) -> int:
    if args.k < 1:
        raise _Fail(1, "--k must be >= 1")
    net = _load_net(args.snapshot)
    top = analytics.top_k_active(net, args.k)
    rows = [
        {"place": p, "address": address, "pre_nnz": pre, "post_nnz": post}
        for (p, pre, post), address in zip(top, net.addresses_of([p for p, _, _ in top]))
    ]
    json.dump(rows, sys.stdout, indent=2)
    print()
    return 0


def _cmd_repeats(args) -> int:
    net = _analysis_net(args)
    report = analytics.repeat_report(net, analytics.repeated_groups(net))
    report["level"] = args.level
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


def _cmd_synth(args) -> int:
    try:
        doc = json.loads(_read_text(args.config))
    except json.JSONDecodeError as exc:
        raise _Fail(2, f"{args.config}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _Fail(2, f"{args.config}: config must be a JSON object")
    config = GeneratorConfig.from_dict(doc)
    blocks, truth = generate_synthetic(config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for block in blocks:
        path = os.path.join(args.out, f"block_{block.height}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(encode_block(block))
            fh.write("\n")
    _write_json(os.path.join(args.out, "ground_truth.json"), truth.as_dict(), args)
    print(f"wrote {len(blocks)} blocks and ground truth to {args.out}", file=sys.stderr)
    return 0


# -- helpers -----------------------------------------------------------------


def _parse(origin: str, text: str, conversion: RawBlockReport | None):
    """One block; rawblock counts are summed into `conversion`."""
    try:
        if conversion is None:
            return parse_block(text)
        block, report = convert_rawblock(text)
    except (BlockParseError, BlockValidationError) as exc:
        raise _Fail(2, f"{origin}: {exc}") from exc
    for field in dataclasses.fields(report):
        setattr(conversion, field.name,
                getattr(conversion, field.name) + getattr(report, field.name))
    return block


class _Unordered(Exception):
    """Heights that stop rising: the count of files recorded and of their
    blocks, the parsed blocks of the files after them up to the one that
    breaks the order, and the place of the first file not yet read."""

    def __init__(self, recorded: int, done: int, parsed: list, unread: int):
        self.recorded, self.done, self.parsed, self.unread = recorded, done, parsed, unread


def _ingest_files(files, conversion: RawBlockReport | None, mode: str):
    """Ingest the files' blocks, a file at a time while heights rise.  Where
    they stop rising, parse everything, sort it by height and ingest that
    instead; the files already recorded are parsed again, without counting
    their conversion a second time.  Only regular files are streamed: a pipe
    cannot be read twice, so any other input is parsed whole first."""
    recorded = done = unread = 0
    parsed = []
    if all(os.path.isfile(path) for path, _ in files):
        try:
            return ingest(_ascending(files, conversion), mode=mode)
        except _Unordered as exc:
            recorded, done, parsed, unread = exc.recorded, exc.done, exc.parsed, exc.unread
    # the first attempt's net is gone here; waiting blocks share one str per address
    again, shared = None if conversion is None else RawBlockReport(), {}
    blocks = [block for file in files[:recorded] for block in _file_blocks(*file, again, shared)]
    if len(blocks) != done:
        raise _Fail(3, f"input changed while it was read: {recorded} file(s) from "
                       f"{files[0][0]} held {done} blocks, then {len(blocks)}")
    blocks += [_share(block, shared) for block in parsed]
    del parsed
    for file in files[unread:]:
        blocks += _file_blocks(*file, conversion, shared)
    del shared
    blocks.sort(key=lambda b: b.height)
    return ingest(_drain(blocks), mode=mode)


def _ascending(files, conversion: RawBlockReport | None):
    """The files' blocks while each is higher than the one before.  A file is
    recorded only once the next one has been parsed and continues the order,
    so disorder one file ahead is found before anything of this file is
    recorded; raises `_Unordered` where the order breaks."""
    last, held, done = -1, [], 0
    for at, file in enumerate(files):
        blocks = _file_blocks(*file, conversion)
        heights = [last, *(block.height for block in blocks)]
        if any(a >= b for a, b in zip(heights, heights[1:])):
            raise _Unordered(max(at - 1, 0), done, held + blocks, at + 1)
        done += len(held)
        yield from _drain(held)
        held, last = blocks, heights[-1]
    yield from _drain(held)


def _drain(blocks: list):
    """The blocks in order, each dropped from the list as it is taken, so none
    outlives its recording."""
    blocks.reverse()
    while blocks:
        yield blocks.pop()


def _block_files(inputs) -> list[tuple[str, bool]]:
    """Every input file in order, a directory's `block_<height>.json` files by
    height, each with whether it may be a stream (only named files may);
    every input must exist."""
    for path in inputs:
        if not os.path.exists(path):
            raise _Fail(3, f"input path does not exist: {path}")
    files = []
    for path in inputs:
        if not os.path.isdir(path):
            files.append((path, True))
            continue
        names = glob.glob(os.path.join(glob.escape(path), "block_*.json"))
        numbered = sorted((int(match.group(1)), name) for name in names
                          if (match := _BLOCK_FILE.search(os.path.basename(name))))
        files += [(name, False) for _, name in numbered]
    return files


def _file_blocks(path: str, may_stream: bool, conversion: RawBlockReport | None,
                 shared: dict | None = None) -> list:
    """The blocks of one file, each `_share`d as soon as it is parsed: one document,
    or else, where streams may be, one block per non-blank line, named `path:line`."""
    text = _read_text(path)
    try:
        return [_share(_parse(path, text, conversion), shared)]
    except _Fail as exc:
        # text that is not one JSON document is a newline-delimited stream
        if not (may_stream and isinstance(exc.__cause__, BlockParseError)):
            raise
    return [_share(_parse(f"{path}:{n}", line, conversion), shared)
            for n, line in enumerate(_lines(text), 1) if line.strip()]


def _share(block, shared: dict | None):
    """The block, its addresses swapped for the first equal strs `shared` has seen, if given."""
    if shared is not None:
        block.addresses = list(map(shared.setdefault, block.addresses, block.addresses))
    return block


def _lines(text: str):
    """The lines of the text, each cut from it when its turn comes; lines end
    only at "\\n"."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        yield text[start:end]
        start = end + 1


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _Fail(2, f"{path}: not valid UTF-8 at byte {exc.start}") from exc


def _load_net(path: str):
    try:
        return load_snapshot(path)
    except (SnapshotError, OSError) as exc:
        raise _Fail(4, f"cannot load snapshot {path}: {exc}") from exc


def _analysis_net(args):
    net = _load_net(args.snapshot)
    if args.level == "entity":
        partition = entities_mod.compute_entities(net)
        net = entities_mod.build_entity_net(net, partition).net
    return net


def _write_json(path: str, payload: dict, args):
    if not args.no_timestamp:
        payload = {
            **payload,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
