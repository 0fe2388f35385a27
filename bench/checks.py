"""Output checks: each compares one program output with the expected results.

Every check returns a list of problems; an empty list means the output is
correct.  Only the documented fields are compared, so a later change may add
fields to a report without failing a check.
"""

from __future__ import annotations

import json
import os

from expected import SIDES, ccdf_csv

REPORT_KEYS = ("blocks", "transactions", "addresses", "pre_arcs", "post_arcs", "rejects",
               "rejected_tx_ids", "mode", "format")
TOTALS_KEYS = ("chains_total", "chains_length_ge_2", "longest", "disposable_addresses",
               "chain_transactions")
REPEAT_KEYS = ("group_count", "repetition_count", "repetition_fraction", "groups")


def _compare(what: str, got, want) -> list[str]:
    if got == want:
        return []
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return [f"{what}: {len(got)} entries, expected {len(want)}"]
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return [f"{what}[{i}]: got {_short(g)}, expected {_short(w)}"]
    return [f"{what}: got {_short(got)}, expected {_short(want)}"]


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 160 else text[:157] + "..."


def _fields(doc, keys) -> dict:
    return {k: doc.get(k) for k in keys} if isinstance(doc, dict) else {}


def check_report(doc, expected: dict) -> list[str]:
    want = expected["report"]
    problems = _compare("build report", _fields(doc, REPORT_KEYS), _fields(want, REPORT_KEYS))
    if "conversion" in want:
        got = doc.get("conversion") if isinstance(doc, dict) else None
        problems += _compare("build report conversion", got, want["conversion"])
    return problems


def check_entities(rows, expected: dict) -> list[str]:
    return _compare("entities", rows, expected["entities"])


def check_chains(rows, totals, expected: dict) -> list[str]:
    return (_compare("chains", rows, expected["chains"])
            + _compare("chain totals", _fields(totals, TOTALS_KEYS), expected["chains_totals"]))


def check_summary(doc, expected: dict, level: str) -> list[str]:
    want = expected["levels"][level]["summary"]
    return _compare(f"{level} summary", _fields(doc, want), want)


def check_ccdf_csv(side: str, text: str, expected: dict, level: str) -> list[str]:
    want = ccdf_csv(expected["levels"][level]["ccdf"][side])
    if text == want:
        return []
    got_lines, want_lines = text.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return [f"{level} ccdf_{side}.csv line {i + 1}: got {g!r}, expected {w!r}"]
    return [f"{level} ccdf_{side}.csv: {len(got_lines)} lines, expected {len(want_lines)}"]


def check_repeats(doc, expected: dict, level: str) -> list[str]:
    want = expected["levels"][level]["repeats"]
    problems = _compare(f"{level} repeats", _fields(doc, REPEAT_KEYS), want)
    if isinstance(doc, dict) and doc.get("level") != level:
        problems.append(f"{level} repeats: level field is {doc.get('level')!r}")
    return problems


def check_top(rows, expected: dict) -> list[str]:
    want = [
        {"place": p, "address": a, "pre_nnz": pre, "post_nnz": post}
        for (p, pre, post), a in zip(expected["levels"]["address"]["top"],
                                     expected["top_addresses"])
    ]
    return _compare("top", rows, want)


def check_library(doc, expected: dict) -> list[str]:
    """The library pass's results, as `libpass.py` writes them."""
    problems = check_report(doc["report"], expected)
    problems += check_entities(doc["entities"], expected)
    problems += _compare("cyclic transitions", doc["cyclic"], expected["cyclic"])
    problems += _compare("chains", doc["chains"], expected["chains"])
    for level, want in expected["levels"].items():
        got = doc["levels"][level]
        problems += check_summary(got["summary"], expected, level)
        for side in SIDES:
            problems += _compare(f"{level} ccdf {side}", got["ccdf"][side], want["ccdf"][side])
        problems += _compare(f"{level} top", got["top"], want["top"])
        problems += _compare(f"{level} repeats", _fields(got["repeats"], REPEAT_KEYS),
                             want["repeats"])
    return problems


# -- CLI outputs on disk --------------------------------------------------------


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def check_cli_output(op: str, out: str, expected: dict) -> list[str]:
    """Check what one CLI command of the workflow left in `out`.

    `out` is the command's output directory (build: the report file; top and
    repeats: the file holding its standard output).
    """
    try:
        if op == "build":
            return check_report(_load(out), expected)
        if op == "entities":
            return check_entities(_load(os.path.join(out, "entities.json")), expected)
        if op == "chains":
            return check_chains(_load(os.path.join(out, "chains.json")),
                                _load(os.path.join(out, "chains_totals.json")), expected)
        if op.startswith("stats_"):
            level = op.removeprefix("stats_")
            problems = check_summary(_load(os.path.join(out, "summary.json")), expected, level)
            for side in SIDES:
                text = _read(os.path.join(out, f"ccdf_{side}.csv"))
                problems += check_ccdf_csv(side, text, expected, level)
            return problems
        if op.startswith("repeats_"):
            return check_repeats(_load(out), expected, op.removeprefix("repeats_"))
        if op == "top":
            return check_top(_load(out), expected)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{op}: unreadable output: {exc!r}"]
    raise ValueError(f"unknown operation {op!r}")
