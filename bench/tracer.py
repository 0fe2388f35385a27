"""Traced launcher and span summariser for the benchmark's per-layer metrics.

Launcher (runs in the traced child process)::

    python3 bench/tracer.py SPANS_OUT cli ARG...   # ARGs as for `chainpetri`
    python3 bench/tracer.py SPANS_OUT lib ARG...   # ARGs as for bench/libpass.py

It wraps the public functions and methods in `WRAPPED` wherever a chainpetri
module holds them, runs the command, and writes the recorded spans and
counters to SPANS_OUT as JSON, also when the command fails.  A span is
[name, start, end, parent index, seconds of counted calls made directly
inside it]; per-item methods only count calls and sum their seconds.  The
wall-clock time of entry into `main()` is recorded too, so that the parent,
which knows when it started the process, can compute start-up time.

The summariser (`layer_metrics`) runs in the benchmark process and never
imports chainpetri.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, class or None, attribute, kind); a span's name is module.attribute
# without the package prefix.
WRAPPED = [
    ("chainpetri.ingest", None, "parse_block", "span"),
    ("chainpetri.ingest", None, "convert_rawblock", "span"),
    ("chainpetri.ingest", None, "ingest", "span"),
    ("chainpetri.net", "PlaceTransitionNet", "record_transaction", "count"),
    ("chainpetri.net", "PlaceTransitionNet", "seal", "span"),
    ("chainpetri.net", "PlaceTransitionNet", "save_snapshot", "span"),
    ("chainpetri.net", None, "load_snapshot", "span"),
    ("chainpetri.net", "SparseIncidence", "column_entries", "count"),
    ("chainpetri.net", "SparseIncidence", "row_entries", "count"),
    ("chainpetri.entities", None, "compute_entities", "span"),
    ("chainpetri.entities", None, "build_entity_net", "span"),
    ("chainpetri.entities", None, "entity_report", "span"),
    ("chainpetri.entities", None, "cyclic_transitions", "span"),
    ("chainpetri.chains", None, "disposable_addresses", "span"),
    ("chainpetri.chains", None, "disposable_transactions", "span"),
    ("chainpetri.chains", None, "build_chains", "span"),
    ("chainpetri.chains", None, "chain_report", "span"),
    ("chainpetri.analytics", None, "repeated_groups", "span"),
    ("chainpetri.analytics", None, "degree_multiset", "span"),
    ("chainpetri.analytics", None, "ccdf", "span"),
    ("chainpetri.analytics", None, "ccdf_to_csv", "span"),
    ("chainpetri.analytics", None, "summary", "span"),
    ("chainpetri.analytics", None, "top_k_active", "span"),
    ("chainpetri.analytics", None, "repeat_report", "span"),
    ("chainpetri.cli", None, "main", "span"),
]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.entry: float | None = None

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name == "ingest.ingest":
                report, counts = result[1], self.counts
                for key, value in (("ingest.transactions", report.transactions),
                                   ("ingest.rejects", report.rejects)):
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def counter(self, name: str, fn):
        spans, stack = self.spans, self.stack
        tally = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tally[0] += 1
                tally[1] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def install(self):
        import importlib

        for module_name, owner, attr, kind in WRAPPED:
            module = importlib.import_module(module_name)
            name = f"{module_name.removeprefix('chainpetri.')}.{attr}"
            make = self.span if kind == "span" else self.counter
            if owner is not None:
                cls = getattr(module, owner)
                setattr(cls, attr, make(name, getattr(cls, attr)))
                continue
            original = getattr(module, attr)
            wrapper = make(name, original)
            # patch every chainpetri namespace that imported the function by name
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name == "chainpetri" or mod_name.startswith("chainpetri."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"entry": self.entry, "spans": self.spans, "counters": self.counters,
                       "counts": self.counts}, fh)


def launch(argv: list[str]) -> int:
    spans_out, target, args = argv[0], argv[1], argv[2:]
    recorder = Recorder()
    import chainpetri.cli  # noqa: F401  (imports every layer module)

    recorder.install()
    try:
        if target == "cli":
            recorder.entry = time.time()
            return chainpetri.cli.main(args)
        import runpy

        sys.argv = [os.path.join(os.path.dirname(__file__), "libpass.py"), *args]
        try:
            runpy.run_path(sys.argv[0], run_name="__main__")
        except SystemExit as exc:
            return exc.code or 0
        return 0
    finally:
        recorder.dump(spans_out)


# -- summariser ----------------------------------------------------------------


def _durations(doc: dict) -> tuple[dict, dict, dict]:
    """Total seconds and call count per span name, and self seconds per span index."""
    spans = doc["spans"]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = [s[4] for s in spans]
    for name, start, end, parent, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            covered[parent] += end - start
    own = {i: (s[2] - s[1]) - covered[i] for i, s in enumerate(spans)}
    return total, calls, own


def _self_seconds(doc: dict, own: dict, name: str) -> float:
    return sum(own[i] for i, s in enumerate(doc["spans"]) if s[0] == name)


# span totals reported as per-layer seconds: metric -> span names summed
SPAN_SECONDS = {
    "ingest.parse_s": ("ingest.parse_block", "ingest.convert_rawblock"),
    "net.seal_s": ("net.seal",),
    "net.save_snapshot_s": ("net.save_snapshot",),
    "net.load_snapshot_s": ("net.load_snapshot",),
    "entities.compute_entities_s": ("entities.compute_entities",),
    "entities.build_entity_net_s": ("entities.build_entity_net",),
    "entities.entity_report_s": ("entities.entity_report",),
    "entities.cyclic_transitions_s": ("entities.cyclic_transitions",),
    "chains.disposable_addresses_s": ("chains.disposable_addresses",),
    "chains.disposable_transactions_s": ("chains.disposable_transactions",),
    "chains.build_chains_s": ("chains.build_chains",),
    "chains.chain_report_s": ("chains.chain_report",),
    "analytics.repeated_groups_s": ("analytics.repeated_groups",),
    "analytics.degree_ccdf_s": ("analytics.degree_multiset", "analytics.ccdf",
                                "analytics.ccdf_to_csv"),
    "analytics.summary_s": ("analytics.summary",),
    "analytics.top_k_active_s": ("analytics.top_k_active",),
    "analytics.repeat_report_s": ("analytics.repeat_report",),
}
SPAN_CALLS = {
    "net.load_snapshot_calls": "net.load_snapshot",
    "entities.compute_entities_calls": "entities.compute_entities",
}
COUNTERS = {
    "net.record_transaction": ("net.record_transaction_s", "net.record_transaction_calls"),
    "net.column_entries": (None, "net.column_entries_calls"),
    "net.row_entries": (None, "net.row_entries_calls"),
}
COUNTS = ("ingest.transactions", "ingest.rejects")


def layer_metrics(traces: dict, walls: dict, spawn: dict, report_bytes: int) -> dict:
    """Per-layer metrics of one traced workflow round.

    `traces` maps each operation (build, the seven analysis commands, library)
    to its launcher document, `walls` to the process wall time measured by
    the parent and `spawn` to the wall-clock time it was started.  Values are
    summed over every process of the round.
    """
    values = {name: 0.0 for name in SPAN_SECONDS}
    values.update({name: 0 for name in SPAN_CALLS})
    for seconds_name, calls_name in COUNTERS.values():
        if seconds_name:
            values[seconds_name] = 0.0
        values[calls_name] = 0
    values.update({name: 0 for name in COUNTS})
    values.update({"ingest.ingest_self_s": 0.0, "cli.startup_s": 0.0,
                   "cli.build_self_s": 0.0, "cli.analyze_self_s": 0.0})

    for op, doc in traces.items():
        total, calls, own = _durations(doc)
        for metric, names in SPAN_SECONDS.items():
            values[metric] += sum(total.get(n, 0.0) for n in names)
        for metric, name in SPAN_CALLS.items():
            values[metric] += calls.get(name, 0)
        for counter, (seconds_name, calls_name) in COUNTERS.items():
            n, seconds = doc["counters"].get(counter, [0, 0.0])
            values[calls_name] += n
            if seconds_name:
                values[seconds_name] += seconds
        for name in COUNTS:
            values[name] += doc["counts"].get(name, 0)
        values["ingest.ingest_self_s"] += _self_seconds(doc, own, "ingest.ingest")
        if op == "build":
            values["cli.build_self_s"] += _self_seconds(doc, own, "cli.main")
        elif op != "library":
            values["cli.analyze_self_s"] += _self_seconds(doc, own, "cli.main")
            values["cli.startup_s"] += doc["entry"] - spawn[op]
    for op, wall in walls.items():
        if op != "library":
            values[f"cli.{op}_s"] = wall
    values["cli.report_mb"] = report_bytes / 1e6
    return values


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
