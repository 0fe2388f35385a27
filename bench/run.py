"""Benchmark of chainpetri's build-once, analyse-many workflow.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The workload's inputs and expected
results are generated once per seed into bench/.cache; outputs go to
bench/.work.  A round runs, one process per command as users run them:

    build -> entities -> chains -> stats (address, entity)
          -> repeats (address, entity) -> top

and then one in-process pass over the library API (libpass.py).  Rounds
repeat until S seconds have passed.  The first round checks every output
against the expected results; later rounds must reproduce those outputs byte
for byte.  With --trace 0 the last line of standard output is a JSON object
of the end-to-end metrics, medians over the rounds; with --trace 1 traced and
untraced rounds alternate and it holds the per-layer metrics of the traced
rounds and the tracing overhead.
An operation is one command or the library pass; it fails on a non-zero exit
or an output that does not match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import expected
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
WORK = BENCH / ".work"
KEEP_CACHED = 12  # generated seeds kept per workload

ANALYSES = ("entities", "chains", "stats_address", "stats_entity",
            "repeats_address", "repeats_entity", "top")
OPERATIONS = ("build", *ANALYSES, "library")
# The library pass is one short interval, so single samples of it spread
# most; untraced rounds run it this many times.
LIBRARY_RUNS = 3


def prepare(workload: str, seed: int, scale: float = 1.0) -> tuple[Path, dict]:
    """Generate the workload's inputs and expected results unless cached."""
    size = "" if scale == 1 else f"-x{scale:g}"
    final = CACHE / f"{workload}-seed{seed}{size}-gen{workloads.GENERATOR_VERSION}"
    if not (final / "meta.json").is_file():
        tmp = CACHE / f".partial-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        ledger = workloads.generate(workload, seed, scale)
        inputs = workloads.write_inputs(ledger, str(tmp), seed)
        with open(tmp / "expected.json", "w", encoding="utf-8") as fh:
            json.dump(expected.expected_results(ledger), fh)
        meta = {"format": ledger.fmt, "mode": ledger.mode, "inputs": inputs,
                "planted": ledger.planted}
        with open(tmp / "meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        _prune(workload, keep=final)
    with open(final / "meta.json", "r", encoding="utf-8") as fh:
        return final, json.load(fh)


def _prune(workload: str, keep: Path):
    cached = sorted(CACHE.glob(f"{workload}-seed*"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-KEEP_CACHED]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


class Workflow:
    """The operations of one round, their command lines and their outputs."""

    def __init__(self, data: Path, meta: dict, work: Path):
        self.work = work
        self.snapshot = str(work / "net.json")
        inputs = [str(data / name) for name in meta["inputs"]]
        fmt, mode = meta["format"], meta["mode"]
        snap = self.snapshot
        # (arguments, output checked, files digested); standard output of
        # each operation goes to stdout(op)
        self.ops = {
            "build": (["build", *inputs, "--format", fmt, "--mode", mode, "--out", snap],
                      f"{snap}.report.json", [f"{snap}.report.json"]),
            "entities": (["entities", snap, "--out", self._dir("entities")],
                         self._dir("entities"), [self._dir("entities", "entities.json")]),
            "chains": (["chains", snap, "--out", self._dir("chains")], self._dir("chains"),
                       [self._dir("chains", "chains.json"),
                        self._dir("chains", "chains_totals.json")]),
            "top": (["top", snap, "--k", str(expected.TOP_K)], self.stdout("top"),
                    [self.stdout("top")]),
            "library": (["--format", fmt, "--mode", mode, "--results",
                         str(work / "library.json"), *inputs],
                        str(work / "library.json"), [str(work / "library.json")]),
        }
        for level in ("address", "entity"):
            out = self._dir(f"stats_{level}")
            self.ops[f"stats_{level}"] = (
                ["stats", snap, "--level", level, "--out", out], out,
                [os.path.join(out, n) for n in
                 ("summary.json", "ccdf_pre.csv", "ccdf_post.csv", "ccdf_both.csv")])
            self.ops[f"repeats_{level}"] = (
                ["repeats", snap, "--level", level], self.stdout(f"repeats_{level}"),
                [self.stdout(f"repeats_{level}")])

    def _dir(self, name: str, *rest: str) -> str:
        return str(self.work.joinpath(name, *rest))

    def stdout(self, op: str) -> str:
        return str(self.work / f"{op}.out")

    def argv(self, op: str, traced: bool) -> list[str]:
        if traced:
            prefix = [sys.executable, str(BENCH / "tracer.py"), self.spans(op),
                      "lib" if op == "library" else "cli"]
        elif op == "library":
            prefix = [sys.executable, str(BENCH / "libpass.py")]
        else:
            prefix = [sys.executable, "-m", "chainpetri.cli"]
        args = self.ops[op][0]
        return prefix + (args if op == "library" else ["--no-timestamp", *args])

    def spans(self, op: str) -> str:
        return str(self.work / f"{op}.spans.json")

    def clear(self, op: str):
        for path in [*self.ops[op][2], self.spans(op)]:
            if os.path.exists(path):
                os.remove(path)
        if op == "build" and os.path.exists(self.snapshot):
            os.remove(self.snapshot)

    def digest(self, op: str) -> str | None:
        h = hashlib.sha256()
        for path in self.ops[op][2]:
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                return None
        return h.hexdigest()

    def report_bytes(self) -> int:
        return sum(os.path.getsize(p) for op in ANALYSES for p in self.ops[op][2])


class Spawner:
    """Runs child processes through spawner.py, so their peak RSS is their own."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str], stdout: str, stderr: str) -> tuple:
        """Wall seconds, own peak RSS in KiB, exit code and wall-clock start of one child."""
        self.proc.stdin.write(json.dumps([argv, stdout, stderr]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        return tuple(json.loads(line))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Bench:
    def __init__(self, workload: str, seed: int, scale: float, spawner: Spawner):
        self.spawner = spawner
        self.data, meta = prepare(workload, seed, scale)
        work = WORK / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.flow = Workflow(self.data, meta, work)
        self.expected = None  # loaded for the first round's checks
        self.reference: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exited 0 with an output that does not match

    def round(self, traced: bool = False) -> dict:
        """Run every operation once; returns each operation's measurements.

        An untraced round runs the library pass LIBRARY_RUNS times.
        """
        flow = self.flow
        result = {op: [] for op in OPERATIONS}
        for op in OPERATIONS + (() if traced else ("library",) * (LIBRARY_RUNS - 1)):
            flow.clear(op)
            out = flow.stdout(op)
            wall, rss_kb, code, spawned = self.spawner.run(
                flow.argv(op, traced), out, str(flow.work / f"{op}.err"))
            self.attempted += 1
            ok = code == 0 and self._verify(op)
            if not ok:
                self.failed += 1
                self.wrong += code == 0
                _log(f"{op} failed (exit {code}); see {flow.work / (op + '.err')}")
            measured = {"wall": wall, "rss_mb": rss_kb * 1024 / 1e6, "spawned": spawned}
            if op == "build":
                measured["snapshot_mb"] = os.path.getsize(flow.snapshot) / 1e6 if ok else 0.0
            if op == "library":
                measured["library_s"] = wall
                if ok:
                    with open(out, "r", encoding="utf-8") as fh:
                        measured["library_s"] = json.loads(fh.read().splitlines()[-1])["library_s"]
            result[op].append(measured)
        return result

    def _verify(self, op: str) -> bool:
        digest = self.flow.digest(op)
        if op not in self.reference:
            problems = self._check(op)
            for problem in problems[:5]:
                _log(f"{op}: {problem}")
            self.reference[op] = digest if not problems else None
        return digest is not None and digest == self.reference[op]

    def _check(self, op: str) -> list[str]:
        if self.expected is None:
            with open(self.data / "expected.json", "r", encoding="utf-8") as fh:
                self.expected = json.load(fh)
        out = self.flow.ops[op][1]
        if op == "library":
            try:
                with open(out, "r", encoding="utf-8") as fh:
                    return checks.check_library(json.load(fh), self.expected)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return [f"unreadable results: {exc!r}"]
        return checks.check_cli_output(op, out, self.expected)


def _log(message: str):
    print(message, file=sys.stderr, flush=True)


def samples(rounds: list[dict], op: str, key: str = "wall") -> list[float]:
    return [m[key] for r in rounds for m in r[op]]


def end_to_end(rounds: list[dict]) -> dict:
    median = statistics.median
    values = {
        "setup_s": (median(samples(rounds, "build")), "s"),
        # each command's median, summed, so that one slow command in one
        # round moves the figure less than a median of round sums would
        "analyze_s": (sum(median(samples(rounds, op)) for op in ANALYSES), "s"),
        "library_s": (median(samples(rounds, "library", "library_s")), "s"),
        "setup_peak_rss_mb": (median(samples(rounds, "build", "rss_mb")), "MB"),
        "analyze_peak_rss_mb": (
            median([max(r[op][0]["rss_mb"] for op in ANALYSES) for r in rounds]), "MB"),
        "library_peak_rss_mb": (median(samples(rounds, "library", "rss_mb")), "MB"),
        "snapshot_mb": (median(samples(rounds, "build", "snapshot_mb")), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_round(bench: Bench, measured: dict) -> dict:
    """Per-layer metrics of the traced round just run."""
    docs = {}
    for op in OPERATIONS:
        try:
            with open(bench.flow.spans(op), "r", encoding="utf-8") as fh:
                docs[op] = json.load(fh)
        except FileNotFoundError:  # the process died before writing; counted as failed
            docs[op] = {"entry": measured[op][0]["spawned"], "spans": [], "counters": {},
                        "counts": {}}
    walls = {op: measured[op][0]["wall"] for op in OPERATIONS}
    spawn = {op: measured[op][0]["spawned"] for op in OPERATIONS}
    return tracer.layer_metrics(docs, walls, spawn, bench.flow.report_bytes())


def per_layer(layers: list[dict], traced: list[dict], plain: list[dict]) -> dict:
    metrics = {}
    for name in layers[0]:
        unit = "count" if name.endswith(("_calls", "transactions", "rejects")) else (
            "MB" if name.endswith("_mb") else "s")
        metrics[name] = {"value": statistics.median([r[name] for r in layers]), "unit": unit}

    def total(r):  # one run of each operation, in both kinds of round
        return sum(r[op][0]["wall"] for op in OPERATIONS)

    untraced = statistics.median(map(total, plain))
    with_trace = statistics.median(map(total, traced))
    metrics["trace.overhead_s"] = {"value": with_trace - untraced, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100 * (with_trace - untraced) / untraced,
                                     "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chainpetri workflow benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's size (reference runs at other sizes)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chainpetri" / "cli.py").is_file():
        _log(f"no chainpetri sources under {ROOT / 'src'}; run from a source tree")
        return 2

    # started first, while this process is still small
    spawner = Spawner({**os.environ, "PYTHONPATH": str(ROOT / "src")})
    try:
        return measure(args, spawner)
    finally:
        spawner.close()


def measure(args, spawner: Spawner) -> int:
    started = time.perf_counter()
    bench = Bench(args.workload, args.seed, args.scale, spawner)
    _log(f"inputs ready in {time.perf_counter() - started:.1f} s: {bench.data.name}")
    # load the interpreter and the package once before timing; the first
    # round checks every output and is timed like the others
    warm = str(bench.flow.work / "warm.out")
    spawner.run([sys.executable, "-c", "import chainpetri.cli"], warm, warm)
    plain, traced, layers = [], [], []
    clock = time.perf_counter()
    while not plain or time.perf_counter() - clock < args.seconds:
        plain.append(bench.round())
        if args.trace:
            traced.append(bench.round(traced=True))
            layers.append(layer_round(bench, traced[-1]))
    _log(f"{len(plain)} rounds{' + as many traced' if args.trace else ''}, "
         f"{bench.failed}/{bench.attempted} operations failed")

    if args.trace:
        metrics = per_layer(layers, traced, plain)
    else:
        metrics = end_to_end(plain)
        _log(f"setup_s samples: {[round(v, 3) for v in samples(plain, 'build')]}")
        _log("analyze_s per round: "
             f"{[round(sum(r[op][0]['wall'] for op in ANALYSES), 3) for r in plain]}")
        _log(f"library_s samples: {[round(v, 3) for v in samples(plain, 'library', 'library_s')]}")
    print(json.dumps({"correct": bench.wrong == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
