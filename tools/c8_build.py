"""Time the `chainpetri` workflow on the acceptance criterion-8 ledger.

usage: python3 tools/c8_build.py WORKDIR [--runs N] [--mode lax|strict] [--scale S]
       python3 tools/c8_build.py WORKDIR --snapshot PATH

Writes the criterion-8 generator config (seed 8, 1,005,000 transactions and
about 1,209,000 addresses at scale 1) to WORKDIR, runs `chainpetri synth`
once into WORKDIR/blocks, runs `chainpetri build` on those blocks N times,
then runs the commands of `ANALYSES` in turn on the snapshot N times over,
each command in its own child process; a peak moves by up to about 1 MB
with heap layout, so one run of a command says little.  With `--snapshot
PATH` it runs only the analyses, on that existing snapshot.  It prints one
JSON line for the synth run, then one for each build, then one for each
analysis run: the wall seconds, the child's CPU seconds (user plus system)
and its peak RSS in MB of 10**6 bytes, as `bench/run.py` reports it, both
from `os.wait4`, then for synth the sha256 over its block files in height
order and `ground_truth.json`, for a build the sha256 of the snapshot and
of its report, and for an analysis the sha256 over the files of its output
directory in name order.  An analysis writes to a
directory of WORKDIR named by its words without dashes (`stats --level
entity` to WORKDIR/stats_level_entity); `repeats` and `top`, which print
their result, write it to `stdout.json` there.  Every command runs with
`--no-timestamp`.  The children import chainpetri from the `src/` directory
beside this script; this process imports neither chainpetri nor numpy, so
its own size does not reach the children's peaks.  `--scale` multiplies
the counts of planted structures and fillers, for quick runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the ledger of acceptance criterion 8; tests/test_acceptance.py reads it from here
C8_CONFIG = {
    "entity_sizes": [4] * 1000,
    "chain_lengths": [3] * 50_000,
    "repeat_group_sizes": [3] * 500,
    "fillers": 375_000,
    "addresses_per_filler": 1,
    "block_size": 5000,
}
SEED = 8

# the analysis half of the workflow, run in turn on the last snapshot once per run
ANALYSES = (
    ("entities",),
    ("chains",),
    ("stats", "--level", "address"),
    ("stats", "--level", "entity"),
    ("repeats", "--level", "address"),
    ("repeats", "--level", "entity"),
    ("top", "--k", "10"),
)
# the commands that print their result instead of writing it under --out
PRINTING = ("repeats", "top")


def scaled_config(scale: float) -> dict:
    config = dict(C8_CONFIG)
    for key in ("entity_sizes", "chain_lengths", "repeat_group_sizes"):
        values = config[key]
        config[key] = values[:1] * max(1, round(len(values) * scale))
    config["fillers"] = max(1, round(config["fillers"] * scale))
    return config


def chainpetri(*args: str, stdout=None):
    """Run one chainpetri command in a child, its stdout to `stdout` if given;
    returns its wall and CPU seconds and peak RSS in MB (`ru_maxrss` is in KiB)
    as JSON fields, and fails on a non-zero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "chainpetri.cli", "--no-timestamp", *args],
                             env=env, stdout=stdout)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    # reaped here, so tell the Popen object it is done
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"chainpetri {args[0]} exited with {child.returncode}")
    return {"wall_s": round(wall, 3), "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss * 1024 / 1e6, 2)}


def sha256(*paths: str) -> str:
    """The sha256 of the files' bytes, read in turn."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def synth_files(directory: str) -> list[str]:
    """What `synth` wrote: its block files in height order, then the ground truth."""
    heights = sorted(int(name[6:-5]) for name in os.listdir(directory)
                     if name.startswith("block_") and name.endswith(".json"))
    return [os.path.join(directory, f"block_{height}.json") for height in heights] + [
        os.path.join(directory, "ground_truth.json")]


def analyse(snapshot: str, command: tuple[str, ...], out: str):
    """Run one analysis command on the snapshot, its output in directory `out`;
    returns what `chainpetri` returns."""
    if command[0] not in PRINTING:
        return chainpetri(*command, snapshot, "--out", out)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "stdout.json"), "wb") as fh:
        return chainpetri(*command, snapshot, stdout=fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--mode", choices=["lax", "strict"], default="lax")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--snapshot", help="skip synth and build; analyse this snapshot")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    snapshot = args.snapshot or os.path.join(args.workdir, "net.snap")
    if not args.snapshot:
        build(args, snapshot)
    for number in range(args.runs):
        for command in ANALYSES:
            out = os.path.join(args.workdir, "_".join(word.lstrip("-") for word in command))
            run = analyse(snapshot, command, out)
            files = [os.path.join(out, name) for name in sorted(os.listdir(out))]
            print(json.dumps({"run": number, "command": " ".join(command), **run,
                              "sha256": sha256(*files)}), flush=True)
    return 0


def build(args, snapshot: str):
    """Synth the ledger once into WORKDIR/blocks, then build `snapshot` from it
    `args.runs` times, printing a line for each."""
    config = os.path.join(args.workdir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(scaled_config(args.scale), fh)
    blocks = os.path.join(args.workdir, "blocks")
    run = chainpetri("synth", "--config", config, "--seed", str(SEED), "--out", blocks)
    print(json.dumps({"command": "synth", **run, "sha256": sha256(*synth_files(blocks))}),
          flush=True)
    for number in range(args.runs):
        run = chainpetri("build", blocks, "--mode", args.mode, "--out", snapshot)
        print(json.dumps({"run": number, "mode": args.mode, **run,
                          "snapshot_sha256": sha256(snapshot),
                          "report_sha256": sha256(f"{snapshot}.report.json")}), flush=True)


if __name__ == "__main__":
    sys.exit(main())
