"""Compare the benchmark's end-to-end metrics of a revision's `src/` and the working tree's.

usage: python3 tools/bench_pair.py REV [--workload W] [--pairs N] [--seconds S] [--seed N]

Peak RSS moves with the checkout path and with heap layout, so both sides run
from one scratch copy of the checkout.  The copy holds `bench/` and
`BENCHMARK.json` as they are, and they must not differ from REV, or the
script refuses with exit code 2.  Its `bench/.cache` is the checkout's own,
so generated inputs are shared.  Before each run, `src/` becomes either
`git archive REV src` or the working tree's `src/`.  Each pair runs
`bench/run.py` once per side, and the side that goes first alternates.  The
script prints one JSON line per run, then one line with the median change in
percent of each end-to-end metric of `BENCHMARK.json`, working tree against
REV, the number of pairs in which the working tree was better, and the
distance between the quartiles of REV's runs in percent of their median
(0 for one pair): a median change inside that spread shows nothing.  A REV
that names no tree of the checkout, or a checkout outside git, exits with
code 3.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("rev", "tree")


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], **kwargs)


def run_side(checkout: Path, tree: Path, args) -> dict:
    """Run `bench/run.py` once in `checkout` with `tree` as its `src/`; returns
    the run's result object."""
    (tree / "src").rename(checkout / "src")
    try:
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds)],
                              cwd=checkout, stdout=subprocess.PIPE, text=True)
    finally:
        (checkout / "src").rename(tree / "src")
    if done.returncode:
        raise SystemExit(f"bench/run.py exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def spread_pct(values: list[float]) -> float:
    """The interquartile range of `values` in percent of their median; 0 for one value."""
    if len(values) < 2:
        return 0.0
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return round(100 * (high - low) / median, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", default="long_chains")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    if git("rev-parse", "--verify", "--quiet", f"{args.rev}^{{tree}}",
           capture_output=True).returncode:
        print(f"{args.rev} names no revision of the git checkout {ROOT}", file=sys.stderr)
        return 3
    paths = ("bench", "BENCHMARK.json")
    differs = git("diff", "--quiet", args.rev, "--", *paths).returncode
    if differs > 1:
        return differs
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *paths,
                    capture_output=True, text=True, check=True).stdout
    if differs or untracked:
        print(f"bench/ or BENCHMARK.json differ from {args.rev}: refusing to compare",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    results = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as scratch:
        checkout, trees = Path(scratch) / "checkout", {side: Path(scratch) / side for side in SIDES}
        shutil.copytree(ROOT / "bench", checkout / "bench",
                        ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", checkout)
        (ROOT / "bench" / ".cache").mkdir(exist_ok=True)
        (checkout / "bench" / ".cache").symlink_to(ROOT / "bench" / ".cache")
        shutil.copytree(ROOT / "src", trees["tree"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees["rev"].mkdir()
        archive = git("archive", args.rev, "src", capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["rev"])], input=archive, check=True)

        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_side(checkout, trees[side], args)
                values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                print(json.dumps({"pair": pair, "side": side, "correct": result["correct"],
                                  "failed": result["failed"], "metrics": values}), flush=True)
                results[side].append(values)

    change, better, spread = {}, {}, {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [(r[name], t[name]) for r, t in zip(results["rev"], results["tree"])]
        change[name] = round(statistics.median(100 * (t / r - 1) for r, t in pairs), 2)
        better[name] = sum(sign * (t - r) > 0 for r, t in pairs)
        spread[name] = spread_pct([r for r, _ in pairs])
    print(json.dumps({"rev": args.rev, "workload": args.workload, "pairs": args.pairs,
                      "median_change_pct": change, "better_pairs": better,
                      "parent_iqr_pct": spread}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
