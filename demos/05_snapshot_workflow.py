"""The batch workflow: parse blocks once, snapshot, analyze many times.

Building the net dominates the cost at scale, so the command-line flow is
snapshot-centric: `build` writes a binary snapshot (numpy arrays: the two
name registries and each side's compressed columns), every other command
loads it.  This script drives the same workflow through the CLI entry
point against a generated block directory.
"""

import json
import pathlib
import sys
import tempfile

from chainpetri.cli import main

with tempfile.TemporaryDirectory(prefix="chainpetri-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    print(f"working in {workdir}")

    config_path = workdir / "generator.json"
    config_path.write_text(json.dumps({
        "entity_sizes": [3, 4],
        "chain_lengths": [5, 2],
        "repeat_group_sizes": [3],
        "fillers": 200,
        "addresses_per_filler": 2,
        "block_size": 50,
    }))

    steps = [
        ["synth", "--config", str(config_path), "--seed", "7", "--out", str(workdir / "blocks")],
        ["build", str(workdir / "blocks"), "--mode", "strict", "--out", str(workdir / "net.snap")],
        ["entities", str(workdir / "net.snap"), "--out", str(workdir / "reports")],
        ["chains", str(workdir / "net.snap"), "--out", str(workdir / "reports")],
        ["stats", str(workdir / "net.snap"), "--out", str(workdir / "reports")],
        ["stats", str(workdir / "net.snap"), "--level", "entity", "--out", str(workdir / "entity-reports")],
    ]

    for argv in steps:
        print(f"\n$ chainpetri {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            sys.exit(code)

    print("\nreport files:")
    for path in sorted((workdir / "reports").iterdir()):
        print(f"  {path.name}")

    totals = json.loads((workdir / "reports" / "chains_totals.json").read_text())
    truth = json.loads((workdir / "blocks" / "ground_truth.json").read_text())
    print(f"\nchains found: {totals['chains_total']} "
          f"(planted: {len(truth['planted_chains'])})")

    summary = json.loads((workdir / "reports" / "summary.json").read_text())
    print(f"addresses: {summary['places']}, transactions: {summary['transitions']}")
    print("\nthe snapshot is binary (numpy arrays), the reports plain JSON/CSV;")
    print("rerun any analysis without touching the block files again")
