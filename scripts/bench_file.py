"""Record BENCH_<tag>.json: the benchmark on a parent checkout and on this tree.

    python scripts/bench_file.py --tag pr6 --parent ../specshare-parent --seeds 1 2

Every workload in BENCHMARK.json runs once per seed and side with --trace 0
for the benchmark's run_seconds; which side goes first alternates from seed to
seed, so a drift in the host's speed falls on both sides alike. One --trace 1
run per workload and side, with the first seed, gives the per-layer numbers.
The file holds every result line, the median of each end-to-end metric per
workload and side, the per-layer numbers per workload and side, both commits
and the CPU count.
A run that is not correct or has failed operations stops the script with exit
status 1 and writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit(tree: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def run(side: str, tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line (the last line of stdout) of one benchmark run in `tree`;
    exits with status 1 unless the run is correct with no failed operation."""
    out = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if result["correct"] is not True or result["failed"] > 0:
        sys.exit(f"{workload} seed {seed} trace {trace} on the {side} side: "
                 f"correct={result['correct']}, failed={result['failed']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    commits = {side: commit(tree) for side, tree in sides.items()}  # before any edit

    runs, medians, per_layer = [], {}, {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        for k, seed in enumerate(args.seeds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                result = run(side, sides[side], workload, seed, seconds, 0)
                runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
                print(json.dumps(runs[-1]), flush=True)
        medians[workload] = {side: {m["name"]: statistics.median(
            r["result"]["metrics"][m["name"]]["value"] for r in runs
            if r["workload"] == workload and r["side"] == side)
            for m in benchmark["end_to_end"]} for side in sides}
        per_layer[workload] = {side: {name: value["value"] for name, value in run(
            side, tree, workload, args.seeds[0], seconds, 1)["metrics"].items()}
            for side, tree in sides.items()}

    record = {"tag": args.tag, "nproc": len(os.sched_getaffinity(0)),
              "seconds": seconds, "seeds": args.seeds,
              "commits": commits,
              "medians": medians, "per_layer": per_layer, "runs": runs}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
