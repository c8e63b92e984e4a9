"""Benchmark of `specshare sweep`, run in-process through `specshare.cli.main`.

    python3 specbench/run.py --workload link_sweep --seed 1 --seconds 25 --trace 0

One client in one process runs a closed loop: it generates an operation's
config file and argv from the seed, runs the sweep, then checks its CSV. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` every
second operation runs with each layer wrapped (see layers.py) and the run
reports per-layer metrics, taking quadrature counts from the warm-up
operation, whose input does not depend on the seed. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count CSV rows. Everything generated (configs, argv, CSVs, timings,
machine, spans) is written under ``specbench/runs/`` so any run can be
replayed. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_LAUNCHES = 10  # timed interpreter launches per run

if not (SRC / "specshare" / "cli.py").is_file():
    sys.exit(f"specshare sources not found in {SRC}")
sys.path.insert(0, str(SRC))

import scipy  # noqa: E402
from specshare import cli  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

if Path(cli.__file__).resolve().parent != SRC / "specshare":
    sys.exit(f"imported specshare from {cli.__file__}, not from {SRC}")


def setup_seconds() -> tuple[float, list[float]]:
    """Median wall time from a fresh interpreter to `import specshare.cli` done.

    This process has already imported the same files, so the file cache is warm.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import specshare.cli"]
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        subprocess.run(command, env=env, check=True, cwd=ROOT)
        samples.append(perf_counter() - start)
    return statistics.median(samples), samples


def machine() -> dict:
    worker_count = getattr(cli, "_worker_count", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "sweep_workers": worker_count() if worker_count else None,
        "SPECSHARE_THREADS": os.environ.get("SPECSHARE_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_op(op: workloads.Op, op_dir: Path, name: str, tracer=None, op_id: int = 0) -> dict:
    """Write the op's config, run the sweep in-process, return timing and CSV.

    The argv names its files relative to the repository root, which must be
    the working directory.
    """
    config = op_dir / f"{name}.cfg"
    out = op_dir / f"{name}.csv"
    config.write_text(op.config_text(), encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = op.argv(str(config.relative_to(ROOT)), str(out.relative_to(ROOT)))
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = perf_counter()
        try:
            status = tracer.run_op(op_id, cli.main, argv) if tracer else cli.main(argv)
        except (Exception, SystemExit):  # the op failed; the run goes on
            status = traceback.format_exc()
        seconds = perf_counter() - start
    return {"argv": argv, "seconds": seconds, "status": status,
            "csv": out.read_text(encoding="utf-8") if out.exists() else None,
            "log": log.getvalue()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = RUNS / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    op_dir = run_dir / "ops"
    op_dir.mkdir(parents=True)

    reference = check.load_reference(workload)
    schedule = workloads.schedule(workload, seed)
    setup = None if trace else setup_seconds()
    # traced, the warm-up counts quadrature work on a fixed input; nothing is cached yet
    counter = layers.Tracer(count_evals=True) if trace else None
    warm = run_op(workloads.warmup_op(workload), op_dir, "warmup", counter, -1)
    if warm["status"] != 0:
        raise RuntimeError(f"warm-up operation failed: {warm['status']}\n{warm['log']}")

    tracer = layers.Tracer() if trace else None
    records = []
    deadline = perf_counter() + seconds
    for k, op in enumerate(schedule):
        if perf_counter() >= deadline and len(records) >= (2 if trace else 1):
            break
        traced = trace and k % 2 == 1
        done = run_op(op, op_dir, f"op{k:04d}", tracer if traced else None, k)
        result = check.check_csv(op, done["csv"],
                                 reference[op.index] if op.index < len(reference) else None)
        records.append({
            "k": k, "catalog_index": op.index, "digest": op.digest(), "argv": done["argv"],
            "traced": traced, "seconds": done["seconds"], "status": done["status"],
            "rows": result.rows, "failed_rows": result.failed_rows,
            "points": op.steps, "good_points": result.good_points,
            "problems": result.problems, "log": done["log"],
        })
    else:
        print(f"# catalog of {len(schedule)} operations exhausted before the time was up")

    untraced = [r["seconds"] for r in records if not r["traced"]]
    attempted = sum(r["rows"] for r in records)
    failed = sum(r["failed_rows"] for r in records)
    if trace:
        traced_s = [r["seconds"] for r in records if r["traced"]]
        overhead = statistics.median(traced_s) - statistics.median(untraced)
        metrics = layers.layer_metrics(tracer.spans, counter.spans, overhead)
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        tracer.write(run_dir / "spans.jsonl")
        counter.write(run_dir / "warmup_spans.jsonl")
    else:
        metrics = {
            "setup_s": setup[0],
            "op_s.p50": statistics.median(untraced),
            "op_s.p90": float(np.percentile(untraced, 90)),
            "points_per_s": sum(r["good_points"] for r in records) / sum(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

    props = [workloads.catalog_op(workload, r["catalog_index"]).properties() for r in records]
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(),
        "input_properties": {key: statistics.fmean(p[key] for p in props) for key in props[0]},
        "operations": len(records), "operations_traced": sum(r["traced"] for r in records),
        "error_frac": failed / attempted,
        "setup_samples_s": setup[1] if setup else None,
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(run_dir / "run.json", "w", encoding="utf-8") as fh:
        json.dump({**summary, "result": result, "ops": records}, fh, indent=1)
    print("# " + json.dumps(summary))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
