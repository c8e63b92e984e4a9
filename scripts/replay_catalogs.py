"""Replay every benchmark catalog operation's analytic cells against the
recorded references.

    python scripts/replay_catalogs.py

Each catalog op of each workload runs in-process through `specshare.cli.main`
without --trials and --packets, which leaves its analytic column as it is and
skips the Monte Carlo. Every analytic cell is compared with
`specbench/reference/<workload>.json`. Per workload it prints the number of
ops and rows, the worst relative deviation and where it is, and the number of
rows beyond the benchmark's 1e-6 gate (an error row counts as beyond). The
benchmark's `workloads.py` and `check.py` are imported, not changed.
Exit status 1 when any row is beyond the gate or any op fails to run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "specbench"))

from specshare import analytic, cli  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def analytic_cells(op: workloads.Op, scratch: Path) -> list[float] | None:
    """The op's analytic column, from a fresh moment cache; None if it wrote no CSV."""
    config, out = scratch / "op.cfg", scratch / "op.csv"
    config.write_text(op.config_text(), encoding="utf-8")
    out.unlink(missing_ok=True)
    analytic_only = dataclasses.replace(op, trials=0, packets=0)
    analytic.truncated_service_moments.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(analytic_only.argv(str(config), str(out)))
    return check.read_analytic(out.read_text(encoding="utf-8")) if out.exists() else None


def replay(workload: str, scratch: Path) -> bool:
    """Print one line for the workload; True when every row is within the gate."""
    start = perf_counter()
    references = check.load_reference(workload)
    ops = workloads.WORKLOADS[workload].catalog_size
    rows = beyond = failed_ops = 0
    worst, where = 0.0, "-"
    for index in range(ops):
        op = workloads.catalog_op(workload, index)
        reference = references[index]
        cells = analytic_cells(op, scratch)
        if reference["digest"] != op.digest() or cells is None \
                or len(cells) != len(reference["analytic"]):
            failed_ops += 1
            continue
        keys = [key for point in op.expected_keys() for key in point]
        for k, (got, expected) in enumerate(zip(cells, reference["analytic"])):
            rows += 1
            deviation = abs(got - expected) / abs(expected) if expected else abs(got)
            if not math.isfinite(deviation) or deviation > check.ANALYTIC_RTOL:
                beyond += 1
            if not deviation <= worst:  # a nan deviation is the worst
                metric, mode = keys[k]
                worst, where = deviation, f"op {index} row {k + 1} {metric}/{mode or '-'}"
    print(f"{workload}: {ops} ops, {rows} rows, worst relative deviation "
          f"{worst:.3g} ({where}), {beyond} rows beyond {check.ANALYTIC_RTOL:g}, "
          f"{failed_ops} ops not replayed, {perf_counter() - start:.1f} s")
    return beyond == 0 and failed_ops == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        results = [replay(workload, Path(scratch)) for workload in workloads.WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
