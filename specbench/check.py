"""Correctness checks for the CSV of one sweep operation.

* Analytic cells match the reference recorded from the seed commit for the
  same inputs, to a relative 1e-6.
* Outage Monte Carlo cells lie within 5 binomial standard errors of the
  closed form.
* Queue cells are finite and count exactly the post-warmup packets.

Nothing here is widened to hide a known defect: the queue confidence
intervals are not checked for coverage (they are known to be optimistic), and
an error row, such as a quadrature failure, always fails.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import OUTAGE_METRICS, Op

CSV_HEADER = "variable,value,metric,mode,analytic,sim_mean,sim_ci_lo,sim_ci_hi,n"
ANALYTIC_RTOL = 1e-6
OUTAGE_SE_LIMIT = 5.0
QUEUE_WARMUP_FRAC = 0.1  # run_mg1_detailed's default, used by `specshare sweep`
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class CheckResult:
    rows: int          # rows attempted
    failed_rows: int   # error rows plus rows failing a check
    good_points: int   # grid points all of whose rows passed
    problems: list[str] = field(default_factory=list)  # the first few, for the log

    @classmethod
    def all_failed(cls, op: Op, why: str) -> "CheckResult":
        return cls(op.rows(), op.rows(), 0, [why])


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> list[dict]:
    """Per catalog index: the op digest and its analytic column."""
    return json.loads(reference_path(workload).read_text())["ops"]


def queue_samples(packets: int) -> int:
    """Post-warmup packet count of one simulated queue run."""
    if packets == 0:
        return 0
    return packets - min(int(round(QUEUE_WARMUP_FRAC * packets)), packets - 1)


def read_analytic(csv_text: str) -> list[float]:
    return [float(row[4]) for row in csv.reader(csv_text.splitlines()[1:])]


def _check_row(op: Op, row: list[str], value: float, metric: str, mode: str,
               expected: float) -> str | None:
    if len(row) != 9:
        return f"{len(row)} columns"
    variable, grid_value, row_metric, row_mode, analytic, mean, lo, hi, n = row
    if (variable, row_metric, row_mode) != (op.variable, metric, mode):
        return f"unexpected row {variable},{row_metric},{row_mode}"
    if not math.isclose(float(grid_value), value, rel_tol=1e-9, abs_tol=1e-12):
        return f"grid value {grid_value}, expected {value!r}"
    got = float(analytic)
    if not math.isfinite(got):
        return "error row"
    if abs(got - expected) > ANALYTIC_RTOL * abs(expected):
        return f"analytic {got!r} differs from the reference {expected!r}"

    outage = metric in OUTAGE_METRICS
    samples = op.trials if outage else queue_samples(op.packets)
    if samples == 0:
        if (mean, lo, hi, n) != ("", "", "", "0"):
            return "simulation cells on an analytic-only row"
        return None
    if n != str(samples):
        return f"n = {n}, expected {samples}"
    try:
        sim = [float(mean), float(lo), float(hi)]
    except ValueError:
        return "missing simulation cells"
    if not all(math.isfinite(x) for x in sim):
        return "non-finite simulation cell"
    if outage:
        se = math.sqrt(expected * (1.0 - expected) / samples)
        if abs(sim[0] - expected) > OUTAGE_SE_LIMIT * se:
            return (f"outage estimate {sim[0]!r} is {abs(sim[0] - expected) / se:.1f} se "
                    f"from the closed form {expected!r}")
    return None


def check_csv(op: Op, csv_text: str | None, reference: dict | None) -> CheckResult:
    """Check every row of an op's CSV; `reference` is its catalog entry."""
    if csv_text is None:
        return CheckResult.all_failed(op, "no CSV written")
    if reference is None or reference["digest"] != op.digest():
        return CheckResult.all_failed(op, "no reference recorded for these inputs")
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return CheckResult.all_failed(op, "missing or wrong CSV header")
    rows = list(csv.reader(lines[1:]))
    if len(rows) != op.rows():
        return CheckResult.all_failed(op, f"{len(rows)} rows, expected {op.rows()}")

    result = CheckResult(op.rows(), 0, 0)
    expected = iter(reference["analytic"])
    k = 0
    for value, keys in zip(op.grid(), op.expected_keys()):
        point_ok = True
        for metric, mode in keys:
            problem = _check_row(op, rows[k], value, metric, mode, next(expected))
            k += 1
            if problem:
                point_ok = False
                result.failed_rows += 1
                if len(result.problems) < 5:
                    result.problems.append(f"row {k}: {problem}")
        result.good_points += point_ok
    return result
