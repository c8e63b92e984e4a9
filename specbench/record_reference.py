"""Record the analytic column of every catalog operation into reference/.

    python3 specbench/record_reference.py link_sweep traffic_sweep mc_sweep

The references were recorded once, at the commit that introduced the
benchmark, and the benchmark holds later commits to them. Re-record only when
the generator changes, and say why in CHANGES.md: re-recording after a change
to the program would hide any drift it caused.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import run  # puts the program under test on sys.path
import check
import workloads


def record(workload: str) -> None:
    entries = []
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        for index in range(workloads.WORKLOADS[workload].catalog_size):
            op = workloads.catalog_op(workload, index)
            done = run.run_op(op, Path(tmp), "op")
            values = check.read_analytic(done["csv"] or "")
            if (done["status"] != 0 or len(values) != op.rows()
                    or not all(math.isfinite(v) for v in values)):
                sys.exit(f"{workload}[{index}] did not run cleanly: "
                         f"{done['status']}\n{done['log']}")
            entries.append({"digest": op.digest(),
                            "analytic": [float(f"{v:.12g}") for v in values]})
    document = {"workload": workload, "machine": run.machine(), "ops": entries}
    path = check.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{workload}: {len(entries)} operations -> {path}")


if __name__ == "__main__":
    os.chdir(run.ROOT)
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        record(name)
