"""Seeded workload generator for the specshare sweep benchmark.

Every workload has a fixed catalog of operations. Catalog entry ``j`` of a
workload is generated from the string ``"<workload>:<j>"`` alone, so the same
entry always produces the same config file and argv, and the analytic cells of
its CSV can be compared with a reference recorded once (``reference/``). A
run's ``--seed`` fixes the order in which the catalog is visited; a run visits
each entry at most once. Every entry draws its own base scenario near the
README defaults, so no moment-cache entry carries from one operation to the
next.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import numpy as np

ALL_MODES = ("shared", "proprietary", "combined")
ALL_METRICS = ("outage_no_sharing", "outage_sharing", "mean_delay", "jitter")
DELAY_METRICS = ("mean_delay", "jitter")
OUTAGE_METRICS = ("outage_no_sharing", "outage_sharing")

# sweep variables whose value changes the link budget (and so the moments)
LINK_BUDGET_VARIABLES = ("P_m_shared", "lambda_mu", "lambda_h", "P_h")
# sweep variables given in dBm
POWER_VARIABLES = {"P_m_shared": "P_m_shared_dbm", "P_h": "P_h_dbm"}
PLAIN_VARIABLES = {"lambda_mu": "lambda_mu_per_m2", "lambda_h": "lambda_h_per_m2",
                   "lambda_md": "lambda_md_per_s"}

# radius of the Monte Carlo interferer disk; README default, never overridden
MC_RADIUS_M = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    catalog_size: int   # operations a run can visit before the catalog is exhausted
    variables: tuple[str, ...]
    steps: int
    metrics: tuple[str, ...]
    trials: int = 0
    packets: int = 0


# Why each workload exists: BENCHMARK.json and README.md. Sizes:
# traffic_sweep uses the README's `--steps 10`, so a moment cache keyed on the
# link budget could reach 9 hits in 10; mc_sweep uses 4 points, which keeps
# every worker of the default pool (min(4, cpus)) busy. A link_sweep point
# costs the same however long the sweep is, since no moment can be reused and
# the analytic sweeps gain nothing from threads, so its sweeps are kept at 4
# points to get more operations per run.
WORKLOADS = {
    w.name: w for w in (
        Workload("link_sweep", catalog_size=150, variables=LINK_BUDGET_VARIABLES,
                 steps=4, metrics=ALL_METRICS),
        Workload("traffic_sweep", catalog_size=80, variables=("lambda_md",),
                 steps=10, metrics=DELAY_METRICS),
        Workload("mc_sweep", catalog_size=100, variables=("P_h", "lambda_h"),
                 steps=4, metrics=ALL_METRICS, trials=20_000, packets=20_000),
    )
}


@dataclass(frozen=True)
class Op:
    """One `specshare sweep` invocation: a base scenario plus sweep flags."""

    index: int                          # catalog index; -1 for the warm-up op
    config: tuple[tuple[str, float], ...]  # config-file key, value
    variable: str
    start: float
    stop: float
    steps: int
    metrics: tuple[str, ...]
    modes: tuple[str, ...]
    trials: int
    packets: int

    def config_text(self) -> str:
        return "".join(f"{key} = {value!r}\n" for key, value in self.config)

    def sweep_args(self) -> list[str]:
        """The sweep flags, without the file paths."""
        args = ["--var", self.variable, "--from", repr(self.start),
                "--to", repr(self.stop), "--steps", str(self.steps)]
        for metric in self.metrics:
            args += ["--metric", metric]
        for mode in self.modes:
            args += ["--mode", mode]
        if self.trials:
            args += ["--trials", str(self.trials)]
        if self.packets:
            args += ["--packets", str(self.packets)]
        return args

    def argv(self, config_path: str, out_path: str) -> list[str]:
        return ["sweep", "--config", config_path, *self.sweep_args(), "--out", out_path]

    def digest(self) -> str:
        """Hash of everything that determines the op's output."""
        text = self.config_text() + json.dumps(self.sweep_args())
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def grid(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]

    def expected_keys(self) -> list[list[tuple[str, str]]]:
        """(metric, mode) of every CSV row, grouped by grid point, in CSV order."""
        point = []
        for metric in self.metrics:
            if metric in OUTAGE_METRICS:
                point.append((metric, ""))
            else:
                point.extend((metric, mode) for mode in self.modes)
        return [point] * self.steps

    def rows(self) -> int:
        return sum(len(p) for p in self.expected_keys())

    def properties(self) -> dict:
        """Input properties the program's behaviour depends on."""
        config = dict(self.config)
        densities = (self.grid() if self.variable == "lambda_h"
                     else [config["lambda_h_per_m2"]] * self.steps)
        field_points = [d * math.pi * MC_RADIUS_M ** 2 for d in densities]
        return {
            "points": self.steps,
            "distinct_link_budgets": (self.steps if self.variable in LINK_BUDGET_VARIABLES
                                      else 1),
            "trials_per_point": self.trials,
            "packets_per_point": self.packets,
            "field_points_per_trial": sum(field_points) / len(field_points),
        }


def _base_config(r: random.Random) -> dict[str, float]:
    """A scenario near the README defaults; every queue stays below load 0.6."""
    return {
        "P_h_dbm": r.uniform(23.0, 25.0),
        "P_m_dbm": r.uniform(23.0, 25.0),
        "P_m_shared_dbm": r.uniform(23.0, 25.0),
        "x0_m": r.uniform(9.0, 11.0),
        "y0_m": r.uniform(9.0, 11.0),
        "alpha": r.uniform(3.8, 4.2),
        "U_m_bytes": r.uniform(36.0, 44.0),
        "t_out_s": r.uniform(0.009, 0.011),
        "lambda_h_per_m2": r.uniform(0.9e-4, 1.1e-4),
        "lambda_md_per_s": r.uniform(60.0, 90.0),
        "lambda_mu_per_m2": r.uniform(0.009, 0.011),
        "theta_h": r.uniform(0.009, 0.011),
        "seed": r.randrange(2 ** 31),
    }


def _sweep_range(variable: str, config: dict[str, float]) -> tuple[float, float]:
    if variable in POWER_VARIABLES:
        centre = config[POWER_VARIABLES[variable]]
        return centre - 1.5, centre + 1.5
    centre = config[PLAIN_VARIABLES[variable]]
    if variable == "lambda_md":
        return 0.5 * centre, centre
    return 0.85 * centre, 1.15 * centre


def _make_op(workload: Workload, index: int, config: dict[str, float],
             variable: str) -> Op:
    start, stop = _sweep_range(variable, config)
    return Op(index, tuple(config.items()), variable, start, stop,
              workload.steps, workload.metrics, ALL_MODES,
              workload.trials, workload.packets)


def catalog_op(workload_name: str, index: int) -> Op:
    """Catalog entry `index` of a workload; depends on nothing else."""
    workload = WORKLOADS[workload_name]
    if not 0 <= index < workload.catalog_size:
        raise IndexError(f"{workload_name} catalog has {workload.catalog_size} entries")
    r = random.Random(f"{workload_name}:{index}")
    config = _base_config(r)
    return _make_op(workload, index, config, r.choice(workload.variables))


def warmup_op(workload_name: str) -> Op:
    """The workload's op shape on the README default scenario (not in the catalog)."""
    workload = WORKLOADS[workload_name]
    config = {"P_h_dbm": 24.0, "P_m_shared_dbm": 24.0, "lambda_h_per_m2": 1e-4,
              "lambda_md_per_s": 100.0, "lambda_mu_per_m2": 0.01, "seed": 0}
    return _make_op(workload, -1, config, workload.variables[0])


def schedule(workload_name: str, seed: int) -> list[Op]:
    """Every catalog op once, in an order fixed by the seed."""
    workload = WORKLOADS[workload_name]
    order = random.Random(f"{workload_name}/{seed}").sample(
        range(workload.catalog_size), workload.catalog_size)
    return [catalog_op(workload_name, j) for j in order]
