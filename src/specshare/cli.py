"""Command-line harness: single evaluations, parameter sweeps with CSV
output, and the entry points of the trend checks and the verify suite, which
live in ``specshare.verify``.

Sweep grids are linear in the swept variable, except transmit powers which
sweep linearly in dBm (the value column then holds dBm). Grid points are
evaluated concurrently with per-point seeds derived from the master seed, so
output is byte-identical regardless of worker count; SPECSHARE_THREADS caps
the worker pool.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic, simulate
from .analytic import InfeasiblePowerError, UnstableQueueError
from .model import (
    ScenarioParams,
    ServiceMode,
    ValidationError,
    dbm_to_watts,
    parse_config,
    validate,
    with_updates,
)
from .quadrature import QuadratureError

SWEEP_VARIABLES = ("P_h", "lambda_h", "P_m_shared", "epsilon", "lambda_md", "lambda_mu")
_POWER_FIELDS = {"P_h": "p_h", "P_m_shared": "p_m_shared"}
_PLAIN_FIELDS = {"lambda_h": "lambda_h", "epsilon": "epsilon",
                 "lambda_md": "lambda_md", "lambda_mu": "lambda_mu"}
OUTAGE_METRICS = ("outage_no_sharing", "outage_sharing")
DELAY_METRICS = ("mean_delay", "jitter")
METRICS = OUTAGE_METRICS + DELAY_METRICS
MODE_NAMES = {ServiceMode.SHARED_ONLY: "shared",
              ServiceMode.PROPRIETARY_ONLY: "proprietary",
              ServiceMode.COMBINED: "combined"}
_MODES_BY_NAME = {name: mode for mode, name in MODE_NAMES.items()}

CSV_HEADER = "variable,value,metric,mode,analytic,sim_mean,sim_ci_lo,sim_ci_hi,n"


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    steps: int
    metrics: tuple[str, ...] = METRICS
    modes: tuple[ServiceMode, ...] = (ServiceMode.SHARED_ONLY,
                                      ServiceMode.PROPRIETARY_ONLY,
                                      ServiceMode.COMBINED)
    trials: int = 0   # Monte Carlo trials per outage point; 0 = analytic only
    packets: int = 0  # simulated packets per delay point; 0 = analytic only
    seed: int = 0

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if not self.start < self.stop:
            raise ValueError("sweep start must be below stop")
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 steps")
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}")

    def grid(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]


@dataclass(frozen=True)
class SweepRow:
    value: float          # swept-variable value (dBm for power sweeps)
    metric: str
    mode: str             # "" for outage metrics
    analytic: float       # nan when the point errored
    sim_mean: float | None
    sim_ci_lo: float | None
    sim_ci_hi: float | None
    n_samples: int
    error: str = ""       # evaluation failure, kept out of the CSV schema


@dataclass(frozen=True)
class SweepTable:
    spec: SweepSpec
    base: ScenarioParams
    rows: tuple[SweepRow, ...]

    def series(self, metric: str, mode: str = "") -> list[SweepRow]:
        return [r for r in self.rows if r.metric == metric and r.mode == mode]

    @property
    def errors(self) -> list[SweepRow]:
        return [r for r in self.rows if r.error]


def _point_params(base: ScenarioParams, spec: SweepSpec, value: float) -> ScenarioParams:
    if spec.variable in _POWER_FIELDS:
        params = with_updates(base, **{_POWER_FIELDS[spec.variable]: dbm_to_watts(value)})
    else:
        params = with_updates(base, **{_PLAIN_FIELDS[spec.variable]: value})
    if spec.variable == "epsilon":
        # the tolerance determines the admissible shared-band power
        params = analytic.apply_power_budget(params)
    return params


def _error_rows(spec: SweepSpec, value: float, message: str) -> list[SweepRow]:
    rows = []
    for metric in spec.metrics:
        if metric in OUTAGE_METRICS:
            rows.append(SweepRow(value, metric, "", math.nan, None, None, None, 0, message))
        else:
            for mode in spec.modes:
                rows.append(SweepRow(value, metric, MODE_NAMES[mode],
                                     math.nan, None, None, None, 0, message))
    return rows


def _evaluate_point(spec: SweepSpec, base: ScenarioParams, index: int,
                    value: float) -> list[SweepRow]:
    point_seed = spec.seed ^ index
    try:
        params = _point_params(base, spec, value)
    except (InfeasiblePowerError, ValidationError, ValueError) as exc:
        return _error_rows(spec, value, str(exc))

    def outage_row(metric: str) -> SweepRow:
        sharing = metric == "outage_sharing"
        exact = (analytic.outage_with_sharing(params) if sharing
                 else analytic.outage_no_sharing(params))
        if spec.trials > 0:
            est = simulate.estimate_outage_mc(params, sharing, spec.trials,
                                              np.random.default_rng(point_seed))
            half = 1.96 * est.std_error
            return SweepRow(value, metric, "", exact, est.mean,
                            est.mean - half, est.mean + half, est.n_trials)
        return SweepRow(value, metric, "", exact, None, None, None, 0)

    # one delay evaluation (and at most one queue run) per mode, shared by
    # every delay metric of this grid point
    per_mode: dict[ServiceMode, dict | str] = {}
    if any(m in DELAY_METRICS for m in spec.metrics):
        for mode in spec.modes:
            try:
                report = analytic.delay_report(params, mode)
            except (UnstableQueueError, InfeasiblePowerError, QuadratureError) as exc:
                per_mode[mode] = str(exc)
                continue
            cell = {"mean_delay": (report.mean_delay, None, 0),
                    "jitter": (report.jitter, None, 0)}
            if spec.packets > 0:
                stats = simulate.run_mg1_detailed(
                    params, mode, spec.packets, np.random.default_rng(point_seed))
                kept = stats.n_packets - stats.warmup_discarded
                cell = {"mean_delay": (report.mean_delay,
                                       (stats.mean_sojourn, stats.se_mean_sojourn), kept),
                        "jitter": (report.jitter,
                                   (stats.sojourn_variance, stats.se_sojourn_variance), kept)}
            per_mode[mode] = cell

    rows: list[SweepRow] = []
    for metric in spec.metrics:
        if metric in OUTAGE_METRICS:
            rows.append(outage_row(metric))
            continue
        for mode in spec.modes:
            name = MODE_NAMES[mode]
            outcome = per_mode[mode]
            if isinstance(outcome, str):
                rows.append(SweepRow(value, metric, name, math.nan,
                                     None, None, None, 0, outcome))
                continue
            exact, sim, kept = outcome[metric]
            if sim is None:
                rows.append(SweepRow(value, metric, name, exact, None, None, None, 0))
            else:
                mean, se = sim
                rows.append(SweepRow(value, metric, name, exact, mean,
                                     mean - 1.96 * se, mean + 1.96 * se, kept))
    return rows


def _worker_count() -> int:
    env = os.environ.get("SPECSHARE_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def run_sweep(spec: SweepSpec, base: ScenarioParams) -> SweepTable:
    """Evaluate every grid point; failures become error rows, not aborts."""
    validate(base)
    values = spec.grid()
    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(
                lambda iv: _evaluate_point(spec, base, iv[0], iv[1]),
                enumerate(values)))
    else:
        per_point = [_evaluate_point(spec, base, i, v) for i, v in enumerate(values)]
    rows = [row for point_rows in per_point for row in point_rows]
    return SweepTable(spec, base, tuple(rows))


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def emit_csv(table: SweepTable, destination) -> None:
    """Write the table deterministically: grid order, then metric order."""
    lines = [CSV_HEADER]
    for row in table.rows:
        lines.append(",".join([
            table.spec.variable,
            _cell(row.value),
            row.metric,
            row.mode,
            _cell(row.analytic),
            _cell(row.sim_mean),
            _cell(row.sim_ci_lo),
            _cell(row.sim_ci_hi),
            str(int(row.n_samples)),
        ]))
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_params(path) -> ScenarioParams:
    if path is None:
        return validate(ScenarioParams())
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _cmd_eval(args) -> int:
    params = _load_params(args.config)
    wanted = set(args.metric) if args.metric else None

    def show(name, value):
        if wanted is None or name in wanted:
            print(f"{name} = {value!r}")

    show("outage_no_sharing", analytic.outage_no_sharing(params))
    show("outage_sharing", analytic.outage_with_sharing(params))
    modes = ([_MODES_BY_NAME[m] for m in args.mode] if args.mode
             else list(MODE_NAMES))
    status = 0
    for mode in modes:
        name = MODE_NAMES[mode]
        try:
            report = analytic.delay_report(params, mode)
        except (UnstableQueueError, InfeasiblePowerError, QuadratureError) as exc:
            print(f"error[{name}]: {exc}", file=sys.stderr)
            status = 1
            continue
        show(f"mean_service[{name}]", report.mean_service)
        show(f"mean_waiting[{name}]", report.mean_waiting)
        show(f"mean_delay[{name}]", report.mean_delay)
        show(f"jitter[{name}]", report.jitter)
        show(f"load[{name}]", report.load)
        show(f"fail_prob[{name}]", report.fail_prob)
    return status


def _cmd_sweep(args) -> int:
    base = _load_params(args.config)
    metrics = tuple(args.metric) if args.metric else METRICS
    modes = tuple(_MODES_BY_NAME[m] for m in args.mode) if args.mode \
        else (ServiceMode.SHARED_ONLY, ServiceMode.PROPRIETARY_ONLY, ServiceMode.COMBINED)
    spec = SweepSpec(variable=args.var, start=args.start, stop=args.stop,
                     steps=args.steps, metrics=metrics, modes=modes,
                     trials=args.trials, packets=args.packets,
                     seed=args.seed if args.seed is not None else base.seed)
    table = run_sweep(spec, base)
    emit_csv(table, args.out)
    print(f"wrote {len(table.rows)} rows to {args.out}")

    status = 0
    for row in table.errors:
        print(f"error at {spec.variable}={row.value:g} "
              f"[{row.metric}{'/' + row.mode if row.mode else ''}]: {row.error}",
              file=sys.stderr)
        status = 1
    if args.check_trends:
        from . import verify  # deferred: pulls in the whole acceptance machinery

        for check in verify.check_trends(table):
            line = "PASS" if check.passed else "FAIL"
            print(f"{line} {check.name}" + (f": {check.detail}" if check.detail else ""))
            if not check.passed:
                status = 1
    return status


def _cmd_verify(args) -> int:
    from . import verify  # deferred: pulls in the whole acceptance machinery

    params = _load_params(args.config)
    results = verify.run_all(params)
    failures = 0
    for result in results:
        line = "PASS" if result.passed else "FAIL"
        print(f"{line} {result.name} ({result.elapsed:.1f}s): {result.detail}")
        failures += not result.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specshare",
        description="Spectrum-sharing coexistence analyzer: closed-form outage, "
                    "delay, and jitter with Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate closed-form metrics for one scenario")
    p_eval.add_argument("--config", help="key = value config file (defaults when omitted)")
    p_eval.add_argument("--mode", action="append", choices=sorted(_MODES_BY_NAME),
                        help="service mode(s) to report; default all")
    p_eval.add_argument("--metric", action="append", help="restrict output to named metrics")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="sweep one variable and write a CSV table")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    p_sweep.add_argument("--from", dest="start", type=float, required=True,
                         help="grid start (dBm for power variables)")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--trials", type=int, default=0,
                         help="Monte Carlo trials per outage point (0 = analytic only)")
    p_sweep.add_argument("--packets", type=int, default=0,
                         help="simulated packets per delay point (0 = analytic only)")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--metric", action="append", choices=METRICS)
    p_sweep.add_argument("--mode", action="append", choices=sorted(_MODES_BY_NAME))
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--check-trends", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the full analytic-vs-MC acceptance suite")
    p_verify.add_argument("--config")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
