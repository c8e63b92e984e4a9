"""Command-line harness: single evaluations, parameter sweeps with CSV
output, and the entry points of the trend checks and the verify suite, which
live in ``specshare.verify``.

Sweep grids are linear in the swept variable, except transmit powers which
sweep linearly in dBm (the value column then holds dBm). Every scenario, be it
a grid point or the one `eval` reports on, goes through one evaluator,
``_closed_forms``: it is resolved once (the outage tolerance caps its
shared-band power), then only its requested cells are computed, so `eval`
prints, and sets its exit status from, only the cells --metric and --mode
request. Each grid point splits in two halves. Its closed forms and its
interferer fields are computed on the calling thread, in grid order, so
``specshare.analytic`` and its moment cache are only ever used from one
thread. Its Monte Carlo half (the outage estimate, the queue run and the rows)
draws no field and goes to a worker pool as soon as its closed forms are done,
so it overlaps the closed forms of the next point. A sweep draws its fields
once (``simulate.draw_outage_trials``), and each point scales the unit-power
fields by its P_h: the outage trials from child 0 of SeedSequence(seed), and
the queue's fields beyond them (--packets above --trials) from child 0's first
child. Child 1 + i drives point i's queue run, so output is byte-identical
regardless of worker count; SPECSHARE_THREADS, at most MAX_THREADS, caps the
worker pool. A draw beyond the budget (``geometry.MAX_FIELD_POINTS``) fails
only the cells of its point that read it: the proprietary queue cells read
none and are simulated.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import analytic, geometry, simulate
from .analytic import InfeasiblePowerError, UnstableQueueError
from .model import (
    CONFIG_KEYS,
    ScenarioParams,
    ServiceMode,
    ValidationError,
    parse_config,
    validate,
    with_updates,
)
from .quadrature import QuadratureError

# sweep variable -> config key, whose unit the grid is in
SWEEP_VARIABLES = {"P_h": "P_h_dbm", "lambda_h": "lambda_h_per_m2",
                   "P_m_shared": "P_m_shared_dbm", "epsilon": "epsilon",
                   "lambda_md": "lambda_md_per_s", "lambda_mu": "lambda_mu_per_m2"}
OUTAGE_METRICS = ("outage_no_sharing", "outage_sharing")
DELAY_METRICS = ("mean_delay", "jitter")
METRICS = OUTAGE_METRICS + DELAY_METRICS
MODE_CHOICES = sorted(mode.value for mode in ServiceMode)
# `eval --metric` names: a bare DelayReport field selects it in every mode
_REPORT_FIELDS = tuple(field.name for field in fields(analytic.DelayReport))
EVAL_METRICS = OUTAGE_METRICS + _REPORT_FIELDS + tuple(
    f"{field}[{mode}]" for mode in MODE_CHOICES for field in _REPORT_FIELDS)
_SHARED_BAND_MODES = (ServiceMode.SHARED_ONLY, ServiceMode.COMBINED)
# delay metric -> (DelayReport field, QueueStats estimate, its standard error)
_DELAY_FIELDS = {"mean_delay": ("mean_delay", "mean_sojourn", "se_mean_sojourn"),
                 "jitter": ("jitter", "sojourn_variance", "se_sojourn_variance")}

CSV_HEADER = "variable,value,metric,mode,analytic,sim_mean,sim_ci_lo,sim_ci_hi,n"
# a grid point keeps up to eight rows, about 4.6 KB, until the CSV is written
# (measured on a lambda_md sweep): the longest sweep holds about 460 MB
MAX_STEPS = 100_000
# a busy pool starts a thread per submitted point, up to its size
MAX_THREADS = 64


def _reject_repeats(option: str, values) -> None:
    """Raise ValueError naming every value given more than once."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{option} {', '.join(repeated)} given more than once")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    steps: int
    metrics: tuple[str, ...] = METRICS
    modes: tuple[ServiceMode, ...] = tuple(ServiceMode)  # or their names
    trials: int = 0   # Monte Carlo trials per outage point; 0 = analytic only
    packets: int = 0  # simulated packets per delay point; 0 = analytic only
    seed: int = 0

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"sweep bounds must be finite, got {self.start} to {self.stop}")
        if not self.start < self.stop:
            raise ValueError("sweep start must be below stop")
        for name in ("steps", "trials", "packets", "seed"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"sweep needs 2 to {MAX_STEPS} steps, got {self.steps}")
        for name in ("trials", "packets", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}")
        _reject_repeats("metric", self.metrics)
        object.__setattr__(self, "modes", tuple(ServiceMode(mode) for mode in self.modes))
        _reject_repeats("mode", [mode.value for mode in self.modes])

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


def _closed_forms(params: ScenarioParams, outage_metrics,
                  modes) -> tuple[ScenarioParams, dict, dict]:
    """The scenario with its shared-band power capped by epsilon, the value of
    each requested outage metric and the DelayReport of each requested mode,
    each value or report replaced by the reason it cannot be computed.

    An infeasible tolerance fails only the cells that need the shared band,
    outage_sharing and the shared and combined modes; the other cells are
    computed from the scenario as configured.
    """
    try:
        params, infeasible = analytic.apply_power_budget(params), ""
    except InfeasiblePowerError as exc:
        infeasible = str(exc)
    outages, reports = {}, {}
    for metric in outage_metrics:
        if metric == "outage_no_sharing":
            outages[metric] = analytic.outage_no_sharing(params)
        else:
            outages[metric] = infeasible or analytic.outage_with_sharing(params)
    for mode in modes:
        try:
            reports[mode] = (infeasible if infeasible and mode in _SHARED_BAND_MODES
                             else analytic.delay_report(params, mode))
        except (UnstableQueueError, QuadratureError) as exc:
            reports[mode] = str(exc)
    return params, outages, reports


def _monte_carlo_rows(spec: SweepSpec, index: int, value: float,
                      params: ScenarioParams | None, outages: dict,
                      reports: dict, draws: tuple = (None, None)) -> list[SweepRow]:
    """One row per (metric, mode) cell: its closed form with the Monte Carlo
    estimate the spec asks for, or nan and an error message. Takes what
    _closed_forms returns and draws: the point's outage trials and the queue's
    fields beyond them, each a draw_outage_trials result, its FieldBudgetError
    or None. One outage run and one queue run per point, neither drawing a
    field, and neither for cells whose closed form failed."""
    outage_mc, queue, fields = {}, {}, None
    trials = draws[0]
    over = [draw for draw in draws if isinstance(draw, geometry.FieldBudgetError)]
    valid = [m for m, outage in outages.items() if not isinstance(outage, str)]
    ready = tuple(m for m, report in reports.items() if not isinstance(report, str))
    shared_band = [m for m in ready if m in _SHARED_BAND_MODES]
    if isinstance(trials, geometry.FieldBudgetError):
        outages = {**outages, **dict.fromkeys(valid, f"outage simulation: {trials}")}
    elif trials is not None and valid:
        outage_mc = dict(zip(OUTAGE_METRICS, simulate.estimate_outage_mc(
            params, spec.trials, None, trials)))
    if spec.packets > 0 and over:  # fails the shared band only: it alone reads fields
        reports = {**reports, **dict.fromkeys(shared_band, f"queue simulation: {over[0]}")}
        ready = tuple(m for m in ready if m not in shared_band)
    elif spec.packets > 0 and shared_band:  # the leading outage fields, then the rest
        fields = params.p_h * np.concatenate(
            [draw[0] for draw in draws if draw is not None])[:spec.packets]
    if spec.packets > 0 and ready:
        try:
            # child 1 + index of SeedSequence(seed).spawn
            queue = simulate.run_mg1(params, ready, spec.packets, np.random.default_rng(
                np.random.SeedSequence(spec.seed, spawn_key=(1 + index,))), fields)
        except ValueError as exc:  # no arrivals
            reports = {**reports, **dict.fromkeys(ready, f"queue simulation: {exc}")}

    rows = []
    for metric in spec.metrics:
        for mode in (None,) if metric in OUTAGE_METRICS else spec.modes:
            if mode is None:
                exact, est = outages[metric], outage_mc.get(metric)
                sim = None if est is None else (est.mean, est.std_error, est.n_trials)
            else:
                exact_field, mean_field, se_field = _DELAY_FIELDS[metric]
                exact, stats = reports[mode], queue.get(mode)
                if not isinstance(exact, str):
                    exact = getattr(exact, exact_field)
                sim = None if stats is None else (
                    getattr(stats, mean_field), getattr(stats, se_field),
                    stats.n_packets - stats.warmup_discarded)
            error = exact if isinstance(exact, str) else ""
            mean, se, n = (None, None, 0) if error or sim is None else sim
            ci = (None, None) if mean is None else (mean - 1.96 * se, mean + 1.96 * se)
            rows.append(SweepRow(value, metric, mode.value if mode else "",
                                 math.nan if error else exact, mean, *ci, n, error))
    return rows


def _worker_count() -> int:
    env = os.environ.get("SPECSHARE_THREADS", "").strip()
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"SPECSHARE_THREADS must be an integer, got {env!r}") from None
        if count > MAX_THREADS:
            raise ValueError(f"SPECSHARE_THREADS must be at most {MAX_THREADS}, got {count}")
        return max(1, count)
    return min(4, os.cpu_count() or 1)


def run_sweep(spec: SweepSpec, base: ScenarioParams) -> SweepTable:
    """Evaluate every grid point; failures become error rows, not aborts. The
    field draws and closed forms run on this thread, Monte Carlo in the pool."""
    validate(base)
    field, convert = CONFIG_KEYS[SWEEP_VARIABLES[spec.variable]]
    outage_metrics = [m for m in spec.metrics if m in OUTAGE_METRICS]
    modes = spec.modes if set(spec.metrics) & set(DELAY_METRICS) else ()
    # fields the queue's shared band reads, when a shared or combined queue cell is requested
    queue_fields = spec.packets if set(modes) & set(_SHARED_BAND_MODES) else 0
    # child 0 of SeedSequence(seed).spawn: the outage trials, drawn when an outage
    # cell or the queue reads them; its first child, spawned before any draw: the
    # queue's fields beyond them
    sweep_rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
    streams = ((spec.trials if outage_metrics or queue_fields else 0, sweep_rng),
               (max(queue_fields - spec.trials, 0), sweep_rng.spawn(1)[0]))
    drawn = [None, None]
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        futures = []
        for index, value in enumerate(spec.grid()):
            point_draws = [None, None]
            try:
                params = with_updates(base, **{field: convert(value)})
                for k, (count, rng) in enumerate(streams):
                    if count > 0:  # over budget: raises before any draw
                        try:
                            point_draws[k] = drawn[k] = simulate.draw_outage_trials(
                                params, count, rng, drawn[k])
                        except geometry.FieldBudgetError as exc:
                            point_draws[k] = exc
                point = _closed_forms(params, outage_metrics, modes)
            except (ValidationError, ValueError) as exc:  # an invalid point scenario
                point = (None, dict.fromkeys(outage_metrics, str(exc)),
                         dict.fromkeys(modes, str(exc)))
            futures.append(pool.submit(_monte_carlo_rows, spec, index, value, *point,
                                       tuple(point_draws)))
        rows = [row for future in futures for row in future.result()]
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
    _reject_repeats("mode", args.mode or [])
    _reject_repeats("metric", args.metric or [])
    modes = [ServiceMode(m) for m in args.mode] if args.mode else list(ServiceMode)
    for name in args.metric or ():
        mode = name.partition("[")[2].rstrip("]")
        if mode and ServiceMode(mode) not in modes:
            raise ValueError(f"metric {name} needs mode {mode}, which --mode leaves out")
    # requested: every cell without --metric, else each it names or names the field of
    cells = {*OUTAGE_METRICS, *(f"{f}[{m.value}]" for m in modes for f in _REPORT_FIELDS)}
    if args.metric:
        cells = {cell for cell in cells if {cell, cell.partition("[")[0]} & set(args.metric)}
    _, outages, reports = _closed_forms(
        _load_params(args.config), [m for m in OUTAGE_METRICS if m in cells],
        [m for m in modes if any(cell.endswith(f"[{m.value}]") for cell in cells)])
    lines = list(outages.items())
    for mode, report in reports.items():
        lines += [(mode.value, report)] if isinstance(report, str) else [
            (f"{field}[{mode.value}]", value) for field, value in asdict(report).items()]
    status = 0
    for name, outcome in lines:
        if isinstance(outcome, str):
            print(f"error[{name}]: {outcome}", file=sys.stderr)
            status = 1
        elif name in cells:
            print(f"{name} = {outcome!r}")
    return status


def _cmd_sweep(args) -> int:
    base = _load_params(args.config)
    metrics = tuple(args.metric) if args.metric else METRICS
    spec = SweepSpec(variable=args.var, start=args.start, stop=args.stop,
                     steps=args.steps, metrics=metrics, modes=tuple(args.mode or ServiceMode),
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
    p_eval.add_argument("--mode", action="append", choices=MODE_CHOICES,
                        help="service mode(s) to report; default all")
    p_eval.add_argument("--metric", action="append", choices=EVAL_METRICS, metavar="NAME",
                        help="restrict output to named metrics: an outage metric, a delay "
                             "field in every mode, or field[mode]")
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
    p_sweep.add_argument("--mode", action="append", choices=MODE_CHOICES)
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
    except (ValidationError, ValueError, OSError, InfeasiblePowerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
