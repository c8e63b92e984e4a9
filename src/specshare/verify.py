"""Acceptance verification: ties every closed form to an independent oracle.

Each check mirrors the package's core argument: closed-form outage against
field-level Monte Carlo, closed-form delay CDFs against empirical samples,
closed-form queue moments against an event-driven FCFS run, plus classical
M/M/1 and M/D/1 sanity anchors, figure-trend assertions, and byte-level sweep
determinism. ``run_all`` powers both the ``specshare verify`` command and the
acceptance test module; ``check_trends`` also backs ``specshare sweep
--check-trends``.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analytic, cli, geometry, simulate
from .analytic import TruncatedMoments
from .model import ScenarioParams, ServiceMode, validate, with_updates
from .quadrature import integrate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0  # s; zero for a single trend assertion


def check_outage_oracle(params: ScenarioParams, trials: int = 1_000_000,
                        seed: int = 101) -> CheckResult:
    """Monte Carlo outage agrees with both closed forms within 3 standard errors."""
    start = time.monotonic()
    exact_no = analytic.outage_no_sharing(params)
    exact_sh = analytic.outage_with_sharing(params)
    est_no, est_sh = simulate.estimate_outage_mc(params, trials, np.random.default_rng(seed))
    dev_no = abs(est_no.mean - exact_no) / est_no.std_error
    dev_sh = abs(est_sh.mean - exact_sh) / est_sh.std_error
    elapsed = time.monotonic() - start
    passed = dev_no <= 3.0 and dev_sh <= 3.0 and elapsed < 60.0
    detail = (f"no-sharing {est_no.mean:.3e} vs {exact_no:.3e} ({dev_no:.2f} se), "
              f"sharing {est_sh.mean:.3e} vs {exact_sh:.3e} ({dev_sh:.2f} se), "
              f"{trials} trials in {elapsed:.1f}s (target 60s)")
    return CheckResult("1 outage closed forms vs Monte Carlo", passed, detail, elapsed)


def check_power_identity(params: ScenarioParams) -> CheckResult:
    """Unclamped power bound substituted back into the sharing outage gives epsilon."""
    start = time.monotonic()
    worst = 0.0
    for lam_h in (1e-5, 1e-4, 5e-4, 1e-3):
        base = with_updates(params, lambda_h=lam_h, epsilon=0.5)
        floor = analytic.outage_no_sharing(base)
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            eps = floor + (1.0 - floor) * frac
            scenario = with_updates(base, epsilon=eps)
            bound = analytic.max_mbs_power(scenario)
            achieved = analytic.outage_with_sharing(
                with_updates(scenario, p_m_shared=bound))
            worst = max(worst, abs(achieved - eps))
    elapsed = time.monotonic() - start
    return CheckResult("2 power-budget identity",
                       worst <= 1e-9,
                       f"max |achieved - epsilon| = {worst:.3e} over 20 points (tol 1e-9)",
                       elapsed)


def _combined_cdf_interpolant(params: ScenarioParams, t_min: float):
    """Service-delay CDF of the combined mode via a dense capacity-CDF interpolant.

    Direct evaluation runs one convolution quadrature per point; interpolating
    the smooth capacity CDF linearly on a 3000-point geometric grid keeps the
    error orders of magnitude below the 0.01 sup-norm budget.
    """
    z_hi = params.u_m * params.n_m / t_min
    grid = np.concatenate([[0.0], np.geomspace(z_hi * 1e-6, z_hi, 3000)])
    values = analytic.capacity_cdf(params, ServiceMode.COMBINED, grid)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            z = np.where(t > 0, params.u_m * params.n_m / t, np.inf)
        return 1.0 - np.interp(np.minimum(z, z_hi), grid, values)

    return cdf


def check_service_cdf_match(params: ScenarioParams, n: int = 100_000,
                            seed: int = 202) -> CheckResult:
    """Empirical service-delay CDFs stay within 0.01 sup-norm of the closed
    forms; every mode reads one draw of each band."""
    start = time.monotonic()
    details = []
    passed = True
    delays = geometry.sample_service_delays(params, tuple(ServiceMode), n,
                                            np.random.default_rng(seed))
    for mode, samples in delays.items():
        # a zero delay, an infinite capacity, leaves the interpolant no grid
        if mode is ServiceMode.COMBINED and samples.min() > 0.0:
            reference = _combined_cdf_interpolant(params, float(samples.min()))
        else:
            reference = partial(analytic.service_cdf, params, mode)
        distance = simulate.ks_distance(samples, reference)
        passed &= distance <= 0.01
        details.append(f"{mode.value}: sup-norm {distance:.4f}")
    elapsed = time.monotonic() - start
    return CheckResult("3 service-delay CDFs vs empirical",
                       passed, "; ".join(details) + " (tol 0.01)", elapsed)


def capacity_means(params: ScenarioParams) -> tuple[float, dict[ServiceMode, float]]:
    """A rate Z beyond which every mode's tail P(C > z) is below 1e-18, and
    each mode's mean capacity, the integral of its tail over [0, Z]. Z is
    doubled from 1 bit/s until every tail is below, then bisected ten times
    between its last two values. It is inf, and no mean is computed, when a
    capacity is infinite with positive probability."""
    tails = {mode: analytic._capacity_tail(analytic.moment_key(params, mode))
             for mode in ServiceMode}
    beyond = lambda z: all(tail(z) < 1e-18 for tail in tails.values())
    z_end = 1.0
    while z_end < math.inf and not beyond(z_end):
        z_end *= 2.0
    lo = 0.5 * z_end
    for _ in range(10):  # an infinite Z stays infinite
        mid = 0.5 * (lo + z_end)
        lo, z_end = (lo, mid) if beyond(mid) else (mid, z_end)
    if z_end == math.inf:
        return z_end, {}
    return z_end, {mode: integrate(tail, 0.0, z_end) for mode, tail in tails.items()}


def check_capacity_distributions(params: ScenarioParams) -> CheckResult:
    """Every capacity CDF is bounded and nondecreasing up to the support end
    Z, and the combined law adds the band means: E[C1 + C2] = E[C1] + E[C2]."""
    start = time.monotonic()
    name = "4 capacity distributions well-formed"
    z_end, means = capacity_means(params)
    if z_end == math.inf:
        return CheckResult(name, False, "a capacity tail stays above 1e-18 up to the "
                           "largest float: its mean is infinite", time.monotonic() - start)
    bands = means[ServiceMode.SHARED_ONLY] + means[ServiceMode.PROPRIETARY_ONLY]
    additivity = abs(means[ServiceMode.COMBINED] - bands) / bands
    grid = np.linspace(0.0, z_end, 1000)
    cdfs = [analytic.capacity_cdf(params, mode, grid) for mode in ServiceMode]
    monotone = all(bool(np.all(np.diff(cdf) >= -1e-15)) for cdf in cdfs)
    bounded = all(bool(np.all((cdf >= 0.0) & (cdf <= 1.0))) for cdf in cdfs)
    elapsed = time.monotonic() - start
    return CheckResult(
        name, additivity <= 1e-8 and monotone and bounded,
        f"mean additivity error {additivity:.3g} (tol 1e-8), CDFs monotone={monotone} "
        f"bounded={bounded} on a 1000-point grid to Z = {z_end:.4g} bits/s", elapsed)


def check_queue_theory(params: ScenarioParams, packets: int = 1_000_000,
                       seed: int = 303) -> CheckResult:
    """Event-driven queue statistics match the closed-form delay and jitter. A
    case fails, with its reason, when no arrival rate loads its mode to rho."""
    start = time.monotonic()
    cases = [
        (ServiceMode.PROPRIETARY_ONLY, 0.2, 0.03),
        (ServiceMode.PROPRIETARY_ONLY, 0.5, 0.03),
        (ServiceMode.PROPRIETARY_ONLY, 0.8, 0.05),
        (ServiceMode.SHARED_ONLY, 0.5, 0.03),
        (ServiceMode.COMBINED, 0.5, 0.03),
    ]
    details = []
    passed = True
    for k, (mode, rho, tol) in enumerate(cases):
        m1 = analytic.truncated_service_moments(analytic.moment_key(params, mode), mode).m1
        if not (m1 > 0.0 and rho / m1 < math.inf):
            passed = False
            details.append(f"{mode.value}@rho{rho}: mean service {m1:.3g} s, so no "
                           f"arrival rate gives load {rho}")
            continue
        scenario = with_updates(params, lambda_md=rho / m1)
        report = analytic.delay_report(scenario, mode)
        stats = simulate.run_mg1(scenario, (mode,), packets,
                                 np.random.default_rng(seed + k))[mode]
        kept = stats.n_packets - stats.warmup_discarded

        mean_err = abs(stats.mean_sojourn - report.mean_delay) / report.mean_delay
        var_err = abs(stats.sojourn_variance - report.jitter) / report.jitter
        fail_se = math.sqrt(report.fail_prob * (1.0 - report.fail_prob) / kept)
        fail_dev = abs(stats.fail_fraction - report.fail_prob) / fail_se
        ok = mean_err <= tol and var_err <= 0.10 and fail_dev <= 3.0
        passed &= ok
        details.append(f"{mode.value}@rho{rho}: mean {mean_err * 100:.2f}% "
                       f"(tol {tol * 100:.0f}%), jitter {var_err * 100:.2f}% (tol 10%), "
                       f"fail {fail_dev:.2f} se")
    elapsed = time.monotonic() - start
    passed = passed and elapsed < 300.0
    details.append(f"{elapsed:.1f}s (target 300s)")
    return CheckResult("5 queue theory vs event simulation", passed,
                       "; ".join(details), elapsed)


def check_classical_queues(packets: int = 1_000_000, seed: int = 404) -> CheckResult:
    """Waiting-time formula reproduces M/M/1 and M/D/1; simulator matches M/M/1."""
    start = time.monotonic()
    s, lam = 0.01, 50.0
    mu = 1.0 / s
    rho = lam * s

    exponential = TruncatedMoments(s, 2 * s * s, 6 * s ** 3, 0.0)
    deterministic = TruncatedMoments(s, s * s, s ** 3, 0.0)
    wait_mm1 = analytic.mg1_waiting(exponential, lam)
    wait_md1 = analytic.mg1_waiting(deterministic, lam)
    # classical closed forms: M/M/1 wait is rho/(mu-lam) with second moment
    # 2 rho/(mu-lam)^2; M/D/1 wait is lam s^2 / (2 (1-rho))
    mm1_mean = rho / (mu - lam)
    mm1_var = 2.0 * rho / (mu - lam) ** 2 - mm1_mean ** 2
    md1_mean = lam * s * s / (2.0 * (1.0 - rho))
    formula_ok = (abs(wait_mm1.mean - mm1_mean) <= 1e-12
                  and abs(wait_mm1.variance - mm1_var) <= 1e-12
                  and abs(wait_md1.mean - md1_mean) <= 1e-12)

    rng = np.random.default_rng(seed)
    interarrivals = rng.exponential(1.0 / lam, packets)
    services = rng.exponential(s, packets)
    stats = simulate.queue_stats_from_trace(interarrivals, services,
                                            math.inf, packets // 10)
    sojourn_exact = 1.0 / (mu - lam)
    sim_err = abs(stats.mean_sojourn - sojourn_exact) / sojourn_exact
    elapsed = time.monotonic() - start
    return CheckResult(
        "6 classical M/M/1 and M/D/1 oracles",
        formula_ok and sim_err <= 0.02,
        f"formulas exact to 1e-12: {formula_ok}; simulated M/M/1 sojourn "
        f"{stats.mean_sojourn:.5f} vs {sojourn_exact:.5f} ({sim_err * 100:.2f}%, tol 2%)",
        elapsed)


def _monotone(rows: list[cli.SweepRow], direction: int, rel_tol: float = 1e-9) -> list[int]:
    """Indices where the analytic series violates strict monotonicity."""
    bad = []
    for i in range(len(rows) - 1):
        a, b = rows[i].analytic, rows[i + 1].analytic
        slack = rel_tol * max(abs(a), abs(b))
        if direction > 0 and not b > a - slack:
            bad.append(i + 1)
        if direction < 0 and not b < a + slack:
            bad.append(i + 1)
    return bad


def _constant(rows: list[cli.SweepRow], rel_tol: float) -> list[int]:
    if not rows:
        return []
    ref = rows[0].analytic
    scale = max(abs(ref), 1e-300)
    return [i for i, r in enumerate(rows) if abs(r.analytic - ref) > rel_tol * scale]


def _check(name: str, violations: list[int], extra: str = "") -> CheckResult:
    if violations:
        return CheckResult(name, False, f"violations at grid rows {violations} {extra}".strip())
    return CheckResult(name, True, extra)


def _epsilon_checks(table: cli.SweepTable) -> list[CheckResult]:
    # tolerance at which the p_max cap starts binding
    budget_probe = [analytic.max_mbs_power(with_updates(table.base, epsilon=v))
                    >= table.base.p_max for v in table.spec.grid()]
    checks = []
    for mode in table.spec.modes:
        name = mode.value
        if mode is ServiceMode.PROPRIETARY_ONLY:
            continue  # proprietary-only traffic never uses the shared band
        for metric in ("mean_delay", "jitter"):
            if metric not in table.spec.metrics:
                continue
            rows = table.series(metric, name)
            if any(r.error for r in rows) or not rows:
                checks.append(CheckResult(f"{metric}[{name}] vs epsilon", False,
                                          "errored points in series"))
                continue
            label = f"{metric}[{name}]"
            decreasing = [i + 1 for i in range(len(rows) - 1)
                          if rows[i + 1].analytic > rows[i].analytic
                          * (1 + 1e-9) + 1e-15]
            checks.append(_check(f"{label} nonincreasing in epsilon", decreasing))
            clamped = [r for r, c in zip(rows, budget_probe) if c]
            stable = _constant(clamped, rel_tol=1e-6)
            extra = f"({len(clamped)} clamped points)"
            if not clamped:
                checks.append(CheckResult(f"{label} constant after power clamp", False,
                                          "grid never reaches the p_max clamp"))
            else:
                checks.append(_check(f"{label} constant after power clamp", stable, extra))
    return checks


def _ordering_checks(table: cli.SweepTable) -> list[CheckResult]:
    checks = []
    have = {m.value for m in table.spec.modes}
    if {"combined", "proprietary"} <= have:
        for metric in ("mean_delay", "jitter"):
            if metric not in table.spec.metrics:
                continue
            combined = table.series(metric, "combined")
            proprietary = table.series(metric, "proprietary")
            bad = [i for i, (c, p) in enumerate(zip(combined, proprietary))
                   if not c.analytic <= p.analytic * (1 + 1e-9)]
            checks.append(_check(f"{metric}: combined <= proprietary pointwise", bad))
    return checks


def check_trends(table: cli.SweepTable) -> list[CheckResult]:
    """Assert the figure-specific monotonicity and ordering properties."""
    spec = table.spec
    checks: list[CheckResult] = []
    if table.errors:
        checks.append(CheckResult("no errored points", False,
                                  f"{len(table.errors)} rows errored"))

    if spec.variable == "P_h":
        no_sharing = table.series("outage_no_sharing")
        sharing = table.series("outage_sharing")
        if no_sharing:
            if table.base.noise_psd == 0.0:
                checks.append(_check("outage_no_sharing constant in P_h (noise-free)",
                                     _constant(no_sharing, rel_tol=1e-12)))
            elif all(r.sim_mean is not None for r in no_sharing):
                spread = (max(r.analytic for r in no_sharing)
                          - min(r.analytic for r in no_sharing))
                width = float(np.mean([r.sim_ci_hi - r.sim_ci_lo for r in no_sharing]))
                flat = spread <= width
                inside = all(abs(r.sim_mean - r.analytic)
                             <= 1.5 * (r.sim_ci_hi - r.sim_ci_lo) for r in no_sharing)
                checks.append(CheckResult(
                    "outage_no_sharing flat within simulation CI",
                    flat and inside,
                    f"analytic spread {spread:.3g} vs mean CI width {width:.3g}"))
            else:
                spread = (max(r.analytic for r in no_sharing)
                          - min(r.analytic for r in no_sharing))
                sharing_spread = (max(r.analytic for r in sharing)
                                  - min(r.analytic for r in sharing)) if sharing else math.inf
                checks.append(CheckResult(
                    "outage_no_sharing nearly flat in P_h",
                    spread <= 0.2 * sharing_spread,
                    f"spread {spread:.3g} vs sharing spread {sharing_spread:.3g}"))
        if sharing:
            checks.append(_check("outage_sharing decreasing in P_h",
                                 _monotone(sharing, -1)))
    elif spec.variable == "lambda_h":
        for metric in cli.OUTAGE_METRICS:
            rows = table.series(metric)
            if rows:
                checks.append(_check(f"{metric} increasing in lambda_h",
                                     _monotone(rows, +1)))
    elif spec.variable == "P_m_shared":
        rows = table.series("outage_sharing")
        if rows:
            checks.append(_check("outage_sharing increasing in P_m_shared",
                                 _monotone(rows, +1)))
        rows = table.series("outage_no_sharing")
        if rows:
            checks.append(_check("outage_no_sharing constant in P_m_shared",
                                 _constant(rows, rel_tol=1e-12)))
    elif spec.variable == "epsilon":
        checks.extend(_epsilon_checks(table))
    elif spec.variable in ("lambda_md", "lambda_mu"):
        for mode in spec.modes:
            name = mode.value
            for metric in ("mean_delay", "jitter"):
                if metric not in spec.metrics:
                    continue
                rows = table.series(metric, name)
                if rows:
                    checks.append(_check(
                        f"{metric}[{name}] increasing in {spec.variable}",
                        _monotone(rows, +1)))
        checks.extend(_ordering_checks(table))
    return checks


def _trend_figure(name: str, runs: list[tuple[cli.SweepSpec, ScenarioParams]]) -> CheckResult:
    """Run one figure's sweeps and fold their trend checks into a single result."""
    start = time.monotonic()
    checks = [c for spec, base in runs for c in check_trends(cli.run_sweep(spec, base))]
    failing = [c for c in checks if not c.passed]
    if failing:
        detail = "; ".join(f"{c.name}: {c.detail}" for c in failing)
    else:
        detail = f"{len(checks)} trend assertions hold"
    return CheckResult(name, not failing, detail, time.monotonic() - start)


def check_trend_suite(params: ScenarioParams, seed: int = 505) -> list[CheckResult]:
    """Desk-scale replicas of the reported parameter trends, each asserted.

    The outage figures (7a-7c) hold the shared-band power at the scenario's
    value: a tolerance would re-cap it at every point and pin outage_sharing
    at epsilon, so they run without one. Figure 7d sweeps the tolerance itself.
    """
    shared_modes = (ServiceMode.SHARED_ONLY, ServiceMode.COMBINED)
    versus_modes = (ServiceMode.PROPRIETARY_ONLY, ServiceMode.COMBINED)
    fixed_power = with_updates(params, epsilon=None)
    outage, delay = cli.OUTAGE_METRICS, cli.DELAY_METRICS
    figures = [
        ("7a outage vs HBS power", [
            (cli.SweepSpec("P_h", 24.0, 40.0, 11, metrics=outage, trials=100_000, seed=seed),
             fixed_power),
            (cli.SweepSpec("P_h", 24.0, 40.0, 11, metrics=("outage_no_sharing",), seed=seed),
             with_updates(fixed_power, noise_psd=0.0))]),
        ("7b outage vs HBS density", [
            (cli.SweepSpec("lambda_h", 1e-5, 1e-3, 11, metrics=outage, seed=seed), fixed_power)]),
        ("7c outage vs MBS shared power", [
            (cli.SweepSpec("P_m_shared", 10.0, 30.0, 11, metrics=outage, seed=seed),
             fixed_power)]),
        ("7d delay/jitter vs outage tolerance", [
            (cli.SweepSpec("epsilon", 0.006, 0.03, 11, metrics=delay, modes=shared_modes,
                           seed=seed), params)]),
        ("7e delay/jitter vs arrival rate", [
            (cli.SweepSpec("lambda_md", 20.0, 200.0, 10, metrics=delay, modes=versus_modes,
                           seed=seed), params)]),
        # jitter grows with density only once waiting variance dominates; the
        # default arrival rate (100/s) sits in that regime
        ("7f delay/jitter vs device density", [
            (cli.SweepSpec("lambda_mu", 0.005, 0.02, 10, metrics=delay, modes=versus_modes,
                           seed=seed), params)]),
    ]
    return [_trend_figure(name, runs) for name, runs in figures]


def check_determinism(params: ScenarioParams, seed: int = 606) -> CheckResult:
    """Identical seeds give byte-identical CSVs, independent of worker count."""
    start = time.monotonic()
    spec = cli.SweepSpec("lambda_h", 1e-5, 2e-4, 3, metrics=cli.OUTAGE_METRICS,
                         trials=20_000, seed=seed)
    previous = os.environ.get("SPECSHARE_THREADS")
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "a.csv")
        second = os.path.join(tmp, "b.csv")
        try:
            os.environ["SPECSHARE_THREADS"] = "4"
            cli.emit_csv(cli.run_sweep(spec, params), first)
            os.environ["SPECSHARE_THREADS"] = "1"
            cli.emit_csv(cli.run_sweep(spec, params), second)
        finally:
            if previous is None:
                os.environ.pop("SPECSHARE_THREADS", None)
            else:
                os.environ["SPECSHARE_THREADS"] = previous
        with open(first, "rb") as fh:
            bytes_a = fh.read()
        with open(second, "rb") as fh:
            bytes_b = fh.read()
    identical = bytes_a == bytes_b
    return CheckResult("8 sweep determinism", identical,
                       f"{len(bytes_a)} bytes, identical with 4 and 1 workers: "
                       f"{identical}", time.monotonic() - start)


def run_all(params: ScenarioParams) -> list[CheckResult]:
    """Every acceptance check at full scale, in order, on the effective
    scenario: an outage tolerance caps the shared-band power first."""
    params = analytic.apply_power_budget(validate(params))
    results = [
        check_outage_oracle(params),
        check_power_identity(params),
        check_service_cdf_match(params),
        check_capacity_distributions(params),
        check_queue_theory(params),
        check_classical_queues(),
    ]
    results.extend(check_trend_suite(params))
    results.append(check_determinism(params))
    return results
