"""Monte Carlo oracles: outage estimation over interferer fields, the
sup-norm distance of a sample to a closed-form CDF, and a deadline-truncated
FCFS M/G/1 queue. Service-delay samples come from
``geometry.sample_service_delays``. The outage estimator draws its trials
or takes a sweep's common draw of them; a sweep draws every field its queue
runs read with ``draw_outage_trials`` too, so its point runs draw no field.

These estimators share no code path with the closed forms in
``specshare.analytic``; agreement between the two is the package's core
correctness argument.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .model import ScenarioParams, ServiceMode

logger = logging.getLogger(__name__)

# leading fraction of each simulated queue run excluded from its statistics
WARMUP_FRAC = 0.1


@dataclass(frozen=True)
class ProbEstimate:
    """Binomial frequency estimate with its standard error."""

    mean: float
    std_error: float
    n_trials: int


@dataclass(frozen=True)
class QueueStats:
    """Steady-state statistics of one simulated queue run.

    The standard errors are moment-based, treating packets as independent;
    autocorrelation in heavy traffic makes them slightly optimistic.
    """

    mean_sojourn: float         # s
    sojourn_variance: float     # s^2, unbiased over post-warmup packets
    mean_waiting: float         # s
    fail_fraction: float        # fraction of packets missing the deadline
    n_packets: int              # total packets simulated (warmup included)
    warmup_discarded: int       # leading packets excluded from statistics
    se_mean_sojourn: float      # s, standard error of mean_sojourn
    se_sojourn_variance: float  # s^2, standard error of sojourn_variance


def draw_outage_trials(params: ScenarioParams, n_trials: int, rng: np.random.Generator,
                       drawn: tuple | None = None) -> tuple:
    """n_trials outage trials at the scenario's density: (unit-power PPP
    fields, serving-link fading h0, cross-link fading g0, the density), drawn
    from rng in that order. Trials drawn at a lower density are topped up
    with an independent field of the density added (PPP superposition).
    Raises FieldBudgetError before any draw when the density is over budget."""
    p = params
    if drawn is None:
        unit = geometry.sample_interference_batch(1.0, p.lambda_h, p.mc_radius, p.alpha,
                                                  n_trials, rng)
        return unit, rng.exponential(size=n_trials), rng.exponential(size=n_trials), p.lambda_h
    unit, h0, g0, density = drawn
    geometry.check_field_budget(n_trials, p.lambda_h, p.mc_radius)
    if p.lambda_h > density:
        unit = unit + geometry.sample_interference_batch(
            1.0, p.lambda_h - density, p.mc_radius, p.alpha, n_trials, rng)
    return unit, h0, g0, max(density, p.lambda_h)


def estimate_outage_mc(params: ScenarioParams, n_trials: int,
                       rng: np.random.Generator | None, draws: tuple | None = None
                       ) -> tuple[ProbEstimate, ProbEstimate]:
    """Estimate licensed-user outage without and with sharing, in that order,
    from draws (a sweep's trials at this density; rng is then unused) or
    draw_outage_trials(params, n_trials, rng).

    Both estimates read the same trials, so sharing never falls below no
    sharing. Outage is h0 x0^-alpha < theta (I1 + N/P_h [+ P_ms y0^-alpha
    g0/P_h]), I1 the unit-power field: on common trials the estimates move
    monotonically with P_h and the density, rounding included.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    p = params
    unit, h0, g0, _ = draw_outage_trials(p, n_trials, rng) if draws is None else draws
    gain = p.x0 ** (-p.alpha) * h0
    no_sharing = unit + p.noise_psd * p.b_h / p.n_h / p.p_h
    sharing = no_sharing + p.p_m_shared * p.y0 ** (-p.alpha) / p.p_h * g0
    estimates = []
    for denominator in (no_sharing, sharing):
        mean = int(np.count_nonzero(gain < p.theta_h * denominator)) / n_trials
        estimates.append(ProbEstimate(mean, math.sqrt(mean * (1.0 - mean) / n_trials),
                                      n_trials))
    return tuple(estimates)


def ks_distance(samples, cdf) -> float:
    """Sup-norm distance between the empirical CDF of samples and the CDF of a
    law on [0, inf), taken on both sides of every jump. Tied samples make one
    jump, whose foot is compared with the law's left limit there: its value
    at the next float below, or 0 at zero. Only a run of two or more equal
    samples gets the left limit, so the law may have an atom only where
    samples tie."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    if n == 0:
        raise ValueError("ks_distance needs at least one sample")
    if ordered[0] < 0.0:
        raise ValueError("ks_distance compares with a law on [0, inf); a sample is negative")
    reference = np.asarray(cdf(ordered), dtype=float)
    upper = np.arange(1, n + 1) / n
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))  # of equal samples
    last = np.concatenate((first[1:], [True]))
    tied = first & ~last
    below = np.nextafter(ordered[tied], -math.inf)  # the float below each tie
    left = reference.copy()  # the law just below each jump
    left[tied] = np.where(below < 0.0, 0.0, cdf(np.maximum(below, 0.0)))
    return float(max(np.max(np.abs(reference - upper)[last]),
                     np.max(np.abs(left - upper + 1.0 / n)[first])))


def lindley_waits(arrival_times, services) -> np.ndarray:
    """FCFS waiting time of each packet from arrival times and service times.

    Solves the waiting-time recursion w[i] = max(0, w[i-1] + s[i-1] - a[i] + a[i-1])
    in closed form as a running maximum of cumulative sums.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    services = np.asarray(services, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrival and service arrays must have equal length")
    if arrivals.size == 0:
        return np.empty(0)
    increments = services[:-1] - np.diff(arrivals)
    cumulative = np.concatenate(([0.0], np.cumsum(increments)))
    return cumulative - np.minimum.accumulate(cumulative)


def queue_stats_from_trace(interarrivals, raw_services, t_out: float,
                           warmup: int) -> QueueStats:
    """Statistics of an FCFS single-server run with deadline truncation.

    A packet whose raw service delay reaches t_out is a deadline miss but
    still occupies the server for exactly t_out, matching the truncated
    moments the closed forms use.
    """
    interarrivals = np.asarray(interarrivals, dtype=float)
    raw = np.asarray(raw_services, dtype=float)
    n = raw.size
    if interarrivals.size != n:
        raise ValueError("interarrival and service arrays must have equal length")
    if not 0 <= warmup < n:
        raise ValueError(f"warmup must lie in [0, n), got {warmup} of {n}")

    effective = np.minimum(raw, t_out)
    waits = lindley_waits(np.cumsum(interarrivals), effective)
    sojourns = waits + effective

    kept = sojourns[warmup:]
    variance = float(kept.var(ddof=1)) if kept.size > 1 else 0.0
    m4 = float(np.mean((kept - kept.mean()) ** 4))
    return QueueStats(
        mean_sojourn=float(kept.mean()),
        sojourn_variance=variance,
        mean_waiting=float(waits[warmup:].mean()),
        fail_fraction=float(np.mean(raw[warmup:] >= t_out)),
        n_packets=int(n),
        warmup_discarded=int(warmup),
        se_mean_sojourn=math.sqrt(variance / kept.size),
        se_sojourn_variance=math.sqrt(max(m4 - variance * variance, 0.0) / kept.size),
    )


def run_mg1(params: ScenarioParams, modes: tuple[ServiceMode | str, ...], n_packets: int,
            rng: np.random.Generator,
            interference: np.ndarray | None = None) -> dict[ServiceMode, QueueStats]:
    """Simulate the MTC downlink queue in each mode: Poisson arrivals, fresh
    per-packet service delays, FCFS, deadline truncation; statistics with
    error bars, keyed by ServiceMode. All modes share the arrivals and band
    draws, from independent sub-streams of rng, so a seed reproduces each
    mode whatever the others. modes and interference, the shared band's
    fields, go to sample_service_delays.
    """
    if params.lambda_md <= 0:
        raise ValueError("lambda_md must be positive to drive arrivals")
    if n_packets < 1:
        raise ValueError("n_packets must be at least 1")
    arrival_rng, service_rng = rng.spawn(2)
    interarrivals = arrival_rng.exponential(1.0 / params.lambda_md, size=n_packets)
    warmup = min(int(round(WARMUP_FRAC * n_packets)), n_packets - 1)
    stats = {}
    for mode, raw in geometry.sample_service_delays(params, modes, n_packets,
                                                    service_rng, interference).items():
        observed_load = params.lambda_md * float(np.minimum(raw, params.t_out).mean())
        if observed_load >= 1.0:
            logger.warning("observed %s load %.3f >= 1; queue statistics will not converge",
                           mode.value, observed_load)
        stats[mode] = queue_stats_from_trace(interarrivals, raw, params.t_out, warmup)
    return stats


def run_mg1_detailed(params: ScenarioParams, mode: ServiceMode | str, n_packets: int,
                     rng: np.random.Generator) -> QueueStats:
    """run_mg1 for one mode, under the name specbench/layers.py traces."""
    return run_mg1(params, (mode,), n_packets, rng)[ServiceMode(mode)]
