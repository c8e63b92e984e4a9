"""Closed-form results: outage probabilities, the shared-band power budget,
service-delay CDFs for all three spectrum modes, truncated service moments,
and M/G/1 mean delay and jitter.

Every formula here has an independent Monte Carlo counterpart in
``specshare.simulate``; the test suite holds the two sides together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ScenarioParams, ServiceMode, with_updates
from .quadrature import cdf_moment_integrals, convolve_cdf_pdf

# proprietary level where the combined-mode convolution stops (mass e^-50 past it)
_LEVEL_MAX = 50.0
_LN2 = math.log(2.0)


class UnstableQueueError(RuntimeError):
    """Arrival rate times mean service delay is at least one."""


class InfeasiblePowerError(RuntimeError):
    """No shared-band transmit power satisfies the outage tolerance."""


class WaitingTime(NamedTuple):
    mean: float      # s
    variance: float  # s^2


@dataclass(frozen=True)
class TruncatedMoments:
    """Moments of the deadline-truncated service delay min(S, t_out)."""

    m1: float         # s
    m2: float         # s^2
    m3: float         # s^3
    fail_prob: float  # P(raw service delay >= t_out)


@dataclass(frozen=True)
class DelayReport:
    """Steady-state delay metrics of the MTC downlink queue."""

    mean_service: float  # E[min(S, t_out)] (s)
    mean_waiting: float  # mean queueing delay (s)
    mean_delay: float    # mean sojourn = service + waiting (s)
    jitter: float        # sojourn variance: service variance + waiting variance (s^2)
    load: float          # arrival rate x mean service, < 1
    fail_prob: float     # deadline-miss probability per packet


def _interference_coeff(lambda_h: float, alpha: float) -> float:
    # multiplies distance^2 * s^(2/alpha) in every PPP Laplace-transform exponent
    return lambda_h * 2.0 * math.pi ** 2 / (alpha * math.sin(2.0 * math.pi / alpha))


def _htc_exponent(params: ScenarioParams) -> float:
    """Exponent of the licensed network's success probability (noise + interference)."""
    p = params
    noise_term = p.x0 ** p.alpha * p.theta_h * p.noise_psd * p.b_h / (p.n_h * p.p_h)
    interference_term = _interference_coeff(p.lambda_h, p.alpha) \
        * p.x0 ** 2 * p.theta_h ** (2.0 / p.alpha)
    return noise_term + interference_term


def outage_no_sharing(params: ScenarioParams) -> float:
    """Outage probability of the typical licensed user, licensed traffic only."""
    return -math.expm1(-_htc_exponent(params))


def outage_with_sharing(params: ScenarioParams) -> float:
    """Outage probability of the typical licensed user with the MTC BS active.

    The single cross link at distance y0 contributes a 1/(1 + c) prefactor to
    the success probability; everything else matches the no-sharing form.
    """
    p = params
    cross = p.x0 ** p.alpha * p.theta_h * (p.p_m_shared / p.p_h) * p.y0 ** (-p.alpha)
    return -math.expm1(-(_htc_exponent(params) + math.log1p(cross)))


def outage_increment(params: ScenarioParams) -> float:
    """Relative outage increase caused by sharing: (P' - P) / P."""
    base = outage_no_sharing(params)
    if base == 0.0:
        raise ValueError("baseline outage probability is zero; relative increment undefined")
    return (outage_with_sharing(params) - base) / base


def max_mbs_power(params: ScenarioParams) -> float:
    """Largest shared-band MTC power (W) keeping licensed outage within epsilon.

    Returns the raw bound expm1(-x - log1p(-epsilon)) x0^-alpha (P_h / theta_h)
    y0^alpha, with x the no-sharing outage exponent; this form neither
    overflows nor cancels. The bound may exceed p_max, and it is nonpositive
    when even zero power violates the tolerance; apply_power_budget applies
    both. It is infinite when theta_h = 0.
    """
    eps = params.epsilon
    if eps is None:
        raise ValueError("epsilon must be set to derive a power budget")
    if not 0.0 < eps < 1.0:
        raise ValueError("epsilon must lie in (0,1)")
    p = params
    if p.theta_h == 0.0:
        return math.inf  # outage is identically zero, any power is admissible
    cross = math.expm1(-_htc_exponent(params) - math.log1p(-eps))
    return cross * p.x0 ** (-p.alpha) * (p.p_h / p.theta_h) * p.y0 ** p.alpha


def apply_power_budget(params: ScenarioParams) -> ScenarioParams:
    """Replace the shared-band power with the epsilon bound, capped at p_max.

    No-op when epsilon is unset; raises InfeasiblePowerError when the
    tolerance is at or below the no-sharing outage floor.
    """
    if params.epsilon is None:
        return params
    bound = max_mbs_power(params)
    if not bound > 0.0:
        raise InfeasiblePowerError(
            f"outage tolerance {params.epsilon} is below the no-sharing outage "
            f"{outage_no_sharing(params):.6g}; no shared-band power is admissible")
    return with_updates(params, p_m_shared=min(params.p_max, bound))


class MomentKey(NamedTuple):
    """A mode's service law: all its truncated moments read (see moment_key)."""

    bits: float   # u_m * n_m
    t_out: float  # s
    shared: tuple | None       # _band_law of each band
    proprietary: tuple | None


def _band_law(params: ScenarioParams, band: ServiceMode) -> tuple[float, float, float, float]:
    """The width B, the interference exponent and the noise and interference
    coefficients of one band (SHARED_ONLY or PROPRIETARY_ONLY); see _band_tail."""
    p = params
    shared = band is ServiceMode.SHARED_ONLY
    width, power = (p.b_h, p.p_m_shared) if shared else (p.b_m, p.p_m)
    c_noise = p.y0 ** p.alpha * p.noise_psd * width / (power * p.n_m)
    if not shared:
        return width, 1.0, c_noise, 0.0
    c_int = _interference_coeff(p.lambda_h, p.alpha) * p.y0 ** 2 \
        * (p.p_h / p.p_m_shared) ** (2.0 / p.alpha)
    return width, 2.0 / p.alpha, c_noise, c_int


def moment_key(params: ScenarioParams, mode: ServiceMode | str) -> MomentKey:
    """The mode's service law: the bits of a packet round, the deadline and
    the law of each band the mode uses, None for the other. Nothing below
    reads the scenario or the mode, and the moment cache is keyed on this
    law, so a field no band of the mode reads, such as the arrival rate,
    shares its entry. mode is a ServiceMode or its name, else ValueError."""
    mode = ServiceMode(mode)
    shared, proprietary = ServiceMode.SHARED_ONLY, ServiceMode.PROPRIETARY_ONLY
    return MomentKey(params.u_m * params.n_m, params.t_out,
                     None if mode is proprietary else _band_law(params, shared),
                     None if mode is shared else _band_law(params, proprietary))


def _band_tail(law: tuple, array: bool = False):
    """P(capacity > rate) on one band, as a plain-float function of the rate
    in bits/s, or with array=True as an elementwise function of a numpy array
    of rates.

    The SINR threshold for rate r is beta = 2^(r/B) - 1, computed as
    expm1(r ln2 / B) so that it stays positive for the smallest rates; the
    tail is exp(-(c_noise*beta + c_int*beta^exponent)). Past the overflow and
    underflow guards it is exactly zero, or one when the band has neither
    noise nor interference.
    """
    width, exponent, c_noise, c_int = law
    inv_b, floor = 1.0 / width, 1.0 if (c_noise == 0.0 and c_int == 0.0) else 0.0

    def tail(rate: float) -> float:
        e = rate * inv_b
        if e <= 0.0:  # capacity is nonnegative
            return 1.0
        if e > 1020.0:  # 2**e overflows; the exponent is astronomically large
            return floor
        beta = math.expm1(e * _LN2)
        x = c_noise * beta + c_int * beta ** exponent
        if x >= 746.0:  # exp(-x) underflows, even to subnormals
            return floor
        return math.exp(-x)

    def tail_array(rate: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # where e <= 0, or e or x overflows, the guards decide
            e = rate * inv_b
            beta = np.expm1(np.minimum(e, 1020.0) * _LN2)
            x = c_noise * beta + c_int * beta ** exponent
            # exp(-x) is 0 from x = 746 on, as the scalar guard has it (x is 0
            # when the floor is 1)
            return np.where(e <= 0.0, 1.0, np.where(e > 1020.0, floor, np.exp(-x)))

    return tail_array if array else tail


def _capacity_tail(key: MomentKey, array: bool = False):
    """P(capacity > rate) for the law of key, as a plain-float function of the
    rate, or with array=True as an elementwise function of a numpy array of
    rates (the combined law one rate at a time).

    The combined capacity is the sum of the independent band capacities. The
    proprietary capacity C2(x) = B_m log2(1 + x / coeff) is increasing in its
    Exp(1) level x and stays below z while x < coeff * expm1(z ln2 / B_m), so
    P(C1 + C2 <= z) is the integral of F1(z - C2(x)) e^(-x) over those levels,
    stopped at _LEVEL_MAX. Where x / coeff or expm1 would overflow, both maps
    work in logs (ln x - ln coeff is then log1p(x / coeff) to within 1e-308).
    """
    if key.shared is None or key.proprietary is None:
        return _band_tail(key.shared or key.proprietary, array)  # the one band it holds
    width_m, _, coeff, _ = key.proprietary
    if coeff == 0.0:  # no noise: the proprietary capacity is almost surely infinite
        return np.vectorize(lambda z: 1.0, otypes=[float]) if array else lambda z: 1.0
    shared_tail = _band_tail(key.shared, array=True)
    F1 = lambda tau: 1.0 - shared_tail(tau)
    scale, log_coeff = width_m / _LN2, math.log(coeff)

    def rate_of_level(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore"):  # x / coeff may overflow
            ratio = x / coeff
            return scale * np.where(ratio < math.inf, np.log1p(ratio), np.log(x) - log_coeff)

    def tail(z: float) -> float:
        e = float(z) / scale  # a plain float overflows to inf without a warning
        level = coeff * math.expm1(e) if e < 700.0 else math.exp(min(700.0, log_coeff + e))
        return 1.0 - convolve_cdf_pdf(F1, rate_of_level, z, min(_LEVEL_MAX, max(0.0, level)))

    return np.vectorize(tail, otypes=[float]) if array else tail


def _service_cdf(key: MomentKey):
    # the service delay is at most t exactly when the capacity exceeds u_m * n_m / t
    tail = _capacity_tail(key)
    bits = key.bits
    return lambda t: tail(bits / t) if t > 0.0 else tail(math.inf)


def capacity_cdf(params: ScenarioParams, mode: ServiceMode | str, z):
    """CDF of the mode's capacity at z bits/s: the shared band B_h log2(1 + SINR),
    the proprietary band B_m log2(1 + SNR), or their sum (combined). A scalar z
    gives a float, an array one of its shape."""
    tail = _capacity_tail(moment_key(params, mode), array=True)(np.asarray(z, dtype=float))
    return 1.0 - (float(tail) if np.isscalar(z) else tail)


def service_cdf(params: ScenarioParams, mode: ServiceMode | str, t):
    """CDF of the per-packet service delay at time t for the given mode.

    Equals one minus the mode's capacity CDF evaluated at the required rate
    u_m * n_m / t. A scalar t gives a float, an array one of its shape.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("service delay argument must be nonnegative")
    key = moment_key(params, mode)
    with np.errstate(divide="ignore"):  # t = 0 asks for an infinite rate
        rate = key.bits / np.asarray(t, dtype=float)
    tail = _capacity_tail(key, array=True)(rate)
    return float(tail) if np.isscalar(rate) else tail


@lru_cache(maxsize=256)
def truncated_service_moments(key: MomentKey, mode: ServiceMode) -> TruncatedMoments:
    """First three moments of min(S, t_out) plus the deadline-miss probability,
    for the service law key = moment_key(params, mode).

    The k-th truncated moment is t_out^k minus k times the integral of
    t^(k-1) F(t) over [0, t_out]. Results are cached on the law, so a
    lambda_md sweep computes each mode's moments once, and a sweep of a
    shared-band field computes the proprietary moments once. The law is read
    from key alone; mode only labels the cache entry, and stays because the
    specbench tracer records each call's mode by that argument name.
    """
    F = _service_cdf(key)
    t_out = key.t_out
    on_time = F(t_out)
    i1, i2, i3 = cdf_moment_integrals(F, t_out)
    return TruncatedMoments(
        m1=max(0.0, t_out - i1),
        m2=max(0.0, t_out ** 2 - 2.0 * i2),
        m3=max(0.0, t_out ** 3 - 3.0 * i3),
        fail_prob=min(1.0, max(0.0, 1.0 - on_time)),
    )


def mg1_waiting(moments: TruncatedMoments, lambda_md: float) -> WaitingTime:
    """Mean and variance of the FCFS M/G/1 waiting delay.

    Mean is lambda * m2 / (2 (1 - rho)); the variance adds the third-moment
    term lambda * m3 / (3 (1 - rho)) to the squared mean.
    """
    if lambda_md < 0:
        raise ValueError("arrival rate must be nonnegative")
    if lambda_md == 0.0:
        return WaitingTime(0.0, 0.0)
    rho = lambda_md * moments.m1
    if rho >= 1.0:
        raise UnstableQueueError(
            f"queue unstable: load {rho:.6g} >= 1 "
            f"(lambda_md={lambda_md:.6g}/s, mean service {moments.m1:.6g} s)")
    mean = lambda_md * moments.m2 / (2.0 * (1.0 - rho))
    variance = mean * mean + lambda_md * moments.m3 / (3.0 * (1.0 - rho))
    return WaitingTime(mean, variance)


def delay_report(params: ScenarioParams, mode: ServiceMode | str) -> DelayReport:
    """Mean delay and jitter of the downlink queue in the given mode.

    Takes the effective scenario: params.p_m_shared is used as given, so a
    caller with an outage tolerance passes apply_power_budget(params).
    """
    mode = ServiceMode(mode)
    tm = truncated_service_moments(moment_key(params, mode), mode)
    wt = mg1_waiting(tm, params.lambda_md)
    service_variance = max(0.0, tm.m2 - tm.m1 ** 2)
    return DelayReport(
        mean_service=tm.m1,
        mean_waiting=wt.mean,
        mean_delay=tm.m1 + wt.mean,
        jitter=service_variance + wt.variance,
        load=params.lambda_md * tm.m1,
        fail_prob=tm.fail_prob,
    )
