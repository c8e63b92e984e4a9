"""Batch sampling of interferer fields, link capacities, and service delays.

The interferer field is a homogeneous Poisson point process on a finite disk
around the typical receiver; the serving base station sits at its fixed
scenario distance and small-scale fading is unit-mean exponential on every
link. Each sampled packet re-draws the whole field, so successive service
delays are i.i.d. as the queueing analysis assumes.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ScenarioParams, ServiceMode

# cap on PPP points materialized per numpy batch (memory bound)
_CHUNK_POINTS = 4_000_000


def sample_interference_batch(power: float, density: float, radius: float,
                              alpha: float, n: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Aggregate interference power for n independent PPP realizations.

    Chunked so at most a few million field points are materialized at once.
    """
    mean_count = density * math.pi * radius * radius
    per_chunk = max(1, int(_CHUNK_POINTS / max(mean_count, 1.0)))
    out = np.empty(n)
    for start in range(0, n, per_chunk):
        m = min(per_chunk, n - start)
        counts = rng.poisson(mean_count, size=m)
        total = int(counts.sum())
        radii = radius * np.sqrt(rng.random(total))
        gains = rng.exponential(size=total)
        with np.errstate(divide="ignore"):
            contrib = power * radii ** (-alpha) * gains
        owners = np.repeat(np.arange(m), counts)
        out[start:start + m] = np.bincount(owners, weights=contrib, minlength=m)
    return out


def _shared_capacities(params: ScenarioParams, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """n draws of the shared-band capacity B_h * log2(1 + SINR), bits/s."""
    p = params
    interference = sample_interference_batch(
        p.p_h, p.lambda_h, p.mc_radius, p.alpha, n, rng)
    k0 = rng.exponential(size=n)
    sinr = p.p_m_shared * p.y0 ** (-p.alpha) * k0 \
        / (interference + p.noise_psd * p.b_h / p.n_m)
    return p.b_h * np.log2(1.0 + sinr)


def _proprietary_capacities(params: ScenarioParams, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """n draws of the proprietary-band capacity B_m * log2(1 + SNR), bits/s."""
    p = params
    g0 = rng.exponential(size=n)
    with np.errstate(divide="ignore"):
        snr = p.p_m * p.n_m * p.y0 ** (-p.alpha) * g0 / (p.noise_psd * p.b_m)
    return p.b_m * np.log2(1.0 + snr)


def sample_total_capacities(params: ScenarioParams, mode: ServiceMode, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """n draws of the bandwidth-scaled capacity serving one packet (bits/s).

    This is the denominator of the service-delay expression for the mode; in
    combined mode the shared draws come first, so runs seeded identically to a
    shared-only run share the same interferer fields.
    """
    if mode is ServiceMode.PROPRIETARY_ONLY:
        return _proprietary_capacities(params, n, rng)
    shared = _shared_capacities(params, n, rng)
    if mode is ServiceMode.SHARED_ONLY:
        return shared
    return shared + _proprietary_capacities(params, n, rng)


def sample_service_delays(params: ScenarioParams, mode: ServiceMode, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. per-packet service delays in seconds; +inf on zero capacity."""
    capacities = sample_total_capacities(params, mode, n, rng)
    with np.errstate(divide="ignore"):
        return params.u_m * params.n_m / capacities
