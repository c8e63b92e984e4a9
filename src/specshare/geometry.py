"""Batch sampling of interferer fields, link capacities, and service delays.

The interferer field is a homogeneous Poisson point process on a finite disk
around the typical receiver; the serving base station sits at its fixed
scenario distance and small-scale fading is unit-mean exponential on every
link. Each sampled packet re-draws the whole field, so successive service
delays are i.i.d. as the queueing analysis assumes, and draws each band once
for every mode that uses it.
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


def sample_capacities(params: ScenarioParams, modes: tuple[ServiceMode, ...], n: int,
                      rng: np.random.Generator) -> dict[ServiceMode, np.ndarray]:
    """n draws of each mode's bandwidth-scaled capacity (bits/s), the
    denominator of its service delay: the proprietary band from rng, the
    shared band from rng.spawn(1)[0], combined their sum. So the modes share
    link states packet by packet, and no mode's draws depend on the others.
    """
    p = params
    bands = {}
    if any(mode is not ServiceMode.SHARED_ONLY for mode in modes):
        g0 = rng.exponential(size=n)
        with np.errstate(divide="ignore"):
            snr = p.p_m * p.n_m * p.y0 ** (-p.alpha) * g0 / (p.noise_psd * p.b_m)
        bands[ServiceMode.PROPRIETARY_ONLY] = p.b_m * np.log2(1.0 + snr)
    if any(mode is not ServiceMode.PROPRIETARY_ONLY for mode in modes):
        shared_rng = rng.spawn(1)[0]
        interference = sample_interference_batch(
            p.p_h, p.lambda_h, p.mc_radius, p.alpha, n, shared_rng)
        k0 = shared_rng.exponential(size=n)
        sinr = p.p_m_shared * p.y0 ** (-p.alpha) * k0 \
            / (interference + p.noise_psd * p.b_h / p.n_m)
        bands[ServiceMode.SHARED_ONLY] = p.b_h * np.log2(1.0 + sinr)
    if ServiceMode.COMBINED in modes:
        bands[ServiceMode.COMBINED] = (bands[ServiceMode.SHARED_ONLY]
                                       + bands[ServiceMode.PROPRIETARY_ONLY])
    return {mode: bands[mode] for mode in modes}


def sample_service_delays(params: ScenarioParams, modes: tuple[ServiceMode, ...], n: int,
                          rng: np.random.Generator) -> dict[ServiceMode, np.ndarray]:
    """n i.i.d. per-packet service delays (s) of each mode; +inf on zero capacity."""
    with np.errstate(divide="ignore"):
        return {mode: params.u_m * params.n_m / capacities for mode, capacities
                in sample_capacities(params, modes, n, rng).items()}
