"""Batch sampling of interferer fields, link capacities, and service delays.

The interferer field is a homogeneous Poisson point process on a finite disk
around the typical receiver; the serving base station sits at its fixed
scenario distance and small-scale fading is unit-mean exponential on every
link. Each sampled packet re-draws the whole field, so successive service
delays are i.i.d. as the queueing analysis assumes, and draws each band once
for every mode that uses it. The shared band reads its fields from a caller
when given them, so a sweep point's queue run reads fields the sweep drew.
A field is summed at unit power and scaled by its power at the end, so a field
at power P is bitwise P times the unit-power field of the same draws.
A call whose expected PPP point count exceeds MAX_FIELD_POINTS raises
FieldBudgetError before any draw. Fields are drawn in chunks of about
_CHUNK_POINTS points, which fix the order of the random draws, and summed in
pieces of _PIECE_POINTS points, which bound the memory at any density without
changing a draw.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .model import ScenarioParams, ServiceMode

# PPP points per chunk of fields. A chunk draws its fields' point counts, then
# one radius uniform per point, then one fading gain per point, so changing
# this value changes every seeded sample.
_CHUNK_POINTS = 4_000_000
# points per in-place working piece: bounds memory, leaves the draws alone
_PIECE_POINTS = 1 << 16
# expected PPP points one call may draw: about 30-45 s at the 4.5e7-6.4e7
# points/s traced in sweeps
MAX_FIELD_POINTS = 2e9


class FieldBudgetError(ValueError):
    """A field draw whose expected point count exceeds MAX_FIELD_POINTS."""


def check_field_budget(n: int, density: float, radius: float) -> float:
    """The expected PPP point count of one field; raises FieldBudgetError when
    n fields of it exceed MAX_FIELD_POINTS."""
    mean_count = density * math.pi * radius * radius
    if n * mean_count > MAX_FIELD_POINTS:
        raise FieldBudgetError(
            f"{n} interferer fields of {mean_count:.3g} expected points each "
            f"({n * mean_count:.3g} points) exceed the Monte Carlo budget of "
            f"{MAX_FIELD_POINTS:.3g} points")
    return mean_count


def sample_interference_batch(power: float, density: float, radius: float,
                              alpha: float, n: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Aggregate interference power for n independent PPP realizations.

    Each chunk's points are worked through _PIECE_POINTS at a time, a field
    that straddles pieces adding up across them, so memory stays bounded at
    any density. The uniforms are read from a copy of rng's bit generator,
    and rng itself is moved past them to draw the gains, which assumes one
    64-bit output per uniform: true of PCG64, the bit generator of every
    default_rng and spawned Generator in this program.
    """
    mean_count = check_field_budget(n, density, radius)
    per_chunk = max(1, int(_CHUNK_POINTS / max(mean_count, 1.0)))
    out = np.zeros(n)
    uniforms = np.empty(_PIECE_POINTS)
    gains = np.empty(_PIECE_POINTS)
    for start in range(0, n, per_chunk):
        m = min(per_chunk, n - start)
        counts = rng.poisson(mean_count, size=m)
        occupied = np.flatnonzero(counts)
        first_points = np.cumsum(counts[occupied]) - counts[occupied]
        total = int(counts.sum())
        uniform_rng = np.random.Generator(copy.deepcopy(rng.bit_generator))
        rng.bit_generator.advance(total)
        for lo in range(0, total, _PIECE_POINTS):
            k = min(_PIECE_POINTS, total - lo)
            piece = uniform_rng.random(out=uniforms[:k])
            np.sqrt(piece, out=piece)
            piece *= radius
            with np.errstate(divide="ignore"):
                piece **= -alpha
            # the draws of rng.exponential(size=k), written into gains
            piece *= rng.standard_exponential(out=gains[:k])
            first = np.searchsorted(first_points, lo, side="right") - 1
            last = np.searchsorted(first_points, lo + k)
            offsets = first_points[first:last] - lo
            offsets[0] = 0
            out[start + occupied[first:last]] += np.add.reduceat(piece, offsets)
    out *= power
    return out


def sample_capacities(params: ScenarioParams, modes: tuple[ServiceMode | str, ...], n: int,
                      rng: np.random.Generator,
                      interference: np.ndarray | None = None) -> dict[ServiceMode, np.ndarray]:
    """n draws of each mode's bandwidth-scaled capacity (bits/s), the
    denominator of its service delay, keyed by ServiceMode: the proprietary
    band from rng, the shared band from rng.spawn(1)[0], combined their sum.
    So the modes share link states packet by packet, and no mode's draws
    depend on the others. Each mode is a ServiceMode or its name, else
    ValueError.

    The shared band reads its n fields from interference, an array of at
    least n fields drawn with this scenario's law (a sweep passes the fields
    it drew), and raises ValueError when given fewer; with none given it
    draws its own n.
    """
    p = params
    modes = tuple(ServiceMode(mode) for mode in modes)
    bands = {}
    if any(mode is not ServiceMode.SHARED_ONLY for mode in modes):
        g0 = rng.exponential(size=n)
        with np.errstate(divide="ignore"):
            snr = p.p_m * p.n_m * p.y0 ** (-p.alpha) * g0 / (p.noise_psd * p.b_m)
        bands[ServiceMode.PROPRIETARY_ONLY] = p.b_m * np.log2(1.0 + snr)
    if any(mode is not ServiceMode.PROPRIETARY_ONLY for mode in modes):
        shared_rng = rng.spawn(1)[0]
        fields = interference[:n] if interference is not None else sample_interference_batch(
            p.p_h, p.lambda_h, p.mc_radius, p.alpha, n, shared_rng)
        if fields.size < n:
            raise ValueError(f"{fields.size} interferer fields given for {n} packets")
        k0 = shared_rng.exponential(size=n)
        sinr = p.p_m_shared * p.y0 ** (-p.alpha) * k0 \
            / (fields + p.noise_psd * p.b_h / p.n_m)
        bands[ServiceMode.SHARED_ONLY] = p.b_h * np.log2(1.0 + sinr)
    if ServiceMode.COMBINED in modes:
        bands[ServiceMode.COMBINED] = (bands[ServiceMode.SHARED_ONLY]
                                       + bands[ServiceMode.PROPRIETARY_ONLY])
    return {mode: bands[mode] for mode in modes}


def sample_service_delays(params: ScenarioParams, modes: tuple[ServiceMode | str, ...], n: int,
                          rng: np.random.Generator,
                          interference: np.ndarray | None = None) -> dict[ServiceMode, np.ndarray]:
    """n i.i.d. per-packet service delays (s) of each mode, keyed by
    ServiceMode; +inf on zero capacity. modes and interference are passed to
    sample_capacities."""
    with np.errstate(divide="ignore"):
        return {mode: params.u_m * params.n_m / capacities for mode, capacities
                in sample_capacities(params, modes, n, rng, interference).items()}
