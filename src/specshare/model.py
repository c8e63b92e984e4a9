"""Scenario parameters, unit conversions, validation, and config parsing.

All quantities are stored in SI units (watts, meters, hertz, seconds, bits);
the config file accepts dBm for powers and bytes for the packet size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class ConfigError(ValueError):
    """Unparseable config text; message carries the offending line number."""


class ValidationError(ValueError):
    """One or more scenario invariants violated; lists every violation."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ServiceMode(Enum):
    """Which spectrum the machine-type BS uses to serve its devices."""

    SHARED_ONLY = "shared"          # shared band only (no proprietary spectrum)
    PROPRIETARY_ONLY = "proprietary"  # proprietary band only (no sharing)
    COMBINED = "combined"           # proprietary band plus the shared band


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level from dBm to watts."""
    if not math.isfinite(p_dbm):
        raise ValueError(f"power in dBm must be finite, got {p_dbm}")
    try:
        return 10.0 ** ((p_dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"power of {p_dbm} dBm overflows in watts") from None


def device_count(lambda_mu: float, workshop_area: float) -> int:
    """Map a device density to the number of served devices (at least one)."""
    devices = float(lambda_mu) * float(workshop_area)
    if not math.isfinite(devices):
        raise ValueError(f"device count lambda_mu * workshop_area must be finite, "
                         f"got {devices}")
    return max(1, int(round(devices)))


@dataclass(frozen=True)
class ScenarioParams:
    """Physical-layer, queueing, and simulation parameters of one scenario.

    Immutable after validation; safe to share across workers.
    """

    p_h: float = dbm_to_watts(24.0)         # licensed BS transmit power (W)
    p_m: float = dbm_to_watts(24.0)         # MTC BS power on the proprietary band (W)
    p_m_shared: float = dbm_to_watts(24.0)  # MTC BS power on the shared band (W)
    p_max: float = dbm_to_watts(24.0)       # MTC BS power cap (W)
    x0: float = 10.0          # typical user to serving licensed BS (m)
    y0: float = 10.0          # typical device (and user) to MTC BS (m)
    b_h: float = 2e7          # shared-band width (Hz)
    b_m: float = 1e8          # proprietary-band width (Hz)
    noise_psd: float = 1e-10  # noise power spectral density (W/Hz)
    alpha: float = 4.0        # path-loss exponent, must exceed 2
    u_m: float = 320.0        # packet size (bits); config key is in bytes
    t_out: float = 0.01       # service-delay deadline (s)
    lambda_h: float = 1e-4    # licensed BS density (1/m^2)
    lambda_md: float = 100.0  # packet arrival rate at the MTC BS (1/s)
    lambda_mu: float = 0.01   # MTC device density (1/m^2)
    n_h: int = 1000           # users per licensed BS
    n_m: int = 100            # MTC devices served by the MTC BS
    theta_h: float = 0.01     # licensed SINR threshold
    epsilon: float | None = None  # licensed outage tolerance; None = no power cap
    workshop_area: float = 1e4    # area mapping lambda_mu to n_m (m^2)
    mc_radius: float = 1000.0     # interferer-field disk radius for Monte Carlo (m)
    seed: int = 0                 # master RNG seed, >= 0


def _path_loss_is_float(distance: float, alpha: float) -> bool:
    """Whether distance ** alpha and distance ** -alpha are finite, nonzero floats."""
    try:
        return all(0.0 < distance ** e < math.inf for e in (alpha, -alpha))
    except OverflowError:
        return False


def _cube_is_float(value: float) -> bool:
    """Whether value ** 3 is a finite float, as the third truncated moment needs."""
    try:
        return value ** 3 < math.inf
    except OverflowError:
        return False


def validate(params: ScenarioParams) -> ScenarioParams:
    """Check every scenario invariant; return the params unchanged if all hold.

    Raises ValidationError naming every violated invariant. Noise density and
    the node densities/rates may be zero (degenerate but analyzable); transmit
    powers, bandwidths, and distances must be strictly positive.
    """
    problems = []

    def positive(name, value):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            problems.append(f"{name} must be positive, got {value!r}")

    def nonnegative(name, value):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            problems.append(f"{name} must be nonnegative, got {value!r}")

    for name in ("p_h", "p_m", "p_m_shared", "p_max", "x0", "y0", "b_h", "b_m",
                 "u_m", "workshop_area", "mc_radius"):
        positive(name, getattr(params, name))
    for name in ("noise_psd", "lambda_h", "lambda_md", "lambda_mu", "theta_h"):
        nonnegative(name, getattr(params, name))

    if not (math.isfinite(params.alpha) and params.alpha > 2):
        problems.append(f"alpha must exceed 2 (sin(2*pi/alpha) pole at 2), got {params.alpha!r}")
    else:
        for name in ("x0", "y0"):
            d = getattr(params, name)
            if isinstance(d, (int, float)) and 0 < d < math.inf \
                    and not _path_loss_is_float(d, params.alpha):
                problems.append(f"{name} ** alpha and {name} ** -alpha must be finite and "
                                f"nonzero, got {name} = {d!r}, alpha = {params.alpha!r}")
    if not (math.isfinite(params.t_out) and params.t_out > 0):
        problems.append("t_out must be positive")
    elif not _cube_is_float(params.t_out):
        problems.append(f"t_out ** 3 must be a finite float, got t_out = {params.t_out!r}")
    for name in ("n_h", "n_m"):
        value = getattr(params, name)
        if not (isinstance(value, int) and value >= 1):
            problems.append(f"{name} must be an integer >= 1, got {value!r}")
    if params.epsilon is not None and not (0.0 < params.epsilon < 1.0):
        problems.append("epsilon must lie in (0,1)")
    if not (isinstance(params.seed, int) and params.seed >= 0):
        problems.append(f"seed must be an integer >= 0, got {params.seed!r}")

    if problems:
        raise ValidationError(problems)
    return params


_INT_FIELDS = frozenset({"n_h", "n_m", "seed"})


def with_updates(params: ScenarioParams, **changes) -> ScenarioParams:
    """Return validated params with fields replaced.

    The one place n_m is derived: changing lambda_mu or workshop_area without
    an explicit n_m sets it to device_count(lambda_mu, workshop_area). Numeric
    values are coerced to plain Python scalars, keeping params canonical
    (hashable, round-trippable) even when callers pass numpy types.
    """
    if "n_m" not in changes and changes.keys() & {"lambda_mu", "workshop_area"}:
        changes["n_m"] = device_count(changes.get("lambda_mu", params.lambda_mu),
                                      changes.get("workshop_area", params.workshop_area))
    for key, value in changes.items():
        if value is None:
            continue
        changes[key] = int(value) if key in _INT_FIELDS else float(value)
    return validate(replace(params, **changes))


# Config key -> (field name, converter from the parsed float).
_COUNT = lambda v: int(round(v))
CONFIG_KEYS: dict[str, tuple] = {
    "P_h_dbm": ("p_h", dbm_to_watts),
    "P_m_dbm": ("p_m", dbm_to_watts),
    "P_m_shared_dbm": ("p_m_shared", dbm_to_watts),
    "P_max_dbm": ("p_max", dbm_to_watts),
    "x0_m": ("x0", float),
    "y0_m": ("y0", float),
    "B_h_hz": ("b_h", float),
    "B_m_hz": ("b_m", float),
    "N0_w_per_hz": ("noise_psd", float),
    "alpha": ("alpha", float),
    "U_m_bytes": ("u_m", lambda v: 8.0 * v),
    "t_out_s": ("t_out", float),
    "lambda_h_per_m2": ("lambda_h", float),
    "lambda_md_per_s": ("lambda_md", float),
    "lambda_mu_per_m2": ("lambda_mu", float),
    "N_h": ("n_h", _COUNT),
    "N_m": ("n_m", _COUNT),
    "theta_h": ("theta_h", float),
    "epsilon": ("epsilon", float),
    "workshop_area_m2": ("workshop_area", float),
    "mc_radius_m": ("mc_radius", float),
    "seed": ("seed", _COUNT),
}


def parse_config(text: str) -> ScenarioParams:
    """Parse a `key = value` config document into validated ScenarioParams.

    Lines are `key = value`, `#` starts a comment, blank lines are ignored.
    Unspecified keys take their defaults; with_updates applies the others, so
    N_m is derived from lambda_mu_per_m2 and workshop_area_m2 unless it is set.
    """
    assigned: dict[str, object] = {}
    line_of: dict[str, int] = {}
    problems: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in CONFIG_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        field_name, convert = CONFIG_KEYS[key]
        if field_name in line_of:
            problems.append(f"line {lineno}: key {key!r} given more than once "
                            f"(lines {line_of[field_name]} and {lineno})")
            continue
        line_of[field_name] = lineno
        try:
            number = float(value_text)
        except ValueError:
            problems.append(f"line {lineno}: malformed number {value_text!r} for key {key!r}")
            continue
        try:
            assigned[field_name] = convert(number)
        except (ValueError, OverflowError) as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))

    try:
        return with_updates(ScenarioParams(), **assigned)
    except ValidationError:
        raise
    except ValueError as exc:  # the derived device count is not finite
        line = min(line_of[f] for f in ("lambda_mu", "workshop_area") if f in line_of)
        raise ConfigError(f"line {line}: {exc}") from None
