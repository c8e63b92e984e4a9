"""Numerical integration primitives.

Wraps adaptive Gauss-Kronrod quadrature (QUADPACK via scipy) behind a small
contract used by every closed-form delay expression: plain integrals,
CDF-moment integrals over the deadline window, and the capacity-distribution
convolution over an exponential level.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from scipy import integrate as _scipy_integrate

# adaptive quadrature tolerances and subdivision limit, shared by every integral
REL_TOL = 1e-8
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 2000


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within the allowed subdivisions."""


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive estimate of the integral of f over [a, b].

    Raises QuadratureError instead of silently returning a low-quality
    estimate when the adaptive subdivision gives up.
    """
    if a == b:
        return 0.0
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")
    result = _scipy_integrate.quad(
        f, a, b,
        epsabs=ABS_TOL, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS, full_output=True,
    )
    if len(result) > 3:
        raise QuadratureError(" ".join(str(result[3]).split()))  # one-line message
    return float(result[0])


def cdf_moment_integrals(F: Callable[[float], float],
                         t_out: float) -> tuple[float, float, float]:
    """Integrals of F, t*F, and t^2*F over [0, t_out].

    These are exactly the terms subtracted from t_out^k in the truncated
    service-delay moments. The three rules visit mostly the same nodes, so F
    is evaluated once per distinct node; F must be deterministic.
    """
    if t_out <= 0:
        raise ValueError(f"t_out must be positive, got {t_out}")
    F = functools.cache(F)  # lives for this call only
    i1 = integrate(F, 0.0, t_out)
    i2 = integrate(lambda t: t * F(t), 0.0, t_out)
    i3 = integrate(lambda t: t * t * F(t), 0.0, t_out)
    return i1, i2, i3


def convolve_cdf_pdf(F1: Callable[[float], float], rate_of_level: Callable[[float], float],
                     z: float, level_max: float) -> float:
    """CDF at z of C1 + C2 for independent nonnegative C1 and C2, where C1 has
    CDF F1 and C2 = rate_of_level(X) is increasing in an Exp(1) level X.

    Evaluates the integral over x in [0, level_max] of F1(z - rate_of_level(x))
    * e^(-x): the convolution of F1 with C2's law, written over C2's level.
    The caller passes as level_max the level at which C2 reaches z, capped
    where the e^(-x) mass beyond it is negligible.
    """
    if level_max <= 0.0:
        return 0.0
    value = integrate(lambda x: F1(z - rate_of_level(x)) * math.exp(-x), 0.0, level_max)
    return min(1.0, max(0.0, value))
