"""Spatial primitives: PPP sampling and distance laws.

Base stations are modelled as a homogeneous Poisson point process (PPP)
sampled inside a finite disk around the origin.  The disk stands in for the
infinite plane; callers keep a guard band between the area of interest and
the disk's edge so that nearest-neighbour statistics stay unbiased.
"""
from __future__ import annotations

import numpy as np
from numpy.random import default_rng
from scipy.special import gammaln

from .errors import ParameterError

__all__ = ["guard_radius", "sample_ppp", "kth_distance_pdf"]


def guard_radius(density: float) -> float:
    """Edge margin 3/sqrt(pi*density) inside which window-boundary effects on
    k-nearest statistics are negligible."""
    if density <= 0:
        raise ParameterError(f"density must be positive, got {density}")
    return 3.0 / np.sqrt(np.pi * density)


def sample_ppp(density: float, radius: float, seed: int) -> np.ndarray:
    """Sample a homogeneous PPP of the given density in the disk of
    ``radius`` around the origin, as an (n, 2) array of points.

    The point count is Poisson(density * area) and positions are i.i.d.
    uniform over the disk.  Deterministic for a fixed seed.
    """
    if density <= 0:
        raise ParameterError(f"density must be positive, got {density}")
    if not radius > 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    rng = default_rng(seed)
    n = rng.poisson(density * (np.pi * radius**2))
    r = radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def kth_distance_pdf(r, m: int, density: float):
    """Density of the distance to the m-th nearest point of a PPP.

    f(r) = 2 (pi L)^m / Gamma(m) * exp(-L pi r^2) * r^(2m-1), L = density.
    Evaluated in log space so large m stays finite.
    """
    if m < 1 or int(m) != m:
        raise ParameterError(f"m must be a positive integer, got {m}")
    if density <= 0:
        raise ParameterError(f"density must be positive, got {density}")
    r_arr = np.asarray(r, dtype=float)[()]  # a scalar r stays a scalar
    if (r_arr < 0).any():
        raise ParameterError("r must be non-negative")
    with np.errstate(divide="ignore"):  # log 0 = -inf: the density is 0 at r = 0
        log_pdf = (
            np.log(2.0)
            + m * np.log(np.pi * density)
            - gammaln(m)
            - density * np.pi * r_arr**2
            + (2 * m - 1) * np.log(r_arr)
        )
    out = np.exp(log_pdf)
    return out if np.ndim(out) else float(out)
