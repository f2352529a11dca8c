"""Spatial primitives: PPP deployments and distance laws.

Base stations are modelled as a homogeneous Poisson point process (PPP)
sampled inside a finite circular window.  The window stands in for the
infinite plane; callers keep a guard band between the area of interest and
the window edge so that nearest-neighbour statistics stay unbiased.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng
from scipy.special import gammainc, gammaln

from .errors import ParameterError

__all__ = [
    "Window",
    "Deployment",
    "guard_radius",
    "sample_ppp",
    "kth_distance_pdf",
    "kth_distance_cdf",
    "edge_distance_pdf",
]


def guard_radius(density: float) -> float:
    """Edge margin 3/sqrt(pi*density) inside which window-boundary effects on
    k-nearest statistics are negligible."""
    if density <= 0:
        raise ParameterError(f"density must be positive, got {density}")
    return 3.0 / np.sqrt(np.pi * density)


@dataclass(frozen=True)
class Window:
    """Circular simulation region."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ParameterError(f"window radius must be positive, got {self.radius}")

    @property
    def area(self) -> float:
        return np.pi * self.radius**2

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean mask of points lying at least ``margin`` inside the boundary."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1])
        return d <= self.radius - margin + 1e-12 * self.radius


@dataclass(frozen=True, eq=False)
class Deployment:
    """One realisation of the BS point process.

    Immutable after creation; safe to share across workers.
    """

    points: np.ndarray
    density: float
    window: Window
    seed: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if not self.density > 0:
            raise ParameterError(f"density must be positive, got {self.density}")
        if pts.size and not self.window.contains(pts).all():
            raise ParameterError("deployment contains points outside its window")

    @property
    def size(self) -> int:
        return self.points.shape[0]


def sample_ppp(density: float, window: Window, seed: int) -> Deployment:
    """Sample a homogeneous PPP of the given density inside ``window``.

    The point count is Poisson(density * area) and positions are i.i.d.
    uniform over the disk.  Deterministic for a fixed seed.
    """
    if density <= 0:
        raise ParameterError(f"density must be positive, got {density}")
    rng = default_rng(seed)
    n = rng.poisson(density * window.area)
    r = window.radius * np.sqrt(rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.column_stack([
        window.center[0] + r * np.cos(phi),
        window.center[1] + r * np.sin(phi),
    ])
    return Deployment(points=pts, density=density, window=window, seed=seed)


def kth_distance_pdf(r, m: int, density: float):
    """Density of the distance to the m-th nearest point of a PPP.

    f(r) = 2 (pi L)^m / Gamma(m) * exp(-L pi r^2) * r^(2m-1), L = density.
    Evaluated in log space so large m stays finite.
    """
    if m < 1 or int(m) != m:
        raise ParameterError(f"m must be a positive integer, got {m}")
    if density <= 0:
        raise ParameterError(f"density must be positive, got {density}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ParameterError("r must be non-negative")
    out = np.zeros_like(r_arr)
    pos = r_arr > 0
    rp = r_arr[pos]
    log_pdf = (
        np.log(2.0)
        + m * np.log(np.pi * density)
        - gammaln(m)
        - density * np.pi * rp**2
        + (2 * m - 1) * np.log(rp)
    )
    out[pos] = np.exp(log_pdf)
    return out if out.ndim else float(out)


def kth_distance_cdf(r, m: int, density: float):
    """CDF matching :func:`kth_distance_pdf`: P(pi*density*r^2 area holds < m points)."""
    r_arr = np.asarray(r, dtype=float)
    out = gammainc(m, np.pi * density * r_arr**2)
    return out if out.ndim else float(out)


def edge_distance_pdf(r, density: float):
    """Distance density of the common edge-UE/cooperator separation R,

    f(R) = 2 (pi L)^2 R^3 exp(-pi L R^2),

    used as the outer weight of the coverage integral.  Algebraically this is
    the second-nearest law (:func:`kth_distance_pdf` with m=2); it is kept as
    its own routine because the coverage expression fixes this exact form.
    """
    if density <= 0:
        raise ParameterError(f"density must be positive, got {density}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ParameterError("r must be non-negative")
    out = 2.0 * (np.pi * density) ** 2 * r_arr**3 * np.exp(-np.pi * density * r_arr**2)
    return out if out.ndim else float(out)
