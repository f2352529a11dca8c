"""Closed-form results: handover rates, coverage probability, costs, cluster sizing.

Handover rates follow from a boundary-length-intensity argument over the
cooperating cluster's circular footprint.  Coverage probability conditions on
the common edge distance R, integrates the interference out through its
Laplace transform, and sums the first m terms of the resulting derivative
series via a lower-triangular recursion (equivalently a Toeplitz solve).

The recursion's interference moments k_i(theta) are exact: with h = eta2/2
and x = 1/(1 + theta^h), k_0 = B(x; 1 - 1/h, 1/h)/h and
k_i = B(x; i - 1/h, 1 + 1/h)/h for i >= 1, where B is the incomplete beta
function (DLMF 8.17).  The one numerical integral is the adaptive
Gauss-Kronrod quadrature over the edge distance R, to relative tolerance
``_QUAD_TOL``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special
from scipy.linalg import solve_triangular

from .channel import PathLossParams
from .errors import NumericalError, ParameterError
from .geometry import kth_distance_pdf

__all__ = [
    "CostParams",
    "CoverageParams",
    "ToeplitzState",
    "handover_rate_gcho",
    "handover_rate_gchos",
    "signaling_overhead",
    "handover_cost",
    "cost_aware_coverage",
    "ase_cost",
    "overall_cost",
    "optimal_cluster_size",
    "k_integral",
    "laplace_interference",
    "toeplitz_state",
    "toeplitz_matrix_coefficients",
    "coverage_probability",
]

# ---------------------------------------------------------------------------
# handover rate family and costs
# ---------------------------------------------------------------------------

def handover_rate_gcho(speed: float, lambda_bs: float, m: int) -> float:
    """Group-cell handover rate 2*speed*sqrt(lambda_bs)/(sqrt(pi)*sqrt(m))."""
    if speed <= 0 or lambda_bs <= 0 or m < 1:
        raise ParameterError("speed, lambda_bs must be positive and m >= 1")
    return 2.0 * speed * np.sqrt(lambda_bs) / (np.sqrt(np.pi) * np.sqrt(m))


def handover_rate_gchos(speed: float, lambda_bs: float, m: int) -> float:
    """Executed-handover rate under skipping: exactly half the plain rate."""
    return 0.5 * handover_rate_gcho(speed, lambda_bs, m)


def signaling_overhead(mu: float, t_interval: float, m: int) -> float:
    """CSI feedback load (mu/t_interval)*m in messages per second."""
    if mu < 0 or t_interval <= 0 or m < 0:
        raise ParameterError("mu, m must be non-negative and t_interval positive")
    return mu / t_interval * m


def handover_cost(t_h: float, rate: float) -> float:
    """Fraction of time lost to handover signalling, t_h * rate.

    Values >= 1 mean the scenario spends all its time in signalling; they are
    reported as-is with a warning rather than clamped.
    """
    if t_h < 0 or rate < 0:
        raise ParameterError("t_h and rate must be non-negative")
    cost = t_h * rate
    if cost >= 1.0:
        warnings.warn(
            f"handover cost {cost:.3g} >= 1: the UE would spend all time in signalling",
            stacklevel=2,
        )
    return cost


def cost_aware_coverage(p: float, d_cost: float) -> float:
    """Coverage p*(1 - d_cost) of a mobile UE, discounted by its handover
    cost ``d_cost``."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    if not 0.0 <= d_cost <= 1.0:
        raise ParameterError(f"d_cost must lie in [0, 1], got {d_cost}")
    return p * (1.0 - d_cost)


def ase_cost(lambda_bs: float, tau: float, p_tilde: float) -> float:
    """Area spectral efficiency lambda_bs * log2(1 + tau) * p_tilde."""
    if lambda_bs <= 0 or tau < 0:
        raise ParameterError("lambda_bs must be positive and tau non-negative")
    return lambda_bs * np.log2(1.0 + tau) * p_tilde


@dataclass(frozen=True)
class CostParams:
    """Weights of the overall-cost tradeoff."""

    t_h: float = 0.3
    s1: float = 0.3
    s2: float = 5e-5
    mu: float = 1.0
    t_interval: float = 5e-3

    def __post_init__(self) -> None:
        for name in ("t_h", "s1", "s2", "mu", "t_interval"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be strictly positive")


#: closed-form handover rate of each scheme, keyed by its name
_SCHEME_RATES = {"gcho": handover_rate_gcho, "gchos": handover_rate_gchos}


def _check_scheme(scheme: str) -> None:
    if scheme not in _SCHEME_RATES:
        raise ParameterError(f"unknown scheme {scheme!r}; expected 'gcho' or 'gchos'")


def overall_cost(
    scheme: str, costs: CostParams, speed: float, lambda_bs: float, m: int
) -> float:
    """Weighted sum s1*rate + s2*signalling of handover and feedback load."""
    _check_scheme(scheme)
    rate = _SCHEME_RATES[scheme](speed, lambda_bs, m)
    return costs.s1 * rate + costs.s2 * signaling_overhead(costs.mu, costs.t_interval, m)


def optimal_cluster_size(
    scheme: str, costs: CostParams, speed: float, lambda_bs: float
) -> tuple[float, int]:
    """Cluster size minimising :func:`overall_cost`.

    Returns the continuous stationary point
    (s1^2 speed^2 T^2 lambda / (pi mu^2 s2^2))^(1/3), divided by 4^(1/3) for
    the skipping scheme, plus the integer argmin of the cost over its two
    neighbours (at least 1).
    """
    if speed <= 0 or lambda_bs <= 0:
        raise ParameterError("speed and lambda_bs must be positive")
    _check_scheme(scheme)
    denom = np.pi * costs.mu**2 * costs.s2**2
    if scheme == "gchos":
        denom *= 4.0
    m_star = (costs.s1**2 * speed**2 * costs.t_interval**2 * lambda_bs / denom) ** (1.0 / 3.0)
    lo = max(1, int(np.floor(m_star)))
    candidates = {lo, lo + 1, 1}
    m_int = min(candidates, key=lambda m: overall_cost(scheme, costs, speed, lambda_bs, m))
    return float(m_star), int(m_int)


# ---------------------------------------------------------------------------
# coverage probability machinery
# ---------------------------------------------------------------------------

def k_integral(i: int | np.ndarray, theta: float, eta2: float) -> float | np.ndarray:
    """Interference moment integrals k_i(theta) of the orders ``i``.

    With h = eta2/2, order 0 is int_theta^inf du / (1 + u^h) and orders
    i >= 1 are int_theta^inf u^h / (1 + u^h)^(i+1) du.  Substituting
    t = 1/(1 + u^h) turns both into incomplete beta functions
    B(x; a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt (DLMF 8.17.1):

        k_0(theta) = B(x; 1 - 1/h, 1/h) / h,
        k_i(theta) = B(x; i - 1/h, 1 + 1/h) / h,   x = 1/(1 + theta^h),

    evaluated as ``beta(a, b) * betainc(a, b, x)``.  ``i`` may be one order
    (returns a float) or an array of orders (returns an array of the same
    shape), so that a whole recursion's k values cost one call.
    """
    order = np.asarray(i)
    if (order < 0).any() or (order % 1).any():
        raise ParameterError(f"orders must be non-negative integers, got {i}")
    if theta < 0:
        raise ParameterError(f"theta must be non-negative, got {theta}")
    if eta2 <= 2.0:
        raise ParameterError(
            f"the interference integrals diverge for eta2 <= 2 (got {eta2})"
        )
    h = eta2 / 2.0
    zero = order == 0  # order 0 shifts (a, b) from (i - 1/h, 1 + 1/h) by (+1, -1)
    a = order - 1.0 / h + zero
    b = 1.0 + 1.0 / h - zero
    try:
        x = 1.0 / (1.0 + float(theta) ** h)
    except OverflowError:  # theta^h beyond the float range: every k_i is 0
        x = 0.0
    k = special.beta(a, b) * special.betainc(a, b, x) / h
    return float(k) if k.ndim == 0 else k


def laplace_interference(
    s: float,
    lambda_bs: float,
    big_r: float,
    pathloss: PathLossParams,
) -> float:
    """Laplace transform at ``s`` of the far-branch interference from a PPP
    outside radius ``big_r``:

        exp(-pi * lambda * (s*Lambda)^(2/eta2) * k_0(theta)),
        theta = big_r^2 / (s*Lambda)^(2/eta2).
    """
    if s < 0:
        raise ParameterError(f"s must be non-negative, got {s}")
    if s == 0.0 or lambda_bs == 0.0:
        return 1.0
    if lambda_bs < 0:
        raise ParameterError(f"lambda_bs must be non-negative, got {lambda_bs}")
    eta2 = pathloss.eta2
    sl = (s * pathloss.continuity_constant) ** (2.0 / eta2)
    theta = big_r**2 / sl
    return float(np.exp(-np.pi * lambda_bs * sl * k_integral(0, theta, eta2)))


@dataclass(frozen=True)
class CoverageParams:
    """Inputs of the coverage probability computation (linear units)."""

    tau: float
    lambda_bs: float
    m: int
    pathloss: PathLossParams = field(default_factory=PathLossParams)

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ParameterError(f"tau must be positive (linear), got {self.tau}")
        if self.lambda_bs <= 0:
            raise ParameterError(f"lambda_bs must be positive, got {self.lambda_bs}")
        if self.m < 1 or int(self.m) != self.m:
            raise ParameterError(f"m must be a positive integer, got {self.m}")


@dataclass(frozen=True)
class ToeplitzState:
    """Per-edge-distance state of the derivative recursion."""

    k_values: np.ndarray
    a_values: np.ndarray
    b0: float
    theta: float

    def __post_init__(self) -> None:
        # a_0 is a Laplace transform value in (0, 1]; exp() may underflow it
        # to exactly 0.0 for extreme parameter combinations
        if not 0.0 <= self.a_values[0] <= 1.0:
            raise ParameterError("a_0 must lie in (0, 1]")
        if np.any(np.asarray(self.k_values) < 0) or self.theta < 0:
            raise ParameterError("k integrals and theta must be non-negative")

    @property
    def coverage_term(self) -> float:
        """Conditional coverage at this edge distance: sum of the a_n."""
        return float(np.sum(self.a_values))


def toeplitz_state(params: CoverageParams, big_r: float) -> ToeplitzState:
    """Evaluate a_0..a_{m-1} at edge distance ``big_r`` by direct recursion.

    a_0 = exp(-b0 * k_0(theta)) and, for n >= 1,

        a_n = b0 * sum_{i=0}^{n-1} ((n-i)/n) * k_{n-i}(theta) * a_i,

    which reproduces ((-s)^n / n!) times the n-th derivative of the
    interference Laplace transform (cross-checked against numerical
    differentiation in the test suite).
    """
    if big_r <= 0:
        raise ParameterError(f"big_r must be positive, got {big_r}")
    s = params.tau * big_r**params.pathloss.eta1
    sl = (s * params.pathloss.continuity_constant) ** (2.0 / params.pathloss.eta2)
    theta = big_r**2 / sl
    b0 = np.pi * params.lambda_bs * sl
    k = k_integral(np.arange(params.m), theta, params.pathloss.eta2)
    a = np.empty(params.m)
    a[0] = np.exp(-b0 * k[0])
    for n in range(1, params.m):
        i = np.arange(n)
        a[n] = b0 * np.sum((n - i) / n * k[n - i] * a[i])
    return ToeplitzState(k_values=k[1:], a_values=a, b0=float(b0), theta=float(theta))


def toeplitz_matrix_coefficients(state: ToeplitzState) -> np.ndarray:
    """Recompute a_1..a_{m-1} from ``state`` through the explicit matrix form.

    The recursion stacks into (I - b0*F) a = b0*a0*g with F the strictly lower
    triangular Toeplitz matrix F[n, i] = ((n-i)/n) k_{n-i} and g[n] = k_n;
    solving the triangular system is an independent evaluation path used to
    cross-check the direct recursion.
    """
    m1 = state.k_values.size  # = m - 1
    if m1 == 0:
        return state.a_values.copy()
    k = state.k_values  # k[j-1] = k_j
    F = np.zeros((m1, m1))
    for n in range(1, m1 + 1):
        for i in range(1, n):
            F[n - 1, i - 1] = (n - i) / n * k[n - i - 1]
    rhs = state.b0 * state.a_values[0] * k
    a_tail = solve_triangular(np.eye(m1) - state.b0 * F, rhs, lower=True)
    return np.concatenate([[state.a_values[0]], a_tail])


#: relative tolerance of the outer coverage quadrature over the edge distance
_QUAD_TOL = 1e-8


def _edge_density(params: CoverageParams):
    """Outer integration weight: the edge law f(R) = 2 (pi L)^2 R^3
    exp(-pi L R^2), the second-nearest law, for m >= 2; the nearest-distance
    law for the documented m = 1 mode."""
    order = 2 if params.m >= 2 else 1
    return lambda r: kth_distance_pdf(r, order, params.lambda_bs)


def coverage_probability(params: CoverageParams) -> float:
    """Probability that the edge-UE SIR exceeds the threshold.

    Conditional coverage (a_0 + ... + a_{m-1}) is integrated over the edge
    distance law, truncated where the density's remaining mass is < 1e-10.
    For m >= 2 the outer weight is the edge law, the second-nearest law of
    :func:`udngc.geometry.kth_distance_pdf`; m = 1 is a separate documented
    mode using the nearest-distance law.  The result is clamped to [0, 1]
    only after the quadrature has converged, with a warning if the excursion
    exceeds float noise.
    """
    density = _edge_density(params)

    def integrand(big_r: float) -> float:
        if big_r <= 0.0:
            return 0.0
        return density(big_r) * toeplitz_state(params, big_r).coverage_term

    r_max = 2.0 * np.sqrt(-np.log(1e-10) / (np.pi * params.lambda_bs))
    out = integrate.quad(
        integrand, 0.0, r_max, epsabs=1e-12, epsrel=_QUAD_TOL, limit=200,
        full_output=1,
    )
    if len(out) > 3:
        raise NumericalError(f"coverage quadrature did not converge: {out[3]}")
    value = out[0]
    if not 0.0 <= value <= 1.0:
        if value < -1e-12 or value > 1.0 + 1e-12:
            warnings.warn(f"coverage {value!r} clamped into [0, 1]", stacklevel=2)
        value = min(1.0, max(0.0, value))
    return float(value)
