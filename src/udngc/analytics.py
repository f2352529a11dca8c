"""Closed-form results: handover rates, coverage probability, costs, cluster sizing.

Handover rates follow from a boundary-length-intensity argument over the
cooperating cluster's circular footprint.  Coverage probability conditions on
the common edge distance R, integrates the interference out through its
Laplace transform, and sums the first m terms of the resulting derivative
series via a lower-triangular recursion (equivalently a Toeplitz solve).

The recursion's interference moments k_i(theta) are exact: with h = eta2/2
and x = 1/(1 + theta^h), k_0 = B(x; 1 - 1/h, 1/h)/h and
k_i = B(x; i - 1/h, 1 + 1/h)/h for i >= 1, where B is the incomplete beta
function (DLMF 8.17).  The one numerical integral is over the edge distance
R: a double-exponential (tanh-sinh) rule (Takahasi & Mori, Publ. RIMS 9,
1974) that halves its step until two levels agree to relative tolerance
``_QUAD_TOL``, evaluating the recursion at all of a level's new nodes at
once.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .channel import PathLossParams
from .errors import NumericalError, ParameterError, require_finite
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

def k_integral(
    i: int | np.ndarray, theta: float | np.ndarray, eta2: float
) -> float | np.ndarray:
    """Interference moment integrals k_i(theta) of the orders ``i``.

    With h = eta2/2, order 0 is int_theta^inf du / (1 + u^h) and orders
    i >= 1 are int_theta^inf u^h / (1 + u^h)^(i+1) du.  Substituting
    t = 1/(1 + u^h) turns both into incomplete beta functions
    B(x; a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt (DLMF 8.17.1):

        k_0(theta) = B(x; 1 - 1/h, 1/h) / h,
        k_i(theta) = B(x; i - 1/h, 1 + 1/h) / h,   x = 1/(1 + theta^h),

    evaluated as ``beta(a, b) * betainc(a, b, x)``.  ``i`` and ``theta`` may
    each be one value or an array; they broadcast against each other, so
    that a whole recursion's k values, at every edge distance, cost one
    call.  One order at one theta returns a float, anything else an array
    of the broadcast shape.
    """
    order = np.asarray(i)
    if (order < 0).any() or (order % 1).any():
        raise ParameterError(f"orders must be non-negative integers, got {i}")
    theta = np.asarray(theta, dtype=float)
    if (theta < 0).any():
        raise ParameterError(f"theta must be non-negative, got {theta}")
    if eta2 <= 2.0:
        raise ParameterError(
            f"the interference integrals diverge for eta2 <= 2 (got {eta2})"
        )
    h = eta2 / 2.0
    zero = order == 0  # order 0 shifts (a, b) from (i - 1/h, 1 + 1/h) by (+1, -1)
    a = order - 1.0 / h + zero
    b = 1.0 + 1.0 / h - zero
    # float_power rounds exactly as Python's float ** does, so one theta
    # gives the same k whether it comes alone or in an array
    with np.errstate(over="ignore"):  # theta^h beyond the float range: k_i = 0
        x = 1.0 / (1.0 + np.float_power(theta, h))
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


@dataclass(frozen=True, slots=True)
class CoverageParams:
    """Inputs of the coverage probability computation (linear units)."""

    tau: float
    lambda_bs: float
    m: int
    pathloss: PathLossParams = field(default_factory=PathLossParams)

    def __post_init__(self) -> None:
        require_finite(self)
        if self.tau <= 0:
            raise ParameterError(f"tau must be positive (linear), got {self.tau}")
        if self.lambda_bs <= 0:
            raise ParameterError(f"lambda_bs must be positive, got {self.lambda_bs}")
        if self.m < 1 or int(self.m) != self.m:
            raise ParameterError(f"m must be a positive integer, got {self.m}")


@dataclass(frozen=True)
class ToeplitzState:
    """State of the derivative recursion at one edge distance, or at an
    array of them along a leading node axis: ``a_values`` has shape
    (m,) or (nodes, m), ``k_values`` (m-1,) or (nodes, m-1), and ``b0`` and
    ``theta`` are floats or arrays of shape (nodes,)."""

    k_values: np.ndarray
    a_values: np.ndarray
    b0: float | np.ndarray
    theta: float | np.ndarray

    def __post_init__(self) -> None:
        # a_0 is a Laplace transform value in (0, 1]; exp() may underflow it
        # to exactly 0.0 for extreme parameter combinations
        a0 = self.a_values[..., 0]
        if not np.all((0.0 <= a0) & (a0 <= 1.0)):
            raise ParameterError("a_0 must lie in (0, 1]")
        if np.any(np.asarray(self.k_values) < 0) or np.any(np.asarray(self.theta) < 0):
            raise ParameterError("k integrals and theta must be non-negative")

    @property
    def coverage_term(self) -> float | np.ndarray:
        """Conditional coverage at each edge distance: sum of the a_n."""
        total = np.sum(self.a_values, axis=-1)
        return float(total) if total.ndim == 0 else total


def toeplitz_state(params: CoverageParams, big_r: float | np.ndarray) -> ToeplitzState:
    """Evaluate a_0..a_{m-1} at edge distance ``big_r`` by direct recursion.

    a_0 = exp(-b0 * k_0(theta)) and, for n >= 1,

        a_n = b0 * sum_{i=0}^{n-1} ((n-i)/n) * k_{n-i}(theta) * a_i,

    which reproduces ((-s)^n / n!) times the n-th derivative of the
    interference Laplace transform (cross-checked against numerical
    differentiation in the test suite).  ``big_r`` is one distance or a 1-D
    array of them; an array runs the recursion at every distance at once,
    along a leading node axis of the returned state.
    """
    big_r = np.asarray(big_r, dtype=float)
    if np.any(big_r <= 0):
        raise ParameterError(f"big_r must be positive, got {big_r}")
    s = params.tau * np.float_power(big_r, params.pathloss.eta1)
    sl = np.float_power(s * params.pathloss.continuity_constant, 2.0 / params.pathloss.eta2)
    theta = big_r**2 / sl
    b0 = np.pi * params.lambda_bs * sl
    k = k_integral(np.arange(params.m), theta[..., None], params.pathloss.eta2)
    a = np.empty(k.shape)
    a[..., 0] = np.exp(-b0 * k[..., 0])
    for n in range(1, params.m):
        i = np.arange(n)
        a[..., n] = b0 * np.sum((n - i) / n * k[..., n - i] * a[..., i], axis=-1)
    if big_r.ndim == 0:
        b0, theta = float(b0), float(theta)
    return ToeplitzState(k_values=k[..., 1:], a_values=a, b0=b0, theta=theta)


def toeplitz_matrix_coefficients(state: ToeplitzState) -> np.ndarray:
    """Recompute a_1..a_{m-1} from ``state`` (at one edge distance) through
    the explicit matrix form.

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
    a_tail = np.linalg.solve(np.eye(m1) - state.b0 * F, rhs)
    return np.concatenate([[state.a_values[0]], a_tail])


#: relative tolerance of the outer coverage quadrature over the edge distance
_QUAD_TOL = 1e-8


def _edge_density(params: CoverageParams):
    """Outer integration weight: the edge law f(R) = 2 (pi L)^2 R^3
    exp(-pi L R^2), the second-nearest law, for m >= 2; the nearest-distance
    law for the documented m = 1 mode."""
    order = 2 if params.m >= 2 else 1
    return lambda r: kth_distance_pdf(r, order, params.lambda_bs)


#: the tanh-sinh rule's abscissae run over |t| <= _TANH_SINH_T; at its ends
#: the weights are below 1e-20 of the interval's length
_TANH_SINH_T = 3.5
#: the finest level (step 2^-level) before the quadrature gives up
_MAX_LEVEL = 12


def _tanh_sinh_level(level: int, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, r_max] and weights of the tanh-sinh rule that level
    ``level`` adds: every point t = k h, h = 2^-level, |t| <= _TANH_SINH_T,
    that no coarser level has (all of them at level 0).

    R = r_max / (1 + exp(-2u)), u = (pi/2) sinh t, keeps the nodes near
    R = 0 at full relative precision, and dR/dt = r_max (pi/2) cosh t /
    (2 cosh^2 u).
    """
    h = 2.0**-level
    k = np.arange(-int(_TANH_SINH_T / h), int(_TANH_SINH_T / h) + 1)
    if level > 0:
        k = k[k % 2 == 1]  # even k are the previous level's points
    t = k * h
    u = 0.5 * np.pi * np.sinh(t)
    nodes = r_max / (1.0 + np.exp(-2.0 * u))
    weights = r_max * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    return nodes, weights


def coverage_probability(params: CoverageParams) -> float:
    """Probability that the edge-UE SIR exceeds the threshold.

    Conditional coverage (a_0 + ... + a_{m-1}) is integrated over the edge
    distance law, truncated where the density's remaining mass is < 1e-10.
    For m >= 2 the outer weight is the edge law, the second-nearest law of
    :func:`udngc.geometry.kth_distance_pdf`; m = 1 is a separate documented
    mode using the nearest-distance law.

    The integral is a tanh-sinh (double-exponential) rule whose nodes crowd
    towards both ends of [0, r_max], so a narrow peak near R = 0 is
    resolved.  Each level halves the step and evaluates the recursion at all
    of its new nodes in one :func:`toeplitz_state` call.  From level 3 on,
    the rule stops once two successive levels agree within
    max(1e-12, ``_QUAD_TOL`` * |I|); if none do by ``_MAX_LEVEL`` it raises
    :class:`NumericalError`.  The result is clamped to [0, 1] only after
    the quadrature has converged, with a warning if the excursion exceeds
    float noise.
    """
    density = _edge_density(params)
    r_max = 2.0 * np.sqrt(-np.log(1e-10) / (np.pi * params.lambda_bs))
    total, previous = 0.0, np.nan
    for level in range(_MAX_LEVEL + 1):
        nodes, weights = _tanh_sinh_level(level, r_max)
        f = density(nodes) * toeplitz_state(params, nodes).coverage_term
        total += np.sum(weights * f)
        value = total * 2.0**-level
        if level >= 3 and abs(value - previous) <= max(1e-12, _QUAD_TOL * abs(value)):
            break
        previous = value
    else:
        raise NumericalError(
            f"coverage quadrature did not converge by level {_MAX_LEVEL} (last value {value!r})"
        )
    if not 0.0 <= value <= 1.0:
        if value < -1e-12 or value > 1.0 + 1e-12:
            warnings.warn(f"coverage {value!r} clamped into [0, 1]", stacklevel=2)
        value = min(1.0, max(0.0, value))
    return float(value)
