"""Dual-slope path loss and the SIR of a cooperatively served UE.

The channel gain falls as r^-eta1 up to the critical distance (near field,
line-of-sight regime) and as Lambda * r^-eta2 beyond it, with Lambda chosen
so the two branches join continuously.  The m nearest base stations transmit
the useful signal; every other station interferes through the far branch.
Noise is neglected (interference-limited regime).  :func:`cooperative_sir`
is the one SIR evaluator, and the reference that
:func:`udngc.simulator.coverage_oracle_geometric` is tested against; the
oracles draw on the same two laws, :func:`path_loss` and :func:`far_gain`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPointsError, ParameterError

__all__ = ["PathLossParams", "path_loss", "far_gain", "cooperative_sir"]


@dataclass(frozen=True)
class PathLossParams:
    """Dual-slope path loss constants."""

    eta1: float = 2.0
    eta2: float = 4.0
    d_critical: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta1 <= self.eta2:
            raise ParameterError(
                f"exponents must satisfy 0 <= eta1 <= eta2, got eta1={self.eta1}, eta2={self.eta2}"
            )
        if self.d_critical <= 0:
            raise ParameterError(f"d_critical must be positive, got {self.d_critical}")

    @property
    def continuity_constant(self) -> float:
        """Lambda = d_critical^(eta2 - eta1), joins the two branches at d_critical."""
        return self.d_critical ** (self.eta2 - self.eta1)


def far_gain(r2, params: PathLossParams):
    """Far-branch gain Lambda * r^-eta2 at squared distance ``r2``, whatever
    the distance: the gain of every interferer."""
    return params.continuity_constant * np.asarray(r2, dtype=float) ** (-params.eta2 / 2.0)


def path_loss(r, params: PathLossParams):
    """Dual-slope gain: r^-eta1 for r <= d_critical, else Lambda * r^-eta2.

    Rejects r <= 0: the PPP places a station on top of the UE with
    probability zero, and clamping would silently bias coverage estimates.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise ParameterError("path loss is singular at r = 0; distances must be positive")
    near = r_arr <= params.d_critical
    out = np.where(near, r_arr ** -params.eta1, far_gain(r_arr * r_arr, params))
    return out if out.ndim else float(out)


def cooperative_sir(r, h, m: int, params: PathLossParams) -> tuple[float, float]:
    """Signal and interference powers of a UE served by its m nearest stations.

    ``r`` holds the UE's distances to every station and ``h`` the stations'
    fading gains, in the same order.  The m nearest stations carry signal,
    each on its own branch of :func:`path_loss`; every other station
    interferes on the far branch Lambda * r^-eta2, whatever its distance.
    Transmit power is normalised to one.
    """
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    if r.size <= m:
        raise InsufficientPointsError(
            f"need more than m={m} stations for interference, got {r.size}"
        )
    part = np.argpartition(r, m - 1)
    coop = part[:m]
    rest = part[m:]
    signal = float(np.sum(path_loss(r[coop], params) * h[coop]))
    interference = float(np.sum(far_gain(r[rest] ** 2, params) * h[rest]))
    return signal, interference
