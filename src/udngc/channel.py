"""Dual-slope path loss.

The channel gain falls as r^-eta1 up to the critical distance (near field,
line-of-sight regime) and as Lambda * r^-eta2 beyond it, with Lambda chosen
so the two branches join continuously.  The m nearest base stations transmit
the useful signal, each on its own branch (:func:`path_loss`); every other
station interferes through the far branch (:func:`far_gain`).  Noise is
neglected (interference-limited regime).  The coverage oracles draw on these
two laws; ``cooperative_sir`` in ``tests/reference.py`` evaluates the same
SIR station by station, as the reference the oracles are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["PathLossParams", "path_loss", "far_gain"]


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
