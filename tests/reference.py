"""Reference evaluators that the tests compare the package against.

The package itself never calls these: its oracles and its trial engine take
faster routes to the same laws, and the tests check those routes here.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammainc

from udngc.channel import PathLossParams, far_gain, path_loss
from udngc.errors import InsufficientPointsError


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


def kth_distance_cdf(r, m: int, density: float):
    """CDF matching :func:`udngc.geometry.kth_distance_pdf`:
    P(pi*density*r^2 area holds < m points)."""
    r_arr = np.asarray(r, dtype=float)
    out = gammainc(m, np.pi * density * r_arr**2)
    return out if out.ndim else float(out)
