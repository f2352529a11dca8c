"""Reference evaluators that the tests compare the package against.

The package itself never calls these: its oracles and its trial engine take
faster routes to the same laws, and the tests check those routes here.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammainc

from udngc.analytics import CoverageParams, _edge_density, toeplitz_state
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


def coverage_log_trapezoid(params: CoverageParams, n: int) -> float:
    """Coverage probability by a plain trapezoid rule with ``n`` equal steps
    in log R, over the same truncated range (0, r_max] as
    :func:`udngc.analytics.coverage_probability`.

    The rule is fixed and uniform in log R, so a peak near R = 0 is covered
    by as many points per e-fold as any other part of the range; below
    R = 1e-15 r_max the edge law leaves nothing of note.  The integrand is
    the package's recursion, evaluated 100 000 nodes at a time; only the
    rule differs from the package's tanh-sinh quadrature.
    """
    density = _edge_density(params)

    def integrand(log_r):
        big_r = np.exp(log_r)
        return density(big_r) * toeplitz_state(params, big_r).coverage_term * big_r

    r_max = 2.0 * np.sqrt(-np.log(1e-10) / (np.pi * params.lambda_bs))
    x = np.linspace(np.log(1e-15 * r_max), np.log(r_max), n + 1)
    total = sum(np.sum(integrand(part)) for part in np.array_split(x, max(1, x.size // 100_000)))
    total -= 0.5 * (integrand(x[:1])[0] + integrand(x[-1:])[0])
    return float(total * (x[1] - x[0]))
