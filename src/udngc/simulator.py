"""Monte Carlo engine: deployments, moving UE, handover policies, coverage oracles.

Every trial draws a fresh deployment and a straight constant-speed trajectory
from the window centre, then counts handovers under four policies on that one
realisation.  The UE sits at distance t in [0, L] along its line, with
L = speed * duration.  Every event is an exact crossing on that segment;
nothing is sampled on a time grid.

``gcho``
    Group-cell policy.  The serving cluster's footprint is a circular
    interference-protection region; a handover fires whenever the UE crosses
    the current footprint boundary.  Footprint radii follow the exact law of
    the m-th (skip phase: (m+1)-th) nearest-station distance of the PPP,
    r = sqrt(G/(pi*lambda)) with G ~ Gamma(m) (Gamma(m+1)), drawn
    independently of the UE's position (anchoring the radius there would
    size-bias the renewal toward dense pockets).  The first footprint is
    centred at a uniform point of the disk of radius r around the start; the
    UE meets every later footprint at stationary (cosine-weighted) incidence,
    so it crosses a chord 2*r*sqrt(1 - s^2), s ~ U(-1, 1).  This policy needs
    no deployment.
``gchos``
    Same footprint process filtered by the skipping rule: at a crossing the
    nearest station left outside the reformed cluster may be skipped (no
    handover executed, next footprint one rank deeper) when the alternation
    flag and the two distance conditions allow it.  The distances are those
    of the deployment at the exact crossing point.
``traditional``
    Single-nearest-station association; an event whenever the nearest
    station changes (an exact Voronoi crossing).
``fr``
    Fixed-region baseline: stations inside a disk of radius sqrt(m/(pi*lam))
    centred on the UE; every crossing of a station into or out of that disk
    is one change.  This is a qualitative stand-in, not a published
    fixed-region model.

``gchos``, ``traditional`` and ``fr`` look only at the stations near the
segment (:class:`_Strip`).  Each distance a count relies on is checked
against the strip's width, which doubles until it covers them all, so every
count equals the one over the whole deployment.
Randomness derives only from (base_seed, trial_index), so aggregates do not
depend on how trials are distributed over workers.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.random import Generator, default_rng

from .analytics import CoverageParams
from .channel import far_gain, path_loss
from .errors import InsufficientPointsError, ParameterError
from .geometry import sample_ppp

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from .harness import ScenarioParams

__all__ = [
    "POLICIES",
    "TrialResult",
    "RateEstimate",
    "run_handover_trial",
    "simulate_trials",
    "estimate_all_rates",
    "coverage_oracle_model",
    "coverage_oracle_geometric",
]

POLICIES = ("gcho", "gchos", "traditional", "fr")

#: resample a too-small deployment at most this many times per trial
_MAX_RESAMPLES = 100


def _skips(r_m: float, r1_i: float, r2_i: float, skip_done: bool) -> bool:
    """Skip rule at a boundary crossing: skip (execute no handover) when the
    first outside station is already inside the protection radius
    (r1_i < r_m), the second one is close behind it (r2_i <= 2*r1_i), and no
    skip is pending (alternation guard); otherwise hand over."""
    return bool(r1_i < r_m and r2_i <= 2.0 * r1_i and not skip_done)


@dataclass(frozen=True)
class TrialResult:
    """Handover counts of one trial (same deployment and trajectory)."""

    handovers_gcho: int
    handovers_gchos: int
    handovers_traditional: int
    handovers_fr: int
    deployment_resamples: int = 0

    def __post_init__(self) -> None:
        for name in (
            "handovers_gcho",
            "handovers_gchos",
            "handovers_traditional",
            "handovers_fr",
            "deployment_resamples",
        ):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")


@dataclass(frozen=True)
class RateEstimate:
    """Empirical rate with a 95% normal-approximation confidence interval."""

    mean: float
    half_width_95: float
    trials: int

    def __post_init__(self) -> None:
        if self.mean < 0 or self.half_width_95 < 0:
            raise ParameterError("mean and half_width_95 must be non-negative")


class _Strip:
    """Stations near the UE's segment, in line-frame coordinates.

    The UE runs from t = 0 to t = ``length`` along the unit vector e; station
    p sits at a = p.e along the line and b = p.e_perp across it, so its
    squared distance from the UE is (t - a)^2 + b^2 = t^2 - 2*t*a + q.  The
    strip keeps the stations with |b| <= ``width`` and
    -width <= a <= length + width, sorted by a, then q: every station within
    ``width`` of a point of the segment.  A walk that relies on a distance
    checks it with :meth:`covers` and calls :meth:`widen` (double the width)
    when it does not.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, length: float, width: float):
        self.all_a = a
        self.all_b = b
        self.length = length
        self.width = width
        self._select()

    def _select(self) -> None:
        w = self.width
        keep = np.flatnonzero(
            (np.abs(self.all_b) <= w) & (self.all_a >= -w) & (self.all_a <= self.length + w)
        )
        a = self.all_a[keep]
        q = a**2 + self.all_b[keep] ** 2
        order = np.lexsort((q, a))
        self.ids = keep[order]
        self.a = a[order]
        self.b = self.all_b[self.ids]
        self.q = q[order]
        self.complete = keep.size == self.all_a.size

    def widen(self) -> None:
        if self.complete:
            raise InsufficientPointsError("the deployment holds too few stations")
        self.width *= 2.0
        self._select()

    def covers(self, d2: float) -> bool:
        """Whether every station within squared distance ``d2`` of a point of
        the segment is in the strip."""
        return self.complete or d2 <= self.width**2

    def nearest(self, t: float, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Deployment indices and distances of the ``k`` stations nearest to
        the UE at ``t``, distance-ascending."""
        while True:
            d2 = (self.a - t) ** 2 + self.b**2
            if d2.size >= k:
                part = np.argpartition(d2, k - 1)[:k]
                part = part[np.argsort(d2[part])]
                if self.covers(d2[part[-1]]):
                    return self.ids[part], np.sqrt(d2[part])
            self.widen()


def _lower_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull's vertices, left to right, of points
    sorted by x (ties by y)."""
    keep = np.arange(x.size)
    while keep.size > 2:
        px, py = x[keep], y[keep]
        # a point on or above the chord of its two neighbours is no vertex
        above = (py[1:-1] - py[:-2]) * (px[2:] - px[:-2]) >= (py[2:] - py[:-2]) * (
            px[1:-1] - px[:-2]
        )
        if not above.any():
            break
        keep = np.delete(keep, 1 + np.flatnonzero(above))
    return keep


def _nearest_changes(strip: _Strip) -> int:
    """Nearest-station changes for t in (0, length].

    Station i is nearest where q_i - 2*t*a_i is least (q = a^2 + b^2), so the
    nearest station runs along the lower convex hull of the points (a, q):
    the hull edge from i to j is a change at t = (q_j - q_i)/(2*(a_j - a_i)).
    The distance to a fixed station is convex in t, so a nearest distance
    covered by the strip at both ends and at every breakpoint is covered
    along the whole segment.
    """
    while True:
        hull = _lower_hull(strip.a, strip.q)
        a, b, q = strip.a[hull], strip.b[hull], strip.q[hull]
        da = np.diff(a)
        # an edge with da = 0 leads to a station never nearer than its left end
        breaks = np.divide(np.diff(q), 2.0 * da, out=np.full(da.size, np.inf), where=da > 0)
        inside = (breaks > 0.0) & (breaks <= strip.length)
        t = np.concatenate([[0.0], breaks[inside], [strip.length]])
        v = np.searchsorted(breaks, t)  # the hull vertex nearest at t
        if hull.size and strip.covers(float(np.max((t - a[v]) ** 2 + b[v] ** 2))):
            return int(np.count_nonzero(inside))
        strip.widen()


def _disk_changes(strip: _Strip, r_f: float) -> int:
    """Boundary crossings a -+ sqrt(r_f^2 - b^2) of the UE-centred disk of
    radius ``r_f`` in (0, length]; each one changes the disk's membership.
    Exact for a strip at least ``r_f`` wide."""
    near = np.abs(strip.b) < r_f
    half = np.sqrt(r_f * r_f - strip.b[near] ** 2)
    crossings = np.concatenate([strip.a[near] - half, strip.a[near] + half])
    return int(np.count_nonzero((crossings > 0.0) & (crossings <= strip.length)))


def _first_exit(rng: Generator, m: int, lam: float) -> float:
    """Distance to the exit of the first footprint: rank-m radius r, centre c
    uniform in the disk of radius r around the start; the circle-line root
    c_par + sqrt(r^2 - c_perp^2)."""
    r = np.sqrt(rng.gamma(m) / (np.pi * lam))
    rho = np.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return float(r * (rho * np.cos(phi) + np.sqrt(1.0 - (rho * np.sin(phi)) ** 2)))


def _footprints(rng: Generator, m: int, lam: float, batch: int):
    """Batches of later footprints: rank-m radii sqrt(G/(pi*lam)), G ~ Gamma(m);
    rank-(m+1) radii sqrt((G + E)/(pi*lam)), E ~ Exp(1), for the skip phase;
    and incidence cosines sqrt(1 - s^2), s ~ U(-1, 1).  A footprint of radius
    r adds a chord 2*r*cosine to the walk."""
    while True:
        g = rng.gamma(m, size=batch)
        r_m = np.sqrt(g / (np.pi * lam))
        r_skip = np.sqrt((g + rng.standard_exponential(batch)) / (np.pi * lam))
        sina = rng.uniform(-1.0, 1.0, size=batch)
        yield r_m, r_skip, np.sqrt(1.0 - sina * sina)


def _footprint_handovers(rng: Generator, m: int, lam: float, length: float, batch: int) -> int:
    """Footprint exits in (0, length] of the plain group-cell renewal."""
    t = _first_exit(rng, m, lam)
    if t > length:
        return 0
    exits = 1
    for r_m, _, cosine in _footprints(rng, m, lam, batch):
        ends = t + np.cumsum(2.0 * r_m * cosine)
        inside = int(np.searchsorted(ends, length, side="right"))
        exits += inside
        if inside < batch:
            return exits
        t = float(ends[-1])


def _skipping_handovers(rng: Generator, strip: _Strip, m: int, lam: float, batch: int) -> int:
    """Executed handovers of the footprint renewal under the skipping rule.

    At each exact crossing the rule compares the outgoing members' farthest
    distance with the (m+1)-th and (m+2)-th nearest stations; a skip makes the
    next footprint one rank deeper and forces a handover at the crossing
    after it.  The skipped station needs no blacklist: it could only matter
    to a skip decision, and none is taken before the next handover.
    """
    t = _first_exit(rng, m, lam)
    members = strip.nearest(0.0, m)[0]
    footprints = (
        chords
        for r_m, r_skip, cosine in _footprints(rng, m, lam, batch)
        for chords in zip((2.0 * r_m * cosine).tolist(), (2.0 * r_skip * cosine).tolist())
    )
    events = 0
    skip_done = False
    while t <= strip.length:
        ids, dists = strip.nearest(t, m + 2)
        rel_a = strip.all_a[members] - t
        r_inst = float(np.sqrt((rel_a**2 + strip.all_b[members] ** 2).max()))
        skip_done = _skips(r_inst, dists[m], dists[m + 1], skip_done)
        events += not skip_done
        members = ids[:m]
        chord, skip_chord = next(footprints)
        t += skip_chord if skip_done else chord
    return events


def run_handover_trial(scenario: "ScenarioParams", seed) -> TrialResult:
    """Simulate one deployment + trajectory and count all four policies.

    ``seed`` may be an int or a sequence of ints; all trial randomness
    derives from it.  Deployments with fewer than m+3 stations are resampled
    (counted in ``deployment_resamples``).
    """
    rng = default_rng(seed)
    lam = scenario.lambda_bs
    m = scenario.m_group
    length = scenario.speed * scenario.duration

    resamples = 0
    pts = sample_ppp(lam, scenario.window_radius, rng.integers(2**63))
    while len(pts) < m + 3:
        resamples += 1
        if resamples > _MAX_RESAMPLES:
            raise InsufficientPointsError(
                f"deployment kept fewer than {m + 3} stations after "
                f"{_MAX_RESAMPLES} resamples; enlarge the window or density"
            )
        pts = sample_ppp(lam, scenario.window_radius, rng.integers(2**63))

    direction = rng.uniform(0.0, 2.0 * np.pi)
    e = np.array([np.cos(direction), np.sin(direction)])
    r_f = np.sqrt(m / (np.pi * lam))
    # twice the typical (m+2)-th nearest distance: at least r_f, as
    # _disk_changes needs, and wide enough that widening is rare
    strip = _Strip(pts @ e, pts @ np.array([-e[1], e[0]]), length,
                   2.0 * np.sqrt((m + 2) / (np.pi * lam)))
    # about 1.5 footprints per batch of draws for every one the walk needs
    batch = int(length * np.sqrt(np.pi * lam / m)) + 1

    rng_gcho, rng_gchos = rng.spawn(2)
    return TrialResult(
        handovers_gcho=_footprint_handovers(rng_gcho, m, lam, length, batch),
        handovers_gchos=_skipping_handovers(rng_gchos, strip, m, lam, batch),
        handovers_traditional=_nearest_changes(strip),
        handovers_fr=_disk_changes(strip, r_f),
        deployment_resamples=resamples,
    )


def _pool_trial(args) -> TrialResult:
    # looked up through the module global, so wrappers of run_handover_trial
    # also see the trials a pool runs
    scenario, base_seed, idx = args
    return run_handover_trial(scenario, [base_seed, idx])


def simulate_trials(
    scenario: "ScenarioParams",
    trials: int,
    base_seed: int,
    n_workers: int = 1,
) -> list[TrialResult]:
    """Run ``trials`` independent trials; per-trial seeds hash (base_seed, index).

    Results are returned in trial order, so aggregates are identical for any
    worker count.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if n_workers <= 1:
        return [run_handover_trial(scenario, [base_seed, i]) for i in range(trials)]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        jobs = ((scenario, base_seed, i) for i in range(trials))
        return list(pool.map(_pool_trial, jobs, chunksize=max(1, trials // (8 * n_workers))))


def _rate_from_counts(counts: np.ndarray, duration: float, trials: int) -> RateEstimate:
    rates = counts / duration
    mean = float(counts.sum() / (trials * duration))
    half = float(1.96 * rates.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RateEstimate(mean=mean, half_width_95=half, trials=trials)


def estimate_all_rates(
    scenario: "ScenarioParams",
    trials: int,
    base_seed: int,
    n_workers: int = 1,
) -> dict[str, RateEstimate]:
    """Rates of all four policies from one shared set of trials."""
    results = simulate_trials(scenario, trials, base_seed, n_workers)
    out: dict[str, RateEstimate] = {}
    for policy in POLICIES:
        counts = np.array([getattr(r, f"handovers_{policy}") for r in results], dtype=float)
        out[policy] = _rate_from_counts(counts, scenario.duration, trials)
    return out


# ---------------------------------------------------------------------------
# coverage oracles
# ---------------------------------------------------------------------------

#: fluctuation budget of the truncated interference tail (see _Settle)
_TAIL_ERROR_BUDGET = 1e-4

#: trials per vectorised batch of the coverage oracles
_ORACLE_BATCH = 20_000

#: arrivals per trial in the first chunk of the nearest-first sampler.  92%
#: of the trials of a cheap grid (lambda = 0.001, D = 10, up to 0 dB) settle
#: within it, and trials that miss early at high thresholds do not draw far
#: past their miss; first chunks of 8 and 32 took longer over the oracle
#: grids of the benchmark and of the acceptance suite
_FIRST_CHUNK = 16

#: most arrivals one chunk of the sampler holds over all its trials
_CHUNK_ARRIVALS = 1 << 20


def _arrivals(rng: Generator, lam: float, last: np.ndarray, size: int):
    """The next ``size`` stations of a PPP of density ``lam``, nearest first,
    for one trial per entry of ``last``, the squared distance of its latest
    station.  Squared distances are p_k = last + (E_1 + ... + E_k)/(pi*lam),
    E_j ~ Exp(1): the PPP's arrivals in the area coordinate.  Returns them
    and their unit-mean exponential fading, both (trials, size) arrays, from
    one draw of the spacings followed by the fading."""
    p, fading = rng.standard_exponential((2, last.size, size))
    np.cumsum(p, axis=1, out=p)
    p *= 1.0 / (np.pi * lam)
    p += last[:, None]
    return p, fading


class _Settle:
    """Coverage decisions x > a*(I(p_c) + tail(p_c)), one per (trial,
    threshold), from interferers fed in nearest-first chunks.

    Row i of the (trials, thresholds) array ``a`` scales the interference
    against the signal x_i; the interferers lie beyond the squared distance
    p0_i, on the far branch of the path loss.  I(p) sums the interferers up
    to squared distance p, and tail(p) is the mean of the rest.

    Truncation: replacing the tail beyond p_c by its mean moves P(x > a*I)
    by at most 0.5*a^2*kappa*Var[tail(p_c)], where kappa bounds |f'| of the
    signal's density and Var[tail(p)] = 2*pi*lam*Lambda^2 * p^(1-eta2)/(eta2-1).
    p_c is the smallest squared distance beyond p0 that keeps this under
    ``_TAIL_ERROR_BUDGET``; each threshold has its own.

    Early miss: once a*I(min(p, p_c)) >= x over the interferers up to p,
    the full sum decides a miss, since later terms and the tail mean are
    positive; a miss at one threshold is then a miss at every larger one.
    Otherwise a pair closes when the interferers pass its p_c.
    """

    def __init__(self, x, a, kappa, p0, lam: float, pl):
        eta2 = pl.eta2
        if eta2 <= 2.0:
            raise ParameterError(f"the interference diverges for eta2 <= 2 (got {eta2})")
        lam_c = pl.continuity_constant
        var_fac = 2.0 * np.pi * lam * lam_c**2 / (eta2 - 1.0)
        p_c = (0.5 * a**2 * np.asarray(kappa)[..., None] * var_fac / _TAIL_ERROR_BUDGET) ** (
            1.0 / (eta2 - 1.0)
        )
        self.lam = lam
        self.pl = pl
        self.x = x
        self.a = a
        self.p0 = p0
        self.p_c = np.maximum(p_c, p0[:, None])
        self.tail = np.pi * lam * lam_c * self.p_c ** (1.0 - eta2 / 2.0) / (eta2 / 2.0 - 1.0)
        self.hit = np.zeros(a.shape, dtype=bool)
        self.open = np.ones(a.shape, dtype=bool)
        self.interference = np.zeros(x.size)

    def feed(self, rows: np.ndarray, p: np.ndarray, gain: np.ndarray) -> np.ndarray:
        """Take the next interferers of trials ``rows``: squared distances
        ``p``, ascending along each row, and received powers ``gain``.
        Returns the mask of ``rows`` with a pair still open."""
        p_c = self.p_c[rows]
        still = self.open[rows]
        # the chunk's interferers up to p_c: all of them, none, or, where p_c
        # falls inside the chunk, a partial sum, which each pair needs once
        passed = p[:, -1:] > p_c
        chunk_sum = gain.sum(axis=1)
        level = self.interference[rows, None] + np.where(passed, 0.0, chunk_sum[:, None])
        i, j = np.nonzero(still & passed & (p[:, :1] <= p_c))
        level[i, j] += np.where(p[i] <= p_c[i, j, None], gain[i], 0.0).sum(axis=1)
        a = self.a[rows]
        x = self.x[rows, None]
        miss = a * level >= x
        now = still & (miss | passed)
        self.hit[rows] |= now & ~miss & (x > a * (level + self.tail[rows]))
        still &= ~now
        self.open[rows] = still
        self.interference[rows] += chunk_sum
        return still.any(axis=1)

    def run(self, rng: Generator) -> np.ndarray:
        """Draw interferers nearest first beyond p0 for the trials with an
        open pair, in chunks that double from ``_FIRST_CHUNK`` arrivals per
        trial (at most ``_CHUNK_ARRIVALS`` in all), until every pair is
        closed; returns the hits."""
        rows = np.arange(self.x.size)
        last = self.p0.copy()
        size = _FIRST_CHUNK
        while rows.size:
            size = max(1, min(size, _CHUNK_ARRIVALS // rows.size))
            p, h = _arrivals(rng, self.lam, last[rows], size)
            last[rows] = p[:, -1]
            h *= far_gain(p, self.pl)
            rows = rows[self.feed(rows, p, h)]
            size *= 2
        return self.hit


def _batches(trials: int):
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    for start in range(0, trials, _ORACLE_BATCH):
        yield min(_ORACLE_BATCH, trials - start)


def coverage_oracle_model(
    params: CoverageParams,
    trials: int,
    seed: int,
    taus=None,
):
    """Brute-force oracle for :func:`udngc.analytics.coverage_probability`.

    Samples the edge distance R from the same distance law the analytic path
    integrates over and the signal fading G ~ Gamma(m), then draws
    interferers as a PPP outside radius R, nearest first, with unit-mean
    exponential fading.  A trial covers at threshold tau when
    G > tau * R^eta1 * I.

    The interference I is summed exactly out to a squared radius p_c of the
    trial and threshold, and the rest is replaced by its exact mean; p_c is
    chosen so that this moves the coverage estimate by less than 1e-4
    (second-order bound 0.5*s^2*Var[tail] with s = tau*R^eta1, since the
    Gamma(m) density has |f'| <= 1).  A trial stops drawing at a threshold
    as soon as tau*R^eta1 times the partial sum reaches G: the full sum
    would decide the same miss (see ``_Settle``).

    ``taus`` evaluates a whole threshold grid on shared trials and returns an
    array; otherwise the scalar probability at ``params.tau`` is returned.

    RNG layout: one generator seeded with ``seed`` serves batches of up to
    ``_ORACLE_BATCH`` trials in turn.  A batch draws R's Gamma variates and
    then G, one per trial, and then its interferer chunks; a chunk draws the
    (open trials, chunk size) Exp(1) spacings and then the same shape of
    fading, trials in ascending order.  Output is deterministic per
    (seed, trials, thresholds).
    """
    grid = np.atleast_1d(np.asarray(params.tau if taus is None else taus, dtype=float))
    if np.any(grid <= 0):
        raise ParameterError("thresholds must be positive (linear)")
    lam = params.lambda_bs
    shape_r = 2.0 if params.m >= 2 else 1.0
    rng = default_rng(seed)
    hits = np.zeros(grid.size, dtype=np.int64)
    for n in _batches(trials):
        big_r2 = rng.gamma(shape_r, size=n) / (np.pi * lam)
        signal_fading = rng.gamma(float(params.m), size=n)
        a = grid * np.sqrt(big_r2)[:, None] ** params.pathloss.eta1
        settle = _Settle(signal_fading, a, 1.0, big_r2, lam, params.pathloss)
        hits += settle.run(rng).sum(axis=0)
    probs = hits / trials
    return probs if taus is not None else float(probs[0])


def _geometric_settle(rng: Generator, n: int, scenario: "ScenarioParams") -> _Settle:
    """One batch of ``n`` geometric trials, settled.  Its first m arrivals
    are the serving stations: the signal sums path_loss(r_j)*h_j over them,
    each on its own branch."""
    m = scenario.m_group
    pl = scenario.pathloss()
    p, h = _arrivals(rng, scenario.lambda_bs, np.zeros(n), m)
    gain = path_loss(np.sqrt(p), pl)
    # |f'| of the signal's density: 1/g_1^2 for one exponential term, and
    # the convolution with the next terms adds at most (1/g_1)*(1/g_2)
    kappa = 1.0 / gain[:, 0] ** 2
    if m >= 2:
        kappa += 1.0 / (gain[:, 0] * gain[:, 1])
    tau = np.full((n, 1), scenario.tau_linear)
    settle = _Settle(np.sum(gain * h, axis=1), tau, kappa, p[:, -1], scenario.lambda_bs, pl)
    settle.run(rng)
    return settle


def coverage_oracle_geometric(scenario: "ScenarioParams", trials: int, seed: int) -> float:
    """Empirical coverage under the exact per-link dual-slope SIR.

    The UE sits at the origin of a PPP drawn nearest first.  Its m nearest
    stations carry the signal, each on its own branch of the path loss; the
    rest interfere on the far branch, as ``cooperative_sir`` in
    ``tests/reference.py`` evaluates them.  Interferers are summed out to a squared radius p_c and
    the rest is replaced by its mean, as in :func:`coverage_oracle_model`,
    under the same 1e-4 budget; the bound uses |f'| <= 1/g_1^2 of the
    signal's density for m = 1 and 1/g_1^2 + 1/(g_1*g_2) for m >= 2, with
    g_j the gain of the j-th nearest station.  Early misses stop a trial as
    in :func:`coverage_oracle_model`.

    Quantifies the gap left by the all-near-branch approximation; reported
    as a finding, not gated.  RNG layout: as :func:`coverage_oracle_model`,
    with the m serving stations drawn as a batch's first chunk.
    """
    rng = default_rng(seed)
    hits = sum(int(_geometric_settle(rng, n, scenario).hit.sum()) for n in _batches(trials))
    return hits / trials
