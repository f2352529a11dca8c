"""Simulator: skip rule, exact trial engine, coverage oracles."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from scipy import stats
from scipy.spatial import cKDTree

from reference import cooperative_sir, kth_distance_cdf
from udngc import analytics, simulator
from udngc.analytics import CoverageParams
from udngc.channel import PathLossParams, far_gain
from udngc.errors import ParameterError
from udngc.harness import ScenarioParams
from udngc.simulator import (
    _disk_changes,
    _footprints,
    _nearest_changes,
    _skipping_handovers,
    _skips,
    _Settle,
    _Strip,
    TrialResult,
    coverage_oracle_geometric,
    coverage_oracle_model,
    estimate_all_rates,
    run_handover_trial,
    simulate_trials,
)

PL = PathLossParams(2.0, 4.0, 10.0)


class TestGchosDecision:
    def test_skip_when_conditions_hold(self):
        assert _skips(30.0, 25.0, 45.0, False) is True

    def test_handover_when_second_interferer_far(self):
        assert _skips(30.0, 25.0, 60.0, False) is False

    def test_alternation_guard(self):
        assert _skips(30.0, 25.0, 45.0, True) is False


SCN = ScenarioParams(lambda_bs=0.01, speed=10.0, m_group=3)


def gcho_rate(scenario, trials, base_seed):
    return estimate_all_rates(scenario, trials, base_seed)["gcho"]


def grid_changes(a, b, length, r_f, step):
    """Changes seen on a step grid over the whole deployment (line frame):
    steps whose nearest station differs from the previous step's, and
    stations whose membership of the radius-r_f disk differs."""
    t = np.linspace(0.0, length, int(np.ceil(length / step)) + 1)
    _, nearest = cKDTree(np.column_stack([a, b])).query(np.column_stack([t, 0 * t]))
    disk = 0
    for a_i, b_i in zip(a[np.abs(b) < r_f], b[np.abs(b) < r_f]):
        inside = (t - a_i) ** 2 + b_i**2 < r_f * r_f
        disk += int(np.count_nonzero(inside[1:] != inside[:-1]))
    return int(np.count_nonzero(nearest[1:] != nearest[:-1])), disk


def brute_nearest_changes(a, b, length):
    """Nearest-station changes over all stations: the nearest station is
    constant between consecutive pairwise bisector crossings, so one probe
    per such interval sees every change."""
    q = a * a + b * b
    i, j = np.triu_indices(a.size, 1)
    cross = (q[j] - q[i]) / (2.0 * (a[j] - a[i]))
    edges = np.concatenate([[0.0], np.sort(cross[(cross > 0) & (cross < length)]), [length]])
    probes = 0.5 * (edges[1:] + edges[:-1])
    nearest = np.argmin((probes[:, None] - a) ** 2 + b**2, axis=1)
    return int(np.count_nonzero(nearest[1:] != nearest[:-1]))


def brute_disk_changes(a, b, length, r_f):
    """Disk-membership changes over all stations, probed once between
    consecutive boundary crossings."""
    near = np.abs(b) < r_f
    half = np.sqrt(r_f * r_f - b[near] ** 2)
    roots = np.concatenate([a[near] - half, a[near] + half])
    edges = np.concatenate([[0.0], np.sort(roots[(roots > 0) & (roots < length)]), [length]])
    probes = 0.5 * (edges[1:] + edges[:-1])
    inside = (probes[:, None] - a) ** 2 + b**2 < r_f * r_f
    return int(np.count_nonzero(inside[1:] != inside[:-1]))


def strip_counts(a, b, length, width, r_f):
    strip = _Strip(np.asarray(a, float), np.asarray(b, float), length, width)
    return _nearest_changes(strip), _disk_changes(strip, r_f)


class TestExactCrossings:
    def test_two_stations_change_once_at_the_bisector(self):
        # stations at (0, 1) and (10, -2): their bisector crosses the line at
        # t = (104 - 1) / 20
        a, b = [0.0, 10.0], [1.0, -2.0]
        bisector = (100.0 + 4.0 - 1.0) / 20.0
        assert strip_counts(a, b, bisector - 1e-9, 30.0, 0.5)[0] == 0
        assert strip_counts(a, b, bisector + 1e-9, 30.0, 0.5)[0] == 1
        assert strip_counts(a, b, 100.0, 30.0, 0.5)[0] == 1

    def test_station_inside_disk_reach_changes_twice(self):
        # offset b = 3 < r_f = 5: the disk takes the station in at t = 10 - 4
        # and lets it go at t = 10 + 4
        assert strip_counts([10.0], [3.0], 20.0, 5.0, 5.0)[1] == 2
        assert strip_counts([10.0], [3.0], 10.0, 5.0, 5.0)[1] == 1
        assert strip_counts([10.0], [6.0], 20.0, 6.0, 5.0)[1] == 0

    def test_narrow_strip_widens(self):
        # the far station is nearest over the second half of the segment
        strip = _Strip(np.array([0.0, 40.0, 5.0]), np.array([0.0, 15.0, 90.0]), 40.0, 1.0)
        assert _nearest_changes(strip) == 1
        assert strip.width >= 15.0 and not strip.complete

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 30),
        length=st.floats(1.0, 80.0),
        r_f=st.floats(0.5, 8.0),
        m=st.integers(1, 3),
    )
    def test_strip_matches_all_stations(self, seed, n, length, r_f, m):
        # sparse stations around a short segment: a strip r_f wide often
        # misses the nearest stations and has to widen
        rng = default_rng(seed)
        a = rng.uniform(-40.0, length + 40.0, n)
        b = rng.uniform(-40.0, 40.0, n)
        assert strip_counts(a, b, length, r_f, r_f) == (
            brute_nearest_changes(a, b, length),
            brute_disk_changes(a, b, length, r_f),
        )
        lam = 1.0 / (np.pi * r_f**2)
        narrow = _skipping_handovers(default_rng(seed), _Strip(a, b, length, r_f), m, lam, 4)
        full = _skipping_handovers(default_rng(seed), _Strip(a, b, length, np.inf), m, lam, 4)
        assert narrow == full

    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_footprint_radii_follow_kth_distance_law(self, m):
        lam = 0.01
        draws = _footprints(default_rng(m), m, lam, 4000)
        r_m, r_skip, cosine = (np.concatenate(x) for x in zip(next(draws), next(draws)))
        assert stats.kstest(r_m, lambda r: kth_distance_cdf(r, m, lam)).pvalue > 0.01
        assert stats.kstest(r_skip, lambda r: kth_distance_cdf(r, m + 1, lam)).pvalue > 0.01
        # cosine of a uniform incidence s: P(sqrt(1 - s^2) <= c) = 1 - sqrt(1 - c^2)
        assert stats.kstest(cosine, lambda c: 1.0 - np.sqrt(1.0 - c * c)).pvalue > 0.01


class TestTrialEngine:
    def test_deterministic_per_seed(self):
        a = run_handover_trial(SCN, [3, 0])
        b = run_handover_trial(SCN, [3, 0])
        assert a == b

    def test_counts_and_metadata(self):
        res = run_handover_trial(SCN, [3, 1])
        assert res.handovers_gcho >= 0
        assert res.deployment_resamples == 0

    @pytest.mark.parametrize(
        "lam, m, window, seed, counts",
        [
            # (gcho, gchos, traditional, fr, deployment_resamples)
            (0.001, 1, None, 0, (21, 9, 22, 28, 0)),
            (0.01, 3, None, 1, (24, 11, 42, 145, 0)),
            (0.01, 6, None, 2, (21, 9, 51, 244, 0)),
            (0.001, 9, None, 3, (20, 9, 74, 394, 0)),
            (0.01, 1, None, 4, (19, 14, 22, 44, 0)),
            # a window holding about 11 stations, one short of m + 3
            (0.001, 9, 60.0, 6, (0, 1, 1, 1, 4)),
        ],
    )
    def test_counts_pinned(self, lam, m, window, seed, counts):
        # the engine's random stream: a change to these counts changes every
        # simulated rate, and has to be made on purpose
        scn = ScenarioParams(lambda_bs=lam, m_group=m, window_radius=window)
        res = run_handover_trial(scn, [seed, 0])
        assert (
            res.handovers_gcho, res.handovers_gchos, res.handovers_traditional,
            res.handovers_fr, res.deployment_resamples,
        ) == counts

    def test_policy_dominance(self):
        # skipping never executes more handovers than plain group-cell
        # operation on the same trial (default scenario); the fixed-region
        # baseline dominates on means
        results = simulate_trials(SCN, 200, base_seed=11)
        assert all(r.handovers_gchos <= r.handovers_gcho for r in results)
        mean = lambda f: np.mean([getattr(r, f) for r in results])
        assert mean("handovers_fr") > mean("handovers_gcho")

    def test_speed_scaling(self):
        # doubling the speed doubles the rate within overlapping CIs
        slow = gcho_rate(SCN, 300, 5)
        fast = gcho_rate(dataclasses.replace(SCN, speed=20.0), 300, 5)
        assert abs(fast.mean - 2 * slow.mean) < 2 * (fast.half_width_95 + 2 * slow.half_width_95)

    def test_m3_vs_m1_ratio(self):
        # the renewal's rate is 2v/(pi*E[r_m]) with E[r_m] proportional to
        # Gamma(m + 1/2)/Gamma(m), so r3/r1 = Gamma(1.5)Gamma(3)/Gamma(3.5)
        # = 8/15; the paper's 1/sqrt(3) is the large-m limit of that law
        # (criterion 3 checks the paper's scaling)
        r3 = gcho_rate(SCN, 800, 7)
        r1 = gcho_rate(dataclasses.replace(SCN, m_group=1), 800, 7)
        assert abs(r3.mean / r1.mean - 8 / 15) < 0.02

    def test_ci_shrinks_with_trials(self):
        scn = dataclasses.replace(SCN, m_group=1)
        small = gcho_rate(scn, 100, 13)
        large = gcho_rate(scn, 2500, 13)
        ratio = small.half_width_95 / large.half_width_95
        assert 3.0 < ratio < 8.0  # expect ~sqrt(25) = 5

    def test_exact_vs_discretised(self, monkeypatch):
        # a step grid misses changes that fall between two of its points, so
        # it never counts more than the exact engine and agrees at a fine grid
        frames = []

        class RecordingStrip(_Strip):
            def __init__(self, a, b, length, width):
                super().__init__(a, b, length, width)
                frames.append((a, b, length))

        monkeypatch.setattr(simulator, "_Strip", RecordingStrip)
        r_f = np.sqrt(SCN.m_group / (np.pi * SCN.lambda_bs))
        for index in range(3):
            res = run_handover_trial(SCN, [17, index])
            a, b, length = frames[-1]
            exact = (res.handovers_traditional, res.handovers_fr)
            counts = [grid_changes(a, b, length, r_f, step) for step in (5.0, 0.5, 0.001)]
            for grid in counts:
                assert grid[0] <= exact[0] and grid[1] <= exact[1]
            assert counts[0] != exact
            assert counts[-1] == exact

    def test_parallel_equals_serial(self):
        serial = simulate_trials(SCN, 24, base_seed=19, n_workers=1)
        parallel = simulate_trials(SCN, 24, base_seed=19, n_workers=2)
        assert serial == parallel

    def test_window_too_small_rejected(self):
        with pytest.raises(ParameterError):
            ScenarioParams(lambda_bs=0.01, window_radius=10.0)


class TestCoverageOracleModel:
    PARAMS = CoverageParams(tau=1.0, lambda_bs=0.01, m=3, pathloss=PL)

    def test_tiny_threshold(self):
        p = coverage_oracle_model(
            dataclasses.replace(self.PARAMS, tau=1e-6), 20_000, seed=1
        )
        assert p > 0.999

    def test_deterministic(self):
        a = coverage_oracle_model(self.PARAMS, 30_000, seed=5)
        b = coverage_oracle_model(self.PARAMS, 30_000, seed=5)
        assert a == b

    def test_matches_analytic(self):
        p_sim = coverage_oracle_model(self.PARAMS, 150_000, seed=9)
        p_ana = analytics.coverage_probability(self.PARAMS)
        assert abs(p_sim - p_ana) < 0.02

    def test_grid_mode_monotone(self):
        taus = 10.0 ** (np.array([-10.0, 0.0, 10.0, 20.0]) / 10.0)
        probs = coverage_oracle_model(self.PARAMS, 150_000, seed=3, taus=taus)
        assert probs.shape == (4,)
        assert np.all(np.diff(probs) < 0)

    def test_single_station_mode(self):
        # m = 1 samples the nearest-distance law, matching the analytic mode
        params = CoverageParams(tau=1.0, lambda_bs=0.01, m=1, pathloss=PL)
        p_sim = coverage_oracle_model(params, 150_000, seed=21)
        assert abs(p_sim - analytics.coverage_probability(params)) < 0.02

    @pytest.mark.parametrize("tau_db", [-20.0, 30.0])
    def test_extreme_thresholds(self, tau_db):
        params = CoverageParams(
            tau=10.0 ** (tau_db / 10.0), lambda_bs=0.01, m=3,
            pathloss=PathLossParams(2.0, 4.0, 20.0),
        )
        p_ana = analytics.coverage_probability(params)
        p_sim = coverage_oracle_model(params, 20_000, seed=17)
        assert abs(p_sim - p_ana) <= 5.0 * np.sqrt(p_ana * (1.0 - p_ana) / 20_000)

    def test_rejects_divergent_interference(self):
        params = CoverageParams(
            tau=1.0, lambda_bs=0.01, m=3, pathloss=PathLossParams(2.0, 2.0, 10.0)
        )
        with pytest.raises(ParameterError, match="diverges"):
            coverage_oracle_model(params, 10, seed=1)


def brute_force_hits(settle, p, gain):
    """Decisions x > a*(I(p_c) + tail(p_c)) with I(p_c) summed over every
    interferer of ``p`` up to each pair's p_c."""
    level = np.array(
        [[gain[i, p[i] <= pc].sum() for pc in row] for i, row in enumerate(settle.p_c)]
    )
    return settle.x[:, None] > settle.a * (level + settle.tail)


class TestEarlyMiss:
    """Certain misses and per-threshold radii settle each pair exactly as a
    sum over every interferer up to its p_c would."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 0.1),
        d=st.floats(5.0, 40.0),
        eta2=st.floats(2.0, 6.0, exclude_min=True),
        m=st.integers(1, 9),
        taus_db=st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=4),
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
    )
    def test_settle_matches_brute_force(self, seed, lam, d, eta2, m, taus_db, sizes):
        pl = PathLossParams(2.0, eta2, d)
        rng = default_rng(seed)
        n = 30
        big_r2 = rng.gamma(2.0 if m >= 2 else 1.0, size=n) / (np.pi * lam)
        a = 10.0 ** (np.array(taus_db) / 10.0) * big_r2[:, None]
        settle = _Settle(rng.gamma(m, size=n), a, 1.0, big_r2, lam, pl)
        # the brute force needs every interferer out to the largest radius
        p_max = settle.p_c.max(axis=1)
        assume(np.pi * lam * (p_max - big_r2).max() < 5000)
        p, h = simulator._arrivals(rng, lam, big_r2, 64)
        while np.any(p[:, -1] <= p_max):
            more = simulator._arrivals(rng, lam, p[:, -1], p.shape[1])
            p, h = np.hstack([p, more[0]]), np.hstack([h, more[1]])
        gain = far_gain(p, pl) * h
        # feed the open trials chunk by chunk, as the sampler does
        rows, fed = np.arange(n), 0
        for size in sizes + [p.shape[1]]:
            chunk = slice(fed, fed + size)
            rows = rows[settle.feed(rows, p[rows, chunk], gain[rows, chunk])]
            fed += size
            if not rows.size:
                break
        assert rows.size == 0
        np.testing.assert_array_equal(settle.hit, brute_force_hits(settle, p, gain))


#: (lambda, m, tau_db, d_critical) -> coverage of the exact per-link SIR and
#: its reported +-, from 200 000 samples of the m nearest distances with
#: fading and interference integrated out exactly (hypoexponential signal,
#: far-branch Laplace transform beyond r_m)
SEMI_ANALYTIC = {
    (0.01, 3, 0.0, 10.0): (0.7399, 0.0007),
    (0.001, 3, 0.0, 10.0): (0.8816, 0.0007),
    (0.01, 1, 0.0, 10.0): (0.2358, 0.0007),
    (0.01, 6, 5.0, 20.0): (0.2077, 0.0011),
    (0.003, 3, -5.0, 10.0): (0.9825, 0.0002),
}


class TestCoverageOracleGeometric:
    def test_runs_and_is_deterministic(self):
        p1 = coverage_oracle_geometric(SCN, 2000, seed=2)
        p2 = coverage_oracle_geometric(SCN, 2000, seed=2)
        assert p1 == p2
        assert 0.0 <= p1 <= 1.0

    @pytest.mark.parametrize("m", [1, 3])
    def test_powers_equal_cooperative_sir(self, m, monkeypatch):
        # one trial per batch, so every chunk the sampler draws is that trial's
        scn = ScenarioParams(lambda_bs=0.01, m_group=m, tau_db=0.0)
        drawn = []
        arrivals = simulator._arrivals

        def recording(*args):
            p, h = arrivals(*args)
            drawn.append((p[0].copy(), h[0].copy()))
            return p, h

        monkeypatch.setattr(simulator, "_arrivals", recording)
        rng = default_rng(m)
        tau = scn.tau_linear
        for _ in range(100):
            drawn.clear()
            settle = simulator._geometric_settle(rng, 1, scn)
            p, h = (np.concatenate(x) for x in zip(*drawn))
            signal, interference = cooperative_sir(np.sqrt(p), h, m, scn.pathloss())
            assert settle.x[0] == pytest.approx(signal, rel=1e-12)
            assert settle.interference[0] == pytest.approx(interference, rel=1e-12)
            p_c = settle.p_c[0, 0]
            if p[-1] > p_c:
                # settled at its radius: the tail mean stands for the rest
                keep = p <= p_c
                within = 0.0
                if np.count_nonzero(keep) > m:
                    within = cooperative_sir(np.sqrt(p[keep]), h[keep], m, scn.pathloss())[1]
                assert settle.hit[0, 0] == (signal > tau * (within + settle.tail[0, 0]))
            else:
                # stopped early: a certain miss
                assert tau * interference >= signal and not settle.hit[0, 0]

    @pytest.mark.parametrize("case", sorted(SEMI_ANALYTIC))
    def test_matches_semi_analytic_coverage(self, case):
        lam, m, tau_db, d = case
        expected, se_expected = SEMI_ANALYTIC[case]
        scn = ScenarioParams(lambda_bs=lam, m_group=m, tau_db=tau_db, d_critical=d)
        p = coverage_oracle_geometric(scn, 20_000, seed=11)
        se = np.sqrt(p * (1.0 - p) / 20_000)
        assert abs(p - expected) <= 4.0 * np.sqrt(se**2 + se_expected**2)


def test_trial_result_validation():
    with pytest.raises(ParameterError):
        TrialResult(
            handovers_gcho=-1,
            handovers_gchos=0,
            handovers_traditional=0,
            handovers_fr=0,
        )

