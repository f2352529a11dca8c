"""Geometry: PPP sampling laws, k-nearest queries and distance densities."""
import numpy as np
import pytest
from numpy.random import default_rng
from scipy import integrate

from reference import kth_distance_cdf
from udngc.analytics import CoverageParams, _edge_density
from udngc.errors import InsufficientPointsError, ParameterError
from udngc.geometry import guard_radius, kth_distance_pdf, sample_ppp
from udngc.simulator import _Strip


def line_strip(points, length=10.0, width=1.0):
    """A strip for a UE walking the x axis from the origin; stations at
    ``points`` (x, y) sit at a = x along the line and b = y across it."""
    a, b = np.asarray(points, dtype=float).T
    return _Strip(a, b, length, width)


class TestSamplePpp:
    def test_count_law(self):
        # mean count over many seeds approaches density * area within 1%
        lam, radius = 0.01, 100.0
        counts = [len(sample_ppp(lam, radius, seed)) for seed in range(10_000)]
        expected = lam * np.pi * radius**2
        assert abs(np.mean(counts) / expected - 1.0) < 0.01

    def test_zero_radius_rejected(self):
        with pytest.raises(ParameterError):
            sample_ppp(0.01, 0.0, 1)
        with pytest.raises(ParameterError):
            sample_ppp(0.01, -10.0, 1)

    def test_non_positive_density_rejected(self):
        with pytest.raises(ParameterError):
            sample_ppp(0.0, 10.0, 1)
        with pytest.raises(ParameterError):
            sample_ppp(-1.0, 10.0, 1)

    def test_deterministic_for_fixed_seed(self):
        a = sample_ppp(0.001, 500.0, 7)
        b = sample_ppp(0.001, 500.0, 7)
        np.testing.assert_array_equal(a, b)

    def test_points_inside_window(self):
        pts = sample_ppp(0.01, 50.0, 3)
        assert pts.shape[1] == 2 and len(pts) > 0
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 50.0)

    def test_thinning_consistency(self):
        # keeping each point w.p. p matches sampling at p*lambda in count
        # mean and variance, within Monte Carlo error
        lam, p, radius, n = 0.01, 0.3, 60.0, 4000
        rng = default_rng(99)
        thinned = [int(rng.binomial(len(sample_ppp(lam, radius, seed)), p)) for seed in range(n)]
        direct = [len(sample_ppp(lam * p, radius, 10**6 + seed)) for seed in range(n)]
        mu = lam * p * np.pi * radius**2
        se = np.sqrt(mu / n)
        assert abs(np.mean(thinned) - np.mean(direct)) < 4 * np.sqrt(2) * se
        assert abs(np.var(thinned) / np.var(direct) - 1.0) < 0.15


class TestKNearest:
    """The k-nearest query of the trial engine, _Strip.nearest; the narrow
    starting width makes each query widen the strip before it answers."""

    def test_hand_geometry(self):
        strip = line_strip([(0.0, 0.0), (10.0, 0.0), (5.0, 10.0)])
        ids, dists = strip.nearest(2.0, 2)
        np.testing.assert_allclose(dists, [2.0, 8.0])
        np.testing.assert_array_equal(ids, [0, 1])

    def test_query_on_station(self):
        strip = line_strip([(3.0, 0.0), (10.0, 10.0)])
        _, dists = strip.nearest(3.0, 1)
        assert dists[0] == 0.0

    def test_insufficient_points(self):
        strip = line_strip([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(InsufficientPointsError):
            strip.nearest(0.0, 3)

    def test_prefix_property(self):
        # the (k+1)-nearest list extends the k-nearest list, and both match
        # a brute-force sort of every station's distance
        rng = default_rng(5)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            pts = rng.uniform(-50, 50, size=(n, 2))
            t = rng.uniform(0, 10)
            k = int(rng.integers(1, n))
            a_ids, a_d = line_strip(pts).nearest(t, k)
            b_ids, b_d = line_strip(pts).nearest(t, k + 1)
            np.testing.assert_array_equal(b_ids[:k], a_ids)
            assert np.all(np.diff(b_d) >= 0)
            brute = np.argsort(np.hypot(pts[:, 0] - t, pts[:, 1]))
            np.testing.assert_array_equal(b_ids, brute[: k + 1])


class TestDistanceLaws:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_pdf_normalisation(self, m):
        lam = 0.01
        val, _ = integrate.quad(lambda r: kth_distance_pdf(r, m, lam), 0, np.inf)
        assert abs(val - 1.0) < 1e-6

    def test_m1_is_rayleigh(self):
        lam = 0.003
        r = np.linspace(0.01, 60.0, 200)
        rayleigh = 2 * np.pi * lam * r * np.exp(-np.pi * lam * r**2)
        np.testing.assert_allclose(kth_distance_pdf(r, 1, lam), rayleigh, rtol=1e-12)

    def test_empirical_kth_distance_ks(self):
        # 1e5 PPP realisations: the m-th nearest distance from the origin
        # matches the analytic law with KS distance < 0.01
        lam, m, radius, trials = 0.01, 3, 40.0, 100_000
        rng = default_rng(31)
        counts = rng.poisson(lam * np.pi * radius**2, size=trials)
        assert counts.min() >= m  # window large enough for the order statistic
        radii = radius * np.sqrt(rng.uniform(size=int(counts.sum())))
        owner = np.repeat(np.arange(trials), counts)
        order = np.lexsort((radii, owner))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        r_m = radii[order][starts + (m - 1)]
        r_sorted = np.sort(r_m)
        cdf = kth_distance_cdf(r_sorted, m, lam)
        empirical = np.arange(1, trials + 1) / trials
        ks = np.max(np.abs(cdf - empirical))
        assert ks < 0.01

    def test_edge_pdf_normalisation(self):
        # the outer weight of the coverage integral is a density
        density = _edge_density(CoverageParams(tau=1.0, lambda_bs=0.01, m=3))
        val, _ = integrate.quad(density, 0, np.inf)
        assert abs(val - 1.0) < 1e-6

    def test_edge_pdf_equals_second_order_law(self):
        # for m >= 2 the coverage integral weighs R by the printed edge law
        # f(R) = 2 (pi lam)^2 R^3 exp(-pi lam R^2)
        lam = 0.004
        r = np.linspace(0.0, 80.0, 300)
        printed = 2.0 * (np.pi * lam) ** 2 * r**3 * np.exp(-np.pi * lam * r**2)
        density = _edge_density(CoverageParams(tau=1.0, lambda_bs=lam, m=3))
        np.testing.assert_allclose(density(r), printed, rtol=1e-12)

    def test_edge_pdf_mode(self):
        # the edge law is the second-nearest law; its stationary point is
        # R = sqrt(3 / (2 pi lam))
        lam = 0.01
        mode = np.sqrt(3.0 / (2.0 * np.pi * lam))
        assert abs(mode - 6.9099) < 5e-4
        r = np.linspace(0.01, 30.0, 20_000)
        assert abs(r[np.argmax(kth_distance_pdf(r, 2, lam))] - mode) < 5e-3


def test_guard_radius():
    assert guard_radius(0.01) == pytest.approx(3.0 / np.sqrt(np.pi * 0.01))
    with pytest.raises(ParameterError):
        guard_radius(0.0)

