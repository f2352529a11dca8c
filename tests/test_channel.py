"""Channel: dual-slope path loss and the cooperative SIR evaluator."""
import numpy as np
import pytest
from numpy.random import default_rng

from reference import cooperative_sir
from udngc.channel import PathLossParams, path_loss
from udngc.errors import InsufficientPointsError, ParameterError

PL = PathLossParams(eta1=2.0, eta2=4.0, d_critical=10.0)


def distances(points):
    """Distances from a UE at the origin to stations at ``points``."""
    return np.hypot(*np.asarray(points, dtype=float).T)


class TestPathLoss:
    def test_near_branch(self):
        assert path_loss(5.0, PL) == pytest.approx(0.04)

    def test_far_branch(self):
        assert path_loss(20.0, PL) == pytest.approx(100.0 * 20.0**-4)
        assert path_loss(20.0, PL) == pytest.approx(6.25e-4)

    def test_continuity_at_critical_distance(self):
        d = PL.d_critical
        near = d**-PL.eta1
        far = PL.continuity_constant * d**-PL.eta2
        assert near == pytest.approx(far)
        assert path_loss(d, PL) == pytest.approx(near)

    def test_zero_distance_rejected(self):
        with pytest.raises(ParameterError):
            path_loss(0.0, PL)

    def test_monotone_non_increasing(self):
        r = np.linspace(0.5, 100.0, 4000)
        gains = path_loss(r, PL)
        assert np.all(np.diff(gains) <= 1e-15)

    def test_far_branch_below_near_extrapolation(self):
        r = np.linspace(10.0 + 1e-9, 200.0, 100)
        assert np.all(path_loss(r, PL) <= r**-PL.eta1 + 1e-18)

    def test_exponent_ordering_enforced(self):
        with pytest.raises(ParameterError):
            PathLossParams(eta1=5.0, eta2=4.0, d_critical=10.0)


class TestSirExact:
    """cooperative_sir: each cooperator on its own branch, the rest far."""

    def test_server_and_interferer_at_critical_distance(self):
        # at r = d_critical both branches coincide, so an equidistant
        # server/interferer pair gives SIR = 1 exactly
        d = PL.d_critical
        signal, interference = cooperative_sir([d, d], np.ones(2), 1, PL)
        assert signal / interference == pytest.approx(1.0)

    def test_equidistant_pair_inside_critical_distance(self):
        # nearer than d_critical the interferer still uses the far branch,
        # so the symmetric SIR is (d / d_critical)^(eta2 - eta1)
        d = 5.0
        signal, interference = cooperative_sir([d, d], np.ones(2), 1, PL)
        assert signal / interference == pytest.approx((d / PL.d_critical) ** (PL.eta2 - PL.eta1))

    def test_single_far_interferer(self):
        d = 25.0
        r = distances([(1.0, 0.0), (2.0, 0.0), (0.0, d)])
        _, interference = cooperative_sir(r, np.ones(3), 2, PL)
        assert interference == pytest.approx(PL.continuity_constant * d**-PL.eta2)

    def test_mean_signal_equals_path_loss_sum(self):
        # unit-mean fading: averaging over draws recovers the geometry term
        r = distances([(3.0, 0.0), (0.0, 8.0), (-15.0, 0.0), (0.0, -40.0)])
        m = 3
        expected = sum(path_loss(d, PL) for d in (3.0, 8.0, 15.0))
        n = 30_000
        gains = default_rng(4).exponential(size=(n, r.size))
        mean = np.mean([cooperative_sir(r, h, m, PL)[0] for h in gains])
        sd = np.sqrt(sum(path_loss(d, PL) ** 2 for d in (3.0, 8.0, 15.0)) / n)
        assert abs(mean - expected) < 4 * sd

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            cooperative_sir([1.0, 2.0], np.ones(2), 2, PL)

    def test_station_on_ue_rejected(self):
        with pytest.raises(ParameterError):
            cooperative_sir([0.0, 5.0], np.ones(2), 1, PL)

    def test_matches_manual_recomputation(self):
        # white box: signal/interference rebuilt by hand from the same
        # gains; also demonstrates the fading-scale invariance of the ratio
        pts = [(2.0, 1.0), (-7.0, 3.0), (12.0, -5.0), (0.0, 30.0), (-25.0, -25.0)]
        d = distances(pts)
        m = 2
        h = default_rng(77).exponential(size=len(pts))
        signal, interference = cooperative_sir(d, h, m, PL)
        order = np.argsort(d)
        expected_signal = sum(path_loss(d[i], PL) * h[i] for i in order[:m])
        expected_interference = sum(
            PL.continuity_constant * d[i] ** -PL.eta2 * h[i] for i in order[m:]
        )
        assert signal == pytest.approx(expected_signal)
        assert interference == pytest.approx(expected_interference)
        scaled = cooperative_sir(d, 3.7 * h, m, PL)
        assert scaled[0] / scaled[1] == pytest.approx(signal / interference)
