"""Closed forms: rate family, costs, k integrals, recursion, coverage probability."""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from udngc import analytics
from udngc.analytics import (
    CostParams,
    CoverageParams,
    ase_cost,
    cost_aware_coverage,
    coverage_probability,
    handover_cost,
    handover_rate_gcho,
    handover_rate_gchos,
    k_integral,
    laplace_interference,
    optimal_cluster_size,
    overall_cost,
    signaling_overhead,
    toeplitz_matrix_coefficients,
    toeplitz_state,
)
from udngc.channel import PathLossParams
from udngc.errors import ParameterError

PL = PathLossParams(eta1=2.0, eta2=4.0, d_critical=10.0)

# frozen from a 1e6-trial run of the brute-force coverage oracle
# (coverage_oracle_model, seed=2024) at tau=0 dB, lambda=0.01, m=3, D=10
ORACLE_COVERAGE_TAU0 = 0.507724

DEFAULT_COSTS = CostParams(t_h=0.3, s1=0.3, s2=0.01 * 5e-3, mu=1.0, t_interval=5e-3)


class TestRateFamily:
    def test_gcho_value(self):
        assert handover_rate_gcho(10.0, 0.001, 3) == pytest.approx(0.20601, abs=5e-6)

    def test_reductions_vs_single_station(self):
        base = handover_rate_gcho(10.0, 0.001, 1)
        for m, reduction in ((3, 0.423), (6, 0.592), (9, 0.667)):
            observed = 1.0 - handover_rate_gcho(10.0, 0.001, m) / base
            assert observed == pytest.approx(1.0 - 1.0 / np.sqrt(m))
            assert abs(observed - reduction) < 1e-3

    def test_sqrt_density_scaling(self):
        assert handover_rate_gcho(10.0, 0.004, 3) == pytest.approx(
            2 * handover_rate_gcho(10.0, 0.001, 3)
        )

    def test_skipping_halves(self):
        for lam, m in ((0.001, 3), (0.01, 6), (0.005, 1)):
            assert handover_rate_gchos(10.0, lam, m) == pytest.approx(
                0.5 * handover_rate_gcho(10.0, lam, m)
            )
        assert handover_rate_gchos(10.0, 0.001, 3) == pytest.approx(0.10301, abs=5e-6)

    def test_ratio_family_invariants(self):
        base = handover_rate_gcho(7.0, 0.002, 1)
        for m in range(1, 12):
            assert handover_rate_gcho(7.0, 0.002, m) / base == pytest.approx(
                1 / np.sqrt(m)
            )


class TestCosts:
    def test_signaling(self):
        assert signaling_overhead(1.0, 0.005, 3) == pytest.approx(600.0)
        assert signaling_overhead(1.0, 0.005, 0) == 0.0
        assert signaling_overhead(1.0, 0.005, 6) == pytest.approx(
            2 * signaling_overhead(1.0, 0.005, 3)
        )

    def test_handover_cost(self):
        assert handover_cost(0.3, 0.20601) == pytest.approx(0.061803)
        assert handover_cost(0.3, 0.0) == 0.0
        with pytest.warns(UserWarning):
            assert handover_cost(2.0, 1.0) == pytest.approx(2.0)

    def test_cost_aware_coverage(self):
        assert cost_aware_coverage(0.8, 0.1) == pytest.approx(0.72)
        assert cost_aware_coverage(0.8, 0.0) == pytest.approx(0.8)

    def test_ase(self):
        assert ase_cost(0.01, 1.0, 0.5) == pytest.approx(0.005)
        assert ase_cost(0.01, 1.0, 0.0) == 0.0

    def test_ase_mobility_gap_identity(self):
        p, d_cost = 0.73, 0.194
        stationary = ase_cost(0.01, 1.0, p)
        mobile = ase_cost(0.01, 1.0, cost_aware_coverage(p, d_cost))
        assert (stationary - mobile) / stationary == pytest.approx(d_cost)

    def test_overall_cost_value(self):
        value = overall_cost("gcho", DEFAULT_COSTS, 10.0, 0.005, 3)
        assert value == pytest.approx(0.16820, abs=5e-6)

    def test_gchos_saves_half_the_rate_term(self):
        for m in (1, 3, 7):
            gap = overall_cost("gcho", DEFAULT_COSTS, 10.0, 0.005, m) - overall_cost(
                "gchos", DEFAULT_COSTS, 10.0, 0.005, m
            )
            assert gap == pytest.approx(
                DEFAULT_COSTS.s1 * 0.5 * handover_rate_gcho(10.0, 0.005, m)
            )

    def test_cost_grows_with_large_m(self):
        costs = [overall_cost("gcho", DEFAULT_COSTS, 10.0, 0.005, m) for m in (20, 50, 200)]
        assert costs[0] < costs[1] < costs[2]

    def test_unknown_scheme(self):
        with pytest.raises(ParameterError):
            overall_cost("foo", DEFAULT_COSTS, 10.0, 0.005, 3)


class TestOptimalClusterSize:
    def test_continuous_value(self):
        m_star, _ = optimal_cluster_size("gcho", DEFAULT_COSTS, 10.0, 0.005)
        assert m_star == pytest.approx((0.045 / (np.pi * 1e-4)) ** (1 / 3))
        assert m_star == pytest.approx(5.232, abs=2e-3)

    def test_scheme_ratio(self):
        for lam in (0.001, 0.005, 0.02):
            g, _ = optimal_cluster_size("gcho", DEFAULT_COSTS, 10.0, lam)
            s, _ = optimal_cluster_size("gchos", DEFAULT_COSTS, 10.0, lam)
            assert s / g == pytest.approx(4.0 ** (-1 / 3))

    def test_integer_optimum_exhaustive(self):
        m_star, m_int = optimal_cluster_size("gchos", DEFAULT_COSTS, 10.0, 0.005)
        assert m_star == pytest.approx(3.296, abs=2e-3)
        assert m_int == 3
        sweep = {
            m: overall_cost("gchos", DEFAULT_COSTS, 10.0, 0.005, m)
            for m in range(1, 21)
        }
        assert min(sweep, key=sweep.get) == m_int

    def test_first_order_optimality(self):
        for scheme in ("gcho", "gchos"):
            for lam in (0.001, 0.005, 0.02):
                m_star, _ = optimal_cluster_size(scheme, DEFAULT_COSTS, 10.0, lam)
                lo = max(1, int(np.floor(m_star)))
                hi = lo + 1
                c = lambda m: overall_cost(scheme, DEFAULT_COSTS, 10.0, lam, m)
                best = min(c(lo), c(hi))
                if lo > 1:
                    assert best <= c(lo - 1)
                assert best <= c(hi + 1)


def _k_integrand(i, u, eta2):
    """The integrand of k_i at u, before any substitution."""
    half = eta2 / 2
    return 1 / (1 + u**half) if i == 0 else u**half / (1 + u**half) ** (i + 1)


class TestKIntegral:
    def test_order0_closed_forms(self):
        assert k_integral(0, 0.0, 4.0) == pytest.approx(np.pi / 2)
        assert k_integral(0, 1.0, 4.0) == pytest.approx(np.pi / 4)

    def test_order0_incomplete_beta_matches_arctan(self):
        for theta in (0.0, 0.3, 1.0, 4.0):
            closed = np.pi / 2 - np.arctan(theta)
            assert abs(k_integral(0, theta, 4.0) - closed) < 1e-8

    @pytest.mark.parametrize("eta2", [2.5, 3.0, 4.0, 4.5, 6.0])
    def test_matches_mpmath_quadrature(self, eta2):
        # independent of the incomplete-beta route: 30-digit tanh-sinh
        # quadrature of the original integrands over [theta, inf), mapped to
        # [0, 1) by u = theta + x/(1-x)
        with mp.workdps(30):
            for theta in (0.0, 0.3, 1.0, 5.0, 40.0):
                got = k_integral(np.arange(10), theta, eta2)
                th, e2 = mp.mpf(theta), mp.mpf(eta2)
                for i in range(10):
                    ref = mp.quad(
                        lambda x: _k_integrand(i, th + x / (1 - x), e2) / (1 - x) ** 2,
                        [0, 0.5, 0.9, 0.99, 1],
                    )
                    assert got[i] == pytest.approx(float(ref), rel=1e-7), (i, theta)

    def test_array_of_orders_matches_single_orders(self):
        orders = np.arange(6)
        got = k_integral(orders, 0.7, 4.5)
        assert got.shape == (6,)
        assert isinstance(k_integral(2, 0.7, 4.5), float)
        for i in orders:
            assert got[i] == k_integral(int(i), 0.7, 4.5)

    @settings(max_examples=60, deadline=None)
    @given(
        i=st.integers(0, 9),
        eta2=st.floats(2.5, 6.0),
        theta=st.floats(0.05, 40.0),
    )
    def test_derivative_is_minus_integrand(self, i, eta2, theta):
        delta = 1e-5 * theta
        lo, hi = k_integral(i, theta - delta, eta2), k_integral(i, theta + delta, eta2)
        assert hi <= lo  # non-increasing in theta
        slope = (hi - lo) / (2 * delta)
        assert slope == pytest.approx(-_k_integrand(i, theta, eta2), rel=1e-5)

    def test_order1_brute_force_riemann(self):
        # midpoint Riemann sum with 1e7 panels on the transformed interval
        theta, eta2, panels = 0.0, 4.0, 10_000_000
        t = (np.arange(panels) + 0.5) / panels
        u = theta + t / (1.0 - t)
        integrand = u**2 / (1.0 + u**2) ** 2 / (1.0 - t) ** 2
        brute = integrand.sum() / panels
        assert abs(k_integral(1, theta, eta2) - brute) < 1e-6

    def test_order1_antiderivative(self):
        # d/du [arctan(u)/2 - u/(2(1+u^2))] = u^2/(1+u^2)^2
        for theta in (0.0, 0.8, 2.5):
            closed = np.pi / 4 - np.arctan(theta) / 2 + theta / (2 * (1 + theta**2))
            assert k_integral(1, theta, 4.0) == pytest.approx(closed, abs=1e-10)

    def test_divergent_order_rejected(self):
        with pytest.raises(ParameterError):
            k_integral(0, 0.0, 2.0)

    def test_vanishes_for_huge_theta(self):
        assert np.all(k_integral(np.arange(4), 1e200, 4.5) == 0.0)

    def test_invalid_order_rejected(self):
        for order in (-1, 1.5, np.array([0, -2])):
            with pytest.raises(ParameterError):
                k_integral(order, 0.5, 4.0)

    def test_general_eta2(self):
        # eta2 = 3: order-0 integrand ~ u^-1.5, still integrable
        val = k_integral(0, 0.5, 3.0)
        brute, _ = integrate.quad(lambda u: 1 / (1 + u**1.5), 0.5, np.inf)
        assert val == pytest.approx(brute, rel=1e-7)


class TestLaplaceTransform:
    def test_limits(self):
        assert laplace_interference(0.0, 0.01, 8.0, PL) == 1.0
        assert laplace_interference(64.0, 0.0, 8.0, PL) == 1.0
        assert laplace_interference(1e-12, 0.01, 8.0, PL) == pytest.approx(1.0, abs=1e-5)

    def test_incomplete_beta_vs_arctan(self):
        # at eta2 = 4, k_0(theta) = pi/2 - arctan(theta)
        for s in (0.5, 64.0, 4000.0):
            sl = (s * PL.continuity_constant) ** (2 / PL.eta2)
            theta = 64.0 / sl
            closed = np.exp(-np.pi * 0.01 * sl * (np.pi / 2 - np.arctan(theta)))
            assert abs(laplace_interference(s, 0.01, 8.0, PL) - closed) < 1e-8

    def test_decreasing_in_s(self):
        values = [laplace_interference(s, 0.01, 8.0, PL) for s in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2]


class TestToeplitzRecursion:
    def test_against_numerical_differentiation(self):
        # a_n must equal ((-s)^n / n!) d^n/ds^n of the interference Laplace
        # transform; the oracle differentiates a quadrature evaluation of the
        # transform with mpmath, never touching the recursion
        tau, lam, big_r = 1.0, 0.01, 8.0
        cp = CoverageParams(tau=tau, lambda_bs=lam, m=4, pathloss=PL)
        state = toeplitz_state(cp, big_r)
        lam_c = PL.continuity_constant

        def transform(s):
            s = mp.mpf(s)
            sl = (s * lam_c) ** (mp.mpf(2) / PL.eta2)
            theta = mp.mpf(big_r) ** 2 / sl
            inner = mp.quad(lambda u: 1 / (1 + u**2), [theta, mp.inf])
            return mp.e ** (-mp.pi * lam * sl * inner)

        s0 = tau * big_r**PL.eta1
        with mp.workdps(40):
            oracles = [
                float((-s0) ** n / mp.factorial(n) * mp.diff(transform, s0, n))
                for n in range(4)
            ]
        for n, oracle in enumerate(oracles):
            assert state.a_values[n] == pytest.approx(oracle, rel=1e-7)

    def test_matrix_route_agrees_with_recursion(self):
        for m in (2, 3, 5, 9):
            for big_r in (2.0, 8.0, 25.0):
                cp = CoverageParams(tau=2.0, lambda_bs=0.003, m=m, pathloss=PL)
                state = toeplitz_state(cp, big_r)
                via_matrix = toeplitz_matrix_coefficients(state)
                assert np.max(np.abs(via_matrix - state.a_values)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        tau=st.floats(0.05, 50.0),
        lam=st.floats(1e-4, 0.05),
        m=st.integers(2, 9),
        big_r=st.floats(0.5, 40.0),
        eta2=st.floats(2.5, 6.0),
    )
    def test_matrix_route_property(self, tau, lam, m, big_r, eta2):
        pl = PathLossParams(eta1=2.0, eta2=eta2, d_critical=10.0)
        cp = CoverageParams(tau=tau, lambda_bs=lam, m=m, pathloss=pl)
        state = toeplitz_state(cp, big_r)
        assert np.max(np.abs(toeplitz_matrix_coefficients(state) - state.a_values)) < 1e-10

    def test_state_fields(self):
        cp = CoverageParams(tau=1.0, lambda_bs=0.01, m=3, pathloss=PL)
        state = toeplitz_state(cp, 8.0)
        assert state.k_values.shape == (2,)
        assert state.a_values.shape == (3,)
        assert 0.0 < state.a_values[0] <= 1.0
        assert state.theta == pytest.approx(8.0 / 10.0)  # R / (sqrt(tau) D) here
        assert state.b0 == pytest.approx(np.pi * 0.01 * 80.0)


class TestCoverage:
    def test_tiny_threshold_covers(self):
        cp = CoverageParams(tau=1e-6, lambda_bs=0.01, m=3, pathloss=PL)
        assert coverage_probability(cp) > 0.999

    def test_decreasing_in_tau(self):
        taus_db = np.array([-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0])
        values = [
            coverage_probability(
                CoverageParams(tau=10 ** (t / 10), lambda_bs=0.01, m=3, pathloss=PL)
            )
            for t in taus_db
        ]
        assert np.all(np.diff(values) < 0)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_matches_frozen_oracle_value(self):
        cp = CoverageParams(tau=1.0, lambda_bs=0.01, m=3, pathloss=PL)
        assert coverage_probability(cp) == pytest.approx(ORACLE_COVERAGE_TAU0, abs=0.01)

    def test_single_station_mode_reduces_to_classic_closed_form(self):
        # with eta1 = eta2 = 4 the model degenerates to single-slope nearest
        # association, whose coverage is 1/(1 + rho(tau)),
        # rho = sqrt(tau) (pi/2 - arctan(1/sqrt(tau)))
        pl = PathLossParams(eta1=4.0, eta2=4.0, d_critical=10.0)
        for tau in (0.5, 1.0, 2.0):
            cp = CoverageParams(tau=tau, lambda_bs=0.01, m=1, pathloss=pl)
            rho = np.sqrt(tau) * (np.pi / 2 - np.arctan(1 / np.sqrt(tau)))
            assert coverage_probability(cp) == pytest.approx(1 / (1 + rho), abs=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            CoverageParams(tau=0.0, lambda_bs=0.01, m=3, pathloss=PL)
        with pytest.raises(ParameterError):
            CoverageParams(tau=1.0, lambda_bs=0.01, m=0, pathloss=PL)
