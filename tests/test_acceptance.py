"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The coverage grid runs a
million-trial oracle per parameter combination; expect about a minute in
total on two cores, of which the grid takes about 17 s.
"""
import dataclasses
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from udngc import analytics
from udngc.analytics import CostParams, CoverageParams, overall_cost
from udngc.channel import PathLossParams
from udngc.harness import ScenarioParams
from udngc.simulator import coverage_oracle_model, estimate_all_rates, simulate_trials

WORKERS = 2


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"\nFAIL: criterion {n} - {description}")
        raise
    print(f"\nPASS: criterion {n} - {description}")


@pytest.fixture(scope="module")
def m_sweep_rates():
    """GCHO/GCHO-S/traditional/FR rates at lambda=0.01, speed=10, 1600 trials."""
    out = {}
    for m in (1, 3, 6, 9):
        scn = ScenarioParams(lambda_bs=0.01, speed=10.0, m_group=m, seed=101)
        out[m] = estimate_all_rates(scn, 1600, base_seed=101, n_workers=WORKERS)
    return out


def test_criterion_1_rate_reductions():
    with criterion(1, "handover-rate reductions 42.3/59.2/66.7% at M=3/6/9"):
        base = analytics.handover_rate_gcho(10.0, 0.001, 1)
        for m, stated in ((3, 0.423), (6, 0.592), (9, 0.667)):
            reduction = 1.0 - analytics.handover_rate_gcho(10.0, 0.001, m) / base
            assert reduction == pytest.approx(1.0 - 1.0 / np.sqrt(m), abs=1e-12)
            assert abs(reduction - stated) < 1e-3  # 0.1 percentage point


def test_criterion_2_gchos_halving():
    with criterion(2, "skipping halves the rate: analytic 0.500, simulated in [0.45, 0.55]"):
        ratio = analytics.handover_rate_gchos(10.0, 0.01, 3) / analytics.handover_rate_gcho(
            10.0, 0.01, 3
        )
        assert ratio == pytest.approx(0.5, abs=1e-15)
        scn = ScenarioParams(lambda_bs=0.01, speed=10.0, m_group=3, seed=202)
        results = simulate_trials(scn, 10_000, base_seed=202, n_workers=WORKERS)
        executed = sum(r.handovers_gchos for r in results)
        plain = sum(r.handovers_gcho for r in results)
        sim_ratio = executed / plain
        print(f"  simulated executed-handover ratio: {sim_ratio:.4f}")
        assert 0.45 <= sim_ratio <= 0.55


def test_criterion_3_simulation_vs_closed_form(m_sweep_rates):
    with criterion(3, "simulated GCHO rate within 15% of closed form; scaling slopes hold"):
        for m, rates in m_sweep_rates.items():
            closed = analytics.handover_rate_gcho(10.0, 0.01, m)
            rel = rates["gcho"].mean / closed - 1.0
            print(f"  M={m}: sim {rates['gcho'].mean:.4f} vs closed {closed:.4f} ({rel:+.1%})")
            assert abs(rel) < 0.15
        lnm = np.log([1, 3, 6, 9])
        lnr = np.log([m_sweep_rates[m]["gcho"].mean for m in (1, 3, 6, 9)])
        m_slope = np.polyfit(lnm, lnr, 1)[0]
        print(f"  group-size slope: {m_slope:+.3f} (want -0.5 +/- 0.07)")
        assert abs(m_slope - (-0.5)) < 0.07

        lams = [1e-3, 3e-3, 1e-2]
        lam_rates = []
        for lam in lams[:2]:
            scn = ScenarioParams(lambda_bs=lam, speed=10.0, m_group=3, seed=303)
            lam_rates.append(
                estimate_all_rates(scn, 1200, base_seed=303, n_workers=WORKERS)["gcho"].mean
            )
        lam_rates.append(m_sweep_rates[3]["gcho"].mean)
        lam_slope = np.polyfit(np.log(lams), np.log(lam_rates), 1)[0]
        print(f"  density slope: {lam_slope:+.3f} (want 0.5 +/- 0.05)")
        assert abs(lam_slope - 0.5) < 0.05


def test_criterion_4_coverage_grid():
    with criterion(4, "coverage matches 1e6-trial oracle within 0.01 on the full grid"):
        taus_db = np.array([-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0])
        taus = 10.0 ** (taus_db / 10.0)
        grid = {}
        for lam in (0.001, 0.01):
            for d in (10.0, 20.0):
                params = CoverageParams(
                    tau=1.0, lambda_bs=lam, m=3,
                    pathloss=PathLossParams(2.0, 4.0, d),
                )
                sims = coverage_oracle_model(params, 1_000_000, seed=404, taus=taus)
                anas = np.array(
                    [
                        analytics.coverage_probability(dataclasses.replace(params, tau=t))
                        for t in taus
                    ]
                )
                worst = np.max(np.abs(anas - sims))
                print(f"  lam={lam}, D={d}: worst |analytic - oracle| = {worst:.4f}")
                assert worst < 0.01
                assert np.all(np.diff(anas) < 0)  # decreasing in tau
                grid[(lam, d)] = anas
        for lam in (0.001, 0.01):  # decreasing in D at fixed lambda
            assert np.all(grid[(lam, 10.0)] >= grid[(lam, 20.0)] - 1e-12)
        for d in (10.0, 20.0):  # decreasing in lambda at fixed D
            assert np.all(grid[(0.001, d)] >= grid[(0.01, d)] - 1e-12)


def test_criterion_5_recursion_internals():
    with criterion(5, "order-0 integral closed form to 1e-8; matrix vs recursion to 1e-10"):
        for theta in np.linspace(0.0, 6.0, 13):
            closed = np.pi / 2 - np.arctan(theta)
            incomplete_beta = analytics.k_integral(0, theta, 4.0)
            assert abs(incomplete_beta - closed) < 1e-8
        for m in range(2, 10):
            for (tau, lam, big_r) in ((1.0, 0.01, 8.0), (10.0, 0.003, 15.0), (0.1, 0.02, 3.0)):
                params = CoverageParams(
                    tau=tau, lambda_bs=lam, m=m, pathloss=PathLossParams(2.0, 4.0, 10.0)
                )
                state = analytics.toeplitz_state(params, big_r)
                via_matrix = analytics.toeplitz_matrix_coefficients(state)
                assert np.max(np.abs(via_matrix - state.a_values)) < 1e-10


def test_criterion_6_optimal_cluster_size():
    with criterion(6, "optimum ratio 4^(-1/3) exact; skipping-scheme integer optimum M=3"):
        costs = CostParams(t_h=0.3, s1=0.3, s2=0.01 * 5e-3, mu=1.0, t_interval=5e-3)
        for lam in (0.001, 0.005, 0.02):
            g, _ = analytics.optimal_cluster_size("gcho", costs, 10.0, lam)
            s, _ = analytics.optimal_cluster_size("gchos", costs, 10.0, lam)
            assert s / g == pytest.approx(4.0 ** (-1.0 / 3.0), abs=1e-12)
        m_star, m_int = analytics.optimal_cluster_size("gchos", costs, 10.0, 0.005)
        print(f"  continuous optimum {m_star:.3f}, integer optimum {m_int}")
        assert m_int == 3
        sweep = {m: overall_cost("gchos", costs, 10.0, 0.005, m) for m in range(1, 21)}
        assert min(sweep, key=sweep.get) == 3


def test_criterion_7_ase_mobility_gap():
    with criterion(7, "ASE mobility gap equals t_h*rate; figure-read values within 2.5pp"):
        for lam, figure_read in ((0.002, 0.083), (0.01, 0.2143)):
            rate = analytics.handover_rate_gcho(10.0, lam, 3)
            d_cost = analytics.handover_cost(0.3, rate)
            params = CoverageParams(
                tau=1.0, lambda_bs=lam, m=3, pathloss=PathLossParams(2.0, 4.0, 10.0)
            )
            p = analytics.coverage_probability(params)
            stationary = analytics.ase_cost(lam, 1.0, p)
            mobile = analytics.ase_cost(
                lam, 1.0, analytics.cost_aware_coverage(p, d_cost)
            )
            gap = (stationary - mobile) / stationary
            assert gap == pytest.approx(d_cost, abs=1e-12)
            print(f"  lam={lam}: computed gap {gap:.2%} vs figure-read {figure_read:.2%}")
            assert abs(gap - figure_read) < 0.025


def test_criterion_8_fixed_region_baseline_dominates():
    with criterion(8, "disk-membership baseline rate exceeds GCHO by >= 3 CI half-widths"):
        for lam in (0.005, 0.01):
            for speed in (5.0, 10.0):
                scn = ScenarioParams(lambda_bs=lam, speed=speed, m_group=3, seed=505)
                rates = estimate_all_rates(scn, 400, base_seed=505, n_workers=WORKERS)
                sep = rates["fr"].mean - rates["gcho"].mean
                spread = 3.0 * (rates["fr"].half_width_95 + rates["gcho"].half_width_95)
                print(
                    f"  lam={lam}, speed={speed}: fr {rates['fr'].mean:.3f} vs "
                    f"gcho {rates['gcho'].mean:.3f} (separation {sep:.3f} > {spread:.3f})"
                )
                assert sep > spread


def test_criterion_9_csv_determinism(tmp_path):
    with criterion(9, "simulate --threads 1 with fixed seed is byte-identical"):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("lambda_bs=0.01\ntrials=40\nseed=12\n")
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "udngc.cli", "simulate", str(cfg),
                    "--out", str(out), "--threads", "1",
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
