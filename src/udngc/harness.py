"""Scenario configuration, figure sweeps, CSV output, and the validation suite.

Model internals use linear units throughout; decibel-to-linear conversion
happens exactly once, in :class:`ScenarioParams.tau_linear`.

CSV schema (fixed): ``parameter,value,metric,analytic,simulated,ci95,trials,
runtime_ms``.  Numeric cells carry 12 significant digits, '.' decimal, LF
line endings; a field holding a comma is double-quoted.  In bit-exact mode
(single thread) the runtime_ms column is left empty so repeated runs of the
same seed are byte-identical.
"""
from __future__ import annotations

import csv
import dataclasses
import importlib.resources
import io
import itertools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytics, simulator
from .analytics import CostParams, CoverageParams
from .channel import PathLossParams
from .errors import ConfigError, ParameterError
from .geometry import guard_radius

__all__ = [
    "ScenarioParams",
    "SweepRow",
    "CSV_HEADER",
    "parse_config",
    "write_rows",
    "rows_to_csv",
    "analytic_rows",
    "simulate_rows",
    "run_figure",
    "validate",
    "FIGURE_PRESETS",
]

CSV_HEADER = "parameter,value,metric,analytic,simulated,ci95,trials,runtime_ms"

#: default trajectory length in units of sqrt(m_group / lambda_bs); sized so a
#: trial sees on the order of twenty group-cell transits
_LENGTH_FACTOR = 18.0

_INT_FIELDS = {"m_group", "trials", "seed"}
_FLOAT_FIELDS = {
    "lambda_bs", "eta1", "eta2", "d_critical", "speed", "tau_db",
    "t_h", "mu", "t_interval", "s1", "s2", "window_radius",
}
_ALL_FIELDS = _INT_FIELDS | _FLOAT_FIELDS


@dataclass(frozen=True)
class ScenarioParams:
    """Fully resolved scenario: model constants plus simulation controls.

    ``s1`` defaults to ``t_h`` (one handoff costs one handover delay) and
    ``s2`` to ``0.01 * t_interval``; ``window_radius`` defaults to a value
    derived from density and group size.  ``tau_db`` is stored in dB and
    converted to linear exactly once via :attr:`tau_linear`.
    """

    lambda_bs: float
    eta1: float = 2.0
    eta2: float = 4.0
    d_critical: float = 10.0
    speed: float = 10.0
    m_group: int = 3
    tau_db: float = 0.0
    t_h: float = 0.3
    mu: float = 1.0
    t_interval: float = 5e-3
    s1: float | None = None
    s2: float | None = None
    trials: int = 1000
    seed: int = 1
    window_radius: float | None = None

    def __post_init__(self) -> None:
        if self.lambda_bs <= 0:
            raise ParameterError(f"lambda_bs must be > 0, got {self.lambda_bs}")
        if not 0.0 <= self.eta1 <= self.eta2:
            raise ParameterError(
                f"path loss exponents must satisfy 0 <= eta1 <= eta2, "
                f"got eta1={self.eta1}, eta2={self.eta2}"
            )
        for name, lower in (
            ("d_critical", 0.0), ("speed", 0.0), ("t_h", 0.0), ("mu", 0.0),
            ("t_interval", 0.0),
        ):
            if not getattr(self, name) > lower:
                raise ParameterError(f"{name} must be > {lower}, got {getattr(self, name)}")
        if self.m_group < 1:
            raise ParameterError(f"m_group must be >= 1, got {self.m_group}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.s1 is None:
            object.__setattr__(self, "s1", self.t_h)
        if self.s2 is None:
            object.__setattr__(self, "s2", 0.01 * self.t_interval)
        if self.s1 <= 0 or self.s2 <= 0:
            raise ParameterError("s1 and s2 must be > 0")
        if self.window_radius is None:
            auto = _LENGTH_FACTOR * np.sqrt(self.m_group / self.lambda_bs) + self.guard
            object.__setattr__(self, "window_radius", auto)
        if self.window_radius <= self.guard:
            raise ParameterError(
                f"window_radius must exceed the guard band {self.guard:.1f} m, "
                f"got {self.window_radius}"
            )

    @property
    def guard(self) -> float:
        return guard_radius(self.lambda_bs)

    @property
    def duration(self) -> float:
        """Travel time: the UE runs from the centre to the guard ring."""
        return (self.window_radius - self.guard) / self.speed

    @property
    def tau_linear(self) -> float:
        return 10.0 ** (self.tau_db / 10.0)

    def pathloss(self) -> PathLossParams:
        return PathLossParams(eta1=self.eta1, eta2=self.eta2, d_critical=self.d_critical)

    def coverage_params(self) -> CoverageParams:
        return CoverageParams(
            tau=self.tau_linear,
            lambda_bs=self.lambda_bs,
            m=self.m_group,
            pathloss=self.pathloss(),
        )

    def cost_params(self) -> CostParams:
        return CostParams(
            t_h=self.t_h, s1=self.s1, s2=self.s2, mu=self.mu, t_interval=self.t_interval
        )


def _parse_kv(text: str, source: str) -> dict:
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _ALL_FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key: {key}")
        try:
            values[key] = int(val) if key in _INT_FIELDS else float(val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def parse_config(path) -> ScenarioParams:
    """Read a flat key=value scenario file ('#' comments allowed)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    values = _parse_kv(p.read_text(), str(p))
    if "lambda_bs" not in values:
        raise ConfigError("lambda_bs required")
    try:
        return ScenarioParams(**values)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def apply_overrides(scenario_kwargs: dict, overrides) -> dict:
    """Merge CLI ``key=value`` strings into scenario keyword arguments.

    Each string is parsed as one line of a scenario file, so errors name it
    as ``--set:<n>``, the n-th override.
    """
    return {**scenario_kwargs, **_parse_kv("\n".join(overrides or ()), "--set")}


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One (parameter point, metric) record of a sweep."""

    parameter: str
    value: float
    metric: str
    analytic: float | None = None
    simulated: float | None = None
    ci95: float | None = None
    trials: int | None = None
    runtime_ms: float | None = None

    def __post_init__(self) -> None:
        if self.analytic is None and self.simulated is None:
            raise ParameterError("a row needs an analytic or a simulated value")


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def rows_to_csv(rows, bit_exact: bool) -> str:
    """Render rows under the fixed schema; blanks runtime_ms in bit-exact mode.

    Fields holding a comma (metric labels such as ``handover_rate[gcho,M=3]``)
    are quoted, so every row reads back as eight fields.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        runtime = None if bit_exact else r.runtime_ms
        writer.writerow(
            [
                r.parameter,
                _fmt(r.value),
                r.metric,
                _fmt(r.analytic),
                _fmt(r.simulated),
                _fmt(r.ci95),
                _fmt(r.trials),
                _fmt(runtime),
            ]
        )
    return buf.getvalue()


def write_rows(out_path, rows, bit_exact: bool) -> None:
    text = rows_to_csv(rows, bit_exact)
    if out_path is None:
        print(text, end="")
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# analytic / simulate commands
# ---------------------------------------------------------------------------

def analytic_rows(scenario: ScenarioParams) -> list[SweepRow]:
    """Closed-form metrics of one scenario."""
    lam, v, m = scenario.lambda_bs, scenario.speed, scenario.m_group
    costs = scenario.cost_params()
    rate_g = analytics.handover_rate_gcho(v, lam, m)
    rate_s = analytics.handover_rate_gchos(v, lam, m)
    rate_t = analytics.handover_rate_gcho(v, lam, 1)
    d_cost = analytics.handover_cost(scenario.t_h, rate_g)
    p_cov = analytics.coverage_probability(scenario.coverage_params())
    p_mobile = analytics.cost_aware_coverage(p_cov, 1, min(d_cost, 1.0))
    m_star_g, m_int_g = analytics.optimal_cluster_size("gcho", costs, v, lam)
    m_star_s, m_int_s = analytics.optimal_cluster_size("gchos", costs, v, lam)

    def row(metric, value):
        return SweepRow("lambda_bs", lam, metric, analytic=value)

    return [
        row("handover_rate[gcho]", rate_g),
        row("handover_rate[gchos]", rate_s),
        row("handover_rate[traditional]", rate_t),
        row("signaling_overhead", analytics.signaling_overhead(scenario.mu, scenario.t_interval, m)),
        row("handover_cost[gcho]", d_cost),
        row("handover_cost[gchos]", analytics.handover_cost(scenario.t_h, rate_s)),
        row("overall_cost[gcho]", analytics.overall_cost("gcho", costs, v, lam, m)),
        row("overall_cost[gchos]", analytics.overall_cost("gchos", costs, v, lam, m)),
        row("optimal_m[gcho]", m_star_g),
        row("optimal_m_int[gcho]", float(m_int_g)),
        row("optimal_m[gchos]", m_star_s),
        row("optimal_m_int[gchos]", float(m_int_s)),
        row("coverage[stationary]", p_cov),
        row("coverage[mobile]", p_mobile),
        row("ase[stationary]", analytics.ase_cost(lam, scenario.tau_linear, p_cov)),
        row("ase[mobile]", analytics.ase_cost(lam, scenario.tau_linear, p_mobile)),
    ]


def _binomial_ci(p_hat: float, n: int) -> float:
    return 1.96 * np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def simulate_rows(scenario: ScenarioParams, threads: int = 1) -> list[SweepRow]:
    """Simulated metrics (with analytic counterparts where one exists)."""
    lam, v, m = scenario.lambda_bs, scenario.speed, scenario.m_group
    trials = scenario.trials
    t0 = time.perf_counter()
    rates = simulator.estimate_all_rates(scenario, trials, scenario.seed, n_workers=threads)
    rate_ms = (time.perf_counter() - t0) * 1e3 / 4.0

    analytic_for = {
        "gcho": analytics.handover_rate_gcho(v, lam, m),
        "gchos": analytics.handover_rate_gchos(v, lam, m),
        "traditional": analytics.handover_rate_gcho(v, lam, 1),
        "fr": None,
    }
    metric_name = {
        "gcho": "handover_rate[gcho]",
        "gchos": "handover_rate[gchos]",
        "traditional": "handover_rate[traditional]",
        "fr": "handover_rate[fr_baseline_disk]",
    }
    rows = [
        SweepRow(
            "lambda_bs", lam, metric_name[pol],
            analytic=analytic_for[pol],
            simulated=rates[pol].mean, ci95=rates[pol].half_width_95,
            trials=trials, runtime_ms=rate_ms,
        )
        for pol in simulator.POLICIES
    ]

    params = scenario.coverage_params()
    t0 = time.perf_counter()
    p_oracle = simulator.coverage_oracle_model(params, trials, scenario.seed)
    oracle_ms = (time.perf_counter() - t0) * 1e3
    rows.append(
        SweepRow(
            "lambda_bs", lam, "coverage[model]",
            analytic=analytics.coverage_probability(params),
            simulated=p_oracle, ci95=_binomial_ci(p_oracle, trials),
            trials=trials, runtime_ms=oracle_ms,
        )
    )
    t0 = time.perf_counter()
    p_geom = simulator.coverage_oracle_geometric(scenario, trials, scenario.seed)
    geom_ms = (time.perf_counter() - t0) * 1e3
    rows.append(
        SweepRow(
            "lambda_bs", lam, "coverage[geometric_oracle]",
            simulated=p_geom, ci95=_binomial_ci(p_geom, trials),
            trials=trials, runtime_ms=geom_ms,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

_COVERAGE_TRIALS = 100_000


def _point_seed(seed: int, point: int) -> int:
    """Base seed of a rate sweep's ``point``-th point: each point gets its
    own trials, so sampling errors do not repeat along the sweep."""
    return int(np.random.SeedSequence([seed, point]).generate_state(1)[0])


def _timed_rate(scenario, threads, point):
    t0 = time.perf_counter()
    est = simulator.estimate_all_rates(
        scenario, scenario.trials, _point_seed(scenario.seed, point), n_workers=threads
    )["gcho"]
    ms = (time.perf_counter() - t0) * 1e3
    return est, ms


def _fig3(base: dict, threads: int) -> list[SweepRow]:
    taus = np.linspace(-10.0, 20.0, 13)
    rows = []
    for lam in (0.001, 0.01):
        for d in (10.0, 20.0):
            scn = ScenarioParams(**{**base, "lambda_bs": lam, "d_critical": d, "m_group": 3})
            params = scn.coverage_params()
            t0 = time.perf_counter()
            sims = simulator.coverage_oracle_model(
                params, _COVERAGE_TRIALS, scn.seed, taus=10.0 ** (taus / 10.0)
            )
            ms = (time.perf_counter() - t0) * 1e3 / taus.size
            for tau_db, p_sim in zip(taus, sims):
                p_ana = analytics.coverage_probability(
                    dataclasses.replace(params, tau=10.0 ** (tau_db / 10.0))
                )
                rows.append(
                    SweepRow(
                        "tau_db", tau_db, f"coverage[lambda={lam:g},D={d:g}]",
                        analytic=p_ana, simulated=float(p_sim),
                        ci95=_binomial_ci(float(p_sim), _COVERAGE_TRIALS),
                        trials=_COVERAGE_TRIALS, runtime_ms=ms,
                    )
                )
    return rows


def _fig5(base: dict, threads: int) -> list[SweepRow]:
    lams = np.logspace(-4, -2, 9)
    rows = []
    points = itertools.count()
    for m in (1, 3, 6, 9):
        for lam in lams:
            scn = ScenarioParams(**{**base, "lambda_bs": float(lam), "m_group": m})
            est, ms = _timed_rate(scn, threads, next(points))
            rows.append(
                SweepRow(
                    "lambda_bs", float(lam), f"handover_rate[gcho,M={m}]",
                    analytic=analytics.handover_rate_gcho(scn.speed, lam, m),
                    simulated=est.mean, ci95=est.half_width_95,
                    trials=scn.trials, runtime_ms=ms,
                )
            )
            if m == 1:
                rows.append(
                    SweepRow(
                        "lambda_bs", float(lam), "handover_rate[traditional]",
                        analytic=analytics.handover_rate_gcho(scn.speed, lam, 1),
                    )
                )
    return rows


def _fig6(base: dict, threads: int) -> list[SweepRow]:
    speeds = np.array([1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    rows = []
    points = itertools.count()
    for m in (1, 3, 6, 9):
        for v in speeds:
            scn = ScenarioParams(**{**base, "lambda_bs": base.get("lambda_bs", 0.01), "speed": float(v), "m_group": m})
            est, ms = _timed_rate(scn, threads, next(points))
            rows.append(
                SweepRow(
                    "speed", float(v), f"handover_rate[gcho,M={m}]",
                    analytic=analytics.handover_rate_gcho(v, scn.lambda_bs, m),
                    simulated=est.mean, ci95=est.half_width_95,
                    trials=scn.trials, runtime_ms=ms,
                )
            )
    return rows


def _fig7(base: dict, threads: int) -> list[SweepRow]:
    scn = ScenarioParams(**{**base, "lambda_bs": base.get("lambda_bs", 0.01)})
    rows = []
    for m in range(1, 13):
        rate = analytics.handover_rate_gcho(scn.speed, scn.lambda_bs, m)
        rows.append(
            SweepRow(
                "m_group", float(m), "handover_cost[gcho]",
                analytic=analytics.handover_cost(scn.t_h, rate),
            )
        )
        rows.append(
            SweepRow(
                "m_group", float(m), "handover_cost[traditional]",
                analytic=analytics.handover_cost(
                    scn.t_h, analytics.handover_rate_gcho(scn.speed, scn.lambda_bs, 1)
                ),
            )
        )
    return rows


def _fig8(base: dict, threads: int) -> list[SweepRow]:
    speeds = np.array([2.0, 10.0, 20.0, 30.0])
    rows = []
    points = itertools.count()
    for lam in (0.001, 0.01):
        for v in speeds:
            scn = ScenarioParams(**{**base, "lambda_bs": lam, "speed": float(v), "m_group": 3})
            rates = simulator.estimate_all_rates(
                scn, scn.trials, _point_seed(scn.seed, next(points)), n_workers=threads
            )
            rows.append(
                SweepRow(
                    "speed", float(v), f"handover_rate[gcho,lambda={lam:g}]",
                    analytic=analytics.handover_rate_gcho(v, lam, 3),
                    simulated=rates["gcho"].mean, ci95=rates["gcho"].half_width_95,
                    trials=scn.trials,
                )
            )
            rows.append(
                SweepRow(
                    "speed", float(v), f"handover_rate[fr_baseline_disk,lambda={lam:g}]",
                    simulated=rates["fr"].mean, ci95=rates["fr"].half_width_95,
                    trials=scn.trials,
                )
            )
    return rows


def _fig9(base: dict, threads: int) -> list[SweepRow]:
    taus = np.linspace(-10.0, 20.0, 13)
    scn = ScenarioParams(**{**base, "lambda_bs": base.get("lambda_bs", 0.01), "m_group": 3})
    d_cost = analytics.handover_cost(
        scn.t_h, analytics.handover_rate_gcho(scn.speed, scn.lambda_bs, 3)
    )
    params = scn.coverage_params()
    sims = simulator.coverage_oracle_model(
        params, _COVERAGE_TRIALS, scn.seed, taus=10.0 ** (taus / 10.0)
    )
    rows = []
    for tau_db, p_sim in zip(taus, sims):
        p = analytics.coverage_probability(
            dataclasses.replace(params, tau=10.0 ** (tau_db / 10.0))
        )
        rows.append(
            SweepRow(
                "tau_db", tau_db, "coverage[stationary]",
                analytic=p, simulated=float(p_sim),
                ci95=_binomial_ci(float(p_sim), _COVERAGE_TRIALS),
                trials=_COVERAGE_TRIALS,
            )
        )
        rows.append(
            SweepRow(
                "tau_db", tau_db, "coverage[mobile]",
                analytic=analytics.cost_aware_coverage(p, 1, d_cost),
            )
        )
    return rows


def _fig10(base: dict, threads: int) -> list[SweepRow]:
    lams = np.array([0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05])
    rows = []
    for lam in lams:
        scn = ScenarioParams(**{**base, "lambda_bs": float(lam), "m_group": 3, "tau_db": base.get("tau_db", 0.0)})
        p = analytics.coverage_probability(scn.coverage_params())
        d_cost = analytics.handover_cost(
            scn.t_h, analytics.handover_rate_gcho(scn.speed, lam, 3)
        )
        p_mob = analytics.cost_aware_coverage(p, 1, min(d_cost, 1.0))
        rows.append(
            SweepRow(
                "lambda_bs", float(lam), "ase[stationary]",
                analytic=analytics.ase_cost(lam, scn.tau_linear, p),
            )
        )
        rows.append(
            SweepRow(
                "lambda_bs", float(lam), "ase[mobile]",
                analytic=analytics.ase_cost(lam, scn.tau_linear, p_mob),
            )
        )
    return rows


def _fig11(base: dict, threads: int) -> list[SweepRow]:
    speeds = np.arange(1.0, 31.0, 2.0)
    lam = base.get("lambda_bs", 0.01)
    scn = ScenarioParams(**{**base, "lambda_bs": lam, "m_group": 3})
    rows = []
    for v in speeds:
        c_g = analytics.handover_cost(scn.t_h, analytics.handover_rate_gcho(v, lam, 3))
        c_s = analytics.handover_cost(scn.t_h, analytics.handover_rate_gchos(v, lam, 3))
        rows.append(SweepRow("speed", float(v), "handover_cost[gcho]", analytic=c_g))
        rows.append(SweepRow("speed", float(v), "handover_cost[gchos]", analytic=c_s))
        rows.append(SweepRow("speed", float(v), "cost_ratio[gchos/gcho]", analytic=c_s / c_g))
    return rows


def _fig12(base: dict, threads: int) -> list[SweepRow]:
    rows = []
    for lam in (0.001, 0.005, 0.01):
        scn = ScenarioParams(**{**base, "lambda_bs": lam})
        costs = scn.cost_params()
        for m in range(1, 13):
            for scheme in ("gcho", "gchos"):
                rows.append(
                    SweepRow(
                        "m_group", float(m), f"overall_cost[{scheme},lambda={lam:g}]",
                        analytic=analytics.overall_cost(scheme, costs, scn.speed, lam, m),
                    )
                )
    return rows


def _fig13(base: dict, threads: int) -> list[SweepRow]:
    lams = np.logspace(-4, -1.3, 10)
    rows = []
    for v in (5.0, 10.0, 20.0):
        for lam in lams:
            scn = ScenarioParams(**{**base, "lambda_bs": float(lam), "speed": v})
            costs = scn.cost_params()
            for scheme in ("gcho", "gchos"):
                m_star, m_int = analytics.optimal_cluster_size(scheme, costs, v, float(lam))
                rows.append(
                    SweepRow(
                        "lambda_bs", float(lam), f"optimal_m[{scheme},speed={v:g}]",
                        analytic=m_star,
                    )
                )
                rows.append(
                    SweepRow(
                        "lambda_bs", float(lam), f"optimal_m_int[{scheme},speed={v:g}]",
                        analytic=float(m_int),
                    )
                )
    return rows


FIGURE_PRESETS = {
    "fig3": _fig3,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
}

#: per-preset base scenario (lambda_bs is overridden inside sweeps as needed)
_PRESET_BASE = {
    "fig3": {"lambda_bs": 0.01, "trials": 1000},
    "fig5": {"lambda_bs": 0.01, "trials": 1000},
    "fig6": {"lambda_bs": 0.01, "trials": 1000},
    "fig7": {"lambda_bs": 0.01},
    "fig8": {"lambda_bs": 0.01, "trials": 1000},
    "fig9": {"lambda_bs": 0.01, "trials": 1000},
    "fig10": {"lambda_bs": 0.01},
    "fig11": {"lambda_bs": 0.01},
    "fig12": {"lambda_bs": 0.005},
    "fig13": {"lambda_bs": 0.005},
}


def run_figure(preset: str, overrides, out_path, threads: int = 1) -> list[SweepRow]:
    """Evaluate a figure preset and write its CSV."""
    if preset not in FIGURE_PRESETS:
        raise ConfigError(
            f"unknown preset {preset!r}; expected one of {', '.join(sorted(FIGURE_PRESETS))}"
        )
    base = apply_overrides(_PRESET_BASE[preset], overrides)
    rows = FIGURE_PRESETS[preset](base, threads)
    write_rows(out_path, rows, bit_exact=(threads <= 1))
    return rows


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

VALIDATE_HEADER = "check,expected,observed,tolerance,status"

#: trial counts of the simulation-backed checks (kept modest; the acceptance
#: suite runs the full-size versions)
_VALIDATE_RATE_TRIALS = 400
_VALIDATE_ORACLE_TRIALS = 200_000


@dataclass(frozen=True)
class CheckRow:
    check: str
    expected: float
    observed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.observed - self.expected) <= self.tolerance


def _golden_path() -> Path:
    return Path(importlib.resources.files("udngc") / "data" / "golden.csv")


def _golden_checks(golden_path) -> list[CheckRow]:
    rows = []
    text = Path(golden_path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("check,"):
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ConfigError(f"golden file line {lineno}: expected 10 fields")
        name = parts[0]
        eta1, eta2, d_c, lam, tau_db, speed = map(float, parts[1:7])
        m = int(parts[7])
        expected, tol = float(parts[8]), float(parts[9])
        pl = PathLossParams(eta1=eta1, eta2=eta2, d_critical=d_c)
        if name == "coverage_analytic":
            observed = analytics.coverage_probability(
                CoverageParams(tau=10 ** (tau_db / 10), lambda_bs=lam, m=m, pathloss=pl)
            )
        elif name == "laplace_interference":
            big_r = 8.0
            s = 10 ** (tau_db / 10) * big_r**eta1
            observed = analytics.laplace_interference(s, lam, big_r, pl)
        elif name == "k_integral_order1":
            observed = analytics.k_integral(1, 0.8, eta2)
        elif name == "gcho_rate":
            observed = analytics.handover_rate_gcho(speed, lam, m)
        elif name == "optimal_m_gchos":
            costs = CostParams(t_h=0.3, s1=0.3, s2=0.01 * 5e-3, mu=1.0, t_interval=5e-3)
            observed = analytics.optimal_cluster_size("gchos", costs, speed, lam)[0]
        else:
            raise ConfigError(f"golden file line {lineno}: unknown check {name!r}")
        rows.append(CheckRow(f"golden:{name}", expected, observed, tol))
    return rows


def _live_checks(
    scenario: ScenarioParams,
    threads: int,
    rate_trials: int,
    oracle_trials: int,
) -> list[CheckRow]:
    lam, v = scenario.lambda_bs, scenario.speed
    checks = []

    # closed-form identities
    for m, red in ((3, 1 - 1 / np.sqrt(3)), (6, 1 - 1 / np.sqrt(6)), (9, 1 - 1 / 3.0)):
        obs = 1.0 - analytics.handover_rate_gcho(v, lam, m) / analytics.handover_rate_gcho(v, lam, 1)
        checks.append(CheckRow(f"rate_reduction_m{m}", red, obs, 1e-12))
    checks.append(
        CheckRow(
            "gchos_halving",
            0.5,
            analytics.handover_rate_gchos(v, lam, 3) / analytics.handover_rate_gcho(v, lam, 3),
            1e-12,
        )
    )
    costs = scenario.cost_params()
    m_star_g, _ = analytics.optimal_cluster_size("gcho", costs, v, lam)
    m_star_s, _ = analytics.optimal_cluster_size("gchos", costs, v, lam)
    checks.append(CheckRow("optimal_m_ratio", 4.0 ** (-1 / 3), m_star_s / m_star_g, 1e-12))

    # recursion internals: incomplete-beta k_0 at eta2 = 4 against its
    # elementary form, and the matrix route against the direct recursion
    theta_grid = np.linspace(0.0, 5.0, 11)
    diff = max(
        abs(analytics.k_integral(0, t, 4.0) - (np.pi / 2 - np.arctan(t)))
        for t in theta_grid
    )
    checks.append(CheckRow("k0_closed_form_max_err", 0.0, diff, 1e-8))

    params = scenario.coverage_params()
    diffs = []
    for big_r in (3.0, 8.0, 20.0):
        state = analytics.toeplitz_state(
            dataclasses.replace(params, m=max(params.m, 9)), big_r
        )
        diffs.append(
            np.max(np.abs(analytics.toeplitz_matrix_coefficients(state) - state.a_values))
        )
    checks.append(CheckRow("toeplitz_consistency_max_err", 0.0, float(max(diffs)), 1e-10))

    # coverage: analytic vs oracle, and tau-monotonicity
    p_ana = analytics.coverage_probability(params)
    p_sim = simulator.coverage_oracle_model(params, oracle_trials, scenario.seed)
    checks.append(CheckRow("coverage_vs_oracle", p_sim, p_ana, 0.015))
    taus_db = np.array([-10.0, 0.0, 10.0, 20.0])
    values = [
        analytics.coverage_probability(
            dataclasses.replace(params, tau=10 ** (t / 10))
        )
        for t in taus_db
    ]
    mono = float(np.all(np.diff(values) < 0.0))
    checks.append(CheckRow("coverage_decreasing_in_tau", 1.0, mono, 0.0))

    # ASE mobility gap identity
    d_cost = analytics.handover_cost(scenario.t_h, analytics.handover_rate_gcho(v, lam, scenario.m_group))
    p_mob = analytics.cost_aware_coverage(p_ana, 1, min(d_cost, 1.0))
    ase_s = analytics.ase_cost(lam, scenario.tau_linear, p_ana)
    ase_m = analytics.ase_cost(lam, scenario.tau_linear, p_mob)
    checks.append(CheckRow("ase_gap_identity", min(d_cost, 1.0), (ase_s - ase_m) / ase_s, 1e-12))

    # simulation against closed forms
    rates = simulator.estimate_all_rates(
        scenario, rate_trials, scenario.seed, n_workers=threads
    )
    eq = analytics.handover_rate_gcho(v, lam, scenario.m_group)
    checks.append(CheckRow("sim_gcho_vs_closed_form_rel", 0.0, rates["gcho"].mean / eq - 1.0, 0.15))
    checks.append(
        CheckRow("sim_gchos_ratio", 0.5, rates["gchos"].mean / rates["gcho"].mean, 0.07)
    )
    checks.append(
        CheckRow(
            "sim_fr_exceeds_gcho",
            1.0,
            float(
                rates["fr"].mean - rates["gcho"].mean
                > 3.0 * (rates["fr"].half_width_95 + rates["gcho"].half_width_95)
            ),
            0.0,
        )
    )
    return checks


def validate(
    scenario: ScenarioParams,
    out_path,
    golden_path=None,
    threads: int = 1,
    rate_trials: int = _VALIDATE_RATE_TRIALS,
    oracle_trials: int = _VALIDATE_ORACLE_TRIALS,
) -> tuple[bool, list[CheckRow]]:
    """Run the invariant suite; write the report CSV; return (all_passed, rows)."""
    rows = _golden_checks(golden_path or _golden_path())
    rows.extend(_live_checks(scenario, threads, rate_trials, oracle_trials))
    lines = [VALIDATE_HEADER]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.check},{_fmt(r.expected)},{_fmt(r.observed)},{_fmt(r.tolerance)},{status}"
        )
    text = "\n".join(lines) + "\n"
    if out_path is None:
        print(text, end="")
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    return all(r.passed for r in rows), rows
