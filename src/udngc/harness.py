"""Scenario configuration, figure sweeps, CSV output, and the validation suite.

Model internals use linear units throughout; decibel-to-linear conversion
happens exactly once, in :class:`ScenarioParams.tau_linear`.

CSV schema (fixed): ``parameter,value,metric,analytic,simulated,ci95,trials,
runtime_ms``.  Numeric cells carry 12 significant digits, '.' decimal, LF
line endings; a field holding a comma is double-quoted.  In bit-exact mode
(single thread) the runtime_ms column is left empty so repeated runs of the
same seed are byte-identical.  Otherwise it holds the wall time of the
simulation call that produced the row; rows that share a call, such as the
four policies of one set of trials, share its time.
"""
from __future__ import annotations

import csv
import dataclasses
import importlib.resources
import io
import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytics, simulator
from .analytics import CostParams, CoverageParams
from .channel import PathLossParams
from .errors import ConfigError, ParameterError, require_finite
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
        require_finite(self)
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
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
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


#: type of each scenario key, as ScenarioParams annotates it
_FIELD_TYPES = {
    f.name: int if f.type == "int" else float for f in dataclasses.fields(ScenarioParams)
}


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
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key: {key}")
        try:
            value = _FIELD_TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {val!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{source}:{lineno}: {key} must be finite, got {val!r}")
        values[key] = value
    return values


def parse_config(path) -> ScenarioParams:
    """Read a flat key=value scenario file ('#' comments allowed); every
    value must be finite."""
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


def _write_text(out_path, text: str) -> None:
    """Write ``text`` to ``out_path``, or to stdout when it is None."""
    if out_path is None:
        print(text, end="")
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def write_rows(out_path, rows, bit_exact: bool) -> None:
    _write_text(out_path, rows_to_csv(rows, bit_exact))


# ---------------------------------------------------------------------------
# closed-form catalogue
# ---------------------------------------------------------------------------

#: policies with a closed-form handover rate
_RATE_LAWS = ("gcho", "gchos", "traditional")
_SCHEMES = ("gcho", "gchos")

#: simulated source of the model coverage oracle's rows; the other sources
#: are the trial engine's policies and, in ``simulate``, the geometric oracle
_ORACLE = "oracle"


class _ClosedForms(dict):
    """Closed-form metrics of one scenario point, keyed by metric label.

    A value is computed on its first lookup and kept, so each formula runs at
    most once per point, and coverage, the one costly formula, only when a
    label needs it.
    """

    def __init__(self, scenario: ScenarioParams) -> None:
        super().__init__()
        self.scenario = scenario

    def __missing__(self, label: str) -> float:
        s = self.scenario
        name, _, arg = label.removesuffix("]").partition("[")
        if label == "handover_rate[gchos]":
            value = analytics.handover_rate_gchos(s.speed, s.lambda_bs, s.m_group)
        elif name == "handover_rate" and arg in _RATE_LAWS:
            m = 1 if arg == "traditional" else s.m_group
            value = analytics.handover_rate_gcho(s.speed, s.lambda_bs, m)
        elif name == "handover_cost" and arg in _RATE_LAWS:
            value = analytics.handover_cost(s.t_h, self[f"handover_rate[{arg}]"])
        elif label == "signaling_overhead":
            value = analytics.signaling_overhead(s.mu, s.t_interval, s.m_group)
        elif name == "overall_cost" and arg in _SCHEMES:
            value = analytics.overall_cost(arg, s.cost_params(), s.speed, s.lambda_bs, s.m_group)
        elif name in ("optimal_m", "optimal_m_int") and arg in _SCHEMES:
            m_star, m_int = analytics.optimal_cluster_size(
                arg, s.cost_params(), s.speed, s.lambda_bs
            )
            self[f"optimal_m[{arg}]"] = m_star
            self[f"optimal_m_int[{arg}]"] = float(m_int)
            return self[label]
        elif label == "coverage[stationary]":
            value = analytics.coverage_probability(s.coverage_params())
        elif label == "coverage[mobile]":
            # a handover cost of 1 or more leaves a mobile UE no coverage
            value = analytics.cost_aware_coverage(
                self["coverage[stationary]"], min(self["handover_cost[gcho]"], 1.0)
            )
        elif name == "ase" and arg in ("stationary", "mobile"):
            value = analytics.ase_cost(s.lambda_bs, s.tau_linear, self[f"coverage[{arg}]"])
        elif label == "cost_ratio[gchos/gcho]":
            value = self["handover_cost[gchos]"] / self["handover_cost[gcho]"]
        else:
            raise KeyError(label)
        self[label] = value
        return value


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its wall time in milliseconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1e3


def _rate_cells(closed: _ClosedForms, rates, runtime_ms: float) -> dict:
    """Row cells of each policy's rate estimate, keyed by policy; the analytic
    cell is the policy's closed-form rate, where it has one."""
    return {
        policy: dict(
            analytic=closed[f"handover_rate[{policy}]"] if policy in _RATE_LAWS else None,
            simulated=est.mean, ci95=est.half_width_95, trials=est.trials,
            runtime_ms=runtime_ms,
        )
        for policy, est in rates.items()
    }


def _coverage_cells(analytic, p: float, trials: int, runtime_ms: float) -> dict:
    """Row cells of a coverage estimate ``p`` from ``trials`` oracle trials."""
    ci95 = 1.96 * np.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return dict(
        analytic=analytic, simulated=float(p), ci95=ci95, trials=trials, runtime_ms=runtime_ms
    )


def analytic_rows(scenario: ScenarioParams) -> list[SweepRow]:
    """Closed-form metrics of one scenario."""
    closed = _ClosedForms(scenario)
    return [
        SweepRow("lambda_bs", scenario.lambda_bs, label, analytic=closed[label])
        for label in (
            "handover_rate[gcho]", "handover_rate[gchos]", "handover_rate[traditional]",
            "signaling_overhead", "handover_cost[gcho]", "handover_cost[gchos]",
            "overall_cost[gcho]", "overall_cost[gchos]",
            "optimal_m[gcho]", "optimal_m_int[gcho]",
            "optimal_m[gchos]", "optimal_m_int[gchos]",
            "coverage[stationary]", "coverage[mobile]", "ase[stationary]", "ase[mobile]",
        )
    ]


def simulate_rows(scenario: ScenarioParams, threads: int = 1) -> list[SweepRow]:
    """Simulated metrics (with analytic counterparts where one exists)."""
    trials, seed = scenario.trials, scenario.seed
    closed = _ClosedForms(scenario)
    cells = _rate_cells(closed, *_timed(
        simulator.estimate_all_rates, scenario, trials, seed, n_workers=threads
    ))
    p, ms = _timed(simulator.coverage_oracle_model, scenario.coverage_params(), trials, seed)
    cells[_ORACLE] = _coverage_cells(closed["coverage[stationary]"], p, trials, ms)
    p, ms = _timed(simulator.coverage_oracle_geometric, scenario, trials, seed)
    cells["geometric_oracle"] = _coverage_cells(None, p, trials, ms)
    return [
        SweepRow("lambda_bs", scenario.lambda_bs, label, **cells[key])
        for label, key in (
            ("handover_rate[gcho]", "gcho"),
            ("handover_rate[gchos]", "gchos"),
            ("handover_rate[traditional]", "traditional"),
            ("handover_rate[fr_baseline_disk]", "fr"),
            ("coverage[model]", _ORACLE),
            ("coverage[geometric_oracle]", "geometric_oracle"),
        )
    ]


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

_COVERAGE_TRIALS = 100_000

#: tag naming an outer axis inside a metric's brackets
_TAGS = {"m_group": "M", "lambda_bs": "lambda", "d_critical": "D", "speed": "speed"}


@dataclass(frozen=True)
class _Sweep:
    """Nested axes and the metrics evaluated at each of their points.

    * ``axes`` are (setting, values) pairs, outermost first.  The innermost
      axis fills the ``parameter`` column.  Each outer one becomes a
      ``_TAGS`` tag inside the metric's brackets; a bare label gains them.
    * ``metrics`` are (label, source) pairs.  A source of ``None`` gives the
      label's closed form.  A policy of :data:`simulator.POLICIES` gives its
      rate from ``trials`` trials at every point; the preset's k-th rate
      point, counted in nesting order, seeds them with
      ``_point_seed(seed, k)``.  ``_ORACLE`` runs the model coverage oracle
      once per outer point, with the scenario seed, over the whole innermost
      axis, which must then be ``tau_db``.
    """

    axes: tuple
    metrics: tuple


def _point_seed(seed: int, point: int) -> int:
    """Base seed of a rate sweep's ``point``-th point: each point gets its
    own trials, so sampling errors do not repeat along the sweep."""
    return int(np.random.SeedSequence([seed, point]).generate_state(1)[0])


def _run_sweep(sweep: _Sweep, settings: dict, threads: int, points) -> list[SweepRow]:
    """Rows of one sweep; ``points`` numbers the preset's rate points."""
    *outer, (parameter, values) = sweep.axes
    sources = {source for _, source in sweep.metrics} - {None}
    rows = []
    for outer_values in itertools.product(*(v for _, v in outer)):
        named = [(name, x) for (name, _), x in zip(outer, outer_values)]
        point = {**settings, **dict(named)}
        tags = ",".join(f"{_TAGS[name]}={x:g}" for name, x in named)
        if _ORACLE in sources:
            scn = ScenarioParams(**point)
            coverage, oracle_ms = _timed(
                simulator.coverage_oracle_model, scn.coverage_params(), _COVERAGE_TRIALS,
                scn.seed, taus=10.0 ** (np.asarray(values) / 10.0),
            )
        for i, x in enumerate(values):
            scn = ScenarioParams(**{**point, parameter: x})
            closed = _ClosedForms(scn)
            cells = {}
            if sources - {_ORACLE}:
                cells = _rate_cells(closed, *_timed(
                    simulator.estimate_all_rates, scn, scn.trials,
                    _point_seed(scn.seed, next(points)), n_workers=threads,
                ))
            if _ORACLE in sources:
                cells[_ORACLE] = _coverage_cells(
                    closed["coverage[stationary]"], coverage[i], _COVERAGE_TRIALS, oracle_ms
                )
            for label, source in sweep.metrics:
                metric = label
                if tags:
                    metric = f"{label[:-1]},{tags}]" if label.endswith("]") else f"{label}[{tags}]"
                fields = cells[source] if source else {"analytic": closed[label]}
                rows.append(SweepRow(parameter, float(x), metric, **fields))
    return rows


_TAUS_DB = np.linspace(-10.0, 20.0, 13)
_M_GROUPS = (1, 3, 6, 9)
_FIG5_DENSITIES = np.logspace(-4, -2, 9)

#: figure -> (the settings it holds whatever ``--set`` says, its sweeps)
FIGURE_PRESETS = {
    "fig3": ({"m_group": 3}, (_Sweep(
        (("lambda_bs", (0.001, 0.01)), ("d_critical", (10.0, 20.0)), ("tau_db", _TAUS_DB)),
        (("coverage", _ORACLE),),
    ),)),
    "fig5": ({}, (
        _Sweep(
            (("m_group", _M_GROUPS), ("lambda_bs", _FIG5_DENSITIES)),
            (("handover_rate[gcho]", "gcho"),),
        ),
        _Sweep((("lambda_bs", _FIG5_DENSITIES),), (("handover_rate[traditional]", None),)),
    )),
    "fig6": ({}, (_Sweep(
        (("m_group", _M_GROUPS), ("speed", (1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0))),
        (("handover_rate[gcho]", "gcho"),),
    ),)),
    "fig7": ({}, (_Sweep(
        (("m_group", range(1, 13)),),
        (("handover_cost[gcho]", None), ("handover_cost[traditional]", None)),
    ),)),
    "fig8": ({"m_group": 3}, (_Sweep(
        (("lambda_bs", (0.001, 0.01)), ("speed", (2.0, 10.0, 20.0, 30.0))),
        (("handover_rate[gcho]", "gcho"), ("handover_rate[fr_baseline_disk]", "fr")),
    ),)),
    "fig9": ({"m_group": 3}, (_Sweep(
        (("tau_db", _TAUS_DB),),
        (("coverage[stationary]", _ORACLE), ("coverage[mobile]", None)),
    ),)),
    "fig10": ({"m_group": 3}, (_Sweep(
        (("lambda_bs", (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05)),),
        (("ase[stationary]", None), ("ase[mobile]", None)),
    ),)),
    "fig11": ({"m_group": 3}, (_Sweep(
        (("speed", np.arange(1.0, 31.0, 2.0)),),
        (("handover_cost[gcho]", None), ("handover_cost[gchos]", None),
         ("cost_ratio[gchos/gcho]", None)),
    ),)),
    "fig12": ({}, (_Sweep(
        (("lambda_bs", (0.001, 0.005, 0.01)), ("m_group", range(1, 13))),
        (("overall_cost[gcho]", None), ("overall_cost[gchos]", None)),
    ),)),
    "fig13": ({}, (_Sweep(
        (("speed", (5.0, 10.0, 20.0)), ("lambda_bs", np.logspace(-4, -1.3, 10))),
        (("optimal_m[gcho]", None), ("optimal_m_int[gcho]", None),
         ("optimal_m[gchos]", None), ("optimal_m_int[gchos]", None)),
    ),)),
}


def run_figure(preset: str, overrides, out_path, threads: int = 1) -> list[SweepRow]:
    """Evaluate a figure preset and write its CSV.

    Each of the ``key=value`` ``overrides`` is parsed as one line of a
    scenario file, so errors name it as ``--set:<n>``, the n-th override.
    An override of a setting the preset fixes or sweeps is a config error,
    since it could not take effect.  Figures that do not sweep the density
    run at ``lambda_bs=0.01`` unless an override sets it.
    """
    if preset not in FIGURE_PRESETS:
        raise ConfigError(
            f"unknown preset {preset!r}; expected one of {', '.join(sorted(FIGURE_PRESETS))}"
        )
    fixed, sweeps = FIGURE_PRESETS[preset]
    overridden = _parse_kv("\n".join(overrides or ()), "--set")
    held = set(fixed).union(*({name for name, _ in sweep.axes} for sweep in sweeps))
    clash = sorted(held.intersection(overridden))
    if clash:
        raise ConfigError(f"--set cannot change {', '.join(clash)}: {preset} fixes or sweeps it")
    settings = {"lambda_bs": 0.01, **overridden, **fixed}
    points = itertools.count()
    rows = [row for sweep in sweeps for row in _run_sweep(sweep, settings, threads, points)]
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


def _golden_checks() -> list[CheckRow]:
    rows = []
    text = _golden_path().read_text()
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


def _live_checks(scenario: ScenarioParams, threads: int) -> list[CheckRow]:
    lam, v = scenario.lambda_bs, scenario.speed
    checks = []

    # closed-form identities
    for m, red in ((3, 1 - 1 / np.sqrt(3)), (6, 1 - 1 / np.sqrt(6)), (9, 1 - 1 / 3.0)):
        obs = 1.0 - analytics.handover_rate_gcho(v, lam, m) / analytics.handover_rate_gcho(v, lam, 1)
        checks.append(CheckRow(f"rate_reduction_m{m}", red, obs, 1e-12))
    closed = _ClosedForms(scenario)
    halving = closed["handover_rate[gchos]"] / closed["handover_rate[gcho]"]
    checks.append(CheckRow("gchos_halving", 0.5, halving, 1e-12))
    ratio = closed["optimal_m[gchos]"] / closed["optimal_m[gcho]"]
    checks.append(CheckRow("optimal_m_ratio", 4.0 ** (-1 / 3), ratio, 1e-12))

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
    p_ana = closed["coverage[stationary]"]
    p_sim = simulator.coverage_oracle_model(params, _VALIDATE_ORACLE_TRIALS, scenario.seed)
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
    ase_s, ase_m = closed["ase[stationary]"], closed["ase[mobile]"]
    d_cost = min(closed["handover_cost[gcho]"], 1.0)
    checks.append(CheckRow("ase_gap_identity", d_cost, (ase_s - ase_m) / ase_s, 1e-12))

    # simulation against closed forms
    rates = simulator.estimate_all_rates(
        scenario, _VALIDATE_RATE_TRIALS, scenario.seed, n_workers=threads
    )
    rel = rates["gcho"].mean / closed["handover_rate[gcho]"] - 1.0
    checks.append(CheckRow("sim_gcho_vs_closed_form_rel", 0.0, rel, 0.15))
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
    scenario: ScenarioParams, out_path, threads: int = 1
) -> tuple[bool, list[CheckRow]]:
    """Run the invariant suite; write the report CSV; return (all_passed, rows)."""
    rows = _golden_checks()
    rows.extend(_live_checks(scenario, threads))
    lines = [VALIDATE_HEADER]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.check},{_fmt(r.expected)},{_fmt(r.observed)},{_fmt(r.tolerance)},{status}"
        )
    _write_text(out_path, "\n".join(lines) + "\n")
    return all(r.passed for r in rows), rows
