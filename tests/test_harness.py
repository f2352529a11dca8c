"""Harness: config parsing, CSV schema, figure presets, validation suite, CLI."""
import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udngc.harness as hz
from udngc.cli import main
from udngc.errors import ConfigError, ParameterError
from udngc.harness import (
    CSV_HEADER,
    ScenarioParams,
    SweepRow,
    analytic_rows,
    parse_config,
    rows_to_csv,
    run_figure,
    simulate_rows,
    validate,
)


#: reference CSVs of the closed-form presets, written by the hand-coded figure
#: functions that the preset table replaced
DATA = Path(__file__).parent / "data"


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_empty_file_requires_density(self, tmp_path):
        path = write_config(tmp_path, "")
        with pytest.raises(ConfigError, match="lambda_bs required"):
            parse_config(path)

    def test_exponent_ordering(self, tmp_path):
        path = write_config(tmp_path, "lambda_bs=0.01\neta1=5\neta2=4\n")
        with pytest.raises(ConfigError, match="eta1"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, "lambda_bs=0.01\nbogus=3\n")
        with pytest.raises(ConfigError, match="unknown key: bogus"):
            parse_config(path)

    def test_defaults(self, tmp_path):
        path = write_config(tmp_path, "# comment\nlambda_bs=0.01\n")
        scn = parse_config(path)
        assert scn.d_critical == 10.0
        assert scn.t_h == 0.3
        assert scn.mu == 1.0
        assert scn.t_interval == pytest.approx(0.005)
        assert scn.s2 == pytest.approx(0.01 * 0.005)
        assert scn.s1 == pytest.approx(scn.t_h)
        assert scn.eta1 == 2.0 and scn.eta2 == 4.0
        assert scn.speed == 10.0 and scn.m_group == 3

    def test_comments_and_overrides(self, tmp_path):
        path = write_config(
            tmp_path, "lambda_bs = 0.005  # density\nspeed=20\nm_group=6\nseed=9\n"
        )
        scn = parse_config(path)
        assert scn.lambda_bs == 0.005
        assert scn.speed == 20.0
        assert scn.m_group == 6
        assert scn.seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")


class TestScenarioParams:
    def test_tau_conversion_single_site(self):
        scn = ScenarioParams(lambda_bs=0.01, tau_db=3.0)
        assert scn.tau_linear == pytest.approx(10 ** 0.3)
        assert scn.coverage_params().tau == pytest.approx(10 ** 0.3)

    def test_step_rejected(self, tmp_path):
        # crossings are exact, so a time step is no longer a setting
        path = write_config(tmp_path, "lambda_bs=0.01\nstep=0.05\n")
        with pytest.raises(ConfigError, match="unknown key: step"):
            parse_config(path)
        with pytest.raises(ConfigError, match="unknown key: step"):
            run_figure("fig5", ["step=0.05"], tmp_path / "fig5.csv")
        assert main(["simulate", str(path), "--out", str(tmp_path / "sim.csv")]) == 2
        assert main(["figure", "fig5", "--set", "step=0.05", "--out", str(tmp_path / "f.csv")]) == 2

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            ScenarioParams(lambda_bs=0.01, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("lambda_bs", float("nan")), ("speed", float("nan")), ("tau_db", float("inf")),
        ("window_radius", float("inf")), ("s1", float("nan")), ("d_critical", float("-inf")),
    ])
    def test_non_finite_value_rejected(self, field, value):
        # nan passes every `<= 0` check, so before this rule the scenario was
        # accepted and analytic_rows failed later with a bare ValueError
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            ScenarioParams(**{"lambda_bs": 0.01, field: value})

    def test_window_default_exceeds_guard(self):
        scn = ScenarioParams(lambda_bs=0.001)
        assert scn.window_radius > scn.guard
        assert scn.duration > 0

    def test_invalid_values(self):
        with pytest.raises(ParameterError):
            ScenarioParams(lambda_bs=-1.0)
        with pytest.raises(ParameterError):
            ScenarioParams(lambda_bs=0.01, m_group=0)
        with pytest.raises(ParameterError):
            ScenarioParams(lambda_bs=0.01, eta1=5.0, eta2=4.0)


class TestCsv:
    def test_header_and_formatting(self):
        rows = [
            SweepRow("lambda_bs", 0.001, "handover_rate[gcho]", analytic=0.2060129077457011),
            SweepRow("speed", 10.0, "x", simulated=1.0 / 3.0, ci95=0.01, trials=100,
                     runtime_ms=12.5),
        ]
        text = rows_to_csv(rows, bit_exact=True)
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "lambda_bs,0.001,handover_rate[gcho],0.206012907746,,,,"
        # bit-exact mode blanks the runtime column
        assert lines[2].endswith(",")
        assert "0.333333333333" in lines[2]
        assert text.endswith("\n")
        assert "\r" not in text

    def test_runtime_kept_outside_bit_exact_mode(self):
        row = SweepRow("speed", 1.0, "x", simulated=1.0, runtime_ms=12.5)
        assert rows_to_csv([row], bit_exact=False).splitlines()[1].endswith(",12.5")

    def test_row_needs_some_value(self):
        with pytest.raises(ParameterError):
            SweepRow("speed", 1.0, "x")

    def test_simulate_rows_byte_identical(self):
        scn = ScenarioParams(lambda_bs=0.01, trials=30, seed=5)
        a = rows_to_csv(simulate_rows(scn, threads=1), bit_exact=True)
        b = rows_to_csv(simulate_rows(scn, threads=1), bit_exact=True)
        assert a == b


class TestAnalyticRows:
    def test_metric_set(self):
        rows = analytic_rows(ScenarioParams(lambda_bs=0.01))
        metrics = {r.metric for r in rows}
        assert "handover_rate[gcho]" in metrics
        assert "coverage[stationary]" in metrics
        assert "ase[mobile]" in metrics
        assert all(r.analytic is not None for r in rows)

    def test_fr_row_has_no_analytic_value(self):
        scn = ScenarioParams(lambda_bs=0.01, trials=25, seed=3)
        rows = simulate_rows(scn, threads=1)
        fr = [r for r in rows if r.metric == "handover_rate[fr_baseline_disk]"]
        assert len(fr) == 1
        assert fr[0].analytic is None and fr[0].simulated is not None


class TestFigures:
    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown preset"):
            run_figure("fig4", [], tmp_path / "x.csv")

    def test_fig5_contains_reference_rate(self, tmp_path):
        out = tmp_path / "fig5.csv"
        rows = run_figure("fig5", ["trials=20"], out)
        hits = [
            r
            for r in rows
            if r.metric == "handover_rate[gcho,M=3]" and abs(r.value - 0.001) < 1e-12
        ]
        assert len(hits) == 1
        assert hits[0].analytic == pytest.approx(0.20601, abs=5e-6)
        # every point draws its own trials: the engine is scale-free, so one
        # shared seed would repeat the same relative error at every density
        errors = {r.simulated / r.analytic for r in rows if r.metric == "handover_rate[gcho,M=3]"}
        assert len(errors) > 1
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        # metric labels such as handover_rate[gcho,M=3] hold a comma: quoted,
        # every row still reads back as the schema's eight fields
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert len(parsed) == len(rows) + 1
        assert all(len(fields) == 8 for fields in parsed)
        assert "handover_rate[gcho,M=3]" in {fields[2] for fields in parsed}

    def test_bad_override_is_config_error(self, tmp_path):
        for item, message in (
            ("bogus=1", "--set:2: unknown key: bogus"),
            ("speed", "expected key=value"),
            ("trials=ten", "bad value for trials"),
            ("m_group=2.5", "bad value for m_group"),
            ("lambda_bs=nan", "--set:2: lambda_bs must be finite"),
            ("t_h=inf", "--set:2: t_h must be finite"),
        ):
            with pytest.raises(ConfigError, match=message):
                run_figure("fig7", ["speed=5", item], tmp_path / "fig7.csv")

    def test_override_of_a_held_setting_is_config_error(self, tmp_path):
        # fig11 fixes m_group=3 and fig3 sweeps tau_db: neither override could
        # take effect, so neither runs
        for preset, item in (("fig11", "m_group=6"), ("fig3", "tau_db=5")):
            out = tmp_path / f"{preset}.csv"
            with pytest.raises(ConfigError, match=item.split("=")[0]):
                run_figure(preset, ["speed=5", item], out)
            assert not out.exists()

    def test_fig12_gchos_minimum_at_three(self, tmp_path):
        rows = run_figure("fig12", [], tmp_path / "fig12.csv")
        curve = {
            int(r.value): r.analytic
            for r in rows
            if r.metric == "overall_cost[gchos,lambda=0.005]"
        }
        assert min(curve, key=curve.get) == 3

    def test_fig11_ratio_is_half_everywhere(self, tmp_path):
        rows = run_figure("fig11", [], tmp_path / "fig11.csv")
        ratios = [r.analytic for r in rows if r.metric == "cost_ratio[gchos/gcho]"]
        assert ratios and all(r == pytest.approx(0.5) for r in ratios)

    def test_fig7_cost_decreases_with_cluster_size(self, tmp_path):
        rows = run_figure("fig7", [], tmp_path / "fig7.csv")
        curve = [r.analytic for r in rows if r.metric == "handover_cost[gcho]"]
        assert all(np.diff(curve) < 0)

    @pytest.mark.parametrize("preset", ["fig7", "fig11", "fig12", "fig13"])
    def test_closed_form_preset_matches_reference(self, preset, tmp_path):
        out = tmp_path / f"{preset}.csv"
        run_figure(preset, [], out, threads=1)
        with open(out, newline="") as fh:
            written = list(csv.reader(fh))
        with open(DATA / f"{preset}.csv", newline="") as fh:
            reference = list(csv.reader(fh))
        # labels, row order and the parameter and value columns match exactly
        assert [f[:3] for f in written] == [f[:3] for f in reference]
        assert all(f[4:] == ["", "", "", ""] for f in written[1:])
        for row, ref in zip(written[1:], reference[1:]):
            assert float(row[3]) == pytest.approx(float(ref[3]), rel=1e-12, abs=0.0)

    def test_fig9_mobile_coverage_clamped_when_handover_cost_exceeds_one(self, tmp_path):
        # at 200 m/s the gcho handover cost is about 1.2: a mobile UE keeps no
        # coverage, as in `udngc analytic` and fig10
        with pytest.warns(UserWarning, match="handover cost"):
            rows = run_figure("fig9", ["lambda_bs=0.001", "speed=200"], tmp_path / "fig9.csv")
        mobile = [r.analytic for r in rows if r.metric == "coverage[mobile]"]
        assert len(mobile) == 13
        assert all(p == 0.0 for p in mobile)

    def test_rows_of_one_call_share_its_runtime(self, tmp_path):
        scn = ScenarioParams(lambda_bs=0.01, trials=20, seed=5)
        rates = [r for r in simulate_rows(scn) if r.metric.startswith("handover_rate[")]
        assert len(rates) == 4
        assert len({r.runtime_ms for r in rates}) == 1 and rates[0].runtime_ms > 0
        rows = run_figure("fig8", ["trials=5"], tmp_path / "fig8.csv")
        times = {}
        for r in rows:
            density = r.metric.split(",")[1]
            times.setdefault((density, r.value), set()).add(r.runtime_ms)
        assert len(times) == 8
        for shared in times.values():
            (runtime,) = shared
            assert runtime > 0


class TestValidate:
    @pytest.fixture(autouse=True)
    def small_trials(self, monkeypatch):
        monkeypatch.setattr(hz, "_VALIDATE_RATE_TRIALS", 200)
        monkeypatch.setattr(hz, "_VALIDATE_ORACLE_TRIALS", 50_000)

    def test_default_scenario_passes(self, tmp_path):
        scn = ScenarioParams(lambda_bs=0.01, seed=4)
        ok, rows = validate(scn, tmp_path / "report.csv")
        report = (tmp_path / "report.csv").read_text()
        assert ok, report
        # one report row per registered check
        assert len(report.strip().splitlines()) == len(rows) + 1
        assert report.splitlines()[0] == "check,expected,observed,tolerance,status"

    def test_corrupted_golden_fails_named_check(self, tmp_path, monkeypatch):
        golden = (hz._golden_path()).read_text()
        bad = golden.replace(
            "coverage_analytic,2,4,10,", "coverage_analytic,2,5,10,"
        )
        bad_path = tmp_path / "golden.csv"
        bad_path.write_text(bad)
        monkeypatch.setattr(hz, "_golden_path", lambda: bad_path)
        scn = ScenarioParams(lambda_bs=0.01, seed=4)
        ok, rows = validate(scn, tmp_path / "report.csv")
        assert not ok
        failed = [r.check for r in rows if not r.passed]
        assert failed == ["golden:coverage_analytic"]


CONFIG = "lambda_bs=0.01\ntrials=25\nseed=6\n"


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "udngc" in capsys.readouterr().out

    def test_analytic_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONFIG)
        assert main(["analytic", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == CSV_HEADER

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["analytic", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_config_value(self, tmp_path):
        cfg = write_config(tmp_path, "lambda_bs=0.01\neta1=9\n")
        assert main(["analytic", str(cfg)]) == 2

    def test_non_finite_config_value_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "lambda_bs=0.01\ntau_db=nan\n")
        assert main(["analytic", str(cfg)]) == 2
        assert "tau_db must be finite" in capsys.readouterr().err

    def test_simulate_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG)
        out = tmp_path / "sim.csv"
        assert main(["simulate", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, CONFIG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        monkeypatch.setenv("UDNGC_SEED", "6")
        assert main(["simulate", str(cfg), "--out", str(out_a), "--threads", "1"]) == 0
        monkeypatch.setenv("UDNGC_SEED", "123")
        assert main(["simulate", str(cfg), "--out", str(out_b), "--threads", "1"]) == 0
        assert out_a.read_text() != out_b.read_text()

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, CONFIG)
        monkeypatch.setenv("UDNGC_SEED", "abc")
        assert main(["analytic", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "value, code",
        [("7", 0), ("007", 0), ("abc", 2), (" 7", 2), ("1_000", 2), ("+-5", 2), ("-5", 2), ("", 2)],
    )
    def test_env_seed_one_rule(self, tmp_path, monkeypatch, capsys, value, code):
        # analytic and figure accept and reject the same values, and a
        # rejection names the variable
        cfg = write_config(tmp_path, CONFIG)
        monkeypatch.setenv("UDNGC_SEED", value)
        for argv in (
            ["analytic", str(cfg), "--out", str(tmp_path / "analytic.csv")],
            ["figure", "fig11", "--threads", "1", "--out", str(tmp_path / "fig11.csv")],
        ):
            assert main(argv) == code
            assert ("UDNGC_SEED" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_threads_below_one_is_usage_error(self, tmp_path, threads):
        cfg = write_config(tmp_path, CONFIG)
        for argv in (
            ["simulate", str(cfg)],
            ["validate", str(cfg)],
            ["figure", "fig11", "--out", str(tmp_path / "fig11.csv")],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--threads", threads])
            assert exc.value.code == 2

    def test_bad_override_exits_two(self, tmp_path):
        out = str(tmp_path / "fig7.csv")
        assert main(["figure", "fig7", "--set", "bogus=1", "--out", out]) == 2

    def test_override_of_fixed_setting_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "fig11.csv")
        assert main(["figure", "fig11", "--set", "m_group=6", "--out", out]) == 2
        assert "m_group" in capsys.readouterr().err

    def test_unknown_preset_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig99"])
        assert exc.value.code == 2

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "udngc.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
