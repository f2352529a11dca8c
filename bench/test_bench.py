"""Tests of the benchmark itself:  python3 -m pytest bench -q"""
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from run import use_checkout_sources
from tracing import Span, Tracer, patched, self_times, summarize

use_checkout_sources()

from workloads import REFERENCE_LOOP_S, Record, sweep_s  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def layer(monkeypatch):
    """A stand-in module whose ``outer`` calls ``inner`` through its globals."""
    module = types.ModuleType("fake_layer")
    exec(
        "def inner(x):\n    return x + 1\n\n"
        "def outer(x):\n    return inner(x) * 2\n",
        module.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


TARGETS = {
    "fake.outer": ("fake_layer", "outer"),
    "fake.inner": ("fake_layer", "inner"),
    "fake.removed": ("fake_layer", "removed_in_a_later_version"),
}


def test_self_time_subtracts_only_what_direct_children_cover():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),  # overlaps a: [1, 4] is covered once
        Span("grandchild", 2.5, 3.5, 2),  # counts against b, not root
        Span("c", 8.0, 12.0, 0),  # clipped to the root's end
        Span("other_root", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 4.0, 1.0])
    totals = summarize(spans, ["root", "never_called"])
    assert totals["root"] == (1, pytest.approx(5.0))
    assert totals["never_called"] == (0, 0.0)


def test_nested_calls_become_child_spans(layer):
    tracer = Tracer(keep={"fake.inner"})
    with patched(tracer, TARGETS):
        assert layer.outer(1) == 4
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.result) == ("fake.outer", -1, None)
    assert (inner.name, inner.parent, inner.result) == ("fake.inner", 0, 2)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_removed_name_reads_zero_calls(layer):
    tracer = Tracer()
    with patched(tracer, TARGETS):
        layer.outer(1)
    totals = summarize(tracer.spans, TARGETS)
    assert totals["fake.removed"] == (0, 0.0)
    assert totals["fake.outer"][0] == totals["fake.inner"][0] == 1


def test_originals_are_restored_also_after_an_error(layer):
    originals = (layer.outer, layer.inner)
    with patched(Tracer(), TARGETS):
        assert layer.outer is not originals[0]
    assert (layer.outer, layer.inner) == originals
    with pytest.raises(RuntimeError):
        with patched(Tracer(), TARGETS):
            raise RuntimeError("sweep failed")
    assert (layer.outer, layer.inner) == originals
    assert not hasattr(layer, "removed_in_a_later_version")


def test_sweep_time_is_repeat_and_min_per_point_at_reference_speed():
    def record(seconds, loop_s):
        return Record({}, None, None, 10.0, 10.0 + seconds, loop_s)

    slow = 2.0 * REFERENCE_LOOP_S
    passes = [
        [record(1.0, REFERENCE_LOOP_S), record(4.0, slow)],  # point 2 ran at half speed
        [record(3.0, slow), record(3.0, REFERENCE_LOOP_S)],
    ]
    assert sweep_s(passes, reference=False) == pytest.approx(1.0 + 3.0)
    assert sweep_s(passes) == pytest.approx(1.0 + 2.0)


def test_declared_names_are_valid_and_unique():
    groups = ("workloads", "end_to_end", "per_layer")
    names = [m["name"] for group in groups for m in SPEC[group]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    for group in groups:
        group_names = [m["name"] for m in SPEC[group]]
        assert len(group_names) == len(set(group_names))
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


def _run(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, group):
    proc = _run("--workload", "oracle_sweep", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(n) for n in result["metrics"])


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "rate_sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
