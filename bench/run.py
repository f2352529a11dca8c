"""Benchmark of udngc: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload rate_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's sweep for ``--seconds`` seconds, each
repetition with fresh seeds derived from ``--seed``, and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs the sweep once
untraced and once with spans around udngc's public functions, reports the
per-layer metrics and writes the spans to ``bench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The package is imported from ``src/`` of the
checkout that holds this directory; without it the script exits with code 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("rate_sweep", "coverage_sweep", "oracle_sweep")
#: fresh interpreters started per run to time set-up; the median is reported
SETUP_PROBES = 5


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on the import path, or raise."""
    if not (SRC / "udngc" / "__init__.py").is_file():
        raise FileNotFoundError(f"udngc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_probes(workload: str, seed: int) -> tuple[float, float]:
    """Median (set-up seconds, import seconds) over fresh interpreters."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        done, import_s = json.loads(proc.stdout.splitlines()[-1])
        setups.append(done - started)
        imports.append(import_s)
    return statistics.median(setups), statistics.median(imports)


def metadata(workload: str, seed: int, workers: int, size: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "udngc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": workload, "seed": seed, "workers": workers, "input_size": size,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Tally:
    """Points attempted and failed over every checked sweep of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, checked) -> None:
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.notes.extend(checked.notes)


def timed_run(workload, seed: int, seconds: int, tally: Tally) -> tuple[dict, str]:
    """Repeat the sweep, fresh seeds each time, while another repetition
    still fits in ``seconds``; the sweep time is ``workloads.sweep_s``."""
    from workloads import WORKERS, sweep, sweep_s

    passes = []
    began = time.perf_counter()
    shortest = 0.0  # fastest repetition so far, checks included
    while not passes or time.perf_counter() - began + shortest <= seconds:
        started = time.perf_counter()
        points = workload.build(seed, len(passes))
        records = sweep(workload, points, WORKERS)
        tally.add(workload.check(records))
        passes.append(records)
        took = time.perf_counter() - started
        shortest = min(shortest, took) if shortest else took
    peak = max(_max_rss_mb(resource.RUSAGE_SELF), _max_rss_mb(resource.RUSAGE_CHILDREN))
    summary = (f"{len(passes)} sweeps of {len(points)} points; unscaled repeat-and-min "
               f"sweep {sweep_s(passes, reference=False):.6g} s")
    return {"wall_s": sweep_s(passes), "peak_rss_mb": peak}, summary


def traced_run(workload, seed: int, tally: Tally) -> tuple[dict, list, str]:
    """Untraced and traced sweeps of the same inputs, alternated twice, all
    in this process (1 worker); rate_sweep first sweeps twice with its pool.
    Layer metrics come from the first traced sweep; overhead and speed-up
    compare ``workloads.sweep_s`` times, so neither side gains from going
    second."""
    from tracing import Tracer, patched
    from workloads import TRACED, WORKERS, layer_metrics, sweep, sweep_s

    points = workload.build(seed, 0)

    def checked_sweep(workers):
        records = sweep(workload, points, workers)
        checked = workload.check(records)
        tally.add(checked)
        return records, checked

    metrics = {"simulator.pool.speedup": 0.0, "simulator.pool.worker_peak_rss_mb": 0.0}
    if workload.uses_pool:
        pooled = [checked_sweep(WORKERS)[0] for _ in range(2)]
        metrics["simulator.pool.worker_peak_rss_mb"] = _max_rss_mb(resource.RUSAGE_CHILDREN)
    untraced, traced, first = [], [], None
    for _ in range(2):
        untraced.append(checked_sweep(1)[0])
        tracer = Tracer(keep={"simulator.run_handover_trial"})
        with patched(tracer, TRACED):
            records, checked = checked_sweep(1)
        traced.append(records)
        first = first or (tracer, records, checked)
    tracer, records, checked = first
    metrics.update(layer_metrics(tracer.spans, records, checked))
    metrics["trace.overhead_frac"] = sweep_s(traced) / sweep_s(untraced) - 1.0
    if workload.uses_pool:
        metrics["simulator.pool.speedup"] = sweep_s(untraced) / sweep_s(pooled)
    return metrics, tracer.spans, f"2 traced and 2 untraced sweeps of {len(points)} points"


def write_spans(path: Path, spans, meta: dict) -> None:
    names = sorted({s.name for s in spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = spans[0].start if spans else 0.0
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "meta": meta,
        "names": names,
        "columns": ["name", "start_s", "end_s", "parent"],
        "spans": [[index[s.name], s.start - t0, s.end - t0, s.parent] for s in spans],
    }))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import WORKERS, WORKLOADS, input_size

    workload = WORKLOADS[name]
    workers = (1 if trace else WORKERS) if workload.uses_pool else 1
    meta = metadata(name, seed, workers, input_size(workload.build(seed, 0)))
    print("meta " + json.dumps(meta))
    tally = Tally()
    if trace:
        metrics, spans, summary = traced_run(workload, seed, tally)
        _, metrics["import.udngc_s"] = setup_probes(name, seed)
        write_spans(OUT / f"spans-{name}-seed{seed}.json", spans, meta)
    else:
        metrics, summary = timed_run(workload, seed, seconds, tally)
        metrics["setup_s"], _ = setup_probes(name, seed)

    units = declared_units(trace)
    for note in tally.notes:
        print("note " + note)
    print(f"{name} seed={seed} trace={int(trace)}: {summary}")
    for metric in sorted(metrics):
        print(f"  {metric:44s} {metrics[metric]:.6g} {units[metric]}")
    print(f"  {'fail_frac':44s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} points failed)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in sorted(metrics.items())},
    }


def run_all(args) -> dict:
    """Every workload in its own fresh interpreter; metrics keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update(
            {f"{name}.{metric}": v for metric, v in result["metrics"].items()}
        )
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        use_checkout_sources()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
