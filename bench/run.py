"""Benchmark of bpskrx figure-curve and Monte Carlo throughput.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {hffre_curves,dffre_domain,mc_oracle}
                         --seed N --seconds S --trace {0,1}

One process, no pool, no extra threads: a closed loop that repeats whole
rounds of the workload's operations until S seconds have passed, then
checks every output against an independent evaluation (outside the
timed section). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` then runs
one more round with every layer boundary wrapped (see ``tracer.py``),
checks that its numbers are bit-for-bit those of the untraced rounds,
and reports the per-layer metrics of that round.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import numpy, bpskrx"
MODULES = ("cli", "feedforward", "baselines", "optimize", "photostatistics", "montecarlo")


def load_program() -> SimpleNamespace:
    """Import bpskrx from this checkout's ``src``, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("bpskrx")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"bpskrx resolved to {package.__file__}, not under {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"bpskrx.{m}") for m in MODULES})


def set_up(make, program, seed: int, probe):
    """Median fresh-process import plus median input generation, in reference seconds.

    Returns (seconds, workload).
    """
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE], cwd=ROOT, check=True, timeout=120)
        imports.append(probe.reference_seconds(start, time.perf_counter()))
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = make(program, seed)
        builds.append(probe.reference_seconds(start, time.perf_counter()))
    return statistics.median(imports) + statistics.median(builds), workload


def timed_round(workload, out_dir: Path):
    start = time.perf_counter()
    result = workload.run_round(out_dir)
    return result, time.perf_counter() - start


def run_rounds(workload, out_dir: Path, seconds: float):
    """Whole rounds until ``seconds`` have passed; returns (results, wall seconds of each)."""
    results, walls = [], []
    while sum(walls) < seconds:
        result, wall = timed_round(workload, out_dir)
        results.append(result)
        walls.append(wall)
    return results, walls


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def operation_seconds(results, field: str, probe: SpeedProbe | None) -> dict[str, float]:
    """Each label's median time over the rounds: reference seconds, or wall seconds without a probe."""
    def seconds(span):
        return probe.reference_seconds(*span) if probe else span[1] - span[0]

    per_round = [getattr(r, field) for r in results]
    return {label: statistics.median(seconds(spans[label]) for spans in per_round) for label in per_round[0]}


def end_to_end_metrics(results, setup_s: float, probe: SpeedProbe | None) -> dict:
    latencies = sorted(operation_seconds(results, "spans", probe).values())
    round_s = sum(latencies) + sum(operation_seconds(results, "overheads", probe).values())
    return {
        "setup_s": metric(setup_s, "s"),
        "points_per_s": metric(len(latencies) / round_s, "1/s"),
        "point_s_p50": metric(statistics.median(latencies), "s"),
        "point_s_p90": metric(statistics.quantiles(latencies, n=10, method="inclusive")[-1], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, traced_s: float, untraced_s: float, trials: int) -> dict:
    """Per-layer figures of one traced round; ``untraced_s`` is an untraced round's wall time."""
    scans = tracer.calls("optimize.scan_discrete")
    candidates = tracer.objective_calls("scan_discrete")
    values = {
        "cli.self_s": (tracer.self_seconds("cli"), "s"),
        "feedforward.self_s": (tracer.self_seconds("feedforward"), "s"),
        "baselines.self_s": (tracer.self_seconds("baselines"), "s"),
        "optimize.self_s": (tracer.self_seconds("optimize"), "s"),
        "optimize.objective_evals": (tracer.objective_calls(), "count"),
        "optimize.maximize_scalar.calls": (tracer.calls("optimize.maximize_scalar"), "count"),
        "optimize.maximize_grid.calls": (tracer.calls("optimize.maximize_grid"), "count"),
        "optimize.scan_discrete.useful_ratio": (scans / candidates if candidates else 0.0, "ratio"),
        "photostatistics.self_s": (tracer.self_seconds("photostatistics"), "s"),
        "photostatistics.hl_difference_pmf.calls": (tracer.calls("photostatistics.hl_difference_pmf"), "count"),
        "photostatistics.q_thresh.calls": (tracer.calls("photostatistics.q_thresh"), "count"),
        "montecarlo.self_s": (tracer.self_seconds("montecarlo"), "s"),
        "mc_trials_per_s": (trials / untraced_s, "1/s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def write_trace(tracer, path: Path) -> None:
    payload = {
        "boundaries": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                       for name, s in sorted(tracer.stats.items())},
        "span_sample": [{"request": r, "name": n, "parent": p, "start": a, "end": b}
                        for r, n, p, a, b in tracer.samples],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        program = load_program()
    except ImportError as exc:
        print(f"error: cannot import bpskrx from {SRC}: {exc}", file=sys.stderr)
        return 2

    import checks
    from speed import SpeedProbe
    from tracer import Tracer

    make = WORKLOADS[args.workload]
    out_dir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedProbe() as probe:
            if args.trace:
                setup_s, workload = 0.0, make(program, args.seed)
            else:
                setup_s, workload = set_up(make, program, args.seed, probe)
            results, walls = run_rounds(workload, out_dir, args.seconds)
        metrics = end_to_end_metrics(results, setup_s, probe)
        wall = end_to_end_metrics(results, setup_s, None)
        print("wall-clock: " + ", ".join(f"{k} {v['value']:.6g}" for k, v in wall.items() if k != "setup_s")
              + f"; median probe {statistics.median(probe.durations) * 1e6:.0f} us", file=sys.stderr)
        problems = checks.check_round(workload, results[0], out_dir)
        checks.check_identical_rounds(results, problems)
        if args.trace:
            tracer = Tracer()
            tracer.install(vars(program))
            try:
                traced, traced_s = timed_round(workload, out_dir)
            finally:
                tracer.restore()
            checks.check_identical_outputs(results[0], traced, problems)
            metrics = per_layer_metrics(tracer, traced_s, statistics.median(walls), results[0].trials)
            write_trace(tracer, OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(len(r.failures) for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
