"""Tests of the layer tracer and of the reference-second scaling.

Run from the root of the repository with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def fake_program() -> dict:
    """Modules shaped like bpskrx's: cli -> feedforward -> optimize -> objective -> kernel."""
    photostatistics = SimpleNamespace()
    optimize = SimpleNamespace(maximize_scalar=lambda f, spec: max(f(x) for x in spec))

    def q_thresh(x, n_th):
        busy(0.001)
        return x, n_th

    def dffre_error(alpha, cfg):
        def objective(beta):
            busy(0.001)
            return ff.q_thresh(beta, 1)[0]
        return ff.maximize_scalar(objective, (1.0, 2.0, 3.0))

    ff = SimpleNamespace(dffre_error=dffre_error, hffre_error=None, hffre_error_at=None,
                         q_thresh=q_thresh, maximize_scalar=optimize.maximize_scalar)
    cli = SimpleNamespace(evaluate_point=lambda config, a2, i: ff.dffre_error(a2, config),
                          write_csv=lambda path, rows, metadata: None)
    return {"cli": cli, "feedforward": ff, "baselines": SimpleNamespace(hynore_error=None),
            "optimize": optimize, "photostatistics": photostatistics,
            "montecarlo": SimpleNamespace(estimate_error=None)}


def test_counts_self_times_and_restore():
    modules = fake_program()
    originals = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert modules["cli"].evaluate_point(None, 1.0, 0) == 3.0
    finally:
        tracer.restore()
    assert {name: dict(vars(m)) for name, m in modules.items()} == originals
    assert tracer.calls("cli.evaluate_point") == 1
    assert tracer.calls("optimize.maximize_scalar") == 1
    assert tracer.objective_calls() == 3
    assert tracer.calls("photostatistics.q_thresh") == 3
    # 3 ms in the objectives' own loop (feedforward), 3 ms in the kernel.
    assert tracer.self_seconds("photostatistics") == pytest.approx(0.003, abs=0.002)
    assert tracer.self_seconds("feedforward") == pytest.approx(0.003, abs=0.002)
    assert tracer.self_seconds("optimize") < 0.002
    total = tracer.stats["cli.evaluate_point"][1]
    layers = ("cli", "feedforward", "optimize", "photostatistics")
    assert sum(tracer.self_seconds(layer) for layer in layers) == pytest.approx(total, rel=1e-9)
    assert {s[0] for s in tracer.samples} == {1}  # one request


def test_reference_seconds_scale_by_the_probe_speed_and_drop_probe_time():
    probe = speed.SpeedProbe()
    ref = speed.PROBE_REFERENCE_S
    # The host runs at half the reference speed; one probe lies inside [1, 2].
    probe.starts = [0.99, 1.5, 2.01]
    probe.durations = [2 * ref, 2 * ref, 2 * ref]
    assert probe.reference_seconds(1.0, 2.0) == pytest.approx((1.0 - 2 * ref) / 2)
    # Far from every sample, the nearest one sets the speed.
    assert probe.reference_seconds(10.0, 10.5) == pytest.approx(0.25)
