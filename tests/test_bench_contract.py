"""The benchmark's layer tracer on the real modules.

``bench/tracer.py`` replaces functions at the module attributes through
which one ``bpskrx`` module calls another. These checks hold the program
to that: every receiver row of ``cli.evaluate_point`` passes through the
traced entry points, tracing changes no number, and ``restore`` puts
every original back.
"""

import sys
from pathlib import Path

import pytest

from bpskrx import baselines, cli, feedforward, montecarlo, optimize, photostatistics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracer import Tracer  # noqa: E402

MODULES = {"cli": cli, "feedforward": feedforward, "baselines": baselines,
           "optimize": optimize, "photostatistics": photostatistics, "montecarlo": montecarlo}
BASE = {"alpha2_min": 1.0, "alpha2_max": 1.0, "points": 1, "log": False, "n_copies": 2,
        "pnr": 2, "eta": 1.0, "nu": 0.0, "xi": 1.0, "mc_trials": None, "seed": None}
# receiver, sweep overrides, the boundaries its row must cross
PATHS = [
    ("DISP_OPT", {}, ("feedforward.dffre_error", "optimize.scan_discrete",
                      "optimize.maximize_scalar")),
    ("HYNORE", {}, ("baselines.hynore_error",)),
    ("DFFRE", {"nu": 1e-3}, ("feedforward.dffre_error", "optimize.scan_discrete",
                             "optimize.maximize_scalar", "photostatistics.q_thresh")),
    ("HFFRE", {"n_copies": 1}, ("feedforward.hffre_error", "optimize.scan_discrete",
                                "optimize.maximize_scalar", "photostatistics.hl_difference_pmf")),
]


@pytest.mark.parametrize("receiver, overrides, boundaries", PATHS, ids=[p[0] for p in PATHS])
def test_tracer_sees_every_layer_and_restores(receiver, overrides, boundaries):
    config = cli.SweepConfig(receiver=receiver, **{**BASE, **overrides})
    untraced = cli.evaluate_point(config, 1.0, 0)
    originals = {name: dict(vars(module)) for name, module in MODULES.items()}
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        traced = MODULES["cli"].evaluate_point(config, 1.0, 0)
    finally:
        tracer.restore()
    assert {name: dict(vars(module)) for name, module in MODULES.items()} == originals
    assert traced == untraced
    assert tracer.calls("cli.evaluate_point") == 1
    for boundary in boundaries:
        assert tracer.calls(boundary) >= 1, boundary
