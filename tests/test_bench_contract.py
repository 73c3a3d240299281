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
    # The HL error comes from hl_sign_error's rows, which the tracer does not wrap.
    ("HFFRE", {"n_copies": 1}, ("feedforward.hffre_error", "optimize.scan_discrete",
                                "optimize.maximize_scalar")),
    # dark counts: both thresholds, and the near-tie settlement at n_th = 2
    ("HFFRE", {"nu": 1e-3, "n_copies": 1}, ("feedforward.hffre_error", "optimize.scan_discrete",
                                            "optimize.maximize_scalar",
                                            "photostatistics.q_thresh")),
]


def path_ids(paths):
    """The receiver, followed by the overrides where the receiver repeats."""
    ids = []
    for receiver, overrides, _ in paths:
        ids.append("-".join([receiver, *(f"{k}={v}" for k, v in overrides.items())])
                   if receiver in ids else receiver)
    return ids


@pytest.mark.parametrize("receiver, overrides, boundaries", PATHS, ids=path_ids(PATHS))
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
