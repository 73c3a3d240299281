"""The benchmark's three workloads: seeded inputs and one round of operations.

An operation is one figure-curve point, evaluated through
``cli.evaluate_point`` (the row ``bpskrx sweep`` and ``bpskrx figure``
write), or one ``montecarlo.estimate_error`` call. Each curve's rows are
written with ``cli.write_csv`` after its points. A round is the fixed
list of operations a workload's seed defines; a run repeats whole rounds.

Every program function is looked up through its module at call time, so
a tracer installed on the module attributes sees the calls.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import oracle

# --- hffre_curves ------------------------------------------------------------
# The 2-D (tau, z) search curves of figures 4, 5b and 8a.
HFFRE_CURVES = (
    ("hynore_m2", {"receiver": "HYNORE"}),
    ("hffre_n1_m2", {"receiver": "HFFRE"}),
    ("hffre_n1_m4", {"receiver": "HFFRE", "pnr": 4}),
    ("hffre_nu1e-3_n1", {"receiver": "HFFRE", "nu": 1e-3}),
    ("hffre_nu1e-3_n2", {"receiver": "HFFRE", "nu": 1e-3, "n_copies": 2}),
)
HFFRE_ALPHA2 = (0.05, 5.0)
HFFRE_ENERGIES = 2  # per curve, one per half of the log range, shared by all curves

# --- dffre_domain ------------------------------------------------------------
DFFRE_MODELS = (
    ("ideal", {}),
    ("eta0.7", {"eta": 0.7}),
    ("nu1e-3", {"nu": 1e-3}),
    ("xi0.998", {"xi": 0.998}),
    ("nu1e-3_m8", {"nu": 1e-3, "pnr": 8}),
)
DFFRE_COPIES = (1, 2, 5, 10, 50)
# Log strata (lo, hi, points) per curve. The Helstrom bound underflows to
# 0 at alpha^2 = 186.3 (e^{-4 alpha^2} below the smallest subnormal); the
# strata leave (180, 195) out so that the number of points above the
# underflow is the same for every seed.
DFFRE_STRATA = ((0.01, 180.0, 5), (195.0, 1000.0, 1))

# --- mc_oracle ---------------------------------------------------------------
MC_RECEIVERS = ("DFFRE", "HFFRE")
MC_COPIES = (1, 3, 10)
MC_MODELS = DFFRE_MODELS[:4]  # the four M = 2 models
MC_TRIALS = 1_000_000
# Every receiver's error is at least the Helstrom bound, which stays above
# 1.6e-3 up to alpha^2 = 1.2: at least 1600 expected errors per estimate.
MC_ALPHA2 = (0.05, 1.2)
MC_TAU = (0.6, 0.95)
MC_Z = (0.5, 2.5)
MC_MIN_P = 1e-3

BASE_SWEEP = {
    "log": True, "n_copies": 1, "pnr": 2, "eta": 1.0, "nu": 0.0, "xi": 1.0,
    "mc_trials": None, "seed": None,
}


def stratified_log(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw in each of ``count`` equal log strata of [lo, hi]."""
    llo, lhi = math.log(lo), math.log(hi)
    width = (lhi - llo) / count
    return [math.exp(llo + (i + rng.random()) * width) for i in range(count)]


@dataclass(frozen=True)
class Failure:
    label: str
    alpha2: float
    error: str          # exception type name
    where: tuple[str, str]  # (file name, function) of the innermost frame


@dataclass
class RoundResult:
    attempted: int = 0
    # operation label -> (start, end) perf_counter times, for the
    # operations that succeeded
    spans: dict[str, tuple[float, float]] = field(default_factory=dict)
    # the same for the work between operations (CSV writes)
    overheads: dict[str, tuple[float, float]] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)
    # operation label -> the numbers it produced, for bit-identity checks
    outputs: dict[str, tuple] = field(default_factory=dict)
    rows: dict[str, list[dict]] = field(default_factory=dict)
    trials: int = 0


def _failure(label: str, alpha2: float, exc: Exception) -> Failure:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return Failure(label, alpha2, type(exc).__name__, (Path(frame.filename).name, frame.name))


@dataclass(frozen=True)
class Curve:
    name: str
    config: object      # cli.SweepConfig
    energies: tuple[float, ...]

    @property
    def detector(self) -> oracle.Detector:
        c = self.config
        return oracle.Detector(c.pnr, c.eta, c.nu, c.xi)


class CurveWorkload:
    """Figure-curve points through ``cli.evaluate_point``, one CSV per curve."""

    def __init__(self, name: str, program: SimpleNamespace, curves: list[Curve]) -> None:
        self.name = name
        self.program = program
        self.curves = curves

    def run_round(self, out_dir: Path) -> RoundResult:
        cli = self.program.cli
        result = RoundResult()
        for curve in self.curves:
            rows = []
            for i, alpha2 in enumerate(curve.energies):
                result.attempted += 1
                label = f"{curve.name}@{alpha2!r}"
                start = time.perf_counter()
                try:
                    row = cli.evaluate_point(curve.config, alpha2, i)
                except Exception as exc:  # counted and classified by the checks
                    result.failures.append(_failure(label, alpha2, exc))
                    continue
                result.spans[label] = (start, time.perf_counter())
                rows.append(row)
                result.outputs[label] = (row["p_err"], row["tau_opt"], row["z_opt"],
                                         row["n_th_opt"], row["betas"])
            start = time.perf_counter()
            cli.write_csv(str(out_dir / f"{curve.name}.csv"), rows, self.metadata(curve))
            result.overheads[curve.name] = (start, time.perf_counter())
            result.rows[curve.name] = rows
        return result

    def metadata(self, curve: Curve) -> list[tuple[str, object]]:
        return [("workload", self.name), ("curve", curve.name)]


def _sweep_config(program: SimpleNamespace, overrides: dict, energies: list[float]):
    return program.cli.SweepConfig(
        **{**BASE_SWEEP, **overrides, "alpha2_min": min(energies),
           "alpha2_max": max(energies), "points": len(energies)}
    )


def hffre_curves(program: SimpleNamespace, seed: int) -> CurveWorkload:
    rng = random.Random(f"hffre_curves/{seed}")
    energies = stratified_log(rng, *HFFRE_ALPHA2, HFFRE_ENERGIES)
    curves = [Curve(name, _sweep_config(program, overrides, energies), tuple(energies))
              for name, overrides in HFFRE_CURVES]
    return CurveWorkload("hffre_curves", program, curves)


def dffre_domain(program: SimpleNamespace, seed: int) -> CurveWorkload:
    rng = random.Random(f"dffre_domain/{seed}")
    curves = []
    for model_name, overrides in DFFRE_MODELS:
        for n in DFFRE_COPIES:
            energies = [a2 for lo, hi, count in DFFRE_STRATA for a2 in stratified_log(rng, lo, hi, count)]
            config = _sweep_config(program, {"receiver": "DFFRE", "n_copies": n, **overrides}, energies)
            curves.append(Curve(f"dffre_{model_name}_n{n}", config, tuple(energies)))
    return CurveWorkload("dffre_domain", program, curves)


@dataclass(frozen=True)
class Estimate:
    """One Monte Carlo operation, with the analytic result it samples."""

    label: str
    alpha2: float
    cfg: object         # feedforward.FeedForwardConfig
    analytic: object    # feedforward.EvalResult
    rng_spec: object    # montecarlo.RngSpec

    @property
    def detector(self) -> oracle.Detector:
        m = self.cfg.model
        return oracle.Detector(m.resolution, m.eta, m.nu, m.xi)


class MonteCarloWorkload:
    """``montecarlo.estimate_error`` at 10^6 trials on analytically optimized parameters."""

    name = "mc_oracle"

    def __init__(self, program: SimpleNamespace, estimates: list[Estimate]) -> None:
        self.program = program
        self.estimates = estimates

    def estimate(self, op: Estimate) -> tuple[float, float]:
        return self.program.montecarlo.estimate_error(
            math.sqrt(op.alpha2), op.analytic.params, op.cfg, MC_TRIALS, op.rng_spec)

    def run_round(self, out_dir: Path) -> RoundResult:
        result = RoundResult()
        for op in self.estimates:
            result.attempted += 1
            start = time.perf_counter()
            try:
                p_hat, std_err = self.estimate(op)
            except Exception as exc:  # counted and classified by the checks
                result.failures.append(_failure(op.label, op.alpha2, exc))
                continue
            result.spans[op.label] = (start, time.perf_counter())
            result.trials += MC_TRIALS
            result.outputs[op.label] = (p_hat, std_err)
        return result


def mc_oracle(program: SimpleNamespace, seed: int) -> MonteCarloWorkload:
    """Inputs plus the analytic parameters every estimate samples (part of set-up)."""
    ff, ps, mc = program.feedforward, program.photostatistics, program.montecarlo
    rng = random.Random(f"mc_oracle/{seed}")
    estimates = []
    for receiver in MC_RECEIVERS:
        for n in MC_COPIES:
            for model_name, overrides in MC_MODELS:
                alpha2 = stratified_log(rng, *MC_ALPHA2, 1)[0]
                model = ps.DetectorModel(overrides.get("pnr", 2), overrides.get("eta", 1.0),
                                         overrides.get("nu", 0.0), overrides.get("xi", 1.0))
                alpha = math.sqrt(alpha2)
                if receiver == "DFFRE":
                    cfg = ff.FeedForwardConfig(n, model, ff.Receiver.DFFRE)
                    analytic = ff.dffre_error(alpha, cfg)
                else:
                    tau, z = rng.uniform(*MC_TAU), rng.uniform(*MC_Z)
                    cfg = ff.FeedForwardConfig(n, model, ff.Receiver.HFFRE)
                    analytic = ff.hffre_error_at(alpha, cfg, tau, z)
                label = f"{receiver.lower()}_{model_name}_n{n}@{alpha2!r}"
                spec = mc.RngSpec(seed, stream_id=len(estimates))
                estimates.append(Estimate(label, alpha2, cfg, analytic, spec))
    return MonteCarloWorkload(program, estimates)


WORKLOADS = {
    "hffre_curves": hffre_curves,
    "dffre_domain": dffre_domain,
    "mc_oracle": mc_oracle,
}
