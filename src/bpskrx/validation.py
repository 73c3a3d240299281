"""Validation suite behind ``bpskrx validate`` and the acceptance tests.

Each check pins a quantitative claim about the engine: closed-form
values against independently computed references, distribution-kernel
invariants, receiver orderings and asymptotics, imperfection regimes,
Monte Carlo equivalence, and internal consistency identities. The
``fast`` suite runs reduced grids and trial counts as a smoke test; the
``full`` suite runs every check at its stated scope.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, feedforward, montecarlo
from .feedforward import FeedForwardConfig, Receiver
from .photostatistics import (
    DetectorModel,
    branch_means,
    hl_difference_pmf,
    pnr_pmf,
    q_off,
    q_on,
    q_thresh,
    skellam_pmf,
)

__all__ = ["CheckResult", "run_suite", "CRITERIA"]

IDEAL2 = DetectorModel(2)

# Reference values computed independently at 40-digit precision from the
# defining formulas (error-function / exponential series).
BASELINE_REFERENCE = {
    # alpha2: (sql, helstrom, kennedy)
    0.25: (0.15865525393145705141, 0.10246995118967494635, 0.1839397205857211608),
    1.0: (0.0227501319481792072, 0.0046000703695887131131, 0.0091578194443670901469),
    4.0: (3.1671241833119921254e-05, 2.8133794471325169983e-08, 5.6267587359629557257e-08),
}
SAT_DARK_REFERENCE = 2.4983339581667013829e-07     # (1 - e^-nu (1+nu))/2 at nu = 1e-3
# Floor plus the bright-state miss term of the threshold-2 rule, computed
# independently at 40-digit precision:
# [(1 - e^-nu (1+nu)) + e^-(4 a2 + nu) (1 + 4 a2 + nu)]/2 at nu = 1e-3, a2 = 4.
DARK_A2_4_REFERENCE = 1.205482521408263171e-06
SAT_VIS_REFERENCE = 3.8949164079193109161e-04      # same form at g = 0.04 (xi=0.998, a2=10, N=1)


@dataclass
class CheckResult:
    criterion: str
    passed: bool = True
    details: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def check(self, label: str, ok: bool, margin: str) -> None:
        self.passed = self.passed and bool(ok)
        self.details.append(f"{'ok  ' if ok else 'FAIL'} {label}: {margin}")


def _cfg(n: int, model: DetectorModel, receiver: Receiver) -> FeedForwardConfig:
    return FeedForwardConfig(n, model, receiver)


def _dffre(alpha2: float, n: int = 1, model: DetectorModel = IDEAL2):
    return feedforward.dffre_error(math.sqrt(alpha2), _cfg(n, model, Receiver.DFFRE))


def _hffre(alpha2: float, n: int = 1, model: DetectorModel = IDEAL2):
    return feedforward.hffre_error(math.sqrt(alpha2), _cfg(n, model, Receiver.HFFRE))


def criterion_01(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("1 closed-form baselines vs independent references (1e-12)")
    for alpha2, (sql_ref, hel_ref, ken_ref) in BASELINE_REFERENCE.items():
        alpha = math.sqrt(alpha2)
        for name, got, ref in (
            ("sql", baselines.sql_error(alpha), sql_ref),
            ("helstrom", baselines.helstrom_bound(alpha), hel_ref),
            ("kennedy", baselines.kennedy_error(alpha), ken_ref),
        ):
            err = abs(got - ref)
            result.check(f"{name}(alpha2={alpha2})", err <= 1e-12, f"|err|={err:.2e}")
    return result


def criterion_02(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("2 distribution kernel: normalization, mirror symmetry, Skellam limit")
    mus = (0.0, 1e-6, 0.5, 1.0, 4.0, 17.3, 100.0)
    resolutions = (1, 2, 3, 16) if fast else (1, 2, 3, 8, 16)
    worst = 0.0
    for mu in mus:
        for m in resolutions:
            worst = max(worst, abs(pnr_pmf(mu, m).sum() - 1.0))
    result.check("count PMF normalization", worst <= 1e-12, f"sup |sum-1|={worst:.2e}")

    settings = [(0.0, 0.3), (0.5, 1.0), (-1.2, 2.0), (2.0, 0.1), (3.5, 7.0), (-2.5, 10.0)]
    models = [IDEAL2, DetectorModel(2, eta=0.7, nu=1e-3, xi=0.998)]
    worst_norm = 0.0
    worst_mirror = 0.0
    for zeta, z in settings:
        for m in resolutions:
            for base in models:
                model = DetectorModel(m, base.eta, base.nu, base.xi)
                pmf = hl_difference_pmf(zeta, z, model)
                worst_norm = max(worst_norm, abs(pmf.probs.sum() - 1.0))
                mirrored = hl_difference_pmf(-zeta, z, model)
                worst_mirror = max(worst_mirror, float(np.max(np.abs(mirrored.probs - pmf.probs[::-1]))))
    result.check("difference PMF normalization", worst_norm <= 1e-12, f"sup={worst_norm:.2e}")
    result.check("mirror symmetry (1e-15)", worst_mirror <= 1e-15, f"sup={worst_mirror:.2e}")

    pairs = [(0.5, 1.5), (1.0, 1.2), (0.0, 2.0), (1.4, 1.4)]
    model64 = DetectorModel(64)
    sup = 0.0
    for zeta, z in pairs:
        pmf = hl_difference_pmf(zeta, z, model64)
        mu = branch_means(zeta, z)
        for delta in range(-10, 11):
            sup = max(sup, abs(pmf.prob(delta) - skellam_pmf(delta, mu.mu_plus, mu.mu_minus)))
    result.check("Skellam limit at M=64 (1e-8)", sup <= 1e-8, f"sup={sup:.2e}")
    return result


def criterion_03(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("3 ideal ordering: helstrom <= hffre <= dffre <= sql, hffre <= hynore")
    points = 5 if fast else 20
    grid = np.logspace(math.log10(0.05), math.log10(4.0), points)
    worst = {"hel": math.inf, "dffre": math.inf, "sql": math.inf, "hynore": math.inf}
    for alpha2 in grid:
        alpha = math.sqrt(alpha2)
        hel, sql = baselines.helstrom_bound(alpha), baselines.sql_error(alpha)
        ph = _hffre(alpha2).p_err
        pd = _dffre(alpha2).p_err
        py = baselines.hynore_error(alpha, 2).p_err
        worst["hel"] = min(worst["hel"], ph - hel)
        worst["dffre"] = min(worst["dffre"], pd + 1e-9 - ph)
        worst["sql"] = min(worst["sql"], sql - pd)
        worst["hynore"] = min(worst["hynore"], py + 1e-9 - ph)
    result.check(f"helstrom <= hffre ({points} pts)", worst["hel"] >= 0, f"min gap={worst['hel']:.2e}")
    result.check("hffre <= dffre + 1e-9", worst["dffre"] >= 0, f"min gap={worst['dffre']:.2e}")
    result.check("dffre <= sql", worst["sql"] >= 0, f"min gap={worst['sql']:.2e}")
    result.check("hffre <= hynore + 1e-9", worst["hynore"] >= 0, f"min gap={worst['hynore']:.2e}")
    return result


def criterion_04(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("4 asymptotics at alpha2=4: dffre -> kennedy, hffre <= hynore")
    ken = baselines.kennedy_error(2.0)
    pd = _dffre(4.0).p_err
    rel = abs(pd - ken) / ken
    result.check("dffre within 10% of kennedy", rel <= 0.10, f"rel={rel:.2e}")
    ph = _hffre(4.0).p_err
    py = baselines.hynore_error(2.0, 2).p_err
    result.check("hffre <= hynore + 1e-9", ph <= py + 1e-9, f"gap={py + 1e-9 - ph:.2e}")
    return result


def criterion_05(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("5 copy/resolution monotonicity (ratio vs N, error vs M)")
    n_values = (1, 2) if fast else (1, 2, 5)
    for name, fn in (("dffre", _dffre), ("hffre", _hffre)):
        ratios = [fn(0.1, n).ratio for n in n_values]
        decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
        result.check(
            f"{name} ratio strictly decreasing over N={n_values} at alpha2=0.1",
            decreasing,
            "R=" + " > ".join(f"{r:.5f}" for r in ratios),
        )
    m_values = (2, 4) if fast else (1, 2, 4)
    errs = [_hffre(2.0, 1, DetectorModel(m)).p_err for m in m_values]
    ok = all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))
    result.check(
        f"hffre error non-increasing over M={m_values} at alpha2=2",
        ok,
        "p=" + " >= ".join(f"{e:.4e}" for e in errs),
    )
    return result


def criterion_06(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("6 efficiency regime at eta=0.7: threshold energy, copies mitigate")
    model = DetectorModel(2, eta=0.7)
    for name, fn in (("dffre", _dffre), ("hffre", _hffre)):
        g_low = fn(0.1, 1, model).gain
        g_high = fn(3.0, 1, model).gain
        result.check(f"{name} gain(0.1) < 0 < gain(3)", g_low < 0.0 < g_high,
                     f"G(0.1)={g_low:+.4f} G(3)={g_high:+.4f}")
    n_many = 5 if fast else 10
    pairs = [("dffre", _dffre)] if fast else [("dffre", _dffre), ("hffre", _hffre)]
    for name, fn in pairs:
        g1 = fn(1.0, 1, model).gain
        gN = fn(1.0, n_many, model).gain
        result.check(f"{name} gain(N={n_many}) > gain(N=1) at alpha2=1", gN > g1,
                     f"G1={g1:+.4f} G{n_many}={gN:+.4f}")
    return result


def _sign_change(fn, alpha2_grid, model) -> tuple[float | None, float | None]:
    positive = negative = None
    for alpha2 in alpha2_grid:
        g = fn(alpha2, 1, model).gain
        if g > 0 and positive is None:
            positive = alpha2
        if g < 0:
            negative = alpha2
    return positive, negative


def criterion_07(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("7 dark-count saturation at nu=1e-3, N=1, M=2")
    model = DetectorModel(2, nu=1e-3)
    sat = feedforward.saturation_dark(1e-3, 1, 2)
    rel_ref = abs(sat - SAT_DARK_REFERENCE) / SAT_DARK_REFERENCE
    result.check("saturation_dark matches independent series (1e-6 rel)", rel_ref <= 1e-6,
                 f"sat={sat:.6e} rel={rel_ref:.2e}")
    p4 = _dffre(4.0, 1, model).p_err
    p6 = _dffre(6.0, 1, model).p_err
    diff = abs(p4 - p6)
    result.check("|dffre(4) - dffre(6)| <= 1e-6", diff <= 1e-6, f"diff={diff:.2e}")
    # At alpha2 = 4 the miss term e^-16 (1+16)/2 is still ~4x the floor, so
    # the optimum is checked against floor + miss term; the floor itself is
    # reached within 10% only from alpha2 ~ 4.96 on.
    result.check("dffre(alpha2=4.0) >= saturation", p4 >= sat,
                 f"p={p4:.4e} sat={sat:.4e}")
    rel4 = abs(p4 - DARK_A2_4_REFERENCE) / DARK_A2_4_REFERENCE
    result.check("dffre(alpha2=4.0) within 10% of saturation + miss term", rel4 <= 0.10,
                 f"p={p4:.4e} ref={DARK_A2_4_REFERENCE:.4e} rel={rel4:.2e}")
    rel6 = abs(p6 - sat) / sat
    result.check("dffre(alpha2=6.0) within 10% of saturation", rel6 <= 0.10,
                 f"p={p6:.4e} sat={sat:.4e} rel={rel6:.2e}")
    grid = (0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 50.0)
    pos, neg = _sign_change(_dffre, grid, model)
    result.check("gain sign change in (0.05, 50) [dffre scan]",
                 pos is not None and neg is not None and pos < neg,
                 f"G>0 at alpha2={pos}, G<0 at alpha2={neg}")
    if not fast and pos is not None and neg is not None:
        gp = _hffre(pos, 1, model).gain
        gn = _hffre(neg, 1, model).gain
        result.check("hffre confirms both signs", gp > 0 > gn, f"G({pos})={gp:+.3g} G({neg})={gn:+.3g}")
    return result


def criterion_08(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("8 visibility regime at xi=0.998, M=2, N=1")
    model = DetectorModel(2, xi=0.998)
    pd = _dffre(10.0, 1, model).p_err
    ph = _hffre(10.0, 1, model).p_err
    result.check("hffre < dffre at alpha2=10", ph < pd, f"hffre={ph:.4e} dffre={pd:.4e}")
    sat = feedforward.saturation_visibility(0.998, math.sqrt(10.0), 1, 2)
    rel_ref = abs(sat - SAT_VIS_REFERENCE) / SAT_VIS_REFERENCE
    result.check("saturation_visibility matches independent series (1e-6 rel)", rel_ref <= 1e-6,
                 f"sat={sat:.6e} rel={rel_ref:.2e}")
    rel = abs(pd - sat) / sat
    result.check("dffre(10) within 15% of saturation", rel <= 0.15, f"rel={rel:.2e}")
    grid = (0.2, 1.0, 5.0, 20.0, 50.0)
    pos, neg = _sign_change(_dffre, grid, model)
    result.check("gain sign change for N=1 [dffre scan]",
                 pos is not None and neg is not None and pos < neg,
                 f"G>0 at alpha2={pos}, G<0 at alpha2={neg}")
    if not fast and pos is not None and neg is not None:
        gp = _hffre(pos, 1, model).gain
        gn = _hffre(neg, 1, model).gain
        result.check("hffre confirms both signs", gp > 0 > gn, f"G({pos})={gp:+.3g} G({neg})={gn:+.3g}")
    return result


# receiver, model, alpha2, n_copies: chosen so the analytic error stays
# in [1e-4, 0.5] where the binomial check is meaningful.
MC_POINTS = (
    ("DFFRE", "ideal", 0.2, 1),
    ("DFFRE", "ideal", 1.0, 3),
    ("DFFRE", "eta", 3.0, 1),
    ("DFFRE", "eta", 0.2, 3),
    ("DFFRE", "nu", 1.0, 1),
    ("DFFRE", "xi", 1.0, 3),
    ("HFFRE", "ideal", 0.2, 3),
    ("HFFRE", "ideal", 1.0, 1),
    ("HFFRE", "eta", 1.0, 1),
    ("HFFRE", "eta", 3.0, 3),
    ("HFFRE", "nu", 0.2, 1),
    ("HFFRE", "xi", 1.0, 3),
)
MC_MODELS = {
    "ideal": IDEAL2,
    "eta": DetectorModel(2, eta=0.7),
    "nu": DetectorModel(2, nu=1e-3),
    "xi": DetectorModel(2, xi=0.998),
}


def criterion_09(fast: bool = False, seed: int = 1234) -> CheckResult:
    result = CheckResult("9 Monte Carlo equivalence (4 binomial standard errors)")
    trials = 100_000 if fast else 1_000_000
    points = MC_POINTS[::3] if fast else MC_POINTS
    for index, (name, model_key, alpha2, n_copies) in enumerate(points):
        cfg = _cfg(n_copies, MC_MODELS[model_key], Receiver[name])
        alpha = math.sqrt(alpha2)
        res = feedforward.optimized_error(alpha, cfg)
        p_hat, std_err = montecarlo.estimate_error(
            alpha, res.params, cfg, trials, montecarlo.RngSpec(seed, stream_id=index)
        )
        sigmas = abs(p_hat - res.p_err) / std_err
        result.check(
            f"{name} {model_key} alpha2={alpha2} N={n_copies}",
            sigmas <= 4.0,
            f"analytic={res.p_err:.5e} mc={p_hat:.5e} dev={sigmas:.2f} sigma",
        )
    return result


def criterion_10(fast: bool = False, seed: int = 1234) -> CheckResult:
    result = CheckResult("10 switch-model traces consistent with mean recursion (1e-12)")
    rng = np.random.default_rng(seed)
    for _ in range(5):
        alpha = float(rng.uniform(0.1, 2.0))
        n = int(rng.integers(1, 7))
        betas = tuple(float(b) for b in rng.uniform(0.0, 2.0, size=n))
        p00, p11 = feedforward.switch_conditional_traces(alpha, betas)
        trace = feedforward.correct_probability_trace(alpha, betas, DetectorModel(2))
        worst = float(np.max(np.abs(0.5 * (p00 + p11) - np.asarray(trace))))
        result.check(f"random point alpha={alpha:.3f} N={n}", worst <= 1e-12, f"sup={worst:.2e}")
    res = _dffre(0.5, 3)
    p00, p11 = feedforward.switch_conditional_traces(math.sqrt(0.5), res.params.betas)
    worst = float(np.max(np.abs(0.5 * (p00 + p11) - np.asarray(res.per_step_correct))))
    result.check("optimized betas (N=3, alpha2=0.5)", worst <= 1e-12, f"sup={worst:.2e}")
    return result


def criterion_11(fast: bool = False, seed: int = 0) -> CheckResult:
    result = CheckResult("11 reduction identities (1e-12)")
    for model in (IDEAL2, DetectorModel(2, nu=1e-3)):
        label = "ideal" if model.is_ideal else "dark"
        pd = feedforward.dffre_error(1.0, _cfg(2, model, Receiver.DFFRE)).p_err
        ph = feedforward.hffre_error_at(1.0, _cfg(2, model, Receiver.HFFRE), tau=1.0, z=0.0).p_err
        diff = abs(pd - ph)
        result.check(f"tau=1 hffre equals dffre ({label})", diff <= 1e-12, f"|diff|={diff:.2e}")
    worst = 0.0
    for x in (0.0, 1e-8, 0.3, 1.0, 4.0, 20.0):
        q0, q1 = q_thresh(x, 1)
        worst = max(worst, abs(q0 - q_off(x)), abs(q1 - q_on(x)))
    result.check("n_th=1 equals on/off formulas", worst <= 1e-12, f"sup={worst:.2e}")
    explicit = DetectorModel(2, eta=1.0, nu=0.0, xi=1.0)
    diff = abs(
        feedforward.dffre_error(1.0, _cfg(2, explicit, Receiver.DFFRE)).p_err
        - feedforward.dffre_error(1.0, _cfg(2, IDEAL2, Receiver.DFFRE)).p_err
    )
    result.check("explicit (1, 0, 1) model equals ideal path", diff <= 1e-12, f"|diff|={diff:.2e}")
    pmf_a = hl_difference_pmf(0.7, 1.1, explicit).probs
    pmf_b = hl_difference_pmf(0.7, 1.1, IDEAL2).probs
    worst = float(np.max(np.abs(pmf_a - pmf_b)))
    result.check("explicit model HL PMF equals ideal", worst <= 1e-12, f"sup={worst:.2e}")
    return result


CRITERIA = (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
)


def run_suite(suite: str = "fast", seed: int = 1234) -> list[CheckResult]:
    if suite not in ("fast", "full"):
        raise ValueError(f"suite must be 'fast' or 'full', got {suite!r}")
    fast = suite == "fast"
    results = []
    for criterion in CRITERIA:
        start = time.perf_counter()
        outcome = criterion(fast=fast, seed=seed)
        outcome.elapsed = time.perf_counter() - start
        results.append(outcome)
    return results
