"""Feed-forward displacement receivers for BPSK discrimination.

The displacement feed-forward receiver (DFFRE) splits the signal into N
weak copies. Each copy is displaced by an amplitude beta_j whose sign is
steered by a switch: every time the PNR(M) detector counts at or above
the click threshold, the switch flips, and the final switch position is
the decision. Every receiver here runs one error-space step

    e(j) = min_beta_j [ (1 - e(j-1)) * F(beta_j) + e(j-1) * M(beta_j) ]

with per-step greedy minimization; F = Q1(rate_minus) flips a correct
switch and M = Q0(rate_plus) misses a wrong one, where Q0/Q1 are the
below/at-or-above-threshold probabilities and rate_minus (rate_plus) is
the detected mean photon number of a copy whose displacement opposes
(reinforces) the signal. Error probabilities far below the resolution
of 1 - P stay accurate; correct-decision traces report 1 - e.

The receivers differ only in where the step starts. The DFFRE starts at
e(0) = 1/2, and at N = 1 it is the optimized displacement receiver. The
hybrid feed-forward receiver (HFFRE) first taps a fraction 1 - tau of
the signal and measures it with the homodyne-like (HL) difference
scheme, whose sign picks the first displacement: e(0) is the HL sign
error and the copies carry sqrt(tau) alpha. tau and the HL
local-oscillator amplitude z are optimized on a grid that always
contains tau = 1, where the DFFRE is recovered exactly. The
switch-conditional traces start at e(0) = 0 and 1.

Detector imperfections (efficiency eta, dark counts nu, visibility xi)
enter through the detected rates; with dark counts or reduced visibility
the click threshold n_th is optimized exhaustively as well. Everything
is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .baselines import _check_alpha, helstrom_bound, sql_error
from .optimize import (
    GridSearchSpec,
    ScalarSearchSpec,
    coarse_abscissae,
    maximize_grid_batch,
    maximize_scalar,
    maximize_scalar_batch,
    scan_discrete,
)
from .photostatistics import (
    DetectorModel,
    hl_difference_pmf,
    hl_sign_error,
    q_above_rows,
    q_below_rows,
    q_thresh,
)

__all__ = [
    "Receiver",
    "FeedForwardConfig",
    "ReceiverParams",
    "EvalResult",
    "StepRates",
    "step_rates",
    "step_correct_prob",
    "correct_probability_trace",
    "dffre_error",
    "hffre_error",
    "hffre_error_at",
    "optimized_error",
    "switch_conditional_traces",
    "saturation_dark",
    "saturation_visibility",
    "ratio",
    "gain",
]

BETA_COARSE_POINTS = 64
BETA_TOL = 1e-7
BETA_MARGIN = 5.0
TAU_Z_POINTS = 41
TAU_Z_ROUNDS = 4
TAU_Z_SHRINK = 8.0
# Per copy, the window within which batched (tau, z) values are settled
# by the scalar recursion: twice the batch/scalar difference allowed,
# relative, plus absolute for the 1 - q0 tail at n_th >= 2. Measured
# differences per copy: at most 2.5e-15 relative (ideal, N = 6,
# alpha2 = 9) and 1.7e-16 absolute (nu = 1e-3, M = 4, N = 3).
BATCH_RTOL_PER_COPY = 1e-13
BATCH_ATOL_PER_COPY = 1e-15


class Receiver(Enum):
    DFFRE = "dffre"
    HFFRE = "hffre"


@dataclass(frozen=True)
class FeedForwardConfig:
    """Number of copies, detector model and receiver flavour of one evaluation."""

    n_copies: int
    model: DetectorModel
    receiver: Receiver = Receiver.DFFRE

    def __post_init__(self) -> None:
        if not isinstance(self.n_copies, int) or self.n_copies < 1:
            raise ValueError(f"n_copies must be an integer >= 1, got {self.n_copies!r}")
        if not isinstance(self.model, DetectorModel):
            raise ValueError("model must be a DetectorModel")
        if not isinstance(self.receiver, Receiver):
            raise ValueError("receiver must be a Receiver")


@dataclass(frozen=True)
class ReceiverParams:
    """Free parameters of one receiver evaluation.

    For the DFFRE tau is fixed at 1 and z is unused (reported as 0).
    """

    tau: float
    z: float
    betas: tuple[float, ...]
    n_th: int


@dataclass(frozen=True)
class EvalResult:
    """Error probability with the optimizing parameters and derived metrics.

    ``per_step_correct`` is the correct-decision trace (initial value
    plus one entry per copy); the error probability is one minus its
    last entry. ``ratio`` is relative to the Helstrom bound, ``gain``
    relative to the SQL (positive gain means the SQL is beaten).
    """

    p_err: float
    params: ReceiverParams
    per_step_correct: tuple[float, ...]
    ratio: float
    gain: float


class StepRates(NamedTuple):
    """Mean photon numbers of a displaced copy, before detector effects."""

    lambda_plus: float
    lambda_minus: float


def step_rates(beta: float, amplitude: float, n_copies: int, xi: float = 1.0) -> StepRates:
    """Rates of one displaced copy: amplitude^2/N + beta^2 +- 2 xi beta amplitude / sqrt(N).

    ``amplitude`` is the total signal amplitude feeding the splitter
    (alpha for the DFFRE, sqrt(tau) * alpha for the HFFRE); each copy
    carries amplitude / sqrt(N). With xi = 1 the rates reduce to
    |beta +- amplitude / sqrt(N)|^2.
    """
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta!r}")
    base = amplitude * amplitude / n_copies + beta * beta
    cross = 2.0 * xi * amplitude / math.sqrt(n_copies) * beta
    return StepRates(base + cross, base - cross)


def _flip_probabilities(
    amplitude: float, n_copies: int, model: DetectorModel, n_th: int
) -> Callable[[float], tuple[float, float]]:
    """Per-copy switch flip probabilities, as a function of beta.

    Returns (false_flip, missed_flip) = (Q1(rate_minus), Q0(rate_plus)):
    the probability that a copy flips a correct switch, and that it
    fails to flip a wrong one. Neither depends on the switch's error
    probability, so one table of them on the coarse beta grid serves
    every copy of a recursion.
    """
    a2n = amplitude * amplitude / n_copies
    cross_coef = 2.0 * model.xi * amplitude / math.sqrt(n_copies)
    eta, nu = model.eta, model.nu
    if n_th == 1:
        def flips(beta: float) -> tuple[float, float]:
            base = a2n + beta * beta
            cross = cross_coef * beta
            return (-math.expm1(-(eta * (base - cross) + nu)),
                    math.exp(-(eta * (base + cross) + nu)))
    else:
        def flips(beta: float) -> tuple[float, float]:
            base = a2n + beta * beta
            cross = cross_coef * beta
            _, false_flip = q_thresh(eta * (base - cross) + nu, n_th)
            missed_flip, _ = q_thresh(eta * (base + cross) + nu, n_th)
            return false_flip, missed_flip
    return flips


def _negated_step_error(
    e_prev: float,
    flips: Callable[[float], tuple[float, float]],
    table: Sequence[tuple[float, float]],
) -> tuple[Callable[[float], float], list[float]]:
    """Negated error probability after one more copy: as a function of beta, and on a grid.

    The recursion's one step, e' = (1 - e) Q1(rate_minus) + e Q0(rate_plus),
    returned negated so the maximizers can be reused for minimization.
    ``table`` holds ``flips`` at the grid's abscissae; the grid values
    use the objective's arithmetic, so they equal it there bit for bit.
    """
    p_prev = 1.0 - e_prev

    def objective(beta: float) -> float:
        false_flip, missed_flip = flips(beta)
        return -(p_prev * false_flip + e_prev * missed_flip)

    coarse = [-(p_prev * false_flip + e_prev * missed_flip) for false_flip, missed_flip in table]
    return objective, coarse


def _error_trace(e_initial: float, betas: Sequence[float], amplitude: float, n_copies: int,
                 model: DetectorModel, n_th: int) -> list[float]:
    """Error trace e_0..e_N of the recursion's step at fixed displacements."""
    q_thresh(0.0, n_th, model.resolution)  # validates the threshold range
    flips = _flip_probabilities(amplitude, n_copies, model, n_th)
    errors = [e_initial]
    for beta in betas:
        if beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {beta!r}")
        negated, _ = _negated_step_error(errors[-1], flips, ())
        errors.append(-negated(float(beta)))
    return errors


def step_correct_prob(
    p_prev: float,
    beta: float,
    amplitude: float,
    n_copies: int,
    model: DetectorModel,
    n_th: int = 1,
) -> float:
    """One step of the correct-decision recursion at a fixed displacement."""
    if not 0.0 <= p_prev <= 1.0:
        raise ValueError(f"p_prev must be in [0, 1], got {p_prev!r}")
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    return 1.0 - _error_trace(1.0 - p_prev, (beta,), amplitude, n_copies, model, n_th)[-1]


def correct_probability_trace(
    alpha: float,
    betas: Sequence[float],
    model: DetectorModel,
    n_th: int = 1,
    p_initial: float = 0.5,
    amplitude: float | None = None,
) -> tuple[float, ...]:
    """Correct-decision trace for a fixed displacement sequence (no optimization)."""
    alpha = _check_alpha(alpha)
    if len(betas) < 1:
        raise ValueError("betas must contain at least one amplitude")
    amplitude = alpha if amplitude is None else amplitude
    errors = _error_trace(1.0 - p_initial, betas, amplitude, len(betas), model, n_th)
    return tuple(1.0 - e for e in errors)


def _optimized_recursion(
    amplitude: float, n_copies: int, model: DetectorModel, n_th: int, e_initial: float
) -> tuple[list[float], tuple[float, ...]]:
    """Greedy per-step displacement optimization in error space.

    Returns (error trace e_0..e_N, betas).
    """
    spec = ScalarSearchSpec(
        lo=0.0,
        hi=amplitude / math.sqrt(n_copies) + BETA_MARGIN,
        coarse_points=BETA_COARSE_POINTS,
        tol=BETA_TOL,
    )
    flips = _flip_probabilities(amplitude, n_copies, model, n_th)
    table = [flips(beta) for beta in spec.coarse_grid()]
    errors = [e_initial]
    betas: list[float] = []
    for _ in range(n_copies):
        objective, coarse = _negated_step_error(errors[-1], flips, table)
        beta, negated = maximize_scalar(objective, spec, coarse)
        betas.append(beta)
        errors.append(-negated)
    return errors, tuple(betas)


def _threshold_candidates(model: DetectorModel) -> list[int]:
    # The click threshold only matters once dark counts or a visibility
    # reduction break the on/off optimality of the ideal rule.
    if model.nu > 0.0 or model.xi < 1.0:
        return list(range(1, model.resolution + 1))
    return [1]


def _result(alpha: float, errors: Sequence[float], betas: tuple[float, ...] = (), n_th: int = 1,
            tau: float = 1.0, z: float = 0.0) -> EvalResult:
    """The evaluation result of an error trace e_0..e_N and its parameters."""
    p_err = errors[-1]
    return EvalResult(p_err=p_err, params=ReceiverParams(tau=tau, z=z, betas=betas, n_th=n_th),
                      per_step_correct=tuple(1.0 - e for e in errors),
                      ratio=ratio(p_err, alpha), gain=gain(p_err, alpha))


def _threshold_scan(amplitude: float, cfg: FeedForwardConfig,
                    e_initial: float) -> tuple[list[float], tuple[float, ...], int]:
    """The optimized recursion at the best click threshold: (errors, betas, n_th)."""
    runs: dict[int, tuple[list[float], tuple[float, ...]]] = {}

    def negated_error(n_th: int) -> float:
        runs[n_th] = _optimized_recursion(amplitude, cfg.n_copies, cfg.model, n_th, e_initial)
        return -runs[n_th][0][-1]

    n_th, _ = scan_discrete(negated_error, _threshold_candidates(cfg.model))
    return (*runs[n_th], n_th)


def dffre_error(alpha: float, cfg: FeedForwardConfig) -> EvalResult:
    """Optimized displacement feed-forward receiver error probability."""
    alpha = _check_alpha(alpha)
    if cfg.receiver is not Receiver.DFFRE:
        raise ValueError("cfg.receiver must be Receiver.DFFRE")
    if alpha == 0.0:
        return _result(0.0, [0.5] * (cfg.n_copies + 1), (0.0,) * cfg.n_copies)
    return _result(alpha, *_threshold_scan(alpha, cfg, 0.5))


def _hybrid_initial_error(alpha: float, tau: float, z: float, model: DetectorModel) -> float:
    """Probability that the HL pre-measurement starts the switch on the wrong side.

    The reflected amplitudes are -sqrt(1-tau) * (-+ alpha) for the two
    hypotheses; a nonnegative difference outcome selects the positive
    first displacement (ties go with inferring "0"), so the wrong-side
    masses are Delta >= 0 under "+alpha" and Delta < 0 under "-alpha".
    """
    reflected = math.sqrt(max(0.0, 1.0 - tau)) * alpha
    pmf_r1 = hl_difference_pmf(-reflected, z, model)  # hypothesis "+alpha"
    pmf_r0 = hl_difference_pmf(reflected, z, model)   # hypothesis "-alpha"
    return 0.5 * (pmf_r1.mass_nonnegative() + pmf_r0.mass_negative())


def _hybrid_recursion(
    alpha: float, cfg: FeedForwardConfig, tau: float, z: float, n_th: int
) -> tuple[list[float], tuple[float, ...]]:
    e0 = _hybrid_initial_error(alpha, tau, z, cfg.model)
    return _optimized_recursion(math.sqrt(tau) * alpha, cfg.n_copies, cfg.model, n_th, e0)


def _flip_rows(
    amplitude: np.ndarray, n_copies: int, model: DetectorModel, n_th: int
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``_flip_probabilities`` for arrays; beta broadcasts against amplitude."""
    a2n = amplitude * amplitude / n_copies
    cross_coef = 2.0 * model.xi * amplitude / math.sqrt(n_copies)
    eta, nu = model.eta, model.nu

    def flips(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        base = a2n + beta * beta
        cross = cross_coef * beta
        return (q_above_rows(eta * (base - cross) + nu, n_th),
                q_below_rows(eta * (base + cross) + nu, n_th))

    return flips


def _negated_step_error_batch(
    e_prev: np.ndarray,
    flips: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    table: tuple[np.ndarray, np.ndarray],
    rows: np.ndarray,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[int], np.ndarray]]:
    """``_negated_step_error`` for an array of e_prev, one beta per element.

    ``table`` holds ``flips`` on the coarse grid, one row per grid index
    and one column per distinct grid; element k reads column rows[k].
    """
    p_prev = 1.0 - e_prev
    false_table, missed_table = table

    def objective(beta: np.ndarray) -> np.ndarray:
        false_flip, missed_flip = flips(beta)
        return -(p_prev * false_flip + e_prev * missed_flip)

    def coarse_column(i: int) -> np.ndarray:
        return -(p_prev * false_table[i, rows] + e_prev * missed_table[i, rows])

    return objective, coarse_column


def _hybrid_error_batch(
    alpha: float, cfg: FeedForwardConfig, n_th: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Negated ``_hybrid_recursion`` error at every (tau, z) of a grid round.

    The per-copy beta searches of all grid points run in lockstep. A
    point's coarse beta grid depends on tau only, so the flip
    probabilities on it are tabulated once per distinct tau of the
    round. The values agree with the scalar recursion up to the last-bit
    differences between np.exp and math.exp, which the 1 - q0 tail of
    a threshold n_th >= 2 can raise to about 1e-16 absolute.
    """
    model, n = cfg.model, cfg.n_copies
    indices = np.arange(BETA_COARSE_POINTS)[:, None]

    def objective(tau: np.ndarray, z: np.ndarray) -> np.ndarray:
        errors = hl_sign_error(np.sqrt(np.maximum(0.0, 1.0 - tau)) * alpha, z, model)
        amplitude = np.sqrt(tau) * alpha
        hi = amplitude / math.sqrt(n) + BETA_MARGIN
        taus, rows = np.unique(tau, return_inverse=True)
        amplitudes = np.sqrt(taus) * alpha
        grid = coarse_abscissae(0.0, amplitudes / math.sqrt(n) + BETA_MARGIN, BETA_COARSE_POINTS)
        table = _flip_rows(amplitudes, n, model, n_th)(grid(indices))
        flips = _flip_rows(amplitude, n, model, n_th)
        for _ in range(n):
            step, coarse = _negated_step_error_batch(errors, flips, table, rows)
            _, negated = maximize_scalar_batch(step, 0.0, hi, BETA_COARSE_POINTS, BETA_TOL, coarse)
            errors = -negated
        return -errors

    return objective


def hffre_error(alpha: float, cfg: FeedForwardConfig) -> EvalResult:
    """Hybrid feed-forward receiver error probability, optimized over (tau, z).

    The search box is tau in [0, 1], z in [0, 5 + 4 alpha]; tau = 1 is a
    mandatory grid point, so up to optimizer tolerance the result never
    exceeds the DFFRE one. Each grid round is evaluated as one batch;
    the scalar recursion settles near-ties between its values, and the
    reported error, betas and trace come from it, so the result is the
    one a point-by-point scalar search gives.
    """
    alpha = _check_alpha(alpha)
    if cfg.receiver is not Receiver.HFFRE:
        raise ValueError("cfg.receiver must be Receiver.HFFRE")
    if alpha == 0.0:
        return _result(0.0, [0.5] * (cfg.n_copies + 1), (0.0,) * cfg.n_copies)

    spec = GridSearchSpec(
        bounds=((0.0, 1.0), (0.0, BETA_MARGIN + 4.0 * alpha)),
        points=(TAU_Z_POINTS, TAU_Z_POINTS),
        refinement_rounds=TAU_Z_ROUNDS,
        shrink_factor=TAU_Z_SHRINK,
        mandatory=((1.0, 0.0),),
    )
    best: dict[int, tuple[float, float]] = {}

    def scan_threshold(n_th: int) -> float:
        final_error: dict[tuple[float, float], float] = {}

        def exact(tau: float, z: float) -> float:
            # z acts only through e0, so the tau = 1 column (no tap) costs
            # one recursion per distinct rounding of e0 = 1/2
            e0 = _hybrid_initial_error(alpha, tau, z, cfg.model)
            if (tau, e0) not in final_error:
                amplitude = math.sqrt(tau) * alpha
                final_error[tau, e0] = _optimized_recursion(
                    amplitude, cfg.n_copies, cfg.model, n_th, e0)[0][-1]
            return -final_error[tau, e0]

        rtol = BATCH_RTOL_PER_COPY * cfg.n_copies
        atol = BATCH_ATOL_PER_COPY * cfg.n_copies if n_th > 1 else 0.0
        best[n_th], negated = maximize_grid_batch(
            _hybrid_error_batch(alpha, cfg, n_th), spec, exact, rtol, atol)
        return negated

    n_th, _ = scan_discrete(scan_threshold, _threshold_candidates(cfg.model))
    tau, z = best[n_th]
    return _result(alpha, *_hybrid_recursion(alpha, cfg, tau, z, n_th), n_th, tau, z)


def hffre_error_at(alpha: float, cfg: FeedForwardConfig, tau: float, z: float) -> EvalResult:
    """HFFRE evaluation at a fixed beam-splitter setting (betas and n_th still optimized)."""
    alpha = _check_alpha(alpha)
    if cfg.receiver is not Receiver.HFFRE:
        raise ValueError("cfg.receiver must be Receiver.HFFRE")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau!r}")
    if z < 0.0:
        raise ValueError(f"z must be >= 0, got {z!r}")
    if alpha == 0.0:
        return _result(0.0, [0.5] * (cfg.n_copies + 1), (0.0,) * cfg.n_copies)
    e0 = _hybrid_initial_error(alpha, tau, z, cfg.model)
    return _result(alpha, *_threshold_scan(math.sqrt(tau) * alpha, cfg, e0), tau, z)


def optimized_error(alpha: float, cfg: FeedForwardConfig) -> EvalResult:
    """Optimized error probability of the receiver ``cfg.receiver`` names."""
    if cfg.receiver is Receiver.HFFRE:
        return hffre_error(alpha, cfg)
    return dffre_error(alpha, cfg)


def switch_conditional_traces(
    alpha: float, betas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-hypothesis correct-inference traces of the switch model (ideal detectors).

    Returns (p00, p11): the probabilities of inferring "0" after j steps
    given "0" was sent, and "1" given "1", for j = 0..N. The switch
    starts in position "0", so p00[0] = 1 and p11[0] = 0. Both obey the
    same linear recursion as the average correct-decision trace, which
    therefore equals (p00 + p11) / 2.
    """
    alpha = _check_alpha(alpha)
    if len(betas) < 1:
        raise ValueError("betas must contain at least one amplitude")
    # Given "0" the switch starts right (e = 0), given "1" wrong (e = 1).
    return tuple(1.0 - np.array(_error_trace(e0, betas, alpha, len(betas), DetectorModel(1), 1))
                 for e0 in (0.0, 1.0))


def _saturation(rate: float, n_copies: int, resolution: int) -> float:
    # t = P(count >= M). Below the mode the tail is summed term by term,
    # since 1 - q0 cancels to 0 at small rates. The floor
    # 1 - [(-t)^N / 2 + (1 - (-t)^N) / (1 + t)] is rearranged so no
    # difference of nearly equal terms is left.
    if rate < resolution:
        term = math.exp(-rate)
        for s in range(resolution):
            term *= rate / (s + 1)
        t = 0.0
        k = resolution
        while term > 1e-20 * t:
            t += term
            k += 1
            term *= rate / k
    else:
        q0, _ = q_thresh(rate, resolution, resolution)
        t = 1.0 - q0
    return (t + (-t) ** n_copies * (1.0 - t) / 2.0) / (1.0 + t)


def saturation_dark(nu: float, n_copies: int, resolution: int) -> float:
    """High-energy error-probability floor induced by dark counts.

    Derived from the recursion with nulling displacements and threshold
    at the full resolution; independent of the signal energy.
    """
    if nu < 0.0:
        raise ValueError(f"nu must be >= 0, got {nu!r}")
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    return _saturation(nu, n_copies, resolution)


def saturation_visibility(xi: float, alpha: float, n_copies: int, resolution: int) -> float:
    """High-energy error probability under reduced visibility.

    Same functional form as the dark-count floor, at the residual rate
    2 alpha^2 (1 - xi) / N left by an imperfectly matched nulling
    displacement; increases with the signal energy.
    """
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must be in (0, 1], got {xi!r}")
    alpha = _check_alpha(alpha)
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    g = 2.0 * alpha * alpha * (1.0 - xi) / n_copies
    return _saturation(g, n_copies, resolution)


def ratio(p_err: float, alpha: float) -> float:
    """Error probability relative to the Helstrom bound."""
    return p_err / helstrom_bound(alpha)


def gain(p_err: float, alpha: float) -> float:
    """Fractional improvement over the SQL; nonnegative means the SQL is beaten."""
    return 1.0 - p_err / sql_error(alpha)
