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
contains tau = 1, where the DFFRE is recovered up to the rounding of
e(0) = 1/2 (the HL error of an untapped signal is 1/2 within 1e-15).
The switch-conditional traces start at e(0) = 0 and 1.

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

from .baselines import _check_alpha, _pre_measurement_error, helstrom_bound, sql_error
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
    _check_count,
    _check_rate,
    hl_difference_pmf,
    q_above_below,
    q_above_below_table,
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
# Per copy, the window within which _hybrid_error_batch settles its values
# with the scalar recursion: twice the batch/scalar difference allowed,
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
        object.__setattr__(self, "n_copies", _check_count("n_copies", self.n_copies))
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
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be >= 0 and finite, got {beta!r}")
    amplitude = _check_rate(amplitude, "amplitude")  # _check_alpha's rule, under its own name
    n_copies = _check_count("n_copies", n_copies)
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must be in (0, 1], got {xi!r}")
    base = amplitude * amplitude / n_copies + beta * beta
    cross = 2.0 * xi * amplitude / math.sqrt(n_copies) * beta
    return StepRates(base + cross, base - cross)


def _rate_coefficients(amplitude, n_copies: int, model: DetectorModel):
    """(a2n, cross_coef) of a copy: its rates at displacement beta are eta (base -+ cross) + nu,
    with base = a2n + beta^2 and cross = cross_coef * beta."""
    return amplitude * amplitude / n_copies, 2.0 * model.xi * amplitude / math.sqrt(n_copies)


def _beta_hi(amplitude, n_copies: int):
    """Upper end of the per-copy beta search, amplitude / sqrt(N) + 5; amplitude may be an array."""
    return amplitude / math.sqrt(n_copies) + BETA_MARGIN


def _flip_tables(amplitude: float, n_copies: int, model: DetectorModel, resolution: int,
                 spec: ScalarSearchSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-copy switch flip probabilities on the coarse beta grid, at thresholds 1..resolution.

    Returns (false_flip, missed_flip) = (Q1(rate_minus), Q0(rate_plus)):
    the probability that a copy flips a correct switch, and that it fails
    to flip a wrong one, one row per threshold 1..resolution and one
    column per grid point. Neither depends on the switch's error
    probability, so one table serves every copy of a recursion, and its
    rows serve the recursions of every threshold. The rates are the step
    objective's, so the values equal its flip probabilities bit for bit.
    """
    a2n, cross_coef = _rate_coefficients(amplitude, n_copies, model)
    beta = np.array(spec.coarse_grid())
    base = a2n + beta * beta
    cross = cross_coef * beta
    return q_above_below_table(model.eta * (base - cross) + model.nu,
                               model.eta * (base + cross) + model.nu, resolution)


def _step_objective(amplitude, n_copies: int, model: DetectorModel,
                    n_th: int) -> Callable[[float], Callable[[float], float]]:
    """The recursion's one step, negated, as a function of the error it starts from.

    step(e_prev) is beta -> -e', where e' = (1 - e_prev) F + e_prev M is
    the error after one more copy displaced by beta, with F = Q1(rate_minus)
    and M = Q0(rate_plus) as in ``_flip_tables``. It is negated so the
    maximizers can be reused for minimization. The threshold is checked
    here, as q_thresh checks it (1.0 and True are no thresholds).

    The amplitude's type selects the arithmetic: a float gives Python-float
    closures in math arithmetic for the scalar searches (at n_th >= 2 their
    kernel checks each rate in line), an array the same closures in numpy
    arithmetic, element by element, for the lockstep searches (e_prev holds
    one error per element, and beta broadcasts against amplitude). Both
    take the same IEEE operations in the same order; np.exp and math.exp
    may still differ in the last bit.
    """
    if n_th == 1:
        _check_count("n_th", n_th)
    else:
        q_thresh(0.0, n_th, model.resolution)
    a2n, cross_coef = _rate_coefficients(amplitude, n_copies, model)
    eta, nu = float(model.eta), float(model.nu)
    if isinstance(amplitude, np.ndarray):
        exp, expm1 = np.exp, np.expm1

        def flips(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return q_above_rows(x, n_th), q_below_rows(y, n_th)
    else:
        # Python floats throughout, as q_thresh's float(x) gave them
        a2n, cross_coef = float(a2n), float(cross_coef)
        exp, expm1 = math.exp, math.expm1
        flips = q_above_below(n_th) if n_th > 1 else None

    def on_off(e_prev: float) -> Callable[[float], float]:
        p_prev = 1.0 - e_prev

        def at(beta: float) -> float:
            base = a2n + beta * beta
            cross = cross_coef * beta
            # F = -expm1(-rate_minus) and M = exp(-rate_plus), so -(p F + e M)
            # is -(e M - p expm1(-rate_minus)): only signs move, which is
            # exact, and negating the difference keeps the sign of a zero
            return -(e_prev * exp(-(eta * (base + cross) + nu))
                     - p_prev * expm1(-(eta * (base - cross) + nu)))

        return at

    if n_th == 1:
        return on_off

    def threshold(e_prev: float) -> Callable[[float], float]:
        p_prev = 1.0 - e_prev

        def at(beta: float) -> float:
            base = a2n + beta * beta
            cross = cross_coef * beta
            false_flip, missed_flip = flips(eta * (base - cross) + nu, eta * (base + cross) + nu)
            return -(p_prev * false_flip + e_prev * missed_flip)

        return at

    return threshold


def _coarse_step(e_prev, false_flip: np.ndarray, missed_flip: np.ndarray) -> np.ndarray:
    """The step objective at e_prev on the coarse grid, from one threshold's table rows.

    -(p F + e M) elementwise, each operation one IEEE operation as in the
    objective, so the values equal it bit for bit, the sign of a zero
    included. The scalar searches pass a float e_prev and one row, the
    lockstep blocks an e_prev of shape (elements, 1) and one row each.
    """
    values = false_flip * (1.0 - e_prev)
    values += missed_flip * e_prev
    return np.negative(values, out=values)


def _error_trace(e_initial: float, betas: Sequence[float], amplitude: float, n_copies: int,
                 model: DetectorModel, n_th: int) -> list[float]:
    """Error trace e_0..e_N of the recursion's step at fixed displacements."""
    amplitude = _check_rate(amplitude, "amplitude")  # _check_alpha's rule, under its own name
    step = _step_objective(amplitude, n_copies, model, n_th)
    errors = [e_initial]
    for beta in betas:
        if not 0.0 <= beta < math.inf:
            raise ValueError(f"beta must be >= 0 and finite, got {beta!r}")
        errors.append(-step(errors[-1])(float(beta)))
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
    n_copies = _check_count("n_copies", n_copies)
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
    if not 0.0 <= p_initial <= 1.0:
        raise ValueError(f"p_initial must be in [0, 1], got {p_initial!r}")
    amplitude = alpha if amplitude is None else amplitude
    errors = _error_trace(1.0 - p_initial, betas, amplitude, len(betas), model, n_th)
    return tuple(1.0 - e for e in errors)


def _greedy_recursion(spec: ScalarSearchSpec, step: Callable[[float], Callable[[float], float]],
                      false_flip: np.ndarray, missed_flip: np.ndarray, n_copies: int,
                      e_initial: float) -> tuple[list[float], tuple[float, ...]]:
    """Greedy per-step displacement optimization in error space: (errors e_0..e_N, betas).

    Each copy searches ``step(e_prev)`` on ``spec``, seeded with the
    objective on the coarse grid from one threshold's rows of
    ``_flip_tables``. Each copy's objective depends on the copy only
    through e_prev, the error it starts from. A copy that ends where it
    started (e_j == e_{j-1}) is a fixed point: every later copy starts
    from that same float, so its search would repeat this one exactly,
    and its (beta, error) is reused instead of searched.
    """
    errors = [e_initial]
    betas: list[float] = []
    while len(betas) < n_copies:
        e_prev = errors[-1]
        beta, negated = maximize_scalar(step(e_prev), spec,
                                        _coarse_step(e_prev, false_flip, missed_flip))
        # at a fixed point every later copy would repeat this search
        repeats = n_copies - len(betas) if -negated == e_prev else 1
        betas += [beta] * repeats
        errors += [-negated] * repeats
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


def _threshold_scan(amplitude: float, cfg: FeedForwardConfig, e_initial: float,
                    candidates: Sequence[int]) -> tuple[list[float], tuple[float, ...], int]:
    """The greedy recursion at the best of the ascending click thresholds
    ``candidates``: (error trace e_0..e_N, betas, n_th).

    Every receiver enters the recursion here. The search spec, its
    coarse beta grid and the flip probabilities on that grid depend on
    the amplitude and N only, not on the copy or the threshold: one pass
    of ``_flip_tables`` gives every candidate's rows, the same floats a
    table of that threshold alone holds, so each copy's search sees the
    floats it would compute itself.
    """
    model, n = cfg.model, cfg.n_copies
    spec = ScalarSearchSpec(0.0, _beta_hi(amplitude, n), BETA_COARSE_POINTS, BETA_TOL)
    false_flip, missed_flip = _flip_tables(amplitude, n, model, candidates[-1], spec)
    runs: dict[int, tuple[list[float], tuple[float, ...]]] = {}

    def negated_error(n_th: int) -> float:
        runs[n_th] = _greedy_recursion(spec, _step_objective(amplitude, n, model, n_th),
                                       false_flip[n_th - 1], missed_flip[n_th - 1], n, e_initial)
        return -runs[n_th][0][-1]

    n_th, _ = scan_discrete(negated_error, candidates)
    return (*runs[n_th], n_th)


def dffre_error(alpha: float, cfg: FeedForwardConfig) -> EvalResult:
    """Optimized displacement feed-forward receiver error probability."""
    alpha = _check_alpha(alpha)
    if cfg.receiver is not Receiver.DFFRE:
        raise ValueError("cfg.receiver must be Receiver.DFFRE")
    if alpha == 0.0:
        return _result(0.0, [0.5] * (cfg.n_copies + 1), (0.0,) * cfg.n_copies)
    return _result(alpha, *_threshold_scan(alpha, cfg, 0.5, _threshold_candidates(cfg.model)))


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


def _hybrid_at(alpha: float, cfg: FeedForwardConfig, tau: float, z: float,
               candidates: Sequence[int]) -> EvalResult:
    """The HFFRE at a fixed (tau, z): the recursion from the HL pre-measurement
    error, at amplitude sqrt(tau) alpha and the best of ``candidates``."""
    e0 = _hybrid_initial_error(alpha, tau, z, cfg.model)
    return _result(alpha, *_threshold_scan(math.sqrt(tau) * alpha, cfg, e0, candidates), tau, z)


def _flips(amplitude: np.ndarray, n_copies: int, model: DetectorModel, n_th: int,
           beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, M) of the array step objective at threshold n_th, element by element;
    beta broadcasts against amplitude. The values equal the objective's flips bit for bit."""
    a2n, cross_coef = _rate_coefficients(amplitude, n_copies, model)
    base = a2n + beta * beta
    cross = cross_coef * beta
    return (q_above_rows(model.eta * (base - cross) + model.nu, n_th),
            q_below_rows(model.eta * (base + cross) + model.nu, n_th))


def _hybrid_error_batch(
    alpha: float, cfg: FeedForwardConfig, n_th: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Negated HFFRE error at click threshold n_th at every (tau, z) of a grid round.

    The per-copy beta searches of all grid points run in lockstep, on
    the array step of ``_step_objective``. A point's coarse beta grid
    depends on tau only, so the flip probabilities on it are tabulated
    once per distinct tau of the round (``_flips``), one row per tau; a
    block of points reads its coarse rows with one gather and forms its
    coarse values with ``_coarse_step``. The lockstep values agree with
    the scalar recursion up to the last-bit differences between np.exp
    and math.exp, which the 1 - q0 tail of a threshold n_th >= 2 can
    raise to about 1e-16 absolute, so every value within the window of
    the round's best is replaced by the scalar recursion's
    (``_threshold_scan`` at n_th alone), from the point's own e0
    (``hl_sign_error`` gives it bit for bit as ``_hybrid_initial_error``
    does). The round's first maximum is then a point-by-point search's.
    z acts only through e0, so the scalar runs are memoised on (tau, e0).
    """
    model, n = cfg.model, cfg.n_copies
    indices = np.arange(BETA_COARSE_POINTS)
    relative = BATCH_RTOL_PER_COPY * n
    absolute = BATCH_ATOL_PER_COPY * n if n_th > 1 else 0.0
    settled: dict[tuple[float, float], float] = {}

    def objective(tau: np.ndarray, z: np.ndarray) -> np.ndarray:
        e0 = _pre_measurement_error(alpha, tau, z, model)
        amplitude = np.sqrt(tau) * alpha
        hi = _beta_hi(amplitude, n)
        taus, rows = np.unique(tau, return_inverse=True)
        amplitudes = np.sqrt(taus)[:, None] * alpha
        grid = coarse_abscissae(0.0, _beta_hi(amplitudes, n), BETA_COARSE_POINTS)
        # one row per distinct tau, one column per coarse grid index
        false_table, missed_table = _flips(amplitudes, n, model, n_th, grid(indices))
        step = _step_objective(amplitude, n, model, n_th)
        errors = e0
        for _ in range(n):
            def coarse(block: slice) -> np.ndarray:  # element k reads row rows[k]
                r = rows[block]
                return _coarse_step(errors[block, None], false_table[r], missed_table[r])

            _, negated = maximize_scalar_batch(step(errors), 0.0, hi, BETA_COARSE_POINTS, BETA_TOL,
                                               coarse)
            errors = -negated
        values = -errors
        top = float(values.max())
        for i in np.flatnonzero(values >= top - (relative * abs(top) + absolute)).tolist():
            key = float(tau[i]), float(e0[i])
            if key not in settled:
                settled[key] = -_threshold_scan(math.sqrt(key[0]) * alpha, cfg, key[1],
                                                (n_th,))[0][-1]
            values[i] = settled[key]
        return values

    return objective


def _tau_z_spec(alpha: float) -> GridSearchSpec:
    """The (tau, z) search box of the hybrid receivers: tau in [0, 1],
    z in [0, 5 + 4 alpha], with the no-tap point tau = 1 always searched."""
    return GridSearchSpec(
        bounds=((0.0, 1.0), (0.0, BETA_MARGIN + 4.0 * alpha)),
        points=(TAU_Z_POINTS, TAU_Z_POINTS),
        refinement_rounds=TAU_Z_ROUNDS,
        shrink_factor=TAU_Z_SHRINK,
        mandatory=((1.0, 0.0),),
    )


def hffre_error(alpha: float, cfg: FeedForwardConfig) -> EvalResult:
    """Hybrid feed-forward receiver error probability, optimized over (tau, z).

    The search box is tau in [0, 1], z in [0, 5 + 4 alpha]; tau = 1 is a
    mandatory grid point, so the result never exceeds the DFFRE one by
    more than optimizer tolerance and the rounding of e0 = 1/2 there.
    Each grid round is evaluated as one batch, whose objective
    (``_hybrid_error_batch``) settles its own near-ties with the scalar
    recursion; the box search just takes the first maximum. The reported
    error, betas and trace come from the scalar recursion at the chosen
    point, so the result is the one a point-by-point scalar search gives.
    """
    alpha = _check_alpha(alpha)
    if cfg.receiver is not Receiver.HFFRE:
        raise ValueError("cfg.receiver must be Receiver.HFFRE")
    if alpha == 0.0:
        return _result(0.0, [0.5] * (cfg.n_copies + 1), (0.0,) * cfg.n_copies)

    spec = _tau_z_spec(alpha)
    best: dict[int, tuple[float, float]] = {}

    def scan_threshold(n_th: int) -> float:
        best[n_th], negated = maximize_grid_batch(_hybrid_error_batch(alpha, cfg, n_th), spec)
        return negated

    n_th, _ = scan_discrete(scan_threshold, _threshold_candidates(cfg.model))
    return _hybrid_at(alpha, cfg, *best[n_th], (n_th,))


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
    return _hybrid_at(alpha, cfg, tau, z, _threshold_candidates(cfg.model))


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
    DetectorModel(1, nu=nu)  # its check of nu: finite and >= 0
    n_copies = _check_count("n_copies", n_copies)
    return _saturation(nu, n_copies, _check_count("resolution", resolution))


def saturation_visibility(xi: float, alpha: float, n_copies: int, resolution: int) -> float:
    """High-energy error probability under reduced visibility.

    Same functional form as the dark-count floor, at the residual rate
    2 alpha^2 (1 - xi) / N left by an imperfectly matched nulling
    displacement; increases with the signal energy.
    """
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must be in (0, 1], got {xi!r}")
    alpha = _check_alpha(alpha)
    n_copies = _check_count("n_copies", n_copies)
    g = 2.0 * alpha * alpha * (1.0 - xi) / n_copies
    return _saturation(g, n_copies, _check_count("resolution", resolution))


def ratio(p_err: float, alpha: float) -> float:
    """Error probability relative to the Helstrom bound."""
    return p_err / helstrom_bound(alpha)


def gain(p_err: float, alpha: float) -> float:
    """Fractional improvement over the SQL; nonnegative means the SQL is beaten."""
    return 1.0 - p_err / sql_error(alpha)
