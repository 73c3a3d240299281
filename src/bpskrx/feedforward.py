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
error and the copies carry sqrt(tau) alpha. The HL local-oscillator
amplitude z acts only through e(0), which runs from its minimum over z
(``photostatistics.hl_sign_minimum``) to 1/2 at z = 0; the step is
concave in the error it starts from, so the search is over tau alone,
with z at one of those two ends. A tau search takes e(0) at both ends
from one memo (``_hl_minimum``), and the recursion it runs sees only
(tau, e(0), n_th), not the HL stage. The tau grid always contains tau = 1,
where the DFFRE is recovered up to the rounding of e(0) = 1/2 (the HL
error of an untapped signal is 1/2 within 1e-15). The
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

from .baselines import helstrom_bound, sql_error
from .optimize import (
    GridSearchSpec,
    ScalarSearchSpec,
    _checked,
    coarse_abscissae,
    maximize_grid_searches,
    maximize_scalar,
    maximize_scalar_batch,
    scan_discrete,
)
from .photostatistics import (
    DetectorModel,
    _check_count,
    _check_rate,
    exp_rows,
    hl_sign_error,
    hl_sign_minimum,
    q_above_below_rows,
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


def _check_beta(beta: float, name: str = "beta") -> float:
    """beta as a float, if it is >= 0 and finite: the rule of every displacement, named ``name``."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {beta!r}")
    return float(beta)


def _check_tau(tau: float) -> None:
    """The rule of every tap transmissivity tau: in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau!r}")


def step_rates(beta: float, amplitude: float, n_copies: int, xi: float = 1.0) -> StepRates:
    """Rates of one displaced copy: amplitude^2/N + beta^2 +- 2 xi beta amplitude / sqrt(N).

    ``amplitude`` is the total signal amplitude feeding the splitter
    (alpha for the DFFRE, sqrt(tau) * alpha for the HFFRE); each copy
    carries amplitude / sqrt(N). With xi = 1 the rates reduce to
    |beta +- amplitude / sqrt(N)|^2.
    """
    _check_beta(beta)
    amplitude = _check_rate(amplitude, "amplitude")
    n_copies = _check_count("n_copies", n_copies)
    # eta = 1 and nu = 0 leave the rates exact: none of them is -0.0
    rate_minus, rate_plus = _copy_rates(amplitude, n_copies, DetectorModel(1, xi=xi))(beta)
    return StepRates(rate_plus, rate_minus)


def _rate_coefficients(amplitude, n_copies: int, model: DetectorModel):
    """(a2n, cross_coef) of a copy: its rates at displacement beta are eta (base -+ cross) + nu,
    with base = a2n + beta^2 and cross = cross_coef * beta."""
    return amplitude * amplitude / n_copies, 2.0 * model.xi * amplitude / math.sqrt(n_copies)


def _copy_rates(amplitude, n_copies: int,
                model: DetectorModel) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """beta -> (rate_minus, rate_plus) of a copy displaced by beta, in the step objective's
    operations; floats or arrays, with beta broadcasting against amplitude."""
    a2n, cross_coef = _rate_coefficients(amplitude, n_copies, model)
    eta, nu = model.eta, model.nu

    def rates(beta):
        base = a2n + beta * beta
        cross = cross_coef * beta
        return eta * (base - cross) + nu, eta * (base + cross) + nu

    return rates


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
    objective's, and Q0 at threshold t is the running sum of the first t
    Poisson terms, the term recurrence of ``_pnr_rows`` summed in the
    order of ``q_thresh``, clamped to 1: the values equal the objective's
    flips bit for bit. Row 0 is the on/off pair (-expm1(-rate_minus),
    exp(-rate_plus)), unclamped; at resolution 1 it is the whole table.
    The rates are the recursion's own and are taken as given, as the
    objective takes them: a rate rounded below 0 at a nulling displacement
    gives its flips at every threshold, and a NaN rate a NaN flip, which
    the search rejects as a non-finite value at its abscissa.
    """
    rates = np.stack(_copy_rates(amplitude, n_copies, model)(np.array(spec.coarse_grid())))
    size = rates.shape[1]
    false_flip = np.empty((resolution, size))
    false_flip[0] = -np.fromiter(map(math.expm1, (-rates[0]).tolist()), float, size)
    if resolution == 1:
        return false_flip, exp_rows(-rates[1])[None]
    # below[t] holds Q0 at threshold t + 1 of (rate_minus, rate_plus)
    below = np.empty((resolution, 2, size))
    below[0] = term = exp_rows(-rates.ravel()).reshape(2, size)
    for n in range(1, resolution):
        term = term * (rates / n)
        np.add(below[n - 1], term, out=below[n])
    np.minimum(below[1:], 1.0, out=below[1:])
    np.subtract(1.0, below[1:, 0], out=false_flip[1:])
    return false_flip, below[:, 1]


def _step_objective(amplitude: float, n_copies: int, model: DetectorModel,
                    n_th: int) -> Callable[[float], Callable[[float], float]]:
    """The recursion's one step, negated, as a function of the error it starts from.

    step(e_prev) is beta -> -e', where e' = (1 - e_prev) F + e_prev M is
    the error after one more copy displaced by beta, with F = Q1(rate_minus)
    and M = Q0(rate_plus) as in ``_flip_tables``. It is negated so the
    maximizers can be reused for minimization. The threshold is checked
    here, by q_thresh itself; the rates, which the step computes, are taken
    as given.

    The closures are Python floats in math arithmetic, for the scalar
    searches: at n_th >= 2 one call runs ``q_thresh``'s partial-sum loop for
    both rates, with a clamp to 1 that lets a NaN through, so a NaN rate
    gives a NaN value, which the searches and ``_error_trace`` reject. The
    lockstep searches step with ``_coarse_step`` over ``_flips`` instead, in
    numpy arithmetic, whose np.exp may differ from math.exp in the last bit.
    """
    q_thresh(0.0, n_th, model.resolution)  # its check of the threshold
    a2n, cross_coef = _rate_coefficients(amplitude, n_copies, model)
    # Python floats throughout, as q_thresh's float(x) gave them
    a2n, cross_coef = float(a2n), float(cross_coef)
    eta, nu = float(model.eta), float(model.nu)
    exp, expm1 = math.exp, math.expm1
    # Both closures write out _copy_rates' formula, its only other copy: a call
    # per beta made millisecond DFFRE points 6-16% slower

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
    divisors = tuple(float(s) for s in range(1, n_th))

    def threshold(e_prev: float) -> Callable[[float], float]:
        p_prev = 1.0 - e_prev

        def at(beta: float) -> float:
            base = a2n + beta * beta
            cross = cross_coef * beta
            x = eta * (base - cross) + nu
            y = eta * (base + cross) + nu
            # q_thresh's partial sums at x and at y in one loop, clamped to 1
            term_x = below_x = exp(-x)
            term_y = below_y = exp(-y)
            for divisor in divisors:
                term_x *= x / divisor
                below_x += term_x
                term_y *= y / divisor
                below_y += term_y
            # clamped as q_thresh clamps, except that a NaN passes
            return -(p_prev * (1.0 - (1.0 if below_x > 1.0 else below_x))
                     + e_prev * (1.0 if below_y > 1.0 else below_y))

        return at

    return threshold


def _coarse_step(e_prev, false_flip: np.ndarray, missed_flip: np.ndarray) -> np.ndarray:
    """The step objective at e_prev from flip probabilities: -(p F + e M) elementwise.

    Each operation is one IEEE operation as in the objective, so the values
    equal it bit for bit at equal F and M, the sign of a zero included. The
    scalar searches pass a float e_prev and one threshold's ``_flip_tables``
    row; the lockstep takes every value from it over ``_flips``, an e_prev
    of shape (elements, 1) and one table row each in its coarse blocks, one
    e_prev and one beta per element in its golden-section steps.
    """
    values = false_flip * (1.0 - e_prev)
    values += missed_flip * e_prev
    return np.negative(values, out=values)


def _error_trace(e_initial: float, betas: Sequence[float], amplitude: float, n_copies: int,
                 model: DetectorModel, n_th: int) -> list[float]:
    """Error trace e_0..e_N of the recursion's step at fixed displacements.

    Each step's value is checked as the searches check it: the first that
    is not finite (a NaN rate, where the rates overflow) raises a
    ValueError naming its displacement, at every threshold.
    """
    amplitude = _check_rate(amplitude, "amplitude")
    step = _step_objective(amplitude, n_copies, model, n_th)
    errors = [e_initial]
    for beta in betas:
        errors.append(-_checked(step(errors[-1]), _check_beta(beta), "beta"))
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
    alpha = _check_rate(alpha, "alpha")
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
    alpha = _check_rate(alpha, "alpha")
    if cfg.receiver is not Receiver.DFFRE:
        raise ValueError("cfg.receiver must be Receiver.DFFRE")
    if alpha == 0.0:
        return _result(0.0, [0.5] * (cfg.n_copies + 1), (0.0,) * cfg.n_copies)
    return _result(alpha, *_threshold_scan(alpha, cfg, 0.5, _threshold_candidates(cfg.model)))


def _hybrid_at(alpha: float, cfg: FeedForwardConfig, tau: float, z: float,
               candidates: Sequence[int]) -> EvalResult:
    """The HFFRE at a fixed (tau, z): the recursion from the HL pre-measurement
    error, at amplitude sqrt(tau) alpha and the best of ``candidates``."""
    e0 = float(hl_sign_error(_tap_amplitude(alpha, np.array([tau])), np.array([z]), cfg.model)[0])
    return _result(alpha, *_threshold_scan(math.sqrt(tau) * alpha, cfg, e0, candidates), tau, z)


def _flips(amplitude: np.ndarray, n_copies: int, model: DetectorModel,
           n_th) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """beta -> (F, M) of the lockstep's step, element by element, at threshold n_th: one
    threshold, or one per row (the first axis) in non-decreasing order; beta broadcasts against
    amplitude. The thresholds come from ``_threshold_candidates`` and the rates from the
    recursion, so both are taken as given. The threshold suffixes (``q_above_below_rows``) and
    rate coefficients (``_copy_rates``) are formed once, for every beta. The flips are
    ``q_thresh``'s in np.exp arithmetic, which may differ from math.exp in the last bit."""
    flips, rates = q_above_below_rows(n_th), _copy_rates(amplitude, n_copies, model)
    return lambda beta: flips(*rates(beta))


def _hybrid_error_batch(
    alpha: float, cfg: FeedForwardConfig, candidates: Sequence[int]
) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray],
           Callable[[float, float, int], tuple[list[float], tuple[float, ...], int]]]:
    """(objective, run) of the HFFRE's tau rounds at the ascending click thresholds ``candidates``.

    objective(tau, e0) is the negated HFFRE error of a round, in the shape
    of e0. tau holds one row of points per threshold, row k at
    ``candidates[k]``, and sets the copies' amplitude sqrt(tau) alpha; e0,
    of shape (thresholds, points, ends), holds the errors each point's
    recursions start from, one per end of its HL stage. The per-copy beta
    searches of every element run in lockstep, and every value they see
    is ``_coarse_step`` over ``_flips``: each golden-section step takes
    the flips of all elements at their betas from one cumulative Poisson
    pass. An element's coarse beta grid depends on tau only, so the flip
    probabilities on it are tabulated once per point, one row shared by
    its ends; a block of elements reads its coarse rows with one gather.
    The lockstep values agree with the scalar recursion up to the last-bit
    differences between np.exp and math.exp, which the 1 - q0 tail of a
    threshold n_th >= 2 can raise to about 1e-16 absolute, so within each
    threshold's row every value within the window of that row's best is
    replaced by the scalar recursion's from the element's own e0. Each
    row's first maximum is then a point-by-point search's at its threshold.

    run(tau, e0, n_th) is that scalar recursion, ``_threshold_scan`` at
    n_th alone: (error trace e_0..e_N, betas, n_th), memoised on
    (tau, e0, n_th), so the run that settled a value also reports it.
    """
    model, n = cfg.model, cfg.n_copies
    indices = np.arange(BETA_COARSE_POINTS)
    relative = BATCH_RTOL_PER_COPY * n
    runs: dict[tuple[float, float, int], tuple[list[float], tuple[float, ...], int]] = {}

    def run(tau: float, e0: float, n_th: int) -> tuple[list[float], tuple[float, ...], int]:
        if (tau, e0, n_th) not in runs:
            runs[tau, e0, n_th] = _threshold_scan(math.sqrt(tau) * alpha, cfg, e0, (n_th,))
        return runs[tau, e0, n_th]

    def objective(tau: np.ndarray, e0: np.ndarray) -> np.ndarray:
        points, ends = e0.shape[1:]
        # one table row per point, one column per coarse grid index
        amplitudes = np.sqrt(tau).reshape(-1, 1) * alpha
        grid = coarse_abscissae(0.0, _beta_hi(amplitudes, n), BETA_COARSE_POINTS)
        false_table, missed_table = _flips(amplitudes, n, model,
                                           np.repeat(candidates, points))(grid(indices))
        # element k, end k % ends of point k // ends, reads row rows[k]
        rows = np.repeat(np.arange(tau.size), ends)
        amplitude = amplitudes[rows, 0]
        flips = _flips(amplitude, n, model, np.repeat(candidates, points * ends))
        beta_hi = _beta_hi(amplitude, n)
        errors = e0.ravel()
        for _ in range(n):
            def step(beta: np.ndarray) -> np.ndarray:
                return _coarse_step(errors, *flips(beta))

            def coarse(block: slice) -> np.ndarray:  # element k reads row rows[k]
                r = rows[block]
                return _coarse_step(errors[block, None], false_table[r], missed_table[r])

            _, negated = maximize_scalar_batch(step, 0.0, beta_hi, BETA_COARSE_POINTS,
                                               BETA_TOL, coarse)
            errors = -negated
        values = -errors.reshape(e0.shape)
        for t, row, row_tau, row_e0 in zip(candidates, values, tau.tolist(), e0.tolist()):
            top = float(row.max())
            absolute = BATCH_ATOL_PER_COPY * n if t > 1 else 0.0
            near = np.argwhere(row >= top - (relative * abs(top) + absolute)).tolist()
            for p, end in near:
                row[p, end] = -run(row_tau[p], row_e0[p][end], t)[0][-1]
        return values

    return objective, run


def _oscillator_hi(alpha: float) -> float:
    """Upper end of the HL local-oscillator box, 5 + 4 alpha."""
    return BETA_MARGIN + 4.0 * alpha


# The tau search of both hybrid receivers: 41 points, with the no-tap
# point tau = 1 always searched, then rounds on an interval shrunk 8-fold
# each. A round of the HFFRE is 82 lockstep elements per threshold, and
# four rounds leave a tau spacing of 6.1e-6, which at flat optima costs
# up to about 4e-11 of p_err, relative; so there is a fifth.
TAU_SPEC = GridSearchSpec(0.0, 1.0, points=41, refinement_rounds=5, shrink_factor=8.0,
                          mandatory=(1.0,))


def _tap_amplitude(alpha: float, tau: np.ndarray) -> np.ndarray:
    """sqrt(1 - tau) alpha: what a tap of transmissivity tau reflects to the HL stage."""
    return np.sqrt(np.maximum(0.0, 1.0 - tau)) * alpha


def _hl_minimum(alpha: float, model: DetectorModel) -> Callable[[np.ndarray], np.ndarray]:
    """tau -> (z*, e0 at z*, e0 at z = 0), each of the shape of tau, memoised by tau: the
    local oscillator in [0, 5 + 4 alpha] where the HL error e0 is smallest (``hl_sign_minimum``)
    and e0 at both ends, the one source of e0 for the tau searches of both hybrid receivers.

    Each call evaluates only the taus it has not seen yet, in one ``hl_sign_minimum`` call,
    whose scan starts at z = 0; a tau's values depend on that tau alone, and both e0 equal
    ``hl_sign_error`` at their (tau, z) bit for bit, the same kernel on the same amplitude
    and z. At tau = 1 nothing is reflected, and z* = 0.
    """
    z_hi = _oscillator_hi(alpha)
    memo: dict[float, tuple[float, float, float]] = {}

    def minimum(tau: np.ndarray) -> np.ndarray:
        taus = tau.ravel().tolist()
        new = list(dict.fromkeys(t for t in taus if t not in memo))
        if new:
            z, e0, at_zero = hl_sign_minimum(_tap_amplitude(alpha, np.array(new)), z_hi, model)
            memo.update(zip(new, zip(z.tolist(), e0.tolist(), at_zero.tolist())))
        return np.moveaxis(np.array([memo[t] for t in taus]).reshape(*tau.shape, 3), -1, 0)

    return minimum


def hffre_error(alpha: float, cfg: FeedForwardConfig) -> EvalResult:
    """Hybrid feed-forward receiver error probability, optimized over (tau, z, n_th).

    z acts only through the HL error e0, which runs from its minimum over
    z, at z*(tau), to 1/2 at z = 0 (both from ``_hl_minimum``). Each
    copy's step is concave in the error it starts from, so wherever e_N
    is concave in e0 its minimum over z lies at one of these two ends.
    The search is over tau alone (``TAU_SPEC``), with each tau evaluated
    at (tau, z*(tau)) and at (tau, 0); ties keep z*. tau = 1 is always
    searched, so the result never exceeds the DFFRE one by more than
    optimizer tolerance and the rounding of e0 = 1/2 there.

    Every click threshold runs its own tau search, and the searches
    advance in lockstep (``maximize_grid_searches``, one search per
    threshold): each round takes z* and both e0 from ``_hl_minimum``, which
    searches only the taus no earlier round saw, and evaluates every
    threshold's points at both ends in one lockstep batch
    (``_hybrid_error_batch``), which settles each threshold's near-ties
    with the scalar recursion. The threshold is the first maximum over
    the per-threshold optima, so ties keep the smaller n_th. The reported
    error, betas and trace are the scalar run that settled the chosen
    point's value, from the (tau, e0) of its winning end, so the result is
    the one a point-by-point scalar search of these settings gives.
    """
    alpha = _check_rate(alpha, "alpha")
    if cfg.receiver is not Receiver.HFFRE:
        raise ValueError("cfg.receiver must be Receiver.HFFRE")
    if alpha == 0.0:
        return _result(0.0, [0.5] * (cfg.n_copies + 1), (0.0,) * cfg.n_copies)

    candidates = _threshold_candidates(cfg.model)
    minimum = _hl_minimum(alpha, cfg.model)
    batch, run = _hybrid_error_batch(alpha, cfg, candidates)
    # per threshold, tau -> (z, e0) of the end its latest value came from
    ends: list[dict[float, tuple[float, float]]] = [{} for _ in candidates]

    def objective(tau: np.ndarray) -> np.ndarray:
        # tau holds one row of points per threshold; each point is evaluated
        # at z* and at z = 0, the two ends of its e0
        z, e0_min, e0_zero = minimum(tau)
        values = batch(tau, np.stack((e0_min, e0_zero), axis=-1))
        at_min, at_half = values[..., 0], values[..., 1]
        half = at_half > at_min
        for found, row, z_row, e0_row in zip(ends, tau.tolist(), np.where(half, 0.0, z).tolist(),
                                             np.where(half, e0_zero, e0_min).tolist()):
            found.update(zip(row, zip(z_row, e0_row)))
        return np.where(half, at_half, at_min)

    optima = maximize_grid_searches(objective, TAU_SPEC, len(candidates))
    # the first maximum: ties keep the smaller threshold
    k = int(np.argmax([negated for _, negated in optima]))
    tau, _ = optima[k]
    z, e0 = ends[k][tau]
    return _result(alpha, *run(tau, e0, candidates[k]), tau, z)


def hffre_error_at(alpha: float, cfg: FeedForwardConfig, tau: float, z: float) -> EvalResult:
    """HFFRE evaluation at a fixed beam-splitter setting (betas and n_th still optimized)."""
    alpha = _check_rate(alpha, "alpha")
    if cfg.receiver is not Receiver.HFFRE:
        raise ValueError("cfg.receiver must be Receiver.HFFRE")
    _check_tau(tau)
    z = _check_rate(z, "z")
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
    alpha = _check_rate(alpha, "alpha")
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
    DetectorModel(1, xi=xi)  # its check of xi
    alpha = _check_rate(alpha, "alpha")
    n_copies = _check_count("n_copies", n_copies)
    g = 2.0 * alpha * alpha * (1.0 - xi) / n_copies
    return _saturation(g, n_copies, _check_count("resolution", resolution))


def ratio(p_err: float, alpha: float) -> float:
    """Error probability relative to the Helstrom bound."""
    return p_err / helstrom_bound(alpha)


def gain(p_err: float, alpha: float) -> float:
    """Fractional improvement over the SQL; nonnegative means the SQL is beaten."""
    return 1.0 - p_err / sql_error(alpha)
