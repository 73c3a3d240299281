"""Independent evaluator for the benchmark's output checks.

Everything here is written from the physics, not from ``bpskrx``: it
imports nothing from the package. Given the parameters a receiver
reports (tau, z, betas, n_th), it recomputes the error probability with

* truncated-Poisson PMFs whose tails are summed directly, never formed
  as ``1 - partial sum``;
* the homodyne-like (HL) wrong-side mass, summed from the joint PMF of
  the two PNR(M) outcomes on both sides of Delta = 0;
* the N-step error-space recursion with threshold probabilities.

Along with each value it carries a first-order bound on the rounding
error the program's own double-precision arithmetic can make on the
same parameters (see ``RecursionValue``). Checks compare the program
against the evaluator within that bound, so a program that computes
more accurately than today (for instance with the threshold tail summed
directly) passes as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

EPS = 2.0**-52
# Below the normal range a double holds an absolute, not a relative,
# precision; values there are compared with this absolute allowance.
SUBNORMAL_ALLOWANCE = 2.0**-1022


@dataclass(frozen=True)
class Detector:
    resolution: int
    eta: float = 1.0
    nu: float = 0.0
    xi: float = 1.0


def poisson_terms(x: float, count: int) -> list[float]:
    """e^-x x^n / n! for n = 0..count-1, by the term recurrence."""
    terms = []
    term = math.exp(-x)
    for n in range(count):
        terms.append(term)
        term *= x / (n + 1)
    return terms


def poisson_below(x: float, k: int) -> float:
    """P(n < k) for a Poisson count at rate x."""
    return math.fsum(poisson_terms(x, k))


def poisson_at_least(x: float, k: int) -> float:
    """P(n >= k) for a Poisson count at rate x, without cancellation.

    Below the mean the tail is summed term by term; above it the
    complement is at least about one half, so ``1 - below`` is exact to
    rounding.
    """
    if k == 0:
        return 1.0
    if k == 1:
        return -math.expm1(-x)
    if x >= k:
        return 1.0 - poisson_below(x, k)
    if x == 0.0:
        return 0.0
    # log of e^-x x^k / k!, so the first tail term cannot overflow or
    # vanish early through exp(-x) alone.
    term = math.exp(-x + k * math.log(x) - math.lgamma(k + 1))
    total = [term]
    n = k
    while term > 1e-18 * total[0]:
        n += 1
        term *= x / n
        total.append(term)
    return math.fsum(total)


def poisson_pmf_at(x: float, n: int) -> float:
    """e^-x x^n / n!, the derivative of P(count >= n + 1) with respect to x."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-x + n * math.log(x) - math.lgamma(n + 1))


def truncated_pmf(mu: float, resolution: int) -> list[float]:
    """PNR(M) outcome PMF over 0..M; the last entry is the directly summed tail."""
    return poisson_terms(mu, resolution) + [poisson_at_least(mu, resolution)]


def hl_rates(zeta: float, z: float, det: Detector) -> tuple[float, float]:
    """Detected rates on the two HL outputs for signal amplitude zeta.

    (zeta^2 + z^2 +- 2 xi z zeta) / 2, rewritten as a square plus a
    nonnegative visibility term so no branch cancels.
    """
    # The visibility term has the sign of zeta; it is added where the
    # square is small and subtracted where the square is at least 4 z |zeta|.
    leak = (1.0 - det.xi) * z * zeta
    plus = 0.5 * ((zeta + z) ** 2 - 2.0 * leak)
    minus = 0.5 * ((zeta - z) ** 2 + 2.0 * leak)
    return det.eta * plus + det.nu, det.eta * minus + det.nu


def hl_difference(zeta: float, z: float, det: Detector) -> list[float]:
    """Full PMF of Delta = n - m over -M..M (index Delta + M)."""
    mu_plus, mu_minus = hl_rates(zeta, z, det)
    m = det.resolution
    pn = truncated_pmf(mu_plus, m)
    pm = truncated_pmf(mu_minus, m)
    probs = []
    for delta in range(-m, m + 1):
        probs.append(math.fsum(pn[n] * pm[n - delta] for n in range(m + 1) if 0 <= n - delta <= m))
    return probs


def hl_side_masses(zeta: float, z: float, det: Detector) -> tuple[float, float]:
    """(P(Delta < 0), P(Delta >= 0)), each summed from its own joint terms."""
    probs = hl_difference(zeta, z, det)
    m = det.resolution
    return math.fsum(probs[:m]), math.fsum(probs[m:])


def hl_initial_error(alpha: float, tau: float, z: float, det: Detector) -> float:
    """Probability that the HL pre-measurement sets the switch on the wrong side.

    Under "+alpha" the reflected amplitude is -sqrt(1-tau) alpha and a
    nonnegative Delta is wrong; under "-alpha" it is +sqrt(1-tau) alpha
    and a negative Delta is wrong. Ties (Delta = 0) infer "0".
    """
    reflected = math.sqrt(max(0.0, 1.0 - tau)) * alpha
    _, wrong_plus = hl_side_masses(-reflected, z, det)
    wrong_minus, _ = hl_side_masses(reflected, z, det)
    return 0.5 * (wrong_plus + wrong_minus)


@dataclass(frozen=True)
class RecursionValue:
    """Recomputed error probability and the program's admissible rounding error.

    ``bound`` is a first-order bound on the absolute error of a
    double-precision evaluation that follows the program's formulas:
    displaced rates formed as (c^2 + beta^2) -+ 2 xi c beta, thresholded
    upper tails formed as 1 - P(n < k), the saturated PNR bin formed as
    1 - partial sum. Each source enters with the derivative of the error
    probability with respect to it, and errors in e_j propagate to e_N
    through the factor |P(miss) - P(false flip)| <= 1 of each later step.
    """

    value: float
    bound: float


def hl_error_bound(alpha: float, tau: float, z: float, det: Detector) -> float:
    """Bound on the program's absolute error in the HL initial error e0."""
    reflected2 = (1.0 - tau) * alpha * alpha
    # Saturated bin 1 - partial: (M + 2) eps per PMF; cancelling branch
    # mean: 2 eps (zeta^2 + z^2) eta, with |d mass / d mu| <= 1.
    return 4.0 * (det.resolution + 2) * EPS + 4.0 * EPS * det.eta * (reflected2 + z * z)


def recursion_error(
    alpha: float,
    tau: float,
    betas: Sequence[float],
    n_th: int,
    det: Detector,
    e_initial: float,
    e_initial_bound: float,
) -> RecursionValue:
    """Error probability after the feed-forward chain, from e_0 = e_initial."""
    n_copies = len(betas)
    c = math.sqrt(tau) * alpha / math.sqrt(n_copies)
    e = e_initial
    bound = e_initial_bound
    for beta in betas:
        leak = 2.0 * (1.0 - det.xi) * c * beta
        r_minus = det.eta * ((c - beta) ** 2 + leak) + det.nu
        r_plus = det.eta * ((c + beta) ** 2 - leak) + det.nu
        false_flip = poisson_at_least(r_minus, n_th)
        missed_flip = poisson_below(r_plus, n_th)
        e_new = (1.0 - e) * false_flip + e * missed_flip
        # Rate rounding: the program's (c^2 + beta^2) - cross cancels, so
        # its absolute error scales with c^2 + beta^2, not with the rate.
        d_rate = 4.0 * EPS * (det.eta * (c * c + beta * beta) + det.nu)
        source = d_rate * ((1.0 - e) * poisson_pmf_at(r_minus, n_th - 1)
                           + e * poisson_pmf_at(r_plus, n_th - 1))
        if n_th >= 2:
            # 1 - (sum of n_th terms): absolute error of that sum.
            source += (n_th + 2) * EPS * (1.0 - e)
        source += 4.0 * EPS * (e_new + n_th * EPS)
        bound = abs(missed_flip - false_flip) * bound + source
        e = e_new
    return RecursionValue(e, bound)


def dffre_error(alpha: float, betas: Sequence[float], n_th: int, det: Detector) -> RecursionValue:
    """DFFRE error at the given displacements: no pre-measurement, e_0 = 1/2."""
    return recursion_error(alpha, 1.0, betas, n_th, det, 0.5, 0.0)


def hffre_error(
    alpha: float, tau: float, z: float, betas: Sequence[float], n_th: int, det: Detector
) -> RecursionValue:
    """HFFRE error at the given parameters, pre-measurement always included."""
    e0 = hl_initial_error(alpha, tau, z, det)
    return recursion_error(alpha, tau, betas, n_th, det, e0, hl_error_bound(alpha, tau, z, det))


def hynore_error(alpha: float, tau: float, z: float, resolution: int) -> RecursionValue:
    """HYNORE error: HL-steered nulling displacement, on/off detection."""
    det = Detector(resolution)
    nulled = math.exp(-4.0 * tau * alpha * alpha)
    e0 = hl_initial_error(alpha, tau, z, det)
    bound = nulled * hl_error_bound(alpha, tau, z, det) + 8.0 * EPS * nulled * e0 * (1.0 + 4.0 * alpha * alpha)
    return RecursionValue(nulled * e0, bound)


def helstrom(alpha2: float) -> float:
    """(1 - sqrt(1 - e^{-4 alpha^2})) / 2, rationalized so small overlaps keep their digits."""
    overlap = math.exp(-4.0 * alpha2)
    return 0.5 * overlap / (1.0 + math.sqrt(1.0 - overlap))


def sql(alpha2: float) -> float:
    """Homodyne error erfc(sqrt(2 alpha^2)) / 2."""
    return 0.5 * math.erfc(math.sqrt(2.0 * alpha2))


def kennedy(alpha2: float) -> float:
    return 0.5 * math.exp(-4.0 * alpha2)


def dark_floor(nu: float) -> float:
    """(1 - e^-nu (1 + nu)) / 2 = P(n >= 2 | nu) / 2, summed without cancellation."""
    return 0.5 * poisson_at_least(nu, 2)


def close(actual: float, expected: float, rel: float, absolute: float = 0.0) -> bool:
    """|actual - expected| <= rel |expected| + absolute + the subnormal allowance."""
    return abs(actual - expected) <= rel * abs(expected) + absolute + SUBNORMAL_ALLOWANCE
