"""Benchmark receivers for BPSK coherent-state discrimination.

The two hypotheses are the coherent states |-alpha> and |+alpha> with
equal priors; alpha > 0 so the signal energy is alpha^2. This module
collects the closed-form limits (standard quantum limit of homodyne
detection, the Helstrom bound, the Kennedy nulling receiver) and the
two single-shot optimized benchmarks: the Takeoka-style optimized
displacement receiver and the hybrid near-optimum receiver (HYNORE)
that steers a nulling displacement with a homodyne-like pre-measurement
on a tapped fraction of the signal.
"""

from __future__ import annotations

import math

import numpy as np

from .optimize import maximize_grid_searches
from .photostatistics import DetectorModel, _check_rate, exp_rows

__all__ = [
    "sql_error",
    "helstrom_bound",
    "kennedy_error",
    "optimized_displacement_error",
    "hynore_error",
]


def sql_error(alpha: float) -> float:
    """Standard quantum limit: best semi-classical (homodyne) error probability.

    (1 - erf(sqrt(2) alpha)) / 2, evaluated as erfc so the tail keeps full
    relative precision at high energy.
    """
    alpha = _check_rate(alpha, "alpha")
    return 0.5 * math.erfc(math.sqrt(2.0) * alpha)


def helstrom_bound(alpha: float) -> float:
    """Minimum error probability allowed by quantum mechanics for the pair.

    (1 - sqrt(1 - o)) / 2 with overlap o = e^(-4 alpha^2), rationalized to
    o / (2 (1 + sqrt(1 - o))), which stays accurate when o underflows the
    subtraction.
    """
    alpha = _check_rate(alpha, "alpha")
    overlap = math.exp(-4.0 * alpha * alpha)
    return 0.5 * overlap / (1.0 + math.sqrt(1.0 - overlap))


def kennedy_error(alpha: float) -> float:
    """Error probability of the nulling-displacement on/off receiver."""
    alpha = _check_rate(alpha, "alpha")
    return 0.5 * math.exp(-4.0 * alpha * alpha)


def optimized_displacement_error(alpha: float, model: DetectorModel):
    """Single-copy receiver with the displacement magnitude optimized.

    Equivalent by definition to the feed-forward displacement receiver
    with one copy; returns the full evaluation result (error probability,
    optimal displacement, metrics).
    """
    from .feedforward import FeedForwardConfig, Receiver, dffre_error

    cfg = FeedForwardConfig(n_copies=1, model=model, receiver=Receiver.DFFRE)
    return dffre_error(alpha, cfg)


def hynore_error(alpha: float, resolution: int):
    """Hybrid near-optimum receiver with ideal detectors.

    A beam splitter of transmissivity tau taps the signal; HL detection of
    the reflected part (difference outcome Delta, local oscillator
    amplitude z) picks the sign of a nulling displacement on the
    transmitted part, which then undergoes on/off detection. Ties
    Delta = 0 count toward inferring "0". The error probability

        P(tau, z) = e^(-4 tau alpha^2) / 2
                    * [ sum_(Delta<0) S_Delta(r0) + sum_(Delta>=0) S_Delta(r1) ]

    with reflected amplitudes r_k = -sqrt(1-tau) * alpha_k is minimized
    over tau in [0, 1] (``TAU_SPEC``, the tau search of the HFFRE) with z
    at z*(tau), the local oscillator in [0, 5 + 4 alpha] at which the HL
    error is smallest. Half the bracket is the HL pre-measurement error
    e0 of the HFFRE (``hl_sign_error``), and the factor e^(-4 tau alpha^2)
    does not depend on z, so z*(tau) minimizes P over z exactly. tau = 1
    is always part of the search, where the bracket sums to one and the
    Kennedy receiver is recovered. Each round is evaluated as one batch
    of e0 e^(-4 tau alpha^2), with e0 the minimum the z search found at
    each tau (``_hl_minimum``), not evaluated again.
    """
    from .feedforward import TAU_SPEC, _hl_minimum, _result

    alpha = _check_rate(alpha, "alpha")
    model = DetectorModel(resolution=resolution)
    if alpha == 0.0:
        return _result(0.0, [0.5])
    minimum = _hl_minimum(alpha, model)

    def objective(tau: np.ndarray) -> np.ndarray:
        tau = tau.ravel()
        _, e0, _ = minimum(tau)
        return -(e0 * exp_rows(-4.0 * tau * alpha * alpha))[None]

    tau_opt, negated = maximize_grid_searches(objective, TAU_SPEC, 1)[0]
    z_opt = float(minimum(np.array([tau_opt]))[0][0])
    return _result(alpha, [-negated], tau=tau_opt, z=z_opt)
