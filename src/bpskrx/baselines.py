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

from .optimize import GridSearchSpec, maximize_grid_batch
from .photostatistics import DetectorModel, exp_rows, hl_sign_error

__all__ = [
    "sql_error",
    "helstrom_bound",
    "kennedy_error",
    "optimized_displacement_error",
    "hynore_error",
]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    return alpha


def sql_error(alpha: float) -> float:
    """Standard quantum limit: best semi-classical (homodyne) error probability.

    (1 - erf(sqrt(2) alpha)) / 2, evaluated as erfc so the tail keeps full
    relative precision at high energy.
    """
    alpha = _check_alpha(alpha)
    return 0.5 * math.erfc(math.sqrt(2.0) * alpha)


def helstrom_bound(alpha: float) -> float:
    """Minimum error probability allowed by quantum mechanics for the pair.

    (1 - sqrt(1 - o)) / 2 with overlap o = e^(-4 alpha^2), rationalized to
    o / (2 (1 + sqrt(1 - o))), which stays accurate when o underflows the
    subtraction.
    """
    alpha = _check_alpha(alpha)
    overlap = math.exp(-4.0 * alpha * alpha)
    return 0.5 * overlap / (1.0 + math.sqrt(1.0 - overlap))


def kennedy_error(alpha: float) -> float:
    """Error probability of the nulling-displacement on/off receiver."""
    alpha = _check_alpha(alpha)
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
    over tau in [0, 1] and z in [0, 5 + 4 alpha]. tau = 1 is always part
    of the search, where the bracket sums to one and the Kennedy receiver
    is recovered. Half the bracket is the HL pre-measurement error e0 of
    the HFFRE (``hl_sign_error``), so each grid round is evaluated as one
    batch of e0 e^(-4 tau alpha^2).
    """
    from .feedforward import _hybrid_initial_error, _result

    alpha = _check_alpha(alpha)
    model = DetectorModel(resolution=resolution)
    if alpha == 0.0:
        return _result(0.0, [0.5])

    def objective(tau: np.ndarray, z: np.ndarray) -> np.ndarray:
        reflected = np.sqrt(np.maximum(0.0, 1.0 - tau)) * alpha
        return -(hl_sign_error(reflected, z, model) * exp_rows(-4.0 * tau * alpha * alpha))

    spec = GridSearchSpec(
        bounds=((0.0, 1.0), (0.0, 5.0 + 4.0 * alpha)),
        points=(41, 41),
        refinement_rounds=4,
        shrink_factor=8.0,
        mandatory=((1.0, 0.0),),
    )
    (tau_opt, z_opt), _ = maximize_grid_batch(objective, spec)
    e0 = _hybrid_initial_error(alpha, tau_opt, z_opt, model)
    return _result(alpha, [e0 * math.exp(-4.0 * tau_opt * alpha * alpha)], tau=tau_opt, z=z_opt)
