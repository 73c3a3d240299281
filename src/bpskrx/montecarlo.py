"""Event-level Monte Carlo simulation of the feed-forward receivers.

Simulates the physical switch model trial by trial: the hypothesis is
drawn, the (optional) homodyne-like pre-measurement sets the initial
switch position, then each copy is displaced with the sign given by the
switch, a PNR(M) count is drawn, and the switch flips whenever the count
reaches the click threshold. The final switch position is the decision.

Imperfections are applied at the rate level (eta * rate + nu, visibility
in the interference cross terms), exactly mirroring the analytic model,
so a discrepancy between simulation and recursion isolates a recursion
error rather than a modeling difference.

Each copy's rate takes one of two values, eta (c^2 + beta^2 +- 2 xi c beta)
+ nu with c = amplitude / sqrt(N): the plus sign when the switch points
away from the sent state. Both are computed once per copy as scalars and
clamped at 0, since the nulled one can round to about -1e-15 at high
energy; a boolean per trial picks between them. The two rates of each
HL detector are chosen the same way by the hypothesis.

Reproducibility: every estimate is fully determined by an RngSpec
(seed, stream_id). Trials are processed in fixed-size batches
(BATCH_SIZE) with per-batch derived streams and reduced in batch order,
so the result does not depend on how batches might be scheduled. The
stream is consumed by the same rng calls in the same order: int64
hypotheses from ``integers(0, 2)``, then one ``poisson`` array per HL
detector and per copy. A change to BATCH_SIZE, to that order or to a
dtype changes every estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import _check_alpha
from .feedforward import FeedForwardConfig, Receiver, ReceiverParams
from .photostatistics import _check_count

__all__ = [
    "RngSpec",
    "TrajectoryRecord",
    "BATCH_SIZE",
    "sample_pnr",
    "simulate_trial",
    "estimate_error",
]

BATCH_SIZE = 250_000
_MAX_UINT64 = 2**64 - 1


@dataclass(frozen=True)
class RngSpec:
    """Seed material for a reproducible trajectory stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, int) or not 0 <= value <= _MAX_UINT64:
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")

    def generator(self, batch: int | None = None) -> np.random.Generator:
        key = (self.stream_id,) if batch is None else (self.stream_id, batch)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key)))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated trial.

    ``hl_delta`` is None for the DFFRE (no pre-measurement).
    ``switch_states`` holds the switch position after each copy; the
    decision is the final one.
    """

    hypothesis: int
    hl_delta: int | None
    counts: tuple[int, ...]
    switch_states: tuple[int, ...]
    decision: int
    correct: bool


def sample_pnr(rng: np.random.Generator, mu: float, resolution: int) -> int:
    """Draw one PNR(M) outcome at rate mu: a Poisson count clipped to M."""
    if not math.isfinite(mu) or mu < 0.0:
        raise ValueError(f"mu must be finite and >= 0, got {mu!r}")
    resolution = _check_count("resolution", resolution)
    return int(min(rng.poisson(mu), resolution))


def _check_params(params: ReceiverParams, cfg: FeedForwardConfig) -> None:
    if len(params.betas) != cfg.n_copies:
        raise ValueError(
            f"params.betas has {len(params.betas)} entries for {cfg.n_copies} copies"
        )
    resolution = cfg.model.resolution
    _check_count("n_th", params.n_th, 1, resolution)
    if not 0.0 <= params.tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {params.tau}")
    if not 0.0 <= params.z < math.inf:
        raise ValueError(f"z must be finite and >= 0, got {params.z}")
    for j, beta in enumerate(params.betas):
        if not 0.0 <= beta < math.inf:
            raise ValueError(f"betas[{j}] must be finite and >= 0, got {beta!r}")


def _rate(eta: float, mean: float, nu: float) -> float:
    """Detector rate eta * mean + nu, clamped at 0 (NaN passes through).

    A nulled mean c^2 + beta^2 - 2 xi c beta can round to about -1e-15.
    """
    return max(eta * mean + nu, 0.0)


def _simulate_batch(
    alpha: float,
    params: ReceiverParams,
    cfg: FeedForwardConfig,
    rng: np.random.Generator,
    n_trials: int,
    collect: bool = False,
):
    """Vectorized trial batch; returns (n_errors, detail arrays or None)."""
    model = cfg.model
    resolution = model.resolution
    eta, nu, xi = model.eta, model.nu, model.xi

    hypothesis = rng.integers(0, 2, size=n_trials)
    plus = hypothesis == 1  # the "+alpha" state was sent

    if cfg.receiver is Receiver.HFFRE:
        tau, z = params.tau, params.z
        reflected = math.sqrt(max(0.0, 1.0 - tau)) * alpha
        base = reflected * reflected + z * z
        cross = 2.0 * xi * z * reflected
        # The reflected "+alpha" interferes destructively at the first
        # detector, "-alpha" at the second.
        low = _rate(eta * 0.5, base - cross, nu)
        high = _rate(eta * 0.5, base + cross, nu)
        n_raw = rng.poisson(np.where(plus, low, high))
        m_raw = rng.poisson(np.where(plus, high, low))
        delta = np.minimum(n_raw, resolution) - np.minimum(m_raw, resolution)
        switch = delta < 0
        amplitude = math.sqrt(tau) * alpha
    else:
        delta = None
        switch = np.zeros(n_trials, dtype=bool)
        amplitude = alpha

    c = amplitude / math.sqrt(cfg.n_copies)
    counts_log = np.empty((cfg.n_copies, n_trials), dtype=np.int64) if collect else None
    switch_log = np.empty((cfg.n_copies, n_trials), dtype=np.int64) if collect else None
    for j, beta in enumerate(params.betas):
        # The displacement adds to the signal when the switch points away
        # from the sent state, and nulls it otherwise.
        base = c * c + beta * beta
        cross = 2.0 * xi * c * beta
        rate = np.where(switch != plus, _rate(eta, base + cross, nu), _rate(eta, base - cross, nu))
        # Unclipped counts: with n_th <= M, min(count, M) >= n_th iff count >= n_th.
        counts = rng.poisson(rate)
        switch = switch ^ (counts >= params.n_th)
        if collect:
            counts_log[j] = np.minimum(counts, resolution)
            switch_log[j] = switch

    errors = int(np.count_nonzero(switch != plus))
    if not collect:
        return errors, None
    return errors, (hypothesis, delta, counts_log, switch_log, switch)


def simulate_trial(
    alpha: float,
    params: ReceiverParams,
    cfg: FeedForwardConfig,
    rng: np.random.Generator,
) -> TrajectoryRecord:
    """Simulate a single trial and return its full record."""
    alpha = _check_alpha(alpha)
    _check_params(params, cfg)
    _, detail = _simulate_batch(alpha, params, cfg, rng, 1, collect=True)
    hypothesis, delta, counts_log, switch_log, final = detail
    return TrajectoryRecord(
        hypothesis=int(hypothesis[0]),
        hl_delta=None if delta is None else int(delta[0]),
        counts=tuple(int(c) for c in counts_log[:, 0]),
        switch_states=tuple(int(s) for s in switch_log[:, 0]),
        decision=int(final[0]),
        correct=bool(final[0] == hypothesis[0]),
    )


def estimate_error(
    alpha: float,
    params: ReceiverParams,
    cfg: FeedForwardConfig,
    trials: int,
    rng_spec: RngSpec,
) -> tuple[float, float]:
    """Monte Carlo error-probability estimate; returns (p_hat, std_err).

    std_err is the binomial standard error sqrt(p_hat (1 - p_hat) / trials).
    """
    alpha = _check_alpha(alpha)
    if not isinstance(trials, (int, np.integer)) or trials < 10_000:
        raise ValueError(f"trials must be an integer >= 10000, got {trials!r}")
    _check_params(params, cfg)
    errors = 0
    done = 0
    batch = 0
    while done < trials:
        size = min(BATCH_SIZE, trials - done)
        n_err, _ = _simulate_batch(alpha, params, cfg, rng_spec.generator(batch), size)
        errors += n_err
        done += size
        batch += 1
    p_hat = errors / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, std_err
