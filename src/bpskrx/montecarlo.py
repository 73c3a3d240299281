"""Event-level Monte Carlo simulation of the feed-forward receivers.

Simulates the physical switch model trial by trial: the hypothesis is
drawn, the (optional) homodyne-like pre-measurement sets the initial
switch position, then each copy is displaced with the sign given by the
switch, a PNR(M) count is drawn, and the switch flips whenever the count
reaches the click threshold. The final switch position is the decision.

Imperfections are applied at the rate level, at the analytic model's
own rates (``feedforward._copy_rates``, ``photostatistics._hl_rates``),
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
so the result does not depend on how batches are scheduled. The
stream is consumed in the same order: int64 hypotheses from
``integers(0, 2)``, then ``poisson`` counts per HL detector and per
copy, each stage over all trials of the batch before the next. A
change to BATCH_SIZE, to that order or to a dtype changes every
estimate. A stage is drawn in slices of CHUNK trials; both rng methods
draw element by element, so slices drawn in order use the stream as one
whole-batch call does, and CHUNK changes no estimate.

Concurrency: ``estimate_error`` runs its batches on min(number of
batches, usable CPUs) threads, the calling thread among them, and joins
them all before it returns; usable CPUs are the process's affinity mask
where the platform has one, else ``os.cpu_count()``. The Poisson draws,
most of a batch's time, release the GIL. A batch of BATCH_SIZE trials
peaks at about 1.0 MiB (DFFRE) to 1.3 MiB (HFFRE) of traced memory, so
each extra thread adds about that much.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .feedforward import (FeedForwardConfig, Receiver, ReceiverParams, _check_beta, _check_tau,
                          _copy_rates, _tap_amplitude)
from .photostatistics import _check_count, _check_rate, _hl_rates

__all__ = [
    "RngSpec",
    "TrajectoryRecord",
    "BATCH_SIZE",
    "sample_pnr",
    "simulate_trial",
    "estimate_error",
]

BATCH_SIZE = 250_000
CHUNK = 32_768  # trials per draw within a batch; no estimate depends on it
MIN_TRIALS = 10_000  # the fewest trials an estimate takes
_MAX_UINT64 = 2**64 - 1


@dataclass(frozen=True)
class RngSpec:
    """Seed material for a reproducible trajectory stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        # kept as Python ints, so reprs read the same for numpy integers
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), 0, _MAX_UINT64))

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
    mu = _check_rate(mu, "mu")
    resolution = _check_count("resolution", resolution)
    return int(min(rng.poisson(mu), resolution))


def _check_params(params: ReceiverParams, cfg: FeedForwardConfig) -> None:
    if len(params.betas) != cfg.n_copies:
        raise ValueError(
            f"params.betas has {len(params.betas)} entries for {cfg.n_copies} copies"
        )
    resolution = cfg.model.resolution
    _check_count("n_th", params.n_th, 1, resolution)
    _check_tau(params.tau)
    _check_rate(params.z, "z")
    for j, beta in enumerate(params.betas):
        _check_beta(beta, f"betas[{j}]")


def _simulate_batch(
    alpha: float,
    params: ReceiverParams,
    cfg: FeedForwardConfig,
    rng: np.random.Generator,
    n_trials: int,
    collect: bool = False,
):
    """Vectorized trial batch; returns (n_errors, detail arrays or None).

    The rates are ``_hl_rates`` at ``_tap_amplitude(alpha, tau)`` and
    ``_copy_rates(c, 1, model)`` at each beta, clamped at 0 (NaN passes).

    Each stage (the hypotheses, each HL detector, each copy) is drawn over
    consecutive chunks of CHUNK trials through one chunk-sized rate buffer
    and one flag buffer. Across the batch only the booleans ``plus`` and
    ``switch`` and the first HL detector's clipped counts (small integers)
    are kept, plus the ``collect`` logs, which fill chunk by chunk.
    Without ``collect`` a batch of BATCH_SIZE trials then peaks at about
    1.0 MiB (DFFRE) to 1.3 MiB (HFFRE) of traced memory, against 4.6 to
    6.4 MiB with whole-batch float64 and int64 arrays.
    """
    model = cfg.model
    resolution = model.resolution
    rate = np.empty(min(CHUNK, n_trials))
    flag = np.empty(min(CHUNK, n_trials), dtype=bool)
    chunks = []  # (trial slice, rate view, flag view) of each chunk
    for start in range(0, n_trials, CHUNK):
        size = min(CHUNK, n_trials - start)
        chunks.append((slice(start, start + size), rate[:size], flag[:size]))

    plus = np.empty(n_trials, dtype=bool)  # the "+alpha" state was sent
    hypothesis = np.empty(n_trials, dtype=np.int64) if collect else None
    for trials, r, _ in chunks:
        drawn = rng.integers(0, 2, size=len(r))
        np.equal(drawn, 1, out=plus[trials])
        if collect:
            hypothesis[trials] = drawn
        del drawn  # each chunk's temporaries are freed before the next is drawn

    switch = np.zeros(n_trials, dtype=bool)
    delta = None
    if cfg.receiver is Receiver.HFFRE:
        # a Python float, as c is: numpy scalars would warn where a rate overflows
        reflected = float(_tap_amplitude(alpha, params.tau))
        # The reflected "+alpha" interferes destructively at the first
        # detector, "-alpha" at the second.
        high, low = (max(rate, 0.0) for rate in _hl_rates(reflected, params.z, model))
        n = np.empty(n_trials, dtype=np.min_scalar_type(resolution))
        if collect:
            delta = np.empty(n_trials, dtype=np.int64)
        for trials, r, _ in chunks:
            r.fill(high)
            np.copyto(r, low, where=plus[trials])
            counts = rng.poisson(r)
            n[trials] = np.minimum(counts, resolution, out=counts)
            del counts
        for trials, r, _ in chunks:
            r.fill(low)
            np.copyto(r, high, where=plus[trials])
            m = rng.poisson(r)
            np.minimum(m, resolution, out=m)
            np.less(n[trials], m, out=switch[trials])  # delta < 0
            if collect:
                np.subtract(n[trials], m, out=delta[trials])
            del m
        del n
        amplitude = math.sqrt(params.tau) * alpha
    else:
        amplitude = alpha

    # one copy of amplitude c, whose c^2 can differ from amplitude^2 / N in the last bit
    copy_rates = _copy_rates(amplitude / math.sqrt(cfg.n_copies), 1, model)
    counts_log = np.empty((cfg.n_copies, n_trials), dtype=np.int64) if collect else None
    switch_log = np.empty((cfg.n_copies, n_trials), dtype=np.int64) if collect else None
    for j, beta in enumerate(params.betas):
        # The displacement adds to the signal when the switch points away
        # from the sent state, and nulls it otherwise.
        nulled, added = (max(rate, 0.0) for rate in copy_rates(beta))
        for trials, r, f in chunks:
            np.not_equal(switch[trials], plus[trials], out=f)
            r.fill(nulled)
            np.copyto(r, added, where=f)
            # Unclipped counts: with n_th <= M, min(count, M) >= n_th iff count >= n_th.
            counts = rng.poisson(r)
            switch[trials] ^= np.greater_equal(counts, params.n_th, out=f)
            if collect:
                counts_log[j, trials] = np.minimum(counts, resolution)
                switch_log[j, trials] = switch[trials]
            del counts

    errors = sum(int(np.count_nonzero(np.not_equal(switch[trials], plus[trials], out=f)))
                 for trials, _, f in chunks)
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
    alpha = _check_rate(alpha, "alpha")
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_batches(run: Callable[[int], int], count: int) -> list[int]:
    """[run(0), ..., run(count - 1)] on min(count, usable CPUs) threads.

    The calling thread is one of the workers, so a single worker starts
    no thread. Each worker takes the lowest batch not yet taken. After a
    batch raises, no worker takes another; every started thread is joined
    before this returns, and the exception of the lowest failed batch is
    raised. Every lower batch was taken before it, so it ran: a serial
    loop would have raised the same exception.
    """
    results: list[int | None] = [None] * count
    failed: dict[int, Exception] = {}
    batches = iter(range(count))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with lock:
                batch = next(batches, None)
            if batch is None:
                return
            try:
                results[batch] = run(batch)
            except Exception as exc:  # raised below, in batch order
                failed[batch] = exc
                stop.set()

    threads = [threading.Thread(target=work) for _ in range(min(count, _usable_cpus()) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        stop.set()  # every batch is taken, or one failed or this thread was interrupted
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results


def estimate_error(
    alpha: float,
    params: ReceiverParams,
    cfg: FeedForwardConfig,
    trials: int,
    rng_spec: RngSpec,
) -> tuple[float, float]:
    """Monte Carlo error-probability estimate; returns (p_hat, std_err).

    std_err is the binomial standard error sqrt(p_hat (1 - p_hat) / trials).
    The trials run in batches of BATCH_SIZE, batch b drawn from
    ``rng_spec.generator(b)``, on min(number of batches, usable CPUs)
    threads (the calling thread included); every thread is joined before
    this returns. The error counts are added in batch order, so the
    estimate does not depend on the thread count.
    """
    alpha = _check_rate(alpha, "alpha")
    _check_count("trials", trials, MIN_TRIALS)
    _check_params(params, cfg)
    sizes = [min(BATCH_SIZE, trials - done) for done in range(0, trials, BATCH_SIZE)]

    def run(batch: int) -> int:
        return _simulate_batch(alpha, params, cfg, rng_spec.generator(batch), sizes[batch])[0]

    errors = sum(_run_batches(run, len(sizes)))
    p_hat = errors / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, std_err
