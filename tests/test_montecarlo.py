"""Trajectory simulator: marginal laws, determinism, agreement with the recursion."""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from bpskrx import montecarlo
from bpskrx.feedforward import (
    FeedForwardConfig,
    Receiver,
    ReceiverParams,
    _copy_rates,
    _tap_amplitude,
    correct_probability_trace,
    dffre_error,
    hffre_error,
    hffre_error_at,
)
from bpskrx.montecarlo import (
    BATCH_SIZE,
    RngSpec,
    TrajectoryRecord,
    _simulate_batch,
    estimate_error,
    sample_pnr,
    simulate_trial,
)
from bpskrx.photostatistics import DetectorModel, _hl_rates, pnr_pmf

IDEAL2 = DetectorModel(2)


def dffre_cfg(n, model=IDEAL2):
    return FeedForwardConfig(n, model, Receiver.DFFRE)


def hffre_cfg(n, model=IDEAL2):
    return FeedForwardConfig(n, model, Receiver.HFFRE)


class TestRngSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(0, stream_id=2**64)

    def test_distinct_streams(self):
        a = RngSpec(1, stream_id=0).generator().integers(0, 2**31, size=8)
        b = RngSpec(1, stream_id=1).generator().integers(0, 2**31, size=8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("args", [(True,), (np.bool_(True),), (1, False), (1.0,), (-1,),
                                      (2**64,), (0, np.int64(-1))])
    def test_non_count_rejected(self, args):
        # A bool is no seed, and a float such as 1.0 is no integer.
        message = r"(seed|stream_id) must be an integer in \[0, 18446744073709551615\], got "
        with pytest.raises(ValueError, match=message):
            RngSpec(*args)

    @pytest.mark.parametrize("value", [0, 2**64 - 1, np.int64(7), np.uint64(2**64 - 1)])
    def test_integers_kept_as_python_ints(self, value):
        spec, plain = RngSpec(value, stream_id=value), RngSpec(int(value), int(value))
        assert type(spec.seed) is int and type(spec.stream_id) is int
        assert spec == plain and repr(spec) == repr(plain)
        assert np.array_equal(spec.generator(3).integers(0, 2**31, size=8),
                              plain.generator(3).integers(0, 2**31, size=8))

    def test_reproducible_generator(self):
        a = RngSpec(9, 3).generator(batch=2).integers(0, 2**31, size=8)
        b = RngSpec(9, 3).generator(batch=2).integers(0, 2**31, size=8)
        assert np.array_equal(a, b)


class TestSamplePnr:
    def test_vacuum_always_zero(self):
        rng = RngSpec(0).generator()
        assert all(sample_pnr(rng, 0.0, 2) == 0 for _ in range(100))

    def test_saturation(self):
        rng = RngSpec(1).generator()
        draws = [sample_pnr(rng, 50.0, 2) for _ in range(2000)]
        assert all(d == 2 for d in draws)

    @staticmethod
    def simulated_counts(mu, m, n, rng):
        # One DFFRE copy at beta = 0 sees the rate alpha^2 whatever the
        # hypothesis and switch, so its logged counts are PNR(m) draws made
        # by the simulator's own count path; returns them with that rate.
        amplitude = math.sqrt(mu)
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.0,), n_th=1)
        _, (_, _, counts_log, _, _) = _simulate_batch(
            amplitude, params, dffre_cfg(1, DetectorModel(m)), rng, n, collect=True)
        return counts_log[0], amplitude * amplitude

    def test_marginal_law_four_sigma_per_bin(self):
        n = 100_000
        draws, rate = self.simulated_counts(1.0, 2, n, RngSpec(2).generator())
        expected = pnr_pmf(rate, 2)
        for outcome in range(3):
            p = expected[outcome]
            freq = np.count_nonzero(draws == outcome) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * sigma

    def test_chi_square_across_parameter_points(self):
        # Marginal-law agreement at 20 (rate, resolution) points.
        points = [(mu, m) for mu in (0.05, 0.4, 1.0, 2.7, 8.0) for m in (1, 2, 5, 12)]
        n = 1_000_000
        for index, (mu, m) in enumerate(points):
            draws, rate = self.simulated_counts(mu, m, n, RngSpec(77, stream_id=index).generator())
            observed = np.bincount(draws, minlength=m + 1).astype(float)
            expected = pnr_pmf(rate, m) * n
            mask = expected > 10.0  # merge sparse tail bins into the last kept bin
            obs = np.append(observed[mask], observed[~mask].sum())
            exp = np.append(expected[mask], expected[~mask].sum())
            if exp[-1] == 0.0:
                obs, exp = obs[:-1], exp[:-1]
            stat = float(((obs - exp) ** 2 / exp).sum())
            p_value = float(chi2.sf(stat, df=len(exp) - 1))
            assert p_value >= 0.001, f"chi-square failed at mu={mu}, M={m}: p={p_value}"

    def test_domain_errors(self):
        rng = RngSpec(0).generator()
        with pytest.raises(ValueError):
            sample_pnr(rng, -1.0, 2)

    @pytest.mark.parametrize("resolution", [1.5, 2.0])
    def test_fractional_resolution_rejected(self, resolution):
        # min(count, 1.5) truncated by int() would read PNR(1) as PNR(1.5).
        with pytest.raises(ValueError, match=rf"resolution must be an integer >= 1, got {resolution}"):
            sample_pnr(RngSpec(0).generator(), 5.0, resolution)

    @pytest.mark.parametrize("resolution", [2, np.int64(2)])
    def test_integer_resolution_accepted(self, resolution):
        assert sample_pnr(RngSpec(1).generator(), 50.0, resolution) == 2

    @pytest.mark.parametrize("resolution", [True, np.bool_(True)])
    def test_boolean_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution must be an integer >= 1, got "):
            sample_pnr(RngSpec(0).generator(), 5.0, resolution)


class TestSimulateTrial:
    def test_record_shape_dffre(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.8, 0.8), n_th=1)
        record = simulate_trial(1.0, params, dffre_cfg(2), RngSpec(5).generator())
        assert record.hl_delta is None
        assert len(record.counts) == 2 and all(0 <= c <= 2 for c in record.counts)
        assert len(record.switch_states) == 2
        assert record.decision == record.switch_states[-1]
        assert record.correct == (record.decision == record.hypothesis)

    def test_record_shape_hffre(self):
        params = ReceiverParams(tau=0.9, z=1.2, betas=(0.8,), n_th=1)
        record = simulate_trial(1.0, params, hffre_cfg(1), RngSpec(6).generator())
        assert record.hl_delta is not None and -2 <= record.hl_delta <= 2

    def test_bright_nulling_always_correct(self):
        # At alpha = 3 with a nulling displacement the single-copy error
        # probability is ~1e-16; 500 trials must all decide correctly.
        params = ReceiverParams(tau=1.0, z=0.0, betas=(3.0,), n_th=1)
        rng = RngSpec(7).generator()
        assert all(simulate_trial(3.0, params, dffre_cfg(1), rng).correct for _ in range(500))

    def test_mismatched_params_rejected(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.5,), n_th=1)
        with pytest.raises(ValueError):
            simulate_trial(1.0, params, dffre_cfg(2), RngSpec(0).generator())
        bad_th = ReceiverParams(tau=1.0, z=0.0, betas=(0.5, 0.5), n_th=3)
        with pytest.raises(ValueError):
            simulate_trial(1.0, bad_th, dffre_cfg(2), RngSpec(0).generator())


class TestEstimateError:
    def test_minimum_trials_enforced(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.5,), n_th=1)
        with pytest.raises(ValueError):
            estimate_error(1.0, params, dffre_cfg(1), 9_999, RngSpec(0))
        with pytest.raises(ValueError, match="trials"):
            estimate_error(1.0, params, dffre_cfg(1), 10000.5, RngSpec(0))

    @pytest.mark.parametrize("beta", [-0.5, math.nan, math.inf])
    def test_invalid_beta_rejected(self, beta):
        # A negative beta would reverse the displacements: another receiver.
        params = ReceiverParams(tau=0.5, z=1.0, betas=(beta,), n_th=1)
        with pytest.raises(ValueError, match=r"betas\[0\]"):
            estimate_error(1.0, params, hffre_cfg(1), 10_000, RngSpec(1))
        with pytest.raises(ValueError, match=r"betas\[0\]"):
            simulate_trial(1.0, params, hffre_cfg(1), RngSpec(1).generator())

    @pytest.mark.parametrize("tau", [-0.1, 1.5, math.nan, np.float64(1.5)])
    def test_invalid_tau_rejected_as_by_the_recursion(self, tau):
        # one tau rule, one message, for the simulation and the HFFRE at a
        # fixed tap; a numpy tau is reported by its repr, as a beta is
        message = f"tau must be in [0, 1], got {tau!r}"
        params = ReceiverParams(tau=tau, z=1.0, betas=(1.0,), n_th=1)
        for run in (lambda: estimate_error(1.0, params, hffre_cfg(1), 10_000, RngSpec(1)),
                    lambda: simulate_trial(1.0, params, hffre_cfg(1), RngSpec(1).generator()),
                    lambda: hffre_error_at(1.0, hffre_cfg(1), tau, 1.0)):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == message

    @pytest.mark.parametrize("n_th", [1.5, 2.0])
    def test_fractional_threshold_rejected(self, n_th):
        # counts >= 1.5 would simulate the threshold 2 under another name.
        params = ReceiverParams(tau=1.0, z=0.0, betas=(1.0,), n_th=n_th)
        with pytest.raises(ValueError, match="n_th must be an integer"):
            estimate_error(1.0, params, dffre_cfg(1), 10_000, RngSpec(1))

    @pytest.mark.parametrize("n_th", [True, np.bool_(True)])
    def test_boolean_threshold_rejected(self, n_th):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(1.0,), n_th=n_th)
        with pytest.raises(ValueError, match=r"n_th must be an integer in \[1, 2\], got "):
            estimate_error(1.0, params, dffre_cfg(1), 10_000, RngSpec(1))

    def test_numpy_threshold_accepted(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(1.0,), n_th=np.int64(2))
        expected = estimate_error(1.0, ReceiverParams(1.0, 0.0, (1.0,), 2), dffre_cfg(1), 10_000,
                                  RngSpec(1))
        assert estimate_error(1.0, params, dffre_cfg(1), 10_000, RngSpec(1)) == expected

    @pytest.mark.parametrize("z", [-1.0, math.nan, math.inf])
    def test_invalid_z_rejected(self, z):
        params = ReceiverParams(tau=0.5, z=z, betas=(0.5,), n_th=1)
        with pytest.raises(ValueError, match="z must"):
            estimate_error(1.0, params, hffre_cfg(1), 10_000, RngSpec(1))

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
    def test_invalid_alpha_rejected(self, alpha):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.5,), n_th=1)
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            estimate_error(alpha, params, dffre_cfg(1), 10_000, RngSpec(1))
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            simulate_trial(alpha, params, dffre_cfg(1), RngSpec(1).generator())

    def test_coin_flip_at_zero_signal(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.0,), n_th=1)
        p_hat, std_err = estimate_error(0.0, params, dffre_cfg(1), 100_000, RngSpec(11))
        assert abs(p_hat - 0.5) <= 4 * std_err

    @pytest.mark.parametrize("alpha2, n", [(15.0, 2), (30.0, 1), (50.0, 5)])
    @pytest.mark.parametrize("model", [IDEAL2, DetectorModel(2, eta=0.7)], ids=["ideal", "eta0.7"])
    def test_nulled_rate_cancelling_below_zero(self, alpha2, n, model):
        # At these optima c^2 + beta^2 - 2 xi c beta rounds to a few -1e-15:
        # the rate is clamped at 0 instead of reaching numpy as a negative lam.
        cfg = dffre_cfg(n, model)
        alpha = math.sqrt(alpha2)
        result = dffre_error(alpha, cfg)
        p_hat, _ = estimate_error(alpha, result.params, cfg, 10_000, RngSpec(1))
        if model.is_ideal:
            assert p_hat == 0.0
        else:
            assert 0.0 <= p_hat <= 1.0

    def test_determinism(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.6,), n_th=1)
        first = estimate_error(0.8, params, dffre_cfg(1), 50_000, RngSpec(21, 3))
        second = estimate_error(0.8, params, dffre_cfg(1), 50_000, RngSpec(21, 3))
        assert first == second

    def test_doubling_trials_halves_std_err(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.7,), n_th=1)
        _, se1 = estimate_error(0.5, params, dffre_cfg(1), 200_000, RngSpec(31))
        _, se2 = estimate_error(0.5, params, dffre_cfg(1), 400_000, RngSpec(31))
        assert se2 / se1 == pytest.approx(1.0 / math.sqrt(2.0), rel=0.05)

    def test_batch_boundary_handling(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.7,), n_th=1)
        trials = BATCH_SIZE + 17
        p_hat, _ = estimate_error(0.5, params, dffre_cfg(1), trials, RngSpec(41))
        assert 0.0 <= p_hat <= 1.0
        assert p_hat * trials == pytest.approx(round(p_hat * trials), abs=1e-6)

    def test_agreement_with_recursion_dffre(self):
        cfg = dffre_cfg(2)
        alpha = math.sqrt(0.5)
        result = dffre_error(alpha, cfg)
        p_hat, std_err = estimate_error(alpha, result.params, cfg, 400_000, RngSpec(51))
        assert abs(p_hat - result.p_err) <= 4 * std_err

    def test_agreement_with_recursion_hffre_dark(self):
        model = DetectorModel(2, nu=1e-3)
        cfg = hffre_cfg(1, model)
        result = hffre_error(1.0, cfg)
        p_hat, std_err = estimate_error(1.0, result.params, cfg, 400_000, RngSpec(61))
        assert abs(p_hat - result.p_err) <= 4 * std_err

    def test_hynore_formula_validated_by_trajectories(self):
        # The HYNORE is the single-copy hybrid receiver with the nulling
        # displacement beta = sqrt(tau) * alpha; simulating that receiver at
        # the analytic optimum validates the decision-rule bracket end to end.
        from bpskrx.baselines import hynore_error

        alpha = 1.0
        analytic = hynore_error(alpha, 2)
        tau, z = analytic.params.tau, analytic.params.z
        params = ReceiverParams(tau=tau, z=z, betas=(math.sqrt(tau) * alpha,), n_th=1)
        p_hat, std_err = estimate_error(alpha, params, hffre_cfg(1), 1_000_000, RngSpec(202))
        assert abs(p_hat - analytic.p_err) <= 4 * std_err


# Error counts round(p_hat * trials) at the parameters below, as drawn by the
# per-trial-array form of the copy step (reference_batch below). These pin
# the random stream: trials = BATCH_SIZE + 17 runs a full batch and a partial
# second one, so a change in how any rng call consumes the stream changes them.
STREAM_PINS = [
    # receiver, copies, model, n_th, alpha, betas, errors
    ("DFFRE", 1, DetectorModel(2), 1, 0.8, (0.7,), 14261),
    ("DFFRE", 3, DetectorModel(2), 1, 1.2, (0.7, 0.9, 1.1), 37101),
    ("DFFRE", 3, DetectorModel(2, eta=0.7), 1, 1.2, (0.7, 0.9, 1.1), 27283),
    ("DFFRE", 3, DetectorModel(2, nu=1e-3), 2, 1.5, (1.0, 1.2, 1.4), 8464),
    ("DFFRE", 1, DetectorModel(2, xi=0.998), 1, 0.8, (0.7,), 14853),
    ("HFFRE", 1, DetectorModel(2), 1, 0.8, (0.7,), 10519),
    ("HFFRE", 3, DetectorModel(2, eta=0.7), 1, 1.2, (0.7, 0.9, 1.1), 31609),
    ("HFFRE", 1, DetectorModel(2, nu=1e-3), 2, 1.5, (1.3,), 284),
    ("HFFRE", 3, DetectorModel(2, xi=0.998), 1, 1.2, (0.7, 0.9, 1.1), 43120),
]


class TestStreamPins:
    @pytest.mark.parametrize("index", range(len(STREAM_PINS)))
    def test_error_count(self, index):
        receiver, n, model, n_th, alpha, betas, errors = STREAM_PINS[index]
        tau, z = (1.0, 0.0) if receiver == "DFFRE" else (0.9, 1.1)  # fixed HL setting
        params = ReceiverParams(tau=tau, z=z, betas=betas, n_th=n_th)
        cfg = FeedForwardConfig(n, model, Receiver[receiver])
        trials = BATCH_SIZE + 17
        p_hat, _ = estimate_error(alpha, params, cfg, trials, RngSpec(1000 + index))
        assert round(p_hat * trials) == errors

    def test_dffre_record(self):
        params = ReceiverParams(tau=1.0, z=0.0, betas=(0.7, 0.9, 1.1), n_th=1)
        record = simulate_trial(1.2, params, dffre_cfg(3), RngSpec(20).generator())
        assert record == TrajectoryRecord(
            hypothesis=1, hl_delta=None, counts=(2, 1, 2), switch_states=(1, 0, 1),
            decision=1, correct=True)

    def test_hffre_dark_record(self):
        params = ReceiverParams(tau=0.9, z=1.1, betas=(0.7, 0.9), n_th=1)
        cfg = hffre_cfg(2, DetectorModel(2, nu=1e-3))
        record = simulate_trial(1.2, params, cfg, RngSpec(4).generator())
        assert record == TrajectoryRecord(
            hypothesis=0, hl_delta=-2, counts=(0, 2), switch_states=(1, 0),
            decision=0, correct=True)


def reference_batch(alpha, params, cfg, rng, n_trials):
    """The copy step as per-trial float arrays, the form the per-copy rates replaced."""
    model = cfg.model
    resolution = model.resolution
    eta, nu, xi = model.eta, model.nu, model.xi
    hypothesis = rng.integers(0, 2, size=n_trials)
    sign = 2.0 * hypothesis - 1.0
    if cfg.receiver is Receiver.HFFRE:
        tau, z = params.tau, params.z
        reflected = -math.sqrt(max(0.0, 1.0 - tau)) * alpha * sign
        base = reflected * reflected + z * z
        cross = 2.0 * xi * z * reflected
        n_raw = rng.poisson(eta * 0.5 * (base + cross) + nu)
        m_raw = rng.poisson(eta * 0.5 * (base - cross) + nu)
        delta = np.minimum(n_raw, resolution) - np.minimum(m_raw, resolution)
        switch = (delta < 0).astype(np.int64)
        amplitude = math.sqrt(tau) * alpha
    else:
        delta = None
        switch = np.zeros(n_trials, dtype=np.int64)
        amplitude = alpha
    zeta = sign * (amplitude / math.sqrt(cfg.n_copies))
    counts_log = np.empty((cfg.n_copies, n_trials), dtype=np.int64)
    switch_log = np.empty((cfg.n_copies, n_trials), dtype=np.int64)
    for j, beta in enumerate(params.betas):
        signed_beta = (1.0 - 2.0 * switch) * beta
        rate = eta * (zeta * zeta + beta * beta + 2.0 * xi * zeta * signed_beta) + nu
        counts = np.minimum(rng.poisson(rate), resolution)
        switch = switch ^ (counts >= params.n_th)
        counts_log[j] = counts
        switch_log[j] = switch
    errors = int(np.count_nonzero(switch != hypothesis))
    return errors, (hypothesis, delta, counts_log, switch_log, switch)


class RecordingRng:
    """Forwards to a generator and keeps every call it is given."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def integers(self, *args, **kwargs):
        self.calls.append(("integers", args, kwargs))
        return self.rng.integers(*args, **kwargs)

    def poisson(self, lam):
        self.calls.append(("poisson", np.array(lam, dtype=float)))
        return self.rng.poisson(lam)


class TestAgainstReferenceBatch:
    # Every element of the reference's rate array is one of the two per-copy
    # rates, bit for bit, so both forms make the same rng calls with the
    # same rate arrays and draw the same trials from one stream.
    @pytest.mark.parametrize("index", range(len(STREAM_PINS)))
    def test_same_trials(self, index):
        receiver, n, model, n_th, alpha, betas, _ = STREAM_PINS[index]
        model = DetectorModel(3, model.eta, model.nu, model.xi)
        params = ReceiverParams(tau=0.7, z=0.9, betas=betas, n_th=n_th)
        cfg = FeedForwardConfig(n, model, Receiver[receiver])
        spec = RngSpec(500 + index)
        mine, theirs = RecordingRng(spec.generator()), RecordingRng(spec.generator())
        got = _simulate_batch(alpha, params, cfg, mine, 20_000, collect=True)
        want = reference_batch(alpha, params, cfg, theirs, 20_000)
        assert len(mine.calls) == len(theirs.calls)
        for call, reference in zip(mine.calls, theirs.calls):
            assert call[0] == reference[0]
            if call[0] == "poisson":
                assert np.array_equal(call[1], reference[1])
            else:
                assert call[1:] == reference[1:]
        assert got[0] == want[0]
        for array, reference in zip(got[1], want[1]):
            assert (array is None and reference is None) or np.array_equal(array, reference)
        assert _simulate_batch(alpha, params, cfg, spec.generator(), 20_000)[0] == want[0]


class TestChunkedBatch:
    # Each stage is drawn in chunks of CHUNK trials, in order, so a batch of
    # several chunks ending in a partial one draws the same trials as one
    # whole-batch call per stage.
    @pytest.mark.parametrize("chunk", [None, 331], ids=["CHUNK", "331"])
    @pytest.mark.parametrize("alpha", [0.9, 4.0])  # copy rates below and above 10
    @pytest.mark.parametrize("receiver", ["DFFRE", "HFFRE"])
    def test_same_trials_as_reference(self, monkeypatch, receiver, alpha, chunk):
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "CHUNK", chunk)
        n_trials = 2 * montecarlo.CHUNK + 977
        assert n_trials % montecarlo.CHUNK != 0
        model = DetectorModel(3, eta=0.7, nu=1e-3, xi=0.998)
        params = ReceiverParams(tau=0.7, z=0.9, betas=(1.0, 1.5, 2.0), n_th=2)
        cfg = FeedForwardConfig(3, model, Receiver[receiver])
        spec = RngSpec(90)
        got = _simulate_batch(alpha, params, cfg, spec.generator(), n_trials, collect=True)
        want = reference_batch(alpha, params, cfg, spec.generator(), n_trials)
        assert got[0] == want[0]
        for array, reference in zip(got[1], want[1]):
            assert (array is None and reference is None) or np.array_equal(array, reference)
        assert _simulate_batch(alpha, params, cfg, spec.generator(), n_trials)[0] == want[0]


class TestDrawsAtAnalyticRates:
    # The simulation draws at the analytic layers' own rates: the HL detectors
    # at _hl_rates of the tap's reflected amplitude, each copy at _copy_rates
    # of one copy of amplitude c = amplitude / sqrt(N), each clamped at 0. So a
    # change to either formula reaches the simulation by construction.
    @pytest.mark.parametrize("index", range(len(STREAM_PINS)))
    def test_every_poisson_rate(self, index):
        receiver, n, model, n_th, alpha, betas, _ = STREAM_PINS[index]
        tau, z = (1.0, 0.0) if receiver == "DFFRE" else (0.9, 1.1)
        params = ReceiverParams(tau=tau, z=z, betas=betas, n_th=n_th)
        cfg = FeedForwardConfig(n, model, Receiver[receiver])
        n_trials = montecarlo.CHUNK + 977
        rng = RecordingRng(RngSpec(1000 + index).generator())
        _simulate_batch(alpha, params, cfg, rng, n_trials)

        stages = []  # the rate pair of each stage, in the order drawn
        if receiver == "HFFRE":
            pair = _hl_rates(_tap_amplitude(alpha, tau), z, model)
            stages += [pair, pair]
            amplitude = math.sqrt(tau) * alpha
        else:
            amplitude = alpha
        copy_rates = _copy_rates(amplitude / math.sqrt(n), 1, model)
        stages += [copy_rates(beta) for beta in betas]
        draws = [call[1] for call in rng.calls if call[0] == "poisson"]
        per_stage = -(-n_trials // montecarlo.CHUNK)
        assert len(draws) == per_stage * len(stages)
        for k, lam in enumerate(draws):
            allowed = {max(float(rate), 0.0) for rate in stages[k // per_stage]}
            assert set(np.unique(lam).tolist()) <= allowed


class TestBetaRule:
    # One beta rule, feedforward._check_beta, for the simulation and the
    # recursion; the simulation names the beta by its index.
    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf, np.float64(-1.0)],
                             ids=["-1.0", "nan", "inf", "np.float64(-1.0)"])
    def test_one_rule_one_message(self, beta):
        params = ReceiverParams(tau=0.5, z=1.0, betas=(beta,), n_th=1)
        for run, name in (
                (lambda: estimate_error(1.0, params, hffre_cfg(1), 10_000, RngSpec(1)), "betas[0]"),
                (lambda: simulate_trial(1.0, params, hffre_cfg(1), RngSpec(1).generator()),
                 "betas[0]"),
                (lambda: correct_probability_trace(1.0, (beta,), IDEAL2), "beta")):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == f"{name} must be >= 0 and finite, got {beta!r}"


class TestNonFiniteRates:
    # A rate that overflows is neither drawn nor masked: inf, and the NaN of
    # inf - inf, pass the max(rate, 0.0) clamp and the per-trial pick of the
    # rate, and rng.poisson rejects them.
    @pytest.mark.parametrize("receiver, alpha, z, beta", [
        ("DFFRE", 1e200, 0.0, 0.5),  # both copy rates inf
        ("DFFRE", 1e200, 0.0, 1e200),  # added inf, nulled inf - inf
        ("HFFRE", 1e200, 0.5, 0.5),  # both HL rates inf
        ("HFFRE", 1.0, 1e200, 0.5),  # the local oscillator overflows
    ], ids=["dffre-alpha", "dffre-alpha-beta", "hffre-alpha", "hffre-z"])
    def test_poisson_raises(self, receiver, alpha, z, beta):
        tau = 1.0 if receiver == "DFFRE" else 0.9
        params = ReceiverParams(tau=tau, z=z, betas=(beta, beta), n_th=1)
        cfg = FeedForwardConfig(2, IDEAL2, Receiver[receiver])
        with pytest.raises(ValueError, match="lam value too large"):
            estimate_error(alpha, params, cfg, 10_000, RngSpec(1))
        rng = RecordingRng(RngSpec(1).generator())
        with pytest.raises(ValueError, match="lam value too large"):
            simulate_trial(alpha, params, cfg, rng)
        assert rng.calls[-1][0] == "poisson"
        assert not np.isfinite(rng.calls[-1][1]).any()

    @pytest.mark.parametrize("seed, hypothesis, rate", [(1, 0, math.nan), (0, 1, math.inf)])
    def test_nan_rate_reaches_poisson(self, seed, hypothesis, rate):
        # The switch starts at 0, so the first copy nulls the signal when 0
        # was sent, at c^2 + beta^2 - 2 c beta = inf - inf, and adds to it
        # otherwise.
        assert RngSpec(seed).generator().integers(0, 2, size=1)[0] == hypothesis
        params = ReceiverParams(tau=1.0, z=0.0, betas=(1e200,), n_th=1)
        rng = RecordingRng(RngSpec(seed).generator())
        with pytest.raises(ValueError, match="lam value too large"):
            simulate_trial(1e200, params, dffre_cfg(1), rng)
        assert [call[0] for call in rng.calls] == ["integers", "poisson"]
        np.testing.assert_array_equal(rng.calls[1][1], [rate])


class TestBatchMemory:
    # Only chunk-sized arrays and a few per-trial booleans and small integers
    # live through a batch; whole-batch float64 and int64 arrays of
    # BATCH_SIZE trials peaked at 6.4 MiB (DFFRE N=10) and 4.6 MiB (HFFRE N=1).
    @pytest.mark.parametrize("receiver, n", [("DFFRE", 10), ("HFFRE", 1)])
    def test_traced_peak_of_one_batch(self, receiver, n):
        cfg = FeedForwardConfig(n, DetectorModel(2, nu=1e-3), Receiver[receiver])
        tau, z = (1.0, 0.0) if receiver == "DFFRE" else (0.9, 1.1)
        params = ReceiverParams(tau=tau, z=z, betas=(0.8,) * n, n_th=1)
        _simulate_batch(1.0, params, cfg, RngSpec(3).generator(), 1)  # any one-time set-up
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _simulate_batch(1.0, params, cfg, RngSpec(3).generator(), BATCH_SIZE)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2.5 * 2**20


M2_MODELS = [DetectorModel(2), DetectorModel(2, eta=0.7), DetectorModel(2, nu=1e-3),
             DetectorModel(2, xi=0.998)]
M2_IDS = ["ideal", "eta0.7", "nu1e-3", "xi0.998"]


def serial_errors(alpha, params, cfg, trials, spec):
    """The estimate's error count with its batches run one after another."""
    sizes = [min(BATCH_SIZE, trials - done) for done in range(0, trials, BATCH_SIZE)]
    return sum(_simulate_batch(alpha, params, cfg, spec.generator(b), size)[0]
               for b, size in enumerate(sizes))


def concurrent_case(receiver, model):
    """(alpha, params, cfg) of a two-copy receiver."""
    tau, z = (1.0, 0.0) if receiver == "DFFRE" else (0.8, 1.0)
    params = ReceiverParams(tau=tau, z=z, betas=(0.6, 0.8), n_th=1)
    return 0.9, params, FeedForwardConfig(2, model, Receiver[receiver])


class TestConcurrentBatches:
    # 1, 2 and 5 batches
    TRIALS = [10_000, BATCH_SIZE + 17, 4 * BATCH_SIZE + 17]

    @pytest.mark.parametrize("trials", TRIALS)
    @pytest.mark.parametrize("receiver", ["DFFRE", "HFFRE"])
    @pytest.mark.parametrize("model", M2_MODELS, ids=M2_IDS)
    def test_equals_serial_sum(self, trials, receiver, model):
        alpha, params, cfg = concurrent_case(receiver, model)
        spec = RngSpec(71)
        p_hat, _ = estimate_error(alpha, params, cfg, trials, spec)
        assert p_hat == serial_errors(alpha, params, cfg, trials, spec) / trials

    @pytest.mark.parametrize("workers", [None, 1, 3, 8])
    def test_worker_count_does_not_change_estimate(self, monkeypatch, workers):
        # The host's own CPU count (None), then more workers than cores with
        # frequent thread switches; one worker runs every batch in the
        # calling thread.
        alpha, params, cfg = concurrent_case("HFFRE", DetectorModel(2, nu=1e-3))
        trials, spec = 4 * BATCH_SIZE + 17, RngSpec(72)
        expected = estimate_error(alpha, params, cfg, trials, spec)
        assert expected[0] == serial_errors(alpha, params, cfg, trials, spec) / trials
        simulate, live, before = montecarlo._simulate_batch, [], threading.active_count()

        def counting(*args):
            live.append(threading.active_count())
            return simulate(*args)

        if workers is None:
            affinity = hasattr(os, "sched_getaffinity")
            workers = len(os.sched_getaffinity(0)) if affinity else os.cpu_count() or 1
        else:
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(montecarlo, "_simulate_batch", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = estimate_error(alpha, params, cfg, trials, spec)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert len(live) == 5
        assert max(live) <= before + min(5, workers) - 1  # the calling thread is a worker
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_failed_batch_raises_and_threads_are_joined(self, monkeypatch, workers):
        alpha, params, cfg = concurrent_case("DFFRE", IDEAL2)
        spec = RngSpec(73)
        states = {b: spec.generator(b).bit_generator.state for b in range(5)}
        simulate, before = montecarlo._simulate_batch, threading.active_count()
        batch_4_failed = threading.Event()

        def failing(alpha, params, cfg, rng, n_trials):
            state = rng.bit_generator.state
            if state == states[4]:
                batch_4_failed.set()
                raise RuntimeError("batch 4")
            if state == states[2]:
                # With several workers, batch 4 fails first; batch 2's error still wins.
                batch_4_failed.wait(timeout=30 if workers > 1 else 0)
                raise ArithmeticError("batch 2")
            return simulate(alpha, params, cfg, rng, n_trials)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(montecarlo, "_simulate_batch", failing)
        with pytest.raises(ArithmeticError, match="^batch 2$"):
            estimate_error(alpha, params, cfg, 4 * BATCH_SIZE + 17, spec)
        assert batch_4_failed.is_set() == (workers > 1)
        assert threading.active_count() == before
