"""Feed-forward recursions: hand values, reductions, orderings, saturation floors."""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy.stats import poisson

from bpskrx.baselines import helstrom_bound, hynore_error, kennedy_error, sql_error
from bpskrx.feedforward import (
    FeedForwardConfig,
    Receiver,
    correct_probability_trace,
    dffre_error,
    gain,
    hffre_error,
    hffre_error_at,
    ratio,
    saturation_dark,
    saturation_visibility,
    step_correct_prob,
    step_rates,
    switch_conditional_traces,
)
import bpskrx.feedforward as feedforward
import bpskrx.photostatistics as photostatistics
from bpskrx.feedforward import (
    BETA_COARSE_POINTS,
    BETA_MARGIN,
    BETA_TOL,
    _coarse_step,
    _flip_tables,
    _flips,
    _hl_minimum,
    _hybrid_at,
    _hybrid_error_batch,
    _step_objective,
)
from bpskrx.optimize import (
    COARSE_BLOCK,
    ScalarSearchSpec,
    coarse_abscissae,
    maximize_grid_searches,
    maximize_scalar,
    scan_discrete,
)
from bpskrx.photostatistics import DetectorModel, hl_sign_error, q_above_below_rows, q_thresh

IDEAL2 = DetectorModel(2)
DARK2 = DetectorModel(2, nu=1e-3)


def cfg(n, model=IDEAL2, receiver=Receiver.DFFRE):
    return FeedForwardConfig(n, model, receiver)


def hl_error(alpha, tau, z, model):
    """The HL pre-measurement error e0 at every (tau, z)."""
    return hl_sign_error(feedforward._tap_amplitude(alpha, tau), z, model)


def same_bits(a, b):
    """Equal shapes and equal floats bit for bit, the sign of a zero included."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestStepRates:
    def test_ideal_reduces_to_squared_sum(self):
        rates = step_rates(0.7, 1.2, 4)
        assert rates.lambda_plus == pytest.approx((0.7 + 1.2 / 2) ** 2, rel=1e-13, abs=0.0)
        assert rates.lambda_minus == pytest.approx((0.7 - 1.2 / 2) ** 2, rel=1e-13, abs=1e-15)

    def test_visibility_cross_term(self):
        rates = step_rates(0.5, 1.0, 1, xi=0.9)
        assert rates.lambda_plus == pytest.approx(1.0 + 0.25 + 2 * 0.9 * 0.5, rel=1e-13, abs=0.0)
        assert rates.lambda_minus == pytest.approx(1.0 + 0.25 - 2 * 0.9 * 0.5, rel=1e-13, abs=0.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            step_rates(-0.1, 1.0, 1)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            step_rates(math.nan, 1.0, 1)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            correct_probability_trace(1.0, (math.nan,), IDEAL2)

    # n_copies must be an integer >= 1 (a bool is no count); the amplitude
    # finite and >= 0, the rule of alpha
    BAD_COPIES = [0, -1, 2.5, 1.0, True, None]
    BAD_AMPLITUDES = [math.nan, math.inf, -math.inf, -0.1]

    @pytest.mark.parametrize("n_copies", BAD_COPIES)
    def test_bad_copies_rejected(self, n_copies):
        message = rf"n_copies must be an integer >= 1, got {re.escape(repr(n_copies))}$"
        with pytest.raises(ValueError, match=message):
            step_rates(0.4, 1.0, n_copies)
        with pytest.raises(ValueError, match=message):
            step_correct_prob(0.5, 0.4, 1.0, n_copies, IDEAL2)

    @pytest.mark.parametrize("amplitude", BAD_AMPLITUDES)
    @pytest.mark.parametrize("n_th", [1, 2])
    def test_bad_amplitude_rejected(self, amplitude, n_th):
        message = "amplitude must be"
        with pytest.raises(ValueError, match=message):
            step_rates(0.4, amplitude, 1)
        with pytest.raises(ValueError, match=message):
            step_correct_prob(0.5, 0.4, amplitude, 1, DetectorModel(2, nu=1e-3), n_th)
        with pytest.raises(ValueError, match=message):
            correct_probability_trace(1.0, [0.4], IDEAL2, n_th, amplitude=amplitude)

    def test_numpy_copies_and_amplitude_accepted(self):
        assert step_rates(0.4, np.float64(1.0), np.int64(4)) == step_rates(0.4, 1.0, 4)
        assert (step_correct_prob(0.5, 0.4, np.float64(1.0), np.int64(4), IDEAL2)
                == step_correct_prob(0.5, 0.4, 1.0, 4, IDEAL2))

    @pytest.mark.parametrize("xi", [3.0, 0.0, -0.5, math.nan])
    def test_bad_visibility_rejected(self, xi):
        # xi = 3 gave lambda_minus = -1.24, and NaN gave NaN rates.
        with pytest.raises(ValueError, match=r"xi must be in \(0, 1\], got "):
            step_rates(0.4, 1.0, 1, xi=xi)

    @pytest.mark.parametrize("p_initial", [2.0, -0.1, math.nan])
    def test_bad_initial_probability_rejected(self, p_initial):
        # p_initial = 2 gave the trace (2.0, 0.536), and NaN gave (nan, nan).
        with pytest.raises(ValueError, match=r"p_initial must be in \[0, 1\], got "):
            correct_probability_trace(1.0, [0.4], DetectorModel(2), p_initial=p_initial)

    @pytest.mark.parametrize("n_th", [1, 2])
    def test_infinite_beta_rejected(self, n_th):
        message = "beta must be >= 0 and finite, got inf"
        with pytest.raises(ValueError, match=message):
            step_rates(math.inf, 1.0, 1)
        with pytest.raises(ValueError, match=message):
            correct_probability_trace(1.0, (math.inf,), IDEAL2, n_th=n_th)
        with pytest.raises(ValueError, match=message):
            step_correct_prob(0.5, math.inf, 1.0, 1, IDEAL2, n_th=n_th)


class TestStepCorrectProb:
    def test_nulling_keeps_certainty(self):
        # beta equal to the per-copy amplitude nulls the dark branch.
        assert step_correct_prob(1.0, 0.5, 1.0, 4, IDEAL2) == 1.0

    def test_no_signal_no_information(self):
        assert step_correct_prob(0.5, 0.0, 0.0, 1, IDEAL2) == 0.5

    def test_hand_value(self):
        # 0.5 e^-0.04 + 0.5 (1 - e^-1) at per-copy amplitude 0.4, beta 0.6
        value = step_correct_prob(0.5, 0.6, 0.4, 1, IDEAL2)
        assert value == pytest.approx(0.79645, abs=1e-4)
        assert value == pytest.approx(0.5 * math.exp(-0.04) + 0.5 * (1 - math.exp(-1.0)), abs=1e-15)

    def test_efficiency_is_amplitude_rescaling(self):
        # eta-scaled rates equal ideal rates with both amplitudes scaled by sqrt(eta)
        eta = 0.7
        s = math.sqrt(eta)
        lossy = step_correct_prob(0.8, 0.6, 1.1, 2, DetectorModel(2, eta=eta))
        ideal = step_correct_prob(0.8, s * 0.6, s * 1.1, 2, IDEAL2)
        assert lossy == pytest.approx(ideal, rel=1e-12, abs=0.0)

    def test_threshold_with_dark_counts(self):
        model = DetectorModel(2, nu=1e-3)
        rates = step_rates(0.9, 1.0, 1)
        expected = 0.4 * poisson.cdf(1, rates.lambda_minus + 1e-3) + 0.6 * poisson.sf(
            1, rates.lambda_plus + 1e-3
        )
        assert step_correct_prob(0.4, 0.9, 1.0, 1, model, n_th=2) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            step_correct_prob(1.5, 0.1, 1.0, 1, IDEAL2)
        with pytest.raises(ValueError):
            step_correct_prob(0.5, 0.1, 1.0, 1, IDEAL2, n_th=3)  # above resolution


class TestTraces:
    def test_trace_matches_manual_loop(self):
        betas = (0.9, 0.4, 0.7)
        trace = correct_probability_trace(1.0, betas, IDEAL2)
        p = 0.5
        for beta in betas:
            p = step_correct_prob(p, beta, 1.0, 3, IDEAL2)
        assert trace[-1] == pytest.approx(p, abs=1e-15)
        assert len(trace) == 4

    def test_switch_traces_initial_conditions(self):
        p00, p11 = switch_conditional_traces(1.0, (0.5, 0.5))
        assert p00[0] == 1.0
        assert p11[0] == 0.0

    def test_switch_traces_symmetric_no_signal(self):
        p00, p11 = switch_conditional_traces(0.0, (0.0, 0.0, 0.0))
        mean = 0.5 * (p00 + p11)
        assert np.allclose(mean, 0.5, atol=1e-15)

    def test_mean_of_conditional_traces_equals_scalar_recursion(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            alpha = float(rng.uniform(0.1, 2.0))
            betas = tuple(float(b) for b in rng.uniform(0.0, 2.0, size=4))
            p00, p11 = switch_conditional_traces(alpha, betas)
            trace = correct_probability_trace(alpha, betas, IDEAL2)
            assert np.max(np.abs(0.5 * (p00 + p11) - np.asarray(trace))) <= 1e-12

    def test_optimized_trace_consistent_with_fixed_beta_trace(self):
        # The internal error-space recursion and the public correct-probability
        # recursion must agree when replayed on the optimized displacements.
        result = dffre_error(math.sqrt(0.5), cfg(3))
        replay = correct_probability_trace(math.sqrt(0.5), result.params.betas, IDEAL2)
        assert np.max(np.abs(np.asarray(replay) - np.asarray(result.per_step_correct))) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_nulling_displacements_at_two_thresholds(self, n):
        # at the nulling displacement alpha / sqrt(N) the minus rate cancels
        # to rounding noise, at some alpha below 0: the step takes it as
        # given at n_th = 2, as at n_th = 1
        below = 0
        for alpha in (np.arange(1, 2000) * 0.01).tolist():
            null = alpha / math.sqrt(n)
            below += step_rates(null, alpha, n).lambda_minus < 0.0
            trace = correct_probability_trace(alpha, (null,) * n, IDEAL2, n_th=2)
            assert len(trace) == n + 1 and all(0.0 <= p <= 1.0 for p in trace), alpha
            assert 0.0 <= step_correct_prob(0.7, null, alpha, n, IDEAL2, n_th=2) <= 1.0, alpha
        assert below > 0

    @pytest.mark.parametrize("alpha2, n, model", [
        (4.0, 10, IDEAL2),
        (1.0, 10, DetectorModel(2, eta=0.7)),
        (4.0, 5, DetectorModel(4, nu=1e-3)),  # optimal n_th = 2
    ])
    def test_fixed_beta_replay_is_exact(self, alpha2, n, model):
        # The public trace runs the optimized recursion's own step, so a
        # replay of its displacements at its threshold repeats it bit for bit.
        alpha = math.sqrt(alpha2)
        result = dffre_error(alpha, cfg(n, model))
        replay = correct_probability_trace(alpha, result.params.betas, model, result.params.n_th)
        assert replay == result.per_step_correct


class TestDffre:
    def test_degenerate_signal(self):
        result = dffre_error(0.0, cfg(3))
        assert result.p_err == 0.5
        assert result.params == result.params.__class__(tau=1.0, z=0.0, betas=(0.0,) * 3, n_th=1)
        assert result.per_step_correct == (0.5,) * 4

    def test_receiver_mismatch(self):
        with pytest.raises(ValueError):
            dffre_error(1.0, cfg(1, receiver=Receiver.HFFRE))

    def test_single_copy_beats_kennedy_and_respects_helstrom(self):
        for alpha2 in (0.1, 1.0, 4.0):
            alpha = math.sqrt(alpha2)
            result = dffre_error(alpha, cfg(1))
            assert helstrom_bound(alpha) <= result.p_err <= kennedy_error(alpha) + 1e-12

    def test_beats_sql_for_all_energies_with_many_copies(self):
        for alpha2 in (0.05, 0.2, 1.0, 4.0):
            alpha = math.sqrt(alpha2)
            assert dffre_error(alpha, cfg(10)).p_err <= sql_error(alpha)

    def test_trace_non_decreasing_ideal(self):
        result = dffre_error(0.8, cfg(5))
        trace = result.per_step_correct
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert result.p_err == pytest.approx(1.0 - trace[-1], abs=1e-15)

    def test_beta_path_near_nulling_at_high_energy(self):
        result = dffre_error(2.0, cfg(1))
        assert result.params.betas[0] == pytest.approx(2.0, abs=5e-3)

    def test_threshold_selected_under_dark_counts(self):
        result = dffre_error(2.0, cfg(1, DetectorModel(2, nu=1e-3)))
        assert result.params.n_th == 2
        # exact N=1 optimum from an independent dense beta scan
        assert result.p_err == pytest.approx(1.181343e-06, rel=1e-4)

    def test_threshold_jumps_with_energy_under_dark_counts(self):
        # on/off stays optimal at low energy; the threshold climbs to the
        # full resolution once the bright branch separates clearly
        dark = DetectorModel(2, nu=1e-3)
        assert dffre_error(math.sqrt(0.1), cfg(1, dark)).params.n_th == 1
        assert dffre_error(2.0, cfg(1, dark)).params.n_th == 2

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            dffre_error(-1.0, cfg(1))


class TestHffre:
    def test_degenerate_signal(self):
        result = hffre_error(0.0, cfg(2, receiver=Receiver.HFFRE))
        assert result.p_err == 0.5

    def test_receiver_mismatch(self):
        with pytest.raises(ValueError):
            hffre_error(1.0, cfg(1))

    def test_between_helstrom_and_dffre(self):
        alpha = 1.0
        hybrid = hffre_error(alpha, cfg(1, receiver=Receiver.HFFRE))
        disp = dffre_error(alpha, cfg(1))
        assert helstrom_bound(alpha) <= hybrid.p_err <= disp.p_err + 1e-9

    def test_full_transmission_reduces_to_dffre(self):
        for model in (IDEAL2, DetectorModel(2, nu=1e-3), DetectorModel(2, xi=0.998)):
            fixed = hffre_error_at(1.0, cfg(2, model, Receiver.HFFRE), tau=1.0, z=0.0)
            disp = dffre_error(1.0, cfg(2, model))
            assert fixed.p_err == pytest.approx(disp.p_err, abs=1e-12)
            assert fixed.params.betas == pytest.approx(disp.params.betas, abs=1e-12)

    def test_reports_consistent_trace(self):
        result = hffre_error(0.7, cfg(1, receiver=Receiver.HFFRE))
        assert result.p_err == pytest.approx(1.0 - result.per_step_correct[-1], abs=1e-15)
        assert 0.0 <= result.params.tau <= 1.0
        assert result.params.z >= 0.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("z", [math.nan, math.inf, -1.0])
    def test_bad_oscillator_rejected(self, alpha, z):
        # checked before the alpha = 0 shortcut, by the rule of every rate
        with pytest.raises(ValueError, match=re.escape(f"z must be finite and >= 0, got {z!r}")):
            hffre_error_at(alpha, cfg(1, receiver=Receiver.HFFRE), 0.5, z)

    @pytest.mark.parametrize("alpha2, n, model", [(1.0, 2, IDEAL2), (3.0, 1, DARK2),
                                                  (2.0, 5, DARK2), (8.0, 2, DetectorModel(2, xi=0.998))])
    def test_oscillator_at_an_end_of_the_hl_error(self, alpha2, n, model):
        # z is z*(tau), where e0 is smallest, or 0, where e0 = 1/2
        alpha = math.sqrt(alpha2)
        result = hffre_error(alpha, cfg(n, model, Receiver.HFFRE))
        tau = np.array([result.params.tau])
        assert result.params.z in (_hl_minimum(alpha, model)(tau)[0][0], 0.0)

    def test_dominance_with_two_copies(self):
        alpha = math.sqrt(0.5)
        hybrid = hffre_error(alpha, cfg(2, receiver=Receiver.HFFRE))
        disp = dffre_error(alpha, cfg(2))
        assert helstrom_bound(alpha) <= hybrid.p_err <= disp.p_err + 1e-9 <= 0.5

    def test_dominance_and_sql_beating_with_five_copies(self):
        for alpha2 in (0.1, 1.0):
            alpha = math.sqrt(alpha2)
            hybrid = hffre_error(alpha, cfg(5, receiver=Receiver.HFFRE))
            disp = dffre_error(alpha, cfg(5))
            assert helstrom_bound(alpha) <= hybrid.p_err <= disp.p_err + 1e-9 <= 0.5
            assert hybrid.p_err <= sql_error(alpha) and disp.p_err <= sql_error(alpha)

    def test_hl_minimum_makes_no_sign_error_call(self, monkeypatch):
        # e0 at z = 0 is the first column of the z search's scan, so neither
        # hybrid receiver's tau search evaluates the HL error on its own
        def forbidden(*args):
            raise AssertionError("hl_sign_error called")

        monkeypatch.setattr(feedforward, "hl_sign_error", forbidden)
        tau = np.linspace(0.0, 1.0, 41)
        assert _hl_minimum(1.0, DARK2)(tau).shape == (3, tau.size)
        hynore_error(1.0, 2)


# (tau, z, n_th, betas, p_err) of the tau search with z at the HL error's
# minimum, as repr literals; each equals hffre_error_at at its (tau, z).
PINNED_HFFRE = [
    (0.4, 1, IDEAL2, ("0.9163223266601562", "1.3619761548452605", 1,
                      ("0.7384641249189178",), "0.07211906631879311")),
    (1.0, 2, DetectorModel(2, eta=0.7), ("0.9610453796386719", "1.6265383082538263", 1,
                                         ("0.8726096607958467", "0.7245354364282679"),
                                         "0.020891826315804888")),
    (3.0, 1, DARK2, ("0.9791648864746095", "1.3673320477423094", 2,
                     ("1.75651885222432",), "2.7761210556401667e-05")),
    # A near-tie the lockstep alone breaks differently: without the
    # settlement the search picks tau = 0.9913987731933593, 1.0e-17 worse.
    (6.260516572014826, 2, DARK2, ("0.9914010620117187", "1.365770150239701", 2,
                                   ("1.7957551339453584", "1.7616332227844866"),
                                   "5.005472546238615e-07")),
    (4.437690356997562, 1, DetectorModel(4, nu=1e-3), ("1.0", "0.0", 2, ("2.1080248049001353",),
                                                       "4.318084976038311e-07")),
    # The one row where the untapped oscillator (z = 0, e0 = 1/2 up to
    # rounding) wins below tau = 1: it pins the z = 0 end of the search.
    (16.0, 1, DetectorModel(2, xi=0.9), ("0.10223770141601565", "0.0", 2, ("1.278984085192213",),
                                         "0.028785517893450602")),
]
PINNED_HYNORE = [
    (0.05, ("0.0", "1.3649542192390518", "0.34469702507462313")),
    (3.0, ("0.9799562072753906", "1.3667815260872613", "2.583373874106418e-06")),
]
# (tau, z, n_th, betas, p_err) at alpha2 = 1, N = 1, nu = 1e-3 above M = 4, as
# repr literals; at M = 64 z* is the end of the oscillator box, 5 + 4 alpha.
PINNED_HFFRE_HIGH_M = [
    (8, ("0.9302261352539062", "2.8993441513184433", 1, ("0.9834296539349598",),
         "0.007730624658608264")),
    (64, ("0.9251457214355469", "9.0", 1, ("0.9803165412015328",), "0.007669061281055396")),
]


class TestBatchedSearch:
    @pytest.mark.parametrize("alpha2", [0.05, 1.0, 5.0])
    @pytest.mark.parametrize("model, n_th", [(IDEAL2, 1), (DARK2, 1), (DARK2, 2)])
    def test_round_zero_grid_matches_scalar_recursion(self, alpha2, model, n_th):
        # Equal up to last-bit differences of np.exp and math.exp; the
        # absolute part is the resolution of the 1 - q0 tail at n_th = 2.
        alpha = math.sqrt(alpha2)
        c = cfg(2, model, Receiver.HFFRE)
        tau, z = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 5.0 + 4.0 * alpha, 41),
                             indexing="ij")
        tau, z = tau.ravel(), z.ravel()
        batch = _hybrid_error_batch(alpha, c)(tau, hl_error(alpha, tau, z, model),
                                              np.full(tau.size, n_th))
        scalar = [-_hybrid_at(alpha, c, t, osc, (n_th,)).p_err
                  for t, osc in zip(tau.tolist(), z.tolist())]
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("alpha2, n, model, expected", PINNED_HFFRE)
    def test_hffre_pinned_to_scalar_search(self, alpha2, n, model, expected):
        result = hffre_error(math.sqrt(alpha2), cfg(n, model, Receiver.HFFRE))
        p = result.params
        got = (repr(p.tau), repr(p.z), p.n_th, tuple(repr(b) for b in p.betas), repr(result.p_err))
        assert got == expected

    # two thresholds in one lockstep; the near-tie row also runs the settlement
    @pytest.mark.parametrize("alpha2, n, model, expected", PINNED_HFFRE[2:4])
    def test_lockstep_steps_without_the_float_objective(self, alpha2, n, model, expected,
                                                        monkeypatch):
        # every lockstep value is _coarse_step over _flips: the float step
        # objective serves only the scalar recursions of the settlement and
        # of the final replay, which the pinned row still reproduces
        objective, scalar = feedforward._step_objective, []

        def scalar_only(amplitude, *args):
            if isinstance(amplitude, np.ndarray):
                raise AssertionError("the lockstep called _step_objective")
            scalar.append(amplitude)
            return objective(amplitude, *args)

        monkeypatch.setattr(feedforward, "_step_objective", scalar_only)
        self.test_hffre_pinned_to_scalar_search(alpha2, n, model, expected)
        assert scalar

    @pytest.mark.parametrize("m, expected", PINNED_HFFRE_HIGH_M)
    def test_hffre_pinned_above_m4(self, m, expected):
        result = hffre_error(1.0, cfg(1, DetectorModel(m, nu=1e-3), Receiver.HFFRE))
        p = result.params
        got = (repr(p.tau), repr(p.z), p.n_th, tuple(repr(b) for b in p.betas), repr(result.p_err))
        assert got == expected

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 64])
    @pytest.mark.parametrize("model_of", [lambda m: DetectorModel(m),
                                          lambda m: DetectorModel(m, nu=1e-3),
                                          lambda m: DetectorModel(m, eta=0.7, xi=0.998)],
                             ids=["ideal", "nu", "eta-xi"])
    def test_hl_minimum_error_is_the_pre_measurement_error(self, m, model_of):
        # both e0 the tau searches read from the memo, at z*(tau) and at
        # z = 0, are the HL error there, bit for bit, tau = 1 included; a
        # 2-D tau gets the same values in its own shape
        model = model_of(m)
        tau = np.concatenate(([1.0, 0.0], np.linspace(0.0, 1.0, 41)[1:-1], [0.9999999]))
        for alpha2 in (0.05, 1.0, 5.0, 30.0):
            alpha = math.sqrt(alpha2)
            values = _hl_minimum(alpha, model)(tau)
            z_star, e0_star, e0_zero = values
            assert same_bits(e0_star, hl_error(alpha, tau, z_star, model))
            assert same_bits(e0_zero, hl_error(alpha, tau, np.zeros_like(tau), model))
            grid = tau.reshape(2, -1)
            assert same_bits(_hl_minimum(alpha, model)(grid), values.reshape(3, *grid.shape))

    @pytest.mark.parametrize("alpha2, expected", PINNED_HYNORE)
    def test_hynore_pinned_to_scalar_search(self, alpha2, expected):
        result = hynore_error(math.sqrt(alpha2), 2)
        assert (repr(result.params.tau), repr(result.params.z), repr(result.p_err)) == expected

    @staticmethod
    def dense_grid_optimum(alpha2, n, model):
        """The smallest lockstep value on the 401 x 401 grid over the (tau, z)
        box and on every click threshold: an oracle blind to how z acts."""
        alpha = math.sqrt(alpha2)
        c = cfg(n, model, Receiver.HFFRE)
        taus = np.arange(401) / 400
        zs = (5.0 + 4.0 * alpha) * np.arange(401) / 400
        thresholds = (1,) if model.nu == 0.0 and model.xi == 1.0 else (1, 2)
        dense = math.inf
        for n_th in thresholds:
            objective = _hybrid_error_batch(alpha, c)
            for rows in np.array_split(taus, 20):
                tau, z = np.meshgrid(rows, zs, indexing="ij")
                tau, z = tau.ravel(), z.ravel()
                dense = min(dense, -float(objective(tau, hl_error(alpha, tau, z, model),
                                                      np.full(tau.size, n_th)).max()))
        return hffre_error(alpha, c).p_err, dense

    @pytest.mark.parametrize("model", [IDEAL2, DetectorModel(2, eta=0.7), DARK2,
                                       DetectorModel(2, xi=0.998)])
    def test_hffre_against_dense_grid_oracle(self, model):
        # The tau search must get within 1e-6 of a dense 401 x 401 scan
        # over (tau, z) and the thresholds.
        p_err, dense = self.dense_grid_optimum(1.0, 1, model)
        assert abs(p_err - dense) <= 1e-6

    # N >= 5, where the earlier (tau, z) grid missed optima just below
    # tau = 1 by 7.7e-7 to 2.2e-5, so besides the 1e-6 window the search
    # must not lie above the grid's optimum (1e-12 relative).
    @pytest.mark.parametrize("n", [5, 10])
    @pytest.mark.parametrize("model", [DARK2, DetectorModel(2, xi=0.998)], ids=["nu", "xi"])
    def test_hffre_against_dense_grid_oracle_at_many_copies(self, n, model):
        p_err, dense = self.dense_grid_optimum(1.0, n, model)
        assert abs(p_err - dense) <= 1e-6
        assert p_err <= dense * (1.0 + 1e-12)

    # Saturation, where e_N can fall as e0 rises and the two-end rule is
    # weakest; p_err is below 1e-5 in the first three rows, so only the
    # relative bound counts. In the last the z = 0 end wins.
    @pytest.mark.parametrize("alpha2, n, model", [
        (7.0, 2, DARK2), (10.0, 2, DARK2), (8.0, 2, DetectorModel(2, xi=0.998)),
        (16.0, 1, DetectorModel(2, xi=0.9)),
    ])
    def test_hffre_against_dense_grid_oracle_at_saturation(self, alpha2, n, model):
        p_err, dense = self.dense_grid_optimum(alpha2, n, model)
        assert p_err <= dense * (1.0 + 1e-12)

    def test_untapped_oscillator_wins_in_visibility_saturation(self):
        # At xi = 0.9 the DFFRE error grows with the energy above alpha2 ~ 2,
        # so the best tap reflects most of the signal and measures it with
        # z = 0 (e0 = 1/2): the copies keep a fraction tau of the energy.
        alpha, model = 4.0, DetectorModel(2, xi=0.9)
        c = cfg(1, model, Receiver.HFFRE)
        result = hffre_error(alpha, c)
        tau = result.params.tau
        assert result.params.z == 0.0 and tau < 0.5
        z_star = _hl_minimum(alpha, model)(np.array([tau]))[0][0]
        assert result.p_err < hffre_error_at(alpha, c, tau, z_star).p_err
        assert result.p_err < dffre_error(alpha, cfg(1, model)).p_err

    # (alpha2, N, model, tau, z): a setting just below tau = 1, in the
    # valley z ~ 1.36, that the earlier (tau, z) grid search missed at
    # N >= 5 (it found 8.1071e-3, 1.3684e-3 and 4.4754e-4). The fixed
    # settings give 8.0856e-3, 1.3669e-3 and 4.4677e-4.
    MISSED_OPTIMA = [
        (1.0, 10, DARK2, 0.9948, 1.36),
        (2.0, 5, DARK2, 0.9963, 1.36),
        (3.16, 10, DetectorModel(2, xi=0.998), 0.9987, 1.36),
    ]

    @pytest.mark.parametrize("alpha2, n, model, tau, z", MISSED_OPTIMA)
    def test_hffre_not_above_a_fixed_setting(self, alpha2, n, model, tau, z):
        alpha, c = math.sqrt(alpha2), cfg(n, model, Receiver.HFFRE)
        assert hffre_error(alpha, c).p_err <= hffre_error_at(alpha, c, tau, z).p_err


def per_threshold_hffre(alpha, c):
    """The HFFRE searched one click threshold at a time: a tau search of its
    own per threshold (``maximize_grid_searches`` with one search, and the
    batch objective at that threshold alone), the threshold chosen by ``scan_discrete``."""
    minimum = _hl_minimum(alpha, c.model)
    best = {}

    def scan_threshold(n_th):
        batch = _hybrid_error_batch(alpha, c)
        oscillator = {}

        def objective(rows):
            tau = rows[0]
            z, e0_min, e0_zero = minimum(tau)
            values = batch(np.concatenate((tau, tau)), np.concatenate((e0_min, e0_zero)),
                           np.full(2 * tau.size, n_th))
            at_min, at_half = values[:tau.size], values[tau.size:]
            half = at_half > at_min
            oscillator.update(zip(tau.tolist(), np.where(half, 0.0, z).tolist()))
            return np.where(half, at_half, at_min)[None]

        tau, negated = maximize_grid_searches(objective, feedforward.TAU_SPEC, 1)[0]
        best[n_th] = tau, oscillator[tau]
        return negated

    n_th, _ = scan_discrete(scan_threshold, feedforward._threshold_candidates(c.model))
    return _hybrid_at(alpha, c, *best[n_th], (n_th,))


def lockstep_grid():
    """(alpha2, M, model name, N): every M, model and N once, with alpha2 drawn
    from its own log stratum of [0.01, 10] and the strata shuffled, seeded."""
    combos = [(m, name, n) for m in (2, 4, 8) for name in ("nu", "xi", "eta_nu")
              for n in (1, 2, 5)]
    rng = np.random.default_rng(5)
    edges = np.linspace(math.log(0.01), math.log(10.0), len(combos) + 1)
    alpha2 = np.exp(edges[:-1] + rng.uniform(size=len(combos)) * np.diff(edges))
    return [(float(alpha2[i]), *combo) for i, combo in zip(rng.permutation(len(combos)), combos)]


LOCKSTEP_MODELS = {"nu": {"nu": 1e-3}, "xi": {"xi": 0.998}, "eta_nu": {"eta": 0.7, "nu": 1e-3}}


class TestThresholdLockstep:
    """Every click threshold's tau search in one lockstep round."""

    @pytest.mark.parametrize("alpha2, m, name, n", lockstep_grid(),
                             ids=lambda v: f"{v:.4g}" if isinstance(v, float) else str(v))
    def test_equals_one_search_per_threshold(self, alpha2, m, name, n):
        alpha = math.sqrt(alpha2)
        c = cfg(n, DetectorModel(m, **LOCKSTEP_MODELS[name]), Receiver.HFFRE)
        assert hffre_error(alpha, c) == per_threshold_hffre(alpha, c)

    def test_one_lockstep_per_copy_and_round(self, monkeypatch):
        # eight thresholds, two copies: one beta search per copy and round
        # for all thresholds, and at most one z* search per round
        calls = {"maximize_scalar_batch": 0, "hl_sign_minimum": 0}
        for name in calls:
            def counting(*args, _original=getattr(feedforward, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(feedforward, name, counting)
        hffre_error(1.0, cfg(2, DetectorModel(8, nu=1e-3), Receiver.HFFRE))
        rounds = feedforward.TAU_SPEC.refinement_rounds + 1
        assert calls["maximize_scalar_batch"] == 2 * rounds
        assert 1 <= calls["hl_sign_minimum"] <= rounds

    def test_thresholds_must_not_decrease(self):
        objective = _hybrid_error_batch(1.0, cfg(1, DARK2, Receiver.HFFRE))
        tau, e0 = np.array([0.5, 0.9]), np.array([0.2, 0.3])
        with pytest.raises(ValueError, match="non-decreasing"):
            objective(tau, e0, np.array([2, 1]))
        with pytest.raises(ValueError, match="n_th must be <= resolution 2, got 3"):
            objective(tau, e0, np.array([1, 3]))


class TestSettlement:
    def test_near_ties_take_e0_from_the_round(self, monkeypatch):
        # At nu = 1e-3 and alpha2 ~ 3.31 the rounds leave near-ties at both
        # thresholds. Every scalar run starts from an e0 a lockstep round
        # was handed, and the final replay, whose e0 is the one-element
        # view of the memo's rows, reproduces one of them; no e0 comes from
        # the O(M^2) diagonal sums.
        rounds, starts, replays = set(), [], []
        batch, scan, at = (feedforward._hybrid_error_batch, feedforward._threshold_scan,
                           feedforward._hybrid_at)

        def recording_batch(alpha, c):
            objective = batch(alpha, c)

            def recording(tau, e0, n_th):
                rounds.update(e0.tolist())
                return objective(tau, e0, n_th)

            return recording

        def counting(amplitude, c, e_initial, candidates):
            starts.append(e_initial)
            return scan(amplitude, c, e_initial, candidates)

        def replaying(*args):
            replays.append(args)
            return at(*args)

        def diagonal(*args):
            raise AssertionError("the HL error summed the diagonals")

        monkeypatch.setattr(feedforward, "_hybrid_error_batch", recording_batch)
        monkeypatch.setattr(feedforward, "_threshold_scan", counting)
        monkeypatch.setattr(feedforward, "_hybrid_at", replaying)
        monkeypatch.setattr(photostatistics, "_diagonal_mass", diagonal)
        result = hffre_error(self.ALPHA, cfg(1, DARK2, Receiver.HFFRE))
        assert result.params.n_th == 2
        assert len(replays) == 1 and len(starts) > 1
        assert set(starts) <= rounds
        assert 1.0 - starts[-1] == result.per_step_correct[0]

    def test_batch_makes_no_hl_kernel_call(self, monkeypatch):
        # the lockstep recursion and its settlement start from the e0 they
        # are handed; the HL stage is not theirs
        c = cfg(2, DARK2, Receiver.HFFRE)
        tau = np.repeat(np.linspace(0.0, 1.0, 11), 2)
        e0 = hl_error(self.ALPHA, tau, np.tile([0.0, 1.36], 11), c.model)
        expected = _hybrid_error_batch(self.ALPHA, c)(tau, e0, np.repeat([1, 2], 11))

        def kernel(*args, **kwargs):
            raise AssertionError("the batch called the HL kernel")

        monkeypatch.setattr(photostatistics, "_hl_sign_terms", kernel)
        got = _hybrid_error_batch(self.ALPHA, c)(tau, e0, np.repeat([1, 2], 11))
        assert same_bits(got, expected)

    ALPHA = math.sqrt(3.313455838415151)

    def round_zero(self, n_th):
        # The mandatory tau followed by the 41-point tau grid, each at z*(tau)
        # and at z = 0, as hffre_error's first round hands them to the
        # objective, and the points within the settlement window of the
        # round's best value.
        c = cfg(1, DARK2, Receiver.HFFRE)
        spec = feedforward.TAU_SPEC
        taus = np.concatenate((spec.mandatory, np.linspace(spec.lo, spec.hi, spec.points)))
        z_star, e0_min, e0_zero = _hl_minimum(self.ALPHA, c.model)(taus)
        tau, z = np.concatenate((taus, taus)), np.concatenate((z_star, np.zeros_like(z_star)))
        e0 = np.concatenate((e0_min, e0_zero))
        batch = _hybrid_error_batch(self.ALPHA, c)

        def objective(tau, e0):
            return batch(tau, e0, np.full(tau.size, n_th))

        values = objective(tau, e0)
        top = values.max()
        window = (feedforward.BATCH_RTOL_PER_COPY * abs(top)
                  + (feedforward.BATCH_ATOL_PER_COPY if n_th > 1 else 0.0))
        near = np.flatnonzero(values >= top - window).tolist()
        return c, tau, z, e0, objective, values, near

    @pytest.mark.parametrize("n_th", [2, 1])
    def test_values_in_the_window_are_the_scalar_recursion(self, n_th):
        c, tau, z, _, _, values, near = self.round_zero(n_th)
        assert near
        for i in near:
            t, osc = float(tau[i]), float(z[i])
            assert values[i] == -_hybrid_at(self.ALPHA, c, t, osc, (n_th,)).p_err

    def test_scalar_runs_bounded_at_the_dark_count_floor(self, monkeypatch):
        # At alpha2 = 10, N = 2, nu = 1e-3, e_N sits on the dark-count floor
        # over most of the tau axis, so most of a round falls inside the
        # settlement window and each distinct (tau, e0) there costs a
        # scalar recursion; the tau rounds, two settings per tau, run 169.
        scan = feedforward._threshold_scan
        runs = []

        def counting(*args):
            runs.append(args)
            return scan(*args)

        monkeypatch.setattr(feedforward, "_threshold_scan", counting)
        hffre_error(math.sqrt(10.0), cfg(2, DARK2, Receiver.HFFRE))
        assert len(runs) <= 300

    @pytest.mark.parametrize("n_th", [2, 1])
    def test_one_scalar_run_per_distinct_tau_and_e0(self, n_th, monkeypatch):
        scan = feedforward._threshold_scan
        runs = []

        def counting(amplitude, c, e_initial, candidates):
            assert tuple(candidates) == (n_th,)
            runs.append((amplitude, e_initial))
            return scan(amplitude, c, e_initial, candidates)

        monkeypatch.setattr(feedforward, "_threshold_scan", counting)
        _, tau, _, e0, objective, values, near = self.round_zero(n_th)
        keys = {(float(tau[i]), float(e0[i])) for i in near}
        assert len(runs) == len(keys)
        assert set(runs) == {(math.sqrt(t) * self.ALPHA, e) for t, e in keys}
        assert np.array_equal(objective(tau, e0), values)
        assert len(runs) == len(keys)  # the memo outlives the round


class TestStepRows:
    """The lockstep step, ``_coarse_step`` over ``_flips``, equals the step built from the
    threshold kernel at the copy rates, and the float step's reference within the window."""

    @staticmethod
    def elements(n, model):
        # seeded (amplitude, beta, e), plus betas one ulp off nulling at
        # large amplitudes, where the minus rate can round below 0 and the
        # plus rate underflows exp, with e at 0 and at 1
        rng = np.random.default_rng(29)
        tau = rng.uniform(0.0, 1.0, 3000)
        amplitude = np.sqrt(tau) * np.sqrt(rng.uniform(0.01, 30.0, 3000))
        beta = rng.uniform(0.0, amplitude / math.sqrt(n) + BETA_MARGIN)
        e = rng.uniform(0.0, 1.0, 3000)
        nulled = rng.uniform(1.0, 80.0, 1000)
        amplitude = np.concatenate((amplitude, nulled, [math.sqrt(n)] * 4))
        # the last four have base == cross exactly when xi = 1; a -0.0
        # error never arises, but the step equals the objective there too
        off_null = np.nextafter(nulled / math.sqrt(n), np.resize([0.0, math.inf], 1000))
        beta = np.concatenate((beta, off_null, [1.0] * 4))
        e = np.concatenate((e, np.resize([0.0, 1.0, 0.3], 1000), [0.0, 1.0, 0.5, -0.0]))
        return amplitude, beta, e

    @staticmethod
    def element_rates(amplitude, beta, n, model):
        """(rate_minus, rate_plus) of each element, written out in the step's operations."""
        base = amplitude * amplitude / n + beta * beta
        cross = 2.0 * model.xi * amplitude / math.sqrt(n) * beta
        return model.eta * (base - cross) + model.nu, model.eta * (base + cross) + model.nu

    def assert_near_reference(self, values, amplitude, beta, e, n, model, n_th):
        # element by element against the float step's reference, within the
        # settlement window of one copy: np.exp and math.exp may differ in
        # the last bit, which the 1 - q0 tail above n_th = 1 makes absolute.
        # Where q_thresh rejects a rate rounded below 0 above n_th = 1, the
        # reference is the float step itself, which takes it as the lockstep
        # does. Returns the number of such elements.
        rate_minus, rate_plus = self.element_rates(amplitude, beta, n, model)
        n_th = np.broadcast_to(n_th, values.shape)
        below = (n_th > 1) & ((rate_minus < 0.0) | (rate_plus < 0.0))
        for value, a, b, e_prev, t, float_step in zip(
                values.tolist(), amplitude.tolist(), beta.tolist(), e.tolist(), n_th.tolist(),
                below.tolist()):
            if float_step:
                expected = _step_objective(a, n, model, t)(e_prev)(b)
            else:
                expected = reference_step_error(e_prev, a, n, model, t)(b)
            window = (feedforward.BATCH_RTOL_PER_COPY * abs(expected)
                      + (feedforward.BATCH_ATOL_PER_COPY if t > 1 else 0.0))
            assert abs(value - expected) <= window, (a, b, e_prev, t)
        assert not below[:3000].any()  # only nulled elements round below 0
        return int(below.sum())

    @pytest.mark.parametrize("model", [IDEAL2, DetectorModel(2, eta=0.7), DARK2,
                                       DetectorModel(2, xi=0.998)])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("n_th", [1, 2])
    def test_step_equals_objective_of_flips(self, model, n, n_th):
        amplitude, beta, e = self.elements(n, model)
        rate_minus, rate_plus = self.element_rates(amplitude, beta, n, model)
        false_flip, missed_flip = q_above_below_rows(n_th)(rate_minus, rate_plus)
        expected = -((1.0 - e) * false_flip + e * missed_flip)
        flips = _flips(amplitude, n, model, n_th)(beta)
        assert all(same_bits(got, want) for got, want in zip(flips, (false_flip, missed_flip)))
        step = _coarse_step(e, *flips)
        assert same_bits(step, expected)
        below = self.assert_near_reference(step, amplitude, beta, e, n, model, n_th)
        if model.nu == 0.0 and model.xi == 1.0:
            # the edge cases the step must carry: a minus rate of exactly 0
            # and one below 0, a plus rate past exp's underflow
            assert (rate_minus < 0.0).any() and (rate_minus == 0.0).any()
            assert (missed_flip == 0.0).any()
            assert below == (0 if n_th == 1 else np.count_nonzero(rate_minus < 0.0))

    @pytest.mark.parametrize("model", [DARK2, DetectorModel(8, nu=1e-3),
                                       DetectorModel(4, eta=0.7, xi=0.998)])
    @pytest.mark.parametrize("n", [1, 4])
    def test_thresholds_per_element_equal_each_alone(self, model, n):
        # one step over elements of every threshold, in non-decreasing
        # order, equals each threshold's step on its elements alone, sign
        # bits included: the on/off step at n_th = 1, the flips above it
        amplitude, beta, e = self.elements(n, model)
        n_th = np.sort(np.random.default_rng(n).integers(1, model.resolution + 1, beta.size))
        flips = _flips(amplitude, n, model, n_th)(beta)
        together = _coarse_step(e, *flips)
        for t in range(1, model.resolution + 1):
            rows = n_th == t
            alone = _flips(amplitude[rows], n, model, t)(beta[rows])
            assert rows.any()
            assert all(same_bits(got[rows], want) for got, want in zip(flips, alone))
            assert same_bits(together[rows], _coarse_step(e[rows], *alone))
        self.assert_near_reference(together, amplitude, beta, e, n, model, n_th)

    @pytest.mark.parametrize("model, n_th", [(IDEAL2, 1), (DARK2, 1), (DARK2, 2),
                                             (DetectorModel(2, xi=0.998), 1),
                                             (DetectorModel(2, xi=0.998), 2)])
    @pytest.mark.parametrize("n", [1, 4])
    def test_float_step_equals_reference(self, model, n, n_th):
        # the float objective on the same elements, against the step written
        # as -(p F + e M), sign bits included: for the ideal model these hold
        # the minus rates of exactly 0 and below 0, the underflowed plus
        # rates and the errors 0, 1 and -0.0 of the rearranged on/off form
        amplitude, beta, e = self.elements(n, model)
        for a, b, e_prev in zip(amplitude.tolist(), beta.tolist(), e.tolist()):
            value = _step_objective(a, n, model, n_th)(e_prev)(b)
            expected = reference_step_error(e_prev, a, n, model, n_th)(b)
            assert same_bits(value, expected), (a, b, e_prev)


def grid_rates(amplitude, n, model, spec):
    """(rate_minus, rate_plus) of a copy at every coarse grid point, in Python floats."""
    a2n = amplitude * amplitude / n
    cross_coef = 2.0 * model.xi * amplitude / math.sqrt(n)
    pairs = [(model.eta * (a2n + beta * beta - cross_coef * beta) + model.nu,
              model.eta * (a2n + beta * beta + cross_coef * beta) + model.nu)
             for beta in spec.coarse_grid()]
    return tuple(list(rates) for rates in zip(*pairs))


def reference_step_error(e_prev, amplitude, n, model, n_th):
    """The negated step error, written out as before the flips were tabulated."""
    a2n = amplitude * amplitude / n
    cross_coef = 2.0 * model.xi * amplitude / math.sqrt(n)
    p_prev = 1.0 - e_prev

    def objective(beta):
        base = a2n + beta * beta
        cross = cross_coef * beta
        if n_th == 1:
            false_flip = -math.expm1(-(model.eta * (base - cross) + model.nu))
            missed_flip = math.exp(-(model.eta * (base + cross) + model.nu))
        else:
            _, false_flip = q_thresh(model.eta * (base - cross) + model.nu, n_th)
            missed_flip, _ = q_thresh(model.eta * (base + cross) + model.nu, n_th)
        return -(p_prev * false_flip + e_prev * missed_flip)

    return objective


# repr literals of the search that evaluated every coarse point per copy:
# (alpha2, N, model, (n_th, first beta, last beta, p_err)). The negative
# ideal value at alpha2 = 150 is the cancelling nulled-branch rate.
PINNED_DFFRE = [
    (0.1, 5, IDEAL2, (1, "0.7118555655462361", "0.25639313274962744", "0.2236270880758591")),
    (3.0, 5, IDEAL2, (1, "0.882267299690762", "0.7746005951995418", "2.5418407912899836e-06")),
    (150.0, 5, IDEAL2, (1, "5.477225560348831", "5.477225560348831", "-7.105427357601078e-15")),
    (0.1, 50, DetectorModel(8, nu=1e-3),
     (1, "0.7075785181657576", "0.08189300310389631", "0.22748970461334544")),
    (3.0, 50, DetectorModel(8, nu=1e-3),
     (1, "0.721564084005444", "0.24674583789075644", "0.004631933050097478")),
    (150.0, 50, DetectorModel(8, nu=1e-3),
     (5, "2.3871453664198925", "1.7521601614480564", "1.7609846695996015e-111")),
]


class TestCoarseTable:
    @pytest.mark.parametrize("model", [IDEAL2, DetectorModel(2, eta=0.7), DARK2,
                                       DetectorModel(8, nu=1e-3), DetectorModel(2, xi=0.998)])
    @pytest.mark.parametrize("amplitude, n", [(1.0, 1), (math.sqrt(3.0), 5)])
    def test_coarse_values_equal_objective(self, model, amplitude, n):
        # the table of every threshold in one pass: each threshold's rows
        # equal the table built for that threshold alone, and the coarse
        # values from them equal the objective and the reference objective
        # on the grid, sign bits included
        spec = ScalarSearchSpec(0.0, amplitude / math.sqrt(n) + BETA_MARGIN,
                                BETA_COARSE_POINTS, BETA_TOL)
        grid = spec.coarse_grid()
        false_flip, missed_flip = _flip_tables(amplitude, n, model, model.resolution, spec)
        assert false_flip.shape == missed_flip.shape == (model.resolution, BETA_COARSE_POINTS)
        for n_th in range(1, model.resolution + 1):
            alone = _flip_tables(amplitude, n, model, n_th, spec)
            assert same_bits(alone[0][-1], false_flip[n_th - 1])
            assert same_bits(alone[1][-1], missed_flip[n_th - 1])
            step = _step_objective(amplitude, n, model, n_th)
            for e_prev in (0.5, 1e-3, 1e-300, 0.0):
                coarse = _coarse_step(e_prev, false_flip[n_th - 1], missed_flip[n_th - 1])
                reference = reference_step_error(e_prev, amplitude, n, model, n_th)
                assert same_bits(coarse, [step(e_prev)(beta) for beta in grid])
                assert same_bits(coarse, [reference(beta) for beta in grid])

    # exp underflows past 745.13: amplitude 40 at N = 1 reaches rates of
    # 7225. The small rates of every case take some partial sums above 1,
    # where the clamp acts
    TABLE_CASES = [(2.0, 4), (40.0, 1), (1e-3, 10), (0.3, 2)]

    @pytest.mark.parametrize("model", [DetectorModel(64), DetectorModel(64, nu=1e-3),
                                       DetectorModel(64, eta=0.7, xi=0.998)])
    @pytest.mark.parametrize("amplitude, n", TABLE_CASES)
    def test_rows_equal_q_thresh_at_every_threshold(self, model, amplitude, n):
        spec = ScalarSearchSpec(0.0, amplitude / math.sqrt(n) + BETA_MARGIN,
                                BETA_COARSE_POINTS, BETA_TOL)
        rate_minus, rate_plus = grid_rates(amplitude, n, model, spec)
        false_flip, missed_flip = _flip_tables(amplitude, n, model, 64, spec)
        for n_th in range(1, 65):
            assert same_bits(false_flip[n_th - 1], [q_thresh(r, n_th)[1] for r in rate_minus])
            assert same_bits(missed_flip[n_th - 1], [q_thresh(r, n_th)[0] for r in rate_plus])
        # a table of fewer thresholds is the first rows of a longer one
        assert all(same_bits(short, full[:5]) for short, full in
                   zip(_flip_tables(amplitude, n, model, 5, spec), (false_flip, missed_flip)))

    def test_table_cases_reach_underflow_and_clamp(self):
        rates = []
        for amplitude, n in self.TABLE_CASES:
            spec = ScalarSearchSpec(0.0, amplitude / math.sqrt(n) + BETA_MARGIN)
            for side in grid_rates(amplitude, n, DetectorModel(64), spec):
                rates += side
        rates = np.array(rates)
        assert rates.max() > 746.0 and math.exp(-746.0) == 0.0
        # the unclamped partial sums of the Poisson terms
        partial = np.cumsum(photostatistics._pnr_rows(rates, 64)[:, :64], axis=1)
        assert (partial > 1.0).any()

    def test_on_off_row_takes_any_rate(self):
        # a rate rounded below 0 at a nulling displacement: the on/off
        # formulas, unchecked, give its small negative on-probability
        amplitude, null = 1.5367617525666288, 1.5367617524113883
        spec = ScalarSearchSpec(0.0, null)
        rate_minus, rate_plus = grid_rates(amplitude, 1, IDEAL2, spec)
        false_flip, missed_flip = _flip_tables(amplitude, 1, IDEAL2, 1, spec)
        assert same_bits(false_flip[0], [-math.expm1(-r) for r in rate_minus])
        assert same_bits(missed_flip[0], [math.exp(-r) for r in rate_plus])
        assert rate_minus[-1] < 0.0 and false_flip[0, -1] < 0.0

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, 1e200, 1.33e154])
    def test_bad_amplitude_raises_non_finite_error(self, amplitude):
        # a rate that overflows gives a NaN flip, which the table carries
        # and the first copy's search rejects at the first grid point
        # whose rates are not both finite; at 1.33e154 that is beta[1],
        # where rate_plus = inf
        spec = ScalarSearchSpec(0.0, amplitude + 5.0 if math.isfinite(amplitude) else 5.0)
        with np.errstate(over="ignore", invalid="ignore"):
            rate_minus, rate_plus = grid_rates(amplitude, 1, IDEAL2, spec)
            first = next(beta for beta, x, y in zip(spec.coarse_grid(), rate_minus, rate_plus)
                         if not (math.isfinite(x) and math.isfinite(y)))
            false_flip, missed_flip = _flip_tables(amplitude, 1, IDEAL2, 2, spec)
            with pytest.raises(ValueError) as info:
                feedforward._greedy_recursion(spec, _step_objective(amplitude, 1, IDEAL2, 2),
                                              false_flip[1], missed_flip[1], 1, 0.5)
        assert str(info.value) == f"objective returned non-finite value nan at x = {first!r}"

    @staticmethod
    def running_sum_table(amplitude, n, model, resolution, spec):
        """(false_flip, missed_flip) as plain loops over the grid: row 0 the on/off pair, row t
        1 - q0 and q0 with q0 the running sum of t + 1 Poisson terms, clamped to 1."""
        rate_minus, rate_plus = grid_rates(amplitude, n, model, spec)

        def running_sums(rate):
            term = below = math.exp(-rate)
            sums = [below]
            for s in range(1, resolution):
                term *= rate / s
                below += term
                sums.append(min(below, 1.0))
            return sums

        false_flip = [[-math.expm1(-r) for r in rate_minus]]
        false_flip += [[1.0 - q0 for q0 in row] for row in
                       zip(*map(running_sums, rate_minus))][1:]
        missed_flip = [list(row) for row in zip(*map(running_sums, rate_plus))]
        return np.array(false_flip), np.array(missed_flip)

    @pytest.mark.parametrize("model", [IDEAL2, DetectorModel(2, eta=0.7), DARK2,
                                       DetectorModel(2, xi=0.998)])
    @pytest.mark.parametrize("amplitude, n", TABLE_CASES)
    @pytest.mark.parametrize("resolution", [1, 2])
    def test_figure_thresholds_equal_running_sum_loop(self, model, amplitude, n, resolution):
        # the figures' tables, one and two thresholds, including rates
        # past exp's underflow (amplitude 40 at N = 1)
        spec = ScalarSearchSpec(0.0, amplitude / math.sqrt(n) + BETA_MARGIN,
                                BETA_COARSE_POINTS, BETA_TOL)
        table = _flip_tables(amplitude, n, model, resolution, spec)
        expected = self.running_sum_table(amplitude, n, model, resolution, spec)
        assert all(same_bits(got, want) for got, want in zip(table, expected))
        assert table[0].shape == (resolution, BETA_COARSE_POINTS)

    @pytest.mark.parametrize("resolution", [1, 2])
    def test_nulled_rate_below_zero_at_one_and_two_thresholds(self, resolution):
        # rate_minus rounds below 0 at the nulling end of the grid: the
        # table takes it as given at either resolution, as the step does
        amplitude, null = 1.5367617525666288, 1.5367617524113883
        spec = ScalarSearchSpec(0.0, null)
        rate_minus, _ = grid_rates(amplitude, 1, IDEAL2, spec)
        assert rate_minus[-1] < 0.0 and min(rate_minus[:-1]) >= 0.0
        table = _flip_tables(amplitude, 1, IDEAL2, resolution, spec)
        expected = self.running_sum_table(amplitude, 1, IDEAL2, resolution, spec)
        assert all(same_bits(got, want) for got, want in zip(table, expected))
        step = _step_objective(amplitude, 1, IDEAL2, resolution)(0.5)
        assert same_bits(_coarse_step(0.5, table[0][-1, -1:], table[1][-1, -1:]), [step(null)])

    @pytest.mark.parametrize("model", [DetectorModel(64), DetectorModel(64, nu=1e-3),
                                       DetectorModel(64, eta=0.7, xi=0.998)])
    def test_step_equals_q_thresh_formula(self, model):
        # the fused partial sums against -(p q1(rate_minus) + e q0(rate_plus))
        # from q_thresh, sign bits included, at every threshold: low and
        # high rates, exp underflow (amplitude 40 at N = 1) and, for the
        # ideal model, the exact null beta = amplitude / sqrt(N) = 1
        cases = [(2.0, 4, beta) for beta in (0.0, 1e-9, 0.3, 1.0, 2.5, 7.0)]
        cases += [(40.0, 1, beta) for beta in (0.0, 5.0, 44.0)] + [(1e-3, 10, 0.0)]
        for n_th in range(1, 65):
            for e_prev in (0.0, 1e-300, 1e-3, 0.5, 1.0):
                for amplitude, n, beta in cases:
                    expected = reference_step_error(e_prev, amplitude, n, model, n_th)(beta)
                    value = _step_objective(amplitude, n, model, n_th)(e_prev)(beta)
                    assert same_bits(value, expected), (n_th, e_prev, amplitude, n, beta)

    @pytest.mark.parametrize("model", [IDEAL2, DARK2, DetectorModel(8, nu=1e-3),
                                       DetectorModel(2, xi=0.998)])
    def test_recursion_hands_search_the_objective_on_its_grid(self, model, monkeypatch):
        search = feedforward.maximize_scalar
        copies = []

        def comparing(f, spec, coarse):
            assert isinstance(coarse, np.ndarray)
            assert same_bits(coarse, [f(beta) for beta in spec.coarse_grid()])
            copies.append(spec.hi)
            return search(f, spec, coarse)

        monkeypatch.setattr(feedforward, "maximize_scalar", comparing)
        dffre_error(1.3, cfg(3, model))
        assert len(copies) == 3 * len(feedforward._threshold_candidates(model))

    @pytest.mark.parametrize("model, n_th",
                             [(IDEAL2, 1), (DARK2, 2), (DetectorModel(2, xi=0.998), 2)])
    def test_tabulated_columns_equal_evaluated_columns(self, model, n_th, monkeypatch):
        # Every coarse row the lockstep search reads from the per-tau
        # table equals the objective on that element's grid, sign bits
        # included, for any slice of elements, and the search returns what
        # it returns when it evaluates every column itself.
        search = feedforward.maximize_scalar_batch
        copies = []

        def comparing(f, lo, hi, coarse_points, tol, coarse):
            grid = coarse_abscissae(lo, hi, coarse_points)
            evaluated = f(grid(np.arange(coarse_points)[:, None])).T  # one row per element
            size = grid(0).size
            for elements in [slice(k, min(k + COARSE_BLOCK, size)) for k in range(0, size, COARSE_BLOCK)] \
                    + [slice(5, 77), slice(size - 1, size)]:
                assert same_bits(coarse(elements), evaluated[elements])
            result = search(f, lo, hi, coarse_points, tol, coarse)
            evaluated = search(f, lo, hi, coarse_points, tol)
            assert all(np.array_equal(r, e) for r, e in zip(result, evaluated))
            copies.append(grid(0).size)
            return result

        monkeypatch.setattr(feedforward, "maximize_scalar_batch", comparing)
        alpha = 1.0
        c = cfg(2, model, Receiver.HFFRE)
        tau, z = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 5.0 + 4.0 * alpha, 41),
                             indexing="ij")
        tau, z = np.concatenate(([1.0], tau.ravel())), np.concatenate(([0.0], z.ravel()))
        e0 = hl_error(alpha, tau, z, model)
        _hybrid_error_batch(alpha, c)(tau, e0, np.full(tau.size, n_th))
        assert copies == [1682, 1682]

    @pytest.mark.parametrize("alpha2, n, model, expected", PINNED_DFFRE)
    def test_dffre_pinned(self, alpha2, n, model, expected):
        result = dffre_error(math.sqrt(alpha2), cfg(n, model))
        betas = result.params.betas
        assert (result.params.n_th, repr(betas[0]), repr(betas[-1]), repr(result.p_err)) == expected

    def test_threshold_checked_once_per_recursion(self, monkeypatch):
        # Ten copies and thresholds 1..8: 5,516 q_thresh calls when every
        # rate went through it, now one per recursion, its threshold check.
        checked = feedforward.q_thresh
        calls = []

        def counting(*args):
            calls.append(args)
            return checked(*args)

        monkeypatch.setattr(feedforward, "q_thresh", counting)
        dffre_error(1.0, cfg(10, DetectorModel(8, nu=1e-3)))
        assert calls == [(0.0, n_th, 8) for n_th in range(1, 9)]

    def test_numpy_scalars_give_python_floats(self):
        model = DetectorModel(2, eta=np.float64(0.9), nu=np.float64(1e-3))
        value = step_correct_prob(0.5, 0.4, np.float64(1.0), 1, model, n_th=2)
        assert type(value) is float


def reference_recursion(amplitude, n, model, n_th, e_initial):
    """The greedy recursion as a plain loop: one full search per copy, from f alone."""
    spec = ScalarSearchSpec(0.0, amplitude / math.sqrt(n) + BETA_MARGIN, BETA_COARSE_POINTS,
                            BETA_TOL)
    errors, betas = [e_initial], []
    for _ in range(n):
        beta, negated = maximize_scalar(
            reference_step_error(errors[-1], amplitude, n, model, n_th), spec)
        betas.append(beta)
        errors.append(-negated)
    return errors, tuple(betas)


# the detector models of the benchmark's DFFRE curves
DOMAIN_MODELS = [IDEAL2, DetectorModel(2, eta=0.7), DARK2, DetectorModel(2, xi=0.998),
                 DetectorModel(8, nu=1e-3)]


class TestRecursionReuse:
    """The recursion's shared grid, table and fixed-point reuse change no bit."""

    @pytest.mark.parametrize("model", DOMAIN_MODELS)
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 50])
    def test_equals_plain_loop(self, model, n):
        # low to high energy, and an HFFRE-like start below 1/2; the
        # fixed points come at high energy
        for alpha2, e_initial in ((0.05, 0.5), (1.0, 0.5), (20.0, 0.5), (150.0, 0.5),
                                  (1.0, 0.05)):
            amplitude = math.sqrt(alpha2)
            for n_th in feedforward._threshold_candidates(model):
                scan = feedforward._threshold_scan(amplitude, cfg(n, model), e_initial, (n_th,))
                assert scan == (*reference_recursion(amplitude, n, model, n_th, e_initial), n_th)

    @pytest.mark.parametrize("model, n", [(DetectorModel(64, nu=1e-3), 1),
                                          (DetectorModel(64, nu=1e-3), 10),
                                          (DetectorModel(8, xi=0.998), 10)])
    def test_scan_equals_plain_loop_at_every_threshold(self, model, n, monkeypatch):
        # the scan's recursions read their rows of one shared table; each
        # equals the plain loop at its threshold, and the scan picks the
        # first best of them
        recursion = feedforward._greedy_recursion
        runs = []

        def recording(*args):
            runs.append(recursion(*args))
            return runs[-1]

        monkeypatch.setattr(feedforward, "_greedy_recursion", recording)
        candidates = feedforward._threshold_candidates(model)
        for alpha2, e_initial in ((1.0, 0.5), (20.0, 0.05)):
            runs.clear()
            amplitude = math.sqrt(alpha2)
            errors, betas, n_th = feedforward._threshold_scan(amplitude, cfg(n, model), e_initial,
                                                              candidates)
            expected = [reference_recursion(amplitude, n, model, k, e_initial) for k in candidates]
            assert runs == expected
            finals = [e[-1] for e, _ in expected]
            assert n_th == candidates[finals.index(min(finals))]
            assert (errors, betas) == expected[n_th - 1]

    def test_fixed_point_copies_run_no_search(self, monkeypatch):
        search = feedforward.maximize_scalar
        calls = []

        def counting(f, spec, coarse):
            calls.append(f)
            return search(f, spec, coarse)

        monkeypatch.setattr(feedforward, "maximize_scalar", counting)
        errors, betas, _ = feedforward._threshold_scan(math.sqrt(150.0), cfg(50, DARK2), 0.5, (2,))
        assert (errors, betas) == reference_recursion(math.sqrt(150.0), 50, DARK2, 2, 0.5)
        # copy j starts from errors[j]; the first copy that leaves it
        # unchanged is the last one searched
        fixed = next(j for j in range(50) if errors[j + 1] == errors[j])
        assert fixed < 49
        assert len(calls) == fixed + 1
        assert len(set(errors[fixed:])) == 1 and len(set(betas[fixed:])) == 1


class TestSaturation:
    def test_dark_floor_trivial(self):
        assert saturation_dark(0.0, 3, 2) == 0.0

    def test_dark_floor_single_copy_value(self):
        # (1 - q0(nu))/2 with q0 at threshold M, 40-digit reference
        assert saturation_dark(1e-3, 1, 2) == pytest.approx(2.4983339581667013829e-07,
                                                            rel=1e-9, abs=0.0)

    @staticmethod
    def dark_floor_reference(nu, n):
        # 1 - (r^N/2 + (1 - r^N)/(1 - r)), r = q0 - 1, at 50 digits: the
        # cancellation that costs a double-precision evaluation up to
        # 5e-9 relative leaves more than 20 digits here.
        with mpmath.workdps(50):
            nu = mpmath.mpf(nu)
            r = mpmath.exp(-nu) * (1 + nu) - 1  # threshold M = 2 -> counts {0, 1}
            return float(1 - (r**n / 2 + (1 - r**n) / (1 - r)))

    def test_dark_floor_against_independent_formula(self):
        for nu in (1e-4, 1e-3, 1e-2):
            for n in (1, 2, 5):
                expected = self.dark_floor_reference(nu, n)
                assert saturation_dark(nu, n, 2) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_dark_floor_at_small_rates(self):
        # 1 - q0 cancels to 0 here; the tail must be summed directly.
        for nu in (1e-12, 1e-8, 1e-6):
            for n in (1, 2, 5):
                expected = self.dark_floor_reference(nu, n)
                assert saturation_dark(nu, n, 2) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_dark_floor_non_decreasing_in_copies(self):
        # Exact arithmetic shows a dip of r^2/2 ~ 1.2e-13 from N=2 to N=3
        # (r = q0(nu) - 1), so monotonicity only holds to that resolution:
        # the floor doubles from N=1 to N=2 and is flat afterwards.
        values = [saturation_dark(1e-3, n, 2) for n in range(1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[1] > 1.9 * values[0]

    def test_visibility_floor_trivial(self):
        assert saturation_visibility(1.0, 3.0, 2, 2) == 0.0

    def test_visibility_floor_increasing_in_energy(self):
        values = [saturation_visibility(0.998, math.sqrt(a2), 1, 2) for a2 in (1.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_visibility_floor_value(self):
        # xi=0.998, alpha^2=10, N=2 -> residual rate g = 0.02
        g = 2.0 * 10.0 * 0.002 / 2
        q0 = poisson.cdf(1, g)
        r = q0 - 1.0
        expected = 1.0 - (r**2 / 2.0 + (1.0 - r**2) / (1.0 - r))
        assert saturation_visibility(0.998, math.sqrt(10.0), 2, 2) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            saturation_dark(-1e-3, 1, 2)
        for nu in (math.nan, math.inf):
            # q_thresh's "x must be finite" named an argument this function does not have
            with pytest.raises(ValueError, match=rf"^nu must be finite and >= 0, got {nu!r}$"):
                saturation_dark(nu, 2, 2)
        with pytest.raises(ValueError):
            saturation_visibility(0.0, 1.0, 1, 2)

    @pytest.mark.parametrize("n_copies", [2.5, 0, True])
    def test_non_integer_copies_rejected(self, n_copies):
        # n_copies = 2.5 reached (-t) ** 2.5 and returned a complex number.
        message = rf"n_copies must be an integer >= 1, got {re.escape(repr(n_copies))}$"
        with pytest.raises(ValueError, match=message):
            saturation_dark(1e-3, n_copies, 2)
        with pytest.raises(ValueError, match=message):
            saturation_visibility(0.998, 1.0, n_copies, 2)

    @pytest.mark.parametrize("resolution", [2.5, 0, True])
    def test_non_integer_resolution_rejected(self, resolution):
        # resolution = 2.5 raised a TypeError from range().
        message = rf"resolution must be an integer >= 1, got {re.escape(repr(resolution))}$"
        with pytest.raises(ValueError, match=message):
            saturation_dark(1e-3, 2, resolution)
        with pytest.raises(ValueError, match=message):
            saturation_visibility(0.998, 1.0, 2, resolution)

    def test_numpy_counts_accepted(self):
        assert saturation_dark(1e-3, np.int64(2), np.int64(2)) == saturation_dark(1e-3, 2, 2)
        assert (saturation_visibility(0.998, 1.0, np.int64(2), np.int64(2))
                == saturation_visibility(0.998, 1.0, 2, 2))


class TestMetrics:
    def test_ratio_of_helstrom_is_one(self):
        assert ratio(helstrom_bound(1.0), 1.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_gain_of_sql_is_zero(self):
        assert gain(sql_error(1.0), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gain_sign_means_sql_beaten(self):
        assert gain(0.5 * sql_error(1.0), 1.0) > 0.0
        assert gain(2.0 * sql_error(1.0), 1.0) < 0.0

    def test_zero_signal_permitted(self):
        assert ratio(0.5, 0.0) == 1.0
        assert gain(0.5, 0.0) == 0.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            ratio(0.1, -1.0)
        with pytest.raises(ValueError):
            gain(0.1, -1.0)


class TestConfigValidation:
    def test_bad_copies(self):
        with pytest.raises(ValueError):
            FeedForwardConfig(0, IDEAL2, Receiver.DFFRE)

    @pytest.mark.parametrize("n_copies", [True, False, 2.0, np.bool_(True)])
    def test_non_integer_copies_rejected(self, n_copies):
        with pytest.raises(ValueError, match="n_copies must be an integer >= 1, got "):
            FeedForwardConfig(n_copies, IDEAL2, Receiver.DFFRE)

    def test_numpy_copies_stored_as_int(self):
        c = FeedForwardConfig(np.int64(2), DetectorModel(np.int64(2)), Receiver.DFFRE)
        assert type(c.n_copies) is int and type(c.model.resolution) is int
        assert c == cfg(2) and repr(c) == repr(cfg(2))
        assert dffre_error(0.7, c) == dffre_error(0.7, cfg(2))

    def test_boolean_threshold_rejected(self):
        # True == 1, but a flag is no click threshold
        with pytest.raises(ValueError, match="n_th must be an integer >= 1, got True"):
            correct_probability_trace(1.0, (0.5,), IDEAL2, n_th=True)
        assert correct_probability_trace(1.0, (0.5,), IDEAL2, n_th=np.int64(1)) == \
            correct_probability_trace(1.0, (0.5,), IDEAL2, n_th=1)

    def test_bad_model(self):
        with pytest.raises(ValueError):
            FeedForwardConfig(1, "nope", Receiver.DFFRE)

    def test_bad_receiver(self):
        with pytest.raises(ValueError):
            FeedForwardConfig(1, IDEAL2, "DFFRE")
