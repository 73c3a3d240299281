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
from bpskrx.feedforward import (
    BETA_COARSE_POINTS,
    BETA_MARGIN,
    BETA_TOL,
    _coarse_step,
    _flip_tables,
    _flips,
    _hybrid_at,
    _hybrid_error_batch,
    _step_objective,
)
from bpskrx.optimize import COARSE_BLOCK, ScalarSearchSpec, coarse_abscissae, maximize_scalar
from bpskrx.photostatistics import DetectorModel, hl_sign_error, q_thresh

IDEAL2 = DetectorModel(2)


def cfg(n, model=IDEAL2, receiver=Receiver.DFFRE):
    return FeedForwardConfig(n, model, receiver)


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


DARK2 = DetectorModel(2, nu=1e-3)

# (tau, z, n_th, betas, p_err) of the scalar per-point grid search that
# the batched one replaced, as repr literals.
PINNED_HFFRE = [
    (0.4, 1, IDEAL2, ("0.91632080078125", "1.3619767991166503", 1,
                      ("0.7384633072957204",), "0.07211906631924177")),
    (1.0, 2, DetectorModel(2, eta=0.7), ("0.961046142578125", "1.6265258789062502", 1,
                                         ("0.8726105030546233", "0.7245357372379736"),
                                         "0.020891826316181666")),
    (3.0, 1, DARK2, ("0.9791625976562501", "1.3673314506091576", 2,
                     ("1.7565165723667566",), "2.7761210565935826e-05")),
    # Near-ties the batch alone breaks differently: two last-round grid
    # values 1.5e-10 apart (the 1 - q0 tail at n_th = 2), and the tau = 1
    # column, where only the rounding of e0 = 1/2 separates the z values.
    (6.260516572014826, 2, DARK2, ("0.991402587890625", "1.3657249788633161", 2,
                                   ("1.7957570755697154", "1.7616345975255074"),
                                   "5.005472546249615e-07")),
    (4.437690356997562, 1, DetectorModel(4, nu=1e-3), ("1.0", "0.0", 2, ("2.1080248049001353",),
                                                       "4.318084976038311e-07")),
]
PINNED_HYNORE = [
    (0.05, ("0.0", "1.3649570777986868", "0.3446970250751855")),
    (3.0, ("0.97995849609375", "1.3667490188108042", "2.5833738761465776e-06")),
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
        batch = _hybrid_error_batch(alpha, c, n_th)(tau, z)
        scalar = [-_hybrid_at(alpha, c, t, osc, (n_th,)).p_err
                  for t, osc in zip(tau.tolist(), z.tolist())]
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("alpha2, n, model, expected", PINNED_HFFRE)
    def test_hffre_pinned_to_scalar_search(self, alpha2, n, model, expected):
        result = hffre_error(math.sqrt(alpha2), cfg(n, model, Receiver.HFFRE))
        p = result.params
        got = (repr(p.tau), repr(p.z), p.n_th, tuple(repr(b) for b in p.betas), repr(result.p_err))
        assert got == expected

    @pytest.mark.parametrize("alpha2, expected", PINNED_HYNORE)
    def test_hynore_pinned_to_scalar_search(self, alpha2, expected):
        result = hynore_error(math.sqrt(alpha2), 2)
        assert (repr(result.params.tau), repr(result.params.z), repr(result.p_err)) == expected

    @pytest.mark.parametrize("model", [IDEAL2, DetectorModel(2, eta=0.7), DARK2,
                                       DetectorModel(2, xi=0.998)])
    def test_hffre_against_dense_grid_oracle(self, model):
        # The 41-point grid with four refinement rounds must get within
        # 1e-6 of a dense 401 x 401 scan over (tau, z) and the thresholds.
        alpha = 1.0
        c = cfg(1, model, Receiver.HFFRE)
        taus = np.arange(401) / 400
        zs = 9.0 * np.arange(401) / 400
        thresholds = (1,) if model.nu == 0.0 and model.xi == 1.0 else (1, 2)
        dense = math.inf
        for n_th in thresholds:
            objective = _hybrid_error_batch(alpha, c, n_th)
            for rows in np.array_split(taus, 20):
                tau, z = np.meshgrid(rows, zs, indexing="ij")
                dense = min(dense, -float(objective(tau.ravel(), z.ravel()).max()))
        assert abs(hffre_error(alpha, c).p_err - dense) <= 1e-6

    # (alpha2, N, model, tau, z): a setting just below tau = 1, in the
    # valley z ~ 1.36, that the (tau, z) grid search misses at N >= 5.
    # hffre_error finds 8.1071e-3, 1.3684e-3 and 4.4754e-4 here; the
    # fixed settings give 8.0856e-3, 1.3669e-3 and 4.4677e-4.
    MISSED_OPTIMA = [
        (1.0, 10, DARK2, 0.9948, 1.36),
        (2.0, 5, DARK2, 0.9963, 1.36),
        (3.16, 10, DetectorModel(2, xi=0.998), 0.9987, 1.36),
    ]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("alpha2, n, model, tau, z", MISSED_OPTIMA)
    def test_hffre_not_above_a_fixed_setting(self, alpha2, n, model, tau, z):
        alpha, c = math.sqrt(alpha2), cfg(n, model, Receiver.HFFRE)
        assert hffre_error(alpha, c).p_err <= hffre_error_at(alpha, c, tau, z).p_err


class TestSettlement:
    def test_near_ties_take_e0_from_the_round(self, monkeypatch):
        # At nu = 1e-3 and alpha2 ~ 3.31 the rounds leave hundreds of
        # near-ties, mostly on the tau = 1 column. Their e0 comes from the
        # round's hl_sign_error, so only the final replay calls the
        # two-PMF kernel.
        kernel = feedforward.hl_difference_pmf
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(feedforward, "hl_difference_pmf", counting)
        result = hffre_error(math.sqrt(3.313455838415151), cfg(1, DARK2, Receiver.HFFRE))
        assert result.params.n_th == 2
        assert len(calls) <= 2

    ALPHA = math.sqrt(3.313455838415151)

    def round_zero(self, n_th):
        # The mandatory point followed by the 41 x 41 grid, as hffre_error's
        # first round hands them to the objective, and the points within
        # the settlement window of the round's best value.
        c = cfg(1, DARK2, Receiver.HFFRE)
        spec = feedforward._tau_z_spec(self.ALPHA)
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(spec.bounds, spec.points)]
        tau, z = (np.concatenate(([m], g.ravel()))
                  for m, g in zip(spec.mandatory[0], np.meshgrid(*axes, indexing="ij")))
        objective = _hybrid_error_batch(self.ALPHA, c, n_th)
        values = objective(tau, z)
        top = values.max()
        window = (feedforward.BATCH_RTOL_PER_COPY * abs(top)
                  + (feedforward.BATCH_ATOL_PER_COPY if n_th > 1 else 0.0))
        return c, tau, z, objective, values, np.flatnonzero(values >= top - window).tolist()

    # At n_th = 2 one point lies in the window; at n_th = 1 the whole
    # tau = 1 column does, where z moves e0 only in its rounding.
    @pytest.mark.parametrize("n_th", [2, 1])
    def test_values_in_the_window_are_the_scalar_recursion(self, n_th):
        c, tau, z, _, values, near = self.round_zero(n_th)
        assert near
        for i in near:
            t, osc = float(tau[i]), float(z[i])
            assert values[i] == -_hybrid_at(self.ALPHA, c, t, osc, (n_th,)).p_err

    @pytest.mark.parametrize("n_th", [2, 1])
    def test_one_scalar_run_per_distinct_tau_and_e0(self, n_th, monkeypatch):
        scan = feedforward._threshold_scan
        runs = []

        def counting(amplitude, c, e_initial, candidates):
            assert tuple(candidates) == (n_th,)
            runs.append((amplitude, e_initial))
            return scan(amplitude, c, e_initial, candidates)

        monkeypatch.setattr(feedforward, "_threshold_scan", counting)
        c, tau, z, objective, values, near = self.round_zero(n_th)
        e0 = hl_sign_error(np.sqrt(np.maximum(0.0, 1.0 - tau)) * self.ALPHA, z, c.model)
        keys = {(float(tau[i]), float(e0[i])) for i in near}
        assert len(runs) == len(keys)
        assert set(runs) == {(math.sqrt(t) * self.ALPHA, e) for t, e in keys}
        assert np.array_equal(objective(tau, z), values)
        assert len(runs) == len(keys)  # the memo outlives the round


class TestStepRows:
    """The lockstep step objective equals the one built from its flip probabilities."""

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

    @pytest.mark.parametrize("model", [IDEAL2, DetectorModel(2, eta=0.7), DARK2,
                                       DetectorModel(2, xi=0.998)])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("n_th", [1, 2])
    def test_step_equals_objective_of_flips(self, model, n, n_th):
        amplitude, beta, e = self.elements(n, model)
        step = _step_objective(amplitude, n, model, n_th)
        false_flip, missed_flip = _flips(amplitude, n, model, n_th, beta)
        expected = -((1.0 - e) * false_flip + e * missed_flip)
        assert same_bits(step(e)(beta), expected)
        if model.nu == 0.0 and model.xi == 1.0:
            # the edge cases the rearranged n_th = 1 step must carry: a
            # minus rate of exactly 0 and one below 0, a plus rate past
            # exp's underflow
            base = amplitude * amplitude / n + beta * beta
            cross = 2.0 * amplitude / math.sqrt(n) * beta
            assert (base - cross < 0.0).any() and (base - cross == 0.0).any()
            assert (missed_flip == 0.0).any()

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
        _hybrid_error_batch(alpha, c, n_th)(tau, z)
        assert copies == [1682, 1682]

    @pytest.mark.parametrize("alpha2, n, model, expected", PINNED_DFFRE)
    def test_dffre_pinned(self, alpha2, n, model, expected):
        result = dffre_error(math.sqrt(alpha2), cfg(n, model))
        betas = result.params.betas
        assert (result.params.n_th, repr(betas[0]), repr(betas[-1]), repr(result.p_err)) == expected

    def test_threshold_checked_once_per_recursion(self, monkeypatch):
        # Ten copies and thresholds 1..8: 5,516 q_thresh calls when every
        # rate went through it, now one per recursion at n_th >= 2.
        checked = feedforward.q_thresh
        calls = []

        def counting(*args):
            calls.append(args)
            return checked(*args)

        monkeypatch.setattr(feedforward, "q_thresh", counting)
        dffre_error(1.0, cfg(10, DetectorModel(8, nu=1e-3)))
        assert 1 <= len(calls) <= 7

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
