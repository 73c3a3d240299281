"""Feed-forward recursions: hand values, reductions, orderings, saturation floors."""

import math

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
    _flip_probabilities,
    _hybrid_error_batch,
    _hybrid_recursion,
    _negated_step_error,
)
from bpskrx.optimize import ScalarSearchSpec, coarse_abscissae
from bpskrx.photostatistics import DetectorModel, q_thresh

IDEAL2 = DetectorModel(2)


def cfg(n, model=IDEAL2, receiver=Receiver.DFFRE):
    return FeedForwardConfig(n, model, receiver)


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
        scalar = [-_hybrid_recursion(alpha, c, t, osc, n_th)[0][-1]
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
        spec = ScalarSearchSpec(0.0, amplitude / math.sqrt(n) + BETA_MARGIN,
                                BETA_COARSE_POINTS, BETA_TOL)
        grid = spec.coarse_grid()
        for n_th in range(1, model.resolution + 1):
            flips = _flip_probabilities(amplitude, n, model, n_th)
            table = [flips(beta) for beta in grid]
            for e_prev in (0.5, 1e-3, 1e-300, 0.0):
                objective, coarse = _negated_step_error(e_prev, flips, table)
                reference = reference_step_error(e_prev, amplitude, n, model, n_th)
                assert coarse == [objective(beta) for beta in grid]
                assert coarse == [reference(beta) for beta in grid]

    @pytest.mark.parametrize("model", [IDEAL2, DARK2, DetectorModel(8, nu=1e-3),
                                       DetectorModel(2, xi=0.998)])
    def test_recursion_hands_search_the_objective_on_its_grid(self, model, monkeypatch):
        search = feedforward.maximize_scalar
        copies = []

        def comparing(f, spec, coarse):
            assert coarse == [f(beta) for beta in spec.coarse_grid()]
            copies.append(spec.hi)
            return search(f, spec, coarse)

        monkeypatch.setattr(feedforward, "maximize_scalar", comparing)
        dffre_error(1.3, cfg(3, model))
        assert len(copies) == 3 * len(feedforward._threshold_candidates(model))

    @pytest.mark.parametrize("model, n_th",
                             [(IDEAL2, 1), (DARK2, 2), (DetectorModel(2, xi=0.998), 2)])
    def test_tabulated_columns_equal_evaluated_columns(self, model, n_th, monkeypatch):
        # Every coarse column the lockstep search reads from the per-tau
        # table equals the objective there, and the search returns what
        # it returns when it evaluates every column itself.
        search = feedforward.maximize_scalar_batch
        copies = []

        def comparing(f, lo, hi, coarse_points, tol, coarse):
            grid = coarse_abscissae(lo, hi, coarse_points)
            for i in range(coarse_points):
                assert np.array_equal(coarse(i), f(grid(i)))
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
        with pytest.raises(ValueError):
            saturation_visibility(0.0, 1.0, 1, 2)


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

    def test_bad_model(self):
        with pytest.raises(ValueError):
            FeedForwardConfig(1, "nope", Receiver.DFFRE)

    def test_bad_receiver(self):
        with pytest.raises(ValueError):
            FeedForwardConfig(1, IDEAL2, "DFFRE")
