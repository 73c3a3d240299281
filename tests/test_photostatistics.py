"""Detection-statistics kernel: frozen values, brute-force oracles, invariants."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpskrx.feedforward import (
    _copy_rates,
    _step_objective,
    correct_probability_trace,
    step_correct_prob,
    step_rates,
)
from bpskrx.photostatistics import (
    HL_MAX_STEPS,
    HL_SCAN_BLOCK,
    HL_SCAN_POINTS,
    HL_Z_RTOL,
    BranchMeans,
    DetectorModel,
    branch_means,
    exp_rows,
    hl_difference_pmf,
    _hl_sign_terms,
    _pnr_rows,
    hl_sign_error,
    hl_sign_minimum,
    pnr_pmf,
    q_above_below_rows,
    q_off,
    q_on,
    q_thresh,
    skellam_pmf,
)

IDEAL2 = DetectorModel(2)


def same_bits(a, b):
    """Equal shapes and equal floats bit for bit."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))

# 40-digit references for e^-1 and the PNR(2) tail at mu = 1
EXP_M1 = 0.3678794411714423216
TAIL_1_2 = 0.26424111765711535681


class TestPnrPmf:
    def test_vacuum(self):
        assert pnr_pmf(0.0, 2).tolist() == [1.0, 0.0, 0.0]

    def test_unit_rate_frozen(self):
        probs = pnr_pmf(1.0, 2)
        assert probs[0] == pytest.approx(EXP_M1, abs=1e-15)
        assert probs[1] == pytest.approx(EXP_M1, abs=1e-15)
        assert probs[2] == pytest.approx(TAIL_1_2, abs=1e-15)

    def test_saturation(self):
        probs = pnr_pmf(1e6, 2)
        assert abs(probs[2] - 1.0) <= 1e-12

    @pytest.mark.parametrize("mu,m", [(0.3, 1), (2.5, 4), (7.0, 9)])
    def test_against_direct_formula(self, mu, m):
        probs = pnr_pmf(mu, m)
        for n in range(m):
            direct = math.exp(-mu) * mu**n / math.factorial(n)
            assert probs[n] == pytest.approx(direct, rel=1e-14, abs=0.0)
        tail = 1.0 - sum(math.exp(-mu) * mu**j / math.factorial(j) for j in range(m))
        assert probs[m] == pytest.approx(tail, abs=1e-14)

    @pytest.mark.parametrize("bad", [-0.5, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            pnr_pmf(bad, 2)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            pnr_pmf(1.0, 0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(mu=st.floats(0.0, 100.0), m=st.integers(1, 16))
    def test_normalization(self, mu, m):
        probs = pnr_pmf(mu, m)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        mu=st.floats(0.0, 20.0),
        nus=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
        m=st.integers(1, 8),
    )
    def test_saturated_outcome_monotone_in_dark_rate(self, mu, nus, m):
        lo, hi = sorted(nus)
        assert pnr_pmf(mu + hi, m)[m] >= pnr_pmf(mu + lo, m)[m] - 1e-15


class TestBranchMeans:
    def test_no_signal_balanced(self):
        assert branch_means(0.0, 2.0) == BranchMeans(2.0, 2.0)

    def test_unit_case(self):
        mu = branch_means(1.0, 1.0)
        assert mu.mu_plus == pytest.approx(2.0, abs=1e-15)
        assert mu.mu_minus == pytest.approx(0.0, abs=1e-15)

    def test_visibility_case(self):
        mu = branch_means(1.0, 1.0, xi=0.998)
        assert mu.mu_plus == pytest.approx(1.998, abs=1e-12)
        assert mu.mu_minus == pytest.approx(0.002, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(zeta=st.floats(-5.0, 5.0), z=st.floats(0.0, 5.0))
    def test_ideal_reduces_to_squared_amplitudes(self, zeta, z):
        mu = branch_means(zeta, z, xi=1.0)
        assert mu.mu_plus == pytest.approx(abs(zeta + z) ** 2 / 2, rel=1e-12, abs=1e-14)
        assert mu.mu_minus == pytest.approx(abs(zeta - z) ** 2 / 2, rel=1e-12, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            branch_means(1.0, -0.1)
        with pytest.raises(ValueError):
            branch_means(1.0, 1.0, xi=0.0)


class TestHlDifferencePmf:
    def test_vacuum(self):
        pmf = hl_difference_pmf(0.0, 0.0, IDEAL2)
        assert pmf.prob(0) == 1.0
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_brute_force_double_sum(self):
        # Independent nested-loop oracle over all (n, m) pairs.
        pmf = hl_difference_pmf(0.5, 1.0, IDEAL2)
        mu_p = abs(0.5 + 1.0) ** 2 / 2
        mu_m = abs(0.5 - 1.0) ** 2 / 2

        def poisson2(mu, n):
            if n < 2:
                return math.exp(-mu) * mu**n / math.factorial(n)
            return 1.0 - math.exp(-mu) * (1.0 + mu)

        for delta in range(-2, 3):
            expected = sum(
                poisson2(mu_p, n) * poisson2(mu_m, m)
                for n in range(3)
                for m in range(3)
                if n - m == delta
            )
            assert pmf.prob(delta) == pytest.approx(expected, abs=1e-12)

    def test_brute_force_with_imperfections(self):
        model = DetectorModel(2, eta=0.7, nu=1e-3, xi=0.998)
        pmf = hl_difference_pmf(-0.8, 1.3, model)
        base = 0.8 * 0.8 + 1.3 * 1.3
        cross = 2 * 0.998 * 1.3 * (-0.8)
        rate_p = 0.7 * (base + cross) / 2 + 1e-3
        rate_m = 0.7 * (base - cross) / 2 + 1e-3

        def poisson2(mu, n):
            if n < 2:
                return math.exp(-mu) * mu**n / math.factorial(n)
            return 1.0 - math.exp(-mu) * (1.0 + mu)

        for delta in range(-2, 3):
            expected = sum(
                poisson2(rate_p, n) * poisson2(rate_m, m)
                for n in range(3)
                for m in range(3)
                if n - m == delta
            )
            assert pmf.prob(delta) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(zeta=st.floats(-4.0, 4.0), z=st.floats(0.0, 6.0), m=st.integers(1, 8))
    def test_mirror_symmetry(self, zeta, z, m):
        model = DetectorModel(m)
        left = hl_difference_pmf(-zeta, z, model).probs
        right = hl_difference_pmf(zeta, z, model).probs[::-1]
        assert np.max(np.abs(left - right)) <= 1e-15

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(zeta=st.floats(-4.0, 4.0), z=st.floats(0.0, 10.0), m=st.integers(1, 16))
    def test_normalization(self, zeta, z, m):
        pmf = hl_difference_pmf(zeta, z, DetectorModel(m))
        assert abs(pmf.probs.sum() - 1.0) <= 1e-12

    def test_mass_helpers(self):
        pmf = hl_difference_pmf(0.4, 0.9, IDEAL2)
        assert pmf.mass_negative() == pytest.approx(float(pmf.probs[:2].sum()), abs=1e-15)
        assert pmf.mass_negative() + pmf.mass_nonnegative() == pytest.approx(1.0, abs=1e-12)

    def test_prob_range_error(self):
        with pytest.raises(ValueError):
            hl_difference_pmf(0.0, 0.0, IDEAL2).prob(3)

    @pytest.mark.parametrize("zeta, z, message", [
        (1e200, 0.0, "mu must be finite and >= 0, got inf"),
        (math.nan, 1.0, "zeta must be finite, got nan"),
        (1.0, -1.0, "z must be >= 0, got -1.0"),
    ])
    def test_domain_errors(self, zeta, z, message):
        assert raised(hl_difference_pmf, zeta, z, IDEAL2) == message


def mp_sign_error(reflected, z, model):
    """e0 of ``hl_sign_error`` at the working precision of mpmath: the double
    sums over the two truncated Poisson PMFs."""
    r, z = mpmath.mpf(reflected), mpmath.mpf(z)
    eta, nu, xi = mpmath.mpf(model.eta), mpmath.mpf(model.nu), mpmath.mpf(model.xi)
    m = model.resolution

    def pmf(mu):
        p = [mpmath.exp(-mu) * mu**k / mpmath.factorial(k) for k in range(m)]
        return p + [1 - mpmath.fsum(p)]

    base, cross = r * r + z * z, 2 * xi * z * r
    p_plus, p_minus = pmf(eta * (base + cross) / 2 + nu), pmf(eta * (base - cross) / 2 + nu)
    # "+alpha" swaps the branch means: Delta = n - m >= 0 with n ~ p-, m ~ p+
    plus = mpmath.fsum(p_minus[n] * p_plus[k] for n in range(m + 1) for k in range(n + 1))
    minus = mpmath.fsum(p_plus[n] * p_minus[k] for n in range(m + 1) for k in range(n + 1, m + 1))
    return (plus + minus) / 2


SIGN_MODELS = [
    lambda m: DetectorModel(m, eta=0.7),
    lambda m: DetectorModel(m, nu=1e-3),
    lambda m: DetectorModel(m, xi=0.998),
]
# The saturated bin of a PNR PMF is 1 minus its partial sum, good to about
# one ulp of 1 (ROADMAP item 2(b)), which bounds small e0 and slopes absolutely.
SIGN_ATOL = 2.0**-52


class TestHlSignError:
    @pytest.mark.parametrize("model", [
        DetectorModel(1), IDEAL2, DetectorModel(4), DetectorModel(2, nu=1e-3),
        DetectorModel(3, eta=0.7, nu=1e-4, xi=0.998), DetectorModel(16),
    ])
    def test_within_ulps_of_diagonal_masses(self, model):
        # The O(M) sums against the O(M^2) diagonals of hl_difference_pmf.
        rng = np.random.default_rng(5)
        reflected = np.concatenate(([0.0, 0.0, 1.2], rng.uniform(0.0, 3.0, 200)))
        z = np.concatenate(([0.0, 2.0, 0.0], rng.uniform(0.0, 9.0, 200)))
        diagonals = np.array([
            0.5 * (hl_difference_pmf(-r, osc, model).mass_nonnegative()
                   + hl_difference_pmf(r, osc, model).mass_negative())
            for r, osc in zip(reflected.tolist(), z.tolist())
        ])
        e0 = hl_sign_error(reflected, z, model)
        assert np.all(np.abs(e0 - diagonals) <= 4.0 * np.spacing(diagonals))

    @pytest.mark.parametrize("m", [1, 2, 8, 64])
    @pytest.mark.parametrize("make", SIGN_MODELS, ids=["eta", "nu", "xi"])
    def test_value_and_slope_against_mpmath(self, m, make):
        model = make(m)
        points = [(0.05, 0.3), (0.4, 1.3), (1.2, 0.7), (2.5, 4.0), (3.0, 9.0), (0.0, 2.0)]
        reflected, z = (np.array(c) for c in zip(*points))
        e0, slope = _hl_sign_terms(reflected, z, model, slope=True)
        assert e0.tolist() == hl_sign_error(reflected, z, model).tolist()
        for k, (r, osc) in enumerate(points):
            with mpmath.workdps(40):
                ref = mp_sign_error(r, osc, model)
                ref_slope = mpmath.diff(lambda x: mp_sign_error(r, x, model), osc)
            assert abs(e0[k] - ref) <= 1e-14 * ref + SIGN_ATOL, (r, osc)
            assert abs(slope[k] - ref_slope) <= 1e-14 * abs(ref_slope) + SIGN_ATOL, (r, osc)

    def test_a_row_alone_equals_the_row_among_others(self):
        # what lets one (tau, z) replay the e0 of its lockstep round bit for bit
        model = DetectorModel(3, eta=0.7, nu=1e-4, xi=0.998)
        rng = np.random.default_rng(8)
        reflected, z = rng.uniform(0.0, 3.0, 300), rng.uniform(0.0, 9.0, 300)
        rows = hl_sign_error(reflected, z, model)
        alone = [hl_sign_error(reflected[k:k + 1], z[k:k + 1], model)[0] for k in range(300)]
        assert same_bits(rows, alone)

    def test_no_tap_is_a_coin_flip(self):
        # reflected = 0 carries no information: e0 = 1/2 up to rounding.
        e0 = hl_sign_error(np.zeros(5), np.linspace(0.0, 4.0, 5), IDEAL2)
        assert np.all(np.abs(e0 - 0.5) <= 1e-15)

    def test_negative_oscillator_rejected(self):
        with pytest.raises(ValueError):
            hl_sign_error(np.array([1.0]), np.array([-0.1]), IDEAL2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_non_finite_oscillator_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"z must be finite and >= 0, got {bad!r}")):
            hl_sign_error(np.array([1.0, 1.0]), np.array([0.5, bad]), IDEAL2)


class TestHlSignMinimum:
    @pytest.mark.parametrize("model", [
        DetectorModel(1), IDEAL2, DetectorModel(2, eta=0.7), DetectorModel(2, nu=1e-3),
        DetectorModel(2, xi=0.998), DetectorModel(8, eta=0.7, nu=1e-3, xi=0.998),
        DetectorModel(64, nu=1e-3),
    ])
    def test_at_or_below_a_dense_scan(self, model):
        reflected = np.array([0.02, 0.1, 0.3, 0.7, 1.0, 1.6, 2.2, 3.0])
        z_hi = 5.0 + 4.0 * 3.0
        z_star, e0_star, e0_zero = hl_sign_minimum(reflected, z_hi, model)
        dense = z_hi * np.arange(20_001) / 20_000
        for r, z, e in zip(reflected, z_star, e0_star):
            assert 0.0 <= z <= z_hi
            assert e == hl_sign_error(np.array([r]), np.array([z]), model)[0]
            assert e <= hl_sign_error(np.full(dense.size, r), dense, model).min()
        # the scan's first column is the HL error at z = 0, bit for bit
        assert same_bits(e0_zero, hl_sign_error(reflected, np.zeros_like(reflected), model))

    def test_no_tap_gives_zero_oscillator(self):
        z_star, e0_star, e0_zero = hl_sign_minimum(np.array([0.0, 1.0]), 9.0, IDEAL2)
        assert z_star[0] == 0.0 and abs(e0_star[0] - 0.5) <= 1e-15
        assert same_bits(e0_zero[:1], e0_star[:1]) and abs(e0_zero[1] - 0.5) <= 1e-15
        assert z_star[1] > 0.0 and e0_star[1] < 0.5

    def test_each_element_searched_alone(self):
        # across the scan's blocks of HL_SCAN_BLOCK elements too
        model = DetectorModel(2, nu=1e-3)
        size = 2 * HL_SCAN_BLOCK + 41
        reflected = np.linspace(0.0, 3.0, size)
        together = hl_sign_minimum(reflected, 9.0, model)
        alone = [hl_sign_minimum(reflected[k:k + 1], 9.0, model) for k in range(size)]
        for k in range(3):
            assert same_bits(together[k], [values[k][0] for values in alone])


def two_call_sign_terms(reflected, z, model):
    """``_hl_sign_terms`` with value and slope, p+ and p- from one ``_pnr_rows`` call each."""
    base = reflected * reflected + z * z
    cross = 2.0 * model.xi * z * reflected
    m = model.resolution
    p_plus = _pnr_rows(model.eta * (0.5 * (base + cross)) + model.nu, m)
    p_minus = _pnr_rows(model.eta * (0.5 * (base - cross)) + model.nu, m)
    at_or_below_plus = np.cumsum(p_plus, axis=1)
    above_minus = np.cumsum(p_minus[:, :0:-1], axis=1)[:, ::-1]
    e0 = 0.5 * ((p_minus * at_or_below_plus).sum(axis=1)
                + (p_plus[:, :m] * above_minus).sum(axis=1))
    same = (p_plus[:, :m] * p_minus[:, :m]).sum(axis=1)
    up = (p_minus[:, :m] * p_plus[:, 1:]).sum(axis=1)
    down = (p_plus[:, :m] * p_minus[:, 1:]).sum(axis=1)
    reach = model.xi * reflected
    return e0, 0.5 * model.eta * ((z - reach) * (up + same) - (z + reach) * (down + same))


def compressing_sign_minimum(reflected, z_hi, model):
    """``hl_sign_minimum`` as a loop that compresses every open row's arrays and gathers
    its amplitude at every Illinois step, on ``two_call_sign_terms``; e0 at z = 0 from a
    call of its own."""
    size, n = reflected.size, HL_SCAN_POINTS
    grid = z_hi * np.arange(n) / (n - 1)
    e0, slope = np.empty((size, n)), np.empty((size, n))
    for k0 in range(0, size, HL_SCAN_BLOCK):
        block = reflected[k0:k0 + HL_SCAN_BLOCK]
        rows = slice(k0, k0 + block.size)
        e0[rows], slope[rows] = (v.reshape(block.size, n) for v in two_call_sign_terms(
            np.repeat(block, n), np.tile(grid, block.size), model))
    found = np.where(reflected == 0.0, 0, e0.argmin(axis=1))
    best_z = grid[found]
    best_e = e0[np.arange(size), found]
    rising = slope >= 0.0
    k = rising.argmax(axis=1)
    bracketed = rising.any(axis=1) & (k > 0) & (reflected > 0.0)
    rows = np.flatnonzero(bracketed)
    k = k[rows]
    a, b = grid[k - 1], grid[k]
    slope_a, slope_b = slope[rows, k - 1], slope[rows, k]
    kept = np.zeros(rows.size, dtype=np.int8)  # the end the last step kept: -1 a, +1 b
    for _ in range(HL_MAX_STEPS):
        open_ = (b - a > HL_Z_RTOL * z_hi) & (slope_b > 0.0)
        if not open_.any():
            break
        rows, a, b, slope_a, slope_b, kept = (
            v[open_] for v in (rows, a, b, slope_a, slope_b, kept))
        x = np.clip(b - slope_b * (b - a) / (slope_b - slope_a), a, b)
        value, slope_x = two_call_sign_terms(reflected[rows], x, model)
        better = value < best_e[rows]
        best_z[rows[better]] = x[better]
        best_e[rows[better]] = value[better]
        left = slope_x < 0.0
        slope_b = np.where(left & (kept == 1), 0.5 * slope_b, slope_b)
        slope_a = np.where(~left & (kept == -1), 0.5 * slope_a, slope_a)
        a, slope_a = np.where(left, x, a), np.where(left, slope_x, slope_a)
        b, slope_b = np.where(left, b, x), np.where(left, slope_b, slope_x)
        kept = np.where(left, 1, -1).astype(np.int8)
    return best_z, best_e, two_call_sign_terms(reflected, np.zeros_like(reflected), model)[0]


KERNEL_MODELS = [
    lambda m: DetectorModel(m),
    lambda m: DetectorModel(m, eta=0.7),
    lambda m: DetectorModel(m, nu=1e-3),
    lambda m: DetectorModel(m, xi=0.998),
]


class TestSignKernelsAgainstReferenceLoops:
    """The HL sign kernels equal their plain references bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 64])
    @pytest.mark.parametrize("make", KERNEL_MODELS, ids=["ideal", "eta", "nu", "xi"])
    def test_sign_terms_from_one_pnr_call(self, m, make):
        model = make(m)
        rng = np.random.default_rng(m)
        # rows with zeta = 0, with z = 0 and with both
        reflected = np.concatenate(([0.0, 0.0, 1.3, 0.0], rng.uniform(0.0, 4.0, 200)))
        z = np.concatenate(([0.0, 2.0, 0.0, 9.0], rng.uniform(0.0, 20.0, 200)))
        e0, slope = _hl_sign_terms(reflected, z, model, slope=True)
        ref_e0, ref_slope = two_call_sign_terms(reflected, z, model)
        assert same_bits(e0, ref_e0) and same_bits(slope, ref_slope)
        assert _hl_sign_terms(reflected, z, model)[1] is None
        assert same_bits(_hl_sign_terms(reflected, z, model)[0], ref_e0)

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 64])
    @pytest.mark.parametrize("make", KERNEL_MODELS, ids=["ideal", "eta", "nu", "xi"])
    def test_sign_minimum_equals_compressing_loop(self, m, make):
        # rows close at different Illinois steps, so the open set shrinks
        # more than once; a zero amplitude and a second scan block included
        model = make(m)
        rng = np.random.default_rng(10 + m)
        reflected = np.concatenate(([0.0, 1e-3, 3.0], rng.uniform(0.0, 3.0, HL_SCAN_BLOCK + 20)))
        for z_hi in (9.0, 5.0 + 4.0 * 3.0):
            found = hl_sign_minimum(reflected, z_hi, model)
            reference = compressing_sign_minimum(reflected, z_hi, model)
            assert all(same_bits(v, ref) for v, ref in zip(found, reference, strict=True))

    def test_sign_minimum_of_no_elements(self):
        z_star, e0_star, e0_zero = hl_sign_minimum(np.empty(0), 9.0, IDEAL2)
        assert z_star.shape == e0_star.shape == e0_zero.shape == (0,)


def term_loop_pnr_pmf(mu, m):
    """The truncated Poisson PMF as a scalar term loop, the reference for ``pnr_pmf``."""
    probs = np.empty(m + 1, dtype=float)
    term = math.exp(-mu)
    partial = 0.0
    for n in range(m):
        probs[n] = term
        partial += term
        term *= mu / (n + 1)
    probs[m] = min(1.0, max(0.0, 1.0 - partial))
    return probs


def trace_difference_pmf(zeta, z, model):
    """The HL difference PMF as traces of the outer product of two ``term_loop_pnr_pmf``."""
    mu = branch_means(zeta, z, model.xi)
    m = model.resolution
    joint = np.outer(term_loop_pnr_pmf(model.detection_rate(mu.mu_plus), m),
                     term_loop_pnr_pmf(model.detection_rate(mu.mu_minus), m))
    return np.array([np.trace(joint, offset=-delta) for delta in range(-m, m + 1)])


REFERENCE_MODELS = [
    lambda m: DetectorModel(m),
    lambda m: DetectorModel(m, eta=0.7),
    lambda m: DetectorModel(m, nu=1e-3),
    lambda m: DetectorModel(m, xi=0.998),
]


class TestAgainstReferenceLoops:
    """``pnr_pmf`` and ``hl_difference_pmf`` equal the plain loops bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 64])
    def test_pnr_pmf(self, m):
        rng = np.random.default_rng(m)
        rates = [0.0, 5e-324, 1e-12, 1e-3, float(m), 1e3] + rng.uniform(0.0, 40.0, 60).tolist()
        for mu in rates:
            assert pnr_pmf(mu, m).tolist() == term_loop_pnr_pmf(mu, m).tolist()

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 64])
    @pytest.mark.parametrize("make_model", REFERENCE_MODELS, ids=["ideal", "eta", "nu", "xi"])
    def test_hl_difference_pmf(self, m, make_model):
        model = make_model(m)
        rng = np.random.default_rng(100 + m)
        zetas = [0.0, 1.2, -1.2] + rng.uniform(-4.0, 4.0, 30).tolist()
        zs = [0.0, 0.0, 2.0] + rng.uniform(0.0, 9.0, 30).tolist()
        for zeta, z in zip(zetas, zs):
            expected = trace_difference_pmf(zeta, z, model).tolist()
            assert hl_difference_pmf(zeta, z, model).probs.tolist() == expected


class TestSkellam:
    def test_degenerate(self):
        assert skellam_pmf(0, 0.0, 0.0) == 1.0
        assert skellam_pmf(1, 0.0, 0.0) == 0.0

    def test_symmetry_equal_rates(self):
        for delta in range(0, 5):
            assert skellam_pmf(delta, 1.7, 1.7) == pytest.approx(
                skellam_pmf(-delta, 1.7, 1.7), rel=1e-13, abs=0.0
            )

    def test_series_oracle(self):
        # sum_m Poisson(m+1; 2) Poisson(m; 0.5), summed to m = 200, with an
        # independent Poisson PMF implementation
        from scipy.stats import poisson

        expected = sum(
            float(poisson.pmf(m + 1, 2.0) * poisson.pmf(m, 0.5)) for m in range(0, 201)
        )
        assert skellam_pmf(1, 2.0, 0.5) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert skellam_pmf(1, 2.0, 0.5) == pytest.approx(0.26113484804805572811, rel=1e-13, abs=0.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            skellam_pmf(0, -1.0, 1.0)

    def test_total_mass(self):
        total = sum(skellam_pmf(d, 2.0, 1.3) for d in range(-40, 41))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_hl_convergence_at_high_resolution(self):
        model = DetectorModel(64)
        for zeta, z in [(0.5, 1.5), (1.0, 1.2)]:
            pmf = hl_difference_pmf(zeta, z, model)
            mu = branch_means(zeta, z)
            sup = max(
                abs(pmf.prob(d) - skellam_pmf(d, mu.mu_plus, mu.mu_minus))
                for d in range(-10, 11)
            )
            assert sup <= 1e-8


class TestClickProbabilities:
    def test_trivial_values(self):
        assert q_off(0.0) == 1.0
        assert q_on(0.0) == 0.0
        assert q_off(4.0) == pytest.approx(0.018315638888734180294, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=st.floats(0.0, 50.0))
    def test_complementarity_exact(self, x):
        assert q_off(x) + q_on(x) == 1.0

    def test_threshold_trivials(self):
        for n_th in (1, 2, 3):
            assert q_thresh(0.0, n_th) == (1.0, 0.0)
        assert q_thresh(1.0, 2)[0] == pytest.approx(0.73575888234288464319, abs=1e-15)

    def test_threshold_one_reduces_to_on_off(self):
        for x in (0.0, 1e-9, 0.4, 3.0, 25.0):
            assert q_thresh(x, 1) == (q_off(x), q_on(x))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(xs=st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)), n_th=st.integers(1, 8))
    def test_q0_non_increasing_in_rate(self, xs, n_th):
        lo, hi = sorted(xs)
        assert q_thresh(hi, n_th)[0] <= q_thresh(lo, n_th)[0] + 1e-14

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(x=st.floats(0.0, 30.0), ns=st.tuples(st.integers(1, 8), st.integers(1, 8)))
    def test_q0_non_decreasing_in_threshold(self, x, ns):
        lo, hi = sorted(ns)
        assert q_thresh(x, hi)[0] >= q_thresh(x, lo)[0] - 1e-14

    @pytest.mark.parametrize("n_th", [1, 2, 3, 8])
    def test_rows_match_scalar(self, n_th):
        x = np.array([0.0, 1e-9, 0.03, 0.4, 1.0, 3.0, 25.0])
        above, below = q_above_below_rows(n_th)(x, x)
        for i, xi in enumerate(x.tolist()):
            q0, q1 = q_thresh(xi, n_th)
            # np.exp may differ from math.exp in the last bit
            assert below[i] == pytest.approx(q0, rel=4e-16, abs=0.0)
            assert above[i] == pytest.approx(q1, rel=1e-12, abs=1e-16)

    def test_threshold_domain_errors(self):
        with pytest.raises(ValueError):
            q_thresh(1.0, 0)
        with pytest.raises(ValueError):
            q_thresh(1.0, 3, resolution=2)
        with pytest.raises(ValueError):
            q_off(-0.1)


def term_by_term_q_thresh(x, n_th):
    """The threshold pair written out as a plain loop, the reference for the kernel."""
    term = math.exp(-x)
    q0 = 0.0
    for s in range(n_th):
        q0 += term
        term *= x / (s + 1)
    q0 = min(1.0, q0)
    return q0, 1.0 - q0


def raised(fn, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return str(info.value)


def same_bits(a, b):
    """Equal shapes and equal floats bit for bit, the sign of a zero included."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def loop_q_below_rows(x, n_th):
    """The row kernel's q0 as it was written with a term update after the last term."""
    if n_th == 1:
        return np.exp(-x)
    term = np.exp(-x)
    q0 = 0.0
    for s in range(n_th):
        q0 = q0 + term
        term = term * (x / (s + 1))
    return np.minimum(1.0, q0)


class TestRowKernels:
    """The row kernels equal their references element for element, bit for bit."""

    def test_exp_rows_equals_math_exp(self):
        # down to subnormal results (e^-740) and results that underflow to 0
        x = np.array([0.0, -0.0, 1e-300, -5e-324, -1.0, 2.5, 700.0, -700.0, -708.5, -740.0,
                      -744.4, -745.1, -745.2, -746.0, -1e4])
        expected = np.array([math.exp(v) for v in x.tolist()])
        assert same_bits(exp_rows(x), expected)
        assert 0.0 < expected[9] < 2.2250738585072014e-308 and expected[-3:].tolist() == [0.0] * 3
        swept = np.random.default_rng(7).uniform(-750.0, 709.0, 5000)
        assert same_bits(exp_rows(swept), np.array([math.exp(v) for v in swept.tolist()]))
        assert exp_rows(x[:0]).shape == (0,)

    @pytest.mark.parametrize("n_th", range(1, 9))
    def test_q_below_rows_equals_loop(self, n_th):
        x = np.concatenate(([0.0, 1e-9, 745.0, 5e-324, 1e3],
                            np.random.default_rng(n_th).uniform(0.0, 40.0, 200)))
        # the q0 half of the row kernel
        assert same_bits(q_above_below_rows(n_th)(x, x)[1], loop_q_below_rows(x, n_th))
        table = x[:200].reshape(8, 25)  # the kernel also reads tables
        assert same_bits(q_above_below_rows(n_th)(table, table)[1],
                         loop_q_below_rows(table, n_th))

    @pytest.mark.parametrize("top", [1, 2, 8, 64])
    @pytest.mark.parametrize("columns", [None, 7])
    def test_thresholds_per_row_equal_each_alone(self, top, columns):
        # one pass over rows of thresholds 1..top in non-decreasing order
        # equals each threshold's rows on their own: (-expm1(-x), exp(-y))
        # at n_th = 1, and (1 - q0(x), q0(y)) of the loop above it
        rng = np.random.default_rng(top)
        shape = (240,) if columns is None else (240, columns)
        x, y = (np.concatenate(([0.0, 5e-324, 745.0, 1e3], rng.uniform(0.0, 40.0, 236)))
                for _ in range(2))
        x, y = (np.resize(rng.permutation(v), shape) for v in (x, y))
        n_th = np.sort(rng.integers(1, top + 1, 240))
        n_th[0], n_th[-1] = 1, top
        above, below = q_above_below_rows(n_th)(x, y)
        for t in np.unique(n_th).tolist():
            rows = n_th == t
            q1 = -np.expm1(-x[rows]) if t == 1 else 1.0 - loop_q_below_rows(x[rows], t)
            assert same_bits(above[rows], q1)
            assert same_bits(below[rows], loop_q_below_rows(y[rows], t))
            assert all(same_bits(got, alone) for got, alone in
                       zip((above[rows], below[rows]), q_above_below_rows(t)(x[rows], y[rows])))

    def test_thresholds_per_row_must_not_decrease(self):
        with pytest.raises(ValueError, match="thresholds must be in non-decreasing order"):
            q_above_below_rows(np.array([1, 3, 2]))


class TestThresholdKernel:
    """``q_thresh`` and the float threshold step equal the plain loop bit for bit."""

    # (amplitude, n_copies, model, beta): rates from 0 to past exp's
    # underflow, and rate_minus far from rate_plus
    STEP_CASES = [(0.0, 1, DetectorModel(64, nu=0.0450768100853598), 0.0),
                  (1.0, 1, DetectorModel(64), 0.3), (3.0, 1, DetectorModel(64, nu=1e-3), 2.9),
                  (0.2, 2, DetectorModel(64, eta=0.7, xi=0.998), 5.0),
                  (40.0, 1, DetectorModel(64, nu=1e-3), 39.0), (5.0, 4, DetectorModel(64), 0.0)]

    @staticmethod
    def step_from_loop(amplitude, n, model, n_th, e_prev, beta):
        """The negated step error -(p q1(rate_minus) + e q0(rate_plus)) from the plain loop."""
        x, y = _copy_rates(amplitude, n, model)(beta)
        return -((1.0 - e_prev) * term_by_term_q_thresh(x, n_th)[1]
                 + e_prev * term_by_term_q_thresh(y, n_th)[0])

    @pytest.mark.parametrize("n_th", range(2, 65))
    def test_equals_loop(self, n_th):
        # at 0.0450768100853598 (n_th = 9) and 0.9646329473090614 (n_th = 46)
        # the partial sum rounds to 1 + 2^-52 and is clamped
        rates = (0.0, 5e-324, 1e-12, 1e-3, 0.0450768100853598, 0.9646329473090614, 1.0,
                 n_th - 1.0, n_th + 1.0, 70.0, 1e3)
        for x in rates:
            expected = term_by_term_q_thresh(x, n_th)
            assert q_thresh(x, n_th) == expected
            # a zero amplitude leaves both rates at nu: e_prev = 0 reads
            # q1, e_prev = 1 reads q0
            step = _step_objective(0.0, 1, DetectorModel(64, nu=x), n_th)
            assert (step(0.0)(0.0), step(1.0)(0.0)) == (-expected[1], -expected[0])
        # the two partial sums of one call do not mix
        for case in self.STEP_CASES:
            *args, beta = case
            step = _step_objective(*args, n_th)
            for e_prev in (0.0, 0.3, 1.0):
                assert same_bits(step(e_prev)(beta),
                                 self.step_from_loop(*args, n_th, e_prev, beta)), case

    def test_step_cases_reach_underflow_and_clamp(self):
        pairs = [_copy_rates(*args)(beta) for *args, beta in self.STEP_CASES]
        assert max(plus for _, plus in pairs) > 746.0 and math.exp(-746.0) == 0.0
        assert pairs[0] == (0.0450768100853598,) * 2  # clamped at n_th = 9
        # each displaced case sets rate_minus apart from rate_plus, some by 1000-fold
        assert all(minus < plus for (minus, plus), case in zip(pairs, self.STEP_CASES)
                   if case[-1] > 0.0)
        assert max(plus / minus for minus, plus in pairs) > 1e3

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=st.floats(0.0, 1e4, allow_subnormal=True), y=st.floats(0.0, 1e4, allow_subnormal=True),
           n_th=st.integers(2, 64))
    def test_equals_loop_swept(self, x, y, n_th):
        expected = term_by_term_q_thresh(x, n_th)
        assert q_thresh(x, n_th) == expected
        # rates sqrt(x) -+ sqrt(y) squared, plus the dark counts
        args = math.sqrt(x), 1, DetectorModel(64, nu=1e-3)
        step = _step_objective(*args, n_th)
        for e_prev in (0.0, 0.3, 1.0):
            assert same_bits(step(e_prev)(math.sqrt(y)),
                             self.step_from_loop(*args, n_th, e_prev, math.sqrt(y)))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_q_thresh_raises_rate_error(self, x):
        assert raised(q_thresh, x, 3) == f"x must be finite and >= 0, got {x!r}"

    # (p_prev, beta, amplitude, n_copies, model) where a²/N and 2aβ/√N
    # both overflow, so the minus rate is inf - inf (a NaN amplitude is
    # rejected as an amplitude, a NaN or infinite beta as a beta)
    OVERFLOWING = (0.5, 1e200, 1e200, 1, DetectorModel(2, nu=1e-3))

    @pytest.mark.parametrize("n_th", [1, 2])
    def test_recursion_raises_non_finite_error(self, n_th):
        # the searches' rule, naming the displacement, at every threshold
        message = "objective returned non-finite value nan at beta = 1e+200"
        p_prev, beta, amplitude, _, model = self.OVERFLOWING
        assert raised(step_correct_prob, *self.OVERFLOWING, n_th=n_th) == message
        assert raised(correct_probability_trace, 1.0, [beta], model, n_th=n_th,
                      p_initial=p_prev, amplitude=amplitude) == message

    def test_recursion_takes_rate_rounded_below_zero(self):
        # a²/N + β² - 2aβ/√N cancels to -8.9e-16 at this near-nulling β:
        # the step takes the recursion's rate as given, and at n_th = 2 its
        # partial sum clamps to 1, so only the missed flip is left
        beta, amplitude = 1.5367617524113883, 1.5367617525666288
        rates = step_rates(beta, amplitude, 1)
        assert rates.lambda_minus == -8.881784197001252e-16
        expected = 1.0 - 0.5 * q_thresh(rates.lambda_plus, 2)[0]
        assert step_correct_prob(0.5, beta, amplitude, 1, IDEAL2, n_th=2) == expected
        assert correct_probability_trace(1.0, [beta], IDEAL2, n_th=2,
                                         amplitude=amplitude) == (0.5, expected)

    @pytest.mark.parametrize("n_th", [0, -1, 3, 9, 1.0, 2.0, None, True, np.True_, np.int64(3)])
    def test_recursion_raises_threshold_error(self, n_th):
        model = DetectorModel(2, nu=1e-3)
        message = raised(q_thresh, 0.0, n_th, 2)
        assert raised(step_correct_prob, 0.5, 0.4, 1.0, 1, model, n_th=n_th) == message
        assert raised(correct_probability_trace, 1.0, [0.4, 0.3], model, n_th=n_th) == message


class TestDetectorModel:
    def test_ideal_flag(self):
        assert IDEAL2.is_ideal
        assert not DetectorModel(2, eta=0.9).is_ideal

    def test_detection_rate_combination(self):
        model = DetectorModel(2, eta=0.7, nu=1e-3)
        assert model.detection_rate(2.0) == pytest.approx(0.7 * 2.0 + 1e-3, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution": 0},
            {"resolution": 2, "eta": 0.0},
            {"resolution": 2, "eta": 1.2},
            {"resolution": 2, "nu": -1e-3},
            {"resolution": 2, "xi": 0.0},
            {"resolution": 2, "xi": 1.1},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DetectorModel(**kwargs)


class TestIntegerParameters:
    """Counts accept Python and numpy integers, store Python ints, and reject bools."""

    @pytest.mark.parametrize("resolution", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_resolution_stored_as_int(self, resolution):
        model = DetectorModel(resolution, nu=1e-3)
        assert type(model.resolution) is int
        assert model == DetectorModel(2, nu=1e-3)
        assert repr(model) == repr(DetectorModel(2, nu=1e-3))

    @pytest.mark.parametrize("resolution", [True, False, 2.0, np.float64(2.0), np.bool_(True), "2"])
    def test_non_integer_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match=r"resolution must be an integer >= 1, got "):
            DetectorModel(resolution)

    def test_pnr_pmf_resolution(self):
        assert same_bits(pnr_pmf(1.3, np.int64(3)), pnr_pmf(1.3, 3))
        for resolution in (True, 3.0, 0):
            with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
                pnr_pmf(1.3, resolution)

    def test_q_thresh_threshold(self):
        assert q_thresh(1.3, np.int64(2), np.int64(2)) == q_thresh(1.3, 2, 2)
        assert q_thresh(1.3, np.int64(1)) == q_thresh(1.3, 1)
        for n_th in (True, False, 2.0):
            with pytest.raises(ValueError, match="n_th must be an integer >= 1"):
                q_thresh(1.3, n_th)
