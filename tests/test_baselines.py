"""Closed-form benchmarks against independently computed high-precision references."""

import math

import numpy as np
import pytest

from bpskrx.baselines import (
    helstrom_bound,
    hynore_error,
    kennedy_error,
    optimized_displacement_error,
    sql_error,
)
from bpskrx.photostatistics import DetectorModel, hl_difference_pmf

# 40-digit mpmath references for the three closed forms at alpha^2 in {1/4, 1, 4}
REFERENCE = {
    0.25: (0.15865525393145705141, 0.10246995118967494635, 0.1839397205857211608),
    1.0: (0.0227501319481792072, 0.0046000703695887131131, 0.0091578194443670901469),
    4.0: (3.1671241833119921254e-05, 2.8133794471325169983e-08, 5.6267587359629557257e-08),
}

# erf reference table (50-digit series evaluation), used to pin the
# accuracy of the error-function backend on [0, 6] to <= 1e-13.
ERF_REFERENCE = {
    0.1: 0.1124629160182848922033,
    0.25: 0.2763263901682369329851,
    0.5: 0.5204998778130465376827,
    0.75: 0.7111556336535151315989,
    1.0: 0.8427007929497148693412,
    1.5: 0.966105146475310727067,
    2.0: 0.9953222650189527341621,
    3.0: 0.9999779095030014145586,
    4.5: 0.9999999998033839558457,
    6.0: 0.9999999999999999784803,
}


class TestClosedForms:
    @pytest.mark.parametrize("alpha2", sorted(REFERENCE))
    def test_frozen_references(self, alpha2):
        alpha = math.sqrt(alpha2)
        sql_ref, hel_ref, ken_ref = REFERENCE[alpha2]
        assert sql_error(alpha) == pytest.approx(sql_ref, abs=1e-13)
        assert helstrom_bound(alpha) == pytest.approx(hel_ref, abs=1e-13)
        assert kennedy_error(alpha) == pytest.approx(ken_ref, abs=1e-13)

    def test_zero_signal(self):
        assert sql_error(0.0) == 0.5
        assert helstrom_bound(0.0) == 0.5
        assert kennedy_error(0.0) == 0.5

    def test_limits(self):
        assert sql_error(100.0) == 0.0  # underflows cleanly, no negative values
        assert helstrom_bound(8.0) > 0.0  # stable tail, no catastrophic cancellation
        assert helstrom_bound(8.0) == pytest.approx(math.exp(-256.0) / 4.0, rel=1e-10, abs=0.0)

    def test_erf_backend_accuracy(self):
        for x, ref in ERF_REFERENCE.items():
            assert abs(math.erf(x) - ref) <= 1e-13

    def test_strictly_decreasing(self):
        grid = np.sqrt(np.logspace(-2, 1, 40))
        for fn in (sql_error, helstrom_bound, kennedy_error):
            values = [fn(a) for a in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_kennedy_to_helstrom_ratio_approaches_two(self):
        alpha = math.sqrt(3.0)
        assert 1.99 <= kennedy_error(alpha) / helstrom_bound(alpha) <= 2.01

    @pytest.mark.parametrize("fn", [sql_error, helstrom_bound, kennedy_error])
    def test_negative_alpha_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(-0.5)


class TestOptimizedDisplacement:
    def test_degenerate_signal(self):
        result = optimized_displacement_error(0.0, DetectorModel(2))
        assert result.p_err == 0.5
        assert result.params.betas == (0.0,)

    def test_beats_kennedy_everywhere(self):
        model = DetectorModel(2)
        for alpha2 in (0.05, 0.2, 1.0, 4.0):
            alpha = math.sqrt(alpha2)
            result = optimized_displacement_error(alpha, model)
            assert result.p_err <= kennedy_error(alpha) + 1e-12
            assert result.p_err >= helstrom_bound(alpha)

    def test_matches_single_copy_feedforward(self):
        from bpskrx.feedforward import FeedForwardConfig, Receiver, dffre_error

        model = DetectorModel(2, eta=0.8)
        direct = dffre_error(1.0, FeedForwardConfig(1, model, Receiver.DFFRE))
        delegated = optimized_displacement_error(1.0, model)
        assert delegated == direct


class TestHynore:
    def test_degenerate_signal(self):
        assert hynore_error(0.0, 2).p_err == 0.5

    def test_bracket_sums_to_one_at_full_transmission(self):
        # With tau = 1 the reflected amplitude vanishes and the two HL mass
        # terms cover the whole (normalized) difference distribution, so the
        # error reduces to the Kennedy value.
        model = DetectorModel(2)
        for z in (0.0, 0.7, 2.0):
            pmf = hl_difference_pmf(0.0, z, model)
            bracket = pmf.mass_negative() + pmf.mass_nonnegative()
            assert bracket == pytest.approx(1.0, abs=1e-12)

    def test_never_worse_than_kennedy(self):
        for alpha2 in (0.1, 1.0, 2.0, 4.0):
            alpha = math.sqrt(alpha2)
            result = hynore_error(alpha, 2)
            assert result.p_err <= kennedy_error(alpha) + 1e-12
            assert result.p_err >= helstrom_bound(alpha)

    def test_beats_kennedy_at_high_energy(self):
        for alpha2 in (1.0, 2.0, 4.0):
            alpha = math.sqrt(alpha2)
            assert hynore_error(alpha, 2).p_err < kennedy_error(alpha)

    @pytest.mark.parametrize("resolution, alpha2", [(1, 16.0), (2, 12.0)])
    def test_taps_the_signal_at_high_energy(self, resolution, alpha2):
        # A (tau, z) grid stopped at tau = 1 here, at the Kennedy value
        # exactly; tapping at z*(tau) gives 0.892 and 0.841 of it.
        alpha = math.sqrt(alpha2)
        result = hynore_error(alpha, resolution)
        assert result.params.tau < 1.0
        assert result.p_err <= 0.9 * kennedy_error(alpha)

    def test_reports_parameters(self):
        result = hynore_error(1.0, 2)
        assert 0.0 <= result.params.tau <= 1.0
        assert result.params.z >= 0.0
        assert result.params.betas == ()
        assert result.p_err == pytest.approx(1.0 - result.per_step_correct[-1], abs=1e-15)


class TestOrderingInvariant:
    def test_bounds_chain_on_energy_grid(self):
        model = DetectorModel(2)
        for alpha2 in np.logspace(-2, 1, 6):
            alpha = math.sqrt(alpha2)
            disp = optimized_displacement_error(alpha, model).p_err
            hyn = hynore_error(alpha, 2).p_err
            assert helstrom_bound(alpha) <= disp <= 0.5
            assert helstrom_bound(alpha) <= hyn <= kennedy_error(alpha) + 1e-12
