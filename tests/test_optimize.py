"""Derivative-free maximizers: oracle comparisons, determinism, tie-breaking."""

import math
import re

import numpy as np
import pytest

from bpskrx.optimize import (
    COARSE_BLOCK,
    GridSearchSpec,
    ScalarSearchSpec,
    coarse_abscissae,
    maximize_grid_searches,
    maximize_scalar,
    maximize_scalar_batch,
    scan_discrete,
)


class TestMaximizeScalar:
    def test_quadratic(self):
        spec = ScalarSearchSpec(0.0, 3.0, coarse_points=16, tol=1e-7)
        x, f = maximize_scalar(lambda x: -((x - 1.0) ** 2), spec)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_constant_ties_to_smallest_grid_point(self):
        spec = ScalarSearchSpec(2.0, 5.0, coarse_points=8, tol=1e-6)
        x, f = maximize_scalar(lambda x: 7.5, spec)
        assert x == 2.0
        assert f == 7.5

    def test_step_bracket_against_dense_scan(self):
        # Correct-decision bracket at p_prev = 0.5, per-copy amplitude 0.4.
        def f(beta):
            return 0.5 * math.exp(-((beta - 0.4) ** 2)) + 0.5 * (
                1.0 - math.exp(-((beta + 0.4) ** 2))
            )

        spec = ScalarSearchSpec(0.0, 5.4, coarse_points=64, tol=1e-7)
        _, f_star = maximize_scalar(f, spec)
        # 2001-point dense scan, locally refined with an independent
        # optimizer (a raw grid of this density quantizes the optimum at
        # the 1e-7 level, far above the 1e-9 comparison tolerance).
        from scipy.optimize import minimize_scalar

        grid = [5.4 * i / 2000 for i in range(2001)]
        best = max(range(2001), key=lambda i: f(grid[i]))
        assert f_star >= f(grid[best]) - 1e-9
        bracket = (grid[max(best - 1, 0)], grid[min(best + 1, 2000)])
        refined = minimize_scalar(lambda x: -f(x), bounds=bracket, method="bounded",
                                  options={"xatol": 1e-10})
        assert abs(f_star - (-refined.fun)) <= 1e-9

    def test_result_at_least_coarse_maximum(self):
        def wiggly(x):
            return math.sin(5.0 * x) + 0.3 * math.cos(17.0 * x)

        spec = ScalarSearchSpec(0.0, 4.0, coarse_points=32, tol=1e-7)
        _, f_star = maximize_scalar(wiggly, spec)
        coarse = max(wiggly(4.0 * i / 31) for i in range(32))
        assert f_star >= coarse

    def test_determinism(self):
        spec = ScalarSearchSpec(0.0, 2.0, coarse_points=11, tol=1e-8)
        f = lambda x: math.sin(3.0 * x) * math.exp(-x)
        assert maximize_scalar(f, spec) == maximize_scalar(f, spec)

    def test_bounds_respected(self):
        spec = ScalarSearchSpec(0.0, 1.0, coarse_points=5, tol=1e-7)
        x, _ = maximize_scalar(lambda x: x, spec)
        assert 0.0 <= x <= 1.0
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_non_finite_objective_reported(self):
        spec = ScalarSearchSpec(0.0, 1.0, coarse_points=5, tol=1e-7)
        with pytest.raises(ValueError, match="non-finite"):
            maximize_scalar(lambda x: math.inf if x > 0.5 else 0.0, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScalarSearchSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            ScalarSearchSpec(0.0, 1.0, coarse_points=2)
        with pytest.raises(ValueError):
            ScalarSearchSpec(0.0, 1.0, tol=2.0)

    @pytest.mark.parametrize("lo, hi, coarse_points, match", [
        (0.0, 1.0, 3.5, "coarse_points must be an integer"),
        (0.0, 1.0, 64.0, "coarse_points must be an integer"),
        (0.0, 1.0, True, "coarse_points must be an integer"),
        (0.0, math.inf, 64, "hi must be finite"),
        (-math.inf, 1.0, 64, "lo must be finite"),
        (0.0, math.nan, 64, "hi must be finite"),
    ])
    def test_spec_rejects_non_integer_counts_and_non_finite_bounds(self, lo, hi, coarse_points,
                                                                   match):
        with pytest.raises(ValueError, match=match):
            ScalarSearchSpec(lo, hi, coarse_points)

    def test_spec_accepts_numpy_integer_count(self):
        spec = ScalarSearchSpec(0.0, 1.0, np.int64(5))
        assert spec.coarse_grid() == [0.0, 0.25, 0.5, 0.75, 1.0]


def step_bracket(beta):
    return 0.5 * math.exp(-((beta - 0.4) ** 2)) + 0.5 * (1.0 - math.exp(-((beta + 0.4) ** 2)))


# The objectives of TestMaximizeScalar, plus a plateau and a tie between
# two separated maxima, both on coarse points.
SCALAR_CASES = [
    (lambda x: -((x - 1.0) ** 2), ScalarSearchSpec(0.0, 3.0, coarse_points=16, tol=1e-7)),
    (lambda x: 7.5, ScalarSearchSpec(2.0, 5.0, coarse_points=8, tol=1e-6)),
    (step_bracket, ScalarSearchSpec(0.0, 5.4, coarse_points=64, tol=1e-7)),
    (lambda x: math.sin(5.0 * x) + 0.3 * math.cos(17.0 * x),
     ScalarSearchSpec(0.0, 4.0, coarse_points=32, tol=1e-7)),
    (lambda x: math.sin(3.0 * x) * math.exp(-x),
     ScalarSearchSpec(0.0, 2.0, coarse_points=11, tol=1e-8)),
    (lambda x: x, ScalarSearchSpec(0.0, 1.0, coarse_points=5, tol=1e-7)),
    (lambda x: min(x, 1.0), ScalarSearchSpec(0.0, 3.0, coarse_points=7, tol=1e-7)),
    (lambda x: -min((x - 0.5) ** 2, (x - 2.5) ** 2),
     ScalarSearchSpec(0.0, 3.0, coarse_points=7, tol=1e-7)),
]


class TestCoarseValues:
    @pytest.mark.parametrize("f, spec", SCALAR_CASES)
    def test_supplied_values_reproduce_search(self, f, spec):
        seen = []

        def recording(x):
            seen.append(x)
            return f(x)

        expected = maximize_scalar(recording, spec)
        grid = spec.coarse_grid()
        assert seen[:spec.coarse_points] == grid
        refinement = seen[spec.coarse_points:]
        for coarse in ([f(x) for x in grid], np.array([f(x) for x in grid])):
            seen.clear()
            result = maximize_scalar(recording, spec, coarse)
            assert result == expected and [type(v) for v in result] == [float, float]
            assert seen == refinement

    def test_non_finite_value_names_abscissa(self):
        spec = ScalarSearchSpec(0.0, 1.0, coarse_points=5, tol=1e-7)
        for values in (list, np.array):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=rf"non-finite value {bad!r} at x = 0\.5$"):
                    maximize_scalar(lambda x: 0.0, spec, values([0.0, 0.0, bad, -math.inf, 0.0]))
            for size in (4, 6):
                with pytest.raises(ValueError, match=f"expected 5 objective values, got {size}$"):
                    maximize_scalar(lambda x: 0.0, spec, values([0.0] * size))

    @pytest.mark.parametrize("as_array", [False, True])
    def test_coarse_tie_goes_to_first_value(self, as_array):
        # equal coarse maxima, signed zeros among them: the first one wins,
        # with its own sign, as max/index over a list did
        spec = ScalarSearchSpec(0.0, 1.0, coarse_points=5, tol=1e-7)
        values = np.array if as_array else list
        for coarse, index in (([-1.0, -0.0, 0.0, -0.0, -1.0], 1), ([-1.0, 0.0, -0.0, 0.0, -1.0], 1),
                              ([-2.0, -1.0, -1.0, -2.0, -1.0], 1)):
            x, f = maximize_scalar(lambda x: -3.0, spec, values(coarse))
            assert x == spec.coarse_grid()[index]
            assert math.copysign(1.0, f) == math.copysign(1.0, coarse[index]) and f == coarse[index]

    # the golden-section evaluations: the first two abscissae, the first
    # and the last step of the loop, and the closing midpoint
    @pytest.mark.parametrize("k", [0, 1, 2, -2, -1])
    def test_non_finite_golden_value_names_abscissa(self, k):
        spec = ScalarSearchSpec(0.0, 1.0, coarse_points=5, tol=1e-7)
        coarse = [0.0, 0.0, 1.0, 0.0, 0.0]
        seen = []

        def recording(x):
            seen.append(x)
            return -(x - 0.4) ** 2

        maximize_scalar(recording, spec, coarse)
        bad = seen[k]

        def f(x):
            return math.nan if x == bad else -(x - 0.4) ** 2

        with pytest.raises(ValueError, match=rf"non-finite value nan at x = {re.escape(repr(bad))}$"):
            maximize_scalar(f, spec, coarse)

    def test_batch_columns_reproduce_search(self):
        # the caller's rows hold every coarse column of an element
        rng = np.random.default_rng(5)
        c = rng.uniform(0.0, 3.0, 300)
        hi = rng.uniform(0.3, 8.0, 300)

        def batch(x):
            return -((x - c) * (x - c)) * (x - 0.5 * c) + 0.3 * x

        grid = coarse_abscissae(0.0, hi, 64)
        rows = batch(grid(np.arange(64)[:, None])).T  # the whole table, one row per element
        for k in range(0, 300, 37):
            spec = ScalarSearchSpec(0.0, float(hi[k]), coarse_points=64, tol=1e-7)
            ck = float(c[k])
            assert rows[k].tolist() == [-((x - ck) * (x - ck)) * (x - 0.5 * ck) + 0.3 * x
                                        for x in spec.coarse_grid()]
        expected = maximize_scalar_batch(batch, 0.0, hi, 64, 1e-7)
        got = maximize_scalar_batch(batch, 0.0, hi, 64, 1e-7, lambda elements: rows[elements])
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_batch_non_finite_column_names_abscissa(self):
        def rows(elements):
            return np.array([[np.nan if (k, i) == (1, 2) else 0.0 for i in range(5)]
                             for k in range(elements.start, elements.stop)])

        with pytest.raises(ValueError, match=r"non-finite value .*nan.* at x = 1\.0"):
            maximize_scalar_batch(lambda x: 0.0 * x, 0.0, np.array([1.0, 2.0, 3.0]), 5, 1e-7,
                                  rows)


def quartic_search_cases():
    """Two-humped quartics, one per element, over more than two coarse blocks.

    Elements on both sides of each block boundary have two equal coarse
    maxima, at grid indices 10 and 40 (the quartic's zeros, with no
    linear term), so their ties must go to index 10 in either block.
    """
    rng = np.random.default_rng(3)
    size = 2 * COARSE_BLOCK + 44
    c = rng.uniform(0.0, 3.0, size)
    d = rng.uniform(0.5, 4.0, size)
    s = np.full(size, 0.3)
    hi = rng.uniform(0.3, 8.0, size)
    grid = coarse_abscissae(0.0, hi, 64)
    tied = [COARSE_BLOCK - 1, COARSE_BLOCK, 2 * COARSE_BLOCK - 1, 2 * COARSE_BLOCK]
    c[tied], d[tied], s[tied] = grid(10)[tied], grid(40)[tied], 0.0
    return c, d, s, hi, tied


class TestMaximizeScalarBatch:
    @staticmethod
    def search_and_compare(tabulated):
        # Objectives with only + - * so numpy and Python floats round
        # alike: the lockstep search must then pick the scalar search's
        # abscissa and value bit for bit, in every coarse block, whether
        # it evaluates the coarse grid itself or reads a caller's rows.
        c, d, s, hi, tied = quartic_search_cases()

        def batch(x):
            return -((x - c) * (x - c)) * ((x - d) * (x - d)) + s * x

        grid = coarse_abscissae(0.0, hi, 64)
        rows = batch(grid(np.arange(64)[:, None])).T
        coarse = (lambda elements: rows[elements]) if tabulated else None
        xs, fs = maximize_scalar_batch(batch, 0.0, hi, 64, 1e-7, coarse)
        for k in range(hi.size):
            ck, dk, sk = float(c[k]), float(d[k]), float(s[k])
            spec = ScalarSearchSpec(0.0, float(hi[k]), coarse_points=64, tol=1e-7)
            x, f = maximize_scalar(lambda x: -((x - ck) * (x - ck)) * ((x - dk) * (x - dk)) + sk * x,
                                   spec)
            assert (xs[k], fs[k]) == (x, f)
        # the tied elements keep the smaller of their two maxima
        assert xs[tied].tolist() == grid(10)[tied].tolist()
        assert fs[tied].tolist() == [0.0] * len(tied)
        # the elements run different numbers of golden-section steps, so
        # the steps with finished elements frozen run too
        best = rows.argmax(axis=1)
        width = grid(np.minimum(best + 1, 63)) - grid(np.maximum(best - 1, 0))
        steps = {math.ceil(math.log(1e-7 / w) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
                 for w in width.tolist()}
        assert len(steps) >= 3

    def test_each_element_equals_scalar_search(self):
        self.search_and_compare(tabulated=False)

    def test_each_tabulated_element_equals_scalar_search(self):
        self.search_and_compare(tabulated=True)

    def test_non_finite_objective_reported(self):
        with pytest.raises(ValueError, match="non-finite"):
            maximize_scalar_batch(lambda x: np.where(x > 0.5, np.nan, 0.0), 0.0, np.ones(3), 5, 1e-7)

    def test_non_finite_step_names_first_element(self):
        # finite on the coarse grid, NaN at the golden-section abscissae of
        # elements 1 and 2: the step reports element 1's abscissa
        hi = np.array([1.0, 2.0, 3.0])
        rows = np.zeros((3, 5))
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.where(np.arange(3) >= 1, np.nan, 0.0)

        with pytest.raises(ValueError) as info:
            maximize_scalar_batch(f, 0.0, hi, 5, 1e-7, lambda elements: rows[elements])
        # the value is named as maximize_scalar names it: nan, not np.float64(nan)
        assert str(info.value) == ("objective returned non-finite value nan"
                                   f" at x = {float(seen[-1][1])!r}")

    def test_finite_values_whose_sum_overflows(self):
        # values near the largest float, whose sum overflows: checking a
        # step's values at once must neither raise nor warn
        hi = np.array([1.0, 1.5, 2.0])

        def batch(x):
            return 1.5e308 * (1.0 - (x - 0.3) * (x - 0.3) / 4.0)

        xs, fs = maximize_scalar_batch(batch, 0.0, hi, 16, 1e-7)
        for k, h in enumerate(hi.tolist()):
            x, f = maximize_scalar(lambda x: 1.5e308 * (1.0 - (x - 0.3) * (x - 0.3) / 4.0),
                                   ScalarSearchSpec(0.0, h, coarse_points=16, tol=1e-7))
            assert (xs[k], fs[k]) == (x, f)

    def test_no_elements(self):
        def f(x):
            raise AssertionError("no element to evaluate")

        for hi in (np.ones(0), []):
            x, value = maximize_scalar_batch(f, 0.0, hi, 8, 1e-7)
            assert x.shape == value.shape == (0,) and x.dtype == value.dtype == float
        x, value = maximize_scalar_batch(f, np.zeros(0), 1.0, 8, 1e-7, lambda elements: f(None))
        assert x.shape == value.shape == (0,)

    def test_elements_on_one_axis(self):
        with pytest.raises(ValueError, match=r"one axis of elements, got shape \(2, 2\)"):
            maximize_scalar_batch(lambda x: 0.0 * x, 0.0, np.ones((2, 2)), 5, 1e-7)


class TestCoarseBlocks:
    """The lockstep search reads its coarse grid a block of elements at a time."""

    HI = np.linspace(1.0, 3.0, 2 * COARSE_BLOCK + 44)

    def test_tie_across_block_boundary_goes_to_smaller_column(self):
        # every row has equal maxima at columns 7 and 8, and the elements
        # on either side of a block boundary also at columns 0 and 63;
        # the golden-section steps only see 0
        edges = {COARSE_BLOCK - 1, COARSE_BLOCK, 2 * COARSE_BLOCK - 1, 2 * COARSE_BLOCK}

        def block(elements):
            return np.array([[1.0 if i in (7, 8) or (k in edges and i in (0, 63)) else 0.0
                              for i in range(64)] for k in range(elements.start, elements.stop)])

        xs, fs = maximize_scalar_batch(lambda x: 0.0 * x, 0.0, self.HI, 64, 1e-7, block)
        grid = coarse_abscissae(0.0, self.HI, 64)
        expected = np.where(np.isin(np.arange(self.HI.size), list(edges)), grid(0), grid(7))
        assert xs.tolist() == expected.tolist()
        assert fs.tolist() == [1.0] * self.HI.size

    def test_constant_objective_picks_first_column(self):
        xs, fs = maximize_scalar_batch(lambda x: 0.0 * x + 7.5, 2.0, self.HI + 2.0, 64, 1e-7)
        assert xs.tolist() == [2.0] * self.HI.size
        assert fs.tolist() == [7.5] * self.HI.size

    def test_non_finite_value_in_later_block_names_its_abscissa(self):
        # the first non-finite value in the order of elements, not of
        # columns: element 200 at column 37 before element 250 at column 3
        bad = {(200, 37), (200, 40), (250, 3)}

        def block(elements):
            return np.array([[math.nan if (k, i) in bad else 0.0 for i in range(64)]
                             for k in range(elements.start, elements.stop)])

        x = float(coarse_abscissae(0.0, self.HI, 64)(37)[200])
        with pytest.raises(ValueError, match=rf"non-finite value .*nan.* at x = {re.escape(repr(x))}$"):
            maximize_scalar_batch(lambda x: 0.0 * x, 0.0, self.HI, 64, 1e-7, block)

    def test_blocks_are_small_and_cover_the_grid_once(self):
        # a bounded block keeps every temporary of the search small; the
        # blocks cover every element once, in order
        requested = []

        def block(elements):
            requested.append(elements)
            return np.zeros((elements.stop - elements.start, 64))

        maximize_scalar_batch(lambda x: 0.0 * x, 0.0, self.HI, 64, 1e-7, block)
        assert all(e.step is None and 0 < e.stop - e.start <= COARSE_BLOCK for e in requested)
        assert COARSE_BLOCK * 64 * 8 <= 64 * 1024
        assert [k for e in requested for k in range(e.start, e.stop)] == list(range(self.HI.size))

    def test_block_of_wrong_shape_rejected(self):
        for shape in [(3,), (64, 3), (3, 63)]:
            expected = re.escape(f"expected coarse values of shape (3, 64), got {shape}")
            with pytest.raises(ValueError, match=expected):
                maximize_scalar_batch(lambda x: 0.0 * x, 0.0, self.HI[:3], 64, 1e-7,
                                      lambda _: np.zeros(shape))


def search(f, spec):
    """One ``maximize_grid_searches`` search of an objective over a 1-D array."""
    return maximize_grid_searches(lambda x: f(x[0])[None], spec, 1)[0]


class TestMaximizeGrid:
    def test_mandatory_point_wins(self):
        # The exact optimum 0.5 is off the 4-point lattice; listing it as
        # mandatory makes it the incumbent.
        spec = GridSearchSpec(0.0, 1.0, points=4, refinement_rounds=0, mandatory=(0.5,))
        x, f = search(lambda x: -((x - 0.5) ** 2), spec)
        assert (x, f) == (0.5, 0.0)

    def test_refinement_only_improves(self):
        fn = lambda x: -((x - 0.37) ** 2)
        _, coarse_only = search(fn, GridSearchSpec(0.0, 1.0, 9, refinement_rounds=0))
        _, refined = search(fn, GridSearchSpec(0.0, 1.0, 9, refinement_rounds=3))
        assert refined >= coarse_only
        assert refined == pytest.approx(0.0, abs=1e-7)

    def test_boundary_optimum_stays_in_bounds(self):
        spec = GridSearchSpec(0.0, 1.0, points=5, refinement_rounds=3)
        x, _ = search(lambda x: x, spec)
        assert 0.0 <= x <= 1.0
        assert x == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        spec = GridSearchSpec(0.0, 2.0, points=7, refinement_rounds=2)
        fn = lambda x: np.sin(x * 2.1) * np.cos(x * 1.3)
        assert search(fn, spec) == search(fn, spec)

    def test_hynore_objective_against_dense_grid_oracle(self):
        # The full receiver optimization must get within 1e-6 of a dense
        # 401 x 401 scan of the same objective. Each row of tau is one
        # hl_sign_error call, which equals half the two-PMF bracket
        # 0.5 * (mass_negative(r) + mass_nonnegative(-r)) bit for bit.
        import bpskrx.baselines as baselines
        from bpskrx.photostatistics import DetectorModel, hl_sign_error

        alpha = 1.0
        model = DetectorModel(2)
        zs = 9.0 * np.arange(401) / 400
        dense = min(
            float((math.exp(-4.0 * tau) * hl_sign_error(
                np.full(401, math.sqrt(1.0 - tau) * alpha), zs, model)).min())
            for tau in (i / 400 for i in range(401))
        )
        engine = baselines.hynore_error(alpha, 2).p_err
        assert abs(engine - dense) <= 1e-6

    def test_batch_objective_sees_each_round_at_once(self):
        rounds = []

        def batch(x):
            rounds.append(x.shape)
            return -((x - 0.3) * (x - 0.3))

        spec = GridSearchSpec(0.0, 1.0, points=11, refinement_rounds=2, mandatory=(0.3, 0.0))
        x, f = maximize_grid_searches(batch, spec, 1)[0]
        assert rounds == [(1, 2 + 11), (1, 11), (1, 11)]
        assert (x, f) == (0.3, 0.0)  # the mandatory point wins the tie

    def test_non_finite_batch_reported(self):
        spec = GridSearchSpec(0.0, 1.0, points=5)
        with pytest.raises(ValueError, match="non-finite"):
            search(lambda x: np.where(x > 0.6, np.inf, x), spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match=re.escape("need lo < hi, got [1.0, 0.0]")):
            GridSearchSpec(1.0, 0.0, points=3)
        with pytest.raises(ValueError, match="mandatory point 2.0 lies outside the bounds"):
            GridSearchSpec(0.0, 1.0, points=3, mandatory=(2.0,))

    @pytest.mark.parametrize("bounds, points, rounds, shrink_factor, match", [
        ((0.0, 1.0), 3.5, 0, 8.0, "points must be an integer"),
        ((0.0, 1.0), 41.0, 0, 8.0, "points must be an integer"),
        ((0.0, 1.0), 2, 0, 8.0, "points must be an integer >= 3"),
        ((0.0, 1.0), 3, 1.5, 8.0, "refinement_rounds must be an integer"),
        ((0.0, math.inf), 3, 0, 8.0, "hi must be finite"),
        ((-math.inf, 0.0), 3, 0, 8.0, "lo must be finite"),
        # every refinement round would evaluate one point `points` times
        ((0.0, 1.0), 5, 2, math.inf, "shrink_factor must be finite and > 1, got inf"),
    ])
    def test_spec_rejects_non_integer_counts_and_non_finite_bounds(self, bounds, points, rounds,
                                                                   shrink_factor, match):
        with pytest.raises(ValueError, match=match):
            GridSearchSpec(*bounds, points, rounds, shrink_factor)


def lockstep(objectives, spec):
    """``maximize_grid_searches`` with search k maximizing objectives[k]."""
    def f(x):
        return np.stack([g(x[k]) for k, g in enumerate(objectives)])

    return maximize_grid_searches(f, spec, len(objectives))


def separate(objectives, spec):
    """One ``maximize_grid_searches`` call per objective."""
    return [search(g, spec) for g in objectives]


def peak(x0):
    return lambda x: -((x - x0) * (x - x0))


class TestMaximizeGridSearches:
    """K searches in lockstep equal K separate searches."""

    SPEC = GridSearchSpec(0.0, 1.0, points=9, refinement_rounds=3, mandatory=(1.0,))

    def test_incumbents_drift_apart(self):
        # optima at both ends and in between: after round 0 every search
        # re-grids its own box
        objectives = [peak(0.07), peak(0.93), peak(0.5), peak(0.31)]
        got = lockstep(objectives, self.SPEC)
        assert got == separate(objectives, self.SPEC)
        assert len({x for x, _ in got}) == 4

    def test_each_row_is_the_round_of_its_search(self):
        alone = []

        def recording(log, g):
            def f(x):
                log.append(x.copy())
                return g(x)
            return f

        objectives = [peak(0.2), peak(0.8)]
        rows = [[], []]
        lockstep([recording(r, g) for r, g in zip(rows, objectives)], self.SPEC)
        for log, g in zip(rows, objectives):
            separate([recording(alone, g)], self.SPEC)
            assert len(log) == self.SPEC.refinement_rounds + 1
            for x, x_alone in zip(log, alone[-len(log):]):
                assert np.array_equal(x, x_alone)

    def test_mandatory_points_win_ties(self):
        # flat objectives tie everywhere or on a plateau holding the
        # mandatory point; one rises strictly away from it
        spec = GridSearchSpec(0.0, 1.0, points=5, refinement_rounds=2, mandatory=(0.5, 0.25))
        objectives = [lambda x: 0.0 * x, lambda x: np.floor(4.0 * x) / 4.0,
                      lambda x: np.minimum(x, 0.5), lambda x: x]
        got = lockstep(objectives, spec)
        assert got == separate(objectives, spec)
        assert [x for x, _ in got] == [0.5, 1.0, 0.5, 1.0]

    def test_non_finite_value_names_its_own_search(self):
        # search 1 meets inf only inside the box round 1 centres on its own
        # incumbent; search 0 stays finite
        spec = GridSearchSpec(0.0, 1.0, points=5, refinement_rounds=2)
        poisoned = lambda x: np.where((x > 0.8) & (x < 1.0), np.inf, -np.abs(x - 0.9))
        with pytest.raises(ValueError) as alone:
            separate([poisoned], spec)
        with pytest.raises(ValueError) as together:
            lockstep([lambda x: -np.abs(x - 0.1), poisoned], spec)
        assert str(together.value) == str(alone.value)
        # round 0's best is x = 1, so round 1 grids [0.9375, 1]; the value
        # is named as maximize_scalar names it: inf, not np.float64(inf)
        assert str(together.value) == "objective returned non-finite value inf at x = 0.9375"

    def test_results_are_floats(self):
        (x, f), = lockstep([peak(0.37)], self.SPEC)
        assert type(x) is float and type(f) is float

    @pytest.mark.parametrize("searches", [0, 1.0, True])
    def test_search_count_checked(self, searches):
        with pytest.raises(ValueError, match="searches must be an integer >= 1"):
            maximize_grid_searches(lambda x: x, GridSearchSpec(0.0, 1.0, 3), searches)

    def test_values_must_have_one_row_per_search(self):
        with pytest.raises(ValueError, match=re.escape("shape (2, 3), got (3,)")):
            maximize_grid_searches(lambda x: x[0], GridSearchSpec(0.0, 1.0, 3), 2)


class TestScanDiscrete:
    def test_basic(self):
        values = {1: 0.3, 2: 0.7}
        assert scan_discrete(lambda k: values[k], range(1, 3)) == (2, 0.7)

    def test_all_equal_ties_to_smallest(self):
        assert scan_discrete(lambda k: 1.0, range(3, 9)) == (3, 1.0)

    def test_exhaustiveness(self):
        values = [0.1, 0.9, 0.4, 0.9, 0.2]
        k, f = scan_discrete(lambda k: values[k], range(5))
        assert (k, f) == (1, 0.9)  # first of the tied maxima

    def test_empty_domain(self):
        with pytest.raises(ValueError):
            scan_discrete(lambda k: 0.0, range(0))
