"""Deterministic derivative-free maximization utilities.

Receiver objectives are cheap to evaluate but can be flat or kinked
(threshold switches), so everything here is grid seeding plus
golden-section or grid refinement: no derivatives, no randomness.
Identical inputs always produce bit-identical results; ties are broken
toward the smallest argument (the first point evaluated) so regression
tests stay stable.

The box search ``maximize_grid_searches`` runs independent searches over
one interval in lockstep. Each keeps its own incumbent and box centre,
and each round hands the grids of all searches, one row per search, to
an array objective in one call; row for row these are the points each
search alone would evaluate. ``maximize_scalar_batch`` runs one bounded
1-D search per array element in lockstep: the coarse grid a block of
elements at a time, each element's whole coarse row at once, the block
size bounded so that its temporaries stay small, then golden-section
steps with finished elements frozen. Element for element it makes the
same comparisons as ``maximize_scalar``. A non-finite value raises as
soon as its block or step is evaluated: in the coarse scan the first
in the order of elements and, within an element, of grid indices; in a
golden-section step the first element's.
``maximize_scalar`` stays the search for single objectives, where an
array of one element would only add overhead.

Both 1-D searches accept the objective's values on the coarse grid from
the caller (``ScalarSearchSpec.coarse_grid``, one array per search;
``coarse_abscissae``, the rows of a block of elements per call): a
caller that runs many searches on one grid, with objectives built from
the same per-abscissa terms, tabulates those terms once instead of
calling f at every coarse point of every search. The values must equal f on the grid; they only change
who computes them, and the search from there on, with its checks and
tie rule, is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .photostatistics import _check_count, _check_finite

__all__ = [
    "ScalarSearchSpec",
    "GridSearchSpec",
    "maximize_scalar",
    "maximize_scalar_batch",
    "maximize_grid_searches",
    "scan_discrete",
    "coarse_abscissae",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_LOG_INV_PHI = math.log(_INV_PHI)
# Elements per block of maximize_scalar_batch's coarse scan: each temporary
# holds this many rows (64 KB at 64 coarse points)
COARSE_BLOCK = 128


@dataclass(frozen=True)
class ScalarSearchSpec:
    """Bounded 1-D search: coarse grid seed, then golden-section refinement."""

    lo: float
    hi: float
    coarse_points: int = 64
    tol: float = 1e-7

    def __post_init__(self) -> None:
        if not (_check_finite("lo", self.lo) < _check_finite("hi", self.hi)):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        _check_count("coarse_points", self.coarse_points, 3)
        if not (0.0 < self.tol < self.hi - self.lo):
            raise ValueError("tol must be positive and smaller than the interval")

    def coarse_grid(self) -> list[float]:
        """The abscissae at which ``maximize_scalar`` seeds its search, in order.

        They are computed once per spec and kept, so every search on one
        spec (one per copy of a recursion) seeds on the same floats
        without recomputing them. That is exact: the spec is frozen, and
        the abscissae depend on its fields only. Each call returns a
        fresh list, so a caller cannot change the kept grid.
        """
        return list(self._coarse_grid)

    @cached_property
    def _coarse_grid(self) -> tuple[float, ...]:
        grid = coarse_abscissae(self.lo, self.hi, self.coarse_points)
        return tuple(grid(np.arange(self.coarse_points)).tolist())


@dataclass(frozen=True)
class GridSearchSpec:
    """Bounded 1-D search: full grid, then rounds of shrunken re-gridding.

    Each refinement round re-grids an interval of width
    (hi - lo) / shrink_factor**round centered on the incumbent, clipped
    to [lo, hi]. Points listed in ``mandatory`` are always evaluated
    (first, so they also win ties).
    """

    lo: float
    hi: float
    points: int
    refinement_rounds: int = 0
    shrink_factor: float = 8.0
    mandatory: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (_check_finite("lo", self.lo) < _check_finite("hi", self.hi)):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        _check_count("points", self.points, 3)
        _check_count("refinement_rounds", self.refinement_rounds, 0)
        if not 1.0 < self.shrink_factor < math.inf:
            raise ValueError(f"shrink_factor must be finite and > 1, got {self.shrink_factor!r}")
        for x in self.mandatory:
            if not self.lo <= x <= self.hi:
                raise ValueError(f"mandatory point {x!r} lies outside the bounds")


def _non_finite(value, x, label: str) -> ValueError:
    return ValueError(f"objective returned non-finite value {value!r} at {label} = {x!r}")


def _checked(f: Callable, x, label: str) -> float:
    value = float(f(*x) if isinstance(x, tuple) else f(x))
    if not math.isfinite(value):
        raise _non_finite(value, x, label)
    return value


def _checked_values(values, points: Sequence, label: str) -> np.ndarray:
    """values as a float array of one value per point, checked finite once."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"expected {len(points)} objective values, got {values.size}")
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise _non_finite(float(values[i]), points[i], label)
    return values


def _checked_batch(values, points: Callable[[int], object], label: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))  # the first in C order, also in a block of rows
        raise _non_finite(float(values.flat[i]), points(i), label)
    return values


def maximize_scalar(
    f: Callable[[float], float],
    spec: ScalarSearchSpec,
    coarse_values: Sequence[float] | np.ndarray | None = None,
) -> tuple[float, float]:
    """Maximize f on [lo, hi]; returns (x_star, f_star).

    The result is at least as good as the best coarse-grid point: the
    golden-section refinement runs inside the bracket around the coarse
    argmax and its candidate replaces the incumbent only on strict
    improvement.

    ``coarse_values``, when given, are f at ``spec.coarse_grid()``, in
    order, computed by the caller: an array (or a sequence) of one value
    per grid point, which must equal f there. The search then calls f
    only for its golden-section steps. A wrong number of values raises a
    ValueError; so does a non-finite value, reported as if f had
    returned it. The values are checked once, as a whole.

    The coarse grid is the spec's own, computed at its first search and
    reused by every later search on the same spec; only the values and
    the golden-section steps are new per call. Each value f returns is
    checked to be finite as it arrives, and the first that is not
    raises a ValueError naming its abscissa. The coarse maximum is the
    first of equal values (argmax), so ties go to the smallest abscissa.
    """
    grid = spec._coarse_grid
    if coarse_values is None:
        coarse_values = [_checked(f, x, "x") for x in grid]
    values = _checked_values(coarse_values, grid, "x")
    best_i = int(values.argmax())
    best_f = float(values[best_i])
    best_x = grid[best_i]
    a = grid[max(best_i - 1, 0)]
    b = grid[min(best_i + 1, len(grid) - 1)]
    x, v = _golden_max(f, a, b, spec.tol)
    if v > best_f:
        best_x, best_f = x, v
    return best_x, best_f


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    h = b - a
    if h <= tol:
        mid = 0.5 * (a + b)
        return mid, _checked(f, mid, "x")
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = _checked(f, c, "x")
    yd = _checked(f, d, "x")
    best_x, best_f = (c, yc) if yc >= yd else (d, yd)
    steps = int(math.ceil(math.log(tol / h) / _LOG_INV_PHI))
    # the check of _checked, in line: the loop makes most of the evaluations
    isfinite = math.isfinite
    for _ in range(steps):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = float(f(c))
            if not isfinite(yc):
                raise _non_finite(yc, c, "x")
            if yc > best_f:
                best_x, best_f = c, yc
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = float(f(d))
            if not isfinite(yd):
                raise _non_finite(yd, d, "x")
            if yd > best_f:
                best_x, best_f = d, yd
    mid = 0.5 * (a + b)
    vm = _checked(f, mid, "x")
    if vm > best_f:
        best_x, best_f = mid, vm
    return best_x, best_f


def coarse_abscissae(lo, hi, coarse_points: int) -> Callable[[int | np.ndarray], np.ndarray]:
    """The evenly spaced grid of every search here, on [lo, hi], as a function of the grid index.

    Index i gives lo + i (hi - lo) / (n - 1), and exactly hi at i = n - 1,
    for every element of broadcast(lo, hi); an index array broadcasts
    against them, so ``coarse_abscissae(lo, hi, n)(np.arange(n)[:, None])``
    is the whole grid, one row per index. ``ScalarSearchSpec.coarse_grid``,
    ``maximize_scalar_batch`` and each round of ``maximize_grid_searches``
    are this grid.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)  # step broadcasts them
    last = coarse_points - 1
    step = (hi - lo) / last

    def grid(i):
        return np.where(i == last, hi, lo + i * step)

    return grid


def maximize_scalar_batch(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    coarse_points: int,
    tol: float,
    coarse_values: Callable[[slice], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One ``maximize_scalar`` per element of lo, hi; returns (x_star, f_star) arrays.

    lo and hi broadcast to one axis of elements. f maps an array of
    abscissae, one per element, to the objective values of the elements,
    element by element, so that it also accepts the whole coarse grid,
    one row per grid index. Each element sees exactly the comparisons and
    abscissae of ``maximize_scalar`` with ScalarSearchSpec(lo, hi,
    coarse_points, tol); elements whose golden-section steps are done
    keep their state while the others continue.

    The coarse grid is read ``COARSE_BLOCK`` elements at a time, which
    bounds every temporary of the scan to that many rows (64 KB at 64
    coarse points). ``coarse_values(elements)``, when given, returns the
    whole coarse row of each element of the slice ``elements``, shape
    (elements, coarse_points): f at ``coarse_abscissae(lo, hi,
    coarse_points)(i)`` for every grid index i, computed by the caller;
    it must equal f there. The search then calls f only for its
    golden-section steps. Without it, f is evaluated on the whole grid
    in one call. argmax over each row keeps the first of equal values,
    so ties go to the smallest grid index. The first non-finite coarse
    value raises, in the order of elements and, within an element, of
    grid indices; a golden-section step reports its first non-finite
    element.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if lo.ndim != 1:
        raise ValueError(f"lo and hi must broadcast to one axis of elements, got shape {lo.shape}")
    size, last = lo.size, coarse_points - 1
    if size == 0:
        return np.empty(0), np.empty(0)
    grid = coarse_abscissae(lo, hi, coarse_points)
    if coarse_values is None:
        table = np.asarray(f(grid(np.arange(coarse_points)[:, None])), dtype=float).T

        def coarse_values(elements: slice) -> np.ndarray:
            return table[elements]

    def checked(x):
        values = np.asarray(f(x), dtype=float)
        # one count of the finite values, which unlike a sum cannot
        # overflow; the first non-finite value is looked for only when
        # the count falls short
        if np.count_nonzero(np.isfinite(values)) == values.size:
            return values
        return _checked_batch(values, lambda i: float(x.flat[i]), "x")

    best_f = np.empty(size)
    best_i = np.empty(size, dtype=np.intp)
    # flat offset of each row of a block
    starts = np.arange(0, COARSE_BLOCK * coarse_points, coarse_points)
    for k0 in range(0, size, COARSE_BLOCK):
        block = slice(k0, min(k0 + COARSE_BLOCK, size))
        n = block.stop - k0
        values = np.asarray(coarse_values(block), dtype=float)
        if values.shape != (n, coarse_points):
            raise ValueError(f"expected coarse values of shape {(n, coarse_points)}, "
                             f"got {values.shape}")
        _checked_batch(values, lambda i: float(grid(i % coarse_points)[k0 + i // coarse_points]),
                       "x")
        # ties go to the smallest grid index, as in maximize_scalar
        j = values.argmax(axis=1)
        best_i[block] = j
        best_f[block] = values.take(starts[:n] + j)
    # the coarse best and its bracket, in one pass of the grid
    best_x, a, b = grid(np.stack((best_i, np.maximum(best_i - 1, 0),
                                  np.minimum(best_i + 1, last))))
    h = b - a
    if np.any(h <= tol):
        raise ValueError("tol must be smaller than one coarse-grid step")
    # math.log, as in the scalar search, so every element runs its step
    # count; brackets repeat across elements, so only distinct ones are logged
    widths, which = np.unique(h, return_inverse=True)
    steps = np.array([math.ceil(math.log(tol / w) / _LOG_INV_PHI) for w in widths.tolist()])[which]
    all_steps, most_steps = int(steps.min()), int(steps.max())
    # every point an element evaluates, in order: the coarse best, c, d,
    # one per golden-section step and the midpoint of the last bracket.
    # The result is the first of the largest values, which is the point
    # the strict > comparisons of maximize_scalar keep.
    xs = np.empty((most_steps + 4, size))
    ys = np.empty((most_steps + 4, size))
    xs[0], ys[0] = best_x, best_f
    c = xs[1] = a + _INV_PHI2 * h
    d = xs[2] = a + _INV_PHI * h
    yc = ys[1] = checked(c)
    yd = ys[2] = checked(d)
    for it in range(most_steps):
        # every element takes the first all_steps steps; after them,
        # the elements whose steps are done keep their state
        active = None if it < all_steps else steps > it
        left = yc > yd
        h = h * _INV_PHI if active is None else np.where(active, h * _INV_PHI, h)
        # the two branches of _golden_max: keep [a, d] and evaluate
        # a + h / phi^2, or keep [c, b] and evaluate c + h / phi
        a_next = np.where(left, a, c)
        x = np.add(a_next, np.where(left, _INV_PHI2, _INV_PHI) * h, out=xs[it + 3])
        y = checked(x)
        ys[it + 3] = y if active is None else np.where(active, y, -math.inf)
        moved = (a_next, np.where(left, d, b), np.where(left, x, d),
                 np.where(left, c, x), np.where(left, y, yd), np.where(left, yc, y))
        if active is not None:
            moved = tuple(np.where(active, new, old)
                          for new, old in zip(moved, (a, b, c, d, yc, yd)))
        a, b, c, d, yc, yd = moved
    mid = xs[-1] = 0.5 * (a + b)
    ys[-1] = checked(mid)
    # argmax keeps the first of equal values
    first = ys.argmax(axis=0)
    elements = np.arange(size)
    return xs[first, elements], ys[first, elements]


def maximize_grid_searches(
    f: Callable[[np.ndarray], np.ndarray], spec: GridSearchSpec, searches: int
) -> list[tuple[float, float]]:
    """``searches`` independent box searches over one spec, in lockstep;
    returns (x_star, f_star) of each.

    Each round is one call of f for all searches: f takes an array of
    shape (searches, points), row k the points of search k, and returns
    the objective there in that shape. Every search keeps its own
    incumbent and box centre, so row k is the round a search on its own
    would evaluate. Round 0 holds the mandatory points followed by the
    grid, the same for every search; each later round re-grids an
    interval of width (hi - lo) / shrink_factor**round centred on the
    search's incumbent, clipped to the bounds. Within a row argmax keeps
    the first of equal values, so the mandatory points win ties, and
    rounds merge on a strict >. A non-finite value raises, naming the
    first such point in the order of searches and, within a search, of
    points.
    """
    searches = _check_count("searches", searches)
    best_x = [math.nan] * searches
    best_f = [-math.inf] * searches
    indices = np.arange(spec.points)
    for round_idx in range(spec.refinement_rounds + 1):
        if round_idx == 0:
            lo, hi = np.full(searches, spec.lo), np.full(searches, spec.hi)
        else:
            half = 0.5 * (spec.hi - spec.lo) / spec.shrink_factor**round_idx
            lo, hi = np.maximum(spec.lo, center - half), np.minimum(spec.hi, center + half)
        x = coarse_abscissae(lo[:, None], hi[:, None], spec.points)(indices)
        if round_idx == 0 and spec.mandatory:
            head = np.array(spec.mandatory, dtype=float)
            x = np.concatenate((np.tile(head, (searches, 1)), x), axis=1)
        points = x.shape[1]
        values = np.asarray(f(x), dtype=float)
        if values.shape != (searches, points):
            raise ValueError(f"expected objective values of shape {(searches, points)}, "
                             f"got {values.shape}")
        _checked_batch(values, lambda i: float(x.flat[i]), "x")
        # argmax keeps the first of equal values; rounds merge on a strict >
        for k, j in enumerate(values.argmax(axis=1).tolist()):
            if values[k, j] > best_f[k]:
                best_x[k], best_f[k] = float(x[k, j]), float(values[k, j])
        center = np.array(best_x)
    return list(zip(best_x, best_f))


def scan_discrete(f: Callable[[int], float], domain: Sequence[int]) -> tuple[int, float]:
    """Exhaustive maximization over an integer domain; ties keep the smaller key."""
    domain = list(domain)
    if not domain:
        raise ValueError("domain must be non-empty")
    best_k = domain[0]
    best_f = _checked(f, best_k, "k")
    for k in domain[1:]:
        v = _checked(f, k, "k")
        if v > best_f:
            best_k, best_f = k, v
    return best_k, best_f
