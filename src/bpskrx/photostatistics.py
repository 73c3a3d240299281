"""Detection statistics for PNR(M) photon counting.

A PNR(M) detector resolves photon numbers 0..M-1 and lumps every count
>= M into the saturated outcome M, so an input coherent pulse of mean
photon number mu produces a truncated Poisson distribution over 0..M.
Homodyne-like (HL) detection mixes the signal with a weak local
oscillator on a balanced beam splitter and reads the difference
Delta = n - m of the two PNR(M) outcomes, Delta in [-M, M].

Detector imperfections enter at the rate level: quantum efficiency eta
rescales every detection rate, dark counts add a constant rate nu per
detector and window, and visibility xi < 1 degrades the interference
cross term of every displacement/mixing operation.

All functions here are pure; they can be called concurrently without
restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "DetectorModel",
    "BranchMeans",
    "DifferencePmf",
    "pnr_pmf",
    "branch_means",
    "hl_difference_pmf",
    "hl_sign_error",
    "hl_sign_minimum",
    "skellam_pmf",
    "q_off",
    "q_on",
    "q_thresh",
    "q_above_below_rows",
    "exp_rows",
]


def _check_count(name: str, value, lo: int = 1, hi: int | None = None) -> int:
    """value as a Python int, if it is an integer in [lo, hi] (no upper bound when hi is None).

    Python and numpy integers are accepted; a bool is not a count, and a
    float such as 2.0 is not an integer.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or (hi is not None and value > hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_rate(x: float, name: str = "x") -> float:
    """x as a float, if it is finite and >= 0: the rule of every rate and amplitude."""
    x = float(x)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {x!r}")
    return x


@dataclass(frozen=True)
class DetectorModel:
    """PNR(M) detector with efficiency, dark-count and visibility parameters.

    Attributes
    ----------
    resolution : int
        Maximum resolvable photon number M >= 1.
    eta : float
        Quantum efficiency, 0 < eta <= 1. Applied by rescaling detection
        rates (equivalent to scaling all interfering amplitudes by
        sqrt(eta), since coherent states stay coherent under loss).
    nu : float
        Dark-count rate per detector per measurement window, nu >= 0.
        Added to each detector's rate independently.
    xi : float
        Interference visibility, 0 < xi <= 1. Multiplies the cross term
        of displaced/mixed mean photon numbers.
    """

    resolution: int
    eta: float = 1.0
    nu: float = 0.0
    xi: float = 1.0

    def __post_init__(self) -> None:
        # kept as a Python int, so reprs and CSVs read the same for numpy integers
        object.__setattr__(self, "resolution", _check_count("resolution", self.resolution))
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta!r}")
        _check_rate(self.nu, "nu")
        if not (0.0 < self.xi <= 1.0):
            raise ValueError(f"xi must be in (0, 1], got {self.xi!r}")

    @property
    def is_ideal(self) -> bool:
        return self.eta == 1.0 and self.nu == 0.0 and self.xi == 1.0

    def detection_rate(self, mu: float) -> float:
        """Effective Poisson rate seen by the detector for optical rate mu.

        Dark counts are detector-local noise and are not attenuated by the
        efficiency, hence eta * mu + nu.
        """
        return self.eta * mu + self.nu


class BranchMeans(NamedTuple):
    """Mean photon numbers on the two outputs of the HL beam splitter."""

    mu_plus: float
    mu_minus: float


@dataclass(frozen=True)
class DifferencePmf:
    """PMF of the HL difference photocurrent Delta over [-resolution, resolution].

    ``probs[i]`` is the probability of Delta = i - resolution.
    """

    resolution: int
    probs: np.ndarray

    def prob(self, delta: int) -> float:
        if not -self.resolution <= delta <= self.resolution:
            raise ValueError(f"delta must lie in [-{self.resolution}, {self.resolution}]")
        return float(self.probs[delta + self.resolution])

    def mass_negative(self) -> float:
        """Total probability of Delta < 0."""
        return float(np.sum(self.probs[: self.resolution]))

    def mass_nonnegative(self) -> float:
        """Total probability of Delta >= 0 (ties Delta = 0 included)."""
        return float(np.sum(self.probs[self.resolution :]))


def pnr_pmf(mu: float, resolution: int) -> np.ndarray:
    """Truncated Poisson PMF of a PNR(M) measurement at rate mu.

    Entries 0..M-1 are plain Poisson weights; entry M collects the whole
    tail and is computed as one minus the partial sum (then clamped to
    [0, 1] against rounding), so the distribution is normalized exactly.
    The one-row view of ``_pnr_rows``.
    """
    mu = _check_rate(mu, "mu")
    return _pnr_rows(np.array([mu]), _check_count("resolution", resolution))[0]


def branch_means(zeta: float, z: float, xi: float = 1.0) -> BranchMeans:
    """Mean photon numbers of the two HL outputs for signal amplitude zeta.

    mu_pm = (zeta^2 + z^2 +- 2 xi z zeta) / 2, ``_hl_rates`` at eta = 1 and nu = 0.
    With xi = 1 this is exactly |zeta +- z|^2 / 2 for the balanced beam
    splitter; xi < 1 models the mode mismatch between signal and local oscillator.
    """
    zeta = _check_finite("zeta", zeta)
    z = _check_finite("z", z)
    if z < 0.0:
        raise ValueError(f"z must be >= 0, got {z!r}")
    return BranchMeans(*_hl_rates(zeta, z, DetectorModel(1, xi=xi)))  # the model checks xi


def _hl_rates(reflected, z, model: DetectorModel):
    """(rate_plus, rate_minus) of the two HL detectors, eta (r^2 + z^2 +- 2 xi z r) / 2 + nu,
    at signal amplitude r = reflected and local oscillator z; floats or arrays, unchecked.
    The HL stage's one rate formula, for the kernels and the Monte Carlo alike."""
    base = reflected * reflected + z * z
    cross = 2.0 * model.xi * z * reflected
    return (model.eta * (0.5 * (base + cross)) + model.nu,
            model.eta * (0.5 * (base - cross)) + model.nu)


def hl_difference_pmf(zeta: float, z: float, model: DetectorModel) -> DifferencePmf:
    """PMF of Delta = n - m for HL detection of a coherent signal.

    Both PNR(M) detectors see their branch mean scaled by the efficiency
    plus the dark-count rate. The PMF is one row of ``_diagonal_mass``,
    summed diagonal by diagonal over the outer product of the two PMFs,
    so the mirror identity S_Delta(-zeta) = S_(-Delta)(zeta) holds bit-exactly.
    """
    m = model.resolution
    rates = [_check_rate(model.detection_rate(mu), "mu") for mu in branch_means(zeta, z, model.xi)]
    p = _pnr_rows(np.array(rates), m)
    return DifferencePmf(resolution=m, probs=_diagonal_mass(p[:1], p[1:], range(-m, m + 1))[0])


def exp_rows(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp`` of a 1-D array.

    np.exp can differ from math.exp in the last bit; this keeps the
    row-wise kernels bit-identical to the scalar ones, so a batched
    search breaks ties between grid points exactly as a scalar one.
    """
    return np.fromiter(map(math.exp, x.tolist()), dtype=float, count=x.size)


def _pnr_rows(mu: np.ndarray, resolution: int) -> np.ndarray:
    """``pnr_pmf`` of every rate in mu, one PMF per row, by a term recurrence (no factorials)."""
    probs = np.empty((mu.size, resolution + 1), dtype=float)
    probs[:, 0] = partial = term = exp_rows(-mu)
    for n in range(1, resolution):
        term = term * (mu / n)
        probs[:, n] = term
        partial = partial + term
    probs[:, resolution] = np.minimum(1.0, np.maximum(0.0, 1.0 - partial))
    return probs


def _diagonal_mass(p_plus: np.ndarray, p_minus: np.ndarray, deltas: range) -> np.ndarray:
    """Row-wise HL difference probabilities at ``deltas``, one column per delta.

    Each probability is summed along its diagonal of the outer product of
    the two rows of PNR PMFs.
    """
    m = p_plus.shape[1] - 1
    columns = []
    for delta in deltas:
        lo = max(0, delta)
        hi = min(m, m + delta)
        columns.append((p_plus[:, lo : hi + 1] * p_minus[:, lo - delta : hi - delta + 1]).sum(axis=1))
    return np.stack(columns, axis=1)


def hl_sign_error(reflected: np.ndarray, z: np.ndarray, model: DetectorModel) -> np.ndarray:
    """Row-wise probability that the sign of the HL difference picks the wrong hypothesis.

    Element k measures the signal amplitude -reflected[k] (hypothesis
    "+alpha") or +reflected[k] (hypothesis "-alpha") against the local
    oscillator z[k]. A nonnegative Delta infers "-alpha" (ties go with
    it), so the error, the HFFRE's e0, is

        0.5 * [ P(Delta >= 0 | -reflected) + P(Delta < 0 | reflected) ].

    The two hypotheses swap the branch means, so two PNR PMFs p+ and p-
    per element suffice (``_hl_sign_terms``). Every z must be finite and
    >= 0 (``_check_rate``); the first that is not raises.
    """
    z = np.asarray(z, dtype=float)
    bad = ~(np.isfinite(z) & (z >= 0.0))
    if bad.any():
        _check_rate(float(z.flat[np.argmax(bad)]), "z")
    return _hl_sign_terms(reflected, z, model)[0]


def _hl_sign_terms(reflected: np.ndarray, z: np.ndarray, model: DetectorModel,
                   slope: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """(e0, de0/dz) of ``hl_sign_error`` at every element, in O(M) per element; z unchecked.

    p+ and p- are the PNR PMFs at the two ``_hl_rates``. With
    C+[n] = sum_(m <= n) p+[m] and T-[n] = sum_(m > n) p-[m],

        e0 = 0.5 * [ sum_n p-[n] C+[n] + sum_(n < M) p+[n] T-[n] ],

    sums of positive terms only. Each element's value depends on that
    element alone, so a row of many equals the same row alone, bit for
    bit. With ``slope``, the z-derivative comes from the same rows:
    dp[n]/dmu = p[n-1] - p[n] (n < M) and dp[M]/dmu = p[M-1], and
    summation by parts leaves

        de0/dz = 0.5 * [ mu-' (A + S) - mu+' (B + S) ],

    with A = sum_(n<M) p-[n] p+[n+1], B = sum_(n<M) p+[n] p-[n+1],
    S = sum_(n<M) p+[n] p-[n] and mu+-' = eta (z +- xi reflected).
    Without it the second entry is None.
    """
    m = model.resolution
    # p+ and p- from one call: each row of _pnr_rows depends on its rate alone
    rates = np.concatenate(_hl_rates(reflected, z, model))
    p_plus, p_minus = _pnr_rows(rates, m).reshape(2, -1, m + 1)
    at_or_below_plus = np.cumsum(p_plus, axis=1)
    above_minus = np.cumsum(p_minus[:, :0:-1], axis=1)[:, ::-1]  # T-[n] for n < M
    e0 = 0.5 * ((p_minus * at_or_below_plus).sum(axis=1)        # "+alpha": Delta >= 0
                + (p_plus[:, :m] * above_minus).sum(axis=1))    # "-alpha": Delta < 0
    if not slope:
        return e0, None
    same = (p_plus[:, :m] * p_minus[:, :m]).sum(axis=1)
    up = (p_minus[:, :m] * p_plus[:, 1:]).sum(axis=1)
    down = (p_plus[:, :m] * p_minus[:, 1:]).sum(axis=1)
    reach = model.xi * reflected
    return e0, 0.5 * model.eta * ((z - reach) * (up + same) - (z + reach) * (down + same))


# The z search of ``hl_sign_minimum``: slope scan points, Illinois step cap,
# and the bracket width, relative to the box, at which a search stops
HL_SCAN_POINTS = 12
HL_MAX_STEPS = 64
HL_Z_RTOL = 1e-12
# Elements per kernel call of the slope scan: each temporary then holds
# 256 x 12 PNR rows, 1.6 MB at M = 64
HL_SCAN_BLOCK = 256


def hl_sign_minimum(reflected: np.ndarray, z_hi: float,
                    model: DetectorModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z*, e0*, e0 at z = 0) of every element: the local oscillator in [0, z_hi] at
    which ``hl_sign_error`` is smallest, its value there, and its value at z = 0.

    e0 is 1/2 at z = 0 and falls from there, and it is unimodal in z. A
    ``HL_SCAN_POINTS``-point scan of (e0, de0/dz) over the box, one
    kernel call per ``HL_SCAN_BLOCK`` elements, brackets the first z
    where the slope turns nonnegative; Illinois steps (regula falsi with
    the retained end's slope halved) on the slope close each bracket,
    one kernel call per step for the unfinished elements, until it is
    narrower than
    ``HL_Z_RTOL`` z_hi. Each element's z* is the evaluated point with the
    smallest e0, so it is never worse than the scan. The scan starts at
    z = 0, so its first column is e0 at z = 0, ``hl_sign_error`` there bit
    for bit. A zero amplitude carries no information: e0 is 1/2 at every
    z, and z* = 0. Each element's search depends on that element alone.
    """
    reflected = np.asarray(reflected, dtype=float)
    z_hi = _check_rate(z_hi, "z_hi")
    size, n = reflected.size, HL_SCAN_POINTS
    grid = z_hi * np.arange(n) / (n - 1)
    e0, slope = np.empty((size, n)), np.empty((size, n))
    for k0 in range(0, size, HL_SCAN_BLOCK):
        block = reflected[k0:k0 + HL_SCAN_BLOCK]
        rows = slice(k0, k0 + block.size)
        e0[rows], slope[rows] = (v.reshape(block.size, n) for v in _hl_sign_terms(
            np.repeat(block, n), np.tile(grid, block.size), model, slope=True))
    found = np.where(reflected == 0.0, 0, e0.argmin(axis=1))
    best_z = grid[found]
    best_e = e0[np.arange(size), found]
    # the first nonnegative slope past z = 0 ends the bracket
    rising = slope >= 0.0
    k = rising.argmax(axis=1)
    bracketed = rising.any(axis=1) & (k > 0) & (reflected > 0.0)
    rows = np.flatnonzero(bracketed)
    k = k[rows]
    amplitude = reflected[rows]
    a, b = grid[k - 1], grid[k]
    slope_a, slope_b = slope[rows, k - 1], slope[rows, k]
    # the end the last step kept, a or b; neither before the first step
    kept_a = kept_b = np.zeros(rows.size, dtype=bool)
    for _ in range(HL_MAX_STEPS):
        gap = b - a
        open_ = (gap > HL_Z_RTOL * z_hi) & (slope_b > 0.0)
        still_open = np.count_nonzero(open_)
        if not still_open:
            break
        # the open rows carry their own arrays, compressed when one closes
        if still_open < rows.size:
            rows, amplitude, a, b, gap, slope_a, slope_b, kept_a, kept_b = (
                v[open_] for v in (rows, amplitude, a, b, gap, slope_a, slope_b, kept_a, kept_b))
        # the secant root, clipped to [a, b]
        x = np.minimum(np.maximum(b - slope_b * gap / (slope_b - slope_a), a), b)
        value, slope_x = _hl_sign_terms(amplitude, x, model, slope=True)
        better = value < best_e[rows]
        if better.any():
            improved = rows[better]
            best_z[improved] = x[better]
            best_e[improved] = value[better]
        left = slope_x < 0.0  # the root lies right of x: x replaces a, b is kept
        right = ~left
        # in place: the ends and slopes are this loop's own arrays. An end
        # kept twice in a row has its slope halved (Illinois)
        np.putmask(slope_b, left & kept_b, 0.5 * slope_b)
        np.putmask(slope_a, right & kept_a, 0.5 * slope_a)
        np.putmask(a, left, x)
        np.putmask(slope_a, left, slope_x)
        np.putmask(b, right, x)
        np.putmask(slope_b, right, slope_x)
        kept_a, kept_b = right, left
    return best_z, best_e, e0[:, 0]


def skellam_pmf(delta: int, mu_plus: float, mu_minus: float) -> float:
    """Skellam probability of a difference of two untruncated Poisson counts.

    Series over the pair distribution, truncated once terms fall below
    1e-16 of the accumulated sum (past the mode). This is the M >> 1
    limit of the HL difference distribution.
    """
    mu_plus = _check_finite("mu_plus", mu_plus)
    mu_minus = _check_finite("mu_minus", mu_minus)
    if mu_plus < 0.0 or mu_minus < 0.0:
        raise ValueError("rates must be >= 0")
    delta = int(delta)
    m0 = max(0, -delta)
    n0 = m0 + delta
    # First term exp(-mu_plus - mu_minus) * mu_plus^n0 / n0! * mu_minus^m0 / m0!
    if (mu_plus == 0.0 and n0 > 0) or (mu_minus == 0.0 and m0 > 0):
        return 0.0
    log_term = -(mu_plus + mu_minus)
    if n0 > 0:
        log_term += n0 * math.log(mu_plus) - math.lgamma(n0 + 1)
    if m0 > 0:
        log_term += m0 * math.log(mu_minus) - math.lgamma(m0 + 1)
    term = math.exp(log_term)
    total = term
    n, m = n0, m0
    prev = term
    for _ in range(100_000):
        n += 1
        m += 1
        term *= (mu_plus * mu_minus) / (n * m)
        total += term
        # Terms rise toward the mode before decaying; only stop on the way down.
        if term <= prev and term < 1e-16 * total:
            break
        prev = term
    return total


def q_off(x: float) -> float:
    """Probability of an "off" (zero-count) result at rate x."""
    return math.exp(-_check_rate(x))


def q_on(x: float) -> float:
    """Probability of an "on" result at rate x, cancellation-safe (1 - e^-x)."""
    return -math.expm1(-_check_rate(x))


def q_thresh(x: float, n_th: int, resolution: int | None = None) -> tuple[float, float]:
    """Probabilities of counting below / at-or-above the threshold n_th.

    q0 = P(count < n_th) for a Poisson count at rate x, q1 = 1 - q0.
    n_th = 1 reduces exactly to the on/off pair (q_off, q_on); above it
    q0 is the Poisson partial sum, term by term, clamped to 1, and
    q1 = 1 - q0, which cancels to 0 at small rates (the direct
    upper-tail sum is not used here). This is the one-rate reference of
    the scalar step objective, whose threshold closure runs the same
    loop for two rates.
    When ``resolution`` is given, n_th must not exceed it.
    """
    x = _check_rate(x)
    n_th = _check_count("n_th", n_th)
    if resolution is not None and n_th > resolution:
        raise ValueError(f"n_th must be <= resolution {resolution}, got {n_th}")
    if n_th == 1:
        return math.exp(-x), -math.expm1(-x)
    # term_s = e^-x x^s / s!, summed for s < n_th, clamped to 1
    term = below = math.exp(-x)
    for s in range(1, n_th):
        term *= x / s
        below += term
    q0 = below if below < 1.0 else 1.0
    return q0, 1.0 - q0


def q_above_below_rows(
    n_th,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(x, y) -> (q1 at x, q0 at y) of ``q_thresh``, element by element, in np.exp arithmetic.

    x and y have one shape, with at least one axis. n_th is one
    threshold for every element, or one per row (the first axis) in
    non-decreasing order, and is taken as given.
    One cumulative pass serves every threshold: term s of the Poisson
    sum, term_(s-1) * (rate / s), runs over the suffix of rows whose
    threshold is above s, so each row's partial sum is the one its own
    threshold gives. The suffixes are found once, here. A row at
    n_th = 1 is the on/off pair (-expm1(-x), exp(-y)), unclamped; above
    it q0 is clamped to 1 and q1 = 1 - q0, the formulas of ``q_thresh``
    with np.exp, which may differ from math.exp in the last bit.
    """
    if np.ndim(n_th):
        n_th = np.asarray(n_th)
        if (n_th[1:] < n_th[:-1]).any():
            raise ValueError("thresholds must be in non-decreasing order")
        if n_th[0] == n_th[-1]:
            n_th = int(n_th[0])
    if np.ndim(n_th) == 0:
        if n_th == 1:
            return lambda x, y: (-np.expm1(-x), np.exp(-y))
        ones, starts = 0, [0] * (n_th - 1)
    else:
        # rows [:ones] are at n_th = 1; the suffix above s = 1, 2, ...,
        # max(n_th) - 1 starts at row starts[s - 1]
        ones = int(np.searchsorted(n_th, 1, side="right"))
        starts = np.searchsorted(n_th, np.arange(1, n_th[-1]), side="right").tolist()

    def rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # x and y as one block, so each operation below is one call for both
        rates = np.empty((2, *x.shape))
        rates[0], rates[1] = x, y
        term = np.exp(-rates)
        flips = term.copy()
        for s, k in enumerate(starts, 1):
            term[:, k:] *= rates[:, k:] / s
            flips[:, k:] += term[:, k:]
        np.minimum(flips, 1.0, out=flips)
        np.subtract(1.0, flips[0], out=flips[0])
        if ones:
            # the on/off rows, which the pass left at their first term
            flips[0, :ones] = -np.expm1(-x[:ones])
            flips[1, :ones] = term[1, :ones]
        return flips[0], flips[1]

    return rows

