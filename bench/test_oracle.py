"""Tests of the benchmark's independent evaluator.

Run from the root of the repository with ``python3 -m pytest bench``.
The reference is mpmath at 40 digits, written here from the definitions
(truncated Poisson outcomes, the HL difference, the switch recursion).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

mp.mp.dps = 40
# Differences from one (the saturated bin, 1 - sqrt(1 - overlap)) are
# formed at this many digits so the 40 that are kept are all correct.
CANCEL_DPS = 400
REL = 1e-13


def mp_below(x, k):
    with mp.workdps(CANCEL_DPS):
        x = mp.mpf(x)
        return mp.fsum(mp.exp(-x) * x**n / mp.factorial(n) for n in range(k))


def mp_truncated(mu, resolution):
    with mp.workdps(CANCEL_DPS):
        head = [mp.exp(-mp.mpf(mu)) * mp.mpf(mu) ** n / mp.factorial(n) for n in range(resolution)]
        return head + [1 - mp.fsum(head)]


def mp_hl_masses(zeta, z, det):
    zeta, z = mp.mpf(zeta), mp.mpf(z)
    cross = 2 * mp.mpf(det.xi) * z * zeta
    mu_plus = mp.mpf(det.eta) * (zeta**2 + z**2 + cross) / 2 + mp.mpf(det.nu)
    mu_minus = mp.mpf(det.eta) * (zeta**2 + z**2 - cross) / 2 + mp.mpf(det.nu)
    pn = mp_truncated(mu_plus, det.resolution)
    pm = mp_truncated(mu_minus, det.resolution)
    m = det.resolution
    negative = mp.fsum(pn[i] * pm[j] for i in range(m + 1) for j in range(m + 1) if i < j)
    return negative, 1 - negative


def mp_error(alpha, tau, z, betas, n_th, det, hybrid):
    alpha, tau = mp.mpf(alpha), mp.mpf(tau)
    if hybrid:
        reflected = mp.sqrt(1 - tau) * alpha
        e = (mp_hl_masses(-reflected, z, det)[1] + mp_hl_masses(reflected, z, det)[0]) / 2
    else:
        e = mp.mpf(1) / 2
    c = mp.sqrt(tau) * alpha / mp.sqrt(len(betas))
    for beta in betas:
        beta = mp.mpf(beta)
        cross = 2 * mp.mpf(det.xi) * c * beta
        r_minus = mp.mpf(det.eta) * (c**2 + beta**2 - cross) + mp.mpf(det.nu)
        r_plus = mp.mpf(det.eta) * (c**2 + beta**2 + cross) + mp.mpf(det.nu)
        e = (1 - e) * (1 - mp_below(r_minus, n_th)) + e * mp_below(r_plus, n_th)
    return e


def assert_rel(actual, expected, rel=REL):
    assert abs(actual - float(expected)) <= rel * abs(float(expected)), (actual, float(expected))


@pytest.mark.parametrize("x, k", [(1e-3, 2), (1e-6, 2), (1e-9, 3), (0.3, 1), (5.0, 8), (7.9, 8), (40.0, 2)])
def test_threshold_tail_against_mpmath(x, k):
    assert_rel(oracle.poisson_at_least(x, k), 1 - mp_below(x, k))
    assert_rel(oracle.poisson_below(x, k), mp_below(x, k))


@pytest.mark.parametrize("mu, resolution", [(1e-4, 2), (0.7, 2), (3.0, 4), (1e-3, 8)])
def test_truncated_pmf_against_mpmath(mu, resolution):
    for got, want in zip(oracle.truncated_pmf(mu, resolution), mp_truncated(mu, resolution)):
        assert_rel(got, want)


@pytest.mark.parametrize("det", [
    oracle.Detector(2), oracle.Detector(4, eta=0.7), oracle.Detector(2, nu=1e-3),
    oracle.Detector(8, nu=1e-3, xi=0.998),
])
@pytest.mark.parametrize("zeta, z", [(0.4, 1.3), (-0.4, 1.3), (2.0, 0.2), (-1e-3, 3.0)])
def test_hl_side_masses_against_mpmath(det, zeta, z):
    negative, nonnegative = oracle.hl_side_masses(zeta, z, det)
    want_negative, want_nonnegative = mp_hl_masses(zeta, z, det)
    assert_rel(negative, want_negative)
    assert_rel(nonnegative, want_nonnegative)


@pytest.mark.parametrize("det", [
    oracle.Detector(2), oracle.Detector(2, eta=0.7), oracle.Detector(2, nu=1e-3),
    oracle.Detector(2, xi=0.998), oracle.Detector(8, nu=1e-3),
])
@pytest.mark.parametrize("alpha2, tau, z, betas, n_th", [
    (1.0, 0.9, 1.4, (1.2,), 1),
    (0.3, 0.7, 2.0, (0.6, 0.8, 1.1), 2),
    (4.0, 0.99, 1.36, (2.05,), 2),
])
def test_recursion_against_mpmath(det, alpha2, tau, z, betas, n_th):
    alpha = math.sqrt(alpha2)
    n_th = min(n_th, det.resolution)
    assert_rel(oracle.hffre_error(alpha, tau, z, betas, n_th, det).value,
               mp_error(alpha, tau, z, betas, n_th, det, hybrid=True), 1e-12)
    assert_rel(oracle.dffre_error(alpha, betas, n_th, det).value,
               mp_error(alpha, 1.0, 0.0, betas, n_th, det, hybrid=False), 1e-12)


@pytest.mark.parametrize("det", [oracle.Detector(1), oracle.Detector(2, eta=0.7, nu=1e-3, xi=0.998),
                                 oracle.Detector(8, nu=1e-3)])
@pytest.mark.parametrize("zeta, z", [(0.0, 0.0), (1.5, 0.3), (-0.2, 4.0), (12.0, 9.0)])
def test_hl_pmf_sums_to_one(det, zeta, z):
    probs = oracle.hl_difference(zeta, z, det)
    assert len(probs) == 2 * det.resolution + 1
    assert min(probs) >= 0.0
    assert abs(math.fsum(probs) - 1.0) <= 8 * oracle.EPS


@pytest.mark.parametrize("z", [0.0, 0.7, 3.0])
def test_untapped_premeasurement_is_a_coin_flip(z):
    for det in (oracle.Detector(2), oracle.Detector(4, nu=1e-3, xi=0.998)):
        assert oracle.hl_initial_error(1.3, 1.0, z, det) == pytest.approx(0.5, rel=4 * oracle.EPS)


@pytest.mark.parametrize("alpha2", [0.01, 0.5, 2.0, 30.0])
def test_nulling_displacement_gives_kennedy(alpha2):
    alpha = math.sqrt(alpha2)
    value = oracle.dffre_error(alpha, (alpha,), 1, oracle.Detector(2)).value
    assert_rel(value, mp.exp(-4 * mp.mpf(alpha) ** 2) / 2)
    assert oracle.kennedy(alpha2) == pytest.approx(value, rel=1e-14)


def test_closed_forms_against_mpmath():
    for alpha2 in (1e-3, 0.4, 3.0, 50.0):
        a2 = mp.mpf(alpha2)
        with mp.workdps(CANCEL_DPS):
            helstrom = (1 - mp.sqrt(1 - mp.exp(-4 * a2))) / 2
        assert_rel(oracle.helstrom(alpha2), helstrom, 1e-12)
        assert_rel(oracle.sql(alpha2), mp.erfc(mp.sqrt(2 * a2)) / 2, 1e-12)
    for nu in (1e-3, 1e-8, 1e-12):
        with mp.workdps(CANCEL_DPS):
            floor = (1 - mp.exp(-mp.mpf(nu)) * (1 + mp.mpf(nu))) / 2
        assert_rel(oracle.dark_floor(nu), floor)


def test_error_bound_covers_the_cancelling_tail():
    """At nu = 1e-3 the bound admits the ~1e-9 relative loss of 1 - q0, and no more than 1e-7."""
    det = oracle.Detector(2, nu=1e-3)
    alpha = math.sqrt(6.0)
    ref = oracle.dffre_error(alpha, (alpha,), 2, det)
    q0 = math.exp(-1e-3) * (1 + 1e-3)
    naive = 0.5 * (1.0 - q0) + 0.5 * oracle.poisson_below(4 * 6.0 + 1e-3, 2)
    assert abs(naive - ref.value) <= 2 * ref.bound
    assert 1e-10 < ref.bound / ref.value < 1e-7
