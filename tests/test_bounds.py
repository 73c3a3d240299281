"""Physical bounds that every optimized receiver point must satisfy, on a fixed grid.

Three inequalities hold for every receiver and every valid input:

- (i) p_err is a finite probability in [0, 1/2];
- (ii) p_err is at least the Helstrom bound;
- (iii) the last copy's floor: e_N >= (1 - e_{N-1}) P(n >= n_th; r_min),
  with r_min = eta (1 - xi^2) c^2 + nu and c = sqrt(tau) alpha / sqrt(N),
  since e_N = (1 - e) F + e M with M >= 0, and the false-flip probability
  F is increasing in the nulled rate, which is at least r_min.

Each known failure is a strict xfail naming the ROADMAP item that fixes it.
"""

import math

import mpmath
import pytest

from bpskrx.baselines import helstrom_bound
from bpskrx.feedforward import FeedForwardConfig, Receiver, optimized_error
from bpskrx.photostatistics import DetectorModel

MODELS = {
    "ideal": DetectorModel(2),
    "eta0.7": DetectorModel(2, eta=0.7),
    "nu1e-3": DetectorModel(2, nu=1e-3),
    "xi0.998": DetectorModel(2, xi=0.998),
    "nu1e-3_m8": DetectorModel(8, nu=1e-3),
}
# Relative rounding allowed below a bound. The 1 - q0 tail at n_th >= 2
# carries about 1e-16 absolute, which at nu = 1e-3 is about 2e-10 of the
# dark-count floor P(n >= 2; nu) = 5e-7.
RTOL = 1e-9


def xfail(item, reason, **kwargs):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {reason}", **kwargs)


def known_failure(receiver, model, n, alpha2):
    if alpha2 == 200.0:
        return xfail("2(a)", "helstrom_bound underflows, and ratio() divides by 0",
                     raises=ZeroDivisionError)
    if receiver is Receiver.HFFRE and (
            (model == "ideal" and alpha2 >= 10.0) or (model == "eta0.7" and alpha2 == 20.0)):
        return xfail(12, "a nulled rate cancels below 0, and p_err is negative")
    if model == "nu1e-3_m8" and alpha2 == 20.0:
        return xfail(21, "the 1 - q0 tail cancels, and p_err falls below the dark-count floor")
    return None


def grid():
    points = [(receiver, model, n, alpha2) for receiver in Receiver for model in MODELS
              for n in (1, 2, 5) for alpha2 in (0.05, 1.0, 5.0, 10.0, 20.0)]
    points += [(Receiver.DFFRE, "ideal", n, 200.0) for n in (1, 2, 5)]
    for point in points:
        mark = known_failure(*point)
        yield pytest.param(*point, marks=() if mark is None else mark,
                           id="-".join((point[0].name, point[1], f"N{point[2]}", f"{point[3]:g}")))


@pytest.mark.parametrize("receiver, model, n, alpha2", grid())
def test_physical_bounds(receiver, model, n, alpha2):
    model = MODELS[model]
    alpha = math.sqrt(alpha2)
    result = optimized_error(alpha, FeedForwardConfig(n, model, receiver))
    p_err = result.p_err
    # (i)
    assert math.isfinite(p_err) and 0.0 <= p_err <= 0.5
    # (ii)
    assert p_err >= helstrom_bound(alpha) * (1.0 - RTOL)
    # (iii), the tail P(n >= n_th; r) as the regularized lower incomplete gamma P(n_th, r)
    e_prev = 1.0 - result.per_step_correct[-2]
    c = math.sqrt(result.params.tau) * alpha / math.sqrt(n)
    r_min = model.eta * (1.0 - model.xi ** 2) * c * c + model.nu
    with mpmath.workdps(50):
        tail = mpmath.gammainc(result.params.n_th, 0, mpmath.mpf(r_min), regularized=True)
        floor = float((1 - mpmath.mpf(e_prev)) * tail)
    assert p_err >= floor * (1.0 - RTOL)
