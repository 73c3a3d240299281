"""Acceptance suite: one test per validation criterion, at full stated scope.

Each test prints its criterion's pass/fail line with the measured
margins. Criterion 7 checks the dark-count regime: at alpha^2 = 6 the
optimum is within 10% of the energy-independent floor, while at
alpha^2 = 4 it lies above the floor and within 10% of the floor plus the
bright-state miss term e^-(16 + nu) (17 + nu) / 2, which still dominates
there.
"""

import pytest

from bpskrx import validation

SEED = 1234


def report(result: validation.CheckResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    lines = [f"[{status}] criterion {result.criterion}"]
    lines += [f"    {line}" for line in result.details]
    text = "\n".join(lines)
    print(text)
    return text


@pytest.mark.parametrize(
    "criterion",
    validation.CRITERIA,
    ids=[f"criterion_{i:02d}" for i in range(1, len(validation.CRITERIA) + 1)],
)
def test_acceptance_criterion(criterion):
    result = criterion(fast=False, seed=SEED)
    text = report(result)
    assert result.passed, f"\n{text}"


def test_kernel_criterion_checks_the_running_hl_kernel(monkeypatch):
    # criterion 2 compares hl_sign_error, the kernel behind the HFFRE's e0,
    # with the difference PMF: an error of 1e-14 in it fails the criterion
    kernel = validation.hl_sign_error
    assert validation.criterion_02(fast=True).passed
    monkeypatch.setattr(validation, "hl_sign_error", lambda *args: kernel(*args) + 1e-14)
    result = validation.criterion_02(fast=True)
    assert not result.passed
    assert [line[:4] for line in result.details if "HL sign error" in line] == ["FAIL"]
