"""Output checks, run after the timed section.

Each check appends a line to a problem list; an empty list means every
output passed. Analytic values are recomputed by ``oracle`` from the
parameters the program reports; property checks hold for any correct
optimizer; Monte Carlo estimates are held to 5 sigma of the
independently evaluated error probability.
"""

from __future__ import annotations

import math
from pathlib import Path

import oracle
from workloads import MC_MIN_P, MC_TRIALS, CurveWorkload, Failure, MonteCarloWorkload, RoundResult

PROPERTY_SLACK = 1e-9  # for the optimizer-order properties, as absolute error


def rounding_rel(n_copies: int, resolution: int) -> float:
    """Relative rounding of a well-conditioned evaluation, program and oracle together."""
    return 64.0 * (n_copies + resolution + 4) * oracle.EPS


def known_failure(failure: Failure) -> bool:
    """The one expected fault: ``feedforward.ratio`` dividing by an underflowed Helstrom bound."""
    return (failure.error == "ZeroDivisionError"
            and failure.where == ("feedforward.py", "ratio")
            and oracle.helstrom(failure.alpha2) == 0.0)


def check_failures(result: RoundResult, problems: list[str]) -> None:
    for failure in result.failures:
        if not known_failure(failure):
            problems.append(f"{failure.label}: unexpected {failure.error} in "
                            f"{failure.where[1]} ({failure.where[0]})")


def check_identical_rounds(rounds: list[RoundResult], problems: list[str]) -> None:
    first = rounds[0]
    for i, other in enumerate(rounds[1:], 2):
        if other.outputs != first.outputs or other.failures != first.failures:
            problems.append(f"round {i} produced other numbers than round 1")


def check_identical_outputs(untraced: RoundResult, traced: RoundResult, problems: list[str]) -> None:
    for label, value in untraced.outputs.items():
        if traced.outputs.get(label) != value:
            problems.append(f"{label}: traced output {traced.outputs.get(label)!r} != untraced {value!r}")
    if [f.label for f in untraced.failures] != [f.label for f in traced.failures]:
        problems.append("traced and untraced runs failed on different operations")


def _in_box(value: float, lo: float, hi: float) -> bool:
    return lo <= value <= hi * (1.0 + 1e-12)


def _check_row(curve, row: dict, problems: list[str]) -> float:
    """Checks one curve point; returns the program's p_err."""
    receiver = curve.config.receiver
    det = curve.detector
    n = curve.config.n_copies
    a2 = row["alpha2"]
    alpha = math.sqrt(a2)
    where = f"{curve.name}@{a2!r}"
    p = row["p_err"]
    rel = rounding_rel(n, det.resolution)

    scale = 16.0 * oracle.EPS * (1.0 + 4.0 * a2)
    if not oracle.close(row["p_helstrom"], oracle.helstrom(a2), scale):
        problems.append(f"{where}: p_helstrom {row['p_helstrom']!r} != {oracle.helstrom(a2)!r}")
    if not oracle.close(row["p_sql"], oracle.sql(a2), scale):
        problems.append(f"{where}: p_sql {row['p_sql']!r} != {oracle.sql(a2)!r}")

    tau = row["tau_opt"]
    z = row["z_opt"] if row["z_opt"] is not None else 0.0
    if not (_in_box(tau, 0.0, 1.0) and _in_box(z, 0.0, 5.0 + 4.0 * alpha)):
        problems.append(f"{where}: (tau, z) = ({tau!r}, {z!r}) outside the search box")
    if receiver == "HYNORE":
        ref = oracle.hynore_error(alpha, tau, z, det.resolution)
    else:
        betas = [float(b) for b in row["betas"].split(";")]
        n_th = row["n_th_opt"]
        beta_hi = math.sqrt(tau) * alpha / math.sqrt(n) + 5.0
        if len(betas) != n or not all(_in_box(b, 0.0, beta_hi) for b in betas):
            problems.append(f"{where}: betas {betas!r} outside [0, {beta_hi!r}]")
        dark_or_xi = det.nu > 0.0 or det.xi < 1.0
        if not 1 <= n_th <= (det.resolution if dark_or_xi else 1):
            problems.append(f"{where}: n_th {n_th} outside its candidates")
        if receiver == "DFFRE":
            ref = oracle.dffre_error(alpha, betas, n_th, det)
        else:
            ref = oracle.hffre_error(alpha, tau, z, betas, n_th, det)
    if not oracle.close(p, ref.value, rel, 2.0 * ref.bound):
        problems.append(f"{where}: p_err {p!r} != independent {ref.value!r} "
                        f"(allowed {rel * abs(ref.value) + 2.0 * ref.bound:.3g})")
    helstrom = oracle.helstrom(a2)
    if p < helstrom * (1.0 - rel) - 2.0 * ref.bound - oracle.SUBNORMAL_ALLOWANCE:
        problems.append(f"{where}: p_err {p!r} below the Helstrom bound {helstrom!r}")
    if p > 0.5 * (1.0 + rel):
        problems.append(f"{where}: p_err {p!r} above 1/2")
    if receiver == "HYNORE" and p > oracle.kennedy(a2) * (1.0 + rel) + oracle.SUBNORMAL_ALLOWANCE:
        problems.append(f"{where}: HYNORE {p!r} above Kennedy {oracle.kennedy(a2)!r}")
    if receiver == "DFFRE" and n == 1 and det == oracle.Detector(2, nu=det.nu) and det.nu > 0.0:
        floor = oracle.dark_floor(det.nu)
        if p < floor - 2.0 * ref.bound - rel * floor:
            problems.append(f"{where}: DFFRE {p!r} below the dark-count floor {floor!r}")
    return p


def check_csv(workload: CurveWorkload, result: RoundResult, out_dir: Path, problems: list[str]) -> None:
    """Rows parse back to the same floats; a second write is byte-identical."""
    cli = workload.program.cli
    columns = list(cli.CSV_COLUMNS)
    for curve in workload.curves:
        path = out_dir / f"{curve.name}.csv"
        rows = result.rows[curve.name]
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        if lines[0].split(",") != columns or len(lines) != len(rows) + 1:
            problems.append(f"{path.name}: header or row count differs")
            continue
        for line, row in zip(lines[1:], rows):
            for column, text in zip(columns, line.split(",")):
                value = row[column]
                if value is None:
                    ok = text == ""
                elif isinstance(value, str):
                    ok = text == value
                else:
                    ok = float(text) == value
                if not ok:
                    problems.append(f"{path.name}: {column} {text!r} does not read back as {value!r}")
        again = out_dir / f"{curve.name}.again.csv"
        cli.write_csv(str(again), rows, workload.metadata(curve))
        if again.read_bytes() != path.read_bytes():
            problems.append(f"{path.name}: a second write of the same rows differs")


def check_curves(workload: CurveWorkload, result: RoundResult, out_dir: Path) -> list[str]:
    problems: list[str] = []
    check_failures(result, problems)
    ff, ps = workload.program.feedforward, workload.program.photostatistics
    p_by_curve: dict[str, dict[float, float]] = {}
    for curve in workload.curves:
        p_by_curve[curve.name] = {row["alpha2"]: _check_row(curve, row, problems)
                                  for row in result.rows[curve.name]}
    for curve in workload.curves:
        if curve.config.receiver != "HFFRE":
            continue
        c = curve.config
        model = ps.DetectorModel(c.pnr, c.eta, c.nu, c.xi)
        cfg = ff.FeedForwardConfig(c.n_copies, model, ff.Receiver.DFFRE)
        for a2, p in p_by_curve[curve.name].items():
            dffre = ff.dffre_error(math.sqrt(a2), cfg).p_err
            if p > dffre + PROPERTY_SLACK:
                problems.append(f"{curve.name}@{a2!r}: HFFRE {p!r} above DFFRE {dffre!r}")
            hynore = p_by_curve.get("hynore_m2", {}).get(a2)
            if (c.n_copies == 1 and c.pnr == 2 and model.is_ideal and hynore is not None
                    and p > hynore + PROPERTY_SLACK):
                problems.append(f"{curve.name}@{a2!r}: HFFRE {p!r} above HYNORE {hynore!r}")
    check_csv(workload, result, out_dir, problems)
    return problems


def check_monte_carlo(workload: MonteCarloWorkload, result: RoundResult) -> list[str]:
    problems: list[str] = []
    check_failures(result, problems)
    for op in workload.estimates:
        alpha = math.sqrt(op.alpha2)
        params = op.analytic.params
        det = op.detector
        if op.cfg.receiver.name == "DFFRE":
            ref = oracle.dffre_error(alpha, params.betas, params.n_th, det)
        else:
            ref = oracle.hffre_error(alpha, params.tau, params.z, params.betas, params.n_th, det)
        p = ref.value
        rel = rounding_rel(op.cfg.n_copies, det.resolution)
        if not oracle.close(op.analytic.p_err, p, rel, 2.0 * ref.bound):
            problems.append(f"{op.label}: analytic p_err {op.analytic.p_err!r} != independent {p!r}")
        if p < MC_MIN_P:
            problems.append(f"{op.label}: p = {p!r} is below {MC_MIN_P}, too few expected errors")
        if op.label not in result.outputs:
            continue
        p_hat, _ = result.outputs[op.label]
        sigma = math.sqrt(p * (1.0 - p) / MC_TRIALS)
        if abs(p_hat - p) > 5.0 * sigma:
            problems.append(f"{op.label}: p_hat {p_hat!r} is {abs(p_hat - p) / sigma:.1f} sigma from {p!r}")
    first = workload.estimates[0]
    if first.label in result.outputs and workload.estimate(first)[0] != result.outputs[first.label][0]:
        problems.append(f"{first.label}: the same seed gave another p_hat")
    return problems


def check_round(workload, result: RoundResult, out_dir: Path) -> list[str]:
    if isinstance(workload, MonteCarloWorkload):
        return check_monte_carlo(workload, result)
    return check_curves(workload, result, out_dir)
