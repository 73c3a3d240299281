"""Command-line interface: sweeps, figure datasets, single-point reports.

Subcommands
-----------
sweep       evaluate one receiver over an energy grid, emit CSV or JSON
figure      emit the per-curve datasets behind one of the standard figures
optimize    report the optimized parameters at a single energy
montecarlo  cross-check one analytic point against the trajectory simulator
validate    run the validation suite (fast or full)

Datasets are written atomically (temp file + rename) so a failed run
never leaves a partial file, and identical configuration plus seed
always produces byte-identical output. Numbers are serialized with
``repr``, the shortest representation that round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__, baselines, feedforward
from .feedforward import EvalResult, FeedForwardConfig, Receiver
from .montecarlo import RngSpec, estimate_error
from .photostatistics import DetectorModel

RECEIVERS = ("SQL", "HELSTROM", "KENNEDY", "DISP_OPT", "HYNORE", "DFFRE", "HFFRE")
MC_RECEIVERS = ("DISP_OPT", "DFFRE", "HFFRE")
CSV_COLUMNS = (
    "alpha2",
    "p_err",
    "p_helstrom",
    "p_sql",
    "ratio",
    "gain",
    "tau_opt",
    "z_opt",
    "n_th_opt",
    "betas",
    "mc_p_hat",
    "mc_std_err",
)
FIGURE_IDS = ("4", "5a", "5b", "6", "7a", "7b", "8a", "8b", "9a", "9b")
FIGURE_POINTS = 60
FIGURE_ALPHA2_RANGE = (0.01, 10.0)
MC_MIN_EXPECTED_ERRORS = 10


@dataclass(frozen=True)
class SweepConfig:
    receiver: str
    alpha2_min: float
    alpha2_max: float
    points: int
    log: bool
    n_copies: int
    pnr: int
    eta: float
    nu: float
    xi: float
    mc_trials: int | None
    seed: int | None

    def __post_init__(self) -> None:
        if self.receiver not in RECEIVERS:
            raise ValueError(f"unknown receiver {self.receiver!r}; choose from {RECEIVERS}")
        if not 0.0 < self.alpha2_min <= self.alpha2_max:
            raise ValueError("need 0 < alpha2-min <= alpha2-max")
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.mc_trials is not None and self.receiver not in MC_RECEIVERS:
            raise ValueError(f"--mc-trials is only supported for receivers {MC_RECEIVERS}")
        if self.mc_trials is not None and self.seed is None:
            raise ValueError("--mc-trials requires --seed for reproducibility")
        model = DetectorModel(self.pnr, self.eta, self.nu, self.xi)
        if self.receiver not in MC_RECEIVERS and not model.is_ideal:
            raise ValueError(
                f"receiver {self.receiver} is evaluated with ideal detectors; "
                "--eta/--nu/--xi apply to DISP_OPT, DFFRE and HFFRE"
            )

    @property
    def model(self) -> DetectorModel:
        return DetectorModel(self.pnr, self.eta, self.nu, self.xi)

    def grid(self) -> list[float]:
        if self.points == 1:
            return [self.alpha2_min]
        lo, hi, n = self.alpha2_min, self.alpha2_max, self.points
        if self.log:
            llo, lhi = math.log(lo), math.log(hi)
            values = [math.exp(llo + (lhi - llo) * i / (n - 1)) for i in range(n)]
        else:
            values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        values[0], values[-1] = lo, hi
        return values


def evaluate_point(config: SweepConfig, alpha2: float, row_index: int) -> dict:
    """Evaluate one grid point; returns a column -> value mapping (None = absent)."""
    alpha = math.sqrt(alpha2)
    row: dict = {name: None for name in CSV_COLUMNS}
    row["alpha2"] = alpha2
    row["p_helstrom"] = baselines.helstrom_bound(alpha)
    row["p_sql"] = baselines.sql_error(alpha)

    result: EvalResult | None = None
    receiver = config.receiver
    if receiver == "SQL":
        p_err = row["p_sql"]
    elif receiver == "HELSTROM":
        p_err = row["p_helstrom"]
    elif receiver == "KENNEDY":
        p_err = baselines.kennedy_error(alpha)
    elif receiver == "HYNORE":
        result = baselines.hynore_error(alpha, config.pnr)
        p_err = result.p_err
    elif receiver == "DISP_OPT":
        result = baselines.optimized_displacement_error(alpha, config.model)
        p_err = result.p_err
    elif receiver == "DFFRE":
        cfg = FeedForwardConfig(config.n_copies, config.model, Receiver.DFFRE)
        result = feedforward.dffre_error(alpha, cfg)
        p_err = result.p_err
    else:  # HFFRE
        cfg = FeedForwardConfig(config.n_copies, config.model, Receiver.HFFRE)
        result = feedforward.hffre_error(alpha, cfg)
        p_err = result.p_err

    row["p_err"] = p_err
    row["ratio"] = feedforward.ratio(p_err, alpha)
    row["gain"] = feedforward.gain(p_err, alpha)
    if result is not None:
        row["tau_opt"] = result.params.tau
        if receiver in ("HYNORE", "HFFRE"):
            row["z_opt"] = result.params.z
        if result.params.betas:
            row["n_th_opt"] = result.params.n_th
            row["betas"] = ";".join(repr(b) for b in result.params.betas)

    if config.mc_trials is not None:
        n_copies = 1 if receiver == "DISP_OPT" else config.n_copies
        kind = Receiver.DFFRE if receiver in ("DISP_OPT", "DFFRE") else Receiver.HFFRE
        cfg = FeedForwardConfig(n_copies, config.model, kind)
        spec = RngSpec(config.seed, stream_id=row_index)
        p_hat, std_err = estimate_error(alpha, result.params, cfg, config.mc_trials, spec)
        row["mc_p_hat"] = p_hat
        row["mc_std_err"] = std_err
    return row


def _evaluate_indexed(args: tuple[SweepConfig, float, int]) -> dict:
    config, alpha2, index = args
    return evaluate_point(config, alpha2, index)


def run_sweep(config: SweepConfig, workers: int = 1) -> list[dict]:
    """Evaluate the whole grid, in ascending alpha2 order."""
    tasks = [(config, alpha2, i) for i, alpha2 in enumerate(config.grid())]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_evaluate_indexed, tasks))
    return [_evaluate_indexed(t) for t in tasks]


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _metadata_lines(pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# bpskrx {__version__}"]
    lines += [f"# {key} = {value}" for key, value in pairs]
    return lines


def write_csv(path: str, rows: list[dict], metadata: list[tuple[str, object]]) -> None:
    """Atomically write a dataset: comment header, column row, data rows."""
    lines = _metadata_lines(metadata)
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in CSV_COLUMNS))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, rows: list[dict], metadata: list[tuple[str, object]]) -> None:
    payload = {
        "version": __version__,
        "metadata": {key: value for key, value in metadata},
        "rows": [{c: row[c] for c in CSV_COLUMNS} for row in rows],
    }
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bpskrx-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_metadata(config: SweepConfig) -> list[tuple[str, object]]:
    return [
        ("receiver", config.receiver),
        ("alpha2_min", repr(config.alpha2_min)),
        ("alpha2_max", repr(config.alpha2_max)),
        ("points", config.points),
        ("spacing", "log" if config.log else "linear"),
        ("n_copies", config.n_copies),
        ("pnr", config.pnr),
        ("eta", repr(config.eta)),
        ("nu", repr(config.nu)),
        ("xi", repr(config.xi)),
        ("mc_trials", config.mc_trials if config.mc_trials is not None else ""),
        ("seed", config.seed if config.seed is not None else ""),
    ]


# --- figure datasets -------------------------------------------------------

def figure_curves(figure_id: str) -> list[tuple[str, dict]]:
    """(curve_name, sweep-config overrides) for each curve of a figure.

    PNR resolution is 2 except where the figure varies it. The energy
    axis is not numerically specified by the figure captions, so sweeps
    cover alpha2 in [0.01, 10] (recorded in the output metadata).
    """
    ideal = {"eta": 1.0, "nu": 0.0, "xi": 1.0}
    curves: list[tuple[str, dict]] = []
    if figure_id == "4":
        for name in ("SQL", "HELSTROM", "KENNEDY", "HYNORE"):
            curves.append((name.lower(), {"receiver": name, **ideal}))
        curves.append(("dffre_n1", {"receiver": "DFFRE", "n_copies": 1, **ideal}))
        curves.append(("hffre_n1", {"receiver": "HFFRE", "n_copies": 1, **ideal}))
    elif figure_id == "5a":
        for receiver in ("DFFRE", "HFFRE"):
            for n in (1, 2, 5):
                curves.append((f"{receiver.lower()}_n{n}",
                               {"receiver": receiver, "n_copies": n, **ideal}))
    elif figure_id == "5b":
        for m in (1, 2, 4):
            curves.append((f"hffre_n1_m{m}",
                           {"receiver": "HFFRE", "n_copies": 1, "pnr": m, **ideal}))
        curves.append(("dffre_n1_m2", {"receiver": "DFFRE", "n_copies": 1, "pnr": 2, **ideal}))
    elif figure_id in ("6", "7a"):
        for receiver in ("DFFRE", "HFFRE"):
            for eta in (0.7, 0.8, 0.9):
                curves.append((f"{receiver.lower()}_eta{eta}",
                               {"receiver": receiver, "n_copies": 1, "eta": eta}))
    elif figure_id == "7b":
        for receiver in ("DFFRE", "HFFRE"):
            for n in (1, 2, 5, 10):
                curves.append((f"{receiver.lower()}_eta0.7_n{n}",
                               {"receiver": receiver, "n_copies": n, "eta": 0.7}))
    elif figure_id in ("8a", "8b"):
        for receiver in ("DFFRE", "HFFRE"):
            for n in (1, 2, 5, 10):
                curves.append((f"{receiver.lower()}_nu1e-3_n{n}",
                               {"receiver": receiver, "n_copies": n, "nu": 1e-3}))
    elif figure_id in ("9a", "9b"):
        for receiver in ("DFFRE", "HFFRE"):
            for n in (1, 2, 5, 10):
                curves.append((f"{receiver.lower()}_xi0.998_n{n}",
                               {"receiver": receiver, "n_copies": n, "xi": 0.998}))
    else:
        raise ValueError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")
    return curves


def run_figure(figure_id: str, out_dir: str, points: int, as_json: bool) -> list[str]:
    curves = figure_curves(figure_id)
    written = []
    for name, overrides in curves:
        base = {
            "receiver": "SQL",
            "alpha2_min": FIGURE_ALPHA2_RANGE[0],
            "alpha2_max": FIGURE_ALPHA2_RANGE[1],
            "points": points,
            "log": True,
            "n_copies": 1,
            "pnr": 2,
            "eta": 1.0,
            "nu": 0.0,
            "xi": 1.0,
            "mc_trials": None,
            "seed": None,
        }
        base.update(overrides)
        config = SweepConfig(**base)
        rows = run_sweep(config)
        metadata = [("figure", figure_id), ("curve", name)] + _config_metadata(config)
        ext = "json" if as_json else "csv"
        path = os.path.join(out_dir, f"fig{figure_id}_{name}.{ext}")
        (write_json if as_json else write_csv)(path, rows, metadata)
        written.append(path)
    return written


# --- argument parsing ------------------------------------------------------

def _read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; keys mirror the long flag names."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("_", "-")] = value
    return values


_SWEEP_OPTION_TYPES = {
    "receiver": str,
    "alpha2-min": float,
    "alpha2-max": float,
    "points": int,
    "log": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "n-copies": int,
    "pnr": int,
    "eta": float,
    "nu": float,
    "xi": float,
    "mc-trials": int,
    "seed": int,
}


def _merged_option(args: argparse.Namespace, file_values: dict[str, str], key: str, default):
    attr = key.replace("-", "_")
    value = getattr(args, attr, None)
    if value is not None:
        return value
    if key in file_values:
        return _SWEEP_OPTION_TYPES[key](file_values[key])
    return default


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(_SWEEP_OPTION_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    get = lambda key, default: _merged_option(args, file_values, key, default)
    receiver = get("receiver", None)
    if receiver is None:
        raise ValueError("--receiver is required (flag or config file)")
    return SweepConfig(
        receiver=receiver.upper(),
        alpha2_min=get("alpha2-min", 0.1),
        alpha2_max=get("alpha2-max", 4.0),
        points=get("points", 20),
        log=bool(get("log", False)),
        n_copies=get("n-copies", 1),
        pnr=get("pnr", 2),
        eta=get("eta", 1.0),
        nu=get("nu", 0.0),
        xi=get("xi", 1.0),
        mc_trials=get("mc-trials", None),
        seed=get("seed", None),
    )


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-copies", type=int, help="number of signal copies N")
    parser.add_argument("--pnr", type=int, help="PNR detector resolution M")
    parser.add_argument("--eta", type=float, help="quantum efficiency in (0, 1]")
    parser.add_argument("--nu", type=float, help="dark-count rate per window")
    parser.add_argument("--xi", type=float, help="interference visibility in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpskrx",
        description="BPSK coherent-state receiver error probabilities and datasets",
    )
    parser.add_argument("--version", action="version", version=f"bpskrx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a receiver over an energy grid")
    sweep.add_argument("--receiver", choices=RECEIVERS, type=str.upper)
    sweep.add_argument("--alpha2-min", type=float)
    sweep.add_argument("--alpha2-max", type=float)
    sweep.add_argument("--points", type=int)
    sweep.add_argument("--log", action="store_const", const=True, help="log-spaced grid")
    _add_model_flags(sweep)
    sweep.add_argument("--mc-trials", type=int, help="also run the Monte Carlo oracle")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--config", help="key = value file mirroring the flag names")
    sweep.add_argument("--workers", type=int, default=1, help="parallel grid workers")
    sweep.add_argument("--out", required=True, help="output file path")
    sweep.add_argument("--json", action="store_true", help="write JSON instead of CSV")

    figure = sub.add_parser("figure", help="emit the datasets behind a standard figure")
    figure.add_argument("id", choices=FIGURE_IDS)
    figure.add_argument("--points", type=int, default=FIGURE_POINTS)
    figure.add_argument("--out", default=None, help="output directory (default figure_<id>)")
    figure.add_argument("--json", action="store_true")

    optimize = sub.add_parser("optimize", help="optimized parameters at one energy")
    optimize.add_argument("--receiver", choices=("DISP_OPT", "HYNORE", "DFFRE", "HFFRE"),
                          type=str.upper, required=True)
    optimize.add_argument("--alpha2", type=float, required=True)
    _add_model_flags(optimize)
    optimize.add_argument("--json", action="store_true")

    mc = sub.add_parser("montecarlo", help="Monte Carlo cross-check of one analytic point")
    mc.add_argument("--receiver", choices=MC_RECEIVERS, type=str.upper, required=True)
    mc.add_argument("--alpha2", type=float, required=True)
    _add_model_flags(mc)
    mc.add_argument("--mc-trials", type=int, default=1_000_000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--json", action="store_true")

    validate = sub.add_parser("validate", help="run the validation suite")
    validate.add_argument("--suite", choices=("fast", "full"), default="fast")
    validate.add_argument("--seed", type=int, default=1234)
    return parser


# --- subcommand drivers ----------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    config = _sweep_config(args)
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    rows = run_sweep(config, workers=args.workers)
    writer = write_json if args.json else write_csv
    writer(args.out, rows, _config_metadata(config))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    out_dir = args.out if args.out is not None else f"figure_{args.id}"
    written = run_figure(args.id, out_dir, args.points, args.json)
    for path in written:
        print(f"wrote {path}")
    return 0


def _single_model(args: argparse.Namespace) -> tuple[DetectorModel, int]:
    model = DetectorModel(
        resolution=args.pnr if args.pnr is not None else 2,
        eta=args.eta if args.eta is not None else 1.0,
        nu=args.nu if args.nu is not None else 0.0,
        xi=args.xi if args.xi is not None else 1.0,
    )
    n_copies = args.n_copies if args.n_copies is not None else 1
    return model, n_copies


def _evaluate_single(receiver: str, alpha2: float, model: DetectorModel, n_copies: int) -> EvalResult:
    if alpha2 < 0.0:
        raise ValueError("--alpha2 must be >= 0")
    alpha = math.sqrt(alpha2)
    if receiver == "DISP_OPT":
        return baselines.optimized_displacement_error(alpha, model)
    if receiver == "HYNORE":
        if not model.is_ideal:
            raise ValueError("HYNORE is only evaluated with ideal detectors")
        return baselines.hynore_error(alpha, model.resolution)
    kind = Receiver[receiver]
    cfg = FeedForwardConfig(n_copies, model, kind)
    fn = feedforward.dffre_error if kind is Receiver.DFFRE else feedforward.hffre_error
    return fn(alpha, cfg)


def _result_payload(receiver: str, alpha2: float, model: DetectorModel,
                    n_copies: int, result: EvalResult) -> dict:
    return {
        "receiver": receiver,
        "alpha2": alpha2,
        "n_copies": n_copies,
        "pnr": model.resolution,
        "eta": model.eta,
        "nu": model.nu,
        "xi": model.xi,
        "p_err": result.p_err,
        "tau_opt": result.params.tau,
        "z_opt": result.params.z,
        "n_th_opt": result.params.n_th,
        "betas": list(result.params.betas),
        "per_step_correct": list(result.per_step_correct),
        "ratio": result.ratio,
        "gain": result.gain,
    }


def cmd_optimize(args: argparse.Namespace) -> int:
    model, n_copies = _single_model(args)
    result = _evaluate_single(args.receiver, args.alpha2, model, n_copies)
    payload = _result_payload(args.receiver, args.alpha2, model, n_copies, result)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"receiver      {args.receiver}")
    print(f"alpha2        {args.alpha2!r}")
    print(f"model         M={model.resolution} eta={model.eta!r} nu={model.nu!r} xi={model.xi!r}")
    print(f"p_err         {result.p_err!r}")
    print(f"tau*          {result.params.tau!r}")
    print(f"z*            {result.params.z!r}")
    print(f"n_th*         {result.params.n_th}")
    print(f"betas         {' '.join(repr(b) for b in result.params.betas) or '-'}")
    print(f"trace         {' '.join(repr(p) for p in result.per_step_correct)}")
    print(f"ratio         {result.ratio!r}")
    print(f"gain          {result.gain!r}")
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    model, n_copies = _single_model(args)
    if args.receiver == "DISP_OPT":
        n_copies = 1
    result = _evaluate_single(args.receiver, args.alpha2, model, n_copies)
    kind = Receiver.HFFRE if args.receiver == "HFFRE" else Receiver.DFFRE
    cfg = FeedForwardConfig(n_copies, model, kind)
    alpha = math.sqrt(args.alpha2)
    p_hat, std_err = estimate_error(alpha, result.params, cfg, args.mc_trials, RngSpec(args.seed))
    # The deviation is measured in the analytic standard error, which
    # unlike the sample one stays nonzero when no error is observed; with
    # fewer than MC_MIN_EXPECTED_ERRORS expected errors it resolves nothing.
    p = result.p_err
    expected_errors = args.mc_trials * p
    resolvable = expected_errors >= MC_MIN_EXPECTED_ERRORS
    sigmas = abs(p_hat - p) / math.sqrt(p * (1.0 - p) / args.mc_trials) if resolvable else None
    payload = _result_payload(args.receiver, args.alpha2, model, n_copies, result)
    payload.update({"mc_trials": args.mc_trials, "seed": args.seed, "mc_p_hat": p_hat,
                    "mc_std_err": std_err, "mc_resolvable": resolvable, "mc_sigmas": sigmas})
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"analytic p_err {p!r}")
        print(f"mc p_hat       {p_hat!r}")
        print(f"mc std_err     {std_err!r}")
        if resolvable:
            print(f"deviation      {sigmas:.2f} sigma ({args.mc_trials} trials, seed {args.seed})")
        else:
            print(f"deviation      not resolvable (expected errors {expected_errors:.3g} "
                  f"< {MC_MIN_EXPECTED_ERRORS}; {args.mc_trials} trials, seed {args.seed})")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from . import validation

    results = validation.run_suite(suite=args.suite, seed=args.seed)
    failures = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.criterion} ({check.elapsed:.1f}s)")
        for line in check.details:
            print(f"    {line}")
        failures += 0 if check.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed ({args.suite} suite)")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": cmd_sweep,
        "figure": cmd_figure,
        "optimize": cmd_optimize,
        "montecarlo": cmd_montecarlo,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
