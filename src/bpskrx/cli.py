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
import errno
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Container, NamedTuple

from . import __version__, baselines, feedforward
from .feedforward import EvalResult, FeedForwardConfig, Receiver
from .montecarlo import MIN_TRIALS, RngSpec, estimate_error
from .photostatistics import DetectorModel, _check_count


class ReceiverEntry(NamedTuple):
    """How a receiver is evaluated: a closed form for p_err, else an ``EvalResult``.

    ``kind`` names the feed-forward recursion, which alone models detector
    imperfections and is replayed by the Monte Carlo oracle; ``copies``
    fixes N where the receiver defines it.
    """

    closed_form: Callable[[float], float] | None = None
    kind: Receiver | None = None
    copies: int | None = None

    def n_copies(self, requested: int) -> int:
        return self.copies or requested

    def config(self, model: DetectorModel, n_copies: int) -> FeedForwardConfig:
        return FeedForwardConfig(self.n_copies(n_copies), model, self.kind)


# Callees are looked up through their module at call time, so patched
# module attributes (a tracer, a test) see every call.
RECEIVER_TABLE = {
    "SQL": ReceiverEntry(closed_form=lambda alpha: baselines.sql_error(alpha)),
    "HELSTROM": ReceiverEntry(closed_form=lambda alpha: baselines.helstrom_bound(alpha)),
    "KENNEDY": ReceiverEntry(closed_form=lambda alpha: baselines.kennedy_error(alpha)),
    "DISP_OPT": ReceiverEntry(kind=Receiver.DFFRE, copies=1),
    "HYNORE": ReceiverEntry(copies=1),
    "DFFRE": ReceiverEntry(kind=Receiver.DFFRE),
    "HFFRE": ReceiverEntry(kind=Receiver.HFFRE),
}
RECEIVERS = tuple(RECEIVER_TABLE)
MC_RECEIVERS = tuple(n for n, e in RECEIVER_TABLE.items() if e.kind is not None)
OPTIMIZED_RECEIVERS = tuple(n for n, e in RECEIVER_TABLE.items() if e.closed_form is None)
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


def _switch(text: str) -> bool:
    """The config-file value of the ``log`` switch, the one switch setting."""
    on, off = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
    if text.lower() not in on + off:
        raise ValueError(f"log must be one of {'/'.join(on)} or {'/'.join(off)}, got {text!r}")
    return text.lower() in on


def _check_monte_carlo(trials: int | None, seed: int | None) -> None:
    """--mc-trials and --seed, when given, by the Monte Carlo oracle's rules, before evaluating."""
    if trials is not None:
        _check_count("--mc-trials", trials, MIN_TRIALS)
    if seed is not None:
        try:
            RngSpec(seed)
        except ValueError as exc:  # "seed must be ...", now naming the flag
            raise ValueError(f"--{exc}") from None


def _setting(default, parse, help=None):
    """A sweep setting: its default, the parser of its flag or file value, its flag help."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's settings, each also the flag ``--<name>`` (``-`` for ``_``)
    and a config-file key in either spelling; a flag wins over the file,
    the file over the default. ``log`` is a switch on the command line."""

    receiver: str = _setting(MISSING, str.upper)
    alpha2_min: float = _setting(0.1, float)
    alpha2_max: float = _setting(4.0, float)
    points: int = _setting(20, int)
    log: bool = _setting(False, _switch, "log-spaced grid")
    n_copies: int = _setting(1, int, "number of signal copies N")
    pnr: int = _setting(2, int, "PNR detector resolution M")
    eta: float = _setting(1.0, float, "quantum efficiency in (0, 1]")
    nu: float = _setting(0.0, float, "dark-count rate per window")
    xi: float = _setting(1.0, float, "interference visibility in (0, 1]")
    mc_trials: int | None = _setting(None, int, "also run the Monte Carlo oracle")
    seed: int | None = _setting(None, int)

    def __post_init__(self) -> None:
        if self.receiver not in RECEIVERS:
            raise ValueError(f"unknown receiver {self.receiver!r}; choose from {RECEIVERS}")
        for flag, value in (("alpha2-min", self.alpha2_min), ("alpha2-max", self.alpha2_max)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value!r}")
        if not 0.0 < self.alpha2_min <= self.alpha2_max:
            raise ValueError("need 0 < alpha2-min <= alpha2-max")
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.mc_trials is not None and self.receiver not in MC_RECEIVERS:
            raise ValueError(f"--mc-trials is only supported for receivers {MC_RECEIVERS}")
        if self.mc_trials is not None and self.seed is None:
            raise ValueError("--mc-trials requires --seed for reproducibility")
        _check_monte_carlo(self.mc_trials, self.seed)
        if self.receiver not in MC_RECEIVERS and not self.model.is_ideal:
            raise ValueError(
                f"receiver {self.receiver} is evaluated with ideal detectors; --eta/--nu/--xi "
                f"apply to {', '.join(MC_RECEIVERS[:-1])} and {MC_RECEIVERS[-1]}"
            )
        FeedForwardConfig(self.n_copies, self.model)  # its N >= 1 check, whatever the receiver

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


def evaluate_receiver(name: str, alpha: float, model: DetectorModel, n_copies: int) -> EvalResult:
    """Optimized evaluation of a receiver without a closed form."""
    entry = RECEIVER_TABLE[name]
    if entry.kind is not None:
        return feedforward.optimized_error(alpha, entry.config(model, n_copies))
    if not model.is_ideal:  # HYNORE, the one optimized receiver outside the recursion
        raise ValueError(f"{name} is only evaluated with ideal detectors")
    return baselines.hynore_error(alpha, model.resolution)


def evaluate_point(config: SweepConfig, alpha2: float, row_index: int) -> dict:
    """Evaluate one grid point; returns a column -> value mapping (None = absent)."""
    alpha = math.sqrt(alpha2)
    row: dict = {name: None for name in CSV_COLUMNS}
    row["alpha2"] = alpha2
    row["p_helstrom"] = baselines.helstrom_bound(alpha)
    row["p_sql"] = baselines.sql_error(alpha)

    entry = RECEIVER_TABLE[config.receiver]
    if entry.closed_form is not None:
        p_err = entry.closed_form(alpha)
    else:
        result = evaluate_receiver(config.receiver, alpha, config.model, config.n_copies)
        p_err = result.p_err
        row["tau_opt"] = result.params.tau
        if entry.kind is not Receiver.DFFRE:  # the DFFRE has no HL local oscillator
            row["z_opt"] = result.params.z
        if result.params.betas:
            row["n_th_opt"] = result.params.n_th
            row["betas"] = ";".join(repr(b) for b in result.params.betas)
    row["p_err"] = p_err
    row["ratio"] = feedforward.ratio(p_err, alpha)
    row["gain"] = feedforward.gain(p_err, alpha)

    if config.mc_trials is not None:
        cfg = entry.config(config.model, config.n_copies)
        spec = RngSpec(config.seed, stream_id=row_index)
        row["mc_p_hat"], row["mc_std_err"] = estimate_error(
            alpha, result.params, cfg, config.mc_trials, spec)
    return row


def run_sweep(config: SweepConfig, workers: int = 1) -> list[dict]:
    """Evaluate the whole grid, in ascending alpha2 order."""
    grid = config.grid()
    tasks = ([config] * len(grid), grid, range(len(grid)))
    if workers > 1:
        # imported here: the pool's multiprocessing modules cost every
        # process that imports cli, most of which never start a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(evaluate_point, *tasks))
    return list(map(evaluate_point, *tasks))


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
    # before the temporary file, so that a directory target leaves nothing behind
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
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
    """One pair per setting: floats as ``repr``, None as "", log as spacing, N as evaluated."""
    pairs: list[tuple[str, object]] = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "log":
            pairs.append(("spacing", "log" if value else "linear"))
            continue
        if f.name == "n_copies":
            value = RECEIVER_TABLE[config.receiver].n_copies(value)
        pairs.append((f.name, repr(value) if f.metadata["parse"] is float
                       else "" if value is None else value))
    return pairs


# --- figure datasets -------------------------------------------------------

def figure_curves(figure_id: str) -> list[tuple[str, dict]]:
    """(curve_name, sweep-config overrides) for each curve of a figure.

    PNR resolution is 2 except where the figure varies it. The energy
    axis is not numerically specified by the figure captions, so sweeps
    cover alpha2 in [0.01, 10] (recorded in the output metadata).
    """
    curves: list[tuple[str, dict]] = []
    if figure_id == "4":
        for name in ("SQL", "HELSTROM", "KENNEDY", "HYNORE"):
            curves.append((name.lower(), {"receiver": name}))
        curves.append(("dffre_n1", {"receiver": "DFFRE", "n_copies": 1}))
        curves.append(("hffre_n1", {"receiver": "HFFRE", "n_copies": 1}))
    elif figure_id == "5a":
        for receiver in ("DFFRE", "HFFRE"):
            for n in (1, 2, 5):
                curves.append((f"{receiver.lower()}_n{n}",
                               {"receiver": receiver, "n_copies": n}))
    elif figure_id == "5b":
        for m in (1, 2, 4):
            curves.append((f"hffre_n1_m{m}",
                           {"receiver": "HFFRE", "n_copies": 1, "pnr": m}))
        curves.append(("dffre_n1_m2", {"receiver": "DFFRE", "n_copies": 1, "pnr": 2}))
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
    alpha2_min, alpha2_max = FIGURE_ALPHA2_RANGE
    for name, overrides in curves:
        config = SweepConfig(alpha2_min=alpha2_min, alpha2_max=alpha2_max, points=points,
                             log=True, **overrides)
        rows = run_sweep(config)
        metadata = [("figure", figure_id), ("curve", name)] + _config_metadata(config)
        ext = "json" if as_json else "csv"
        path = os.path.join(out_dir, f"fig{figure_id}_{name}.{ext}")
        (write_json if as_json else write_csv)(path, rows, metadata)
        written.append(path)
    return written


# --- argument parsing ------------------------------------------------------

def _read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; keys mirror the long flag names (``-`` read as ``_``)."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


SETTINGS = {f.name: f for f in fields(SweepConfig)}
MODEL_SETTINGS = ("n_copies", "pnr", "eta", "nu", "xi")


def _setting_value(args: argparse.Namespace, file_values: dict[str, str], name: str):
    """A setting's flag value, else its config-file value, else its default."""
    value = getattr(args, name)
    if value is None and name in file_values:
        value = SETTINGS[name].metadata["parse"](file_values[name])
    return SETTINGS[name].default if value is None else value


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(key.replace("_", "-") for key in set(file_values) - set(SETTINGS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    if args.receiver is None and "receiver" not in file_values:
        raise ValueError("--receiver is required (flag or config file)")
    return SweepConfig(**{name: _setting_value(args, file_values, name) for name in SETTINGS})


def _add_setting_flags(parser: argparse.ArgumentParser, names: Container[str], **extra) -> None:
    """One flag per named setting, in field order; ``extra`` adds keywords per name."""
    for name in (n for n in SETTINGS if n in names):
        meta = SETTINGS[name].metadata
        kind = ({"action": "store_const", "const": True} if meta["parse"] is _switch
                else {"type": meta["parse"]})
        parser.add_argument("--" + name.replace("_", "-"), help=meta["help"], **kind,
                            **extra.get(name, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpskrx",
        description="BPSK coherent-state receiver error probabilities and datasets",
    )
    parser.add_argument("--version", action="version", version=f"bpskrx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a receiver over an energy grid")
    _add_setting_flags(sweep, SETTINGS, receiver={"choices": RECEIVERS})
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
    optimize.add_argument("--receiver", choices=OPTIMIZED_RECEIVERS, type=str.upper,
                          required=True)
    optimize.add_argument("--alpha2", type=float, required=True)
    _add_setting_flags(optimize, MODEL_SETTINGS)
    optimize.add_argument("--json", action="store_true")

    mc = sub.add_parser("montecarlo", help="Monte Carlo cross-check of one analytic point")
    mc.add_argument("--receiver", choices=MC_RECEIVERS, type=str.upper, required=True)
    mc.add_argument("--alpha2", type=float, required=True)
    _add_setting_flags(mc, MODEL_SETTINGS)
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


def _single_point(args: argparse.Namespace) -> tuple[float, DetectorModel, EvalResult, dict]:
    """Evaluate ``--receiver`` at ``--alpha2``; also returns the point's report."""
    get = lambda name: _setting_value(args, {}, name)
    model = DetectorModel(get("pnr"), get("eta"), get("nu"), get("xi"))
    if args.alpha2 < 0.0:
        raise ValueError("--alpha2 must be >= 0")
    alpha = math.sqrt(args.alpha2)
    FeedForwardConfig(get("n_copies"), model)  # its N >= 1 check, whatever the receiver
    n_copies = RECEIVER_TABLE[args.receiver].n_copies(get("n_copies"))
    result = evaluate_receiver(args.receiver, alpha, model, n_copies)
    return alpha, model, result, {
        "receiver": args.receiver,
        "alpha2": args.alpha2,
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
    _, model, result, payload = _single_point(args)
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
    _check_monte_carlo(args.mc_trials, args.seed)
    alpha, model, result, payload = _single_point(args)
    cfg = RECEIVER_TABLE[args.receiver].config(model, payload["n_copies"])
    p_hat, std_err = estimate_error(alpha, result.params, cfg, args.mc_trials, RngSpec(args.seed))
    # The deviation is measured in the analytic standard error, which
    # unlike the sample one stays nonzero when no error is observed; with
    # fewer than MC_MIN_EXPECTED_ERRORS expected errors it resolves nothing.
    p = result.p_err
    expected_errors = args.mc_trials * p
    resolvable = expected_errors >= MC_MIN_EXPECTED_ERRORS
    sigmas = abs(p_hat - p) / math.sqrt(p * (1.0 - p) / args.mc_trials) if resolvable else None
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

    _check_monte_carlo(None, args.seed)
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
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout has gone: not an error of the command. Point
        # stdout at devnull so the interpreter's flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, the status of a writer killed by a closed pipe
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
