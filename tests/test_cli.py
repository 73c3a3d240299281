"""Command-line surface: schemas, determinism, config handling, subcommands."""

import ast
import errno
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import bpskrx
from bpskrx import feedforward, validation
from bpskrx.cli import CSV_COLUMNS, SweepConfig, evaluate_point, figure_curves, main

# The subprocess imports the same bpskrx as these tests, installed or not.
PACKAGE_ROOT = str(Path(bpskrx.__file__).resolve().parents[1])


def run_cli(*args, cwd=None, **streams):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "bpskrx.cli", *args],
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
        **(streams or {"capture_output": True}),
    )


def parse_csv(path):
    metadata, header, rows = [], None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                metadata.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return metadata, header, rows


class TestSweep:
    def test_kennedy_closed_form_columns(self, tmp_path):
        out = tmp_path / "ken.csv"
        code = main([
            "sweep", "--receiver", "KENNEDY", "--alpha2-min", "0.25", "--alpha2-max", "4",
            "--points", "4", "--log", "--out", str(out),
        ])
        assert code == 0
        metadata, header, rows = parse_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 4
        assert any("receiver = KENNEDY" in line for line in metadata)
        alpha2s = [float(r[0]) for r in rows]
        assert alpha2s == sorted(alpha2s)
        for row in rows:
            alpha2, p_err = float(row[0]), float(row[1])
            assert p_err == pytest.approx(math.exp(-4.0 * alpha2) / 2.0, rel=1e-14, abs=0.0)
            assert row[6] == "" and row[9] == ""  # no tau_opt / betas for closed forms

    def test_round_trip_full_precision(self, tmp_path):
        out = tmp_path / "sql.csv"
        main(["sweep", "--receiver", "SQL", "--alpha2-min", "0.1", "--alpha2-max", "1",
              "--points", "3", "--out", str(out)])
        _, _, rows = parse_csv(out)
        from bpskrx.baselines import sql_error

        for row in rows:
            parsed = float(row[1])
            assert parsed == sql_error(math.sqrt(float(row[0])))  # exact round-trip

    def test_determinism_byte_identical(self, tmp_path):
        args = ["sweep", "--receiver", "DISP_OPT", "--alpha2-min", "0.2", "--alpha2-max", "2",
                "--points", "3", "--log"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        args = ["sweep", "--receiver", "KENNEDY", "--alpha2-min", "0.25", "--alpha2-max", "4",
                "--points", "5", "--log"]
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        main(args + ["--out", str(seq)])
        main(args + ["--out", str(par), "--workers", "2"])
        assert seq.read_bytes() == par.read_bytes()

    def test_mc_workers_do_not_change_output(self, tmp_path):
        # Each sweep process runs its Monte Carlo batches on threads of its own.
        args = ["sweep", "--receiver", "DFFRE", "--alpha2-min", "0.25", "--alpha2-max", "1",
                "--points", "2", "--mc-trials", "300000", "--seed", "5"]
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        main(args + ["--out", str(seq), "--workers", "1"])
        main(args + ["--out", str(par), "--workers", "2"])
        assert seq.read_bytes() == par.read_bytes()

    def test_import_loads_no_process_pool(self):
        # Neither the sweep's process pool nor a thread pool is imported up front.
        path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
        probe = ("import sys, bpskrx.cli; "
                 "print([m in sys.modules for m in ('concurrent.futures.process', "
                 "'concurrent.futures.thread')])")
        result = subprocess.run([sys.executable, "-c", probe], text=True, capture_output=True,
                                env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[False, False]"

    def test_default_model_equivalence(self, tmp_path):
        base = ["sweep", "--receiver", "HFFRE", "--alpha2-min", "0.5", "--alpha2-max", "1",
                "--points", "2", "--n-copies", "1"]
        explicit, omitted = tmp_path / "e.csv", tmp_path / "o.csv"
        main(base + ["--eta", "1", "--nu", "0", "--xi", "1", "--out", str(explicit)])
        main(base + ["--out", str(omitted)])
        assert explicit.read_bytes() == omitted.read_bytes()

    def test_mc_columns_populated_and_consistent(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(["sweep", "--receiver", "DFFRE", "--alpha2-min", "0.25", "--alpha2-max", "1",
                     "--points", "2", "--mc-trials", "100000", "--seed", "5", "--out", str(out)])
        assert code == 0
        _, _, rows = parse_csv(out)
        for row in rows:
            p_err, p_hat, std_err = float(row[1]), float(row[10]), float(row[11])
            assert std_err > 0
            assert abs(p_hat - p_err) <= 4 * std_err

    def test_mc_rejected_for_closed_form_receiver(self, tmp_path):
        out = tmp_path / "bad.csv"
        result = run_cli("sweep", "--receiver", "KENNEDY", "--alpha2-min", "1",
                         "--alpha2-max", "2", "--points", "2", "--mc-trials", "1000",
                         "--seed", "1", "--out", str(out))
        assert result.returncode != 0
        assert "error:" in result.stderr
        assert result.stderr.count("\n") == 1  # one-line diagnostic
        assert not out.exists()  # no partial file

    def test_mc_requires_seed(self, tmp_path):
        result = run_cli("sweep", "--receiver", "DFFRE", "--alpha2-min", "1", "--alpha2-max", "2",
                         "--points", "2", "--mc-trials", "10000", "--out", str(tmp_path / "x.csv"))
        assert result.returncode != 0

    def test_invalid_grid_rejected(self, tmp_path):
        result = run_cli("sweep", "--receiver", "SQL", "--alpha2-min", "0", "--alpha2-max", "1",
                         "--points", "2", "--out", str(tmp_path / "x.csv"))
        assert result.returncode != 0
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--alpha2-max", "inf"), ("--alpha2-min", "inf"),
                                             ("--alpha2-max", "nan"), ("--alpha2-min", "nan")])
    def test_non_finite_bound_rejected_before_evaluating(self, tmp_path, capsys, monkeypatch,
                                                          flag, value):
        monkeypatch.setattr("bpskrx.cli.evaluate_point", None)  # nothing may be evaluated
        bounds = {"--alpha2-min": "0.5", "--alpha2-max": "2", flag: value}
        out = tmp_path / "x.csv"
        args = ["sweep", "--receiver", "SQL", *(x for kv in bounds.items() for x in kv),
                "--points", "3", "--out", str(out)]
        assert main(args) == 2
        message = f"{flag[2:]} must be finite, got {float(value)!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_imperfections_rejected_for_ideal_only_receivers(self, tmp_path):
        # an ideal-only receiver with --eta would emit values that
        # contradict the recorded metadata
        result = run_cli("sweep", "--receiver", "HYNORE", "--alpha2-min", "1",
                         "--alpha2-max", "2", "--points", "2", "--eta", "0.7",
                         "--out", str(tmp_path / "x.csv"))
        assert result.returncode != 0
        assert not (tmp_path / "x.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(
            "receiver = KENNEDY\nalpha2-min = 0.25\nalpha2-max = 4\npoints = 7\nlog = true\n"
        )
        from_file, from_flags = tmp_path / "f.csv", tmp_path / "g.csv"
        main(["sweep", "--config", str(conf), "--points", "4", "--out", str(from_file)])
        main(["sweep", "--receiver", "KENNEDY", "--alpha2-min", "0.25", "--alpha2-max", "4",
              "--points", "4", "--log", "--out", str(from_flags)])
        assert from_file.read_bytes() == from_flags.read_bytes()  # flag overrode points=7

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("receiver = SQL\nbogus = 1\n")
        result = run_cli("sweep", "--config", str(conf), "--out", str(tmp_path / "x.csv"))
        assert result.returncode != 0

    def test_json_output(self, tmp_path):
        out = tmp_path / "sweep.json"
        main(["sweep", "--receiver", "HELSTROM", "--alpha2-min", "1", "--alpha2-max", "4",
              "--points", "2", "--json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert [set(row) == set(CSV_COLUMNS) for row in payload["rows"]]
        assert payload["metadata"]["receiver"] == "HELSTROM"
        from bpskrx.baselines import helstrom_bound

        assert payload["rows"][0]["p_err"] == helstrom_bound(1.0)


VERSION_LINE = f"# bpskrx {bpskrx.__version__}"
NON_DEFAULT_FLAGS = ["--receiver", "DFFRE", "--alpha2-min", "0.2", "--alpha2-max", "0.8",
                     "--points", "2", "--log", "--n-copies", "2", "--pnr", "3", "--eta", "0.9",
                     "--nu", "0.001", "--xi", "0.99", "--mc-trials", "10000", "--seed", "5"]
# (key, JSON value, CSV text) of each case's metadata, in header order; an
# empty text keeps the line's trailing space ("# seed = ")
NON_DEFAULT_METADATA = [
    ("receiver", "DFFRE", "DFFRE"), ("alpha2_min", "0.2", "0.2"), ("alpha2_max", "0.8", "0.8"),
    ("points", 2, "2"), ("spacing", "log", "log"), ("n_copies", 2, "2"), ("pnr", 3, "3"),
    ("eta", "0.9", "0.9"), ("nu", "0.001", "0.001"), ("xi", "0.99", "0.99"),
    ("mc_trials", 10000, "10000"), ("seed", 5, "5"),
]
DEFAULT_METADATA = [
    ("receiver", "SQL", "SQL"), ("alpha2_min", "0.1", "0.1"), ("alpha2_max", "4.0", "4.0"),
    ("points", 20, "20"), ("spacing", "linear", "linear"), ("n_copies", 1, "1"),
    ("pnr", 2, "2"), ("eta", "1.0", "1.0"), ("nu", "0.0", "0.0"), ("xi", "1.0", "1.0"),
    ("mc_trials", "", ""), ("seed", "", ""),
]
FIGURE_METADATA = [
    ("figure", "4", "4"), ("curve", "hffre_n1", "hffre_n1"), ("receiver", "HFFRE", "HFFRE"),
    ("alpha2_min", "0.01", "0.01"), ("alpha2_max", "10.0", "10.0"), ("points", 2, "2"),
    ("spacing", "log", "log"), ("n_copies", 1, "1"), ("pnr", 2, "2"), ("eta", "1.0", "1.0"),
    ("nu", "0.0", "0.0"), ("xi", "1.0", "1.0"), ("mc_trials", "", ""), ("seed", "", ""),
]


def csv_header(path):
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.startswith("#")]


class TestMetadata:
    """The full ``#`` header and JSON ``metadata`` object, key order included."""

    @staticmethod
    def assert_metadata(csv_path, json_path, expected):
        lines = [f"# {k} = {text}" for k, _, text in expected]
        assert csv_header(csv_path) == [VERSION_LINE] + lines
        payload = json.loads(json_path.read_text())
        assert list(payload["metadata"].items()) == [(k, value) for k, value, _ in expected]

    @pytest.mark.parametrize("flags, expected", [
        (NON_DEFAULT_FLAGS, NON_DEFAULT_METADATA),
        (["--receiver", "SQL"], DEFAULT_METADATA),
    ], ids=["every-setting", "all-defaults"])
    def test_sweep_metadata(self, tmp_path, flags, expected):
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["sweep", *flags, "--out", str(csv_path)]) == 0
        assert main(["sweep", *flags, "--json", "--out", str(json_path)]) == 0
        self.assert_metadata(csv_path, json_path, expected)

    def test_figure_curve_metadata(self, tmp_path):
        assert main(["figure", "4", "--points", "2", "--out", str(tmp_path / "c")]) == 0
        assert main(["figure", "4", "--points", "2", "--json", "--out", str(tmp_path / "j")]) == 0
        self.assert_metadata(tmp_path / "c" / "fig4_hffre_n1.csv",
                             tmp_path / "j" / "fig4_hffre_n1.json", FIGURE_METADATA)


# (config-file lines, the same settings as flags); the base flags the
# case does not set give the rest. Each case sets a value other than the default, except
# "log = false", which must equal leaving the switch off.
PARITY_BASE = {"--receiver": "DFFRE", "--alpha2-min": "0.5", "--alpha2-max": "1", "--points": "2"}
PARITY_CASES = [
    ("receiver = kennedy", ["--receiver", "KENNEDY"]),
    ("alpha2_min = 0.25", ["--alpha2-min", "0.25"]),
    ("alpha2-max = 2", ["--alpha2-max", "2"]),
    ("points = 3", ["--points", "3"]),
    ("log = true", ["--log"]),
    ("log = false", []),
    ("n_copies = 2", ["--n-copies", "2"]),
    ("n-copies = 2", ["--n-copies", "2"]),
    ("pnr = 3", ["--pnr", "3"]),
    ("eta = 0.9", ["--eta", "0.9"]),
    ("nu = 0.001", ["--nu", "0.001"]),
    ("xi = 0.99", ["--xi", "0.99"]),
    ("mc_trials = 10000\nseed = 4", ["--mc-trials", "10000", "--seed", "4"]),
    ("seed = 4", ["--seed", "4"]),
]


class TestConfigFile:
    @pytest.mark.parametrize("lines, flags", PARITY_CASES, ids=[c[0] for c in PARITY_CASES])
    def test_file_equals_flag(self, tmp_path, lines, flags):
        conf = tmp_path / "sweep.conf"
        conf.write_text(lines + "\n")
        base = [arg for flag, value in PARITY_BASE.items() if flag not in flags
                for arg in (flag, value)]
        from_file, from_flags = tmp_path / "f.csv", tmp_path / "g.csv"
        assert main(["sweep", *base, "--config", str(conf), "--out", str(from_file)]) == 0
        assert main(["sweep", *base, *flags, "--out", str(from_flags)]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_flags_override_every_key(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text("receiver = SQL\nalpha2-min = 0.3\nalpha2_max = 3\npoints = 5\n"
                        "log = false\nn_copies = 3\npnr = 4\neta = 0.8\nnu = 0.01\n"
                        "xi = 0.9\nmc-trials = 20000\nseed = 1\n")
        overridden, flags_only = tmp_path / "o.csv", tmp_path / "f.csv"
        assert main(["sweep", "--config", str(conf), *NON_DEFAULT_FLAGS,
                     "--out", str(overridden)]) == 0
        assert main(["sweep", *NON_DEFAULT_FLAGS, "--out", str(flags_only)]) == 0
        assert overridden.read_bytes() == flags_only.read_bytes()

    @pytest.mark.parametrize("text, message", [
        ("receiver = SQL\nbogus_key = 1\nother = 2\n",
         "unknown config keys: ['bogus-key', 'other']"),
        ("points = 3\n", "--receiver is required (flag or config file)"),
        # the missing receiver is reported before a bad value, and bad
        # values in field order
        ("points = abc\n", "--receiver is required (flag or config file)"),
        ("receiver = SQL\neta = zz\npoints = abc\n",
         "invalid literal for int() with base 10: 'abc'"),
    ], ids=["unknown-key", "missing-receiver", "missing-receiver-first", "field-order"])
    def test_diagnostic_is_one_line(self, tmp_path, capsys, text, message):
        conf = tmp_path / "bad.conf"
        conf.write_text(text)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value, spacing", [
        *((v, "log") for v in ("1", "true", "True", "YES", "on", "On")),
        *((v, "linear") for v in ("0", "false", "FALSE", "no", "No", "off")),
    ])
    def test_switch_spellings(self, tmp_path, value, spacing):
        conf = tmp_path / "sweep.conf"
        conf.write_text(f"receiver = SQL\npoints = 3\nlog = {value}\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
        assert f"# spacing = {spacing}" in parse_csv(out)[0]

    @pytest.mark.parametrize("value", ["ture", "2", "y", "enabled", ""])
    def test_switch_typo_rejected(self, tmp_path, capsys, value):
        conf = tmp_path / "sweep.conf"
        conf.write_text(f"receiver = SQL\nlog = {value}\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: log must be one of 1/true/yes/on or 0/false/no/off, got {value!r}\n")
        assert not out.exists()


class TestCopyCount:
    """Every command rejects N < 1 before evaluating, whatever the receiver."""

    MESSAGE = "error: n_copies must be an integer >= 1, got {}\n"

    @pytest.mark.parametrize("receiver", ["SQL", "KENNEDY", "HYNORE", "DISP_OPT", "DFFRE"])
    @pytest.mark.parametrize("n", [0, -2])
    def test_sweep(self, tmp_path, capsys, monkeypatch, receiver, n):
        monkeypatch.setattr("bpskrx.cli.evaluate_point", None)  # nothing may be evaluated
        out = tmp_path / "s.csv"
        args = ["sweep", "--receiver", receiver, "--n-copies", str(n), "--points", "2"]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.MESSAGE.format(n)
        assert not out.exists()

    def test_config_file(self, tmp_path, capsys):
        conf = tmp_path / "sweep.conf"
        conf.write_text("receiver = KENNEDY\nn-copies = 0\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.MESSAGE.format(0)
        assert not out.exists()

    @pytest.mark.parametrize("command, receiver", [
        ("optimize", "HYNORE"), ("optimize", "DISP_OPT"), ("optimize", "DFFRE"),
        ("montecarlo", "DISP_OPT"), ("montecarlo", "DFFRE"),
    ])
    @pytest.mark.parametrize("n", [0, -2])
    def test_single_point(self, capsys, monkeypatch, command, receiver, n):
        monkeypatch.setattr("bpskrx.cli.evaluate_receiver", None)  # nothing may be evaluated
        args = [command, "--receiver", receiver, "--alpha2", "1", "--n-copies", str(n)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == self.MESSAGE.format(n)


class TestMonteCarloFlags:
    """Every command rejects a bad --mc-trials or --seed before evaluating, naming the flag."""

    TRIALS = "error: --mc-trials must be an integer >= 10000, got 5000\n"
    SEED = "error: --seed must be an integer in [0, 18446744073709551615], got -1\n"
    CASES = [pytest.param(["--mc-trials", "5000", "--seed", "1"], TRIALS, id="trials"),
             pytest.param(["--mc-trials", "10000", "--seed", "-1"], SEED, id="seed")]

    @pytest.mark.parametrize("flags, message",
                             CASES + [pytest.param(["--seed", "-1"], SEED, id="seed-alone")])
    def test_sweep(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr("bpskrx.cli.evaluate_point", None)  # nothing may be evaluated
        out = tmp_path / "s.csv"
        assert main(["sweep", "--receiver", "HFFRE", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", CASES)
    def test_montecarlo(self, capsys, monkeypatch, flags, message):
        monkeypatch.setattr("bpskrx.cli.evaluate_receiver", None)  # nothing may be evaluated
        args = ["montecarlo", "--receiver", "HFFRE", "--alpha2", "1", "--n-copies", "10",
                "--nu", "1e-3", *flags]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message

    def test_validate(self, capsys, monkeypatch):
        monkeypatch.setattr(validation, "run_suite", None)  # nothing may be evaluated
        assert main(["validate", "--suite", "full", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == self.SEED


class TestFigure:
    def test_curve_sets(self):
        names = {figure_id: [name for name, _ in figure_curves(figure_id)]
                 for figure_id in ("4", "5a", "5b", "7b", "8a", "9b")}
        assert names["4"] == ["sql", "helstrom", "kennedy", "hynore", "dffre_n1", "hffre_n1"]
        assert len(names["5a"]) == 6  # both receivers, N in {1, 2, 5}
        assert names["5b"] == ["hffre_n1_m1", "hffre_n1_m2", "hffre_n1_m4", "dffre_n1_m2"]
        assert all("eta0.7" in n for n in names["7b"]) and len(names["7b"]) == 8
        assert all("nu1e-3" in n for n in names["8a"])
        assert all("xi0.998" in n for n in names["9b"])

    def test_figure_unknown_id(self):
        result = run_cli("figure", "99")
        assert result.returncode != 0

    def test_figure4_datasets(self, tmp_path):
        out_dir = tmp_path / "fig4"
        code = main(["figure", "4", "--points", "3", "--out", str(out_dir)])
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert files == [
            "fig4_dffre_n1.csv", "fig4_helstrom.csv", "fig4_hffre_n1.csv",
            "fig4_hynore.csv", "fig4_kennedy.csv", "fig4_sql.csv",
        ]
        metadata, header, rows = parse_csv(out_dir / "fig4_kennedy.csv")
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 3
        assert any("figure = 4" in line for line in metadata)
        assert any("alpha2_min = 0.01" in line for line in metadata)
        for row in rows:
            assert float(row[1]) == pytest.approx(math.exp(-4 * float(row[0])) / 2,
                                                  rel=1e-14, abs=0.0)


class TestOptimize:
    def test_degenerate_hffre_report(self):
        result = run_cli("optimize", "--receiver", "HFFRE", "--alpha2", "0", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["p_err"] == 0.5
        assert payload["tau_opt"] == 1.0
        assert payload["per_step_correct"] == [0.5, 0.5]

    def test_dffre_report_bounds(self):
        result = run_cli("optimize", "--receiver", "DFFRE", "--alpha2", "1", "--json")
        payload = json.loads(result.stdout)
        assert 0.0 <= payload["betas"][0] <= 1.0 + 5.0
        assert payload["p_err"] <= math.exp(-4.0) / 2.0
        assert len(payload["per_step_correct"]) == 2

    def test_text_report_contains_fields(self):
        result = run_cli("optimize", "--receiver", "HYNORE", "--alpha2", "1")
        assert result.returncode == 0
        for field in ("p_err", "tau*", "z*", "ratio", "gain"):
            assert field in result.stdout

    def test_hynore_requires_ideal_model(self):
        result = run_cli("optimize", "--receiver", "HYNORE", "--alpha2", "1", "--eta", "0.7")
        assert result.returncode != 0

    def test_model_checked_before_energy(self, capsys):
        assert main(["optimize", "--receiver", "DFFRE", "--alpha2", "-1", "--eta", "2"]) == 2
        assert capsys.readouterr().err == "error: eta must be in (0, 1], got 2.0\n"

    def test_disp_opt_reports_one_copy(self, tmp_path, capsys):
        # DISP_OPT is the single-copy receiver whatever --n-copies says
        assert main(["optimize", "--receiver", "DISP_OPT", "--alpha2", "1", "--n-copies", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_copies"] == 1 and len(payload["betas"]) == 1
        csv_path, json_path = tmp_path / "d.csv", tmp_path / "d.json"
        sweep = ["sweep", "--receiver", "DISP_OPT", "--points", "2", "--n-copies", "2"]
        assert main([*sweep, "--out", str(csv_path)]) == 0
        assert main([*sweep, "--json", "--out", str(json_path)]) == 0
        assert "# n_copies = 1" in csv_header(csv_path)
        assert json.loads(json_path.read_text())["metadata"]["n_copies"] == 1

    def test_hynore_reports_one_copy(self, tmp_path, capsys):
        # HYNORE is a single-copy receiver, like DISP_OPT
        assert main(["optimize", "--receiver", "HYNORE", "--alpha2", "1", "--n-copies", "3",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_copies"] == 1
        csv_path, json_path = tmp_path / "h.csv", tmp_path / "h.json"
        sweep = ["sweep", "--receiver", "HYNORE", "--points", "2", "--n-copies", "3"]
        assert main([*sweep, "--out", str(csv_path)]) == 0
        assert main([*sweep, "--json", "--out", str(json_path)]) == 0
        assert "# n_copies = 1" in csv_header(csv_path)
        assert json.loads(json_path.read_text())["metadata"]["n_copies"] == 1

    def test_closed_stdout_is_not_an_error(self):
        # the reader of stdout has gone before the report is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_cli("optimize", "--receiver", "HYNORE", "--alpha2", "1", "--json",
                             stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert result.returncode == 141
        assert result.stderr == ""

    def test_unwritable_output_file_is_still_an_error(self, tmp_path, capsys):
        # the output path is a directory
        assert main(["sweep", "--receiver", "SQL", "--points", "2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["csv", "json"])
    def test_directory_target_names_it_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                           flags):
        target = tmp_path / "out"
        target.mkdir()

        def no_temporary_file(*args, **kwargs):
            raise AssertionError("a temporary file was created")

        monkeypatch.setattr(tempfile, "mkstemp", no_temporary_file)
        args = ["sweep", "--receiver", "SQL", "--points", "2", "--out", str(target), *flags]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(target)!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(target.iterdir()) == []

    def test_arithmetic_error_is_one_line_diagnostic(self, monkeypatch, capsys):
        def underflowed_bound(p_err, alpha):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(feedforward, "ratio", underflowed_bound)
        assert main(["optimize", "--receiver", "DFFRE", "--alpha2", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: float division by zero\n"


class TestMonteCarlo:
    def test_cross_check_within_four_sigma(self):
        result = run_cli("montecarlo", "--receiver", "DFFRE", "--alpha2", "0.5",
                         "--mc-trials", "50000", "--seed", "3", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["mc_sigmas"] <= 4.0
        assert payload["mc_std_err"] > 0

    def test_unresolvable_point_reports_no_sigma(self):
        # p = 1.03e-9 at alpha^2 = 5: 1e5 trials expect 1e-4 errors and see
        # none, which says nothing about agreement.
        args = ("montecarlo", "--receiver", "DFFRE", "--alpha2", "5",
                "--mc-trials", "100000", "--seed", "0")
        result = run_cli(*args)
        assert result.returncode == 0
        assert "not resolvable (expected errors 0.000103 < 10" in result.stdout
        assert "sigma" not in result.stdout
        payload = json.loads(run_cli(*args, "--json").stdout)
        assert payload["mc_resolvable"] is False
        assert payload["mc_sigmas"] is None
        assert payload["mc_p_hat"] == 0.0

    @pytest.mark.parametrize("alpha2, n", [("15", "2"), ("30", "1"), ("50", "5")])
    def test_high_energy_nulling_runs(self, alpha2, n, capsys):
        # The nulled-copy rate cancels to about -1e-15 at these optima.
        code = main(["montecarlo", "--receiver", "DFFRE", "--alpha2", alpha2, "--n-copies", n,
                     "--mc-trials", "10000", "--seed", "1", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mc_p_hat"] == 0.0

    def test_high_energy_sweep_runs(self, tmp_path):
        out = tmp_path / "bright.csv"
        assert main(["sweep", "--receiver", "DFFRE", "--alpha2-min", "25", "--alpha2-max", "35",
                     "--points", "3", "--mc-trials", "10000", "--seed", "1",
                     "--out", str(out)]) == 0
        assert len(parse_csv(out)[2]) == 3

    def test_resolvable_point_reports_sigma(self):
        result = run_cli("montecarlo", "--receiver", "DFFRE", "--alpha2", "0.5",
                         "--mc-trials", "50000", "--seed", "3")
        assert result.returncode == 0
        assert "sigma (50000 trials, seed 3)" in result.stdout
        assert "not resolvable" not in result.stdout


class TestValidate:
    def test_fast_suite_reports_and_exit_code(self):
        # The fast suite must finish comfortably within its 60 s budget.
        result = run_cli("validate", "--suite", "fast", "--seed", "7")
        assert result.returncode == 0
        assert "11/11 checks passed" in result.stdout
        assert result.stdout.count("[PASS]") == 11
        assert "[FAIL]" not in result.stdout
        assert "dark-count saturation" in result.stdout

    def test_failed_check_sets_exit_code(self, monkeypatch, capsys):
        failed = validation.CheckResult("7 dark-count saturation")
        failed.check("stub", False, "forced")
        monkeypatch.setattr(validation, "run_suite", lambda suite, seed: [failed])
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] 7 dark-count saturation" in out
        assert "0/1 checks passed" in out

    def test_deterministic_output(self):
        a = run_cli("validate", "--suite", "fast", "--seed", "7")
        b = run_cli("validate", "--suite", "fast", "--seed", "7")
        sanitize = lambda text: "\n".join(
            line.split(" (")[0] for line in text.splitlines()
        )  # strip wall-clock timings
        assert sanitize(a.stdout) == sanitize(b.stdout)
        assert a.returncode == b.returncode


# repr literals of cli.evaluate_point rows (values in CSV_COLUMNS order) as
# the per-receiver dispatch chains produced them, at row index 1:
# (receiver, sweep overrides, alpha2, row). The last row pins DISP_OPT's
# single copy under the Monte Carlo oracle while N = 3 is configured.
GOLDEN_BASE = {"alpha2_min": 0.05, "alpha2_max": 6.0, "points": 3, "log": True, "n_copies": 2,
               "pnr": 2, "eta": 1.0, "nu": 0.0, "xi": 1.0, "mc_trials": None, "seed": None}
GOLDEN_ROWS = [
    ("SQL", {}, 0.05,
     "(0.05, 0.3273604230092885, 0.287121368544176, 0.3273604230092885, "
     "1.1401464985665857, 0.0, None, None, None, None, None, None)"),
    ("SQL", {}, 1.0,
     "(1.0, 0.022750131948179198, 0.004600070369588713, 0.022750131948179198, "
     "4.945605201733742, 0.0, None, None, None, None, None, None)"),
    ("SQL", {}, 6.0,
     "(6.0, 4.816785043215479e-07, 9.43783636078685e-12, 4.816785043215479e-07, "
     "51036.96291269342, 0.0, None, None, None, None, None, None)"),
    ("HELSTROM", {}, 0.05,
     "(0.05, 0.287121368544176, 0.287121368544176, 0.3273604230092885, 1.0, "
     "0.12291972894955216, None, None, None, None, None, None)"),
    ("HELSTROM", {}, 1.0,
     "(1.0, 0.004600070369588713, 0.004600070369588713, 0.022750131948179198, 1.0, "
     "0.7978002773756713, None, None, None, None, None, None)"),
    ("HELSTROM", {}, 6.0,
     "(6.0, 9.43783636078685e-12, 9.43783636078685e-12, 4.816785043215479e-07, 1.0, "
     "0.9999804063576097, None, None, None, None, None, None)"),
    ("KENNEDY", {}, 0.05,
     "(0.05, 0.4093653765389909, 0.287121368544176, 0.3273604230092885, "
     "1.4257572629116477, -0.2505035666066926, None, None, None, None, None, None)"),
    ("KENNEDY", {}, 1.0,
     "(1.0, 0.00915781944436709, 0.004600070369588713, 0.022750131948179198, "
     "1.9907998592608223, 0.597460820656909, None, None, None, None, None, None)"),
    ("KENNEDY", {}, 6.0,
     "(6.0, 1.8875672721395556e-11, 9.43783636078685e-12, 4.816785043215479e-07, "
     "1.9999999999811244, 0.9999608127152197, None, None, None, None, None, None)"),
    ("DISP_OPT", {}, 0.05,
     "(0.05, 0.3144444205881926, 0.287121368544176, 0.3273604230092885, "
     "1.0951620291535797, 0.03945499062581992, 1.0, None, 1, '0.7191103000261652', None, "
     "None)"),
    ("DISP_OPT", {}, 1.0,
     "(1.0, 0.008560780393630067, 0.004600070369588713, 0.022750131948179198, "
     "1.8610107467541797, 0.62370414320541, 1.0, None, 1, '1.032669080188172', None, None)"),
    ("DISP_OPT", {}, 6.0,
     "(6.0, 1.8875670061895752e-11, 9.43783636078685e-12, 4.816785043215479e-07, "
     "1.9999997181898639, 0.999960812720741, 1.0, None, 1, '2.449489757163279', None, "
     "None)"),
    ("HYNORE", {}, 0.05,
     "(0.05, 0.3446970250751855, 0.287121368544176, 0.3273604230092885, "
     "1.2005272433150547, -0.05295875997021504, 0.0, 1.3649570777986868, None, None, "
     "None, None)"),
    ("HYNORE", {}, 1.0,
     "(1.0, 0.007700928984886669, 0.004600070369588713, 0.022750131948179198, "
     "1.6740893869358784, 0.6614995903132328, 0.939869384765625, 1.3667541503906253, "
     "None, None, None, None)"),
    ("HYNORE", {}, 6.0,
     "(6.0, 1.587279767272453e-11, 9.43783636078685e-12, 4.816785043215479e-07, "
     "1.6818259043645025, 0.9999670469046671, 0.9899780273437498, 1.366806110291451, "
     "None, None, None, None)"),
    ("DFFRE", {}, 0.05,
     "(0.05, 0.30441676105695, 0.287121368544176, 0.3273604230092885, 1.0602372181508772, "
     "0.07008685332645581, 1.0, None, 1, '0.7130536532213501;0.4125651755964767', None, "
     "None)"),
    ("DFFRE", {}, 1.0,
     "(1.0, 0.007245142086514768, 0.004600070369588713, 0.022750131948179198, "
     "1.5750067943335717, 0.6815340630543186, 1.0, None, 1, "
     "'0.8483009063351009;0.7178608265619081', None, None)"),
    ("DFFRE", {}, 6.0,
     "(6.0, 1.8875166741912872e-11, 9.43783636078685e-12, 4.816785043215479e-07, "
     "1.9999463881718769, 0.9999608137656704, 1.0, None, 1, "
     "'1.7320720960839568;1.7320508277483275', None, None)"),
    ("HFFRE", {}, 0.05,
     "(0.05, 0.30204474776593404, 0.287121368544176, 0.3273604230092885, "
     "1.051975857099824, 0.07733273011635922, 0.9520593261718749, 1.356394616425042, 1, "
     "'0.610647196605258;0.39649484422749737', None, None)"),
    ("HFFRE", {}, 1.0,
     "(1.0, 0.006650187047958846, 0.004600070369588713, 0.022750131948179198, "
     "1.445670721022781, 0.7076857812030803, 0.9642675781250001, 1.3623596191406253, 1, "
     "'0.7904830187991227;0.7039813468585429', None, None)"),
    ("HFFRE", {}, 6.0,
     "(6.0, 1.5872152853392038e-11, 9.43783636078685e-12, 4.816785043215479e-07, "
     "1.681757581572303, 0.9999670482433595, 0.9899658203124999, 1.366806110291451, 1, "
     "'1.7233508466026546;1.7233390518979799', None, None)"),
    ("DISP_OPT", {"nu": 0.001, "pnr": 4}, 1.0,
     "(1.0, 0.009051973975512695, 0.004600070369588713, 0.022750131948179198, "
     "1.9677903267210282, 0.6021133417541709, 1.0, None, 1, '1.032669080188172', None, "
     "None)"),
    ("DISP_OPT", {"nu": 0.001, "pnr": 4}, 6.0,
     "(6.0, 5.053596171114196e-09, 9.43783636078685e-12, 4.816785043215479e-07, "
     "535.4613046811577, 0.9895083626822163, 1.0, None, 3, '2.4768675202491433', None, "
     "None)"),
    ("DISP_OPT", {"eta": 0.7, "n_copies": 3}, 1.0,
     "(1.0, 0.02630366303814758, 0.004600070369588713, 0.022750131948179198, "
     "5.718100142998325, -0.1561982628523959, 1.0, None, 1, '1.0971546331504825', None, "
     "None)"),
    ("DFFRE", {"nu": 0.001, "pnr": 4}, 1.0,
     "(1.0, 0.00824097112087429, 0.004600070369588713, 0.022750131948179198, "
     "1.7914880553470978, 0.6377616121240188, 1.0, None, 1, "
     "'0.8483009063351009;0.717951948349225', None, None)"),
    ("DFFRE", {"nu": 0.001, "pnr": 4}, 6.0,
     "(6.0, 3.400899586992375e-08, 9.43783636078685e-12, 4.816785043215479e-07, "
     "3603.4737804129886, 0.9293948233836468, 1.0, None, 3, "
     "'1.971505515109479;1.7681055958813023', None, None)"),
    ("DFFRE", {"eta": 0.7, "n_copies": 3}, 1.0,
     "(1.0, 0.020481770547177744, 0.004600070369588713, 0.022750131948179198, "
     "4.452490701573549, 0.09970761515442561, 1.0, None, 1, "
     "'0.9167757974250841;0.6493083147843851;0.6023638559234145', None, None)"),
    ("HFFRE", {"nu": 0.001, "pnr": 4}, 1.0,
     "(1.0, 0.007541372493668151, 0.004600070369588713, 0.022750131948179198, "
     "1.6394037238048633, 0.6685130217773649, 0.954432373046875, 1.9436462402343746, 1, "
     "'0.7792526540026642;0.7002892510206251', None, None)"),
    ("HFFRE", {"nu": 0.001, "pnr": 4}, 6.0,
     "(6.0, 3.078199052226415e-08, 9.43783636078685e-12, 4.816785043215479e-07, "
     "3261.551625344964, 0.9360943238153816, 0.990474853515625, 1.9453029804703146, 3, "
     "'1.9397666085319407;1.7586760307563076', None, None)"),
    ("HFFRE", {"eta": 0.7, "n_copies": 3}, 1.0,
     "(1.0, 0.01965768778664245, 0.004600070369588713, 0.022750131948179198, "
     "4.27334501589375, 0.13593082310822602, 0.973743896484375, 1.624603271484375, 1, "
     "'0.823839125576713;0.6351731092825514;0.593334759799981', None, None)"),
    ("DISP_OPT", {"mc_trials": 10000, "seed": 9, "n_copies": 3}, 0.5,
     "(0.5, 0.05436143896080257, 0.03506325248390309, 0.07864960352514253, "
     "1.5503820983452385, 0.30881483791047426, 1.0, None, 1, '0.8483009063351009', "
     "0.0553, 0.0022856489231725856)"),
]

# The same for the click-threshold scan at n_th >= 2 (M = 8 with dark
# counts, reduced visibility, and HFFRE with dark counts at M = 2), where
# the threshold is checked once per recursion and each rate in the kernel.
THRESHOLD_ROWS = [
    ("DFFRE", {"nu": 0.001, "pnr": 8, "n_copies": 10}, 6.0,
     "(6.0, 1.214996206849103e-06, 9.43783636078685e-12, 4.816785043215479e-07, "
     "128736.73164087435, -1.5224214822715516, 1.0, None, 2, "
     "'1.312181450151054;1.0115423678241275;0.9161035302295519;0.8624241364307836;"
     "0.8287336759152955;0.8059512038566123;0.7898890077927893;0.7803475903488847;"
     "0.7765843274503581;0.7753794510244273', None, None)"),
    ("DFFRE", {"nu": 0.001, "pnr": 8, "n_copies": 10}, 20.0,
     "(20.0, 9.981268794531516e-15, 4.512128469613474e-36, 1.8720486921014403e-19, "
     "2.212097652305221e+21, -53316.3567367374, 1.0, None, 5, "
     "'2.2914698179603605;1.9066004379421821;1.745651217423837;1.647576802121392;"
     "1.5825811886121197;1.5371801915202312;1.5044237055993346;1.4796075533553092;"
     "1.4624220203930909;1.4424759701758845', None, None)"),
    ("DFFRE", {"nu": 0.001, "pnr": 8, "n_copies": 50}, 6.0,
     "(6.0, 0.00021266035551733675, 9.43783636078685e-12, 4.816785043215479e-07, "
     "22532744.51768592, -440.49853815227306, 1.0, None, 2, "
     "'1.2410173423435837;0.9040900148421749;0.7985871772383834;0.7337178833030696;"
     "0.6875035474481392;0.6520439263960933;0.623566345002156;0.5999722019434296;"
     "0.5799743753023423;0.562727395142335;0.5476469276766065;0.534312666515374;"
     "0.5224125967906074;0.5117090584641191;0.5020170839844298;0.49318986928717395;"
     "0.4851092444766921;0.47767872862008637;0.4708185300660363;0.4644619772310792;"
     "0.45855281095673606;0.45304321490707444;0.44789228819045945;0.443064620576058;"
     "0.43852938276763737;0.434259744197133;0.43023222052705873;0.4264257347627315;"
     "0.4228221323095668;0.4194046915823925;0.4161588272003435;0.4130712847972877;"
     "0.4101303773147802;0.4073251557348124;0.4046459830603273;0.4020840357097579;"
     "0.3996314372152289;0.3972806842420418;0.39502529848619183;0.3928592286161748;"
     "0.39077686044077986;0.3887728293715629;0.3868430992928647;0.38498289604859043;"
     "0.3831887175741578;0.38145693573262673;0.37978457682652317;0.3781685226923057;"
     "0.37660656743458293;0.37509648362223313', None, None)"),
    ("DFFRE", {"nu": 0.001, "pnr": 8, "n_copies": 50}, 20.0,
     "(20.0, 4.404820353263578e-09, 4.512128469613474e-36, 1.8720486921014403e-19, "
     "9.762178499409861e+26, -23529411236.263344, 1.0, None, 3, "
     "'1.624254463985014;1.2727041464273352;1.1496820006474717;1.069711831707826;"
     "1.0112292338626454;0.9658467321043358;0.9292865095679543;0.8990463860274364;"
     "0.8735325440946441;0.8516687792083556;0.8326953389404862;0.816057198884178;"
     "0.8013383103239614;0.7882183308121751;0.7764467347966194;0.7658239032484058;"
     "0.7561882653945369;0.7474074609045827;0.7393731067468455;0.7319934156440547;"
     "0.7251898256849615;0.718898179614344;0.7130610770214835;0.7076291157059196;"
     "0.7025606654302162;0.6978198830588015;0.6933709000902146;0.6891876075251244;"
     "0.6852411906955804;0.68150875217507;0.6779727464765196;0.6746092216670884;"
     "0.6714057212420467;0.6683444140692854;0.6654139462042357;0.6626007132061263;"
     "0.6598853969520418;0.6572752434908156;0.6547593059964658;0.6523220632308868;"
     "0.6499826551235901;0.6477562411699763;0.6456448229310714;0.6436742664591039;"
     "0.6418730413791868;0.6402717830489444;0.6388709326188763;0.6377056658268198;"
     "0.6367221842535936;0.6359276151524291', None, None)"),
    ("DFFRE", {"xi": 0.998, "n_copies": 10}, 6.0,
     "(6.0, 4.718582558752497e-06, 9.43783636078685e-12, 4.816785043215479e-07, "
     "499964.4387094565, -8.796124419956621, 1.0, None, 2, "
     "'1.3111848507218622;1.0093944366303365;0.9127649283363058;0.857352931165246;"
     "0.821327995629498;0.7964911164379893;0.7819836466329654;0.7762900510909188;"
     "0.7744594192411127;0.7738901562332673', None, None)"),
    ("HFFRE", {"nu": 0.001, "n_copies": 1}, 3.313,
     "(3.313, 9.62207947091719e-06, 4.392074773728386e-07, 0.00013614460070675982, "
     "21.907822536338806, 0.9293245606438549, 0.9813012695312501, 1.3672577300316135, 2, "
     "'1.8291043555206514', None, None)"),
    ("HFFRE", {"nu": 0.001, "n_copies": 2}, 3.313,
     "(3.313, 2.1071049696710006e-05, 4.392074773728386e-07, 0.00013614460070675982, "
     "47.97516158592859, 0.8452303683926865, 0.9882019042968749, 1.3631351942522296, 2, "
     "'1.4644502829589072;1.3056897103129026', None, None)"),
]


# The same for the five curves of the benchmark's (tau, z) search workload
# at its seed-1 energies, with the sweep settings and row indices of that
# workload: (receiver, sweep overrides, row index, alpha2, row). They
# include threshold-2 winners and points where the tau = 1 column nearly
# ties the best grid point.
CURVE_BASE = {"alpha2_min": 0.10568031570970383, "alpha2_max": 3.313455838415151, "points": 2,
              "log": True, "n_copies": 1, "pnr": 2, "eta": 1.0, "nu": 0.0, "xi": 1.0,
              "mc_trials": None, "seed": None}
CURVE_ROWS = [
    ("HYNORE", {}, 0, 0.10568031570970383,
     "(0.10568031570970383, 0.2755088374556652, 0.20642771474502636, "
     "0.25779115044019685, 1.3346504261599073, -0.06872884109952615, 0.431005859375, "
     "1.3667785486376207, None, None, None, None)"),
    ("HYNORE", {}, 1, 3.313455838415151,
     "(3.313455838415151, 7.373245585273553e-07, 4.3840737611556455e-07, "
     "0.00013601223906541243, 1.6818251669492803, 0.9945789837473908, 0.98185302734375, "
     "1.3667887849827633, None, None, None, None)"),
    ("HFFRE", {}, 0, 0.10568031570970383,
     "(0.10568031570970383, 0.23334816067864533, 0.20642771474502636, "
     "0.25779115044019685, 1.1304110059391508, 0.09481702424545357, 0.899774169921875, "
     "1.357857168245309, 1, '0.6299206622761815', None, None)"),
    ("HFFRE", {}, 1, 3.313455838415151,
     "(3.313455838415151, 7.373139906719044e-07, 4.3840737611556455e-07, "
     "0.00013601223906541243, 1.6818010618451542, 0.9945790614452181, 0.98185302734375, "
     "1.3667887849827633, 1, '1.8037020301459536', None, None)"),
    ("HFFRE", {"pnr": 4}, 0, 0.10568031570970383,
     "(0.10568031570970383, 0.2314462688867717, 0.20642771474502636, "
     "0.25779115044019685, 1.121197651064672, 0.10219467002043858, 0.8576843261718751, "
     "1.938900520520425, 1, '0.6014355573215431', None, None)"),
    ("HFFRE", {"pnr": 4}, 1, 3.313455838415151,
     "(3.313455838415151, 7.098116727940084e-07, 4.3840737611556455e-07, "
     "0.00013601223906541243, 1.6190687280017422, 0.9947812661737548, "
     "0.9763952636718749, 1.9477902038925692, 1, '1.7986816517716233', None, None)"),
    ("HFFRE", {"nu": 0.001}, 0, 0.10568031570970383,
     "(0.10568031570970383, 0.23369969404715701, 0.20642771474502636, "
     "0.25779115044019685, 1.1321139428192393, 0.09345338795339542, 0.90107421875, "
     "1.357972530922796, 1, '0.630667297840941', None, None)"),
    ("HFFRE", {"nu": 0.001}, 1, 3.313455838415151,
     "(3.313455838415151, 9.607277349446487e-06, 4.3840737611556455e-07, "
     "0.00013601223906541243, 21.914041306900824, 0.9293646114830442, "
     "0.981307373046875, 1.3672385345006912, 2, '1.8292129425217938', None, None)"),
    ("HFFRE", {"nu": 0.001, "n_copies": 2}, 0, 0.10568031570970383,
     "(0.10568031570970383, 0.2250702640044096, 0.20642771474502636, "
     "0.25779115044019685, 1.090310301998014, 0.1269278886413051, 0.9539074707031251, "
     "1.356972721051244, 1, '0.6212600836019441;0.4136480757475', None, None)"),
    ("HFFRE", {"nu": 0.001, "n_copies": 2}, 1, 3.313455838415151,
     "(3.313455838415151, 2.104158203906907e-05, 4.3840737611556455e-07, "
     "0.00013601223906541243, 47.99550186747426, 0.845296407267073, 0.9882019042968749, "
     "1.3631158305863524, 2, '1.4644975131450488;1.3057584071276906', None, None)"),
]


class TestGoldenRows:
    @pytest.mark.parametrize(
        "receiver, overrides, alpha2, expected", GOLDEN_ROWS,
        ids=[f"{r}-{'-'.join(f'{k}={v}' for k, v in o.items()) or 'ideal'}-{a2}"
             for r, o, a2, _ in GOLDEN_ROWS],
    )
    def test_row_pinned(self, receiver, overrides, alpha2, expected):
        config = SweepConfig(receiver=receiver, **{**GOLDEN_BASE, **overrides})
        row = evaluate_point(config, alpha2, 1)
        assert repr(tuple(row[c] for c in CSV_COLUMNS)) == expected

    @pytest.mark.parametrize(
        "receiver, overrides, alpha2, expected", THRESHOLD_ROWS,
        ids=[f"{r}-{'-'.join(f'{k}={v}' for k, v in o.items())}-{a2}"
             for r, o, a2, _ in THRESHOLD_ROWS],
    )
    def test_threshold_row_pinned(self, receiver, overrides, alpha2, expected):
        self.test_row_pinned(receiver, overrides, alpha2, expected)

    @pytest.mark.parametrize(
        "receiver, overrides, index, alpha2, expected", CURVE_ROWS,
        ids=[f"{r}-{'-'.join(f'{k}={v}' for k, v in o.items()) or 'ideal'}-{a2}"
             for r, o, _, a2, _ in CURVE_ROWS],
    )
    def test_curve_row_pinned(self, receiver, overrides, index, alpha2, expected):
        config = SweepConfig(receiver=receiver, **{**CURVE_BASE, **overrides})
        row = evaluate_point(config, alpha2, index)
        assert repr(tuple(row[c] for c in CSV_COLUMNS)) == expected

    def test_threshold_rows_cover_thresholds_above_one(self):
        n_th = {ast.literal_eval(expected)[CSV_COLUMNS.index("n_th_opt")] for *_, expected in THRESHOLD_ROWS}
        assert n_th == {2, 3, 5}
