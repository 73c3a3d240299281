"""Command-line surface: schemas, determinism, config handling, subcommands."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpskrx
from bpskrx import validation
from bpskrx.cli import CSV_COLUMNS, figure_curves, main

# The subprocess imports the same bpskrx as these tests, installed or not.
PACKAGE_ROOT = str(Path(bpskrx.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "bpskrx.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
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
