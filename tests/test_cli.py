"""Command-line surface: schemas, determinism, config handling, subcommands."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpskrx
from bpskrx import feedforward, validation
from bpskrx.cli import CSV_COLUMNS, SweepConfig, evaluate_point, figure_curves, main

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
