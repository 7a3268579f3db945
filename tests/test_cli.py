"""Command-line interface: flags, outputs, exit codes, determinism."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from edcsim.cli import CSV_COLUMNS, main, run_validation_suite

GOLDEN = Path(__file__).parent / "data" / "golden"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header == CSV_COLUMNS
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def bench_path(name: str) -> str:
    return str(resources.files("edcsim") / "benches" / f"{name}.bench")


class TestRun:
    def test_conceptual_midpoint(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--mode", "edc_conceptual",
                               "--phi", "0", "--td-frac", "0.5", "--photons", "100000")
        assert code == 0
        row = csv_rows(out)[0]
        assert row["p1_analytic"] == "0.25"
        assert row["p2_analytic"] == "0.75"
        assert int(row["n1"]) + int(row["n2"]) == 100000

    def test_open_flat(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--mode", "open", "--phi", "1.0")
        assert code == 0
        assert csv_rows(out)[0]["p1_analytic"] == "0.5"

    def test_zero_photons_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--mode", "open", "--photons", "0")
        assert code == 2
        assert "n_photons" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--mode", "open", "--bogus"])
        assert excinfo.value.code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--mode", "closed", "--phi", "3.141592653589793",
                               "--format", "json", "--photons", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == CSV_COLUMNS
        row = payload["rows"][0]
        assert row["p1_analytic"] == pytest.approx(1.0)
        assert row["r_p"] is None  # no particle-path photons in closed mode

    def test_bench_file_run(self, capsys, tmp_path):
        out_file = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "run", "--bench", bench_path("edc_bench"),
                             "--photons", "10000", "--out", str(out_file))
        assert code == 0
        row = csv_rows(out_file.read_text())[0]
        assert row["mode"] == "edc_bench"
        assert row["td_frac"] == "0.2"

    def test_bench_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.bench"
        bad.write_text("element x : prism { }\n")
        code, _, err = run_cli(capsys, "run", "--bench", str(bad))
        assert code == 2
        assert "E_UNKNOWN_KIND" in err

    def test_missing_mode_and_bench(self, capsys):
        code, _, err = run_cli(capsys, "run", "--phi", "0")
        assert code == 2
        assert "--mode or --bench" in err

    def test_wheeler_requires_choice(self, capsys):
        code, _, err = run_cli(capsys, "run", "--mode", "wheeler_delayed")
        assert code == 2
        assert "--choice" in err
        code, out, _ = run_cli(capsys, "run", "--mode", "wheeler_delayed", "--choice", "omit",
                               "--photons", "1000")
        assert code == 0
        assert csv_rows(out)[0]["p1_analytic"] == "0.5"

    def test_golden_row(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--mode", "edc_conceptual",
                               "--phi", "0.7853981633974483", "--td-frac", "0.25",
                               "--photons", "2000", "--seed", "7")
        assert code == 0
        assert out == (GOLDEN / "run_conceptual.csv").read_text()


class TestSweep:
    def test_phase_preset_flat_curve_at_full_pass(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "phase", "--photons", "1000")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 500
        flat = [r for r in rows if r["p_p_analytic"] == "1.0"]
        assert len(flat) == 100
        assert all(r["p1_analytic"] == "0.5" for r in flat)

    def test_delay_preset_linearity_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "delay", "--photons", "1000")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 21
        assert all(r["p_p_analytic"] == r["td_frac"] for r in rows)
        assert all(r["mode"] == "edc_bench" for r in rows)

    def test_delay_preset_r_p_within_5_sigma(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "delay", "--photons", "100000")
        assert code == 0
        for row in csv_rows(out):
            if row["r_p"] == "":
                assert row["td_frac"] == "0.0"  # no transmitted photons at zero delay
                continue
            n_particle = int(row["n3"]) + int(row["n4"])
            sigma = 0.5 / np.sqrt(n_particle)
            assert abs(float(row["r_p"]) - 0.5) < 5 * sigma

    def test_custom_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--var", "phi", "--start", "0", "--stop",
                               "3.141592653589793", "--steps", "5", "--mode", "closed",
                               "--photons", "500")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 5
        assert [r["phi"] for r in rows][0] == "0.0"

    def test_bench_file_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--bench", bench_path("edc_conceptual"),
                               "--photons", "200")
        assert code == 0
        assert len(csv_rows(out)) == 25  # the file's own sweep block

    def test_sweep_without_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--mode", "closed")
        assert code == 2
        assert "sweep needs" in err

    def test_byte_identical_reruns_and_workers(self, capsys, tmp_path):
        paths = [tmp_path / f"out{i}.csv" for i in range(3)]
        base = ["sweep", "--var", "td_frac", "--start", "0", "--stop", "1", "--steps", "6",
                "--mode", "edc_bench", "--photons", "30000", "--seed", "11"]
        assert main(base + ["--out", str(paths[0])]) == 0
        assert main(base + ["--out", str(paths[1])]) == 0
        assert main(base + ["--out", str(paths[2]), "--workers", "5"]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_analytic_columns_independent_of_photons_and_seed(self, capsys):
        base = ["sweep", "--var", "phi", "--start", "0", "--stop", "2", "--steps", "4",
                "--mode", "edc_conceptual", "--td-frac", "0.5"]
        _, out_a, _ = run_cli(capsys, *base, "--photons", "1000", "--seed", "1")
        _, out_b, _ = run_cli(capsys, *base, "--photons", "5000", "--seed", "77")
        cols = ("phi", "td_frac", "p_p_analytic", "p1_analytic", "p2_analytic")
        rows_a, rows_b = csv_rows(out_a), csv_rows(out_b)
        assert [[r[c] for c in cols] for r in rows_a] == [[r[c] for c in cols] for r in rows_b]
        assert any(ra["n1"] != rb["n1"] for ra, rb in zip(rows_a, rows_b))

    def test_seed_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("EDCSIM_SEED", "123")
        code, out, _ = run_cli(capsys, "run", "--mode", "open", "--photons", "100")
        assert code == 0
        assert csv_rows(out)[0]["seed"] == "123"


@pytest.mark.parametrize("argv, env", [
    (["run", "--mode", "open"], {"EDCSIM_SEED": "abc"}),
    (["run", "--mode", "open", "--out", "{tmp}"], {}),
    (["run", "--mode", "open", "--out", "{tmp}/missing/x.csv"], {}),
    (["run", "--bench", "{tmp}"], {}),
    (["run", "--bench", "{tmp}/latin1.bench"], {}),
    (["run", "--mode", "open", "--seed", str(2**64)], {}),
    (["run", "--mode", "open", "--workers", "0"], {}),
    (["validate", "--seed", "-1"], {}),
], ids=["seed_env_not_integer", "out_is_directory", "out_directory_missing",
        "bench_is_directory", "bench_not_utf8", "seed_too_large", "workers_zero",
        "validate_seed_negative"])
def test_invalid_input_exits_2_without_traceback(argv, env, capsys, monkeypatch, tmp_path):
    (tmp_path / "latin1.bench").write_bytes(b"# caf\xe9\n")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("edcsim: error: ") and err.count("\n") == 1


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "edcsim", "run", "--mode", "closed", "--phi", "0",
         "--photons", "1000"],
        capture_output=True, text=True, check=True,
    )
    row = csv_rows(out.stdout)[0]
    assert row["n2"] == "1000"


class TestValidate:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--photons", "20000")
        assert code == 0
        assert "all checks passed" in out

    def test_injected_port_swap_is_detected(self, monkeypatch):
        # classic wiring mistake: the recombiner's outputs exchanged
        from edcsim import experiment, optics

        def swapped(in1, in2, phi):
            out1, out2 = optics.recombine_bs2(in1, in2, phi)
            return out2, out1

        monkeypatch.setattr(experiment, "recombine_bs2", swapped)
        checks = {c.name: c for c in run_validation_suite(seed=3, n_photons=5000)}
        assert checks["oracle_agreement"].passed is False

    def test_oracle_mismatch_exits_1(self, capsys, monkeypatch):
        import edcsim.cli as cli

        monkeypatch.setattr(cli.analytic, "detector_probs",
                            lambda *a, **k: np.array([1.0, 0.0, 0.0, 0.0]))
        code, _, err = run_cli(capsys, "run", "--mode", "open", "--photons", "100")
        assert code == 1
        assert "disagree" in err

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--photons", "20000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"oracle_agreement", "conservation", "unitarity", "determinism"} <= names

    def test_seed_changes_counts_not_verdict(self, capsys):
        checks_a = run_validation_suite(seed=1, n_photons=20000)
        checks_b = run_validation_suite(seed=2, n_photons=20000)
        assert all(c.passed for c in checks_a)
        assert all(c.passed for c in checks_b)
