"""Command-line interface: flags, outputs, exit codes, determinism."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from edcsim.cli import CSV_COLUMNS, main, run_validation_suite
from edcsim.experiment import MODES

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

    def test_million_samples_conserve_norm(self, capsys):
        # a sequential BLAS dot product summed these norms to 0.999999999998781, failing the 1e-12 check
        code, out, err = run_cli(capsys, "run", "--mode", "closed", "--period", "1.234e-5",
                                 "--samples", "1000000", "--photons", "100")
        assert (code, err) == (0, "")
        assert csv_rows(out)[0]["n2"] == "100"

    # --samples 2 propagates on a one-sample grid; these rows were recorded on the two-sample period grid
    @pytest.mark.parametrize("args, row", [
        ("--mode open --phi 0.4",
         "open,0.4,0.0,1.0,0.5,0.5,5049,4951,0,0,10000,0.5049,0.5049,,1.0,0.0,7"),
        ("--mode closed --phi 1.3",
         "closed,1.3,0.0,0.0,0.3662505856877063,0.6337494143122937,3636,6364,0,0,10000,0.3636,0.3636,,1.0,0.0,7"),
        ("--mode wheeler_delayed --choice omit --phi 2.2",
         "wheeler_delayed,2.2,0.0,1.0,0.5,0.5,5049,4951,0,0,10000,0.5049,0.5049,,1.0,0.0,7"),
        ("--mode wheeler_delayed --choice insert --phi 2.2",
         "wheeler_delayed,2.2,0.0,0.0,0.7942505586276729,0.2057494413723271,"
         "8001,1999,0,0,10000,0.8001,0.8001,,1.0,0.0,7"),
        ("--mode edc_conceptual --phi 0.9 --td-frac 0.3",
         "edc_conceptual,0.9,0.3,0.0,0.1891950158646678,0.8108049841353322,"
         "1852,8148,0,0,10000,0.1852,0.1852,,1.0,0.0,7"),
        ("--mode edc_bench --phi 0.7 --td-frac 0",
         "edc_bench,0.7,0.0,0.0,0.11757890635775578,0.8824210936422442,1146,8854,0,0,10000,0.1146,0.1146,,1.0,0.0,7"),
        ("--mode edc_bench --phi 0.7 --td-frac 1",
         "edc_bench,0.7,1.0,1.0,0.0,0.0,0,0,5049,4951,10000,,0.0,0.5049,0.0,1.0,7"),
    ], ids=["open", "closed", "wheeler_omit", "wheeler_insert", "edc_conceptual", "edc_bench_td0", "edc_bench_td1"])
    def test_two_samples_per_period(self, capsys, args, row):
        code, out, err = run_cli(capsys, "run", *args.split(), "--samples", "2", "--photons", "10000", "--seed", "7")
        assert (code, err) == (0, "")
        assert out == ",".join(CSV_COLUMNS) + "\n" + row + "\n"


# file under tests/data/golden -> argv; "{benches}" is the shipped bench directory
GOLDEN_CASES = {
    "run_open.csv": "run --mode open --phi 1.1 --photons 3000 --seed 5",
    "run_closed.csv": "run --mode closed --phi 2.2 --photons 3000 --seed 6",
    "run_wheeler_insert.csv": "run --mode wheeler_delayed --choice insert --phi 0.9 --photons 3000 --seed 7",
    "run_wheeler_omit.csv": "run --mode wheeler_delayed --choice omit --phi 0.9 --photons 3000 --seed 8",
    "run_edc_conceptual.csv": "run --mode edc_conceptual --phi 4.0 --td-frac 0.6 --photons 3000 --seed 9",
    "run_edc_bench.csv": "run --mode edc_bench --phi 2.5 --td-frac 0.35 --photons 3000 --seed 10",
    # 5-sample pulse: td_frac 0.3333 snaps to 2 samples, 0.4
    "run_edc_conceptual_snapped.csv":
        "run --mode edc_conceptual --samples 10 --td-frac 0.3333 --phi 1.3 --photons 3000 --seed 11",
    "run_edc_bench_snapped.csv":
        "run --mode edc_bench --samples 10 --td-frac 0.3333 --phi 1.3 --photons 3000 --seed 12",
    # td_frac 0 and 1 on the bench layout
    "sweep_delay.csv": "sweep --preset delay --phi 0.4 --photons 2000 --seed 13",
    **{f"bench_{name}.csv": f"run --bench {{benches}}/{name}.bench --photons 3000 --seed 14"
       for name in MODES},  # the shipped benches are named after the modes
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_bytes(name, capsys):
    benches = str(resources.files("edcsim") / "benches")
    code, out, _ = run_cli(capsys, *GOLDEN_CASES[name].format(benches=benches).split())
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


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

    def test_byte_identical_reruns_and_workers(self, capsys, tmp_path, monkeypatch):
        # 5 * 2^19 photons a row, so --workers 5 samples each row on five threads on any host
        from edcsim import kernels, measurement

        ranges = []
        real = kernels.sample_counts
        monkeypatch.setattr(kernels, "sample_counts", lambda cum, lo, hi, seed: ranges.append((lo, hi)) or
                            real(cum, lo, hi, seed))
        monkeypatch.setattr(measurement.os, "cpu_count", lambda: 8)
        paths = [tmp_path / f"out{i}.csv" for i in range(3)]
        base = ["sweep", "--var", "td_frac", "--start", "0", "--stop", "1", "--steps", "6",
                "--mode", "edc_bench", "--photons", str(5 << 19), "--seed", "11"]
        assert main(base + ["--out", str(paths[0])]) == 0
        assert main(base + ["--out", str(paths[1])]) == 0
        assert len(ranges) == 2 * 6
        assert main(base + ["--out", str(paths[2]), "--workers", "5"]) == 0
        assert len(ranges) == 2 * 6 + 5 * 6
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
    # a 16 PB amplitude array: numpy refuses it before touching memory
    (["run", "--mode", "open", "--samples", str(10**15)], {}),
    # beyond numpy's largest array size: rejected by the config, nothing is allocated
    (["run", "--mode", "closed", "--samples", str(10**30)], {}),
    (["run", "--bench", "{tmp}/samples.bench"], {}),
    (["sweep", "--preset", "phase", "--var", "phi"], {}),
    (["sweep", "--preset", "delay", "--start", "0"], {}),
    (["sweep", "--preset", "phase", "--stop", "1"], {}),
    (["sweep", "--preset", "delay", "--steps", "3"], {}),
    (["sweep", "--preset", "phase", "--phi", "1"], {}),
    (["sweep", "--preset", "phase", "--td-frac", "0.5"], {}),
    (["sweep", "--preset", "delay", "--td-frac", "0.5"], {}),
    # dt = 1e-309 lies below the normal doubles: 1/dt, the pulse's sum of |a|^2, overflows
    (["run", "--mode", "closed", "--period", "1e-305", "--samples", "10000"], {}),
], ids=["seed_env_not_integer", "out_is_directory", "out_directory_missing",
        "bench_is_directory", "bench_not_utf8", "seed_too_large", "workers_zero",
        "validate_seed_negative", "samples_beyond_memory", "samples_beyond_index_range",
        "bench_samples_beyond_index_range", "phase_preset_with_var",
        "delay_preset_with_start", "phase_preset_with_stop", "delay_preset_with_steps",
        "phase_preset_with_phi", "phase_preset_with_td_frac", "delay_preset_with_td_frac",
        "dt_below_normal_range"])
def test_invalid_input_exits_2_without_traceback(argv, env, capsys, monkeypatch, tmp_path):
    (tmp_path / "latin1.bench").write_bytes(b"# caf\xe9\n")
    (tmp_path / "samples.bench").write_text(
        Path(bench_path("closed")).read_text(encoding="utf-8").replace("duty = 50%;", "duty = 50%; samples = 1e30;"),
        encoding="utf-8")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("edcsim: error: ") and err.count("\n") == 1


def test_deep_mirror_chain_matches_open_bench(capsys, tmp_path):
    # 1,200 mirrors between the phase shifter and d1 leave the open layout unchanged
    text = Path(bench_path("open")).read_text(encoding="utf-8")
    mirrors = "".join(f"element m{i} : mirror {{ }}\n" for i in range(1200))
    chain = "".join(f"connect m{i}.out -> m{i + 1}.in\n" for i in range(1199))
    text = text.replace("connect ph.out -> d1.in\n",
                        f"connect ph.out -> m0.in\n{chain}connect m1199.out -> d1.in\n") + mirrors
    path = tmp_path / "deep.bench"
    path.write_text(text, encoding="utf-8")
    flags = ("--samples", "10", "--photons", "100")
    code, out, err = run_cli(capsys, "run", "--bench", str(path), *flags)
    assert (code, err) == (0, "")
    assert run_cli(capsys, "run", "--bench", bench_path("open"), *flags) == (0, out, "")


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

    @pytest.mark.parametrize("photons, expected", [(33, 2), (34, 0)])
    def test_fewest_photons_for_a_verdict(self, capsys, photons, expected):
        # D3/D4 of the sampled row expect 0.15 of the photons: 33 give under 5
        # clicks, too few for any chi-square verdict, so the input is refused
        code, out, err = run_cli(capsys, "validate", "--photons", str(photons))
        assert code == expected
        assert ("needs at least 34 photons" in err) == (expected == 2)
        assert "FAIL" not in out and "Traceback" not in err

    def test_injected_port_swap_is_detected(self, monkeypatch):
        # classic wiring mistake: the recombiner's outputs exchanged
        from edcsim import experiment, optics

        def swapped(in1, in2, phi, out1, out2):
            optics._recombine_into(in1, in2, phi, out2, out1)

        monkeypatch.setattr(experiment, "_recombine_into", swapped)
        checks = {c.name: c for c in run_validation_suite(seed=3, n_photons=5000)}
        assert checks["oracle_agreement"].passed is False

    def test_injected_wrong_sign_is_detected(self, capsys, monkeypatch):
        # the arm-2 sign flipped inside the array combiner that run writes D1/D2 with
        from edcsim import experiment, optics

        def wrong_sign(in1, in2, phi, out1, out2):
            optics._recombine_into(in1, -in2, phi, out1, out2)

        monkeypatch.setattr(experiment, "_recombine_into", wrong_sign)
        checks = {c.name: c for c in run_validation_suite(seed=3, n_photons=5000)}
        assert checks["oracle_agreement"].passed is False
        assert main(["validate", "--photons", "5000"]) == 1
        code, _, err = run_cli(capsys, "run", "--mode", "closed", "--photons", "100")
        assert code == 1 and "disagree" in err

    def test_oracle_mismatch_exits_1(self, capsys, monkeypatch):
        import edcsim.cli as cli

        monkeypatch.setattr(cli.analytic, "detector_probs",
                            lambda *a, **k: np.array([1.0, 0.0, 0.0, 0.0]))
        code, _, err = run_cli(capsys, "run", "--mode", "open", "--photons", "100")
        assert code == 1
        assert "disagree" in err

    def test_injected_nan_norm_fails_oracle_agreement(self, capsys, monkeypatch):
        # a running max(worst, nan) keeps worst, so one NaN case could pass unseen
        from edcsim import experiment

        real = experiment.PropagationResult.norms_array
        calls = []

        def first_nan(result):
            calls.append(result)
            return np.full(4, np.nan) if len(calls) == 1 else real(result)

        monkeypatch.setattr(experiment.PropagationResult, "norms_array", first_nan)
        code, out, _ = run_cli(capsys, "validate", "--photons", "2000")
        assert code == 1
        assert "FAIL  oracle_agreement: max |propagated - closed form| = nan" in out
        assert "VALIDATION FAILED" in out

    def test_determinism_splits_the_photon_range(self, monkeypatch):
        # a kernel whose draws depend on where a range starts: every call from
        # sample_clicks starts at 0, so only explicit splits can expose it
        from edcsim import kernels

        real = kernels.sample_counts
        monkeypatch.setattr(kernels, "sample_counts",
                            lambda cum, start, stop, seed: real(cum, start, stop, seed + (start > 0)))
        checks = {c.name: c for c in run_validation_suite(seed=3, n_photons=5000)}
        assert checks["determinism"].passed is False
        assert checks["oracle_agreement"].passed is True

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


def test_error_bases_map_to_exit_codes():
    from edcsim import cli, errors

    for cls in (errors.ConfigurationError, errors.DomainError, errors.TopologyError):
        assert issubclass(cls, errors.InputError) and issubclass(cls, ValueError)
    assert issubclass(errors.ConservationError, errors.ScientificCheckError)
    assert issubclass(errors.ConservationError, ValueError)
    assert cli.OracleMismatchError is errors.OracleMismatchError
    assert issubclass(errors.OracleMismatchError, errors.ScientificCheckError)
    assert issubclass(errors.OracleMismatchError, RuntimeError)


def _sweep_then_runs(capsys, sweep_argv, run_flags_of, base_seed, workers, rows=None):
    """Each sweep row against ``run`` of its config at seed ``(base + i) mod 2**64``."""
    w = ["--workers", str(workers)]
    code, out, err = run_cli(capsys, "sweep", *sweep_argv, "--seed", str(base_seed), *w)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    header, body = lines[0], lines[1:]
    picked = range(len(body)) if rows is None else rows
    for i in picked:
        row = dict(zip(CSV_COLUMNS, body[i].split(",")))
        seed = (base_seed + i) % 2**64
        assert row["seed"] == str(seed)
        code, one, err = run_cli(capsys, "run", *run_flags_of(row), "--phi", row["phi"],
                                 "--td-frac", row["td_frac"], "--seed", str(seed), *w)
        assert (code, err) == (0, "")
        assert one.splitlines() == [header, body[i]]
    return len(body)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_sweep_row_equals_run(capsys, workers):
    flags = ["--photons", "700", "--samples", "40"]

    def by_mode(row):
        return ["--mode", row["mode"], *flags]

    # the 21-row delay preset wraps the 64-bit seed space after row 15
    assert _sweep_then_runs(capsys, ["--preset", "delay", "--phi", "0.9", *flags],
                            by_mode, 2**64 - 16, workers) == 21
    # rows at both ends of the five phase sources
    assert _sweep_then_runs(capsys, ["--preset", "phase", *flags], by_mode, 99, workers,
                            rows=[0, 1, 99, 100, 250, 399, 400, 499]) == 500
    assert _sweep_then_runs(capsys, ["--var", "td_frac", "--start", "0.1", "--stop", "0.9", "--steps", "5",
                                     "--mode", "edc_conceptual", "--phi", "2.0", *flags],
                            by_mode, 7, workers) == 5
    bench = ["--bench", bench_path("edc_conceptual"), *flags]
    assert _sweep_then_runs(capsys, bench, lambda row: bench, 2**63, workers) == 25


def test_threaded_sweep_rows_equal_run(capsys):
    # 2**20 + 1 photons split into two ranges: two sampling threads on a host with 2 or more CPUs
    flags = ["--photons", str(2**20 + 1)]
    assert _sweep_then_runs(capsys, ["--var", "phi", "--start", "0", "--stop", "3", "--steps", "3",
                                     "--mode", "edc_bench", "--td-frac", "0.3", *flags],
                            lambda row: ["--mode", row["mode"], *flags], 42, 2) == 3


class TestRowPathWork:
    """Each row builds, checks and sums each thing once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from edcsim import cli, experiment, wavecore
        from edcsim.experiment import ExperimentConfig
        from edcsim.wavecore import SubWave

        tally = {"norm": 0, "config": 0, "subwave": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                tally[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        norm = counted("norm", wavecore.norm)
        for module in (wavecore, experiment, cli):
            monkeypatch.setattr(module, "norm", norm)
        monkeypatch.setattr(ExperimentConfig, "__post_init__",
                            counted("config", ExperimentConfig.__post_init__))
        monkeypatch.setattr(SubWave, "__post_init__", counted("subwave", SubWave.__post_init__))
        return tally

    @pytest.mark.parametrize("mode", MODES)
    def test_simulate_row(self, counts, mode):
        from edcsim.cli import simulate_row
        from edcsim.experiment import EDC_MODES, ExperimentConfig

        cfg = ExperimentConfig(mode=mode, phi=0.4, td_frac=0.3 if mode in EDC_MODES else 0.0,
                               n_photons=1000, insert_bs2=True if mode == "wheeler_delayed" else None)
        counts.update(norm=0, config=0, subwave=0)
        simulate_row(cfg)
        # three detector norms (D3 and D4 share one wave), and no wave goes through the
        # validating constructor: run writes the source pulse and every detector wave itself
        assert counts == {"norm": 3, "config": 0, "subwave": 0}

    @pytest.mark.parametrize("argv, rows", [
        (["--preset", "delay"], 21),
        (["--var", "phi", "--start", "0", "--stop", "1", "--steps", "4", "--mode", "closed"], 4),
        (["--bench", bench_path("edc_conceptual")], 25),
    ])
    def test_sweep_builds_each_config_once(self, counts, capsys, argv, rows):
        code, out, _ = run_cli(capsys, "sweep", *argv, "--photons", "10")
        assert code == 0 and len(csv_rows(out)) == rows
        assert counts == {"norm": 3 * rows, "config": rows, "subwave": 0}
