"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and
prints a single pass/fail line, so ``pytest -s tests/test_acceptance.py``
doubles as a human-readable report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from edcsim.analytic import predict
from edcsim.benchdsl import format_bench, parse, try_parse
from edcsim.cli import main
from edcsim.experiment import ExperimentConfig, _arm, run
from edcsim.measurement import chi_square_check, estimators, sample_clicks
from edcsim.optics import beam_split, recombine_bs2
from edcsim.wavecore import SubWave, TimeGrid, inner_product, norm, split_at_time

TOL = 1e-12
BENCH_DIR = Path(__file__).parents[1] / "src" / "edcsim" / "benches"
MALFORMED_DIR = Path(__file__).parent / "data" / "malformed"


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    print(f"criterion {number:02d} {label}: PASS")


def conceptual(phi, td, **kw):
    return run(ExperimentConfig(mode="edc_conceptual", phi=phi, td_frac=td, **kw))


def bench(phi, td, **kw):
    return run(ExperimentConfig(mode="edc_bench", phi=phi, td_frac=td, **kw))


def test_c01_fringe_family_closed_form():
    with criterion(1, "fringe family vs closed form (5 curves x 100 phases)"):
        start = time.perf_counter()
        for p_p in (0.0, 0.25, 0.5, 0.75, 1.0):
            for phi in np.linspace(0.0, 2.0 * np.pi, 100):
                norms = conceptual(phi, p_p).detector_norms()
                p1 = np.sin(phi / 2) ** 2 + 0.5 * np.cos(phi) * p_p
                assert abs(norms["D1"] - p1) < TOL
                assert abs(norms["D2"] - (1.0 - p1)) < TOL
                assert norms["D3"] == 0.0 and norms["D4"] == 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c02_midpoint_insertion_point_values():
    with criterion(2, "midpoint insertion gives (1/4, 3/4)"):
        norms = conceptual(0.0, 0.5).detector_norms()
        assert abs(norms["D1"] - 0.25) < TOL
        assert abs(norms["D2"] - 0.75) < TOL


def test_c03_open_closed_limits_samplewise():
    with criterion(3, "delay limits reduce to open/closed samplewise"):
        for phi in (0.0, 0.9, np.pi, 5.1):
            edc = conceptual(phi, 1.0)
            opened = run(ExperimentConfig(mode="open", phi=phi))
            for det in ("D1", "D2", "D3", "D4"):
                diff = np.abs(edc.detector_waves[det].amps - opened.detector_waves[det].amps)
                assert diff.max() < TOL
            edc = conceptual(phi, 0.0)
            closed = run(ExperimentConfig(mode="closed", phi=phi))
            for det in ("D1", "D2", "D3", "D4"):
                diff = np.abs(edc.detector_waves[det].amps - closed.detector_waves[det].amps)
                assert diff.max() < TOL


def test_c04_delay_sweep_linearity():
    with criterion(4, "passed-fraction estimate linear in delay (slope 1, intercept 0)"):
        start = time.perf_counter()
        tds = [k / 20 for k in range(21)]
        hats = []
        for i, td in enumerate(tds):
            result = bench(0.0, td, n_photons=100_000, seed=100 + i)
            hats.append(estimators(sample_clicks(result)).p_p_hat.value)
        slope, intercept = np.polyfit(tds, hats, 1)
        assert abs(slope - 1.0) < 0.02, f"slope {slope}"
        assert abs(intercept) < 0.01, f"intercept {intercept}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_c05_particle_ratio_flat_and_dark_port_empty():
    with criterion(5, "particle ratio flat at 1/2; dark port stays silent at phi=0"):
        for i, td in enumerate(k / 20 for k in range(21)):
            result = bench(0.0, td, n_photons=100_000, seed=300 + i)
            assert predict(0.0, result.config.p_p).r_w == 0.0
            rec = sample_clicks(result)
            assert rec.counts["D1"] == 0  # destructive port: analytically empty
            est = estimators(rec)
            if est.r_p.defined:
                assert abs(est.r_p.value - 0.5) < 5 * est.r_p.stderr or est.r_p.stderr == 0.0
            else:
                assert td == 0.0  # no transmitted photons without a delay


def test_c06_front_back_norms_complement_to_half():
    with criterion(6, "front/back norms complement to 1/2 per arm (200 random configs)"):
        rng = np.random.default_rng(2025)
        for _ in range(200):
            cfg = ExperimentConfig(mode="edc_conceptual", phi=float(rng.uniform(0, 2 * np.pi)),
                                   td_frac=int(rng.integers(0, 501)) / 500)
            front, back = split_at_time(SubWave(cfg.grid(), _arm(cfg)), cfg.td_samples)  # either arm
            assert abs(norm(front) + norm(back) - 0.5) < TOL


def test_c07_front_back_orthogonality():
    with criterion(7, "front and back parts exactly orthogonal (200 random configs)"):
        rng = np.random.default_rng(4050)
        for _ in range(200):
            cfg = ExperimentConfig(mode="edc_conceptual", phi=float(rng.uniform(0, 2 * np.pi)),
                                   td_frac=int(rng.integers(0, 501)) / 500)
            front, back = split_at_time(SubWave(cfg.grid(), _arm(cfg)), cfg.td_samples)  # either arm
            assert inner_product(front, back) == 0


def test_c08_unitarity_of_splitters():
    with criterion(8, "splitter transforms conserve norm (1000 random pairs)"):
        rng = np.random.default_rng(606)
        grid = TimeGrid(200, 1e-9)
        for _ in range(1000):
            a = SubWave(grid, rng.normal(size=200) + 1j * rng.normal(size=200))
            b = SubWave(grid, rng.normal(size=200) + 1j * rng.normal(size=200))
            total = norm(a) + norm(b)
            o1, o2 = beam_split(a, b)
            assert abs(norm(o1) + norm(o2) - total) < TOL * max(1.0, total)
            o1, o2 = recombine_bs2(a, b, float(rng.uniform(0, 2 * np.pi)))
            assert abs(norm(o1) + norm(o2) - total) < TOL * max(1.0, total)


def test_c09_chi_square_self_consistency():
    with criterion(9, "chi-square self-consistency (>= 99 of 100 seeds)"):
        rng = np.random.default_rng(20250809)
        phi = float(rng.uniform(0, 2 * np.pi))
        td = int(rng.integers(1, 500)) / 500
        result = bench(phi, td, n_photons=100_000)
        pred = predict(phi, result.config.p_p)
        passed = 0
        for seed in range(100):
            rec = sample_clicks(result, seed=seed)
            report = chi_square_check(rec, pred)
            passed += report.passed is True
        assert passed >= 99, f"only {passed}/100 seeds passed"


def test_c10_sweep_reproducibility(tmp_path, monkeypatch):
    with criterion(10, "sweep output byte-identical across reruns and worker counts"):
        # 3 * 2^19 photons a row, so --workers 6 samples each of the 21 rows on three
        # threads on any host; the photon ranges are recorded to show that it does
        from edcsim import kernels, measurement

        ranges = []
        real = kernels.sample_counts
        monkeypatch.setattr(kernels, "sample_counts", lambda cum, lo, hi, seed: ranges.append((lo, hi)) or
                            real(cum, lo, hi, seed))
        monkeypatch.setattr(measurement.os, "cpu_count", lambda: 8)
        out = [tmp_path / f"sweep{i}.csv" for i in range(3)]
        base = ["sweep", "--preset", "delay", "--photons", str(3 << 19), "--seed", "4"]
        assert main(base + ["--out", str(out[0])]) == 0
        assert main(base + ["--out", str(out[1])]) == 0
        assert len(ranges) == 2 * 21
        assert main(base + ["--out", str(out[2]), "--workers", "6"]) == 0
        assert len(ranges) == 2 * 21 + 3 * 21
        blobs = [p.read_bytes() for p in out]
        assert blobs[0] == blobs[1] == blobs[2]


def test_c11_parser_roundtrip_and_malformed_corpus():
    with criterion(11, "bench files round-trip; malformed corpus yields positioned errors"):
        bench_files = sorted(BENCH_DIR.glob("*.bench"))
        assert len(bench_files) == 5
        for path in bench_files:
            prog = parse(path.read_text(encoding="utf-8"))
            assert parse(format_bench(prog)) == prog, path.name
        corpus = sorted(MALFORMED_DIR.glob("*.bench"))
        assert len(corpus) >= 10
        for path in corpus:
            text = path.read_text(encoding="utf-8")
            prog, diags = try_parse(text)
            errors = [d for d in diags if d.severity == "error"]
            assert prog is None and errors, path.name
            n_lines = max(1, len(text.splitlines()))
            assert all(1 <= d.line <= n_lines and d.column >= 1 for d in errors), path.name


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-v"])
