"""Click sampling, estimators, chi-square verdicts."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from edcsim.analytic import predict
from edcsim.errors import ConfigurationError, ConservationError
from edcsim.experiment import ExperimentConfig, run
from edcsim.measurement import (
    DetectionRecord,
    _chi2_sf,
    _partition_bounds,
    chi_square_check,
    estimators,
    sample_clicks,
)


def propagate(mode="edc_bench", phi=1.234, td=0.3, photons=100_000, seed=42, insert=None):
    cfg = ExperimentConfig(mode=mode, phi=phi, td_frac=td, n_photons=photons,
                           seed=seed, insert_bs2=insert)
    return run(cfg)


def record(counts, probs, seed=0):
    return DetectionRecord(counts=dict(zip(("D1", "D2", "D3", "D4"), counts)),
                           n_photons=sum(counts), probs=probs, seed=seed)


class TestSampleClicks:
    def test_all_clicks_on_bright_port(self):
        result = propagate(mode="closed", phi=0.0, td=0.0, photons=5000)
        rec = sample_clicks(result)
        assert rec.counts == {"D1": 0, "D2": 5000, "D3": 0, "D4": 0}

    @pytest.mark.parametrize("seed", [0, 1, 987654321])
    def test_binomial_concentration(self, seed):
        # 5-sigma band around 1/2 for a fair split at n = 10^6
        result = propagate(mode="open", phi=0.0, td=0.0, photons=1_000_000)
        rec = sample_clicks(result, seed=seed)
        bound = 5 * 0.5 / math.sqrt(1_000_000)
        assert abs(rec.counts["D1"] / 1_000_000 - 0.5) < bound

    def test_reproducible_and_worker_invariant(self):
        result = propagate()
        ref = sample_clicks(result)
        assert sample_clicks(result).counts == ref.counts
        for workers in (2, 3, 8):
            assert sample_clicks(result, workers=workers).counts == ref.counts

    def test_counts_conserved(self):
        rec = sample_clicks(propagate(photons=12345))
        assert sum(rec.counts.values()) == 12345

    def test_convergence_over_many_seeds(self):
        # 5-sigma per-detector convergence at n = 10^4, 1000 seeds
        result = propagate(phi=0.9, td=0.4)
        probs = np.array(sample_clicks(result, n_photons=1).probs)
        n = 10_000
        violations = 0
        for seed in range(1000):
            rec = sample_clicks(result, n_photons=n, seed=seed)
            hats = rec.counts_array() / n
            sigma = np.sqrt(probs * (1 - probs) / n)
            if np.any(np.abs(hats - probs) > 5 * sigma):
                violations += 1
        assert violations == 0

    @pytest.mark.parametrize("n, workers, cpus, parts", [
        (100_000, 100_000, 2, 2),   # capped by the CPU count
        (3, 100_000, 64, 3),        # capped by the photon count
        (10, 4, 64, 4),
        (10, 1, 64, 1),
        (1, 1, 1, 1),
    ])
    def test_partition_bounded_by_cpus_and_photons(self, n, workers, cpus, parts):
        bounds = _partition_bounds(n, workers, cpus)
        assert len(bounds) == parts + 1
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))

    def test_invalid_photons_and_seed(self):
        result = propagate()
        with pytest.raises(ConfigurationError):
            sample_clicks(result, n_photons=0)
        with pytest.raises(ConfigurationError):
            sample_clicks(result, seed=-5)

    def test_conservation_precondition(self):
        with pytest.raises(ConservationError):
            record((10, 0, 0, 0), probs=(0.5, 0.4, 0.0, 0.0))


class TestEstimators:
    def test_bench_case_at_phi_zero(self):
        est = estimators(record((0, 500, 250, 250), probs=(0.0, 0.5, 0.25, 0.25)))
        assert est.r_p.value == 0.5
        assert est.p_p_hat.value == 0.5
        assert est.r_w_total.value == 0.0

    def test_symmetric_counts(self):
        est = estimators(record((250, 250, 250, 250), probs=(0.25, 0.25, 0.25, 0.25)))
        assert est.r_p.value == 0.5
        assert est.p_w_hat.value == 0.5
        assert est.r_w_pair.value == 0.5

    def test_undefined_flagged_not_zero(self):
        est = estimators(record((0, 0, 1000, 0), probs=(0.0, 0.0, 1.0, 0.0)))
        assert not est.r_w_pair.defined
        assert est.r_w_pair.value is None
        assert est.r_p.defined and est.r_p.value == 1.0

    def test_complementary_fractions_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 10**7))
            n_wave = int(rng.integers(0, n + 1))
            n1 = int(rng.integers(0, n_wave + 1))
            n3 = int(rng.integers(0, n - n_wave + 1))
            est = estimators(record((n1, n_wave - n1, n3, n - n_wave - n3),
                                    probs=(0.25, 0.25, 0.25, 0.25)))
            assert est.p_w_hat.value + est.p_p_hat.value == 1.0

    def test_stderr_formula(self):
        est = estimators(record((300, 700, 0, 0), probs=(0.3, 0.7, 0.0, 0.0)))
        assert est.r_w_pair.stderr == pytest.approx(math.sqrt(0.3 * 0.7 / 1000), rel=1e-12)


class TestChiSquare:
    def test_self_consistent_sample_passes(self):
        result = propagate(phi=0.8, td=0.4)
        pred = predict(0.8, 0.4)
        rec = sample_clicks(result, n_photons=100_000, seed=5)
        report = chi_square_check(rec, pred)
        assert report.passed is True
        assert report.p_value > 0.001

    def test_swapped_counts_fail(self):
        # closed at phi = pi/3: p1 = 1/4, p2 = 3/4; swapping pushes the
        # statistic to about n * 4/3, astronomically far in the tail
        result = propagate(mode="closed", phi=np.pi / 3, td=0.0)
        pred = predict(np.pi / 3, 0.0)
        rec = sample_clicks(result, n_photons=100_000, seed=6)
        swapped = record(
            (rec.counts["D2"], rec.counts["D1"], 0, 0),
            probs=rec.probs,
            seed=rec.seed,
        )
        report = chi_square_check(swapped, pred)
        assert report.passed is False
        assert report.statistic > 1e4

    def test_single_live_cell_trivially_passes(self):
        pred = predict(0.0, 0.0)  # closed, phi=0: all mass on D2
        rec = record((0, 1000, 0, 0), probs=(0.0, 1.0, 0.0, 0.0))
        report = chi_square_check(rec, pred)
        assert report.passed is True
        assert report.dof == 0

    def test_click_in_dead_detector_fails(self):
        pred = predict(0.0, 0.0)
        rec = record((3, 997, 0, 0), probs=(0.003, 0.997, 0.0, 0.0))
        report = chi_square_check(rec, pred)
        assert report.passed is False
        assert report.statistic == float("inf")

    def test_insufficient_statistics_abstains(self):
        pred = predict(0.1, 0.5)
        rec = record((0, 7, 1, 1), probs=(0.002, 0.755, 0.1215, 0.1215), seed=1)
        report = chi_square_check(rec, pred)
        assert report.passed is None
        assert "insufficient" in report.note

    def test_record_invariants(self):
        with pytest.raises(ConservationError):
            DetectionRecord(counts={"D1": 1, "D2": 1, "D3": 0, "D4": 0},
                            n_photons=3, probs=(0.5, 0.5, 0.0, 0.0), seed=0)
        with pytest.raises(ConservationError):
            DetectionRecord(counts={"D1": 1, "D2": 1, "D3": 0, "D4": 0},
                            n_photons=2, probs=(0.6, 0.5, 0.0, 0.0), seed=0)


class TestChiSquareTail:
    @pytest.mark.parametrize("x, dof, tail", [
        (3.841458820694124, 1, 0.05),
        (10.827566170662733, 1, 0.001),
        (5.991464547107979, 2, 0.05),
        (7.814727903251178, 3, 0.05),
    ])
    def test_critical_values(self, x, dof, tail):
        assert _chi2_sf(x, dof) == pytest.approx(tail, rel=1e-12)

    def test_matches_scipy_on_grid(self):
        stats = pytest.importorskip("scipy.stats")
        xs = np.concatenate([np.linspace(0.0, 60.0, 1201), [80.0, 120.0, 200.0, 350.0, 500.0]])
        for dof in (1, 2, 3):
            for x in xs:
                assert _chi2_sf(float(x), dof) == pytest.approx(float(stats.chi2.sf(x, dof)),
                                                                rel=1e-13, abs=0.0)

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, edcsim.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"
