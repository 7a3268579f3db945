"""Closed-form oracle module."""

from __future__ import annotations

import numpy as np
import pytest

from edcsim.analytic import detector_probs, predict
from edcsim.errors import DomainError


class TestPredict:
    def test_midpoint_insertion_point(self):
        pred = predict(0.0, 0.5)
        assert pred.p1 == pytest.approx(0.25, abs=1e-15)
        assert pred.p2 == pytest.approx(0.75, abs=1e-15)

    def test_destructive_port_dark_at_phi_zero(self):
        for p_p in (0.0, 0.3, 1.0):
            assert predict(0.0, p_p).r_w == 0.0

    def test_full_wave_phi_pi(self):
        # hand substitution: sin^2(pi/2) = 1, cos term vanishes
        pred = predict(np.pi, 0.0)
        assert pred.p1 == pytest.approx(1.0, abs=1e-15)
        assert pred.p2 == pytest.approx(0.0, abs=1e-15)

    def test_probability_sum_and_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            pred = predict(rng.uniform(-10, 10), rng.uniform(0, 1))
            assert abs(pred.p1 + pred.p2 - 1.0) < 1e-15
            for value in (pred.p1, pred.p2, pred.p_w, pred.p_p, pred.r_w, pred.r_p, *pred.bench_norms):
                assert -1e-15 <= value <= 1.0 + 1e-15
            assert abs(sum(pred.bench_norms) - 1.0) < 1e-15
            assert pred.r_p == 0.5

    def test_limits_reproduce_fringe_and_flat(self):
        phis = np.linspace(0.0, 2 * np.pi, 50)
        for phi in phis:
            assert predict(phi, 0.0).p1 == pytest.approx(np.sin(phi / 2) ** 2, abs=1e-15)
            assert predict(phi, 1.0).p1 == pytest.approx(0.5, abs=1e-15)

    def test_r_w_matches_first_bench_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pred = predict(rng.uniform(0, 2 * np.pi), rng.uniform(0, 1))
            assert pred.r_w == pytest.approx(pred.bench_norms[0], abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            predict(0.0, -0.1)
        with pytest.raises(DomainError):
            predict(0.0, 1.1)
        with pytest.raises(DomainError):
            predict(np.nan, 0.5)


class TestOracleAgreement:
    def test_propagation_matches_closed_forms_200_pairs(self):
        from edcsim.experiment import ExperimentConfig, run

        rng = np.random.default_rng(77)
        for _ in range(200):
            phi = float(rng.uniform(0, 2 * np.pi))
            td = int(rng.integers(0, 501)) / 500  # aligned to the default grid
            norms = run(ExperimentConfig(mode="edc_conceptual", phi=phi, td_frac=td)).norms_array()
            pred = predict(phi, td)
            assert abs(norms[0] - pred.p1) < 1e-12
            assert abs(norms[1] - pred.p2) < 1e-12


class TestDetectorProbs:
    def test_open_flat(self):
        assert detector_probs("open", 2.37).tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_closed_fringe(self):
        probs = detector_probs("closed", np.pi / 2)
        assert probs[0] == pytest.approx(0.5, abs=1e-15)
        assert probs[2] == 0.0 and probs[3] == 0.0

    def test_wheeler_follows_choice(self):
        phi = 1.1
        assert np.array_equal(detector_probs("wheeler_delayed", phi, insert_bs2=True),
                              detector_probs("closed", phi))
        assert np.array_equal(detector_probs("wheeler_delayed", phi, insert_bs2=False),
                              detector_probs("open", phi))
        with pytest.raises(DomainError):
            detector_probs("wheeler_delayed", phi)

    def test_bench_splits_four_ways(self):
        probs = detector_probs("edc_bench", 0.0, 0.5)
        assert probs.tolist() == [0.0, 0.5, 0.25, 0.25]
