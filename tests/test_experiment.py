"""Mode wiring: propagated detector norms against the closed forms."""

from __future__ import annotations

import random

import numpy as np
import pytest

from edcsim.errors import ConfigurationError, ConservationError
from edcsim.experiment import DETECTOR_IDS, EDC_MODES, MODES, ExperimentConfig, _arm, run
from edcsim.optics import apply_phase, beam_split, recombine_bs2
from edcsim.wavecore import (
    SubWave,
    inner_product,
    make_rect_pulse,
    norm,
    split_at_time,
    superpose,
    zero_wave,
)

TOL = 1e-12


def cfg_for(mode, phi=0.0, td=0.0, insert=None, samples=1000):
    return ExperimentConfig(mode=mode, phi=phi, td_frac=td, insert_bs2=insert,
                            samples_per_period=samples)


def assert_norms(result, expected):
    got = result.norms_array()
    assert np.max(np.abs(got - np.asarray(expected))) < TOL, (got, expected)


class TestConfigValidation:
    def test_td_frac_only_in_edc_modes(self):
        with pytest.raises(ConfigurationError):
            cfg_for("closed", td=0.3)
        cfg_for("edc_bench", td=0.3)

    def test_wheeler_needs_choice(self):
        with pytest.raises(ConfigurationError):
            cfg_for("wheeler_delayed")
        with pytest.raises(ConfigurationError):
            cfg_for("closed", insert=True)

    def test_basic_ranges(self):
        with pytest.raises(ConfigurationError):
            cfg_for("nonsense")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="open", n_photons=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="open", seed=-1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="open", samples_per_period=999)  # odd
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="edc_bench", td_frac=1.5)

    def test_td_rounding_reported(self):
        cfg = cfg_for("edc_conceptual", td=0.2501)
        assert cfg.td_samples == round(0.2501 * 500)
        assert cfg.effective_td_frac == cfg.td_samples / 500
        assert cfg.td_rounding == pytest.approx(cfg.effective_td_frac - 0.2501, abs=1e-15)
        exact = cfg_for("edc_conceptual", td=0.25)
        assert exact.td_rounding == 0.0


class TestOpen:
    @pytest.mark.parametrize("phi", [0.0, 2.37, np.pi])
    def test_flat_half_half(self, phi):
        assert_norms(run(cfg_for("open", phi)), [0.5, 0.5, 0.0, 0.0])

    def test_conserved(self):
        result = run(cfg_for("open", 1.0))
        assert abs(sum(result.detector_norms().values()) - 1.0) < TOL


class TestClosed:
    def test_phi_zero_bright_port(self):
        assert_norms(run(cfg_for("closed", 0.0)), [0.0, 1.0, 0.0, 0.0])

    def test_phi_pi_dark_port(self):
        assert_norms(run(cfg_for("closed", np.pi)), [1.0, 0.0, 0.0, 0.0])

    def test_phi_half_pi(self):
        assert_norms(run(cfg_for("closed", np.pi / 2)), [0.5, 0.5, 0.0, 0.0])

    def test_fringe_formula(self):
        for phi in np.linspace(0, 2 * np.pi, 20):
            expected = [np.sin(phi / 2) ** 2, np.cos(phi / 2) ** 2, 0.0, 0.0]
            assert_norms(run(cfg_for("closed", phi)), expected)


class TestWheeler:
    def test_insert_matches_closed(self):
        rng = np.random.default_rng(1)
        for phi in rng.uniform(0, 2 * np.pi, size=20):
            w = run(cfg_for("wheeler_delayed", phi, insert=True))
            c = run(cfg_for("closed", phi))
            assert np.max(np.abs(w.norms_array() - c.norms_array())) < TOL

    def test_omit_matches_open(self):
        rng = np.random.default_rng(2)
        for phi in rng.uniform(0, 2 * np.pi, size=20):
            w = run(cfg_for("wheeler_delayed", phi, insert=False))
            o = run(cfg_for("open", phi))
            assert np.max(np.abs(w.norms_array() - o.norms_array())) < TOL


class TestEdcConceptual:
    def test_midpoint_insertion_quarter_three_quarter(self):
        assert_norms(run(cfg_for("edc_conceptual", 0.0, td=0.5)),
                     [0.25, 0.75, 0.0, 0.0])

    def test_closed_form_random_grid_points(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            phi = rng.uniform(0, 2 * np.pi)
            p_p = int(rng.integers(0, 501)) / 500
            result = run(cfg_for("edc_conceptual", phi, td=p_p))
            p1 = np.sin(phi / 2) ** 2 + 0.5 * np.cos(phi) * p_p
            assert_norms(result, [p1, 1.0 - p1, 0.0, 0.0])

    def test_reduces_to_closed_samplewise(self):
        phi = 1.77
        edc = run(cfg_for("edc_conceptual", phi, td=0.0))
        closed = run(cfg_for("closed", phi))
        for det in ("D1", "D2", "D3", "D4"):
            diff = np.abs(edc.detector_waves[det].amps - closed.detector_waves[det].amps)
            assert diff.max() < TOL

    def test_reduces_to_open_samplewise(self):
        phi = 0.61
        edc = run(cfg_for("edc_conceptual", phi, td=1.0))
        opened = run(cfg_for("open", phi))
        for det in ("D1", "D2", "D3", "D4"):
            diff = np.abs(edc.detector_waves[det].amps - opened.detector_waves[det].amps)
            assert diff.max() < TOL


class TestEdcBench:
    def test_dark_output_at_phi_zero(self):
        for td in (0.1, 0.5, 0.9):
            result = run(cfg_for("edc_bench", 0.0, td=td))
            assert result.detector_norms()["D1"] == 0.0

    def test_half_insertion_norms(self):
        # hand-evaluated four-way split at phi=0, td=1/2
        assert_norms(run(cfg_for("edc_bench", 0.0, td=0.5)),
                     [0.0, 0.5, 0.25, 0.25])

    def test_closed_forms_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            phi = rng.uniform(0, 2 * np.pi)
            f = int(rng.integers(0, 501)) / 500
            result = run(cfg_for("edc_bench", phi, td=f))
            expected = [(1 - f) * np.sin(phi / 2) ** 2, (1 - f) * np.cos(phi / 2) ** 2, f / 2, f / 2]
            assert_norms(result, expected)


class TestInvariants:
    def test_total_probability_every_mode(self):
        rng = np.random.default_rng(8)
        configs = [
            cfg_for("open", 1.2), cfg_for("closed", 2.2),
            cfg_for("wheeler_delayed", 0.4, insert=True),
            cfg_for("edc_conceptual", 5.5, td=0.372),
            cfg_for("edc_bench", 3.3, td=0.618),
        ]
        configs += [cfg_for("edc_conceptual", rng.uniform(0, 7), td=int(rng.integers(0, 501)) / 500)
                    for _ in range(20)]
        for cfg in configs:
            total = sum(run(cfg).detector_norms().values())
            assert abs(total - 1.0) < TOL

    def test_arm_split_complement_and_orthogonality(self):
        # per arm: passed + gated norms are each half, supports disjoint
        rng = np.random.default_rng(10)
        for _ in range(50):
            td_samples = int(rng.integers(0, 501))
            cfg = cfg_for("edc_conceptual", rng.uniform(0, 2 * np.pi), td=td_samples / 500)
            front, back = split_at_time(SubWave(cfg.grid(), _arm(cfg)), cfg.td_samples)  # either arm
            assert abs(norm(front) + norm(back) - 0.5) < TOL
            assert inner_product(front, back) == 0

    def test_grid_refinement_stability(self):
        for samples in (500, 1000, 2000, 4000):
            cfg = cfg_for("edc_conceptual", 1.9, td=0.4, samples=samples)
            result = run(cfg)
            p1 = np.sin(1.9 / 2) ** 2 + 0.5 * np.cos(1.9) * 0.4
            assert_norms(result, [p1, 1 - p1, 0.0, 0.0])

    def test_p_p_linear_in_delay(self):
        for k in range(0, 501, 25):
            cfg = cfg_for("edc_bench", 0.3, td=k / 500)
            result = run(cfg)
            norms = result.detector_norms()
            assert abs((norms["D3"] + norms["D4"]) - k / 500) < TOL

    def test_nan_norm_fails_conservation(self, monkeypatch):
        # every comparison with NaN is false, so the check must not be "> tol"
        from edcsim import experiment

        monkeypatch.setattr(experiment, "norm", lambda w, scratch=None: float("nan"))
        with pytest.raises(ConservationError, match="nan"):
            run(cfg_for("open"))


def composed_waves(cfg: ExperimentConfig) -> list[SubWave]:
    """The detector waves composed from the SubWave transforms, one new wave per step."""
    grid = cfg.grid()
    vacuum = zero_wave(grid)
    arm1, arm2 = beam_split(make_rect_pulse(grid, cfg.pulse_samples), vacuum)
    front1, back1 = split_at_time(arm1, cfg.passed_samples)
    front2, back2 = split_at_time(arm2, cfg.passed_samples)
    d1, d2 = recombine_bs2(back1, back2, cfg.phi)
    if cfg.mode == "edc_bench":
        return [d1, d2, front1, front2]
    return [superpose(apply_phase(front1, cfg.phi), d1), superpose(front2, d2), vacuum, vacuum]


def test_run_equals_the_composed_transforms():
    # run writes each detector wave in place; its norms keep every bit of the
    # composition, and its amplitudes its values (a zero may change sign)
    rng = random.Random(26)
    for i in range(200):
        mode = MODES[i % len(MODES)]
        cfg = ExperimentConfig(
            mode=mode,
            phi=rng.uniform(-7.0, 7.0),
            td_frac=rng.choice((0.0, 0.5, 1.0, rng.random())) if mode in EDC_MODES else 0.0,
            period=rng.choice((1e-6, 1.234e-5, 7.3e-9, 0.37)),
            samples_per_period=2 * rng.randint(1, 300),
            insert_bs2=rng.random() < 0.5 if mode == "wheeler_delayed" else None,
        )
        result = run(cfg)
        reference = composed_waves(cfg)
        assert result.norms_array().tobytes() == np.array([norm(w) for w in reference]).tobytes(), cfg
        for d, w in zip(DETECTOR_IDS, reference):
            assert np.array_equal(result.detector_waves[d].amps, w.amps), (cfg, d)
