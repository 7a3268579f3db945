"""Experiment wiring: propagate a source photon through one of five modes.

Modes
-----
``open``
    Input splitter only; each arm goes straight to a detector.
``closed``
    Both splitters present; the phase produces interference fringes.
``wheeler_delayed``
    The insert/omit decision for the output splitter is taken after the
    photon passed the input splitter; outcomes match closed/open.
``edc_conceptual``
    The output splitter appears mid-pulse: the pulse front in each arm
    exits unrecombined toward D1/D2 and the back is recombined, both
    landing on the same two detectors.
``edc_bench``
    Bench realization with gated routers in the arms: transmitted fronts
    go to dedicated detectors D3/D4, reflected backs are recombined onto
    D1/D2.

All propagation is by actual samplewise wave transport; the closed forms
in :mod:`edcsim.analytic` are never evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, ConservationError
from .optics import GateTimeline, apply_phase, beam_split, gated_route, recombine_bs2
from .wavecore import SubWave, TimeGrid, make_rect_pulse, norm, split_at_time, superpose, zero_wave

MODES = ("open", "closed", "wheeler_delayed", "edc_conceptual", "edc_bench")
EDC_MODES = ("edc_conceptual", "edc_bench")
DETECTOR_IDS = ("D1", "D2", "D3", "D4")

_SEED_MAX = 2**64


def check_seed(seed) -> None:
    """Reject anything but an integer in ``[0, 2**64)``, the SplitMix64 seed space."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _SEED_MAX:
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run configuration.

    ``td_frac`` is the insertion delay as a fraction of the pulse length
    (half the signal period), which equals the passed probability for a
    uniform pulse.  It is rounded to the nearest sample boundary; the
    applied value is ``effective_td_frac`` and the rounding is reported by
    ``td_rounding``.
    """

    mode: str
    phi: float = 0.0
    td_frac: float = 0.0
    period: float = 1e-6
    samples_per_period: int = 1000
    n_photons: int = 100_000
    seed: int = 42
    insert_bs2: bool | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not np.isfinite(self.phi):
            raise ConfigurationError(f"phi must be finite, got {self.phi!r}")
        if not (np.isfinite(self.td_frac) and 0.0 <= self.td_frac <= 1.0):
            raise ConfigurationError(f"td_frac must lie in [0, 1], got {self.td_frac!r}")
        if self.mode not in EDC_MODES and self.td_frac != 0.0:
            raise ConfigurationError(f"td_frac is only meaningful in EDC modes, got {self.td_frac!r} for {self.mode!r}")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ConfigurationError(f"period must be positive, got {self.period!r}")
        if not isinstance(self.samples_per_period, (int, np.integer)) or self.samples_per_period < 2:
            raise ConfigurationError(f"samples_per_period must be an integer >= 2, got {self.samples_per_period!r}")
        if self.samples_per_period % 2 != 0:
            raise ConfigurationError("samples_per_period must be even so the half-period pulse is sample-aligned")
        if not isinstance(self.n_photons, (int, np.integer)) or self.n_photons < 1:
            raise ConfigurationError(f"n_photons must be a positive integer, got {self.n_photons!r}")
        check_seed(self.seed)
        if self.mode == "wheeler_delayed":
            if not isinstance(self.insert_bs2, bool):
                raise ConfigurationError("wheeler_delayed requires insert_bs2=True (insert) or False (omit)")
        elif self.insert_bs2 is not None:
            raise ConfigurationError(f"insert_bs2 is only meaningful in wheeler_delayed mode, not {self.mode!r}")

    @property
    def dt(self) -> float:
        return self.period / self.samples_per_period

    @property
    def pulse_samples(self) -> int:
        return self.samples_per_period // 2

    @property
    def pulse_duration(self) -> float:
        return self.pulse_samples * self.dt

    @property
    def td_samples(self) -> int:
        return int(round(self.td_frac * self.pulse_samples))

    @property
    def effective_td_frac(self) -> float:
        """td_frac actually applied after snapping to the sample grid."""
        return self.td_samples / self.pulse_samples

    @property
    def td_rounding(self) -> float:
        """Shift introduced by grid snapping (effective minus requested)."""
        return self.effective_td_frac - self.td_frac

    @property
    def p_p(self) -> float:
        """Analytic passed fraction implied by this configuration."""
        if self.mode in EDC_MODES:
            return self.effective_td_frac
        if self.mode == "open" or (self.mode == "wheeler_delayed" and not self.insert_bs2):
            return 1.0
        return 0.0

    def grid(self) -> TimeGrid:
        return TimeGrid(self.samples_per_period, self.dt, 0.0)


@dataclass(frozen=True)
class PropagationResult:
    """Per-detector sub-waves after propagation; total norm is 1."""

    mode: str
    detector_waves: Mapping[str, SubWave]
    config: ExperimentConfig

    def __post_init__(self):
        missing = [d for d in DETECTOR_IDS if d not in self.detector_waves]
        if missing:
            raise ConfigurationError(f"missing detector waves: {missing}")
        total = sum(self.detector_norms().values())
        if abs(total - 1.0) > 1e-12:
            raise ConservationError(f"detector norms sum to {total!r}, expected 1")

    def detector_norms(self) -> dict[str, float]:
        return {d: norm(self.detector_waves[d]) for d in DETECTOR_IDS}

    def norms_array(self) -> np.ndarray:
        return np.array([norm(self.detector_waves[d]) for d in DETECTOR_IDS])


def _split_source(cfg: ExperimentConfig) -> tuple[SubWave, SubWave]:
    grid = cfg.grid()
    photon = make_rect_pulse(grid, cfg.pulse_duration)
    arm1, arm2 = beam_split(photon, zero_wave(grid))
    return arm1.relabel("arm1"), arm2.relabel("arm2")


def _result(cfg, d1, d2, d3=None, d4=None) -> PropagationResult:
    grid = cfg.grid()
    waves = {
        "D1": d1.relabel("D1"),
        "D2": d2.relabel("D2"),
        "D3": (d3 or zero_wave(grid)).relabel("D3"),
        "D4": (d4 or zero_wave(grid)).relabel("D4"),
    }
    return PropagationResult(cfg.mode, waves, cfg)


def _require_mode(cfg: ExperimentConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ConfigurationError(f"config mode is {cfg.mode!r}, expected {mode!r}")


def run_open(cfg: ExperimentConfig) -> PropagationResult:
    """No output splitter: arm 1 reaches D1, arm 2 reaches D2."""
    _require_mode(cfg, "open")
    arm1, arm2 = _split_source(cfg)
    return _result(cfg, apply_phase(arm1, cfg.phi), arm2)


def run_closed(cfg: ExperimentConfig) -> PropagationResult:
    """Both splitters: detector norms follow the interference fringe."""
    _require_mode(cfg, "closed")
    arm1, arm2 = _split_source(cfg)
    d1, d2 = recombine_bs2(arm1, arm2, cfg.phi)
    return _result(cfg, d1, d2)


def run_wheeler_delayed(cfg: ExperimentConfig) -> PropagationResult:
    """Decide insert/omit only after the photon is inside the interferometer."""
    _require_mode(cfg, "wheeler_delayed")
    arm1, arm2 = _split_source(cfg)
    # the arms exist before the choice is consulted
    if cfg.insert_bs2:
        d1, d2 = recombine_bs2(arm1, arm2, cfg.phi)
        return _result(cfg, d1, d2)
    return _result(cfg, apply_phase(arm1, cfg.phi), arm2)


def run_edc_conceptual(cfg: ExperimentConfig) -> PropagationResult:
    """Insert the output splitter mid-pulse; both parts reach D1/D2.

    Each arm is split at the insertion instant: the front exits before the
    splitter appears and propagates unrecombined (arm 1 still picks up the
    arm phase), while the back is recombined.  The detector waves are the
    samplewise sums of the two contributions.
    """
    _require_mode(cfg, "edc_conceptual")
    arm1, arm2 = _split_source(cfg)
    t_insert = cfg.td_samples * cfg.dt
    front1, back1 = split_at_time(arm1, t_insert)
    front2, back2 = split_at_time(arm2, t_insert)
    passed1 = apply_phase(front1, cfg.phi)
    passed2 = front2
    gated1, gated2 = recombine_bs2(back1, back2, cfg.phi)
    return _result(cfg, superpose(passed1, gated1), superpose(passed2, gated2))


def run_edc_bench(cfg: ExperimentConfig) -> PropagationResult:
    """Bench layout: gated routers transmit the pulse front to D3/D4.

    Both routers share one gate timeline that is high for the first
    ``td_frac`` of the pulse; reflected parts are recombined onto D1/D2
    with the phase applied to the arm-1 reflected path.
    """
    _require_mode(cfg, "edc_bench")
    arm1, arm2 = _split_source(cfg)
    gate = insertion_gate(cfg)
    d3, reflected1 = gated_route(arm1, gate)
    d4, reflected2 = gated_route(arm2, gate)
    d1, d2 = recombine_bs2(reflected1, reflected2, cfg.phi)
    return _result(cfg, d1, d2, d3, d4)


def insertion_gate(cfg: ExperimentConfig) -> GateTimeline:
    """Gate timeline that transmits the first ``td_frac`` of each pulse."""
    if cfg.td_samples == 0:
        return GateTimeline(cfg.period, ())
    return GateTimeline(cfg.period, ((0.0, cfg.td_samples * cfg.dt),))


_RUNNERS = {
    "open": run_open,
    "closed": run_closed,
    "wheeler_delayed": run_wheeler_delayed,
    "edc_conceptual": run_edc_conceptual,
    "edc_bench": run_edc_bench,
}


def run(cfg: ExperimentConfig) -> PropagationResult:
    """Propagate the photon for the mode selected in ``cfg``."""
    return _RUNNERS[cfg.mode](cfg)
