"""Experiment wiring: propagate a source photon through one of five modes.

Every mode is the encounter-delayed-choice (EDC) cut.  The input splitter
makes two arm waves; each arm is cut at the instant the output splitter
acts, ``passed_samples`` samples into the pulse.  The front passed before
the splitter was there and does not interfere; the back is recombined by
the output splitter with the arm-1 phase and interferes.

Modes
-----
``open``
    No output splitter: the whole pulse passes (``td = 1``); each arm goes
    straight to a detector.
``closed``
    Both splitters present from the start: nothing passes (``td = 0``) and
    the phase produces interference fringes.
``wheeler_delayed``
    The insert/omit decision for the output splitter is taken after the
    photon passed the input splitter; insert is the closed limit, omit the
    open one.
``edc_conceptual``
    The output splitter appears mid-pulse: the front in each arm exits
    unrecombined toward D1/D2 and the back is recombined, both landing on
    the same two detectors.
``edc_bench``
    Bench realization with gated routers in the arms: the fronts are
    transmitted to dedicated detectors D3/D4, the reflected backs are
    recombined onto D1/D2.

All propagation is by actual samplewise wave transport; the closed forms
in :mod:`edcsim.analytic` are never evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, ConservationError
from .optics import _phase_into, _recombine_into, _split_into
from .wavecore import SubWave, TimeGrid, _adopt, _cut_into, _rect_amps, norm, zero_wave

MODES = ("open", "closed", "wheeler_delayed", "edc_conceptual", "edc_bench")
EDC_MODES = ("edc_conceptual", "edc_bench")
DETECTOR_IDS = ("D1", "D2", "D3", "D4")

_SEED_MAX = 2**64
# the longest complex128 amplitude array whose size in bytes numpy can represent
_DIM_MAX = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize
# the smallest normal double: a coarser dt keeps 1/dt, the pulse's sum of |a|^2, finite
_DT_MIN = float(np.finfo(np.float64).tiny)


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
        if not isinstance(self.samples_per_period, (int, np.integer)) or not 2 <= self.samples_per_period <= _DIM_MAX:
            raise ConfigurationError(
                f"samples_per_period must be an integer from 2 to {_DIM_MAX}, got {self.samples_per_period!r}")
        if self.samples_per_period % 2 != 0:
            raise ConfigurationError("samples_per_period must be even so the half-period pulse is sample-aligned")
        if not self.dt >= _DT_MIN:
            raise ConfigurationError(f"period / samples_per_period must be at least {_DT_MIN!r} s, got {self.dt!r}")
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
    def passed_samples(self) -> int:
        """Pulse samples that pass each arm before the output splitter acts."""
        if self.mode in EDC_MODES:
            return self.td_samples
        if self.mode == "open" or (self.mode == "wheeler_delayed" and not self.insert_bs2):
            return self.pulse_samples
        return 0

    @property
    def p_p(self) -> float:
        """Analytic passed fraction implied by this configuration."""
        return self.passed_samples / self.pulse_samples

    def grid(self) -> TimeGrid:
        return TimeGrid(self.pulse_samples, self.dt)  # the pulse only: the rest of the period is zero in every wave


@dataclass(frozen=True)
class PropagationResult:
    """Per-detector sub-waves after propagation; the norms, summed here once per distinct wave, total 1."""

    mode: str
    detector_waves: Mapping[str, SubWave]
    config: ExperimentConfig
    _norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [d for d in DETECTOR_IDS if d not in self.detector_waves]
        if missing:
            raise ConfigurationError(f"missing detector waves: {missing}")
        waves = [self.detector_waves[d] for d in DETECTOR_IDS]
        scratch = np.empty(2 * max(w.grid.n_samples for w in waves))  # the squares of each norm in turn
        summed = {w: norm(w, scratch) for w in dict.fromkeys(waves)}  # SubWave hashes by identity
        norms = tuple(summed[w] for w in waves)
        object.__setattr__(self, "_norms", norms)
        total = sum(norms)
        if not abs(total - 1.0) <= 1e-12:  # NaN fails too
            raise ConservationError(f"detector norms sum to {total!r}, expected 1")

    def detector_norms(self) -> dict[str, float]:
        return dict(zip(DETECTOR_IDS, self._norms))

    def norms_array(self) -> np.ndarray:
        return np.array(self._norms)


def _arm(cfg: ExperimentConfig) -> np.ndarray:
    """Either arm's wave as a fresh writable array: the pulse through the input splitter, its other port vacuum."""
    arm = _rect_amps(cfg.grid(), cfg.pulse_samples)
    _split_into(arm, None, arm)
    return arm


def run(cfg: ExperimentConfig) -> PropagationResult:
    """Propagate the photon through the EDC cut of the mode selected in ``cfg``.

    Both arms carry the same wave; each is cut ``passed_samples`` samples
    in.  The backs are recombined onto D1/D2 with the arm-1 phase.  On the
    bench the fronts go unphased to D3/D4, which share one wave; in every
    other mode they reach D1/D2 unrecombined (arm 1 still picks up the arm
    phase) ahead of the backs.  Every detector wave is written in place.
    """
    grid, k = cfg.grid(), cfg.passed_samples
    arm = _arm(cfg)
    d1, d2 = np.empty_like(arm), np.empty_like(arm)
    _recombine_into(arm[k:], arm[k:], cfg.phi, d1[k:], d2[k:])
    if cfg.mode == "edc_bench":
        d1[:k] = d2[:k] = 0
        _cut_into(k, front=arm)
        waves = dict.fromkeys(("D3", "D4"), _adopt(grid, arm))
    else:
        _phase_into(arm[:k], cfg.phi, d1[:k])
        d2[:k] = arm[:k]
        waves = dict.fromkeys(("D3", "D4"), zero_wave(grid))
    return PropagationResult(cfg.mode, {"D1": _adopt(grid, d1), "D2": _adopt(grid, d2), **waves}, cfg)
