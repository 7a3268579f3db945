"""Complex wave-packet segments on a shared discrete time grid.

A photon's state is carried by one or more :class:`SubWave` values, each a
complex amplitude sampled on a :class:`TimeGrid`.  Sub-waves are not
individually normalized; probabilities are their norms under the integral
convention ``sum(|a_i|^2) * dt``, which makes every quantity independent of
the grid resolution for rectangular pulses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError

# Sample-alignment tolerance for times given in seconds, relative to dt.
_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: ``n_samples`` points spaced ``dt`` seconds from ``t = 0``."""

    n_samples: int
    dt: float

    def __post_init__(self):
        if not isinstance(self.n_samples, (int, np.integer)) or self.n_samples < 1:
            raise ConfigurationError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt!r}")

    @property
    def span(self) -> float:
        return self.n_samples * self.dt

    def index_at(self, t: float) -> int:
        """Sample index of a boundary time ``t``.

        ``t`` must lie on a sample boundary (within tolerance) between 0 and
        the end of the grid; the end boundary ``span`` maps to ``n_samples``.
        """
        k = t / self.dt
        ki = int(round(k))
        if abs(k - ki) > _ALIGN_TOL * max(1.0, abs(k)):
            raise ConfigurationError(
                f"time {t!r} s is not aligned to a sample boundary (dt={self.dt!r} s)"
            )
        if not 0 <= ki <= self.n_samples:
            raise ConfigurationError(
                f"time {t!r} s lies outside the grid [0, {self.span!r}]"
            )
        return ki


@dataclass(frozen=True, eq=False)
class SubWave:
    """One path's complex amplitude samples on a grid."""

    grid: TimeGrid
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128, copy=True)
        if amps.shape != (self.grid.n_samples,):
            raise ConfigurationError(
                f"amplitude array has shape {amps.shape}, grid expects ({self.grid.n_samples},)"
            )
        if not np.all(np.isfinite(amps)):
            raise ConfigurationError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def __repr__(self):
        return f"SubWave(n={self.grid.n_samples}, norm={norm(self):.6g})"


def _adopt(grid: TimeGrid, amps: np.ndarray) -> SubWave:
    """Adopt a fresh complex128 array, uncopied and unchecked: transforms of finite waves stay finite."""
    amps.setflags(write=False)
    w = object.__new__(SubWave)
    object.__setattr__(w, "grid", grid)
    object.__setattr__(w, "amps", amps)
    return w


def zero_wave(grid: TimeGrid) -> SubWave:
    """All-zero sub-wave (vacuum port)."""
    return _adopt(grid, np.zeros(grid.n_samples, dtype=np.complex128))


def make_rect_pulse(grid: TimeGrid, duration: float) -> SubWave:
    """Unit-norm rectangular pulse starting at ``t = 0``.

    The amplitude is constant over ``[0, duration)`` and zero
    elsewhere; ``duration`` must be positive, sample-aligned and within the
    grid span.
    """
    if not (np.isfinite(duration) and duration > 0):
        raise ConfigurationError(f"pulse duration must be positive, got {duration!r}")
    n_pulse = grid.index_at(duration)
    if n_pulse == 0:
        raise ConfigurationError("pulse duration must cover at least one sample")
    amps = np.zeros(grid.n_samples, dtype=np.complex128)
    amps[:n_pulse] = np.sqrt(1.0 / (n_pulse * grid.dt))
    return SubWave(grid, amps)


def norm(w: SubWave) -> float:
    """Probability carried by ``w``: ``sum(|a_i|^2) * dt``, a pairwise float64 sum with no BLAS call."""
    return float(np.sum(np.square(w.amps.view(np.float64))) * w.grid.dt)


def inner_product(a: SubWave, b: SubWave) -> complex:
    """Discrete inner product ``sum(conj(a_i) * b_i) * dt`` on a shared grid, summed like :func:`norm`."""
    _require_same_grid(a, b)
    x, y = a.amps.view(np.float64), b.amps.view(np.float64)
    return complex(np.sum(x * y) * a.grid.dt, np.sum(x[::2] * y[1::2] - x[1::2] * y[::2]) * a.grid.dt)


def split_at_time(w: SubWave, t_cut: float) -> tuple[SubWave, SubWave]:
    """Split ``w`` into (front, back) at a sample-aligned cut time.

    The front part holds the samples strictly before ``t_cut``, the back
    part the samples at and after it, so the two have disjoint supports and
    sum to ``w`` samplewise.
    """
    k = w.grid.index_at(t_cut)
    front = w.amps.copy()
    front[k:] = 0
    back = w.amps.copy()
    back[:k] = 0
    return _adopt(w.grid, front), _adopt(w.grid, back)


def superpose(a: SubWave, b: SubWave) -> SubWave:
    """Samplewise sum of two sub-waves on the same grid."""
    _require_same_grid(a, b)
    return _adopt(a.grid, a.amps + b.amps)


def _require_same_grid(a: SubWave, b: SubWave) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
