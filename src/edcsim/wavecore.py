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


def make_rect_pulse(grid: TimeGrid, n_pulse: int) -> SubWave:
    """Unit-norm rectangular pulse over the first ``n_pulse`` samples (``n_pulse * dt`` seconds), zero after."""
    return SubWave(grid, _rect_amps(grid, n_pulse))


def _rect_amps(grid: TimeGrid, n_pulse: int) -> np.ndarray:
    """The amplitudes of :func:`make_rect_pulse` as a fresh writable array."""
    if not isinstance(n_pulse, (int, np.integer)) or not 1 <= n_pulse <= grid.n_samples:
        raise ConfigurationError(f"pulse must cover 1 to {grid.n_samples} samples, got {n_pulse!r}")
    amps = np.zeros(grid.n_samples, dtype=np.complex128)
    amps[:n_pulse] = np.sqrt(1.0 / (n_pulse * grid.dt))
    return amps


def norm(w: SubWave, scratch: np.ndarray | None = None) -> float:
    """Probability carried by ``w``: ``sum(|a_i|^2) * dt``, a pairwise float64 sum with no BLAS call.

    A float64 ``scratch`` of at least two values per sample holds the squares; the bits are the same.
    """
    x = w.amps.view(np.float64)
    return float(np.sum(np.square(x, out=None if scratch is None else scratch[:x.size])) * w.grid.dt)


def inner_product(a: SubWave, b: SubWave) -> complex:
    """Discrete inner product ``sum(conj(a_i) * b_i) * dt`` on a shared grid, summed like :func:`norm`."""
    _require_same_grid(a, b)
    x, y = a.amps.view(np.float64), b.amps.view(np.float64)
    return complex(np.sum(x * y) * a.grid.dt, np.sum(x[::2] * y[1::2] - x[1::2] * y[::2]) * a.grid.dt)


def split_at_time(w: SubWave, k: int) -> tuple[SubWave, SubWave]:
    """Split ``w`` into (front, back) at the cut time ``k * dt``, ``k`` a sample index from 0 to ``n_samples``.

    The front holds the samples before ``k``, the back those from ``k`` on:
    disjoint supports that sum to ``w`` samplewise.
    """
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= w.grid.n_samples:
        raise ConfigurationError(f"cut index must be an integer from 0 to {w.grid.n_samples}, got {k!r}")
    front, back = w.amps.copy(), w.amps.copy()
    _cut_into(k, front, back)
    return _adopt(w.grid, front), _adopt(w.grid, back)


def _cut_into(k: int, front=None, back=None) -> None:
    """Time cut in place at sample ``k``: zero ``front`` from ``k`` on and ``back`` before ``k``."""
    if front is not None:
        front[k:] = 0
    if back is not None:
        back[:k] = 0


def superpose(a: SubWave, b: SubWave) -> SubWave:
    """Samplewise sum of two sub-waves on the same grid."""
    _require_same_grid(a, b)
    return _adopt(a.grid, a.amps + b.amps)


def _require_same_grid(a: SubWave, b: SubWave) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
