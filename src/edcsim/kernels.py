"""Click-sampling kernel.

Counter-based scheme, NumPy only:

* photon ``i`` draws the 64-bit value ``mix64(seed + (i+1)*GAMMA)`` where
  ``mix64`` is the SplitMix64 finalizer, i.e. the ``i``-th output of a
  SplitMix64 stream seeded with ``seed``;
* the top 53 bits become a uniform double ``u`` in ``[0, 1)``;
* the detector index is the first ``k`` with ``u < cumprobs[k]``.

Because the draw depends only on ``(seed, i)``, counts are independent of
how the index range is partitioned across chunks or workers.
"""

from __future__ import annotations

import sys

import numpy as np

BACKEND = "numpy"

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TO_UNIT = 2.0**-53

_CHUNK = 1 << 18


def available_backends() -> dict:
    """The one kernel, keyed by ``BACKEND``; kept for callers that iterate backends."""
    return {BACKEND: sys.modules[__name__]}


def sample_counts(cumprobs: np.ndarray, start: int, stop: int, seed: int) -> np.ndarray:
    """Counts of photons ``start..stop-1`` landing in each of the four bins.

    ``cumprobs`` is the cumulative probability vector with
    ``cumprobs[-1] == 1.0`` exactly.
    """
    cp = np.ascontiguousarray(cumprobs, dtype=np.float64)
    seed_u = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    counts = np.zeros(4, dtype=np.int64)
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        # counter value (i + 1) * GAMMA + seed, wrapping mod 2^64
        z = np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GAMMA + seed_u
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
        z ^= z >> _S31
        u = (z >> _S11).astype(np.float64) * _TO_UNIT
        bins = np.searchsorted(cp, u, side="right")
        counts += np.bincount(bins, minlength=4)
    return counts
