"""Click-sampling kernel.

Counter-based scheme, NumPy only:

* photon ``i`` draws the 64-bit value ``z = mix64(seed + (i+1)*GAMMA)``
  where ``mix64`` is the SplitMix64 finalizer, i.e. the ``i``-th output of
  a SplitMix64 stream seeded with ``seed``;
* its top 53 bits ``x = z >> 11`` define the uniform double
  ``u = x * 2**-53`` in ``[0, 1)``;
* the detector index is the first ``k < 3`` with ``u < cumprobs[k]``, and
  3 when there is none.

The decision is made on ``z`` itself, with no float conversion.  For a
finite ``c`` with ``0 < c < 1`` let ``T(c) = ceil(c * 2**53)``; the
product ``c * 2**53`` is an exact float (a power-of-two scaling), and
``T(c) < 2**53``.  Since ``x`` is an integer,

    u < c  <=>  x < c * 2**53  <=>  x < T(c)  <=>  z < T(c) << 11,

the last step because ``z = x * 2**11 + r`` with ``0 <= r < 2**11``.  At
``c >= 1`` the threshold saturates: ``T(c) >= 2**53``, the shifted value
would overflow 64 bits, and every photon lies below ``c``.  At ``c <= 0``
none does.  With ``below[k]`` the number of photons under threshold ``k``,
bin ``k`` holds ``below[k] - below[k-1]`` and the last bin the rest, so
the counts equal the float rule bit for bit.

Because the draw depends only on ``(seed, i)``, counts are independent of
how the index range is partitioned across chunks or workers.
"""

from __future__ import annotations

import math
import sys

import numpy as np

BACKEND = "numpy"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_TWO53 = 2.0**53

_CHUNK = 1 << 17
# _STEP[j] = (j+1)*GAMMA mod 2^64: a chunk's counters are its offset plus this
_STEP = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
# pairs of chunk buffers free for the next call, one per call running at once:
# reusing them spares each call the page faults of fresh megabyte allocations
_SPARE: list[tuple[np.ndarray, np.ndarray]] = []


def available_backends() -> dict:
    """The one kernel, keyed by ``BACKEND``; kept for callers that iterate backends."""
    return {BACKEND: sys.modules[__name__]}


def _threshold(c: float) -> int | None:
    """``z`` bound below which a photon's ``u < c``; None when every photon is."""
    if c >= 1.0:
        return None
    return max(math.ceil(c * _TWO53), 0) << 11


def sample_counts(cumprobs: np.ndarray, start: int, stop: int, seed: int) -> np.ndarray:
    """Counts of photons ``start..stop-1`` landing in each of the four bins.

    ``cumprobs`` is the cumulative probability vector: four finite values,
    the first three non-decreasing.  The top bin takes every photon above
    ``cumprobs[2]``, so the last entry (1.0 for a distribution) only closes
    it.  Anything else raises ``ValueError``.
    """
    cp = np.asarray(cumprobs, dtype=np.float64)
    if cp.shape != (4,):
        raise ValueError(f"cumprobs must hold 4 values, got shape {cp.shape}")
    c = [float(v) for v in cp]
    if not all(math.isfinite(v) for v in c) or not c[0] <= c[1] <= c[2]:
        raise ValueError(f"cumprobs must be finite and non-decreasing, got {c}")
    thresholds = [_threshold(v) for v in c[:3]]
    # one pass per distinct threshold: a repeated one takes the count of the one before
    live = [(k, np.uint64(t)) for k, t in enumerate(thresholds) if t and (k == 0 or t != thresholds[k - 1])]

    n = max(stop - start, 0)
    below = [n if t is None else 0 for t in thresholds]
    if live and n:
        try:
            zbuf, tbuf = _SPARE.pop()
        except IndexError:
            zbuf, tbuf = np.empty(_CHUNK, dtype=np.uint64), np.empty(_CHUNK, dtype=np.uint64)
        try:
            for lo in range(start, stop, _CHUNK):
                m = min(_CHUNK, stop - lo)
                z, t = zbuf[:m], tbuf[:m]
                # counter (lo+j+1)*GAMMA + seed, wrapping mod 2^64; the offset is a
                # Python int because NumPy warns when a uint64 scalar wraps
                np.add(_STEP[:m], np.uint64((int(seed) + lo * _GAMMA) & _MASK), out=z)
                np.bitwise_xor(z, np.right_shift(z, _S30, out=t), out=z)
                np.multiply(z, _MIX1, out=z)
                np.bitwise_xor(z, np.right_shift(z, _S27, out=t), out=z)
                np.multiply(z, _MIX2, out=z)
                np.bitwise_xor(z, np.right_shift(z, _S31, out=t), out=z)
                hits = t.view(np.bool_)[:m]  # the scratch buffer is free again
                for k, thr in live:
                    below[k] += int(np.count_nonzero(np.less(z, thr, out=hits)))
        finally:
            _SPARE.append((zbuf, tbuf))
    for k in (1, 2):
        if thresholds[k] == thresholds[k - 1]:
            below[k] = below[k - 1]
    return np.array([below[0], below[1] - below[0], below[2] - below[1], n - below[2]],
                    dtype=np.int64)
