"""Sampling kernel: reference oracle, chunk boundaries, partition invariance."""

from __future__ import annotations

import numpy as np
import pytest

from edcsim import kernels
from edcsim.kernels import sample_counts

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
CHUNK = kernels._CHUNK


def splitmix64_reference(seed: int, index: int) -> int:
    """Arbitrary-precision reference for the per-photon 64-bit draw."""
    z = (seed + (index + 1) * GAMMA) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def counts_reference(cumprobs, start, stop, seed):
    """Brute-force per-photon loop in pure Python integers."""
    cumprobs = [float(c) for c in cumprobs]
    counts = [0, 0, 0, 0]
    for i in range(start, stop):
        u = (splitmix64_reference(seed, i) >> 11) * 2.0**-53
        k = 0
        while k < 3 and u >= cumprobs[k]:
            k += 1
        counts[k] += 1
    return counts


CUMPROBS = np.array([0.1, 0.4, 0.85, 1.0])


def test_matches_reference():
    got = sample_counts(CUMPROBS, 0, 5000, 12345)
    assert got.tolist() == counts_reference(CUMPROBS, 0, 5000, 12345)


def test_subrange_matches_reference():
    got = sample_counts(CUMPROBS, 1700, 2400, 999)
    assert got.tolist() == counts_reference(CUMPROBS, 1700, 2400, 999)


@pytest.mark.parametrize("seed", [0, 42, 12345, (1 << 64) - 1])
@pytest.mark.parametrize("start, stop", [
    (CHUNK - 1000, CHUNK + 1000),             # crosses the index CHUNK
    (CHUNK // 2, CHUNK // 2 + CHUNK + 1000),  # starts mid-chunk, spans two chunks
], ids=["across_chunk_index", "mid_chunk_two_chunks"])
def test_chunk_boundaries_match_reference(seed, start, stop):
    got = sample_counts(CUMPROBS, start, stop, seed)
    assert got.tolist() == counts_reference(CUMPROBS, start, stop, seed)


def test_partition_invariance():
    whole = sample_counts(CUMPROBS, 0, 30_000, 7)
    pieces = sum(sample_counts(CUMPROBS, a, b, 7)
                 for a, b in [(0, 11), (11, 9_000), (9_000, 29_999), (29_999, 30_000)])
    assert np.array_equal(whole, pieces)


def test_degenerate_distribution():
    sure = np.array([0.0, 1.0, 1.0, 1.0])  # all mass on detector 2
    assert sample_counts(sure, 0, 1000, 3).tolist() == [0, 1000, 0, 0]


def test_float_residue_above_one():
    # a cumulative sum can overshoot 1 before the top bin is pinned to 1.0
    cum = np.array([0.25, 1.0000000000000002, 1.0000000000000002, 1.0])
    got = sample_counts(cum, 0, 4000, 42)
    assert got.tolist() == counts_reference(cum, 0, 4000, 42)
    assert got[2:].tolist() == [0, 0]


def test_large_seed_wraps():
    seed = (1 << 64) - 1
    assert sample_counts(CUMPROBS, 0, 200, seed).tolist() == counts_reference(CUMPROBS, 0, 200, seed)


def test_single_backend_entry():
    assert kernels.available_backends() == {kernels.BACKEND: kernels}
