"""Sampling kernel: reference oracles, exact thresholds, chunk boundaries, partition invariance."""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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


def counts_searchsorted(cumprobs, start, stop, seed):
    """Vectorised float rule: 53-bit uniforms binned by ``searchsorted``.

    ``cumprobs`` must be sorted.  This is the kernel's earlier body, kept as a
    second oracle that is fast enough for millions of photons.
    """
    cp = np.asarray(cumprobs, dtype=np.float64)
    counts = np.zeros(4, dtype=np.int64)
    for lo in range(start, stop, 1 << 18):
        hi = min(lo + (1 << 18), stop)
        z = np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(GAMMA) + np.uint64(seed)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        counts += np.bincount(np.searchsorted(cp, u, side="right"), minlength=4)
    return counts


CUMPROBS = np.array([0.1, 0.4, 0.85, 1.0])
ULP = 2.0**-53


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


@pytest.mark.parametrize("cum", [
    (3 * ULP, 0.5, 0.75, 1.0),               # exact multiple of 2^-53
    (0.25, 0.5, 1.0 - ULP, 1.0),             # largest threshold that still shifts
    (0.25, 1.0, 1.0, 1.0),                   # threshold reaches 2^53
    (0.25, 1.0000000000000002, 1.0000000000000002, 1.0000000000000002),
    (0.0, 5e-324, 0.5, 1.0),                 # zero and the smallest subnormal
    (0.3, 0.3, 0.8, 1.0),                    # empty interior bin
    (-0.5, 0.3, 0.8, 1.0),                   # below zero: nothing lands there
], ids=["3ulp", "one_minus_ulp", "one", "above_one", "zero_subnormal", "empty_bin", "negative"])
def test_edge_thresholds_match_reference(cum):
    for start, stop in ((0, 3000), (CHUNK - 700, CHUNK + 700)):
        got = sample_counts(np.array(cum), start, stop, 77)
        assert got.tolist() == counts_reference(cum, start, stop, 77)


@pytest.mark.parametrize("cum, distinct", [
    ((0.2, 0.5, 0.8, 1.0), 3),
    ((0.3, 0.6, 0.6, 1.0), 2),
    ((0.3, 1.0 - ULP, 1.0 - ULP, 1.0), 2),  # edc_conceptual with dark D3/D4
    ((0.3, 0.3, 0.3, 1.0), 1),
    ((0.0, 0.0, 0.7, 1.0), 1),
    ((0.4, 1.0, 1.0, 1.0), 1),
])
def test_repeated_threshold_adds_no_pass(monkeypatch, cum, distinct):
    # one compare-and-count pass a chunk for each distinct threshold below 1;
    # a repeated threshold takes the count of the one before
    passes = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def less(self, *args, **kwargs):
            passes.append(args[1])
            return np.less(*args, **kwargs)

    monkeypatch.setattr(kernels, "np", CountingNumpy())
    for stop, chunks in ((3000, 1), (CHUNK + 300, 2)):
        passes.clear()
        got = sample_counts(np.array(cum), 0, stop, 5)
        assert len(passes) == distinct * chunks
        assert got.tolist() == counts_reference(cum, 0, stop, 5)


def test_threshold_on_a_photons_draw():
    # a photon whose u equals a threshold lands above it, and below one that is
    # half a 2^-53 step higher; photons whose low 11 bits are zero sit exactly
    # on the shifted bound
    seed = 2024
    on_bound = [i for i in range(40_000) if splitmix64_reference(seed, i) & 0x7FF == 0]
    assert len(on_bound) >= 5
    for i in on_bound + list(range(0, 40_000, 4001)):
        u = (splitmix64_reference(seed, i) >> 11) * ULP
        start, stop = max(i - 300, 0), i + 300
        for cum, home in (((u - ULP, u, u + ULP, 1.0), 2), ((u, u + ULP / 2, u + ULP, 1.0), 1)):
            got = sample_counts(np.array(cum), start, stop, seed)
            assert got.tolist() == counts_reference(cum, start, stop, seed)
            if u < 0.5:  # u + 2^-54 is exact
                assert got[home] >= 1


def test_empty_range_gives_zeros():
    for start in (0, 5, CHUNK):
        assert sample_counts(CUMPROBS, start, start, 9).tolist() == [0, 0, 0, 0]


def _random_cumprobs(rng: random.Random, draws: list[float]) -> list[float]:
    """Three sorted thresholds: plain, snapped to 2^-53, on a photon's draw, or at 0 or 1."""
    out = []
    for _ in range(3):
        pick = rng.randrange(5)
        if pick == 0:
            out.append(rng.random())
        elif pick == 1:
            out.append(rng.randrange(1 << 53) * ULP)
        elif pick == 2 and draws:
            out.append(rng.choice(draws) + rng.choice((-ULP, 0.0, ULP)))
        else:
            out.append(rng.choice((0.0, 1.0, 1.0 - ULP, 5e-324)))
    return sorted(out) + [1.0]


def test_random_vectors_match_reference():
    rng = random.Random(19_4129)
    for _ in range(300):
        start = rng.choice((rng.randrange(4 * CHUNK), rng.randrange(1, 4) * CHUNK - rng.randrange(150)))
        stop = start + rng.randrange(200)
        seed = rng.randrange(1 << 64)
        draws = [(splitmix64_reference(seed, i) >> 11) * ULP for i in range(start, stop)]
        cum = _random_cumprobs(rng, draws)
        assert sample_counts(np.array(cum), start, stop, seed).tolist() == \
            counts_reference(cum, start, stop, seed), (cum, start, stop, seed)


def test_searchsorted_oracle_matches_reference():
    for cum, start, stop, seed in ((CUMPROBS, 0, 3000, 5), ((0.0, 0.5, 0.5, 1.0), 1000, 2500, (1 << 64) - 1)):
        assert counts_searchsorted(cum, start, stop, seed).tolist() == counts_reference(cum, start, stop, seed)


@pytest.mark.parametrize("seed", [0, 42, 12345, (1 << 64) - 1])
def test_matches_searchsorted_oracle_on_millions(seed):
    for cum in (CUMPROBS, np.array([0.2346, 0.8346, 0.9173, 1.0]), np.array([3 * ULP, 0.5, 0.5, 1.0])):
        assert np.array_equal(sample_counts(cum, 0, 2_000_000, seed),
                              counts_searchsorted(cum, 0, 2_000_000, seed))


@pytest.mark.parametrize("cum", [
    (0.1, float("nan"), 0.85, 1.0),
    (0.1, 0.4, 0.85, float("nan")),
    (0.1, float("inf"), float("inf"), 1.0),
    (float("-inf"), 0.4, 0.85, 1.0),
    (0.4, 0.1, 0.85, 1.0),
    (0.25, 0.75, 1.0),
    (0.1, 0.2, 0.4, 0.85, 1.0),
], ids=["nan", "nan_last", "inf", "minus_inf", "decreasing", "three_values", "five_values"])
def test_bad_cumprobs_raise(cum):
    with pytest.raises(ValueError):
        sample_counts(np.array(cum), 0, 100, 1)


def test_working_memory_bounded_by_chunk(monkeypatch):
    # a call allocates two uint64 chunk buffers (2 MiB at 2^17 photons a chunk),
    # however many photons it samples; no spare pair is left to reuse here
    monkeypatch.setattr(kernels, "_SPARE", [])
    tracemalloc.start()
    try:
        sample_counts(CUMPROBS, 0, 4_000_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_spare_buffers_reused():
    sample_counts(CUMPROBS, 0, 1000, 1)
    spare = list(kernels._SPARE)
    sample_counts(CUMPROBS, 0, 2 * CHUNK + 5, 2)
    assert [id(b) for pair in kernels._SPARE for b in pair] == [id(b) for pair in spare for b in pair]


def test_concurrent_calls_do_not_share_buffers():
    # more threads than cores, switching often: a pair handed to two calls at
    # once would corrupt one of their counts
    ranges = [(k * 7919, k * 7919 + CHUNK + 3 * k) for k in range(32)]
    expected = [sample_counts(CUMPROBS, a, b, 11).tolist() for a, b in ranges]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [f.result(timeout=60) for f in
                   [pool.submit(sample_counts, CUMPROBS, a, b, 11) for a, b in ranges]]
    finally:
        sys.setswitchinterval(interval)
    assert [g.tolist() for g in got] == expected
