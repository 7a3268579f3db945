"""Wave-segment primitives: norms, inner products, splitting."""

from __future__ import annotations

import numpy as np
import pytest

from edcsim.errors import ConfigurationError, GridMismatchError
from edcsim.wavecore import (
    SubWave,
    TimeGrid,
    inner_product,
    make_rect_pulse,
    norm,
    split_at_time,
    superpose,
    zero_wave,
)

TOL = 1e-12


def grid1000():
    return TimeGrid(1000, 1e-9)


def random_wave(grid, rng):
    return SubWave(grid, rng.normal(size=grid.n_samples) + 1j * rng.normal(size=grid.n_samples))


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(0, 1e-9)
        with pytest.raises(ConfigurationError):
            TimeGrid(100, 0.0)
        with pytest.raises(ConfigurationError):
            TimeGrid(100, -1e-9)


class TestRectPulse:
    def test_unit_norm_and_flat_top(self):
        g = grid1000()
        w = make_rect_pulse(g, 500)
        assert abs(norm(w) - 1.0) < TOL
        # 500 nonzero samples, each |a|^2 = 1/(500 * 1ns)
        nonzero = np.flatnonzero(np.abs(w.amps))
        assert nonzero.tolist() == list(range(500))
        assert np.allclose(np.abs(w.amps[:500]) ** 2, 1.0 / (500 * 1e-9), rtol=1e-14)

    def test_full_span_pulse(self):
        g = grid1000()
        w = make_rect_pulse(g, 1000)
        assert np.all(np.abs(w.amps) > 0)
        assert abs(norm(w) - 1.0) < TOL

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            make_rect_pulse(grid1000(), 0)

    def test_over_span_and_unaligned_rejected(self):
        g = grid1000()
        with pytest.raises(ConfigurationError):
            make_rect_pulse(g, 1001)
        with pytest.raises(ConfigurationError):
            make_rect_pulse(g, 500.5)


class TestNormInner:
    def test_norm_examples(self):
        g = grid1000()
        w = make_rect_pulse(g, 500)
        assert abs(norm(w) - 1.0) < TOL
        assert norm(zero_wave(g)) == 0.0
        half = SubWave(g, w.amps / np.sqrt(2))
        assert abs(norm(half) - 0.5) < TOL

    def test_inner_product_is_norm_on_diagonal(self):
        rng = np.random.default_rng(7)
        w = random_wave(grid1000(), rng)
        ip = inner_product(w, w)
        assert abs(ip.imag) < TOL
        assert abs(ip.real - norm(w)) < TOL

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        g = grid1000()
        for _ in range(25):
            a, b = random_wave(g, rng), random_wave(g, rng)
            assert inner_product(a, b) == np.conj(inner_product(b, a))

    def test_zero_wave_orthogonal_to_anything(self):
        g = grid1000()
        w = make_rect_pulse(g, 500)
        assert inner_product(zero_wave(g), w) == 0

    def test_grid_mismatch_rejected(self):
        a = zero_wave(TimeGrid(100, 1e-9))
        b = zero_wave(TimeGrid(100, 2e-9))
        with pytest.raises(GridMismatchError):
            inner_product(a, b)


class TestSplit:
    def test_midpoint_split_halves_norm(self):
        g = grid1000()
        w = make_rect_pulse(g, 500)
        front, back = split_at_time(w, 250)
        assert abs(norm(front) - 0.5) < TOL
        assert abs(norm(back) - 0.5) < TOL

    def test_cut_before_and_after_support(self):
        g = grid1000()
        w = make_rect_pulse(g, 500)
        front, back = split_at_time(w, 0)
        assert norm(front) == 0.0
        assert np.array_equal(back.amps, w.amps)
        front, back = split_at_time(w, 800)
        assert np.array_equal(front.amps, w.amps)
        assert norm(back) == 0.0

    def test_unaligned_cut_rejected(self):
        w = make_rect_pulse(grid1000(), 500)
        with pytest.raises(ConfigurationError):
            split_at_time(w, 250.3)

    def test_cut_index_boundaries(self):
        # the grid start, the pulse end and the grid end are all addressable
        w = make_rect_pulse(grid1000(), 500)
        front, back = split_at_time(w, 0)
        assert norm(front) == 0.0 and np.array_equal(back.amps, w.amps)
        for k in (500, 1000):  # 1000: end boundary
            front, back = split_at_time(w, k)
            assert np.array_equal(front.amps, w.amps) and norm(back) == 0.0

    def test_cut_index_rejects_unaligned_and_outside(self):
        w = make_rect_pulse(grid1000(), 500)
        for k in (0.5, -1, 1001):
            with pytest.raises(ConfigurationError):
                split_at_time(w, k)

    def test_split_properties_random(self):
        # additivity, exact orthogonality, norm additivity
        rng = np.random.default_rng(42)
        g = grid1000()
        for _ in range(50):
            w = random_wave(g, rng)
            k = int(rng.integers(0, g.n_samples + 1))
            front, back = split_at_time(w, k)
            assert np.array_equal(front.amps + back.amps, w.amps)
            assert inner_product(front, back) == 0
            assert abs(norm(front) + norm(back) - norm(w)) < TOL

    def test_boundary_sample_goes_to_back(self):
        g = TimeGrid(4, 1.0)
        w = SubWave(g, [1.0, 2.0, 3.0, 4.0])
        front, back = split_at_time(w, 2)
        assert np.array_equal(front.amps, [1.0, 2.0, 0.0, 0.0])
        assert np.array_equal(back.amps, [0.0, 0.0, 3.0, 4.0])


class TestSubWave:
    def test_non_finite_rejected(self):
        g = TimeGrid(4, 1.0)
        with pytest.raises(ConfigurationError):
            SubWave(g, [1.0, np.nan, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            SubWave(g, [1.0, np.inf * 1j, 0.0, 0.0])

    def test_amps_are_immutable(self):
        w = zero_wave(grid1000())
        with pytest.raises(ValueError):
            w.amps[0] = 1.0

    def test_superpose(self):
        g = TimeGrid(3, 1.0)
        a = SubWave(g, [1.0, 0.0, 1j])
        b = SubWave(g, [0.5, 2.0, -1j])
        assert np.array_equal(superpose(a, b).amps, [1.5, 2.0, 0.0])
