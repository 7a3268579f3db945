"""Element transforms: unitarity and linearity."""

from __future__ import annotations

import numpy as np
import pytest

from edcsim.errors import ConfigurationError, GridMismatchError
from edcsim.optics import ElementSpec, apply_phase, beam_split, recombine_bs2
from edcsim.wavecore import SubWave, TimeGrid, make_rect_pulse, norm, zero_wave

TOL = 1e-12


def grid1000():
    return TimeGrid(1000, 1e-9)


def random_wave(grid, rng):
    return SubWave(grid, rng.normal(size=grid.n_samples) + 1j * rng.normal(size=grid.n_samples))


class TestBeamSplit:
    def test_divides_unit_pulse(self):
        g = grid1000()
        out1, out2 = beam_split(make_rect_pulse(g, 500), zero_wave(g))
        assert abs(norm(out1) - 0.5) < TOL
        assert abs(norm(out2) - 0.5) < TOL

    def test_equal_inputs_interfere(self):
        g = grid1000()
        w = make_rect_pulse(g, 500)
        out1, out2 = beam_split(w, w)
        assert np.allclose(out1.amps, np.sqrt(2) * w.amps, atol=TOL)
        assert norm(out2) == 0.0

    def test_zero_inputs(self):
        g = grid1000()
        out1, out2 = beam_split(zero_wave(g), zero_wave(g))
        assert norm(out1) == 0.0 and norm(out2) == 0.0

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            beam_split(zero_wave(TimeGrid(10, 1.0)), zero_wave(TimeGrid(10, 2.0)))


class TestRecombine:
    def test_equal_inputs_phi_zero_all_to_out2(self):
        g = grid1000()
        w, _ = beam_split(make_rect_pulse(g, 500), zero_wave(g))
        out1, out2 = recombine_bs2(w, w, 0.0)
        assert norm(out1) == 0.0
        assert abs(norm(out2) - 2 * norm(w)) < TOL

    def test_equal_inputs_phi_pi_all_to_out1(self):
        # by hand: out1 = (e^{i pi} w - w)/sqrt(2) = -sqrt(2) w, out2 = 0
        g = grid1000()
        w, _ = beam_split(make_rect_pulse(g, 500), zero_wave(g))
        out1, out2 = recombine_bs2(w, w, np.pi)
        assert abs(norm(out1) - 1.0) < TOL
        assert norm(out2) < TOL

    def test_zero_inputs(self):
        g = grid1000()
        out1, out2 = recombine_bs2(zero_wave(g), zero_wave(g), 1.3)
        assert norm(out1) == 0.0 and norm(out2) == 0.0

    def test_reduces_to_beam_split_at_phi_zero(self):
        g = grid1000()
        rng = np.random.default_rng(3)
        w = random_wave(g, rng)
        b1, b2 = beam_split(w, zero_wave(g))
        r1, r2 = recombine_bs2(w, zero_wave(g), 0.0)
        # documented sign convention: the recombiner's out1 carries the minus
        assert np.allclose(r1.amps, b1.amps, atol=TOL)
        assert np.allclose(r2.amps, b1.amps, atol=TOL)


class TestApplyPhase:
    def test_identity_and_involution(self):
        g = grid1000()
        w = make_rect_pulse(g, 500)
        assert np.array_equal(apply_phase(w, 0.0).amps, w.amps)
        twice = apply_phase(apply_phase(w, np.pi), np.pi)
        assert np.allclose(twice.amps, w.amps, atol=TOL)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(17)
        g = grid1000()
        for _ in range(100):
            w = random_wave(g, rng)
            assert abs(norm(apply_phase(w, rng.uniform(0, 2 * np.pi))) - norm(w)) < TOL


class TestUnitarityAndLinearity:
    def test_norm_conserved_random_pairs(self):
        rng = np.random.default_rng(23)
        g = TimeGrid(256, 1e-9)
        for _ in range(200):
            a, b = random_wave(g, rng), random_wave(g, rng)
            total = norm(a) + norm(b)
            o1, o2 = beam_split(a, b)
            assert abs(norm(o1) + norm(o2) - total) < TOL * max(1.0, total)
            o1, o2 = recombine_bs2(a, b, rng.uniform(0, 2 * np.pi))
            assert abs(norm(o1) + norm(o2) - total) < TOL * max(1.0, total)

    def test_superposition(self):
        rng = np.random.default_rng(29)
        g = TimeGrid(128, 1e-9)
        a, b, c, d = (random_wave(g, rng) for _ in range(4))
        sum1 = SubWave(g, a.amps + c.amps)
        sum2 = SubWave(g, b.amps + d.amps)
        lhs = beam_split(sum1, sum2)
        rhs_a = beam_split(a, b)
        rhs_c = beam_split(c, d)
        for L, Ra, Rc in zip(lhs, rhs_a, rhs_c):
            assert np.allclose(L.amps, Ra.amps + Rc.amps, atol=TOL)


class TestElementSpec:
    def test_ports_by_kind(self):
        bs = ElementSpec("bs1", "beam_splitter")
        assert bs.in_ports == ("in1", "in2") and bs.out_ports == ("out1", "out2")
        router = ElementSpec("eom", "gated_router", {"signal": "s2"})
        assert router.out_ports == ("transmit", "reflect")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ElementSpec("x", "prism")
