"""Ideal optical-element transforms.

All elements are lossless and act samplewise on :class:`~edcsim.wavecore.SubWave`
values: a 50/50 beam splitter (Hadamard convention at the input, the
conjugate sign convention at the output combiner) and a phase shifter.
Mirrors are the identity, and a gated router is the time cut
:func:`~edcsim.wavecore.split_at_time`; both are bench-file element kinds
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import ConfigurationError
from .wavecore import SubWave, _adopt, _require_same_grid

_SQRT_HALF = np.sqrt(0.5)

# in-ports / out-ports per element kind
ELEMENT_PORTS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "beam_splitter": (("in1", "in2"), ("out1", "out2")),
    "phase_shifter": (("in",), ("out",)),
    "mirror": (("in",), ("out",)),
    "gated_router": (("in",), ("transmit", "reflect")),
}


@dataclass(frozen=True)
class ElementSpec:
    """Declaration of one optical element: kind plus kind-specific parameters."""

    name: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ELEMENT_PORTS:
            raise ConfigurationError(f"unknown element kind {self.kind!r}")

    @property
    def in_ports(self) -> tuple[str, ...]:
        return ELEMENT_PORTS[self.kind][0]

    @property
    def out_ports(self) -> tuple[str, ...]:
        return ELEMENT_PORTS[self.kind][1]


def _split_into(in1, in2, out1, out2=None) -> None:
    """Input splitter on arrays, as :func:`beam_split`; with ``in2=None`` (vacuum) both outputs are ``out1``."""
    if in2 is None:
        np.multiply(in1, _SQRT_HALF, out=out1)
        return
    np.multiply(np.add(in1, in2, out=out1), _SQRT_HALF, out=out1)
    np.multiply(np.subtract(in1, in2, out=out2), _SQRT_HALF, out=out2)


def _recombine_into(in1, in2, phi: float, out1, out2) -> None:
    """Output combiner on arrays, as :func:`recombine_bs2`; the outputs must not overlap the inputs."""
    a = _phase_into(in1, phi, out2)
    np.multiply(np.subtract(a, in2, out=out1), _SQRT_HALF, out=out1)
    np.multiply(np.add(a, in2, out=out2), _SQRT_HALF, out=out2)


def _phase_into(x, phi: float, out):
    """Phase shifter on arrays: ``out = e^{i phi} x``."""
    return np.multiply(np.exp(1j * phi), x, out=out)


def beam_split(in1: SubWave, in2: SubWave) -> tuple[SubWave, SubWave]:
    """50/50 input splitter: ``out1 = (in1 + in2)/sqrt(2)``, ``out2 = (in1 - in2)/sqrt(2)``."""
    _require_same_grid(in1, in2)
    out1, out2 = np.empty_like(in1.amps), np.empty_like(in1.amps)
    _split_into(in1.amps, in2.amps, out1, out2)
    return _adopt(in1.grid, out1), _adopt(in1.grid, out2)


def recombine_bs2(in1: SubWave, in2: SubWave, phi: float) -> tuple[SubWave, SubWave]:
    """Output combiner with the arm-1 phase folded in.

    ``out1 = (e^{i phi} in1 - in2)/sqrt(2)`` and
    ``out2 = (e^{i phi} in1 + in2)/sqrt(2)``; the sign convention is fixed
    so that ``out2`` is the bright port at ``phi = 0``.
    """
    _require_same_grid(in1, in2)
    out1, out2 = np.empty_like(in1.amps), np.empty_like(in1.amps)
    _recombine_into(in1.amps, in2.amps, phi, out1, out2)
    return _adopt(in1.grid, out1), _adopt(in1.grid, out2)


def apply_phase(w: SubWave, phi: float) -> SubWave:
    """Multiply every sample by ``e^{i phi}``; the norm is unchanged."""
    return _adopt(w.grid, _phase_into(w.amps, phi, np.empty_like(w.amps)))
