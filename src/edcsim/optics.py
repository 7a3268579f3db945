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


def beam_split(in1: SubWave, in2: SubWave) -> tuple[SubWave, SubWave]:
    """50/50 input splitter: ``out1 = (in1 + in2)/sqrt(2)``, ``out2 = (in1 - in2)/sqrt(2)``."""
    _require_same_grid(in1, in2)
    out1 = _adopt(in1.grid, (in1.amps + in2.amps) * _SQRT_HALF)
    out2 = _adopt(in1.grid, (in1.amps - in2.amps) * _SQRT_HALF)
    return out1, out2


def recombine_bs2(in1: SubWave, in2: SubWave, phi: float) -> tuple[SubWave, SubWave]:
    """Output combiner with the arm-1 phase folded in.

    ``out1 = (e^{i phi} in1 - in2)/sqrt(2)`` and
    ``out2 = (e^{i phi} in1 + in2)/sqrt(2)``; the sign convention is fixed
    so that ``out2`` is the bright port at ``phi = 0``.
    """
    _require_same_grid(in1, in2)
    ph = np.exp(1j * phi)
    a = ph * in1.amps
    out1 = _adopt(in1.grid, (a - in2.amps) * _SQRT_HALF)
    out2 = _adopt(in1.grid, (a + in2.amps) * _SQRT_HALF)
    return out1, out2


def apply_phase(w: SubWave, phi: float) -> SubWave:
    """Multiply every sample by ``e^{i phi}``; the norm is unchanged."""
    return _adopt(w.grid, np.exp(1j * phi) * w.amps)
