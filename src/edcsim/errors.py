"""Exception types shared across the package; the two bases map to CLI exit codes 2 and 1."""


class InputError(ValueError):
    """The invocation or its input lies outside the simulator's domain (exit 2)."""


class ScientificCheckError(Exception):
    """A valid run failed a conservation or oracle check (exit 1)."""


class ConfigurationError(InputError):
    """Invalid experiment or element configuration (bad value, misaligned time)."""


class GridMismatchError(ValueError):
    """Two sub-waves on different time grids were combined."""


class DomainError(InputError):
    """Argument of an analytic formula is outside its domain."""


class TopologyError(InputError):
    """A bench program's wiring matches none of the known experiment layouts."""


class ConservationError(ScientificCheckError, ValueError):
    """Detector norms violate total-probability conservation."""


class OracleMismatchError(ScientificCheckError, RuntimeError):
    """Propagated detector norms disagree with the closed forms."""
