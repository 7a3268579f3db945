"""Time-resolved single-photon Mach-Zehnder interferometer simulator.

Splits a rectangular wave packet at the input beam splitter, optionally
inserts the output beam splitter mid-pulse so that the pulse front exits
unrecombined while the back interferes, and samples detector clicks with
a reproducible counter-based Monte Carlo.  Closed-form probabilities are
carried alongside as the validation oracle.
"""

from .analytic import AnalyticPrediction, detector_probs, predict
from .benchdsl import (
    BenchParseError,
    BenchProgram,
    ParseDiagnostic,
    format_bench,
    parse,
    to_experiment_config,
    try_parse,
)
from .errors import (
    ConfigurationError,
    ConservationError,
    DomainError,
    GridMismatchError,
    TopologyError,
)
from .experiment import (
    DETECTOR_IDS,
    MODES,
    ExperimentConfig,
    PropagationResult,
    run,
)
from .kernels import BACKEND
from .measurement import (
    ChiSquareReport,
    DetectionRecord,
    Estimate,
    EstimatorSet,
    chi_square_check,
    estimators,
    sample_clicks,
)
from .optics import (
    ElementSpec,
    apply_phase,
    beam_split,
    recombine_bs2,
)
from .wavecore import (
    SubWave,
    TimeGrid,
    inner_product,
    make_rect_pulse,
    norm,
    split_at_time,
    superpose,
    zero_wave,
)

__version__ = "0.1.0"
