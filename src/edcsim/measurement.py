"""Click sampling and count statistics.

A measurement collapses each photon onto exactly one detector, drawn from
the categorical distribution given by the detector norms.  Per-photon
randomness is counter-based (see :mod:`edcsim.kernels`): the draw for
photon ``i`` depends only on ``(seed, i)``, so counts are reproducible and
independent of how photons are partitioned across worker threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import kernels
from .analytic import AnalyticPrediction
from .errors import ConfigurationError, ConservationError
from .experiment import DETECTOR_IDS, PropagationResult, check_seed


@dataclass(frozen=True)
class DetectionRecord:
    """Sampled clicks per detector plus the probabilities that produced them."""

    counts: Mapping[str, int]
    n_photons: int
    probs: tuple[float, float, float, float]
    seed: int

    def __post_init__(self):
        total = sum(self.counts.get(d, 0) for d in DETECTOR_IDS)
        if total != self.n_photons:
            raise ConservationError(f"counts sum to {total}, expected n_photons={self.n_photons}")
        if not abs(sum(self.probs) - 1.0) <= 1e-12:  # NaN fails too
            raise ConservationError(f"sampling probabilities sum to {sum(self.probs)!r}")

    def counts_array(self) -> np.ndarray:
        return np.array([self.counts[d] for d in DETECTOR_IDS], dtype=np.int64)


@dataclass(frozen=True)
class Estimate:
    """A count ratio with its binomial standard error.

    ``value`` is None when the denominator is zero (the estimator is
    flagged undefined rather than silently reported as 0).
    """

    value: float | None
    stderr: float | None
    n_denominator: int

    @property
    def defined(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class EstimatorSet:
    """The detection ratios formed from the four counters.

    ``r_w_pair = N1/(N1+N2)``, ``r_w_total = N1/Nt``, ``r_p = N3/(N3+N4)``,
    ``p_w_hat = (N1+N2)/Nt``, ``p_p_hat = (N3+N4)/Nt``.
    """

    r_w_pair: Estimate
    r_w_total: Estimate
    r_p: Estimate
    p_w_hat: Estimate
    p_p_hat: Estimate


@dataclass(frozen=True)
class ChiSquareReport:
    """Pearson goodness-of-fit verdict for counts against predicted norms."""

    statistic: float | None
    dof: int
    p_value: float | None
    significance: float
    passed: bool | None  # None: insufficient statistics for a verdict
    note: str = ""


def sample_clicks(
    result: PropagationResult,
    n_photons: int | None = None,
    seed: int | None = None,
    *,
    workers: int = 1,
) -> DetectionRecord:
    """Assign each photon to one detector by a seeded categorical draw.

    Defaults for ``n_photons`` and ``seed`` come from the result's config.
    ``workers`` only parallelizes the sampling; it never changes counts.
    At most one thread per CPU and per ``2**19`` photons is started, whatever
    its value.
    """
    cfg = result.config
    n = cfg.n_photons if n_photons is None else n_photons
    s = cfg.seed if seed is None else seed
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ConfigurationError(f"n_photons must be a positive integer, got {n!r}")
    check_seed(s)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers!r}")

    norms = result.norms_array()
    total = float(norms.sum())
    if not abs(total - 1.0) <= 1e-9:  # NaN fails too
        raise ConservationError(f"detector norms sum to {total!r}, outside 1 +/- 1e-9")
    probs = norms / total
    cum = np.cumsum(probs)
    cum[-1] = 1.0  # guard the top bin against float residue

    counts = _partitioned_counts(cum, int(n), int(s), workers)
    return DetectionRecord(
        counts=dict(zip(DETECTOR_IDS, (int(c) for c in counts))),
        n_photons=int(n),
        probs=tuple(float(p) for p in probs),
        seed=int(s),
    )


# Starting a pool and its threads costs about 1 ms a call on a 2-vCPU host, as
# long as sampling 2e5 photons; two threads beat one only from about 1e6 photons.
_MIN_PHOTONS_PER_THREAD = 1 << 19


def _partitioned_counts(cum: np.ndarray, n: int, seed: int, workers: int) -> np.ndarray:
    workers = min(workers, max(n // _MIN_PHOTONS_PER_THREAD, 1))
    bounds = _partition_bounds(n, workers, os.cpu_count() or 1)
    if len(bounds) == 2:
        return kernels.sample_counts(cum, 0, n, seed)
    with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
        futures = [
            pool.submit(kernels.sample_counts, cum, lo, hi, seed)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        parts = [f.result() for f in futures]
    return np.sum(parts, axis=0)


def _partition_bounds(n: int, workers: int, cpus: int) -> list[int]:
    """Edges of ``min(workers, n, cpus)`` non-empty contiguous ranges covering ``0..n``."""
    parts = min(workers, n, cpus)
    return [n * k // parts for k in range(parts + 1)]


def estimators(rec: DetectionRecord) -> EstimatorSet:
    """Compute the five detection ratios with binomial standard errors."""
    n1, n2, n3, n4 = (int(rec.counts[d]) for d in DETECTOR_IDS)
    nt = rec.n_photons
    return EstimatorSet(
        r_w_pair=_ratio(n1, n1 + n2),
        r_w_total=_ratio(n1, nt),
        r_p=_ratio(n3, n3 + n4),
        p_w_hat=_ratio(n1 + n2, nt),
        p_p_hat=_ratio(n3 + n4, nt),
    )


def _ratio(num: int, den: int) -> Estimate:
    if den == 0:
        return Estimate(None, None, 0)
    p = num / den
    return Estimate(p, math.sqrt(p * (1.0 - p) / den), int(den))


def chi_square_check(
    rec: DetectionRecord,
    pred: AnalyticPrediction,
    significance: float = 0.001,
    expected: np.ndarray | None = None,
) -> ChiSquareReport:
    """Pearson chi-square of the counts against predicted detector norms.

    ``expected`` defaults to the prediction's four-detector norms when the
    record has support on D3/D4, else to the two-detector probabilities.
    Cells with zero expected probability are excluded from the statistic;
    a click observed in such a cell fails outright.  If any included cell
    expects fewer than 5 counts the report abstains (``passed is None``).
    """
    if expected is None:
        if rec.probs[2] > 0.0 or rec.probs[3] > 0.0:
            expected = np.array(pred.bench_norms)
        else:
            expected = np.array([pred.p1, pred.p2, 0.0, 0.0])
    expected = np.asarray(expected, dtype=np.float64)
    observed = rec.counts_array().astype(np.float64)
    exp_counts = expected * rec.n_photons
    live = expected > 0.0
    dof = int(live.sum()) - 1

    if np.any(observed[~live] > 0):
        return ChiSquareReport(float("inf"), dof, 0.0, significance, False,
                               "clicks observed in a zero-probability detector")
    if np.any(exp_counts[live] < 5.0):
        return ChiSquareReport(None, dof, None, significance, None,
                               "insufficient statistics: an expected count is below 5")

    stat = float(np.sum((observed[live] - exp_counts[live]) ** 2 / exp_counts[live]))
    if dof == 0:
        # all mass in one detector and all clicks landed there
        return ChiSquareReport(0.0, 0, 1.0, significance, True, "single live detector")
    p_value = _chi2_sf(stat, dof)
    return ChiSquareReport(stat, dof, p_value, significance, p_value >= significance)


def _chi2_sf(x: float, dof: int) -> float:
    """Chi-square upper tail in closed form for the 1-3 degrees of freedom four cells allow."""
    if dof == 1:
        return math.erfc(math.sqrt(x / 2.0))
    if dof == 2:
        return math.exp(-x / 2.0)
    if dof == 3:
        return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    raise ValueError(f"chi-square tail implemented for 1-3 degrees of freedom, got {dof}")
