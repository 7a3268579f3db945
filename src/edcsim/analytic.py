"""Closed-form detection probabilities and estimator targets.

These formulas are the independent oracle against which wave propagation
and Monte Carlo output are validated.  With ``p_p`` the fraction of the
pulse that exits before the output beam splitter is inserted (and
``p_w = 1 - p_p`` the recombined remainder):

* two-detector layout:  ``P1 = sin^2(phi/2) + (cos phi / 2) p_p`` and
  ``P2 = cos^2(phi/2) - (cos phi / 2) p_p``
* four-detector layout: ``(p_w sin^2(phi/2), p_w cos^2(phi/2), p_p/2, p_p/2)``
* detection ratios:     ``R_P = 1/2`` and ``R_W = (p_w/2)(1 - cos phi)``

For a photon uniformly distributed over a pulse of length ``T/2``, an
insertion delay ``t_d`` gives ``p_p = 2 t_d / T``, i.e. exactly the delay
expressed as a fraction of the pulse length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class AnalyticPrediction:
    """Closed-form probabilities for one (phi, p_p) operating point."""

    p1: float
    p2: float
    p_w: float
    p_p: float
    r_w: float
    r_p: float
    bench_norms: tuple[float, float, float, float]


def predict(phi: float, p_p: float) -> AnalyticPrediction:
    """Evaluate every closed form at phase ``phi`` and passed fraction ``p_p``."""
    if not (np.isfinite(p_p) and 0.0 <= p_p <= 1.0):
        raise DomainError(f"p_p must lie in [0, 1], got {p_p!r}")
    if not np.isfinite(phi):
        raise DomainError(f"phi must be finite, got {phi!r}")
    s2 = np.sin(0.5 * phi) ** 2
    c2 = np.cos(0.5 * phi) ** 2
    c = np.cos(phi)
    p_w = 1.0 - p_p
    # algebraically identical to sin^2(phi/2) + (cos phi / 2) p_p, but exactly
    # flat at p_p = 1 and exactly complementary in floating point
    shift = 0.5 * (c * (p_p - 1.0))
    return AnalyticPrediction(
        p1=float(0.5 + shift),
        p2=float(0.5 - shift),
        p_w=p_w,
        p_p=float(p_p),
        r_w=float(0.5 * p_w * (1.0 - c)),
        r_p=0.5,
        bench_norms=(float(p_w * s2), float(p_w * c2), 0.5 * p_p, 0.5 * p_p),
    )


def detector_probs(
    mode: str,
    phi: float,
    p_p: float = 0.0,
    insert_bs2: bool | None = None,
) -> np.ndarray:
    """Analytic norms at detectors D1..D4 for one experiment mode."""
    pred = predict(phi, p_p)
    if mode == "open":
        return np.array([0.5, 0.5, 0.0, 0.0])
    if mode == "closed":
        closed = predict(phi, 0.0)
        return np.array([closed.p1, closed.p2, 0.0, 0.0])
    if mode == "wheeler_delayed":
        if insert_bs2 is None:
            raise DomainError("wheeler_delayed requires the insert/omit choice")
        return detector_probs("closed" if insert_bs2 else "open", phi)
    if mode == "edc_conceptual":
        return np.array([pred.p1, pred.p2, 0.0, 0.0])
    if mode == "edc_bench":
        return np.array(pred.bench_norms)
    raise DomainError(f"unknown mode {mode!r}")
