"""Replication statistics helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ReproError


@dataclass(frozen=True)
class Summary:
    """Mean, standard deviation and sample size of a metric."""

    mean: float
    std: float
    count: int


def summarise(values: Sequence[float]) -> Summary:
    """Summary statistics of a sample."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ReproError("cannot summarise an empty sample")
    std = float(np.std(data, ddof=1)) if data.size > 1 else 0.0
    return Summary(mean=float(data.mean()), std=std, count=int(data.size))


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Student-t confidence interval for the mean of a sample."""
    if not 0.0 < confidence < 1.0:
        raise ReproError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ReproError("cannot build a CI from an empty sample")
    mean = float(data.mean())
    if data.size == 1:
        return (mean, mean)
    sem = float(np.std(data, ddof=1) / np.sqrt(data.size))
    if sem == 0.0:
        return (mean, mean)
    half = t_half_width(sem, data.size, confidence)
    return (mean - half, mean + half)


def t_half_width(sem: float, count: int, confidence: float) -> float:
    """Student-t interval half-width for a mean of ``count`` values.

    ``t_{(1 + confidence) / 2, count - 1} * sem``.  ``stdtrit`` is the
    t quantile ``scipy.stats.t.ppf`` evaluates, without importing
    ``scipy.stats``.
    """
    from scipy.special import stdtrit

    return float(stdtrit(count - 1, 0.5 + confidence / 2.0) * sem)


def relative_improvement(baseline: float, improved: float) -> float:
    """Fractional reduction: ``(baseline - improved) / baseline``.

    The paper's "overall loss of the system decreases by about 20%"
    corresponds to a value of ~0.2 with the constant-sizing baseline.
    """
    if baseline <= 0:
        raise ReproError(
            f"baseline must be positive for a relative improvement, "
            f"got {baseline}"
        )
    return (baseline - improved) / baseline
