"""Batch-means confidence intervals for steady-state simulation output.

Independent replications (the paper's "10 iterations") pay a warmup per
replication; the batch-means method instead slices *one* long run into
batches and treats batch averages as approximately independent — the
standard steady-state output-analysis tool.  Used by the validation
harness to attach defensible error bars to simulated loss rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.stats import t_half_width
from repro.arch.topology import Topology
from repro.errors import ReproError
from repro.sim.system import CommunicationSystem


@dataclass(frozen=True)
class BatchMeansEstimate:
    """Point estimate with a batch-means confidence interval.

    Attributes
    ----------
    mean:
        Grand mean over batches.
    half_width:
        Half-width of the confidence interval.
    num_batches / batch_length:
        The batching actually used.
    lag1_autocorrelation:
        Lag-1 autocorrelation of the batch means — should be near zero
        if batches are long enough; large values flag an untrustworthy
        interval.
    """

    mean: float
    half_width: float
    num_batches: int
    batch_length: float
    lag1_autocorrelation: float

    @property
    def interval(self) -> Tuple[float, float]:
        """The confidence interval ``(lo, hi)``."""
        return (self.mean - self.half_width, self.mean + self.half_width)


def batch_means(
    values: np.ndarray,
    confidence: float = 0.95,
) -> Tuple[float, float, float]:
    """Mean, CI half-width and lag-1 autocorrelation of batch values."""
    data = np.asarray(values, dtype=float)
    if data.size < 2:
        raise ReproError("batch means needs at least two batches")
    if not 0.0 < confidence < 1.0:
        raise ReproError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(data.mean())
    sem = float(data.std(ddof=1) / np.sqrt(data.size))
    half = t_half_width(sem, data.size, confidence)
    centred = data - mean
    denom = float(centred @ centred)
    if denom <= 0:
        rho1 = 0.0
    else:
        rho1 = float((centred[:-1] @ centred[1:]) / denom)
    return mean, half, rho1


def loss_rate_batch_means(
    topology: Topology,
    capacities: Dict[str, int],
    total_duration: float = 50_000.0,
    num_batches: int = 20,
    warmup_fraction: float = 0.05,
    seed: int = 0,
    confidence: float = 0.95,
) -> BatchMeansEstimate:
    """Batch-means estimate of the system's total loss rate.

    Runs one long simulation, discards the warmup, slices the remainder
    into ``num_batches`` equal windows and intervals the per-window loss
    rates.
    """
    if num_batches < 2:
        raise ReproError(f"need at least 2 batches, got {num_batches}")
    if total_duration <= 0:
        raise ReproError("total_duration must be > 0")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ReproError("warmup_fraction must be in [0, 1)")
    system = CommunicationSystem(topology, capacities, seed=seed)
    for source in system.sources:
        source.start()
    warmup = total_duration * warmup_fraction
    if warmup > 0:
        system.simulator.run_until(warmup)
    batch_length = (total_duration - warmup) / num_batches
    losses = np.empty(num_batches)
    previous = system.monitor.total_lost()
    for b in range(num_batches):
        system.simulator.run_until(warmup + (b + 1) * batch_length)
        current = system.monitor.total_lost()
        losses[b] = (current - previous) / batch_length
        previous = current
    mean, half, rho1 = batch_means(losses, confidence)
    return BatchMeansEstimate(
        mean=mean,
        half_width=half,
        num_batches=num_batches,
        batch_length=batch_length,
        lag1_autocorrelation=rho1,
    )
