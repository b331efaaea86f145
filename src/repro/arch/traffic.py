"""Traffic descriptors for processor request streams.

The paper models request generation as Poisson ("continuous time nature of
tasks when they are executed on the IP cores").  For CTMDP construction
only the *mean rate* matters; the discrete-event simulator additionally
draws interarrival samples from the full distribution, so burstier
descriptors (on-off, hyperexponential) let the experiments probe how far
the Markovian sizing generalises — the paper's "better profiling" remark.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


class TrafficDescriptor(abc.ABC):
    """Interface every traffic model implements."""

    @property
    @abc.abstractmethod
    def mean_rate(self) -> float:
        """Long-run average request rate (requests per unit time)."""

    @abc.abstractmethod
    def sample_interarrivals(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Draw ``count`` consecutive interarrival times."""

    def scaled(self, factor: float) -> "TrafficDescriptor":
        """A descriptor with the mean rate scaled by ``factor``."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonTraffic(TrafficDescriptor):
    """Homogeneous Poisson stream of the given rate."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ModelError(f"Poisson rate must be > 0, got {self.rate}")

    @property
    def mean_rate(self) -> float:
        return self.rate

    def sample_interarrivals(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        if count < 0:
            raise ModelError(f"count must be >= 0, got {count}")
        return rng.exponential(1.0 / self.rate, size=count)

    def scaled(self, factor: float) -> "PoissonTraffic":
        if factor <= 0:
            raise ModelError(f"scale factor must be > 0, got {factor}")
        return PoissonTraffic(self.rate * factor)


@dataclass(frozen=True)
class OnOffTraffic(TrafficDescriptor):
    """Markov-modulated on-off stream (bursty traffic).

    While *on* (mean duration ``mean_on``) requests arrive as Poisson of
    rate ``peak_rate``; while *off* (mean duration ``mean_off``) nothing
    arrives.  The long-run mean rate is
    ``peak_rate * mean_on / (mean_on + mean_off)``.
    """

    peak_rate: float
    mean_on: float
    mean_off: float

    def __post_init__(self) -> None:
        if self.peak_rate <= 0:
            raise ModelError(f"peak rate must be > 0, got {self.peak_rate}")
        if self.mean_on <= 0 or self.mean_off <= 0:
            raise ModelError("on/off durations must be > 0")

    @property
    def mean_rate(self) -> float:
        return self.peak_rate * self.mean_on / (self.mean_on + self.mean_off)

    def sample_interarrivals(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        if count < 0:
            raise ModelError(f"count must be >= 0, got {count}")
        return self._walk(rng, count)

    def _walk(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # The draw order is data-dependent (phase changes interleave with
        # arrival candidates on one stream), so this walk cannot be
        # vectorised without changing fixed-seed outputs; hoisting the
        # attribute and method lookups is the safe speedup.
        gaps = np.empty(count)
        exponential = rng.exponential
        mean_on = self.mean_on
        mean_off = self.mean_off
        arrival_scale = 1.0 / self.peak_rate
        p_on = mean_on / (mean_on + mean_off)
        in_on = bool(rng.random() < p_on)
        phase_left = exponential(mean_on if in_on else mean_off)
        for k in range(count):
            gap = 0.0
            while True:
                if in_on:
                    candidate = exponential(arrival_scale)
                    if candidate <= phase_left:
                        phase_left -= candidate
                        gap += candidate
                        break
                    gap += phase_left
                    in_on = False
                    phase_left = exponential(mean_off)
                else:
                    gap += phase_left
                    in_on = True
                    phase_left = exponential(mean_on)
            gaps[k] = gap
        return gaps

    def scaled(self, factor: float) -> "OnOffTraffic":
        if factor <= 0:
            raise ModelError(f"scale factor must be > 0, got {factor}")
        return OnOffTraffic(self.peak_rate * factor, self.mean_on, self.mean_off)


@dataclass(frozen=True)
class HyperexponentialTraffic(TrafficDescriptor):
    """Two-phase hyperexponential interarrivals (heavy-tailed-ish).

    With probability ``phase1_prob`` an interarrival is Exp(``rate1``),
    otherwise Exp(``rate2``).  Mean rate is the harmonic mix.
    """

    rate1: float
    rate2: float
    phase1_prob: float

    def __post_init__(self) -> None:
        if self.rate1 <= 0 or self.rate2 <= 0:
            raise ModelError("phase rates must be > 0")
        if not 0.0 < self.phase1_prob < 1.0:
            raise ModelError(
                f"phase1_prob must be in (0, 1), got {self.phase1_prob}"
            )

    @property
    def mean_rate(self) -> float:
        mean_gap = (
            self.phase1_prob / self.rate1
            + (1.0 - self.phase1_prob) / self.rate2
        )
        return 1.0 / mean_gap

    def sample_interarrivals(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        if count < 0:
            raise ModelError(f"count must be >= 0, got {count}")
        phase1 = rng.random(count) < self.phase1_prob
        gaps = np.where(
            phase1,
            rng.exponential(1.0 / self.rate1, size=count),
            rng.exponential(1.0 / self.rate2, size=count),
        )
        return gaps

    def scaled(self, factor: float) -> "HyperexponentialTraffic":
        if factor <= 0:
            raise ModelError(f"scale factor must be > 0, got {factor}")
        return HyperexponentialTraffic(
            self.rate1 * factor, self.rate2 * factor, self.phase1_prob
        )
