"""Policy comparison harness: size, simulate, aggregate losses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.topology import Topology
from repro.core.sizing import BufferAllocation
from repro.errors import ReproError
from repro.exec import ExecutionContext
from repro.sim.runner import ReplicationSummary, replicate


@dataclass
class PolicyComparison:
    """Replicated simulation results for several allocation policies.

    Attributes
    ----------
    topology:
        The architecture simulated.
    allocations:
        Policy name -> the allocation it produced.
    summaries:
        Policy name -> replication summary of the simulations.
    processors:
        Processor names in report order.
    """

    topology: Topology
    allocations: Dict[str, BufferAllocation]
    summaries: Dict[str, ReplicationSummary]
    processors: List[str]

    def mean_total_loss(self, policy: str) -> float:
        """Mean total loss count of one policy."""
        try:
            return self.summaries[policy].mean_total_loss()
        except KeyError:
            raise ReproError(f"unknown policy {policy!r}") from None

    def per_processor(self, policy: str) -> Dict[str, float]:
        """Mean per-processor loss counts of one policy."""
        try:
            summary = self.summaries[policy]
        except KeyError:
            raise ReproError(f"unknown policy {policy!r}") from None
        return summary.mean_loss_by_processor(self.processors)

    def improvement_over(self, baseline: str, policy: str) -> float:
        """Fractional total-loss reduction of ``policy`` vs ``baseline``."""
        from repro.analysis.stats import relative_improvement

        return relative_improvement(
            self.mean_total_loss(baseline), self.mean_total_loss(policy)
        )


def compare_policies(
    topology: Topology,
    allocations: Dict[str, BufferAllocation],
    replications: int = 10,
    duration: float = 3_000.0,
    timeout_thresholds: Optional[Dict[str, float]] = None,
    arbiter_kind: str = "longest_queue",
    processors: Optional[List[str]] = None,
    context: Optional[ExecutionContext] = None,
) -> PolicyComparison:
    """Simulate every allocation under identical seeds and horizons.

    Parameters
    ----------
    allocations:
        Policy name -> allocation to simulate.
    timeout_thresholds:
        Optional per-policy timeout threshold (policies absent from the
        map run without timeouts).
    processors:
        Report order; defaults to sorted processor names.
    context:
        Execution runtime (parallel replications, result cache); the
        default is the serial, uncached reference behaviour.
    """
    if not allocations:
        raise ReproError("no allocations to compare")
    if processors is None:
        processors = sorted(topology.processors)
    if context is None:
        context = ExecutionContext()
    summaries: Dict[str, ReplicationSummary] = {}
    for name, allocation in allocations.items():
        threshold = (timeout_thresholds or {}).get(name)
        summaries[name] = context.replicate(
            topology,
            allocation.as_capacities(),
            replications=replications,
            duration=duration,
            arbiter_kind=arbiter_kind,
            timeout_threshold=threshold,
        )
    return PolicyComparison(
        topology=topology,
        allocations=dict(allocations),
        summaries=summaries,
        processors=list(processors),
    )
