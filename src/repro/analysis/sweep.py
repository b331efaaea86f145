"""The load sweep of the policy-robustness ablation.

:func:`load_sweep` accepts an :class:`~repro.exec.ExecutionContext`,
which fans the replication batches of every point over a process pool
and memoises them in the result cache.  Table 1's budget axis is swept
by :func:`repro.exec.sweeps.sweep_budgets`, which chains CTMDP sizing
warm starts across budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.loss import PolicyComparison, compare_policies
from repro.arch.topology import Topology
from repro.errors import ReproError
from repro.exec import ExecutionContext


@dataclass
class SweepPoint:
    """One sweep configuration and its comparison results."""

    parameter: float
    comparison: PolicyComparison


def load_sweep(
    topology_factory: Callable[[float], Topology],
    load_scales: Sequence[float],
    budget: int,
    policy_factories: Dict[str, Callable[[], object]],
    replications: int = 5,
    duration: float = 2_000.0,
    context: Optional[ExecutionContext] = None,
) -> List[SweepPoint]:
    """Sweep offered load at a fixed budget (policy-robustness ablation)."""
    if not load_scales:
        raise ReproError("load sweep needs at least one scale")
    points: List[SweepPoint] = []
    for scale in load_scales:
        topology = topology_factory(float(scale))
        allocations = {
            name: factory().allocate(topology, budget)
            for name, factory in policy_factories.items()
        }
        comparison = compare_policies(
            topology,
            allocations,
            replications=replications,
            duration=duration,
            context=context,
        )
        points.append(SweepPoint(parameter=float(scale), comparison=comparison))
    return points
