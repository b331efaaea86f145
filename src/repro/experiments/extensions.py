"""Extension experiments beyond the paper's tables.

The paper's own discussion motivates both:

* **Burstiness (E7)** — "We feel the difference before and after
  resizing could be improved with better profiling": size under the
  Poisson assumption, then drive the same architecture with bursty
  on-off traffic of identical mean rate and measure how the sizing
  degrades, alongside the GI/M/1 two-moment prediction of the buffer
  inflation that would be needed.
* **Weighted losses (E8)** — "allowing some losses to be more important
  than the others": mark a subset of processors as critical and verify
  the CTMDP allocation shifts buffers toward them and reduces the
  *weighted* loss relative to an unweighted allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.arch.topology import (
    Topology,
    processor_names,
    rebuilt_topology,
)
from repro.arch.traffic import OnOffTraffic
from repro.errors import ReproError
from repro.exec import ExecutionContext
from repro.experiments.common import scenario_setup
from repro.queueing.mg1 import gim1_tail_decay
from repro.scenarios import ScenarioSpec


def _burstify(topology: Topology, scv_target: float) -> Topology:
    """Replace every Poisson flow with an on-off flow of equal mean rate.

    For an on-off source with peak ``p``, on-fraction ``f`` the
    interarrival SCV grows with ``p / mean - 1``; we pick the on-fraction
    that hits approximately the requested interarrival SCV using the
    standard IPP (interrupted Poisson) moment relation.
    """
    if scv_target <= 1.0:
        raise ReproError(
            f"on-off burstification needs target SCV > 1, got {scv_target}"
        )

    def burstify_flow(flow):
        mean = flow.rate
        # Interrupted Poisson: SCV = 1 + 2 peak/(1/on + 1/off)/... use the
        # simple construction: peak = scv * mean, on-fraction = 1/scv.
        peak = scv_target * mean
        on_fraction = 1.0 / scv_target
        mean_on = 1.0  # time units; burst length scale
        mean_off = mean_on * (1.0 - on_fraction) / on_fraction
        return OnOffTraffic(
            peak_rate=peak, mean_on=mean_on, mean_off=mean_off
        )

    return rebuilt_topology(
        topology,
        name=f"{topology.name}-scv{scv_target:g}",
        flow_traffic=burstify_flow,
    )


@dataclass
class BurstinessResult:
    """E7: loss inflation under burstiness for a Poisson-sized allocation."""

    scv_levels: List[float]
    losses: List[float]
    poisson_loss: float
    predicted_buffer_inflation: List[float]

    def render(self) -> str:
        rows: List[Tuple[object, ...]] = [
            ("1.0 (Poisson)", self.poisson_loss, 1.0)
        ]
        for scv, loss, inflation in zip(
            self.scv_levels, self.losses, self.predicted_buffer_inflation
        ):
            rows.append((f"{scv:.1f}", loss, inflation))
        return format_table(
            ["interarrival SCV", "mean total loss", "predicted buffer x"],
            rows,
            title="E7 — Poisson-sized allocation under bursty traffic",
        )


def run_burstiness(
    scv_levels: Sequence[float] = (2.0, 4.0),
    budget: Optional[int] = None,
    replications: int = 3,
    duration: float = 1_000.0,
    sizer_kwargs: dict | None = None,
    context: Optional[ExecutionContext] = None,
    scenario: Union[str, ScenarioSpec, None] = None,
) -> BurstinessResult:
    """E7: size Poisson, simulate bursty, report the degradation."""
    if not scv_levels:
        raise ReproError("need at least one SCV level")
    spec, context, sizer_kwargs = scenario_setup(
        scenario, context, sizer_kwargs
    )
    topology = spec.topology()
    budget = spec.default_budget if budget is None else budget
    allocation = context.size(
        topology, budget, sizer_kwargs=sizer_kwargs
    ).allocation
    poisson_loss = context.replicate(
        topology,
        allocation.as_capacities(),
        replications=replications,
        duration=duration,
    ).mean_total_loss()
    losses: List[float] = []
    inflations: List[float] = []
    # Representative utilisation for the tail-decay prediction: mean
    # client rho across the testbed.
    rhos = [
        topology.processor_offered_rate(p.name) / p.service_rate
        for p in topology.processors.values()
        if topology.processor_offered_rate(p.name) > 0
    ]
    rho = sum(rhos) / len(rhos)
    base_decay = gim1_tail_decay(1.0, rho)
    for scv in scv_levels:
        bursty = _burstify(topology, scv)
        loss = context.replicate(
            bursty,
            allocation.as_capacities(),
            replications=replications,
            duration=duration,
        ).mean_total_loss()
        losses.append(loss)
        # Buffers needed to hold the same tail mass scale with the ratio
        # of log decay rates.
        import math

        decay = gim1_tail_decay(scv, rho)
        inflations.append(math.log(base_decay) / math.log(decay))
    return BurstinessResult(
        scv_levels=list(scv_levels),
        losses=losses,
        poisson_loss=poisson_loss,
        predicted_buffer_inflation=inflations,
    )


@dataclass
class WeightedLossResult:
    """E8: weighted sizing + weighted arbitration protect critical clients.

    A noteworthy reproduction finding: when critical processors' losses
    are up-weighted, the optimal CTMDP *policy* protects them primarily
    through **arbitration priority** (serve them first, keeping their
    queues near-empty) rather than through extra buffer slots — their
    marginals lighten, so the K-switching translation may even *reduce*
    their buffer shares.  The experiment therefore deploys the full
    policy: the weighted configuration simulates with service priority
    for the critical clients (the stochastic arbitration the CTMDP
    solution implies) plus its allocation, against the neutral
    configuration (longest-queue arbitration, unweighted allocation).
    """

    critical: List[str]
    weight: float
    weighted_alloc_sizes: Dict[str, int]
    unweighted_alloc_sizes: Dict[str, int]
    critical_loss_weighted: float
    critical_loss_unweighted: float
    total_loss_weighted: float
    total_loss_unweighted: float

    def render(self) -> str:
        rows = []
        for proc in self.critical:
            rows.append(
                (
                    proc,
                    self.unweighted_alloc_sizes.get(proc, 0),
                    self.weighted_alloc_sizes.get(proc, 0),
                )
            )
        table = format_table(
            ["critical processor", "slots (neutral)", "slots (weighted)"],
            rows,
            title=f"E8 — loss weighting (w={self.weight:g}) on critical "
            "processors",
        )
        return (
            table
            + f"\ncritical-processor loss: neutral "
            f"{self.critical_loss_unweighted:.1f} -> weighted "
            f"{self.critical_loss_weighted:.1f}"
            + f"\ntotal system loss:       neutral "
            f"{self.total_loss_unweighted:.1f} -> weighted "
            f"{self.total_loss_weighted:.1f} (the price of protection)"
        )


def run_weighted_loss(
    critical: Optional[Sequence[str]] = None,
    weight: float = 8.0,
    budget: Optional[int] = None,
    replications: int = 3,
    duration: float = 1_000.0,
    sizer_kwargs: dict | None = None,
    context: Optional[ExecutionContext] = None,
    scenario: Union[str, ScenarioSpec, None] = None,
) -> WeightedLossResult:
    """E8: weighted vs neutral CTMDP configurations (see class docstring).

    ``critical`` defaults to the scenario's declared critical set
    (netproc: p1 and p16), falling back to the first and last processor
    in report order for scenarios that declare none.
    """
    if weight <= 1.0:
        raise ReproError(f"critical weight should exceed 1, got {weight}")
    spec, context, sizer_kwargs = scenario_setup(
        scenario, context, sizer_kwargs
    )
    base = spec.topology()
    budget = spec.default_budget if budget is None else budget
    if critical is None:
        if spec.critical_processors is not None:
            critical = spec.critical_processors
        else:
            order = processor_names(base)
            critical = tuple(dict.fromkeys((order[0], order[-1])))
    unknown = [p for p in critical if p not in base.processors]
    if unknown:
        raise ReproError(
            f"critical processors {unknown} not in scenario "
            f"{spec.name!r}"
        )
    unweighted_alloc = context.size(
        base, budget, sizer_kwargs=sizer_kwargs
    ).allocation
    # Rebuild with elevated loss weights on the critical processors.
    weighted = rebuilt_topology(
        base,
        name=f"{base.name}-weighted",
        processor_loss_weight=lambda proc: (
            weight if proc.name in critical else proc.loss_weight
        ),
    )
    weighted_alloc = context.size(
        weighted, budget, sizer_kwargs=sizer_kwargs
    ).allocation

    neutral_summary = context.replicate(
        base,
        unweighted_alloc.as_capacities(),
        replications=replications,
        duration=duration,
    )
    # The weighted configuration deploys the policy's arbitration too:
    # critical clients get service priority proportional to their weight.
    arbiter_weights = {
        name: weight if name in critical else 1.0
        for name in weighted_alloc.sizes
    }
    weighted_summary = context.replicate(
        base,
        weighted_alloc.as_capacities(),
        replications=replications,
        duration=duration,
        arbiter_kind="weighted_random",
        arbiter_weights=arbiter_weights,
    )
    critical_list = list(critical)
    return WeightedLossResult(
        critical=critical_list,
        weight=weight,
        weighted_alloc_sizes=dict(weighted_alloc.sizes),
        unweighted_alloc_sizes=dict(unweighted_alloc.sizes),
        critical_loss_weighted=sum(
            weighted_summary.mean_loss(p) for p in critical_list
        ),
        critical_loss_unweighted=sum(
            neutral_summary.mean_loss(p) for p in critical_list
        ),
        total_loss_weighted=weighted_summary.mean_total_loss(),
        total_loss_unweighted=neutral_summary.mean_total_loss(),
    )
