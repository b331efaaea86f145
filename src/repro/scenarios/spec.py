"""Declarative description of one evaluation scenario.

A :class:`ScenarioSpec` bundles everything an experiment driver needs to
run end to end on one architecture family: the topology builder, the
default budget axis, the calibration horizon and the weighted-loss
critical set.  Every driver in
:mod:`repro.experiments`, the CLI and the benchmarks resolve a spec by
name from :mod:`repro.scenarios.registry` instead of hardcoding the
network-processor testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.arch.topology import Topology, rebuilt_topology
from repro.errors import ReproError

#: Builder signature: ``builder(arch_seed, load_scale) -> Topology``.
TopologyBuilder = Callable[[int, float], Topology]


def scaled_topology(topology: Topology, load_scale: float) -> Topology:
    """Rebuild a topology with every flow's traffic scaled in mean rate.

    The generic load knob for builders without a native ``load_scale``
    parameter (the hand-written templates): structure, service rates and
    loss weights are preserved, each flow's traffic descriptor is
    replaced by ``descriptor.scaled(load_scale)``.

    At ``load_scale == 1.0`` the *same* topology object is returned,
    not a copy (builders construct a fresh instance per call, so the
    fast path never aliases shared state); callers who intend to
    mutate the result should copy via
    :func:`repro.arch.topology.rebuilt_topology` instead.
    """
    if load_scale <= 0:
        raise ReproError(f"load_scale must be > 0, got {load_scale}")
    if load_scale == 1.0:
        return topology
    return rebuilt_topology(
        topology,
        flow_traffic=lambda flow: flow.traffic.scaled(load_scale),
    )


def template_builder(factory: Callable[[], Topology]) -> TopologyBuilder:
    """Adapt a zero-argument template generator to the builder signature.

    Templates are fully deterministic, so ``arch_seed`` is ignored; the
    load knob is implemented by :func:`scaled_topology`.
    """

    def build(arch_seed: int, load_scale: float) -> Topology:
        return scaled_topology(factory(), load_scale)

    return build


@dataclass(frozen=True)
class ScenarioSpec:
    """One named evaluation scenario, declaratively.

    Attributes
    ----------
    name:
        Registry key (``repro scenarios list``, ``--scenario``).
    description:
        One-line summary shown by the CLI listing.
    builder:
        ``builder(arch_seed, load_scale) -> Topology``; the topology
        every driver of this scenario simulates and sizes.
    arch_seed:
        Seed passed to the builder (deterministic templates ignore
        it).
    default_budget:
        Total buffer budget for single-budget drivers (figure3, the
        extension studies).
    budgets:
        Budget axis for sweep drivers (table1).
    calibration_duration:
        Horizon of the timeout-threshold calibration simulation.
    critical_processors:
        Default critical set of the weighted-loss extension (``None``
        falls back to the first and last processor in report order).
    params:
        Parameters a parametric family resolved this spec from (part of
        the cache scope so distinct members never share entries).
    """

    name: str
    description: str
    builder: TopologyBuilder
    arch_seed: int = 2005
    default_budget: int = 160
    budgets: Tuple[int, ...] = (160, 320, 640)
    calibration_duration: float = 3_000.0
    critical_processors: Optional[Tuple[str, ...]] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("scenario name must be non-empty")
        if self.default_budget < 1:
            raise ReproError(
                f"default_budget must be >= 1, got {self.default_budget}"
            )
        if not self.budgets:
            raise ReproError(f"scenario {self.name!r} needs a budget axis")

    # ------------------------------------------------------------------

    def topology(self, load_scale: float = 1.0) -> Topology:
        """Build the scenario's topology (validated)."""
        return self.builder(self.arch_seed, float(load_scale))

    def cache_scope(self) -> Dict[str, Any]:
        """The scenario's contribution to execution-runtime cache keys.

        Scopes cached sizing and replication results per scenario: two
        scenarios never share entries even if their topologies happen to
        fingerprint identically (e.g. a registry rename or a parametric
        family whose members collide structurally).
        """
        return {"name": self.name, "params": dict(self.params)}
