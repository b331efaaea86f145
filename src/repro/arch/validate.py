"""Load-level analysis of topologies.

:meth:`repro.arch.topology.Topology.validate` checks *structure*;
:func:`cluster_loads` reports *load*: whether each bus cluster could
keep up with its offered traffic at all (utilisation), as ``repro
inspect`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.arch.topology import Topology


@dataclass(frozen=True)
class ClusterLoad:
    """Offered load summary of one bus cluster.

    Attributes
    ----------
    cluster:
        The buses forming the cluster.
    offered_rate:
        Total mean request rate entering the cluster (local sources plus
        bridge ingress, un-thinned).
    utilisation:
        Offered rate divided by an optimistic service capacity (the mean
        of the member clients' service rates) — above ~1 the cluster is
        overloaded and *must* lose traffic regardless of buffer sizes.
    """

    cluster: frozenset
    offered_rate: float
    utilisation: float


def cluster_loads(topology: Topology) -> List[ClusterLoad]:
    """Per-cluster offered load, including bridge ingress traffic.

    Bridge ingress is counted at its *offered* (un-thinned) rate, so this
    is a conservative upper bound on real load.
    """
    topology.validate()
    loads: List[ClusterLoad] = []
    for cluster in topology.bus_clusters():
        offered = 0.0
        service_rates: List[float] = []
        for proc in topology.cluster_processors(cluster):
            offered += topology.processor_offered_rate(proc.name)
            service_rates.append(proc.service_rate)
        # Bridge ingress: flows whose route enters this cluster from
        # outside contribute their full rate.
        for flow in topology.flows.values():
            route = topology.route(flow.name)
            for i, visited in enumerate(route.clusters):
                if visited == cluster and i > 0:
                    offered += flow.rate
        for bridge in topology.cluster_bridges(cluster):
            service_rates.append(bridge.service_rate)
        mean_service = sum(service_rates) / len(service_rates)
        loads.append(
            ClusterLoad(
                cluster=cluster,
                offered_rate=offered,
                utilisation=offered / mean_service,
            )
        )
    return loads
