"""Hop construction: the buffers a flow's packets pass through.

A packet waits first in its source processor's buffer, then in the
entry buffer of every bridge it crosses, named by
:func:`repro.arch.topology.client_name_for_bridge` as the sizing
pipeline names them.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.arch.topology import (
    Route,
    Topology,
    bridge_entry_bus,
    client_name_for_bridge,
)
from repro.sim.packet import Hop


def build_hops(
    topology: Topology,
    flow_name: str,
    cluster_index: dict,
) -> Tuple[Hop, ...]:
    """The hop list a packet of ``flow_name`` traverses.

    First hop: the source processor's own buffer on its cluster.  Each
    bridge crossing appends a hop through the bridge's entry buffer on
    the *entered* cluster.
    """
    flow = topology.flows[flow_name]
    route: Route = topology.route(flow_name)
    source = topology.processors[flow.source]
    hops: List[Hop] = [
        Hop(
            cluster_index[route.clusters[0]],
            source.name,
            source.service_rate,
        )
    ]
    for bridge_name, entered in zip(route.bridges, route.clusters[1:]):
        bridge = topology.bridges[bridge_name]
        entry_bus = bridge_entry_bus(bridge, entered)
        hops.append(
            Hop(
                cluster_index[entered],
                client_name_for_bridge(bridge_name, entry_bus),
                bridge.service_rate,
            )
        )
    return tuple(hops)
