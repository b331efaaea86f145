"""Analytic M/M/1/K greedy sizing — a queueing-theoretic baseline.

Each client is approximated as an isolated M/M/1/K queue whose service
rate is its bus service rate divided by the number of clients competing
for the same bus (a fair-share fluid approximation).  Slots are assigned
greedily to whichever client's *loss rate decreases most* from one more
slot.  Stronger than proportional sizing, but blind to the arbiter's
freedom — the gap to :class:`~repro.policies.ctmdp_policy.CTMDPSizing`
is what the CTMDP models buy.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.arch.topology import Topology
from repro.core.sizing import BufferAllocation
from repro.policies.base import SizingPolicy, sizing_clients
from repro.queueing.mm1k import MM1KQueue


class AnalyticGreedySizing(SizingPolicy):
    """Greedy marginal-loss-decrease allocation on M/M/1/K approximations."""

    name = "analytic_greedy"

    @staticmethod
    def _loss(rate: float, mu: float, k: int, weight: float) -> float:
        if rate <= 0:
            return 0.0
        return weight * MM1KQueue(rate, mu, k).loss_rate()

    def allocate(self, topology: Topology, budget: int) -> BufferAllocation:
        clients = sizing_clients(topology)
        self._check_budget(budget, len(clients))
        sizes: Dict[str, int] = {c.name: 1 for c in clients}
        effective_mu = {
            c.name: c.service_rate / max(c.competitors, 1) for c in clients
        }
        info = {c.name: c for c in clients}

        def gain(name: str) -> float:
            c = info[name]
            k = sizes[name]
            return self._loss(
                c.arrival_rate, effective_mu[name], k, c.loss_weight
            ) - self._loss(
                c.arrival_rate, effective_mu[name], k + 1, c.loss_weight
            )

        heap: List[Tuple[float, str]] = [
            (-gain(c.name), c.name) for c in clients
        ]
        heapq.heapify(heap)
        remaining = budget - sum(sizes.values())
        while remaining > 0:
            neg, name = heapq.heappop(heap)
            fresh = -gain(name)
            if heap and fresh > heap[0][0] + 1e-15:
                heapq.heappush(heap, (fresh, name))
                continue
            sizes[name] += 1
            remaining -= 1
            heapq.heappush(heap, (-gain(name), name))
        return BufferAllocation(sizes=sizes, budget=budget)
