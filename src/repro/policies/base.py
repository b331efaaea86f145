"""Common interface for buffer-allocation policies."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List

from repro.arch.topology import Topology
from repro.core.bus_model import BusClient
from repro.core.sizing import BufferAllocation
from repro.core.splitting import split
from repro.errors import PolicyError


@dataclass(frozen=True)
class SizingClient:
    """One buffer the policy must size.

    Attributes
    ----------
    name:
        Client buffer name (processor or bridge-entry).
    arrival_rate:
        Offered mean rate (un-thinned).
    service_rate:
        Bus service rate of this client's transactions.
    loss_weight:
        Importance in the loss objective.
    competitors:
        Number of clients sharing the same subsystem bus (for effective
        service-share heuristics).
    """

    name: str
    arrival_rate: float
    service_rate: float
    loss_weight: float
    competitors: int


def sizing_clients(topology: Topology) -> List[SizingClient]:
    """Every buffer a policy must size, with offered rates.

    Same client vocabulary as the CTMDP pipeline and the simulator:
    processors plus the bridge-entry buffers actually used by flows.
    """
    system = split(topology, capacity_cap=1)
    clients: List[SizingClient] = []
    for sub in system.subsystems:
        n = len(sub.clients)
        for client in sub.clients:
            clients.append(
                SizingClient(
                    name=client.name,
                    arrival_rate=client.arrival_rate,
                    service_rate=client.service_rate,
                    loss_weight=client.loss_weight,
                    competitors=n,
                )
            )
    return clients


class SizingPolicy(abc.ABC):
    """Interface every allocation policy implements."""

    #: Human-readable policy name used in reports.
    name: str = "base"

    @abc.abstractmethod
    def allocate(self, topology: Topology, budget: int) -> BufferAllocation:
        """Distribute ``budget`` slots over all sizing clients."""

    @staticmethod
    def _check_budget(budget: int, num_clients: int) -> None:
        if budget < num_clients:
            raise PolicyError(
                f"budget {budget} cannot give {num_clients} clients "
                f"1 slot each"
            )


def largest_remainder_rounding(
    shares: Dict[str, float], budget: int
) -> Dict[str, int]:
    """Round fractional shares to integers summing exactly to ``budget``.

    Every client first receives one slot; the remaining slots are
    apportioned by the largest-remainder method on the shares, with ties
    broken by name for determinism.
    """
    if not shares:
        raise PolicyError("no clients to size")
    names = sorted(shares)
    if budget < len(names):
        raise PolicyError(
            f"budget {budget} below minimum {len(names)}"
        )
    spare = budget - len(names)
    total_share = sum(max(shares[n], 0.0) for n in names)
    if total_share <= 0:
        # Degenerate: no traffic at all; spread evenly.
        quotas = {n: spare / len(names) for n in names}
    else:
        quotas = {
            n: spare * max(shares[n], 0.0) / total_share for n in names
        }
    sizes = {n: 1 + int(quotas[n]) for n in names}
    remainders = sorted(
        names,
        key=lambda n: (-(quotas[n] - int(quotas[n])), n),
    )
    leftover = budget - sum(sizes.values())
    for n in remainders[:leftover]:
        sizes[n] += 1
    return sizes
