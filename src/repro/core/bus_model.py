"""CTMDP models of a shared bus with finite per-client buffers.

A *client* of a bus is anything that owns a buffer feeding that bus: a
processor issuing requests, or a **bridge buffer** inserted by the split
method of :mod:`repro.core.splitting`.  Each client ``i`` has

* a Poisson request rate ``lambda_i`` into its buffer,
* an exponential bus-service rate ``mu_i`` for its requests,
* a buffer capacity ``k_i`` (the quantity the paper optimises),
* a loss weight ``w_i`` ("allowing some losses to be more important than
  the others", Section 3).

Two CTMDP constructions are provided:

:func:`build_joint_bus_ctmdp`
    The exact model.  State = the vector of buffer occupancies; action =
    which non-empty buffer the arbiter serves (preemptive-resume
    arbitration, memoryless thanks to exponential service).  Lost
    arrivals appear as cost rate ``w_j * lambda_j`` accrued while buffer
    ``j`` is full.  State count is ``prod_i (k_i + 1)``, so this is used
    for buses with a handful of clients — e.g. every subsystem of the
    paper's Figure 1.

:func:`build_client_chain_ctmdp`
    The decomposed model used when the joint lattice would explode (the
    17-processor network-processor testbed).  Each client becomes its own
    birth-death CTMDP with actions ``serve``/``idle``; the bus is
    recovered as a *shared linear constraint* in the joint
    :class:`~repro.core.lp.BlockLP`: the total fraction of time clients
    are being served may not exceed one.  This keeps everything linear —
    exactly the property the paper's split is designed to preserve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.errors import ModelError

#: Constraint name for expected occupied buffer space.
SPACE = "space"
#: Constraint name for the fraction of bus time a client holds the bus.
BUS_TIME = "bus_time"
#: Action label meaning "the arbiter grants nobody".
IDLE = "idle"


@dataclass(frozen=True)
class BusClient:
    """A buffer-owning client of one bus.

    Parameters
    ----------
    name:
        Unique identifier within the bus (processor or bridge-buffer name).
    arrival_rate:
        Poisson rate of requests entering this client's buffer.
    service_rate:
        Exponential rate at which the bus drains one of this client's
        requests once granted.
    capacity:
        Buffer capacity used when building the CTMDP state space.  During
        sizing this is the *maximum* size the optimiser may assign, not
        the final allocation.
    loss_weight:
        Relative importance of this client's losses in the objective.
    """

    name: str
    arrival_rate: float
    service_rate: float
    capacity: int
    loss_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("client name must be non-empty")
        if self.arrival_rate < 0:
            raise ModelError(
                f"client {self.name!r}: arrival rate must be >= 0"
            )
        if self.service_rate <= 0:
            raise ModelError(
                f"client {self.name!r}: service rate must be > 0"
            )
        if self.capacity < 1:
            raise ModelError(f"client {self.name!r}: capacity must be >= 1")
        if self.loss_weight < 0:
            raise ModelError(
                f"client {self.name!r}: loss weight must be >= 0"
            )

    def with_capacity(self, capacity: int) -> "BusClient":
        """A copy of this client with a different buffer capacity."""
        return BusClient(
            name=self.name,
            arrival_rate=self.arrival_rate,
            service_rate=self.service_rate,
            capacity=capacity,
            loss_weight=self.loss_weight,
        )

    def with_arrival_rate(self, arrival_rate: float) -> "BusClient":
        """A copy of this client with a different arrival rate."""
        return BusClient(
            name=self.name,
            arrival_rate=arrival_rate,
            service_rate=self.service_rate,
            capacity=self.capacity,
            loss_weight=self.loss_weight,
        )


def _check_clients(clients: Sequence[BusClient]) -> List[BusClient]:
    clients = list(clients)
    if not clients:
        raise ModelError("a bus needs at least one client")
    names = [c.name for c in clients]
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate client names in {names}")
    return clients


def build_joint_bus_ctmdp(clients: Sequence[BusClient]) -> CTMDP:
    """Exact joint CTMDP of one bus (see module docstring).

    States are occupancy tuples ``(q_1, ..., q_n)``; actions are the names
    of clients with a non-empty buffer (plus :data:`IDLE` when all buffers
    are empty).  The cost rate of every (state, action) pair is the
    weighted loss rate ``sum_{j : q_j = k_j} w_j lambda_j``; constraint
    rates are the total occupied space (:data:`SPACE`) plus one
    ``space:<client>`` rate per client for marginal accounting.
    """
    clients = _check_clients(clients)
    model = CTMDP()
    capacities = [c.capacity for c in clients]
    for occupancy in itertools.product(*(range(k + 1) for k in capacities)):
        state = tuple(occupancy)
        loss_rate = sum(
            c.loss_weight * c.arrival_rate
            for q, c in zip(state, clients)
            if q == c.capacity
        )
        constraint_rates = {SPACE: float(sum(state))}
        for q, c in zip(state, clients):
            constraint_rates[f"{SPACE}:{c.name}"] = float(q)
        serveable = [i for i, q in enumerate(state) if q > 0]
        actions = [clients[i].name for i in serveable] or [IDLE]
        for action in actions:
            transitions: List[Tuple[tuple, float]] = []
            # Arrivals into every non-full buffer.
            for j, c in enumerate(clients):
                if state[j] < c.capacity and c.arrival_rate > 0:
                    target = list(state)
                    target[j] += 1
                    transitions.append((tuple(target), c.arrival_rate))
            # Service completion for the granted client.
            if action != IDLE:
                i = next(
                    idx for idx, c in enumerate(clients) if c.name == action
                )
                target = list(state)
                target[i] -= 1
                transitions.append((tuple(target), clients[i].service_rate))
            model.add_action(
                state,
                action,
                transitions,
                cost_rate=loss_rate,
                constraint_rates=constraint_rates,
            )
    model.validate()
    return model


def build_client_chain_ctmdp(
    client: BusClient, holding_cost_rate: float = 0.0
) -> CTMDP:
    """Decomposed per-client CTMDP with ``serve``/``idle`` actions.

    States are this client's occupancies ``0..k``.  In states with ``q >
    0`` the arbiter chooses between granting the bus (action ``"serve"``,
    enabling the service transition and accruing :data:`BUS_TIME` rate 1)
    and withholding it (action :data:`IDLE`).  The bus capacity itself is
    *not* modelled here — it is re-imposed as the shared BlockLP row
    ``sum_clients E[time serving] <= 1`` by
    :func:`bus_time_coefficients`.

    ``holding_cost_rate`` adds a cost of that rate per occupied slot.  A
    *small positive* value is essential when this model feeds the sizing
    pipeline: without it the LP has degenerate optima that "park" a queue
    at an interior level forever (serving exactly at the arrival rate
    costs nothing and loses nothing), and the resulting occupancy
    marginals are meaningless for buffer sizing.
    """
    if holding_cost_rate < 0:
        raise ModelError(
            f"holding cost rate must be >= 0, got {holding_cost_rate}"
        )
    model = CTMDP()
    k = client.capacity
    for q in range(k + 1):
        loss_rate = client.loss_weight * client.arrival_rate if q == k else 0.0
        loss_rate += holding_cost_rate * q
        constraint_rates = {
            SPACE: float(q),
            f"{SPACE}:{client.name}": float(q),
        }
        arrivals: List[Tuple[int, float]] = []
        if q < k and client.arrival_rate > 0:
            arrivals.append((q + 1, client.arrival_rate))
        # Action: idle (never serve).
        model.add_action(
            q,
            IDLE,
            arrivals,
            cost_rate=loss_rate,
            constraint_rates=constraint_rates,
        )
        # Action: serve (only meaningful when there is work).
        if q > 0:
            transitions = arrivals + [(q - 1, client.service_rate)]
            model.add_action(
                q,
                "serve",
                transitions,
                cost_rate=loss_rate,
                constraint_rates={**constraint_rates, BUS_TIME: 1.0},
            )
    model.validate()
    return model


def bus_time_coefficients(
    model: CTMDP,
) -> Dict[Tuple, float]:
    """Coefficients of one client block in the shared bus-time row.

    Returns ``{(state, action): bus_time_rate}`` restricted to non-zero
    entries, ready for :meth:`repro.core.lp.BlockLP.add_shared_constraint`.
    """
    coeffs: Dict[Tuple, float] = {}
    for s, a in model.state_action_pairs():
        value = model.constraint_rate(BUS_TIME, s, a)
        if value != 0.0:
            coeffs[(s, a)] = value
    return coeffs


def joint_client_marginals(
    clients: Sequence[BusClient],
    occupation: Dict[Tuple, float],
) -> Dict[str, np.ndarray]:
    """Per-client occupancy marginals from a *joint* occupation measure.

    Parameters
    ----------
    clients:
        The client list the joint model was built from (defines ordering).
    occupation:
        ``{(state_tuple, action): mass}`` as returned by the LP.

    Returns
    -------
    dict
        ``{client_name: array p, p[q] = P(client occupancy == q)}``.
    """
    clients = _check_clients(clients)
    marginals = {
        c.name: np.zeros(c.capacity + 1) for c in clients
    }
    for (state, _action), mass in occupation.items():
        if mass <= 0:
            continue
        for i, c in enumerate(clients):
            marginals[c.name][state[i]] += mass
    for name, p in marginals.items():
        total = p.sum()
        if total <= 0:
            raise ModelError(
                f"occupation measure has no mass for client {name!r}"
            )
        marginals[name] = p / total
    return marginals
