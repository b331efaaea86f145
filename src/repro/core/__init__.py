"""The paper's contribution: CTMDP-based buffer insertion and sizing.

Layering (bottom up):

* :mod:`repro.core.ctmdp` / :mod:`repro.core.policy` — the CTMDP IR and
  stationary randomised policies.
* :mod:`repro.core.lp` — the occupation-measure LP (Feinberg 2002) and
  the multi-block joint LP used after splitting.
* :mod:`repro.core.dp` — value/policy iteration cross-checks.
* :mod:`repro.core.bus_model` — bus + finite-buffer clients as CTMDPs
  (exact joint and decomposed forms).
* :mod:`repro.core.splitting` — bridge splitting into linear subsystems.
* :mod:`repro.core.quadratic` — the naive coupled formulation (the
  paper's negative result, kept as an ablation baseline).
* :mod:`repro.core.kswitching` — occupation measures to integer buffer
  sizes.
* :mod:`repro.core.sizing` — the end-to-end :class:`BufferSizer`.
"""

from repro.core.bus_model import (
    BUS_TIME,
    IDLE,
    SPACE,
    BusClient,
    build_client_chain_ctmdp,
    build_joint_bus_ctmdp,
)
from repro.core.ctmdp import CTMDP
from repro.core.dp import policy_iteration, relative_value_iteration
from repro.core.kswitching import (
    ClientDemand,
    SwitchingMixture,
    allocate_greedy,
    switching_mixture,
)
from repro.core.lp import AverageCostLP, BlockLP, ConstraintSpec, LPSolution
from repro.core.policy import StationaryPolicy, policy_from_occupation_measure
from repro.core.quadratic import QuadraticCoupledSizer, QuadraticDiagnostics
from repro.core.sizing import BufferAllocation, BufferSizer, SizingResult
from repro.core.splitting import (
    SplitSystem,
    Subsystem,
    bridge_arrival_rates,
    quadratic_coupling_count,
    split,
)

__all__ = [
    "AverageCostLP",
    "BUS_TIME",
    "BlockLP",
    "BufferAllocation",
    "BufferSizer",
    "BusClient",
    "CTMDP",
    "ClientDemand",
    "ConstraintSpec",
    "IDLE",
    "LPSolution",
    "QuadraticCoupledSizer",
    "QuadraticDiagnostics",
    "SPACE",
    "SizingResult",
    "SplitSystem",
    "StationaryPolicy",
    "Subsystem",
    "SwitchingMixture",
    "allocate_greedy",
    "bridge_arrival_rates",
    "build_client_chain_ctmdp",
    "build_joint_bus_ctmdp",
    "policy_from_occupation_measure",
    "policy_iteration",
    "quadratic_coupling_count",
    "relative_value_iteration",
    "split",
    "switching_mixture",
]
