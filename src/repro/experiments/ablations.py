"""Ablations: the experiments DESIGN.md adds beyond the paper's tables.

* :func:`run_split_vs_quadratic` — E4: the naive coupled formulation
  (Matlab's failure in the paper) against the split + joint-LP method on
  the Figure 1 architecture.
* :func:`run_solver_agreement` — E5: LP vs relative value iteration vs
  policy iteration on random unconstrained bus models.
* :func:`run_policy_sweep` — E6: allocation policies across load levels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.sweep import SweepPoint, load_sweep
from repro.arch.templates import paper_figure1
from repro.arch.topology import Topology
from repro.core.bus_model import BusClient, build_joint_bus_ctmdp
from repro.core.dp import policy_iteration, relative_value_iteration
from repro.core.lp import AverageCostLP
from repro.core.quadratic import QuadraticCoupledSizer, QuadraticDiagnostics
from repro.core.sizing import BufferSizer, SizingResult
from repro.core.splitting import quadratic_coupling_count
from repro.errors import ReproError
from repro.exec import ExecutionContext
from repro.policies.analytic import AnalyticGreedySizing
from repro.policies.ctmdp_policy import CTMDPSizing
from repro.policies.proportional import ProportionalSizing
from repro.policies.uniform import UniformSizing


@dataclass
class SplitVsQuadraticResult:
    """E4: the naive coupled formulation vs the split method.

    The paper could not solve the coupled quadratic system with Matlab
    6.1 at all.  Modern SLSQP *can* solve tiny instances, but the
    variable count is exponential in the per-client buffer depth (the
    full joint lattice), so wall time explodes immediately — the
    quantitative form of the paper's negative result.  The split method
    solves per-cluster *linear* programs whose size is polynomial in the
    depth, and is unaffected.
    """

    quadratic_by_capacity: Dict[int, QuadraticDiagnostics]
    split_result: SizingResult
    split_wall_time: float
    coupling_count: int

    def render(self) -> str:
        rows = []
        for cap, diag in sorted(self.quadratic_by_capacity.items()):
            rows.append(
                (
                    f"naive coupled, depth {cap}",
                    str(diag.success),
                    diag.wall_time_seconds,
                    f"{diag.num_variables} vars, "
                    f"{diag.num_bilinear_terms} bilinear terms",
                )
            )
        rows.append(
            (
                "split + joint LP (paper)",
                "True",
                self.split_wall_time,
                f"{self.coupling_count} bridge couplings removed",
            )
        )
        table = format_table(
            ["formulation", "solved", "wall_time_s", "problem size"],
            rows,
            title="E4 — naive coupled formulation vs bridge splitting "
            "(paper Figure 1)",
        )
        detail = (
            f"split expected loss: {self.split_result.expected_loss_rate:.4f} "
            f"(fixed point in {self.split_result.fixed_point_iterations} "
            "iterations)"
        )
        return table + "\n" + detail


def run_split_vs_quadratic(
    budget: int = 24,
    quadratic_capacities: Sequence[int] = (1, 2),
    quadratic_max_iter: int = 50,
) -> SplitVsQuadraticResult:
    """E4 on the paper's Figure 1 architecture.

    Runs the naive solver at increasing buffer depths to expose its
    exponential scaling, then the split pipeline at full budget.
    """
    topology = paper_figure1()
    quadratic_by_capacity = {}
    for cap in quadratic_capacities:
        quadratic_by_capacity[int(cap)] = QuadraticCoupledSizer(
            capacity=int(cap), max_iter=quadratic_max_iter
        ).solve(topology)
    start = time.perf_counter()
    split_result = BufferSizer(total_budget=budget).size(topology)
    split_time = time.perf_counter() - start
    return SplitVsQuadraticResult(
        quadratic_by_capacity=quadratic_by_capacity,
        split_result=split_result,
        split_wall_time=split_time,
        coupling_count=quadratic_coupling_count(topology),
    )


@dataclass
class SolverAgreementResult:
    """E5: max deviation between LP, VI and PI average costs."""

    instances: int
    max_lp_vi_gap: float
    max_lp_pi_gap: float

    def render(self) -> str:
        return format_table(
            ["pair", "max |gap|"],
            [
                ("LP vs value iteration", self.max_lp_vi_gap),
                ("LP vs policy iteration", self.max_lp_pi_gap),
            ],
            title=f"E5 — solver agreement over {self.instances} random buses",
        )


def run_solver_agreement(
    instances: int = 10, seed: int = 0
) -> SolverAgreementResult:
    """E5: three solvers on random small unconstrained bus models."""
    if instances < 1:
        raise ReproError(f"instances must be >= 1, got {instances}")
    rng = np.random.default_rng(seed)
    max_vi = 0.0
    max_pi = 0.0
    for _ in range(instances):
        clients = [
            BusClient(
                f"c{i}",
                arrival_rate=float(rng.uniform(0.3, 2.0)),
                service_rate=float(rng.uniform(1.0, 3.5)),
                capacity=int(rng.integers(1, 4)),
                loss_weight=float(rng.uniform(0.5, 3.0)),
            )
            for i in range(2)
        ]
        model = build_joint_bus_ctmdp(clients)
        lp = AverageCostLP(model).solve().objective
        vi = relative_value_iteration(model, tol=1e-11).average_cost_rate
        pi = policy_iteration(model).average_cost_rate
        max_vi = max(max_vi, abs(lp - vi))
        max_pi = max(max_pi, abs(lp - pi))
    return SolverAgreementResult(
        instances=instances, max_lp_vi_gap=max_vi, max_lp_pi_gap=max_pi
    )


@dataclass
class PolicySweepResult:
    """E6: total losses per policy per load level."""

    points: List[SweepPoint]
    policy_names: List[str]

    def totals(self) -> Dict[str, List[float]]:
        """``policy -> total loss per sweep point``."""
        return {
            name: [p.comparison.mean_total_loss(name) for p in self.points]
            for name in self.policy_names
        }

    def render(self) -> str:
        headers = ["load scale"] + self.policy_names
        rows = []
        for point in self.points:
            row: List[object] = [f"{point.parameter:.2f}"]
            for name in self.policy_names:
                row.append(point.comparison.mean_total_loss(name))
            rows.append(row)
        return format_table(
            headers, rows,
            title="E6 — mean total loss per allocation policy across load",
        )


def run_policy_sweep(
    load_scales: Sequence[float] = (0.6, 1.0, 1.4),
    budget: Optional[int] = None,
    replications: int = 5,
    duration: float = 1_500.0,
    sizer_kwargs: dict | None = None,
    context: Optional[ExecutionContext] = None,
    scenario=None,
) -> PolicySweepResult:
    """E6: uniform / proportional / analytic / CTMDP across load levels.

    ``scenario`` selects the architecture family (default netproc); the
    load axis rebuilds the scenario's topology at each scale, and
    ``budget`` defaults to the scenario's declared budget.
    """
    from repro.experiments.common import scenario_setup

    spec, context, merged_sizer = scenario_setup(
        scenario, context, sizer_kwargs
    )
    budget = spec.default_budget if budget is None else budget
    factories = {
        "uniform": UniformSizing,
        "proportional": ProportionalSizing,
        "analytic": AnalyticGreedySizing,
        "ctmdp": lambda: CTMDPSizing(**(merged_sizer or {})),
    }
    points = load_sweep(
        topology_factory=lambda scale: spec.topology(load_scale=scale),
        load_scales=load_scales,
        budget=budget,
        policy_factories=factories,
        replications=replications,
        duration=duration,
        context=context,
    )
    return PolicySweepResult(
        points=points, policy_names=list(factories)
    )
