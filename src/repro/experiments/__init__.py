"""Experiment drivers regenerating every table and figure of the paper.

* :mod:`repro.experiments.figure3` — Figure 3: per-processor loss before
  sizing, after CTMDP sizing, and under the timeout policy.
* :mod:`repro.experiments.table1` — Table 1: pre/post losses at total
  budgets 160, 320 and 640.
* :mod:`repro.experiments.headline` — the Section 3 aggregate claims
  (~20% total-loss reduction vs constant sizing, ~50% vs timeout).
* :mod:`repro.experiments.ablations` — split-vs-quadratic, solver
  agreement, and the policy/load sweep.

Every driver is scenario-generic: ``scenario=`` accepts any name from
the :mod:`repro.scenarios` registry (default: ``netproc``, the paper's
testbed), and the execution runtime scopes its cache keys per scenario.
"""

from repro.experiments.common import ScenarioExperiment
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.headline import HeadlineResult, run_headline
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.ablations import (
    PolicySweepResult,
    SolverAgreementResult,
    SplitVsQuadraticResult,
    run_policy_sweep,
    run_solver_agreement,
    run_split_vs_quadratic,
)
from repro.experiments.extensions import (
    BurstinessResult,
    WeightedLossResult,
    run_burstiness,
    run_weighted_loss,
)

__all__ = [
    "BurstinessResult",
    "Figure3Result",
    "HeadlineResult",
    "PolicySweepResult",
    "ScenarioExperiment",
    "SolverAgreementResult",
    "SplitVsQuadraticResult",
    "Table1Result",
    "WeightedLossResult",
    "run_burstiness",
    "run_figure3",
    "run_headline",
    "run_policy_sweep",
    "run_solver_agreement",
    "run_split_vs_quadratic",
    "run_table1",
    "run_weighted_loss",
]
