"""Table 1: loss before/after sizing under varying total buffer size.

The paper reports pre/post loss counts for processors 1, 4, 15 and 16 at
total buffer budgets 160, 320 and 640, observing that (a) with very
limited space (160) redistribution helps little and some processors get
worse, and (b) post-sizing losses fall with budget and reach zero at 640.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.loss import PolicyComparison, compare_policies
from repro.analysis.report import format_table
from repro.arch.topology import processor_names
from repro.errors import ReproError
from repro.exec import ExecutionContext
from repro.experiments.common import (
    PAPER_DURATION,
    PAPER_REPLICATIONS,
    POST,
    PRE,
    scenario_setup,
)
from repro.policies.uniform import UniformSizing
from repro.scenarios import ScenarioSpec

#: The processors the paper's table displays.
PAPER_PROCESSORS = ("p1", "p4", "p15", "p16")
#: The paper's budget axis (the netproc scenario's declared axis).
PAPER_BUDGETS = (160, 320, 640)


@dataclass
class Table1Result:
    """The reproduced Table 1."""

    budgets: List[int]
    comparisons: Dict[int, PolicyComparison]
    processors: List[str]
    scenario: str = "netproc"

    def cell(self, budget: int, processor: str, config: str) -> float:
        """Mean loss count for one (budget, processor, pre/post) cell."""
        if budget not in self.comparisons:
            raise ReproError(f"budget {budget} was not swept")
        return self.comparisons[budget].per_processor(config).get(
            processor, 0.0
        )

    def total(self, budget: int, config: str) -> float:
        """System-wide mean loss at one budget."""
        if budget not in self.comparisons:
            raise ReproError(f"budget {budget} was not swept")
        return self.comparisons[budget].mean_total_loss(config)

    def render(self, processors: Optional[Sequence[str]] = None) -> str:
        """ASCII reproduction of Table 1 (pre/post per budget).

        The paper's four-processor row subset applies only to the
        netproc scenario it was written about; every other scenario
        shows all of its processors by default (name collisions like
        fig1's p1/p4 must not silently truncate the table).
        """
        if processors is None:
            processors = (
                PAPER_PROCESSORS
                if self.scenario == "netproc"
                else self.processors
            )
        headers = ["PROCESSOR"]
        for budget in self.budgets:
            headers += [f"Buf {budget} pre", f"Buf {budget} post"]
        rows = []
        for proc in processors:
            row: List[object] = [proc]
            for budget in self.budgets:
                row.append(self.cell(budget, proc, PRE))
                row.append(self.cell(budget, proc, POST))
            rows.append(row)
        total_row: List[object] = ["TOTAL"]
        for budget in self.budgets:
            total_row.append(self.total(budget, PRE))
            total_row.append(self.total(budget, POST))
        rows.append(total_row)
        return format_table(
            headers, rows, title="Table 1 — loss under varying total buffer size"
        )


def run_table1(
    budgets: Optional[Sequence[int]] = None,
    duration: Optional[float] = None,
    replications: Optional[int] = None,
    sizer_kwargs: dict | None = None,
    context: Optional[ExecutionContext] = None,
    scenario: Union[str, ScenarioSpec, None] = None,
) -> Table1Result:
    """Sweep the total budget and compare pre/post losses.

    ``scenario`` selects the architecture (default: netproc, whose
    declared budget axis is the paper's 160/320/640); ``budgets``
    defaults to the scenario's axis, ``duration``/``replications`` to
    :data:`~repro.experiments.common.PAPER_DURATION` and
    :data:`~repro.experiments.common.PAPER_REPLICATIONS`.  The CTMDP sizings run through the execution
    runtime's budget-sweep scheduler: consecutive budgets warm-start
    each other's bridge fixed point (disable via the context's
    ``warm_start=False``), results are memoised in the context's cache
    under scenario-scoped keys, and the replication batches of every
    budget fan out over the context's process pool.
    """
    spec, context, sizer_kwargs = scenario_setup(
        scenario, context, sizer_kwargs
    )
    if budgets is None:
        budgets = spec.budgets
    if not budgets:
        raise ReproError("table 1 needs at least one budget")
    duration = PAPER_DURATION if duration is None else duration
    replications = (
        PAPER_REPLICATIONS if replications is None else replications
    )
    topology = spec.topology()
    processors = processor_names(topology)
    budget_list = [int(b) for b in budgets]
    sweep = context.sweep(topology, budget_list, sizer_kwargs=sizer_kwargs)
    comparisons: Dict[int, PolicyComparison] = {}
    for budget in budget_list:
        comparisons[budget] = compare_policies(
            topology,
            {
                PRE: UniformSizing().allocate(topology, budget),
                POST: sweep.result_for(budget).allocation,
            },
            replications=replications,
            duration=duration,
            processors=processors,
            context=context,
        )
    return Table1Result(
        budgets=budget_list,
        comparisons=comparisons,
        processors=processors,
        scenario=spec.name,
    )
