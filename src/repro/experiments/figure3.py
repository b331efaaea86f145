"""Figure 3: per-processor loss before sizing, after sizing, timeout.

The paper plots three bars per processor (17 processors, 10 iterations):
loss before buffer sizing (constant allocation), after CTMDP resizing,
and under the timeout policy.  The expected *shape*: post-sizing bars
mostly below pre-sizing, a few processors slightly worse (the paper's
processor 1), the timeout policy worst in aggregate.

The driver is scenario-generic: ``scenario=`` regenerates the same
figure on any registered scenario (the default is the paper's netproc
testbed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.analysis.loss import PolicyComparison, compare_policies
from repro.analysis.report import bar_chart, format_table
from repro.analysis.stats import relative_improvement
from repro.exec import ExecutionContext
from repro.experiments.common import (
    PAPER_DURATION,
    PAPER_REPLICATIONS,
    POST,
    PRE,
    TIMEOUT,
    ScenarioExperiment,
    scenario_setup,
)
from repro.scenarios import ScenarioSpec


@dataclass
class Figure3Result:
    """The reproduced Figure 3."""

    experiment: ScenarioExperiment
    comparison: PolicyComparison
    budget: int

    def per_processor(self) -> Dict[str, Dict[str, float]]:
        """``config -> processor -> mean loss count``."""
        return {
            name: self.comparison.per_processor(name)
            for name in (PRE, POST, TIMEOUT)
        }

    def improvement_vs_pre(self) -> float:
        """Fractional total-loss reduction of post vs pre (paper: ~0.2)."""
        return self.comparison.improvement_over(PRE, POST)

    def improvement_vs_timeout(self) -> float:
        """Fractional total-loss reduction of post vs timeout (paper: ~0.5)."""
        return self.comparison.improvement_over(TIMEOUT, POST)

    def render(self, width: int = 40) -> str:
        """ASCII reproduction of the figure plus the aggregate numbers."""
        data = self.per_processor()
        chart = bar_chart(
            {name: data[name] for name in (PRE, POST, TIMEOUT)},
            categories=self.experiment.processors,
            width=width,
            title=(
                f"Figure 3 [{self.experiment.scenario.name}] — "
                f"per-processor mean loss "
                f"(budget={self.budget}, "
                f"{self.comparison.summaries[PRE].num_replications} reps)"
            ),
        )
        rows = [
            (
                "total loss",
                self.comparison.mean_total_loss(PRE),
                self.comparison.mean_total_loss(POST),
                self.comparison.mean_total_loss(TIMEOUT),
            )
        ]
        table = format_table(
            ["metric", "pre", "post", "timeout"], rows, title=""
        )
        summary = (
            f"post vs pre improvement:     {self.improvement_vs_pre():6.1%}\n"
            f"post vs timeout improvement: {self.improvement_vs_timeout():6.1%}"
        )
        return "\n\n".join([chart, table, summary])


def run_figure3(
    budget: Optional[int] = None,
    duration: Optional[float] = None,
    replications: Optional[int] = None,
    sizer_kwargs: dict | None = None,
    context: Optional[ExecutionContext] = None,
    scenario: Union[str, ScenarioSpec, None] = None,
) -> Figure3Result:
    """Regenerate Figure 3 on one scenario (default: netproc).

    ``budget`` defaults to the scenario's declared budget (netproc:
    160), ``duration``/``replications`` to :data:`PAPER_DURATION` and
    :data:`PAPER_REPLICATIONS` (3000, 10 — the paper configuration).
    ``context`` routes the sizing run and the three replication batches
    through the execution runtime (process pool + result cache), with
    cache keys scoped to the scenario.
    """
    # build() re-runs the same prologue on the resolved spec/scoped
    # context/merged sizer; scenario_setup is idempotent on its own
    # outputs, so both call sites stay in lockstep by construction.
    spec, context, sizer_kwargs = scenario_setup(
        scenario, context, sizer_kwargs
    )
    experiment = ScenarioExperiment.build(
        scenario=spec,
        budget=budget,
        sizer_kwargs=sizer_kwargs,
        context=context,
    )
    duration = PAPER_DURATION if duration is None else duration
    replications = (
        PAPER_REPLICATIONS if replications is None else replications
    )
    comparison = compare_policies(
        experiment.topology,
        experiment.allocations,
        replications=replications,
        duration=duration,
        timeout_thresholds=experiment.timeout_thresholds(),
        processors=experiment.processors,
        context=context,
    )
    return Figure3Result(
        experiment=experiment,
        comparison=comparison,
        budget=experiment.allocations[PRE].total,
    )
