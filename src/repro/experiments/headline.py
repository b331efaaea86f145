"""The Section 3 headline claims.

"We repeated these experiments for 10 iterations and found that though
the loss may increase for some processors the overall loss of the system
decreases by about 20% as compared to the constant buffer sizing policy
and 50% for the timeout policy."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.experiments.common import POST, PRE, TIMEOUT
from repro.experiments.figure3 import Figure3Result, run_figure3


@dataclass
class HeadlineResult:
    """Aggregate improvements over the two baselines."""

    figure3: Figure3Result
    improvement_vs_constant: float
    improvement_vs_timeout: float
    some_processor_got_worse: bool

    def render(self) -> str:
        """Aggregate table plus the paper's qualitative observations."""
        comparison = self.figure3.comparison
        rows = [
            ("pre (constant sizing)", comparison.mean_total_loss(PRE)),
            ("post (CTMDP sizing)", comparison.mean_total_loss(POST)),
            ("timeout policy", comparison.mean_total_loss(TIMEOUT)),
        ]
        table = format_table(
            ["configuration", "mean total loss"], rows,
            title="Headline — overall loss across 10 iterations",
        )
        lines = [
            table,
            "",
            f"reduction vs constant sizing: {self.improvement_vs_constant:6.1%}"
            "  (paper: ~20%)",
            f"reduction vs timeout policy:  {self.improvement_vs_timeout:6.1%}"
            "  (paper: ~50%)",
            "some processor's loss increased after resizing: "
            f"{self.some_processor_got_worse}  (paper: yes, e.g. processor 1)",
        ]
        return "\n".join(lines)


def run_headline(
    budget: int | None = None,
    duration: float | None = None,
    replications: int | None = None,
    sizer_kwargs: dict | None = None,
    scenario=None,
) -> HeadlineResult:
    """Compute the aggregate improvements on one scenario (default netproc)."""
    figure3 = run_figure3(
        budget=budget,
        duration=duration,
        replications=replications,
        sizer_kwargs=sizer_kwargs,
        scenario=scenario,
    )
    pre = figure3.comparison.per_processor(PRE)
    post = figure3.comparison.per_processor(POST)
    worse = any(
        post[p] > pre[p] + 1e-9 for p in figure3.experiment.processors
    )
    return HeadlineResult(
        figure3=figure3,
        improvement_vs_constant=figure3.improvement_vs_pre(),
        improvement_vs_timeout=figure3.improvement_vs_timeout(),
        some_processor_got_worse=worse,
    )
