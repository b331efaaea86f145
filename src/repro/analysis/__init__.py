"""Loss statistics, sweeps and report rendering for the experiments."""

from repro.analysis.batch_means import (
    BatchMeansEstimate,
    batch_means,
    loss_rate_batch_means,
)
from repro.analysis.loss import PolicyComparison, compare_policies
from repro.analysis.report import bar_chart, format_table
from repro.analysis.stats import (
    confidence_interval,
    relative_improvement,
    summarise,
)
from repro.analysis.sweep import load_sweep
from repro.analysis.validation import (
    ValidationPoint,
    full_validation_suite,
)

__all__ = [
    "BatchMeansEstimate",
    "PolicyComparison",
    "ValidationPoint",
    "bar_chart",
    "batch_means",
    "compare_policies",
    "confidence_interval",
    "format_table",
    "full_validation_suite",
    "load_sweep",
    "loss_rate_batch_means",
    "relative_improvement",
    "summarise",
]
