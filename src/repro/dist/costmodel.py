"""Per-job runtime prediction for the fleet scheduler.

The fleet matrix is a (scenario × budget × replication-block) job list
whose cells differ in runtime by orders of magnitude — a 256-cluster
mesh sizing takes minutes while a ``single-bus-4`` replication block is
subsecond.  FIFO dispatch therefore leaves the classic makespan money
on the table: a long cell pulled last keeps one worker grinding while
the rest of the fleet idles.  :class:`CostModel` is the predictor the
broker orders jobs with (longest predicted first — LPT) and sizes
leases from.

Prediction is deliberately simple and cheap (the broker holds its one
lock while predicting):

* every job payload is reduced to a small **feature** dict
  (:func:`job_features`): a ``kind`` (the job function's name), the
  scenario and budget when the payload carries them, and ``units``
  — the job's linear work measure (``duration × replications`` for
  ``run_block`` blocks, the declared duration otherwise);
* the model keeps an EWMA of observed *per-unit* runtime under a
  hierarchy of keys — ``(kind, scenario, budget)`` down to bare
  ``kind`` — and predicts with the most specific level that has
  data, times the job's units.  Every observation refines all levels,
  so one completed block of a new budget already inherits its
  scenario's rate;
* with no observations at all the model falls back to per-scenario
  **priors** seeded from ``BENCH_*.json`` artifacts
  (:meth:`CostModel.seed_from_bench` — the bench files are, in effect,
  training data), and failing that to a flat default rate.  Jobs whose
  features are indistinguishable then predict equal costs, and because
  every sort in the scheduler is stable, cold-start cost scheduling
  degrades to exactly FIFO order.  Only *observed* rates size leases
  (:meth:`CostModel.observed_cost`): a job the fleet has never run
  leases alone, so a cold batch spreads over every worker.

The model is a pure *hint*: predictions order the queue and size
leases, never touch a payload or a result, so a wildly wrong model can
cost time but never a bit (the determinism contract of
:mod:`repro.dist`).  State round-trips through JSON
(:meth:`~CostModel.save` / :meth:`~CostModel.load`) so a broker —
pointed at a journal or cache directory — warm-starts the next fleet
with the last fleet's observed rates.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional

__all__ = ["CostModel", "job_features", "DEFAULT_UNIT_COST"]

#: Cold-start per-unit cost (seconds per work unit).  Only the
#: *relative* ordering matters to the scheduler; the absolute level
#: matters once, for sizing the very first leases before any
#: observation lands (≈3 s for a 300 s × 1-rep block is the right
#: order of magnitude for sizing-dominated fleet cells).
DEFAULT_UNIT_COST = 1e-2

#: EWMA smoothing factor for per-unit rates: heavy enough that one
#: outlier block (cold solver, page cache miss) cannot flip the LPT
#: order, light enough that a fleet's rates converge within a few
#: blocks per cell.
DEFAULT_ALPHA = 0.25

#: Bump when the persisted-state layout changes; a mismatched file is
#: ignored (cold start) instead of misread.  Schema 2 dropped the
#: simulation backend from the rate keys.
STATE_SCHEMA = 2


def job_features(fn: Any, item: Any) -> Dict[str, Any]:
    """Reduce one (job function, payload) pair to scheduler features.

    Driver-side companion of the broker's model: the executor extracts
    features once at submit time (payloads may cross the wire
    compressed, so the broker never introspects them).  Works for any
    payload — unknown shapes reduce to ``kind`` plus one work unit,
    which predicts a flat cost and leaves the (stable) submission
    order untouched.
    """
    kind = getattr(fn, "__name__", None) or str(fn)
    features: Dict[str, Any] = {"kind": kind, "units": 1.0}
    if isinstance(item, dict):
        for key in ("scenario", "budget"):
            value = item.get(key)
            if value is not None:
                features[key] = value
        duration = item.get("duration")
        if isinstance(duration, (int, float)) and duration > 0:
            start, stop = item.get("start"), item.get("stop")
            if isinstance(start, int) and isinstance(stop, int):
                reps = max(stop - start, 1)
            else:
                reps = 1
            features["units"] = float(duration) * reps
    return features


def _feature_keys(features: Dict[str, Any]) -> List[str]:
    """The model's key hierarchy, most specific first."""
    kind = str(features.get("kind", "?"))
    scenario = features.get("scenario")
    budget = features.get("budget")
    keys = []
    if scenario is not None:
        if budget is not None:
            keys.append(f"{kind}|{scenario}|{budget}")
        keys.append(f"{kind}|{scenario}")
    keys.append(kind)
    return keys


class CostModel:
    """EWMA per-unit runtime model behind the broker's scheduler.

    Not thread-safe by itself — the broker calls it under its queue
    lock, which is also what keeps predictions and observations
    consistent with the queue state they order.

    Attributes
    ----------
    observations:
        Completed jobs folded into the rates so far.
    mean_abs_rel_err:
        EWMA of ``|predicted - actual| / actual`` over observations
        that carried a prediction — the accuracy figure ``repro dist
        top`` shows.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        default_unit_cost: float = DEFAULT_UNIT_COST,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.default_unit_cost = float(default_unit_cost)
        # key -> [ewma unit cost, observation count]
        self._rates: Dict[str, List[float]] = {}
        # scenario -> relative weight, seeded from bench artifacts.
        self._priors: Dict[str, float] = {}
        self._global: Optional[float] = None
        self.observations = 0
        self.mean_abs_rel_err: Optional[float] = None

    # -- predict / observe ---------------------------------------------

    def predict(self, features: Optional[Dict[str, Any]]) -> float:
        """Predicted runtime (seconds) of one job.

        Deterministic in the model state: equal features always predict
        equal costs, so stable sorts preserve submission order among
        indistinguishable jobs (the cold-start FIFO-equivalence the
        scheduler tests pin down).
        """
        if not features:
            return (
                self._global
                if self._global is not None
                else self.default_unit_cost
            )
        units = float(features.get("units", 1.0)) or 1.0
        for key in _feature_keys(features):
            entry = self._rates.get(key)
            if entry is not None:
                return entry[0] * units
        if self._global is not None:
            return self._global * units
        prior = self._priors.get(str(features.get("scenario")), 1.0)
        return self.default_unit_cost * prior * units

    def observed_cost(
        self, features: Optional[Dict[str, Any]]
    ) -> Optional[float]:
        """Predicted runtime from an *observed* rate, else ``None``.

        The rate must be for the job's kind and, when the features
        name a scenario, for that scenario too: a bare-kind rate learnt
        on one scenario says nothing about another, and the global
        rate, priors and default say nothing observed at all.  The
        broker bulk-leases and pins only jobs this returns a cost for.
        """
        if not features:
            return None
        keys = _feature_keys(features)
        if features.get("scenario") is not None:
            keys = keys[:-1]
        for key in keys:
            entry = self._rates.get(key)
            if entry is not None:
                return entry[0] * (float(features.get("units", 1.0)) or 1.0)
        return None

    def observe(
        self,
        features: Optional[Dict[str, Any]],
        runtime: float,
        predicted: Optional[float] = None,
    ) -> None:
        """Fold one observed job runtime into every matching rate."""
        if runtime is None or runtime < 0 or not math.isfinite(runtime):
            return
        self.observations += 1
        if predicted is not None and runtime > 0:
            err = abs(predicted - runtime) / runtime
            self.mean_abs_rel_err = (
                err
                if self.mean_abs_rel_err is None
                else (1 - 0.2) * self.mean_abs_rel_err + 0.2 * err
            )
        units = 1.0
        if features:
            units = float(features.get("units", 1.0)) or 1.0
        unit_cost = runtime / units
        self._global = (
            unit_cost
            if self._global is None
            else (1 - self.alpha) * self._global + self.alpha * unit_cost
        )
        if not features:
            return
        for key in _feature_keys(features):
            entry = self._rates.get(key)
            if entry is None:
                self._rates[key] = [unit_cost, 1]
            else:
                entry[0] = (1 - self.alpha) * entry[0] + self.alpha * unit_cost
                entry[1] += 1

    # -- bench seeding --------------------------------------------------

    def seed_from_bench(self, source: Any) -> int:
        """Seed per-scenario priors from a ``BENCH_*.json`` artifact.

        ``source`` is a pytest-benchmark JSON path or its parsed dict.
        Benchmarks tagged with an ``extra_info.scenario`` contribute
        their mean wall time; each scenario's prior is its mean
        relative to the cross-scenario mean, so a scenario the benches
        show 5× slower predicts 5× longer before the fleet has run a
        single block.  Returns the number of scenarios seeded; any
        malformed artifact seeds nothing (cold start, never a crash).
        """
        try:
            if isinstance(source, (str, os.PathLike)):
                with open(source) as fh:
                    report = json.load(fh)
            else:
                report = source
            per_scenario: Dict[str, List[float]] = {}
            for bench in report.get("benchmarks", []):
                extra = bench.get("extra_info") or {}
                scenario = extra.get("scenario")
                mean = (bench.get("stats") or {}).get("mean")
                if scenario and isinstance(mean, (int, float)) and mean > 0:
                    per_scenario.setdefault(str(scenario), []).append(
                        float(mean)
                    )
            if not per_scenario:
                return 0
            means = {
                scenario: sum(values) / len(values)
                for scenario, values in per_scenario.items()
            }
            overall = sum(means.values()) / len(means)
            for scenario, mean in means.items():
                self._priors[scenario] = mean / overall
            return len(means)
        except (OSError, ValueError, TypeError, AttributeError):
            return 0

    # -- persistence ----------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """JSON-compatible snapshot of the learned rates and priors."""
        return {
            "schema": STATE_SCHEMA,
            "alpha": self.alpha,
            "default_unit_cost": self.default_unit_cost,
            "rates": {
                key: [entry[0], int(entry[1])]
                for key, entry in self._rates.items()
            },
            "priors": dict(self._priors),
            "global": self._global,
            "observations": self.observations,
        }

    def from_state(self, state: Dict[str, Any]) -> bool:
        """Restore a :meth:`to_state` snapshot; ``False`` = ignored."""
        if not isinstance(state, dict) or state.get("schema") != STATE_SCHEMA:
            return False
        try:
            self._rates = {
                str(key): [float(value[0]), int(value[1])]
                for key, value in state.get("rates", {}).items()
            }
            self._priors = {
                str(key): float(value)
                for key, value in state.get("priors", {}).items()
            }
            raw = state.get("global")
            self._global = None if raw is None else float(raw)
            self.observations = int(state.get("observations", 0))
        except (TypeError, ValueError, IndexError):
            self._rates, self._priors, self._global = {}, {}, None
            self.observations = 0
            return False
        return True

    def save(self, path) -> None:
        """Atomically persist the model state as JSON."""
        data = json.dumps(self.to_state(), sort_keys=True) + "\n"
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)

    def load(self, path) -> bool:
        """Restore a saved state; missing/damaged files are a cold
        start (``False``), never an error."""
        try:
            with open(path) as fh:
                return self.from_state(json.load(fh))
        except (OSError, ValueError):
            return False

    # -- diagnostics ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The scheduler rows of ``repro dist top`` / ``obs dump``."""
        return {
            "observations": self.observations,
            "entries": len(self._rates),
            "priors": len(self._priors),
            "mean_abs_rel_err": self.mean_abs_rel_err,
        }
