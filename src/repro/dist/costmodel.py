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
* with no observations at all the model falls back to a flat default
  rate.  Jobs whose features are indistinguishable then predict equal
  costs, and because every sort in the scheduler is stable, cold-start
  cost scheduling degrades to exactly FIFO order.  Only *observed*
  rates size leases (:meth:`CostModel.observed_cost`): a job the fleet
  has never run leases alone, so a cold batch spreads over every
  worker.

The model is a pure *hint*: predictions order the queue and size
leases, never touch a payload or a result, so a wildly wrong model can
cost time but never a bit (the determinism contract of
:mod:`repro.dist`).  It lives as long as its broker: a fresh broker
learns each kind's rate from that kind's first completion.
"""

from __future__ import annotations

import math
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
ALPHA = 0.25


def job_features(fn: Any, item: Any) -> Dict[str, Any]:
    """Reduce one (job function, payload) pair to scheduler features.

    Driver-side companion of the broker's model: the executor extracts
    features once at submit time, so the broker never introspects a
    payload.  Works for any
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

    def __init__(self) -> None:
        # key -> ewma unit cost
        self._rates: Dict[str, float] = {}
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
                else DEFAULT_UNIT_COST
            )
        units = float(features.get("units", 1.0)) or 1.0
        for key in _feature_keys(features):
            rate = self._rates.get(key)
            if rate is not None:
                return rate * units
        if self._global is not None:
            return self._global * units
        return DEFAULT_UNIT_COST * units

    def observed_cost(
        self, features: Optional[Dict[str, Any]]
    ) -> Optional[float]:
        """Predicted runtime from an *observed* rate, else ``None``.

        The rate must be for the job's kind and, when the features
        name a scenario, for that scenario too: a bare-kind rate learnt
        on one scenario says nothing about another, and the global
        rate and the default say nothing observed at all.  The broker
        bulk-leases only jobs this returns a cost for.
        """
        if not features:
            return None
        keys = _feature_keys(features)
        if features.get("scenario") is not None:
            keys = keys[:-1]
        for key in keys:
            rate = self._rates.get(key)
            if rate is not None:
                return rate * (float(features.get("units", 1.0)) or 1.0)
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
            else (1 - ALPHA) * self._global + ALPHA * unit_cost
        )
        if not features:
            return
        for key in _feature_keys(features):
            rate = self._rates.get(key)
            self._rates[key] = (
                unit_cost
                if rate is None
                else (1 - ALPHA) * rate + ALPHA * unit_cost
            )

    # -- diagnostics ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The scheduler rows of ``repro dist top`` / ``obs dump``."""
        return {
            "observations": self.observations,
            "entries": len(self._rates),
            "mean_abs_rel_err": self.mean_abs_rel_err,
        }
