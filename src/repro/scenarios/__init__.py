"""``repro.scenarios`` — the declarative scenario layer.

One :class:`ScenarioSpec` describes everything a driver needs to run an
experiment end to end on one architecture family (topology builder,
budget axis, calibration horizon, weighted-loss critical set); the
registry resolves names — fixed (``netproc``, ``fig1``, ``amba``,
``coreconnect``) and parametric (``random-mesh-<clusters>-<seed>``,
``single-bus-<n>``) — so every layer above (experiments, CLI, exec
cache keys, benchmarks) is scenario-generic:

>>> from repro import scenarios
>>> scenarios.names()
['amba', 'coreconnect', 'fig1', 'netproc']
>>> scenarios.get("random-mesh-3-7").topology().name
'random-7'
"""

from repro.scenarios.registry import (
    DEFAULT_SCENARIO,
    ScenarioFamily,
    families,
    get,
    names,
    register,
    register_family,
    resolve,
)
from repro.scenarios.spec import (
    ScenarioSpec,
    scaled_topology,
    template_builder,
)

__all__ = [
    "DEFAULT_SCENARIO",
    "ScenarioFamily",
    "ScenarioSpec",
    "families",
    "get",
    "names",
    "register",
    "register_family",
    "resolve",
    "scaled_topology",
    "template_builder",
]
