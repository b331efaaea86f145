"""The scenario registry: named scenarios plus parametric families.

Fixed scenarios are registered once at import (netproc, fig1, amba,
coreconnect); parametric families resolve patterned names such as
``random-mesh-<clusters>-<seed>`` or ``single-bus-<n>`` into freshly
built specs on demand, so sweeps and benches can enumerate arbitrarily
many instances without pre-registering each one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.arch.generators import GeneratorConfig, random_topology
from repro.arch.netproc import network_processor
from repro.arch.templates import (
    amba_like,
    coreconnect_like,
    paper_figure1,
    single_bus,
)
from repro.errors import ReproError
from repro.scenarios.spec import (
    ScenarioSpec,
    scaled_topology,
    template_builder,
)

_REGISTRY: Dict[str, ScenarioSpec] = {}
_FAMILIES: List["ScenarioFamily"] = []

#: The scenario every driver defaults to — the paper's testbed.
DEFAULT_SCENARIO = "netproc"


@dataclass(frozen=True)
class ScenarioFamily:
    """A parametric scenario family resolved by name pattern.

    ``resolver(name)`` returns a spec when the name belongs to the
    family, ``None`` otherwise; ``pattern`` is the human-readable
    template shown by ``repro scenarios list``, ``grammar`` spells out
    what each ``<parameter>`` placeholder accepts, and ``example`` is
    one concrete resolvable member name (the listing resolves it live,
    so a family whose example stops resolving fails loudly).
    """

    pattern: str
    description: str
    resolver: Callable[[str], Optional[ScenarioSpec]]
    grammar: str = ""
    example: str = ""


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Register a fixed scenario under its name.

    Re-registering an existing name is an error unless ``replace=True``
    (projects overriding a built-in, tests injecting fixtures).
    """
    if not replace and spec.name in _REGISTRY:
        raise ReproError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def register_family(family: ScenarioFamily) -> ScenarioFamily:
    """Register a parametric family (consulted by :func:`get` in order)."""
    _FAMILIES.append(family)
    return family


def names() -> List[str]:
    """Sorted names of all fixed (non-parametric) scenarios."""
    return sorted(_REGISTRY)


def families() -> List[ScenarioFamily]:
    """The registered parametric families, in registration order."""
    return list(_FAMILIES)


def get(name: str) -> ScenarioSpec:
    """Resolve a scenario name: fixed registry first, then families."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    for family in _FAMILIES:
        spec = family.resolver(name)
        if spec is not None:
            return spec
    known = ", ".join(names())
    patterns = ", ".join(f.pattern for f in _FAMILIES)
    raise ReproError(
        f"unknown scenario {name!r}; known scenarios: {known}; "
        f"parametric families: {patterns}"
    )


def resolve(scenario: Union[str, ScenarioSpec, None]) -> ScenarioSpec:
    """Coerce a name / spec / ``None`` (= default) to a spec."""
    if scenario is None:
        return get(DEFAULT_SCENARIO)
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return get(scenario)


# ----------------------------------------------------------------------
# Built-in fixed scenarios.

register(
    ScenarioSpec(
        name="netproc",
        description=(
            "the paper's evaluation testbed: 16 packet engines on four "
            "data buses plus a control processor, 17 processors total"
        ),
        builder=lambda seed, scale: network_processor(
            seed=seed, load_scale=scale
        ),
        arch_seed=2005,
        default_budget=160,
        budgets=(160, 320, 640),
        calibration_duration=3_000.0,
        critical_processors=("p1", "p16"),
    )
)

register(
    ScenarioSpec(
        name="fig1",
        description=(
            "the paper's Figure 1 sample SoC: 5 processors, 7 buses, "
            "4 bridges forming the four split subsystems of Figure 2"
        ),
        builder=template_builder(paper_figure1),
        default_budget=28,
        budgets=(20, 28, 40),
        calibration_duration=1_500.0,
    )
)

register(
    ScenarioSpec(
        name="amba",
        description=(
            "AMBA-style AHB/APB pair joined by one bridge; two masters, "
            "two peripherals"
        ),
        builder=template_builder(amba_like),
        default_budget=18,
        budgets=(12, 18, 24),
        calibration_duration=1_500.0,
    )
)

register(
    ScenarioSpec(
        name="coreconnect",
        description=(
            "CoreConnect-style PLB/OPB system with a dual bridge pair "
            "and a rigidly linked second processor bus"
        ),
        builder=template_builder(coreconnect_like),
        default_budget=20,
        budgets=(14, 20, 28),
        calibration_duration=1_500.0,
    )
)


# ----------------------------------------------------------------------
# Parametric families.

_RANDOM_MESH = re.compile(r"^random-mesh-(\d+)-(\d+)$")
_SINGLE_BUS = re.compile(r"^single-bus-(\d+)$")


def _resolve_random_mesh(name: str) -> Optional[ScenarioSpec]:
    match = _RANDOM_MESH.match(name)
    if match is None:
        return None
    clusters, seed = int(match.group(1)), int(match.group(2))
    if clusters < 1:
        raise ReproError(f"random-mesh needs >= 1 cluster, got {clusters}")
    # Canonical spelling: "random-mesh-04-7" and "random-mesh-4-7" are
    # the same member and must share one spec name (hence cache scope).
    name = f"random-mesh-{clusters}-{seed}"
    config = GeneratorConfig(num_clusters=clusters)

    def build(arch_seed, load_scale):
        return scaled_topology(
            random_topology(arch_seed, config), load_scale
        )

    owners = clusters * config.processors_per_cluster
    # Bridges (spanning tree + extras) own entry buffers too; scale the
    # default budget with the cluster count so members stay feasible.
    budget = max(8 * clusters + 8, 4 * owners)
    return ScenarioSpec(
        name=name,
        description=(
            f"random bridged mesh: {clusters} bus cluster(s), "
            f"{config.processors_per_cluster} processors each, seed {seed}"
        ),
        builder=build,
        arch_seed=seed,
        default_budget=budget,
        budgets=(budget, 2 * budget, 4 * budget),
        calibration_duration=1_500.0,
        params={"family": "random-mesh", "clusters": clusters, "seed": seed},
    )


def _resolve_single_bus(name: str) -> Optional[ScenarioSpec]:
    match = _SINGLE_BUS.match(name)
    if match is None:
        return None
    n = int(match.group(1))
    if n < 2:
        raise ReproError(f"single-bus needs >= 2 processors, got {n}")
    name = f"single-bus-{n}"  # canonical spelling (zero-padding aliases)

    def build(arch_seed, load_scale):
        return scaled_topology(single_bus(num_processors=n), load_scale)

    budget = 4 * n
    return ScenarioSpec(
        name=name,
        description=f"one bus, {n} processors, neighbour ring traffic",
        builder=build,
        default_budget=budget,
        budgets=(2 * n, budget, 8 * n),
        calibration_duration=1_000.0,
        params={"family": "single-bus", "processors": n},
    )


register_family(
    ScenarioFamily(
        pattern="random-mesh-<clusters>-<seed>",
        description=(
            "random bridged topology from repro.arch.generators: "
            "<clusters> bus clusters, spanning-tree bridges plus "
            "extras, deterministic from <seed>"
        ),
        resolver=_resolve_random_mesh,
        grammar=(
            "<clusters> = bus clusters, integer >= 1; "
            "<seed> = architecture seed, integer >= 0 "
            "(leading zeros canonicalise: random-mesh-04-7 == "
            "random-mesh-4-7)"
        ),
        example="random-mesh-2-7",
    )
)

register_family(
    ScenarioFamily(
        pattern="single-bus-<n>",
        description="minimal single-bus instance with <n> processors",
        resolver=_resolve_single_bus,
        grammar="<n> = processors on the bus, integer >= 2",
        example="single-bus-6",
    )
)
