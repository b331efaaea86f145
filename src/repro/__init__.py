"""repro — CTMDP-based buffer insertion and optimal buffer sizing for SoC buses.

Reproduction of Kallakuri, Doboli & Feinberg, *"Buffer Insertion for Bridges
and Optimal Buffer Sizing for Communication Sub-System of Systems-on-Chip"*,
DATE 2005.

The package is organised as:

``repro.queueing``
    Analytic continuous-time queueing substrate: CTMC steady-state solvers,
    birth-death chains, M/M/1/K loss formulas, GI/M/1 tail estimates and
    phase-type distributions.

``repro.arch``
    SoC communication-architecture modelling: processors, buses, bridges,
    traffic descriptors, template architectures (the paper's Figure 1, an
    AMBA-like system, a CoreConnect-like system, and the 17-processor
    network-processor testbed used in the evaluation).

``repro.sim``
    A from-scratch discrete-event simulator of the communication
    sub-system: Poisson request generation, finite buffers, bus
    arbitration, bridges, timeout-based dropping, and loss/latency
    monitoring.

``repro.core``
    The paper's contribution: per-bus CTMDP construction, the
    occupation-measure linear program for average-cost constrained CTMDPs
    (Feinberg 2002), bridge-split decomposition into linear subsystems,
    the K-switching translation from occupation measures to integer buffer
    sizes, and the end-to-end :class:`~repro.core.sizing.BufferSizer`.

``repro.policies``
    Baseline allocation policies (uniform, traffic-proportional,
    analytic-greedy) and the timeout service policy.

``repro.scenarios``
    The declarative scenario layer: named ``ScenarioSpec`` entries
    (netproc, fig1, amba, coreconnect) plus parametric families
    (``random-mesh-<clusters>-<seed>``, ``single-bus-<n>``) that every
    experiment driver, CLI subcommand and benchmark resolves by name.

``repro.analysis``
    Loss statistics, replication harness, parameter sweeps and ASCII
    report rendering used by the benchmark suite.

``repro.experiments``
    Drivers that regenerate every table and figure of the paper's
    evaluation section (Figure 3, Table 1, and the headline 20%/50%
    aggregate-loss claims) plus ablations.
"""

from repro._version import __version__

__all__ = ["__version__"]
