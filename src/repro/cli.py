"""Command-line interface for the buffer-sizing toolkit.

Usage (module form; also installed as ``repro-size`` via the console
script entry point)::

    python -m repro.cli scenarios list
    python -m repro.cli size ARCH.soc --budget 32
    python -m repro.cli size --scenario amba --budget 18
    python -m repro.cli simulate ARCH.soc --budget 32 --policy ctmdp
    python -m repro.cli simulate --scenario fig1 --budget 28
    python -m repro.cli inspect ARCH.soc
    python -m repro.cli figure3 --budget 160 --duration 1000 --reps 3
    python -m repro.cli figure3 --scenario coreconnect --reps 3
    python -m repro.cli table1 --duration 800 --reps 3
    python -m repro.cli table1 --jobs 4 --cache-dir .repro-cache
    python -m repro.cli dist serve --port 7070
    python -m repro.cli dist worker HOST:7070 --cache-dir .repro-cache
    python -m repro.cli dist run --dist HOST:7070 --scenario amba \
        --scenario fig1 --reps 5 --verify-local

``ARCH.soc`` files use the textual DSL of :mod:`repro.arch.dsl`; the
``--scenario`` flag resolves a named scenario from the
:mod:`repro.scenarios` registry instead (``repro scenarios list``
enumerates them).  The runtime flags ``--jobs`` / ``--cache-dir`` /
``--cache-max-mb`` / ``--no-warm-start`` control the :mod:`repro.exec`
execution runtime; none of them changes any reported number (see
``docs/execution.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

from repro import obs
from repro.errors import ReproError
from repro.obs import log

if TYPE_CHECKING:
    from repro.exec import ExecutionContext

# Each ``_cmd_*`` imports the layers it runs, so a command starts only
# what it needs: ``dist worker``, ``scenarios``, ``inspect`` and
# ``--help`` never load the sizing layer or its LP solver.

#: ``--policy`` name -> its class in :mod:`repro.policies`, looked up
#: by :func:`_policy` when a command runs.
_POLICIES = {
    "uniform": "UniformSizing",
    "proportional": "ProportionalSizing",
    "analytic": "AnalyticGreedySizing",
    "ctmdp": "CTMDPSizing",
}


def _policy(name: str):
    """The allocation policy class registered as ``name``."""
    from repro import policies

    return getattr(policies, _POLICIES[name])


def _load_topology(path: str):
    from repro.arch.dsl import parse_topology

    with open(path) as fh:
        return parse_topology(fh.read())


def _resolve_architecture(args: argparse.Namespace):
    """``(topology, spec_or_None, budget)`` from one subcommand's args.

    A subcommand that sizes or simulates takes either a ``.soc`` file
    (positional) or a registered scenario name — exactly one of the
    two.  ``--budget`` falls back to a scenario's declared default and
    is mandatory for architecture files.
    """
    arch = getattr(args, "architecture", None)
    name = getattr(args, "scenario", None)
    if arch and name:
        raise ReproError(
            "pass either an architecture file or --scenario, not both"
        )
    budget = getattr(args, "budget", None)
    if name:
        from repro import scenarios

        spec = scenarios.get(name)
        return spec.topology(), spec, (
            spec.default_budget if budget is None else budget
        )
    if not arch:
        raise ReproError(
            "an architecture file or --scenario NAME is required"
        )
    if budget is None:
        raise ReproError("--budget is required for architecture files")
    return _load_topology(arch), None, budget


def _progress_printer():
    """A ``progress(kind, key)`` observer logging one stderr line each."""

    def emit(kind, key):
        log.info(f"progress: {kind} {key} done")

    return emit


def _context_from_args(
    args: argparse.Namespace, spec=None
) -> "ExecutionContext":
    """Build the execution runtime from the shared runtime flags.

    ``spec`` (a resolved scenario) scopes the context's cache keys.
    """
    from repro.exec import ExecutionContext

    context = ExecutionContext.create(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
        warm_start=not getattr(args, "no_warm_start", False),
        cache_max_mb=getattr(args, "cache_max_mb", None),
        dist=getattr(args, "dist", None),
        dist_authkey=getattr(args, "authkey", None),
        progress=(
            _progress_printer()
            if getattr(args, "progress", False)
            else None
        ),
    )
    return context.scoped(spec) if spec is not None else context


def _add_runtime_flags(
    parser: argparse.ArgumentParser, warm_start: bool = False
) -> None:
    """Attach the execution-runtime flags to one subcommand."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for replication batches (1 = serial, "
        "0 = all cores); sweep sizings additionally fan out when solved "
        "cold (--no-warm-start); results are identical for any value",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory "
        "(repeat runs and overlapping sweeps skip recomputation)",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        help="bound the cache directory to this many MiB with "
        "least-recently-used eviction (requires --cache-dir)",
    )
    parser.add_argument(
        "--dist",
        default=None,
        metavar="HOST:PORT",
        help="fan replication batches (and cold sweep points) over the "
        "'repro dist serve' broker at this address instead of the "
        "local pool; results are identical (see docs/distributed.md)",
    )
    parser.add_argument(
        "--authkey",
        default=None,
        help="shared fleet secret for --dist (must match 'repro dist "
        "serve'; default: the fleet default)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one stderr line per completed replication / sweep "
        "point (long local sweeps, fleet runs)",
    )
    if warm_start:
        parser.add_argument(
            "--no-warm-start",
            action="store_true",
            help="solve every sweep budget cold instead of chaining "
            "bridge-rate/LP warm starts (which is faster depends on the "
            "axis, and a degenerate cell can allocate differently; see "
            "docs/execution.md)",
        )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the observability flags to one subcommand.

    Attached per-subcommand (not on the root parser) so they read
    naturally where users type them: ``repro dist run --trace out.json``.
    """
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        dest="verbose",
        help="more stderr detail (per-item progress, worker chatter)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        dest="quiet",
        help="suppress stderr progress/summary lines (warnings only); "
        "stdout artifacts (reports, JSON) are unaffected",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable the in-process metrics registry (counters shipped "
        "to the broker on fleet runs; see 'repro obs dump')",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans and write a Chrome trace_event JSON here on "
        "exit (open in chrome://tracing or Perfetto); implies --metrics",
    )


def _apply_obs_args(args: argparse.Namespace) -> Optional[str]:
    """Configure logging/metrics/tracing from parsed flags.

    Returns the trace output path (export happens in :func:`main`'s
    ``finally`` so a failing command still leaves its trace behind).
    Also mirrors the choices into the environment so worker processes
    this command spawns (chaos fleets, pool children on spawn-start
    platforms) inherit them, the same channel fault plans use.
    """
    if getattr(args, "quiet", False):
        log.set_level(log.QUIET)
    elif getattr(args, "verbose", 0):
        log.set_level(log.DETAIL)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        obs.enable_tracing()
        os.environ[obs.ENV_TRACE] = "1"
    if trace_path or getattr(args, "metrics", False):
        obs.enable_metrics()
        os.environ[obs.ENV_METRICS] = "1"
    return trace_path


def _add_scenario_flag(parser: argparse.ArgumentParser, default=None) -> None:
    """Attach ``--scenario`` to one subcommand."""
    parser.add_argument(
        "--scenario",
        default=default,
        metavar="NAME",
        help="named scenario from the registry (see 'repro scenarios "
        "list'); parametric families like random-mesh-<clusters>-<seed> "
        "resolve on demand",
    )


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.arch.validate import cluster_loads

    topology = _load_topology(args.architecture)
    print(f"{topology!r}")
    print("clusters:")
    for load in cluster_loads(topology):
        print(
            f"  {sorted(load.cluster)}: offered {load.offered_rate:.3f}, "
            f"utilisation {load.utilisation:.3f}"
        )
    print("flows:")
    for name, flow in sorted(topology.flows.items()):
        route = topology.route(name)
        bridges = " -> ".join(route.bridges) if route.bridges else "(local)"
        print(
            f"  {name}: {flow.source} -> {flow.destination} "
            f"rate {flow.rate:.3f} via {bridges}"
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """List the scenario registry (fixed names + parametric families)."""
    from repro import scenarios

    print("registered scenarios:")
    for name in scenarios.names():
        spec = scenarios.get(name)
        topology = spec.topology()
        print(
            f"  {name:14s} {len(topology.processors):3d} processors, "
            f"{len(topology.buses)} buses, {len(topology.bridges)} "
            f"bridge(s), default budget {spec.default_budget}"
        )
        print(f"  {'':14s} {spec.description}")
    print("parametric families:")
    for family in scenarios.families():
        print(f"  {family.pattern}")
        print(f"      {family.description}")
        if family.grammar:
            print(f"      parameters: {family.grammar}")
        if family.example:
            # Resolve the example live so the listing shows a real
            # member (and breaks loudly if the example ever rots).
            spec = scenarios.get(family.example)
            print(
                f"      example: {spec.name} — {spec.description} "
                f"(default budget {spec.default_budget})"
            )
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    from repro.core.sizing import BufferSizer

    topology, spec, budget = _resolve_architecture(args)
    sizer_kwargs = dict(spec.sizer_kwargs) if spec is not None else {}
    sizer = BufferSizer(total_budget=budget, **sizer_kwargs)
    result = sizer.size(topology)
    print(f"# allocation (budget {budget})")
    for name in sorted(result.allocation.sizes):
        print(f"{name} {result.allocation.sizes[name]}")
    print(f"# expected loss rate {result.expected_loss_rate:.6f}")
    # An unconverged fixed point depends on where it started (the
    # result cache refuses to store one), so say which it was.
    status = "converged" if result.converged else "not converged"
    print(
        f"# bridge fixed point: {result.fixed_point_iterations} "
        f"iteration(s), {status}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    topology, spec, budget = _resolve_architecture(args)
    if args.policy == "ctmdp" and spec is not None:
        # The scenario's declared sizer knobs apply to every sizing run
        # of that scenario — keep `simulate` consistent with `size`.
        policy = _policy("ctmdp")(**spec.sizer_kwargs)
    else:
        policy = _policy(args.policy)()
    allocation = policy.allocate(topology, budget)
    context = _context_from_args(args, spec)
    summary = context.replicate(
        topology,
        allocation.as_capacities(),
        replications=args.reps,
        duration=args.duration,
        base_seed=args.seed,
        seed_scheme=args.seed_scheme,
    )
    print(f"policy {args.policy}, budget {budget}:")
    print(f"  mean total loss {summary.mean_total_loss():.1f} "
          f"(+/- {summary.std_total_loss():.1f}) over {args.reps} runs")
    for proc in sorted(topology.processors):
        print(f"  {proc}: {summary.mean_loss(proc):.1f}")
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.experiments.figure3 import run_figure3

    result = run_figure3(
        budget=args.budget,
        duration=args.duration,
        replications=args.reps,
        context=_context_from_args(args),
        scenario=args.scenario,
    )
    print(result.render())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import run_table1

    result = run_table1(
        duration=args.duration,
        replications=args.reps,
        context=_context_from_args(args),
        scenario=args.scenario,
    )
    print(result.render())
    return 0


def _cmd_dist_serve(args: argparse.Namespace) -> int:
    """Run the broker (job queue + shared cache store)."""
    from repro.dist import BrokerServer

    server = BrokerServer(
        host=args.host,
        port=args.port,
        authkey=args.authkey.encode("utf-8"),
        lease_timeout=args.lease_timeout,
        cache_max_bytes=int(args.cache_max_mb * 1024 * 1024),
    )
    host, port = server.address
    log.info(f"repro dist broker listening on {host}:{port}")
    http_server = None
    if args.http is not None:
        from repro.obs.server import LocalBrokerSource, ObsServer

        http_server = ObsServer(
            LocalBrokerSource(server.broker),
            host=args.http_host,
            port=args.http,
            interval=args.http_interval,
        ).start_in_thread()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if http_server is not None:
            http_server.stop()
        server.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Standalone observability service against a remote broker."""
    from repro.obs.server import ObsServer, RemoteBrokerSource
    from repro.retry import RetryPolicy

    source = RemoteBrokerSource(
        args.broker,
        authkey=args.authkey.encode("utf-8"),
        retry=RetryPolicy(attempts=args.retry_attempts),
    )
    server = ObsServer(
        source,
        host=args.host,
        port=args.port,
        interval=args.interval,
        stale_after=args.stale_after,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_dist_worker(args: argparse.Namespace) -> int:
    """Serve jobs from a broker until idle-timeout (or forever)."""
    from repro.dist import worker_loop

    cache_max_bytes = (
        int(args.cache_max_mb * 1024 * 1024)
        if args.cache_max_mb is not None
        else None
    )
    if cache_max_bytes is not None and args.cache_dir is None:
        raise ReproError("--cache-max-mb requires --cache-dir")
    executed = worker_loop(
        args.address,
        authkey=args.authkey.encode("utf-8"),
        cache_dir=args.cache_dir,
        cache_max_bytes=cache_max_bytes,
        max_idle=args.max_idle,
    )
    log.info(f"worker exiting after {executed} job(s)")
    return 0


def _parse_budgets(text):
    if not text:
        return None
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ReproError(
            f"invalid --budgets value {text!r}; expected "
            f"comma-separated integers like 8,16,24"
        )


def _cmd_dist_run(args: argparse.Namespace) -> int:
    """Run a scenario×budget×replication matrix (fleet or local)."""
    from repro import scenarios
    from repro.dist import DistExecutor, RunJournal, run_matrix

    scenario_names = args.scenario or [scenarios.DEFAULT_SCENARIO]
    budgets = _parse_budgets(args.budgets)
    if args.resume and not args.journal:
        raise ReproError("--resume requires --journal PATH")
    journal = (
        RunJournal(args.journal, resume=args.resume)
        if args.journal
        else None
    )
    executor = None
    if args.dist:
        executor = DistExecutor(
            args.dist,
            authkey=args.authkey.encode("utf-8"),
            timeout=args.timeout,
            on_broker_loss=args.on_broker_loss,
        )

    def stream(index, block):
        log.info(
            f"progress: block {index} done "
            f"({block.scenario} budget {block.budget} "
            f"reps {block.start}..{block.stop - 1})"
        )

    matrix_kwargs = dict(
        budgets=budgets,
        replications=args.reps,
        duration=args.duration,
        base_seed=args.seed,
        seed_scheme=args.seed_scheme,
        block_reps=args.block_reps,
    )
    # Broker counters are lifetime-cumulative (the broker is long-
    # lived and shared); snapshot them so the summary reports *this
    # run's* jobs/re-enqueues/cache traffic, not history.
    stats_before = executor.stats() if executor is not None else None
    cache_before = executor.cache_stats() if executor is not None else None
    outcome = run_matrix(
        scenario_names,
        jobs=args.jobs,
        executor=executor,
        on_result=stream if args.progress else None,
        journal=journal,
        **matrix_kwargs,
    )
    if journal is not None:
        log.info(
            f"# journal: {journal.hits} block(s) resumed, "
            f"{journal.records} recorded"
            + (
                f", {journal.quarantined} quarantined"
                if journal.quarantined
                else ""
            )
        )
    if args.verify_local:
        # The acceptance contract, end to end: the distributed (or
        # pooled) run must merge bitwise-identically to the serial
        # reference loop.
        reference = run_matrix(scenario_names, jobs=1, **matrix_kwargs)
        if outcome.to_jsonable() != reference.to_jsonable():
            raise ReproError(
                "distributed matrix result differs from the serial "
                "reference — determinism contract violated"
            )
        log.info("verify-local: merged results bitwise-identical to serial")
    print(outcome.render())
    if executor is not None:
        stats = executor.stats()
        cache_stats = executor.cache_stats()
        log.info(
            f"# fleet: "
            f"{stats['completed'] - stats_before['completed']} job(s) "
            f"completed, "
            f"{stats['reaped_jobs'] - stats_before['reaped_jobs']} "
            f"re-enqueued; shared cache "
            f"{cache_stats['hits'] - cache_before['hits']}/"
            f"{cache_stats['gets'] - cache_before['gets']} hit(s), "
            f"{cache_stats['entries']} entr(ies)"
        )
    if args.json:
        outcome.write_json(args.json)
        log.info(f"# wrote {args.json}")
    return 0


def _cmd_dist_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection matrix; non-zero exit on any mismatch."""
    import json as json_module

    from repro import scenarios
    from repro.faults.chaos import run_chaos_matrix
    from repro.faults.plan import standard_plans

    scenario_names = args.scenario or [scenarios.DEFAULT_SCENARIO]
    plans = standard_plans(seed=args.seed)
    if args.fault:
        unknown = sorted(set(args.fault) - set(plans))
        if unknown:
            raise ReproError(
                f"unknown fault plan(s) {unknown}; available: "
                f"{sorted(plans)}"
            )
        plans = {name: plans[name] for name in args.fault}
    report = run_chaos_matrix(
        scenario_names,
        budgets=_parse_budgets(args.budgets),
        replications=args.reps,
        duration=args.duration,
        base_seed=args.seed,
        block_reps=args.block_reps,
        plans=plans,
        modes=tuple(args.mode) if args.mode else ("serial", "jobs", "dist"),
        jobs=args.jobs,
        workers=args.workers,
        log_dir=args.log_dir,
    )
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            json_module.dump(
                {
                    "all_match": report.all_match,
                    "cases": [vars(case) for case in report.cases],
                },
                fh,
                sort_keys=True,
                indent=2,
            )
            fh.write("\n")
        log.info(f"# wrote {args.json}")
    return 0 if report.all_match else 1


def _wait_for_quit(interval: float) -> bool:
    """Sleep ``interval`` seconds; ``True`` if the user pressed ``q``.

    On a real TTY the terminal goes into cbreak mode for the wait so a
    single unbuffered keypress is enough; redirected stdin just sleeps
    (the console is then driven by SIGINT or ``--once``).
    """
    if not sys.stdin.isatty():
        time.sleep(interval)
        return False
    import select
    import termios
    import tty

    fd = sys.stdin.fileno()
    saved = termios.tcgetattr(fd)
    try:
        tty.setcbreak(fd)
        ready, _, _ = select.select([sys.stdin], [], [], interval)
        if ready:
            return sys.stdin.read(1) in ("q", "Q")
    finally:
        termios.tcsetattr(fd, termios.TCSADRAIN, saved)
    return False


def _cmd_dist_top(args: argparse.Namespace) -> int:
    """Live fleet console: queue, workers, caches, refreshing in place."""
    from repro.dist import DistExecutor
    from repro.obs.console import CLEAR_SCREEN, render_top

    executor = DistExecutor(
        args.address, authkey=args.authkey.encode("utf-8")
    )
    if args.once:
        sys.stdout.write(
            render_top(executor.obs_snapshot(), None, args.interval)
        )
        sys.stdout.flush()
        return 0
    previous = None
    try:
        while True:
            snapshot = executor.obs_snapshot()
            frame = render_top(
                snapshot, previous, args.interval if previous else None
            )
            sys.stdout.write(CLEAR_SCREEN + frame)
            sys.stdout.flush()
            previous = snapshot
            if _wait_for_quit(args.interval):
                break
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    """One JSON telemetry snapshot on stdout (scripting-friendly).

    With ``--dist`` the snapshot is the broker's consistent fleet view
    (same data ``dist top`` renders); without it, this process's local
    registry — useful at the end of an instrumented in-process run.
    """
    import json as json_module

    if args.dist:
        from repro.dist import DistExecutor

        snapshot = DistExecutor(
            args.dist, authkey=args.authkey.encode("utf-8")
        ).obs_snapshot()
    else:
        snapshot = obs.snapshot()
    json_module.dump(snapshot, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CTMDP buffer insertion and sizing for SoC communication "
            "sub-systems (DATE 2005 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scen = sub.add_parser(
        "scenarios", help="list the registered evaluation scenarios"
    )
    p_scen.add_argument(
        "action",
        nargs="?",
        choices=("list",),
        default="list",
        help="what to do (only 'list' for now)",
    )
    p_scen.set_defaults(func=_cmd_scenarios)

    p_inspect = sub.add_parser(
        "inspect", help="validate and summarise an architecture file"
    )
    p_inspect.add_argument("architecture", help="path to a .soc DSL file")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_size = sub.add_parser("size", help="run the CTMDP sizing pipeline")
    p_size.add_argument(
        "architecture", nargs="?", default=None,
        help="path to a .soc DSL file (or use --scenario)",
    )
    _add_scenario_flag(p_size)
    p_size.add_argument(
        "--budget", type=int, default=None,
        help="total buffer budget (defaults to the scenario's declared "
        "budget; required with an architecture file)",
    )
    _add_obs_flags(p_size)
    p_size.set_defaults(func=_cmd_size)

    p_sim = sub.add_parser(
        "simulate", help="size with a policy and simulate the result"
    )
    p_sim.add_argument(
        "architecture", nargs="?", default=None,
        help="path to a .soc DSL file (or use --scenario)",
    )
    _add_scenario_flag(p_sim)
    p_sim.add_argument(
        "--budget", type=int, default=None,
        help="total buffer budget (defaults to the scenario's declared "
        "budget; required with an architecture file)",
    )
    p_sim.add_argument(
        "--policy", choices=sorted(_POLICIES), default="ctmdp"
    )
    p_sim.add_argument("--duration", type=float, default=5_000.0)
    p_sim.add_argument("--reps", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--seed-scheme",
        choices=("legacy", "spawn"),
        default="legacy",
        help="per-replication seed derivation (spawn = collision-free "
        "SeedSequence children; legacy = base_seed + 1000*r)",
    )
    _add_runtime_flags(p_sim)
    _add_obs_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fig3 = sub.add_parser(
        "figure3", help="regenerate the paper's Figure 3"
    )
    _add_scenario_flag(p_fig3)
    p_fig3.add_argument(
        "--budget", type=int, default=None,
        help="total buffer budget (defaults to the scenario's declared "
        "budget, 160 for netproc)",
    )
    p_fig3.add_argument(
        "--duration", type=float, default=1_500.0,
        help="simulated horizon per replication (quick-run default; "
        "the Python API falls back to the scenario's declared "
        "paper-grade horizon instead)",
    )
    p_fig3.add_argument("--reps", type=int, default=5)
    _add_runtime_flags(p_fig3)
    _add_obs_flags(p_fig3)
    p_fig3.set_defaults(func=_cmd_figure3)

    p_dist = sub.add_parser(
        "dist",
        help="distributed execution: broker, workers, fleet matrix runs",
    )
    dist_sub = p_dist.add_subparsers(dest="dist_command", required=True)

    p_serve = dist_sub.add_parser(
        "serve", help="run the broker: job queue + shared cache store"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7070,
        help="TCP port (0 = ephemeral; the bound address is printed)",
    )
    p_serve.add_argument(
        "--authkey", default="repro-dist",
        help="shared fleet secret (must match workers and drivers)",
    )
    p_serve.add_argument(
        "--lease-timeout", type=float, default=10.0,
        help="seconds without a heartbeat before a worker is declared "
        "dead and its jobs are re-enqueued",
    )
    p_serve.add_argument(
        "--cache-max-mb", type=float, default=256.0,
        help="bound of the broker's in-memory shared cache store (MiB)",
    )
    p_serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="also serve the HTTP observability service on this port "
        "(/healthz, /snapshot, /metrics, /events, and the live "
        "dashboard at /) next to the broker",
    )
    p_serve.add_argument(
        "--http-host", default="127.0.0.1",
        help="bind address of the --http service",
    )
    p_serve.add_argument(
        "--http-interval", type=float, default=2.0,
        help="snapshot sampling cadence of the --http service (seconds)",
    )
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=_cmd_dist_serve)

    p_worker = dist_sub.add_parser(
        "worker", help="serve jobs from a broker on this host"
    )
    p_worker.add_argument("address", help="broker address (host:port)")
    p_worker.add_argument("--authkey", default="repro-dist")
    p_worker.add_argument(
        "--cache-dir", default=None,
        help="optional local disk tier under the shared cache",
    )
    p_worker.add_argument(
        "--cache-max-mb", type=float, default=None,
        help="LRU bound of the local tier (requires --cache-dir)",
    )
    p_worker.add_argument(
        "--max-idle", type=float, default=None,
        help="exit after this many seconds without work (default: "
        "serve forever)",
    )
    _add_obs_flags(p_worker)
    p_worker.set_defaults(func=_cmd_dist_worker)

    p_run = dist_sub.add_parser(
        "run",
        help="run a scenario×budget×replication matrix on a fleet "
        "(or locally without --dist)",
    )
    p_run.add_argument(
        "--dist", default=None, metavar="HOST:PORT",
        help="broker to fan the matrix over (omit to run locally)",
    )
    p_run.add_argument("--authkey", default="repro-dist")
    p_run.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to include (repeatable; default: netproc)",
    )
    p_run.add_argument(
        "--budgets", default=None,
        help="comma-separated budget axis applied to every scenario "
        "(default: each scenario's declared axis)",
    )
    p_run.add_argument("--reps", type=int, default=3)
    p_run.add_argument("--duration", type=float, default=500.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--seed-scheme", choices=("legacy", "spawn"), default="legacy"
    )
    p_run.add_argument(
        "--block-reps", type=int, default=1,
        help="replications per job block (smaller = more blocks to "
        "spread over the fleet, sharing each cell's cached sizing)",
    )
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="local pool width when --dist is omitted",
    )
    p_run.add_argument(
        "--timeout", type=float, default=None,
        help="overall bound on the fleet run (error instead of hanging "
        "when no worker is connected)",
    )
    p_run.add_argument(
        "--verify-local", action="store_true",
        help="re-run the matrix serially in-process and assert the "
        "merged results are bitwise-identical (the determinism "
        "contract, end to end)",
    )
    p_run.add_argument(
        "--progress", action="store_true",
        help="stream one stderr line per completed block",
    )
    p_run.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the canonical JSON artifact of the run",
    )
    p_run.add_argument(
        "--journal", default=None, metavar="DIR",
        help="record every completed block in this journal directory "
        "(atomic, checksummed) so a killed run can be resumed",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="continue an existing --journal: journaled blocks are "
        "reused without recomputing (the matrix configuration must "
        "be identical)",
    )
    p_run.add_argument(
        "--on-broker-loss", choices=("fallback", "fail"),
        default="fallback",
        help="when the broker dies mid-run: 'fallback' finishes the "
        "unfinished blocks on the local pool (same results), 'fail' "
        "raises (default: fallback)",
    )
    _add_obs_flags(p_run)
    p_run.set_defaults(func=_cmd_dist_run)

    p_top = dist_sub.add_parser(
        "top",
        help="live fleet console: queue depth, per-worker throughput, "
        "reap/retry/fault counters, cache hit rates (press q to "
        "quit)",
    )
    p_top.add_argument("address", help="broker address (host:port)")
    p_top.add_argument("--authkey", default="repro-dist")
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (rates are computed over this "
        "window)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (scripting, CI)",
    )
    p_top.set_defaults(func=_cmd_dist_top)

    p_chaos = dist_sub.add_parser(
        "chaos",
        help="run the deterministic fault-injection matrix and assert "
        "every outcome is bitwise-identical to the fault-free serial "
        "run",
    )
    p_chaos.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to include (repeatable; default: netproc)",
    )
    p_chaos.add_argument(
        "--budgets", default=None,
        help="comma-separated budget axis applied to every scenario",
    )
    p_chaos.add_argument("--reps", type=int, default=2)
    p_chaos.add_argument("--duration", type=float, default=60.0)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--block-reps", type=int, default=1)
    p_chaos.add_argument(
        "--fault", action="append", default=None, metavar="PLAN",
        help="fault plan to run (repeatable; default: the full "
        "standard set — see repro.faults.plan.standard_plans)",
    )
    p_chaos.add_argument(
        "--mode", action="append", default=None,
        choices=("serial", "jobs", "dist"),
        help="execution mode to cover (repeatable; default: all three)",
    )
    p_chaos.add_argument(
        "--jobs", type=int, default=2,
        help="pool width of the 'jobs' mode",
    )
    p_chaos.add_argument(
        "--workers", type=int, default=2,
        help="fleet size of the 'dist' mode (the first worker gets "
        "the fault plan)",
    )
    p_chaos.add_argument(
        "--log-dir", default=None, metavar="DIR",
        help="collect one fault-injection log per (plan, mode) case",
    )
    p_chaos.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the case table as JSON",
    )
    _add_obs_flags(p_chaos)
    p_chaos.set_defaults(func=_cmd_dist_chaos)

    p_http = sub.add_parser(
        "serve",
        help="standalone HTTP observability service scraping a remote "
        "broker (/healthz, /snapshot, /metrics, /events, live "
        "dashboard at /)",
    )
    p_http.add_argument(
        "--broker", required=True, metavar="HOST:PORT",
        help="broker whose fleet telemetry to serve",
    )
    p_http.add_argument("--authkey", default="repro-dist")
    p_http.add_argument(
        "--host", default="127.0.0.1", help="HTTP bind address"
    )
    p_http.add_argument(
        "--port", type=int, default=8080,
        help="HTTP port (0 = ephemeral)",
    )
    p_http.add_argument(
        "--interval", type=float, default=2.0,
        help="broker sampling cadence (seconds); also the SSE cadence",
    )
    p_http.add_argument(
        "--stale-after", type=float, default=None,
        help="mark served data stale after this many seconds without "
        "a successful sample (default: 3x --interval); the service "
        "keeps serving the last snapshot and recovers on its own",
    )
    p_http.add_argument(
        "--retry-attempts", type=int, default=4,
        help="retry attempts per broker sample before degrading to "
        "stale mode",
    )
    p_http.set_defaults(func=_cmd_serve)

    p_obs = sub.add_parser(
        "obs", help="observability: telemetry snapshots"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_dump = obs_sub.add_parser(
        "dump",
        help="print one JSON telemetry snapshot (broker fleet view "
        "with --dist, else this process's registry)",
    )
    p_dump.add_argument(
        "--dist", default=None, metavar="HOST:PORT",
        help="broker whose fleet-wide snapshot to dump",
    )
    p_dump.add_argument("--authkey", default="repro-dist")
    _add_obs_flags(p_dump)
    p_dump.set_defaults(func=_cmd_obs_dump)

    p_tab1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    _add_scenario_flag(p_tab1)
    p_tab1.add_argument(
        "--duration", type=float, default=1_000.0,
        help="simulated horizon per replication (quick-run default; "
        "the Python API falls back to the scenario's declared "
        "paper-grade horizon instead)",
    )
    p_tab1.add_argument("--reps", type=int, default=3)
    _add_runtime_flags(p_tab1, warm_start=True)
    _add_obs_flags(p_tab1)
    p_tab1.set_defaults(func=_cmd_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = _apply_obs_args(args)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Export even when the command failed: the trace of a broken
        # run is the one worth reading.
        if trace_path and obs.tracing_enabled():
            try:
                count = obs.export_trace(trace_path)
            except OSError as exc:
                log.warn(f"could not write trace to {trace_path}: {exc}")
            else:
                log.info(f"# trace: wrote {count} span(s) to {trace_path}")


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
