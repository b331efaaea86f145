"""The chaos harness: run the fault matrix, assert bitwise identity.

``run_chaos_matrix`` executes one scenario×budget matrix under every
fault plan × execution mode combination and compares each outcome to
the fault-free serial reference — the single invariant the whole
runtime is built around: **faults may change timing, logs and
counters, never a number.**

Modes:

* ``serial`` / ``jobs`` — the injector rides in-process (and into
  forked pool workers); most transport faults are structurally
  impossible here and inject nothing, which is itself part of the
  contract (a no-op plan must also change nothing).
* ``dist`` — a real in-process :class:`~repro.dist.queue.BrokerServer`
  plus forked worker processes.  The *first* worker receives the fault
  plan through ``REPRO_FAULT_PLAN`` and runs alone until the first
  block lands (so it crashes, stalls, or corrupts blobs on work it
  really holds, and the rest of the fleet joins to heal around it); the
  driver installs the same plan in-process for the connect/executor
  hooks; ``broker_loss`` plans make the harness stop the broker after
  ``after`` completed blocks, forcing the executor's local fallback.

This module imports the dist stack and is deliberately *not* pulled in
by ``repro.faults``'s package root — import it as
``repro.faults.chaos``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.faults.injector import ENV_VAR, FaultInjector, install
from repro.faults.plan import FaultPlan, standard_plans

__all__ = ["ChaosCase", "ChaosReport", "run_chaos_matrix"]

#: Lease timeout of the harness broker: short enough that reap-based
#: recovery (crash, stall) resolves in seconds, long enough that a
#: loaded CI box never reaps a live worker (they beat every lease/4).
CHAOS_LEASE_TIMEOUT = 2.0

_FORK = multiprocessing.get_context("fork")


@dataclass
class ChaosCase:
    """One (plan, mode) cell of the chaos matrix."""

    plan: str
    mode: str
    matched: bool
    injected: int
    fallbacks: int = 0
    detail: str = ""


@dataclass
class ChaosReport:
    """Every case plus the reference the cases were compared against."""

    reference: Any
    cases: List[ChaosCase] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(case.matched for case in self.cases)

    def render(self) -> str:
        lines = [
            f"{'plan':18s} {'mode':6s} {'ok':>3s} {'injected':>8s} "
            f"{'fallbacks':>9s}  detail"
        ]
        for case in self.cases:
            lines.append(
                f"{case.plan:18s} {case.mode:6s} "
                f"{'ok' if case.matched else 'DIFF':>4s} "
                f"{case.injected:8d} {case.fallbacks:9d}  {case.detail}"
            )
        verdict = (
            "all outcomes bitwise-identical to the fault-free serial run"
            if self.all_match
            else "OUTCOME MISMATCH — determinism contract violated"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _worker_env(plan: FaultPlan, log_path: Path) -> Dict[str, str]:
    return {ENV_VAR: plan.to_json(), "REPRO_FAULT_LOG": str(log_path)}


#: Hook sites that only fire on cache *reads*: plans striking them need
#: a warm pass first (a cold matrix has nothing to hit, so nothing to
#: corrupt).
_CACHE_SITES = frozenset(
    {"cachetier.get", "cachetier.put", "cachetier.blob", "cache.entry"}
)


def _worker_entry(address, close_fileno: Optional[int], kwargs) -> None:
    """Forked-child entry: shed inherited broker fds, then work.

    The child inherits the in-process broker's *listening* socket fd;
    left open it keeps the port accepting into a kernel backlog nobody
    serves after the harness stops the broker (a zombie listener the
    probe in :mod:`repro.dist.queue` would have to time out on).  It
    also inherits the driver's installed injector when forked mid-run:
    a worker's plan must come from its environment only.
    """
    if close_fileno is not None:
        try:
            os.close(close_fileno)
        except OSError:
            pass
    install(None)
    from repro.dist.worker import worker_loop

    worker_loop(address, **kwargs)


def _spawn_worker(
    address,
    extra_env: Optional[Dict[str, str]] = None,
    close_fileno: Optional[int] = None,
    cache_dir: Optional[str] = None,
):
    """Fork one worker process, optionally with a fault-plan env.

    Environment is set around the fork (fork children inherit the
    parent's environ snapshot) and restored immediately after.
    """
    saved: Dict[str, Optional[str]] = {}
    if extra_env:
        for key, value in extra_env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
    try:
        process = _FORK.Process(
            target=_worker_entry,
            args=(
                address,
                close_fileno,
                {"cache_dir": cache_dir},
            ),
            daemon=True,
        )
        process.start()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return process


def _run_local_mode(
    plan: FaultPlan, jobs: int, log_path: Path, matrix_kwargs
) -> Tuple[Any, FaultInjector, int]:
    from repro.dist.fleet import run_matrix

    injector = FaultInjector(plan, log_path=str(log_path))
    previous = install(injector)
    try:
        outcome = run_matrix(jobs=jobs, **matrix_kwargs)
    finally:
        install(previous)
    return outcome.to_jsonable(), injector, 0


def _run_dist_mode(
    plan: FaultPlan,
    workers: int,
    log_path: Path,
    matrix_kwargs,
) -> Tuple[Any, FaultInjector, int]:
    from repro.dist.executor import DistExecutor
    from repro.dist.fleet import run_matrix
    from repro.dist.queue import BrokerServer

    server = BrokerServer(
        port=0, lease_timeout=CHAOS_LEASE_TIMEOUT
    ).start_in_thread()
    injector = FaultInjector(plan, log_path=str(log_path))
    # The harness owns broker loss: nothing inside the runtime may
    # kill the broker, so the plan names the block count after which
    # the harness pulls the plug.
    broker_loss = next(
        (event for event in plan.events if event.kind == "broker_loss"),
        None,
    )
    stopped = [False]

    def _maybe_stop_broker(index: int, block: Any) -> None:
        if (
            broker_loss is not None
            and not stopped[0]
            and index + 1 >= max(1, broker_loss.after)
        ):
            stopped[0] = True
            injector._record(
                broker_loss, "chaos.broker", index, "broker stopped"
            )
            server.stop()

    listen_fd = server.listen_fileno()
    # Per-worker disk caches: cache-site plans need the local
    # ResultCache tier live so ``cache.entry`` damage has something to
    # strike; harmless (a few misses and publishes) for every other
    # plan.
    tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-cache-")
    # Cache damage is healed *locally* (quarantine + recompute), so a
    # pure cache plan rides in every worker — injection then cannot
    # depend on which worker wins the lease race.  Process-level faults
    # stay confined to the first worker.
    cache_only = all(event.site in _CACHE_SITES for event in plan.events)
    plan_env = _worker_env(plan, log_path)

    def _spawn(index: int, env: Optional[Dict[str, str]]):
        return _spawn_worker(
            server.address,
            extra_env=env,
            close_fileno=listen_fd,
            cache_dir=os.path.join(tmp.name, f"w{index}"),
        )

    # The first worker runs alone until the first block lands.  Its
    # first job trains the broker's cost model, so its next lease is
    # the warm bulk of that scenario, and a plan striking its second
    # job or second lease (``after=1``) really fires; a peer polling
    # alongside could win that lease and leave the plan nothing to
    # strike.  The peers join then, to heal what the plan breaks.
    processes = [_spawn(0, plan_env)]

    def _join_peers(index: int, block: Any) -> None:
        if len(processes) == 1 and not stopped[0]:
            processes.extend(
                _spawn(peer, plan_env if cache_only else None)
                for peer in range(1, max(1, workers))
            )

    def _on_result(index: int, block: Any) -> None:
        _maybe_stop_broker(index, block)
        _join_peers(index, block)

    previous = install(injector)
    try:
        executor = DistExecutor(
            server.address,
            timeout=300,
            fallback_jobs=1,
        )
        if any(event.site in _CACHE_SITES for event in plan.events):
            # Warm pass: populate worker caches and the broker's shared
            # store with clean blobs, so the measured pass below
            # actually *reads* (and the plan corrupts those reads).
            # Corruption strikes lookups only, so the warm pass stores
            # pristine bytes even with the plan active.
            run_matrix(
                executor=executor, on_result=_join_peers, **matrix_kwargs
            )
        outcome = run_matrix(
            executor=executor, on_result=_on_result, **matrix_kwargs
        )
        fallbacks = executor.fallbacks
    finally:
        install(previous)
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(timeout=5)
        if not stopped[0]:
            server.stop()
        tmp.cleanup()
    return outcome.to_jsonable(), injector, fallbacks


def run_chaos_matrix(
    scenario_names: Sequence[str],
    budgets: Optional[Sequence[int]] = None,
    replications: int = 2,
    duration: float = 60.0,
    base_seed: int = 0,
    plans: Optional[Dict[str, FaultPlan]] = None,
    modes: Sequence[str] = ("serial", "jobs", "dist"),
    jobs: int = 2,
    workers: int = 2,
    log_dir: Optional[Any] = None,
) -> ChaosReport:
    """Run the fault matrix; every cell must reproduce the reference.

    Parameters mirror :func:`~repro.dist.fleet.run_matrix` for the
    workload itself; ``plans`` defaults to
    :func:`~repro.faults.plan.standard_plans`, ``modes`` selects the
    execution lanes, and ``log_dir`` keeps the one fault log per (plan,
    mode) case; without it the logs go to a temporary directory.  A
    case counts its strikes from its log, which forked workers share, so
    a fault that fires in a worker is counted either way.
    """
    bad = [mode for mode in modes if mode not in ("serial", "jobs", "dist")]
    if bad:
        raise ReproError(f"unknown chaos mode(s): {bad}")
    matrix_kwargs = dict(
        scenario_names=scenario_names,
        budgets=budgets,
        replications=replications,
        duration=duration,
        base_seed=base_seed,
    )
    from repro.dist.fleet import run_matrix

    reference = run_matrix(**matrix_kwargs).to_jsonable()
    report = ChaosReport(reference=reference)
    plans = plans if plans is not None else standard_plans()
    logs = (
        tempfile.TemporaryDirectory(prefix="repro-chaos-log-")
        if log_dir is None
        else contextlib.nullcontext(log_dir)
    )
    with logs as log_root:
        log_root = Path(log_root)
        log_root.mkdir(parents=True, exist_ok=True)
        for name, plan in plans.items():
            for mode in modes:
                log_path = log_root / f"{name}-{mode}.log"
                if mode == "dist":
                    jsonable, injector, fallbacks = _run_dist_mode(
                        plan, workers, log_path, matrix_kwargs
                    )
                else:
                    jsonable, injector, fallbacks = _run_local_mode(
                        plan, jobs if mode == "jobs" else 1,
                        log_path, matrix_kwargs,
                    )
                # The log file is shared with forked workers, so it
                # sees injections the driver-side record list cannot.
                strikes = [
                    f"{r['kind']}@{r['site']}" for r in injector.records
                ]
                if log_path.exists():
                    strikes = []
                    for line in open(log_path):
                        fields = dict(
                            token.split("=", 1)
                            for token in line.split()
                            if "=" in token
                        )
                        strikes.append(
                            f"{fields.get('kind', '?')}@"
                            f"{fields.get('site', '?')}"
                        )
                report.cases.append(
                    ChaosCase(
                        plan=name,
                        mode=mode,
                        matched=(jsonable == reference),
                        injected=len(strikes),
                        fallbacks=fallbacks,
                        detail="; ".join(sorted(set(strikes))),
                    )
                )
    return report
