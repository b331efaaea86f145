"""``repro.dist`` — distributed execution for fleets.

The experiment surface (scenarios × budgets × replications × policies)
is embarrassingly parallel but :mod:`repro.exec.pool` is pinned to one
host.  This package scales the same job payloads over many hosts with
the same determinism contract — a distributed run merges to
bitwise-identical results vs the serial/pooled local paths, regardless
of worker count, lease order, or worker death mid-job:

* :mod:`repro.dist.queue` — the broker: a job queue over
  TCP (one authenticated socket per connection, framed by the stdlib's
  ``multiprocessing.connection``; no new dependencies) with
  heartbeats, dead-worker reaping, the shared cache store, cost-sized
  leases and one batched upload per lease;
* :mod:`repro.dist.costmodel` — :class:`CostModel`, the per-job
  runtime predictor (EWMA-refined) behind longest-first dispatch and
  lease sizing;
* :mod:`repro.dist.worker` — the worker loop (``repro dist worker``);
* :mod:`repro.dist.executor` — :class:`DistExecutor`, the driver-side
  handle that plugs into :class:`~repro.exec.ExecutionContext` behind
  the same interface as the local pool;
* :mod:`repro.dist.cachetier` — the read-through/write-through shared
  cache tier layered over :class:`~repro.exec.ResultCache`;
* :mod:`repro.dist.fleet` — the fleet driver (``repro dist run``)
  enumerating registry scenarios into a job matrix;
* :mod:`repro.dist.journal` — :class:`RunJournal`, the checkpoint
  store behind ``repro dist run --journal/--resume``.

See ``docs/distributed.md`` for the protocol and the contracts, and
``docs/robustness.md`` for the failure modes and recovery machinery.
"""

from repro.dist.cachetier import CacheTier
from repro.dist.costmodel import CostModel, job_features
from repro.dist.executor import DistExecutor
from repro.dist.fleet import FleetCell, FleetOutcome, build_matrix, run_matrix
from repro.dist.journal import RunJournal
from repro.dist.queue import (
    DEFAULT_AUTHKEY,
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_PORT,
    Broker,
    BrokerServer,
    JobFailure,
    JobPayload,
    connect,
    parse_address,
)
from repro.dist.worker import worker_loop

__all__ = [
    "Broker",
    "BrokerServer",
    "CacheTier",
    "CostModel",
    "DEFAULT_AUTHKEY",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_PORT",
    "DistExecutor",
    "FleetCell",
    "FleetOutcome",
    "JobFailure",
    "JobPayload",
    "RunJournal",
    "build_matrix",
    "connect",
    "job_features",
    "parse_address",
    "run_matrix",
    "worker_loop",
]
