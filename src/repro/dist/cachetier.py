"""Shared read-through/write-through cache tier over the broker store.

A :class:`CacheTier` presents the exact interface
:class:`repro.exec.ResultCache` presents to the execution runtime
(``key`` / ``lookup`` / ``put`` / ``fetch`` plus the hit/miss
counters), so an :class:`~repro.exec.ExecutionContext` built on a tier
caches transparently — but behind that interface sit *two* stores:

* **local** — an optional on-disk :class:`ResultCache` (the worker's
  ``--cache-dir``), consulted first;
* **shared** — the broker's in-memory blob store
  (:meth:`repro.dist.queue.Broker.cache_get` / ``cache_put``), keyed by
  the *same* content addresses, consulted on a local miss.

In front of both sits a **memo**: the last :data:`MEMO_ENTRIES`
verified, decoded hits, kept in memory.  A worker runs every block of
a cell against the same sizing, so it pays that sizing's fetch, sha256
check and unpickle once, not once per block, with or without a local
store.  Like :class:`repro.dist.jobs.ProcessMemo`, a memo hit hands
back the very object an earlier hit returned: cached values are
read-only to their callers.

Read-through: a shared hit is also written back into the local store,
so a restarted worker with a ``--cache-dir`` still skips the network.
Write-through: every ``put`` lands in both stores, so the first worker
to converge a sizing publishes it and every other worker (and every
later CI run against the same broker) reuses it instead of
recomputing.

What gets published is decided by the *callers* exactly as for the
local cache — ``fetch(..., should_store=...)`` still gates
non-converged sizing results, and a worker killed mid-job publishes
nothing, because ``put`` only ever runs after ``compute()`` returned.

Values cross the wire inside the same checksummed envelope the disk
store writes (:func:`repro.exec.cache.pack_entry`: magic, sha256,
pickle), so a blob damaged anywhere — on the broker, in transit, by an
injected fault — fails verification *before* unpickling and reads as a
miss (counted in :attr:`CacheTier.quarantined`), never as wrong bytes.

Robustness: remote calls run under a :class:`~repro.retry.RetryPolicy`
(transient transport errors are retried with capped backoff), and a
remote that stays down after the retries are exhausted flips the tier
into **local-only degraded mode** — sizing runs keep completing on
local compute + local cache instead of dying on a lost broker.  Fault
plans inject at the ``cachetier.get`` / ``cachetier.put`` action hooks
and damage bytes at the ``cachetier.blob`` transform hook.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro import obs
from repro.errors import is_transient
from repro.faults import injector as faults
from repro.retry import DEFAULT_RETRY, RetryPolicy
from repro.exec.cache import ResultCache, entry_key, pack_entry, unpack_entry

__all__ = ["CacheTier"]

#: Decoded hits one tier keeps in memory, least recently used evicted
#: first.  Covers the cells a worker interleaves (a fleet matrix leases
#: each cell's blocks together), while bounding the memory a
#: long-lived worker spends on it.
MEMO_ENTRIES = 32


class CacheTier:
    """Two-level result cache behind a memo of decoded hits: local
    disk first, broker store second.

    Parameters
    ----------
    remote:
        An object with ``cache_get(key) -> Optional[bytes]`` and
        ``cache_put(key, blob)`` — the broker proxy (or a
        :class:`~repro.dist.queue.Broker` directly, in-process).
    local:
        Optional :class:`ResultCache`; ``None`` makes the shared store
        the only tier (a worker launched without ``--cache-dir``).
    retry:
        Backoff policy for remote store calls.
    degrade_on_loss:
        When ``True`` (default), a remote call that still fails with a
        transient transport error after the retries are exhausted marks
        the remote store down (:attr:`remote_down`) and the tier keeps
        serving from the local store alone; ``False`` re-raises, for
        callers that would rather fail than silently lose pooling.

    Attributes
    ----------
    hits / misses:
        Combined counters in :class:`ResultCache`'s meaning (a hit in
        the memo or either store is a hit), so context-level
        accounting and tests work unchanged on a tier.
    memo_hits / local_hits / shared_hits / publishes:
        Tier-resolved diagnostics.
    quarantined:
        Shared blobs that failed envelope verification (damaged on the
        broker or in transit) and were treated as misses.
    remote_down:
        ``True`` once the tier has degraded to local-only operation.
    """

    def __init__(
        self,
        remote,
        local: Optional[ResultCache] = None,
        retry: RetryPolicy = DEFAULT_RETRY,
        degrade_on_loss: bool = True,
    ) -> None:
        self.remote = remote
        self.local = local
        self.retry = retry
        self.degrade_on_loss = degrade_on_loss
        self.hits = 0
        self.misses = 0
        self.memo_hits = 0
        self.local_hits = 0
        self.shared_hits = 0
        self.publishes = 0
        self.quarantined = 0
        self.remote_down = False
        self._memo: "OrderedDict[str, Any]" = OrderedDict()
        # The instance counters above are the tier's API (contexts and
        # tests read them); these mirror every increment into the
        # process registry so the fleet view aggregates them.  No-op
        # stubs when metrics are off.
        self._c_hits = obs.counter("cachetier.hits")
        self._c_misses = obs.counter("cachetier.misses")
        self._c_memo_hits = obs.counter("cachetier.memo_hits")
        self._c_local_hits = obs.counter("cachetier.local_hits")
        self._c_shared_hits = obs.counter("cachetier.shared_hits")
        self._c_publishes = obs.counter("cachetier.publishes")
        self._c_quarantined = obs.counter("cachetier.quarantined")
        self._c_remote_down = obs.counter("cachetier.remote_down")

    # -- remote plumbing -----------------------------------------------

    def _remote_call(self, describe: str, call: Callable[[], Any]) -> Any:
        """Run one remote-store RPC under the retry policy.

        Exhausted transient failures either degrade the tier to
        local-only (``degrade_on_loss``) or re-raise; the sentinel
        return ``None`` is indistinguishable from a miss by design —
        a lost shared store *is* a missing tier.
        """
        try:
            return self.retry.call(call, describe=describe)
        except Exception as exc:
            if self.degrade_on_loss and is_transient(exc):
                self.remote_down = True
                self._c_remote_down.inc()
                return None
            raise

    # -- the ResultCache interface -------------------------------------

    def key(self, kind: str, payload: Dict[str, Any]) -> str:
        """Content address — identical to the disk store's for the same
        payload, which is what makes the tiers interchangeable."""
        return entry_key(kind, payload)

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` — the memo, then local, then the shared store."""
        with obs.span("cachetier.lookup") as span:
            hit, value, tier = self._lookup(key)
            span.set("tier", tier)
            return hit, value

    def _lookup(self, key: str) -> Tuple[bool, Any, str]:
        if key in self._memo:
            self._memo.move_to_end(key)
            self.hits += 1
            self.memo_hits += 1
            self._c_hits.inc()
            self._c_memo_hits.inc()
            return True, self._memo[key], "memo"
        if self.local is not None:
            hit, value = self.local.get(key)
            if hit:
                self.hits += 1
                self.local_hits += 1
                self._c_hits.inc()
                self._c_local_hits.inc()
                self._remember(key, value)
                return True, value, "local"
        blob = None
        if not self.remote_down:
            def _get():
                faults.fire("cachetier.get", key=key)
                return self.remote.cache_get(key)

            blob = self._remote_call(f"shared cache get {key[:12]}", _get)
        if blob is not None:
            blob = faults.transform("cachetier.blob", blob)
            try:
                value = unpack_entry(blob)
            except Exception:
                # A damaged blob must never deserialize into a wrong
                # value: verification failed, count it and miss.
                self.quarantined += 1
                self.misses += 1
                self._c_quarantined.inc()
                self._c_misses.inc()
                return False, None, "quarantined"
            self.hits += 1
            self.shared_hits += 1
            self._c_hits.inc()
            self._c_shared_hits.inc()
            if self.local is not None:
                self.local.put(key, value)
            self._remember(key, value)
            return True, value, "shared"
        self.misses += 1
        self._c_misses.inc()
        return False, None, "miss"

    def _remember(self, key: str, value: Any) -> None:
        """Memoise one verified hit, evicting past :data:`MEMO_ENTRIES`."""
        self._memo[key] = value
        if len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def put(self, key: str, value: Any) -> None:
        """Write-through: the local store and the shared store."""
        if self.local is not None:
            self.local.put(key, value)
        if self.remote_down:
            return
        blob = pack_entry(value)

        def _put():
            faults.fire("cachetier.put", key=key)
            self.remote.cache_put(key, blob)
            return True

        if self._remote_call(f"shared cache put {key[:12]}", _put):
            self.publishes += 1
            self._c_publishes.inc()

    def fetch(
        self,
        kind: str,
        payload: Dict[str, Any],
        compute: Callable[[], Any],
        should_store: Optional[Callable[[Any], bool]] = None,
    ) -> Any:
        """Memoise ``compute()`` through both tiers.

        Same contract as :meth:`ResultCache.fetch`: ``should_store``
        vetoes publishing (non-converged sizing results stay local to
        the computing process — they are not pure functions of the
        payload and must never pool).
        """
        key = self.key(kind, payload)
        hit, value = self.lookup(key)
        if hit:
            return value
        value = compute()
        if should_store is None or should_store(value):
            self.put(key, value)
        return value
