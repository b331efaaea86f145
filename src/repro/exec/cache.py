"""Disk-backed, content-addressed store for experiment results.

Every cacheable computation is described by a *payload*: a plain
tree of dicts/lists/scalars that fully determines the result — the
topology fingerprint, the capacities or budget, the simulation or solver
configuration.  The cache key is a SHA-256 over the canonical JSON of
that payload wrapped in an envelope carrying the computation *kind*, the
cache schema version and the package code version, so

* the same experiment re-run (or an overlapping sweep) hits;
* any config change — a different base seed, arbiter, budget, solver
  knob — misses;
* upgrading the package (or the cache schema) invalidates everything,
  because results may legitimately change across code versions.

Values are stored as individual pickle files under two-level fan-out
directories (``<root>/<kk>/<key>.pkl``), written atomically via a
rename so a crashed writer never leaves a truncated entry behind.

Entries are **sha256-checksummed**: the stored bytes are a magic tag,
the digest of the pickled value, then the pickle itself
(:func:`pack_entry`/:func:`unpack_entry`).  A read whose digest does
not match is *quarantined* — renamed aside, counted, never
deserialised — and reported as a miss, so a bit-flipped or truncated
entry is recomputed instead of feeding garbage (or a pickle bomb) into
an experiment.  The same framing wraps blobs crossing the distributed
cache tier (:mod:`repro.dist.cachetier`), so corruption is caught at
every store boundary.

A cache built with ``max_bytes`` evicts least-recently-used entries
after every store until the on-disk footprint fits the bound: hits
touch an entry's mtime, so recency survives process restarts, and
unreadable (corrupt) entries are just bytes like any other — they read
as misses and age out of the LRU order like everything else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import _version, obs
from repro.errors import CacheCorruptionError, ReproError
from repro.faults import injector as faults

#: Bump to invalidate every existing cache entry (layout/semantic changes).
#: 2: entries carry the sha256-checksummed :func:`pack_entry` framing.
CACHE_SCHEMA = 2

#: Leading tag of every checksummed entry/blob (version in the byte).
ENTRY_MAGIC = b"RPC2"

_DIGEST_BYTES = hashlib.sha256().digest_size

_MISSING = object()


def pack_entry(value: Any) -> bytes:
    """Serialise ``value`` with an integrity envelope.

    ``magic + sha256(pickle) + pickle`` — the format every store tier
    (disk entries, broker blobs, the fleet run journal) writes, so a
    result round-trips bit-exactly *and* verifiably through any tier.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload


def unpack_entry(data: bytes) -> Any:
    """Verify and deserialise one :func:`pack_entry` envelope.

    Raises :class:`CacheCorruptionError` on a bad tag, a short read, or
    a digest mismatch — *before* any unpickling, so damaged bytes are
    never deserialised.  (A digest-valid pickle that still fails to
    load — e.g. a class renamed between runs — raises its own error;
    callers treat both as a miss.)
    """
    header = len(ENTRY_MAGIC) + _DIGEST_BYTES
    if len(data) < header or data[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
        raise CacheCorruptionError(
            "cache entry is not a checksummed envelope"
        )
    digest = data[len(ENTRY_MAGIC) : header]
    payload = data[header:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheCorruptionError("cache entry failed its sha256 check")
    return pickle.loads(payload)


def canonicalize(obj: Any) -> Any:
    """Reduce an object tree to canonical JSON-compatible primitives.

    Dicts are rekeyed to strings (so JSON key sorting is total),
    tuples/sets become lists (sets sorted), dataclasses become
    ``{"__type__": name, **fields}``, and numpy scalars collapse to
    Python scalars via ``item()``.  Anything else must already be a JSON
    scalar.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__type__": type(obj).__name__, **fields}
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        return obj.item()
    raise ReproError(
        f"cannot canonicalise {type(obj).__name__!r} for cache hashing"
    )


def stable_hash(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``.

    ``json.dumps`` with sorted keys over the canonical tree is a stable
    serialisation: float repr is the shortest round-trip form, so equal
    bit patterns always hash equally.
    """
    text = json.dumps(
        canonicalize(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry_key(kind: str, payload: Dict[str, Any]) -> str:
    """The content address of one computation.

    The envelope pins the computation kind, the cache schema and the
    code version alongside the payload, so keys from different
    kinds/versions can never collide.  Module-level because the address
    is a pure function of its inputs: every store tier — the on-disk
    :class:`ResultCache`, the distributed shared tier
    (:mod:`repro.dist.cachetier`) — must compute identical keys or
    they could never pool results.
    """
    return stable_hash(
        {
            "kind": kind,
            "schema": CACHE_SCHEMA,
            "code_version": _version.__version__,
            "payload": payload,
        }
    )


def topology_fingerprint(topology) -> Dict[str, Any]:
    """Canonical content description of a topology.

    Covers everything the solvers and the simulator read: buses, links,
    bridges, processors (service rates, loss weights), and flows with
    their full traffic descriptors.
    """
    return {
        "name": topology.name,
        "buses": sorted(topology.buses),
        "links": sorted(
            [sorted((link.bus_a, link.bus_b)) for link in topology.links]
        ),
        "bridges": {
            name: {
                "bus_a": bridge.bus_a,
                "bus_b": bridge.bus_b,
                "service_rate": bridge.service_rate,
                "loss_weight": bridge.loss_weight,
            }
            for name, bridge in topology.bridges.items()
        },
        "processors": {
            name: {
                "bus": proc.bus,
                "service_rate": proc.service_rate,
                "loss_weight": proc.loss_weight,
            }
            for name, proc in topology.processors.items()
        },
        "flows": {
            name: {
                "source": flow.source,
                "destination": flow.destination,
                "traffic": canonicalize(flow.traffic),
            }
            for name, flow in topology.flows.items()
        },
    }


class ResultStore:
    """The ``key`` and ``fetch`` every result store shares.

    A store supplies ``lookup(key) -> (hit, value)`` and ``put(key,
    value)``.  Three do: :class:`ResultCache` on disk,
    :class:`repro.dist.cachetier.CacheTier` over a broker, and
    :class:`repro.dist.jobs.ProcessMemo` in one run's memory.
    """

    def key(self, kind: str, payload: Dict[str, Any]) -> str:
        """The content address of one computation (:func:`entry_key`),
        the same in every store, which is what lets stores pool."""
        return entry_key(kind, payload)

    def fetch(
        self,
        kind: str,
        payload: Dict[str, Any],
        compute: Callable[[], Any],
        should_store: Optional[Callable[[Any], bool]] = None,
    ) -> Any:
        """Memoise ``compute()`` under the content address of the payload.

        ``should_store`` vetoes storing a freshly computed value (e.g. a
        sizing run whose fixed point did not converge, whose result is
        therefore not a pure function of the payload and must never
        pool); the value is still returned, just recomputed next time.
        """
        key = self.key(kind, payload)
        hit, value = self.lookup(key)
        if hit:
            return value
        value = compute()
        if should_store is None or should_store(value):
            self.put(key, value)
        return value


class ResultCache(ResultStore):
    """A content-addressed pickle store rooted at one directory.

    Parameters
    ----------
    root:
        Cache directory (created on first use).
    max_bytes:
        Optional size bound.  After every store, least-recently-used
        entries are deleted until the total entry footprint is at most
        this many bytes (``--cache-max-mb`` on the CLI).  ``None``
        (default) never evicts.  The bound is hard: a single entry
        larger than ``max_bytes`` is itself evicted right after being
        written, effectively disabling persistence for it.

    Attributes
    ----------
    hits / misses / evictions / quarantined:
        Counters over this process's :meth:`fetch`/:meth:`put` calls,
        used by the tests and the benchmark to assert cache behaviour.
        ``quarantined`` counts entries whose integrity check failed and
        were set aside (read as misses, recomputed — self-healing).
    """

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ReproError(
                f"max_bytes must be >= 0 or None, got {max_bytes}"
            )
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0
        # Mirrors of the instance counters in the process registry
        # (no-op stubs when metrics are off): the instance attributes
        # stay the per-store API, the registry aggregates across every
        # store in the process and ships to the broker's fleet view.
        self._c_hits = obs.counter("cache.hits")
        self._c_misses = obs.counter("cache.misses")
        self._c_evictions = obs.counter("cache.evictions")
        self._c_quarantined = obs.counter("cache.quarantined")
        # Running footprint estimate for the bounded cache: seeded by
        # one directory scan on the first store, then bumped per put.
        # Re-putting an existing key over-counts, which only triggers
        # the (authoritative, correcting) eviction scan early — the
        # estimate can never let the cache silently exceed the bound.
        self._approx_bytes: Optional[int] = None
        # Serialises the footprint bookkeeping and eviction across
        # threads sharing this instance (a broker serving one store
        # from many connection threads, a pooled CI harness).  Cross-
        # *process* safety needs no lock: entry writes are atomic
        # renames, reads tolerate any bytes, and eviction tolerates
        # files vanishing underneath it.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk location of one entry."""
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for one key; unreadable entries count as miss.

        Integrity is checked *before* deserialisation: a bit-flipped or
        truncated entry fails its sha256 and is quarantined (renamed
        aside, never unpickled), then reads as a miss so the value is
        recomputed and the next :meth:`put` heals the entry.  A
        digest-valid entry that still fails to unpickle (e.g. a class
        moved between versions) is quarantined the same way — a damaged
        cache must never abort an experiment.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            return False, None
        # Chaos hook: a fault plan may damage the bytes here, exactly
        # as silent disk corruption would (no-op in production).
        data = faults.transform("cache.entry", data)
        try:
            value = unpack_entry(data)
        except Exception:
            self._quarantine(path)
            return False, None
        if self.max_bytes is not None:
            # Touch the entry so LRU eviction sees the access; recency
            # lives in mtimes, surviving process restarts.
            try:
                os.utime(path)
            except OSError:
                pass
        return True, value

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """:meth:`get` plus hit/miss accounting.

        The primitive :meth:`fetch` and batch callers (the sweep
        scheduler) build on, so the counters mean the same thing on
        every path.
        """
        with obs.span("cache.lookup") as span:
            hit, value = self.get(key)
            span.set("hit", hit)
        if hit:
            self.hits += 1
            self._c_hits.inc()
        else:
            self.misses += 1
            self._c_misses.inc()
        return hit, value

    def put(self, key: str, value: Any) -> None:
        """Store one value atomically (tmp file + rename).

        Concurrent-writer safe: every writer dumps into its own unique
        temp file and installs it with one atomic ``os.replace``, so
        racing writers (parallel CI shards, fleet workers sharing a
        directory) can never interleave bytes or expose a truncated
        entry — last rename wins, and for content-addressed keys both
        contenders carry the same value anyway.

        With ``max_bytes`` set, least-recently-used entries are evicted
        afterwards until the footprint fits the bound.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(pack_entry(value))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            with self._lock:
                if self._approx_bytes is None:
                    self._approx_bytes = self.total_bytes()
                else:
                    try:
                        self._approx_bytes += path.stat().st_size
                    except OSError:
                        # Evicted (or re-put) by a concurrent writer
                        # between the rename and the stat; the next
                        # eviction rescan corrects the estimate.
                        pass
                if self._approx_bytes > self.max_bytes:
                    self._evict_lru()

    def _quarantine(self, path: Path) -> None:
        """Set one damaged entry aside (``<key>.quarantined``).

        Renamed, not unlinked, so the bytes stay available for
        forensics; renamed out of the ``*.pkl`` namespace, so the entry
        stops hitting, stops counting toward the footprint, and the
        next :meth:`put` of the key writes a fresh entry (self-heal).
        At most one quarantined file per key (``os.replace``
        overwrites), and eviction pressure deletes them first.
        """
        try:
            os.replace(path, path.with_suffix(".quarantined"))
        except OSError:
            # Already quarantined/evicted by a concurrent reader.
            return
        self.quarantined += 1
        self._c_quarantined.inc()

    def entry_paths(self) -> list:
        """All entry files currently on disk (any fan-out directory)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def quarantined_paths(self) -> list:
        """All quarantined (integrity-failed) files currently on disk."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.quarantined"))

    def total_bytes(self) -> int:
        """Current on-disk footprint of all entries."""
        total = 0
        for path in self.entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def _evict_lru(self) -> None:
        """Delete oldest-access entries until the bound is met.

        Called with :attr:`_lock` held (one eviction scan at a time
        per instance); concurrent *processes* evicting the same
        directory are tolerated via the ``OSError`` guards below — a
        file unlinked by the other evictor (``FileNotFoundError``)
        simply stops counting here.

        Rescans the directory for an authoritative footprint (also
        correcting :attr:`_approx_bytes` drift), so it is only invoked
        when the running estimate crosses the bound — a put into a
        well-under-bound cache costs one stat, not a directory walk.
        Recency is the file mtime (ties break by file name so the order
        is total); stat/unlink races with concurrent writers are
        tolerated — a vanished file simply stops counting.  Corrupt
        entries need no special casing: they occupy bytes, age like any
        entry, and deleting one can never abort an experiment because
        reads already treat unreadable entries as misses.
        """
        # Quarantined bytes are worthless under pressure: reclaim them
        # before touching live entries.
        for path in self.quarantined_paths():
            try:
                path.unlink()
            except OSError:
                continue
        entries = []
        total = 0
        for path in self.entry_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, path.name, path, st.st_size))
            total += st.st_size
        if total > self.max_bytes:
            entries.sort()
            for _mtime, _name, path, size in entries:
                if total <= self.max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                self.evictions += 1
                self._c_evictions.inc()
        self._approx_bytes = total
