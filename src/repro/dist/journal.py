"""Checkpoint-resume for fleet matrix runs: the run journal.

A matrix run (`repro dist run`) can take hours; a driver killed at 90%
used to mean recomputing everything.  A :class:`RunJournal` makes the
completed prefix durable: every finished (scenario, budget,
replication-block) cell is recorded **atomically** (checksummed blob
written to a temp file, then ``os.replace``), so a journal is valid
after a kill at any instant — a block is either fully recorded or
absent, never half-written.

Layout under the journal directory::

    manifest.json          # schema, config hash, payload count
    blocks/<key>.blk       # pack_entry(BlockOutcome), content-addressed

Blocks are keyed by the same content addresses as the result cache
(:func:`~repro.exec.cache.entry_key` over the full job payload), so a
journal entry can only ever satisfy the *exact* job it recorded —
change a seed, a budget, a horizon, and the key changes.  On top of
that, ``--resume`` validates the whole-matrix **config hash**: resuming
with any altered parameters is an error, not a silently mixed run.

Entries carry the cache layer's sha256 envelope
(:func:`~repro.exec.cache.pack_entry`); a blob damaged on disk fails
verification before unpickling, is quarantined (renamed aside), and
the block is simply recomputed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.exec.cache import entry_key, pack_entry, unpack_entry

__all__ = ["RunJournal"]

#: Bump when the journal layout changes; a mismatched journal refuses
#: to resume instead of misreading.
JOURNAL_SCHEMA = 1


class RunJournal:
    """Durable record of one matrix run's completed blocks.

    Parameters
    ----------
    path:
        Journal directory (created on :meth:`bind`).
    resume:
        ``True`` continues an existing journal (config hash must
        match); ``False`` requires the directory to be fresh — an
        existing journal is an error, never silently overwritten.

    Attributes
    ----------
    hits:
        Blocks satisfied from the journal on resume.
    records:
        Blocks recorded this run.
    quarantined:
        Entries that failed checksum verification and were set aside.
    """

    def __init__(self, path, resume: bool = False) -> None:
        self.path = Path(path)
        self.resume = bool(resume)
        self.hits = 0
        self.records = 0
        self.quarantined = 0
        self._bound = False

    # -- lifecycle ------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.path / "manifest.json"

    def _blocks_dir(self) -> Path:
        return self.path / "blocks"

    def config_hash(self, payloads: List[Dict[str, Any]]) -> str:
        """Content address of the whole matrix configuration."""
        return entry_key("fleet-matrix", {"payloads": payloads})

    def bind(self, payloads: List[Dict[str, Any]]) -> None:
        """Attach the journal to one matrix configuration.

        Creates the directory and manifest on a fresh run; on
        ``resume=True`` validates that the existing manifest was
        written for the *same* matrix (schema and config hash), so a
        resumed run can never mix blocks from a different
        configuration.
        """
        config = self.config_hash(payloads)
        manifest_path = self._manifest_path()
        if manifest_path.exists():
            if not self.resume:
                raise ReproError(
                    f"journal {self.path} already exists; pass --resume "
                    f"to continue it or choose a fresh --journal path"
                )
            try:
                with open(manifest_path) as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ReproError(
                    f"journal manifest {manifest_path} is unreadable "
                    f"({exc}); the journal cannot be resumed"
                )
            if manifest.get("schema") != JOURNAL_SCHEMA:
                raise ReproError(
                    f"journal {self.path} has schema "
                    f"{manifest.get('schema')!r}, expected "
                    f"{JOURNAL_SCHEMA}; it cannot be resumed"
                )
            if manifest.get("config") != config:
                raise ReproError(
                    f"journal {self.path} records a different matrix "
                    f"configuration; --resume requires identical "
                    f"scenarios, budgets, replications, seeds and "
                    f"horizon"
                )
        else:
            if self.resume and self.path.exists():
                # An empty/partial directory without a manifest is not
                # resumable — nothing trustworthy to resume from.
                raise ReproError(
                    f"journal {self.path} has no manifest; nothing to "
                    f"resume"
                )
            self._blocks_dir().mkdir(parents=True, exist_ok=True)
            manifest = {
                "schema": JOURNAL_SCHEMA,
                "config": config,
                "payloads": len(payloads),
            }
            self._atomic_write(
                manifest_path,
                (json.dumps(manifest, sort_keys=True) + "\n").encode(),
            )
        self._bound = True

    # -- block records --------------------------------------------------

    def _block_path(self, payload: Dict[str, Any]) -> Path:
        return self._blocks_dir() / f"{entry_key('fleet-block', payload)}.blk"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def lookup(self, payload: Dict[str, Any]) -> Tuple[bool, Any]:
        """``(hit, BlockOutcome)`` for one job payload.

        A missing, truncated, or corrupted entry is a miss (damaged
        entries are quarantined aside), so a torn journal degrades to
        recomputing — never to wrong numbers.
        """
        path = self._block_path(payload)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return False, None
        try:
            block = unpack_entry(data)
        except Exception:
            try:
                os.replace(path, path.with_suffix(".quarantined"))
            except OSError:
                pass
            self.quarantined += 1
            return False, None
        self.hits += 1
        return True, block

    def record(self, payload: Dict[str, Any], block: Any) -> None:
        """Atomically persist one completed block."""
        if not self._bound:
            raise ReproError("journal used before bind()")
        self._atomic_write(self._block_path(payload), pack_entry(block))
        self.records += 1

    def completed(self) -> int:
        """Number of readable block entries currently on disk."""
        return sum(1 for _ in self._blocks_dir().glob("*.blk"))

    # -- cost model -----------------------------------------------------

    def costmodel_path(self) -> Path:
        """Where this journal persists the scheduler's cost model.

        The journal directory is the natural home: a resumed run
        should warm-start scheduling with the rates the first attempt
        observed.  ``repro dist run --journal`` seeds the broker from
        this file before submitting and snapshots the refined model
        back after the run (see the CLI); the file is a plain
        :meth:`repro.dist.costmodel.CostModel.to_state` JSON, so losing
        or corrupting it costs warm predictions, never results.
        """
        return self.path / "costmodel.json"
