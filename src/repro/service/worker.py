"""The service worker: claim → evaluate → commit → release, until done.

:class:`ServiceWorker` is the unit every topology reuses.  The in-process
path of :class:`~repro.exec.engine.LeaseExecutor` drains with the calling
process as the (only) worker; the multi-worker path forks N children that
each run :func:`service_child_main`, which builds a ``ServiceWorker``
around its *own* store handle (backend handles never cross a fork: SQLite
connections and JSONL fds are per-process) and drains the same chunk
list.  Nothing distinguishes the processes once they run — every worker
executes the identical loop against the shared store:

1. refresh the store view, renew my heartbeat;
2. stop claiming if the campaign's tombstone appeared (cooperative
   cancellation — in-flight work below still commits);
3. scan the chunk list in sequence order: skip terminal chunks
   (done/quarantined), try to lease the rest;
4. evaluate a claimed chunk with the normal retry/quarantine machinery
   (:func:`repro.exec.engine._evaluate_with_retry` — poison chunks land
   in the store's quarantine exactly as under the direct executors);
5. commit idempotently: if a racing peer already committed the chunk
   (at-least-once execution makes that legal), byte-verify that both
   evaluations produced identical payloads and drop ours — *first commit
   wins*; a mismatch is a determinism violation and raises;
6. release the lease, repeat; wait up to one poll interval when a scan
   finds work but can claim none of it (all leased by live peers).  A
   forked child waits on the supervisor's shared ``done`` event rather
   than sleeping, so it wakes the moment any process sees the whole
   chunk list settled.

The loop ends when a scan finds every chunk terminal.  Worker deaths need
no special handling here: a killed worker simply stops heartbeating, its
leases expire, and step 3 of the survivors reclaims the chunks (the lease
table records the death — see :mod:`repro.service.lease`).

``chaos_kill_after=N`` is the fault-injection hook the chaos suite and
the CLI's hidden ``--chaos-kill-after`` use: the worker SIGKILLs itself
while *holding* its (N+1)-th lease — the most adversarial death point,
leaving an unexpired claim on an unevaluated chunk.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.common.errors import ChunkQuarantinedError, StoreError
from repro.exec.engine import _evaluate_with_retry, chunk_meta
from repro.service.lease import LeaseTable
from repro.service.liveness import WorkerRegistry, default_worker_id
from repro.service.registry import CampaignRegistry
from repro.store.backends import DONE, QUARANTINED
from repro.store.codec import encode_results
from repro.store.fingerprint import context_kind
from repro.store.policy import RunPolicy, ServicePolicy
from repro.store.store import CampaignStore, open_store
from repro.telemetry import get_telemetry
from repro.telemetry.core import Telemetry, set_telemetry


@dataclass
class DrainStats:
    """What one worker's drain accomplished."""

    executed: int = 0          # chunks this worker evaluated and committed
    duplicates: int = 0        # commits dropped as byte-verified duplicates
    cancelled: bool = False    # the campaign tombstone stopped the drain


class ServiceWorker:
    """One worker's drain loop over a shared store (see module doc)."""

    def __init__(
        self,
        store: CampaignStore,
        policy: RunPolicy,
        service: ServicePolicy,
        worker_id: Optional[str] = None,
        campaign: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        on_chunk: Optional[Callable[[int, List[Any], Optional[dict]], None]] = None,
        chaos_kill_after: Optional[int] = None,
        stale_before: Optional[float] = None,
    ) -> None:
        if policy.store is not store:
            # the evaluate/commit helpers write through policy.store; a
            # split-brain pair would commit into a different store than
            # the one being coordinated over
            raise StoreError("ServiceWorker requires policy.store is store")
        self.store = store
        self.policy = policy
        self.service = service
        self.worker_id = worker_id or default_worker_id()
        self.campaign = campaign
        self.clock = clock
        self.sleep = sleep
        self.on_chunk = on_chunk
        self.chaos_kill_after = chaos_kill_after
        #: clean-mode watermark: DONE/QUARANTINED records committed before
        #: this wall-clock moment are *stale* — treated as absent, so every
        #: chunk re-executes (the DAVOS ``clean`` semantics) while records
        #: committed by peers during this run still coordinate normally
        self.stale_before = stale_before
        self.liveness = WorkerRegistry(store, service, self.worker_id, clock=clock)
        self.leases = LeaseTable(
            store, service, self.worker_id, liveness=self.liveness, clock=clock
        )
        self.registry = CampaignRegistry(store, clock=clock)
        self._acquired = 0

    # -- cancellation -----------------------------------------------------------
    def cancelled(self) -> bool:
        if self.campaign is None:
            return False
        self.store.refresh()
        return self.registry.cancelled(self.campaign)

    # -- the drain loop ---------------------------------------------------------
    def drain(
        self,
        fn: Callable[[Any, Sequence[Any]], Any],
        context: Any,
        chunks: Sequence[Sequence[Any]],
        fingerprints: Sequence[str],
    ) -> DrainStats:
        """Work the chunk list until every chunk is terminal (or the
        campaign is cancelled).  Safe to run concurrently with any number
        of peers draining the same list against the same store."""
        telemetry = get_telemetry()
        kind = context_kind(context)
        stats = DrainStats()
        self.liveness.register()
        # indices this worker saw reach DONE/QUARANTINED: terminal states
        # never revert within a run (the staleness watermark is fixed at
        # run start), so remembering them spares every later scan a full
        # record read+decode per settled chunk
        terminal: set = set()
        while True:
            self.store.refresh()
            self.liveness.beat()
            if self.cancelled():
                stats.cancelled = True
                break
            remaining = 0
            progress = False
            for index, (chunk, fingerprint) in enumerate(zip(chunks, fingerprints)):
                if index in terminal:
                    continue
                record = self.store.backend.get(fingerprint)
                if (
                    record is not None
                    and record.status in (DONE, QUARANTINED)
                    and not self._stale(record)
                ):
                    terminal.add(index)
                    continue
                remaining += 1
                lease = self.leases.acquire(fingerprint, kind)
                if lease is None:
                    continue  # leased by a live peer, lost race, or escalated
                self._chaos_tick()
                progress = True
                try:
                    results, snapshot, attempts = _evaluate_with_retry(
                        fn, context, chunk, self.policy, fingerprint, kind, index
                    )
                except ChunkQuarantinedError:
                    # already recorded in the store; peers see the terminal
                    # state on their next scan — keep draining the rest
                    self.leases.release(lease)
                    terminal.add(index)
                    remaining -= 1
                    continue
                if self._commit_idempotent(
                    fingerprint, kind, context, chunk, index,
                    results, snapshot, attempts, lease.epoch,
                ):
                    stats.executed += 1
                    telemetry.count("service.chunks.executed")
                else:
                    stats.duplicates += 1
                self.leases.release(lease)
                terminal.add(index)
                remaining -= 1
                if self.on_chunk is not None:
                    # hand the evaluated chunk straight to the caller: an
                    # in-process executor can deliver from memory instead
                    # of reading its own commit back out of the store
                    self.on_chunk(index, results, snapshot)
                self.store.refresh()
                self.liveness.beat()
                if self.cancelled():
                    stats.cancelled = True
                    break
            if stats.cancelled or remaining == 0:
                break
            if not progress:
                # everything left is claimed by live peers: wait, rescan
                self.sleep(self.service.poll_interval)
        return stats

    # -- idempotent commits -----------------------------------------------------
    def _commit_idempotent(
        self,
        fingerprint: str,
        kind: str,
        context: Any,
        chunk: Sequence[Any],
        index: int,
        results: List[Any],
        snapshot: Optional[dict],
        attempts: int,
        epoch: int,
    ) -> bool:
        """Commit one evaluated chunk; returns False for a dropped duplicate.

        At-least-once execution means a racing peer may have committed the
        chunk between our claim and our commit.  Determinism makes both
        evaluations byte-equal, so the duplicate is verified and dropped
        (first commit wins); a payload mismatch means the evaluation was
        *not* a pure function of the fingerprinted inputs, which is a bug
        worth crashing over.
        """
        self.store.refresh()
        existing = self.store.backend.get(fingerprint)
        if (
            existing is not None
            and existing.status == DONE
            and not self._stale(existing)
        ):
            ours = encode_results(results)
            # canonical JSON text: backend round-trips turn tuples into
            # lists, so compare serialized forms, not structures
            if json.dumps(existing.payload, sort_keys=True) == json.dumps(
                ours, sort_keys=True
            ):
                get_telemetry().count("service.commits.duplicate")
                return False
            raise StoreError(
                f"duplicate commit for chunk {fingerprint[:12]} does not "
                f"byte-match the first commit — chunk evaluation is not "
                f"deterministic (worker {self.worker_id!r})"
            )
        meta = chunk_meta(context, chunk, index)
        # lease provenance: who executed the chunk, at which claim epoch —
        # report extraction ignores unknown meta keys, so serial and
        # service stores stay diff-identical
        meta["lease"] = {"worker": self.worker_id, "epoch": int(epoch)}
        self.store.put_chunk(
            fingerprint, kind, results, snapshot, meta=meta, attempts=attempts
        )
        return True

    def _stale(self, record) -> bool:
        return (
            self.stale_before is not None and record.created < self.stale_before
        )

    # -- chaos hook -------------------------------------------------------------
    def _chaos_tick(self) -> None:
        self._acquired += 1
        if (
            self.chaos_kill_after is not None
            and self._acquired > self.chaos_kill_after
        ):
            # die mid-lease: claim held, chunk unevaluated, no release —
            # the exact failure the lease TTL + liveness protocol covers
            os.kill(os.getpid(), signal.SIGKILL)


def service_child_main(
    store_path: str,
    store_backend: str,
    policy_spec: dict,
    service: ServicePolicy,
    fn: Callable[[Any, Sequence[Any]], Any],
    context: Any,
    chunks: Sequence[Sequence[Any]],
    fingerprints: Sequence[str],
    worker_id: str,
    campaign: Optional[str],
    chaos_kill_after: Optional[int],
    stale_before: Optional[float],
    done: Any,
) -> None:
    """Entry point of a forked service worker process.

    Installs a fresh sinkless telemetry context first (a forked child
    inherits the parent's active context — including any open trace-file
    sink — and must never write into it; chunk telemetry travels through
    committed snapshots instead), then opens its own store handle and
    drains.  Exit code 0 covers both "drained" and "cancelled"; anything
    else is a worker failure the supervising parent counts as a death.

    ``done`` is the fleet's shared ``multiprocessing.Event``: idle waits
    block on it (so they end as soon as it is set), and a drain that
    returns normally sets it.  It is never set on an error path — a set
    event turns every peer's idle wait into an immediate rescan.
    """
    set_telemetry(Telemetry())
    store = open_store(store_path, backend=store_backend)
    try:
        policy = RunPolicy(
            store=store,
            retries=int(policy_spec.get("retries", 0)),
            backoff=float(policy_spec.get("backoff", 0.0)),
            on_crash=policy_spec.get("on_crash"),
        )
        worker = ServiceWorker(
            store,
            policy,
            service,
            worker_id=worker_id,
            campaign=campaign,
            sleep=done.wait,
            chaos_kill_after=chaos_kill_after,
            stale_before=stale_before,
        )
        worker.drain(fn, context, chunks, fingerprints)
        done.set()
    finally:
        store.close()
