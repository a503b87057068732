"""Multi-tenant personal-KG serving: per-tenant overlays behind the gateway.

The paper's flagship scenario is a virtual assistant answering over a
*personal* KG fused with the shared open-domain graph (§5).  This module
is that scenario at serving shape: a :class:`TenantRegistry` owns many
small per-tenant stores, each persisted as its own chained bundle under
``tenants/<id>/`` via the *same* staged-publish machinery the shared
graph uses (:class:`~repro.kg.deltas.GenerationPublisher`), and each
served as a :class:`~repro.kg.overlay.TenantOverlay` over the one shared
CSR every tenant multiplexes.

Layering (all derived state follows the adopt-or-rebuild contract):

* **durable**: the tenant's raw :class:`SourceRecord`\\ s and tombstones,
  encoded as literal facts in a tiny :class:`TripleStore` and published
  as ~ms delta generations — crash-safe, replayable, evictable;
* **fused**: the personal KG built deterministically from the records by
  :class:`~repro.ondevice.incremental.IncrementalPipeline` (sorted
  inputs → byte-identical people/entities on every rebuild, the property
  cross-device sync already relies on);
* **served**: the fused store collapsed over the shared base CSR; walks
  and neighborhoods over the merged view answer byte-identically to a
  single-tenant build of the same overlay.

Isolation guarantees: a tenant engine reads exactly its own fused store
plus the (immutable) shared base; nothing tenant-scoped ever enters the
shared worker fleet (``WorkerState._dispatch`` rejects the family), and
cache entries are keyed per ``(tenant, tenant_version, request)``.
Server-side enrichment stays differentially private: sync responses
report record counts only through :func:`dp_count_query`.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.common import ids
from repro.common.metrics import MetricsRegistry
from repro.common.rng import stable_hash
from repro.kg.adjacency import CSRAdjacency
from repro.kg.deltas import GenerationPublisher
from repro.kg.graph_engine import GraphEngine
from repro.kg.overlay import TenantOverlay
from repro.kg.persistence import SNAPSHOT_MANIFEST, load_snapshot
from repro.kg.store import TripleStore
from repro.kg.triple import Fact, LiteralType, ObjectKind
from repro.ondevice.enrichment import dp_count_query
from repro.ondevice.incremental import IncrementalPipeline
from repro.ondevice.records import SourceRecord, record_lww_key
from repro.serving.requests import PersonalRecord, valid_tenant_id
from repro.serving.worker import ENGINE_PAYLOADS

# Durable encoding: one literal fact per record / tombstone, subject is a
# stable hash-derived entity id (record ids are arbitrary strings; entity
# locals are not).
RECORD_PREDICATE = ids.predicate_id("tenant_record")
TOMBSTONE_PREDICATE = ids.predicate_id("tenant_tombstone")

# A personal record field naming a shared-graph entity the fused person
# links to — how tenant facts reach into the open-domain graph ("Anna is
# interested in entity:Q42") and the hook fused answers traverse.
LINK_FIELD = "linked_entity"
LINK_PREDICATE = ids.predicate_id("interested_in")

_SEED_SPACE = 2**63


class TenantError(RuntimeError):
    """A tenancy-layer failure (bad tenant id, unusable tenant bundle)."""


class TenantNotFound(TenantError):
    """The tenant does not exist (and auto-create was not requested)."""


def to_source_record(record: PersonalRecord) -> SourceRecord:
    """Wire :class:`PersonalRecord` -> pipeline :class:`SourceRecord`."""
    return SourceRecord(
        record_id=record.record_id,
        source=record.source,
        fields={key: value for key, value in record.fields},
        sequence=record.sequence,
    )


def to_personal_record(record: SourceRecord) -> PersonalRecord:
    """Pipeline :class:`SourceRecord` -> wire :class:`PersonalRecord`."""
    return PersonalRecord(
        record_id=record.record_id,
        source=record.source,
        fields=tuple(sorted((str(k), str(v)) for k, v in record.fields.items())),
        sequence=record.sequence,
    )


def _record_entity(source: str, record_id: str) -> str:
    digest = hashlib.sha1(f"{source}\x00{record_id}".encode("utf-8")).hexdigest()[:16]
    return ids.entity_id(f"tenant/rec-{digest}")


def _record_fact(record: SourceRecord) -> Fact:
    return Fact(
        subject=_record_entity(record.source, record.record_id),
        predicate=RECORD_PREDICATE,
        obj=json.dumps(record.to_dict(), sort_keys=True),
        obj_kind=ObjectKind.LITERAL,
        literal_type=LiteralType.STRING,
    )


def _tombstone_fact(source: str, record_id: str, sequence: int) -> Fact:
    payload = {"source": source, "record_id": record_id, "sequence": sequence}
    return Fact(
        subject=_record_entity(source, record_id),
        predicate=TOMBSTONE_PREDICATE,
        obj=json.dumps(payload, sort_keys=True),
        obj_kind=ObjectKind.LITERAL,
        literal_type=LiteralType.STRING,
    )


class TenantState:
    """One resident tenant: durable record store + derived serving layers.

    All mutation and derivation happens under one reentrant lock; the
    durable store is the single source of truth and both derived layers
    (fused personal KG, overlay engine) cache against version keys and
    rebuild when stale — never mutate in place.
    """

    def __init__(
        self,
        tenant_id: str,
        directory: Path,
        *,
        compact_every: int = 8,
        verify: bool = True,
    ) -> None:
        self.tenant_id = tenant_id
        self.directory = Path(directory)
        self._lock = threading.RLock()
        self.records: dict[tuple[str, str], SourceRecord] = {}
        self.tombstones: dict[tuple[str, str], int] = {}
        if (self.directory / SNAPSHOT_MANIFEST).exists():
            snapshot = load_snapshot(self.directory, verify=verify)
            self.store = snapshot.store
            self._parse_store()
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.store = TripleStore(name=f"tenant-{tenant_id}")
        self.publisher = GenerationPublisher(
            self.store,
            self.directory,
            compact_every=compact_every,
            embeddings=False,
            verify=verify,
        )
        # (fused store, fused people), keyed by the durable store version
        # that derived them.
        self._fused: tuple[int, TripleStore, list] | None = None
        # The overlay engine, keyed by (base built_version, fused version).
        self._overlay: tuple[tuple[int, int], TenantOverlay] | None = None

    def _parse_store(self) -> None:
        """Rebuild the in-memory record/tombstone maps from durable facts."""
        for fact in self.store.scan(predicate=RECORD_PREDICATE):
            record = SourceRecord.from_dict(json.loads(fact.obj))
            self.records[(record.source, record.record_id)] = record
        for fact in self.store.scan(predicate=TOMBSTONE_PREDICATE):
            payload = json.loads(fact.obj)
            key = (payload["source"], payload["record_id"])
            sequence = int(payload.get("sequence", 0))
            self.tombstones[key] = max(sequence, self.tombstones.get(key, sequence))

    @property
    def version(self) -> int:
        """The tenant's published version (its durable store version)."""
        return self.store.version

    # -- durable mutations (last-writer-wins, mirroring Device semantics) --

    def apply_upserts(self, incoming: Iterable[SourceRecord]) -> tuple[int, int]:
        """LWW-merge ``incoming``; returns ``(applied, skipped)``.

        Does not publish — callers batch mutations and call
        :meth:`publish` once per request.
        """
        applied = skipped = 0
        with self._lock:
            ordered = sorted(
                incoming, key=lambda r: (r.source, r.record_id, r.sequence)
            )
            for record in ordered:
                key = (record.source, record.record_id)
                tombstone = self.tombstones.get(key)
                if tombstone is not None:
                    if tombstone >= record.sequence:
                        skipped += 1
                        continue
                    self._remove_tombstone(key)
                existing = self.records.get(key)
                if existing is not None:
                    if record_lww_key(existing) >= record_lww_key(record):
                        skipped += 1
                        continue
                    self._remove_fact(_record_fact(existing))
                fact = self.store.add(_record_fact(record))
                self.publisher.record(keys=[fact.key])
                self.records[key] = record
                applied += 1
        return applied, skipped

    def apply_delete(self, source: str, record_id: str, sequence: int = 0) -> bool:
        """Tombstone one record; True when a stored copy was removed."""
        with self._lock:
            key = (source, record_id)
            existing = self.records.get(key)
            seq = sequence if sequence else (existing.sequence if existing else 0)
            if existing is not None and seq < existing.sequence:
                return False
            prior = self.tombstones.get(key)
            if prior is None or seq > prior:
                if prior is not None:
                    self._remove_tombstone(key)
                fact = self.store.add(_tombstone_fact(source, record_id, seq))
                self.publisher.record(keys=[fact.key])
                self.tombstones[key] = seq
            if existing is None:
                return False
            self._remove_fact(_record_fact(existing))
            del self.records[key]
            return True

    def apply_tombstones(
        self, incoming: Iterable[tuple[str, str, int]]
    ) -> int:
        """Adopt device tombstones (sync ingest); returns newly raised."""
        raised = 0
        with self._lock:
            for source, record_id, sequence in sorted(incoming):
                key = (source, record_id)
                current = self.tombstones.get(key)
                if current is not None and current >= sequence:
                    continue
                existing = self.records.get(key)
                if existing is not None and existing.sequence > sequence:
                    continue
                if current is not None:
                    self._remove_tombstone(key)
                fact = self.store.add(_tombstone_fact(source, record_id, sequence))
                self.publisher.record(keys=[fact.key])
                self.tombstones[key] = sequence
                raised += 1
                if existing is not None:
                    self._remove_fact(_record_fact(existing))
                    del self.records[key]
        return raised

    def _remove_fact(self, fact: Fact) -> None:
        self.store.remove(*fact.key)
        self.publisher.record(keys=[fact.key])

    def _remove_tombstone(self, key: tuple[str, str]) -> None:
        source, record_id = key
        self._remove_fact(_tombstone_fact(source, record_id, self.tombstones[key]))
        del self.tombstones[key]

    def publish(self):
        """Publish pending durable mutations as one delta generation."""
        with self._lock:
            return self.publisher.publish()

    # -- derived layers ----------------------------------------------------

    def fused(self) -> tuple[TripleStore, list]:
        """The fused personal KG ``(store, people)`` at the current version.

        Deterministic in the record set: the pipeline sorts records by id,
        fused entity ids are positional, and the shared-graph link pass
        iterates people/records in sorted order — two registries holding
        the same records derive byte-identical stores.
        """
        with self._lock:
            version = self.version
            if self._fused is not None and self._fused[0] == version:
                return self._fused[1], self._fused[2]
            records = sorted(self.records.values(), key=lambda r: r.record_id)
            result = IncrementalPipeline(list(records)).run_to_completion()
            store, people = result.store, result.people
            by_id = {record.record_id: record for record in records}
            for person in people:
                for record_id in sorted(person.record_ids):
                    record = by_id.get(record_id)
                    if record is None:
                        continue
                    link = record.fields.get(LINK_FIELD, "")
                    if isinstance(link, str) and ids.is_entity(link):
                        store.add(
                            Fact(
                                subject=person.entity,
                                predicate=LINK_PREDICATE,
                                obj=link,
                                obj_kind=ObjectKind.ENTITY,
                                sources=(f"source:{record.source}",),
                            )
                        )
            self._fused = (version, store, people)
            return store, people

    def overlay(self, base: CSRAdjacency) -> TenantOverlay:
        """The tenant overlay over ``base``, rebuilt when either side moved."""
        with self._lock:
            key = (base.built_version, self.version)
            if self._overlay is not None and self._overlay[0] == key:
                return self._overlay[1]
            store, _people = self.fused()
            overlay = TenantOverlay(base, store)
            self._overlay = (key, overlay)
            return overlay

    def engine(self, base: CSRAdjacency) -> GraphEngine:
        """A :class:`GraphEngine` over shared base + this tenant's overlay."""
        return self.overlay(base).engine()

    def memory_bytes(self) -> int:
        """Rough resident footprint: overlay splice arrays + record JSON."""
        total = sum(
            len(json.dumps(record.to_dict())) for record in self.records.values()
        )
        if self._overlay is not None:
            snapshot = self._overlay[1].snapshot
            total += int(snapshot.indptr.nbytes + snapshot.indices.nbytes)
            total += int(snapshot.entity_edge_degrees.nbytes)
        return total

    def close(self) -> None:
        """Flush background work so eviction never races a compaction."""
        self.publisher.join_compaction()


class _Slot:
    """Registry bookkeeping for one resident tenant.

    ``state`` is published only once construction succeeded; ``ready``
    gates concurrent attachers (the build runs outside the registry
    lock, so one slow cold-attach never stalls other tenants).  ``pins``
    counts requests currently holding the state: LRU overflow never
    evicts a pinned slot — it defers to the last release — because
    evicting mid-request would let the same tenant re-attach and run two
    publishers over one ``tenants/<id>/`` chain, silently overwriting
    generation records.
    """

    __slots__ = ("state", "error", "ready", "pins")

    def __init__(self) -> None:
        self.state: TenantState | None = None
        self.error: BaseException | None = None
        self.ready = threading.Event()
        self.pins = 0


class TenantRegistry:
    """Create/load/evict tenants and serve their overlay engines.

    An LRU of at most ``max_resident`` :class:`TenantState`\\ s stays in
    memory; everything else lives on disk under ``tenants/<id>/`` and
    cold-attaches on demand (the bench records that cost).  Eviction is
    safe at any point: every mutation publishes durably before its
    request completes, and request paths hold their state via
    :meth:`lease`, which pins the slot so eviction defers until the
    request released it — a tenant can never be resident twice.
    """

    def __init__(
        self,
        tenants_dir: str | Path,
        *,
        max_resident: int = 32,
        compact_every: int = 8,
        verify: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_resident <= 0:
            raise ValueError(f"max_resident must be positive, got {max_resident}")
        self.tenants_dir = Path(tenants_dir)
        self.tenants_dir.mkdir(parents=True, exist_ok=True)
        self.max_resident = max_resident
        self.compact_every = compact_every
        self.verify = verify
        self.metrics = metrics or MetricsRegistry("tenants")
        self._lock = threading.RLock()
        self._resident: OrderedDict[str, _Slot] = OrderedDict()
        self.evictions = 0

    # -- lifecycle ---------------------------------------------------------

    def _tenant_dir(self, tenant_id: str) -> Path:
        return self.tenants_dir / tenant_id

    def exists(self, tenant_id: str) -> bool:
        """True when the tenant is resident or persisted on disk."""
        if not valid_tenant_id(tenant_id):
            return False
        with self._lock:
            if tenant_id in self._resident:
                return True
        return (self._tenant_dir(tenant_id) / SNAPSHOT_MANIFEST).exists()

    def list_tenants(self) -> list[str]:
        """Every persisted tenant id, sorted."""
        return sorted(
            path.name
            for path in self.tenants_dir.iterdir()
            if (path / SNAPSHOT_MANIFEST).exists()
        )

    def _acquire(self, tenant_id: str, *, create: bool = False) -> TenantState:
        """Pin and return the resident state, attaching it if needed.

        Validates the id (path safety), LRU-promotes residents.  The
        caller owns one pin and must :meth:`_release` it; cold-attach
        construction happens outside the registry lock (concurrent
        attachers of the same tenant wait on the slot's ready event, and
        other tenants are never stalled by one slow build).
        """
        while True:
            with self._lock:
                slot = self._resident.get(tenant_id)
                if slot is None:
                    if not valid_tenant_id(tenant_id):
                        raise TenantError(f"invalid tenant id: {tenant_id!r}")
                    directory = self._tenant_dir(tenant_id)
                    on_disk = (directory / SNAPSHOT_MANIFEST).exists()
                    if not on_disk and not create:
                        raise TenantNotFound(f"unknown tenant: {tenant_id}")
                    slot = _Slot()
                    slot.pins = 1  # the builder's own pin
                    self._resident[tenant_id] = slot
                    return self._build(tenant_id, slot, directory, on_disk)
                if slot.ready.is_set() and slot.state is not None:
                    slot.pins += 1
                    self._resident.move_to_end(tenant_id)
                    return slot.state
            # Another thread is attaching this tenant: wait outside the
            # registry lock, then retry — the slot may have errored (its
            # builder removed it) or been evicted before we re-locked.
            slot.ready.wait()
            if slot.error is not None:
                raise slot.error

    def _build(
        self, tenant_id: str, slot: _Slot, directory: Path, on_disk: bool
    ) -> TenantState:
        """Construct a :class:`TenantState` for a freshly inserted slot.

        Runs without the registry lock — snapshot load and chain replay
        can be slow, and must not stall every other tenant.
        """
        try:
            state = TenantState(
                tenant_id,
                directory,
                compact_every=self.compact_every,
                verify=self.verify,
            )
        except BaseException as exc:
            with self._lock:
                slot.error = exc
                if self._resident.get(tenant_id) is slot:
                    del self._resident[tenant_id]
            slot.ready.set()
            raise
        with self._lock:
            slot.state = state
            slot.ready.set()
            self.metrics.incr("tenants.attached" if on_disk else "tenants.created")
            evicted = self._evict_overflow_locked()
            self.metrics.gauge("tenants.resident", float(len(self._resident)))
        self._close_evicted(evicted)
        return state

    def _release(self, tenant_id: str, state: TenantState) -> None:
        """Drop one pin; runs any eviction the pin was deferring."""
        with self._lock:
            slot = self._resident.get(tenant_id)
            if slot is not None and slot.state is state:
                slot.pins -= 1
            evicted = self._evict_overflow_locked()
            if evicted:
                self.metrics.gauge("tenants.resident", float(len(self._resident)))
        self._close_evicted(evicted)

    def _evict_overflow_locked(self) -> list[TenantState]:
        """Pop LRU slots past capacity that are ready and unpinned.

        Pinned or still-building slots are skipped — their eviction
        defers to the last release.  Returns the evicted states for the
        caller to close *outside* the registry lock (close joins any
        in-flight compaction, which must not stall other tenants).
        """
        evicted: list[TenantState] = []
        overflow = len(self._resident) - self.max_resident
        if overflow <= 0:
            return evicted
        for tenant_id, slot in list(self._resident.items()):
            if len(evicted) >= overflow:
                break
            if slot.pins > 0 or not slot.ready.is_set() or slot.state is None:
                continue
            del self._resident[tenant_id]
            evicted.append(slot.state)
            self.evictions += 1
            self.metrics.incr("tenants.evicted")
        return evicted

    def _close_evicted(self, evicted: list[TenantState]) -> None:
        for state in evicted:
            state.close()

    @contextmanager
    def lease(
        self, tenant_id: str, *, create: bool = False
    ) -> Iterator[TenantState]:
        """Pin ``tenant_id``'s resident state for the duration of a block.

        The request-path accessor: while leased, the state cannot be
        evicted, so the same tenant can never be re-attached concurrently
        — exactly one live :class:`GenerationPublisher` per chain.
        """
        state = self._acquire(tenant_id, create=create)
        try:
            yield state
        finally:
            self._release(tenant_id, state)

    def get(self, tenant_id: str, *, create: bool = False) -> TenantState:
        """Attach ``tenant_id`` and return its state (an unpinned borrow).

        Safe for inspection and point-in-time reads — an evicted state
        still answers consistently from its own layers and never touches
        the durable chain.  Anything that mutates durable state (or must
        observe one consistent resident across a window) holds
        :meth:`lease` instead.
        """
        state = self._acquire(tenant_id, create=create)
        self._release(tenant_id, state)
        return state

    def evict(self, tenant_id: str) -> bool:
        """Drop a tenant from residency (state stays durable on disk).

        Refuses (returns ``False``) while any request holds the state
        leased — evicting mid-request could double-attach the tenant.
        """
        with self._lock:
            slot = self._resident.get(tenant_id)
            if slot is None or slot.pins > 0 or not slot.ready.is_set():
                return False
            del self._resident[tenant_id]
            state = slot.state
            self.evictions += 1
            self.metrics.incr("tenants.evicted")
            self.metrics.gauge("tenants.resident", float(len(self._resident)))
        if state is not None:
            state.close()
        return True

    def resident_count(self) -> int:
        with self._lock:
            return len(self._resident)

    def tenant_version(self, tenant_id: str) -> int:
        return self.get(tenant_id).version

    # -- request serving ---------------------------------------------------

    def execute_read(self, tenant_id: str, request, base: CSRAdjacency) -> list:
        """Answer a walk/neighborhood request over the tenant's overlay.

        ``base`` is the shared-generation CSR to read through.  The
        registry holds none of its own: the caller names the generation,
        so a concurrent shared swap can never mix two into one answer.
        Overlays collapsed over an older base rebuild on the next read
        (append-only ids keep the splice valid across generations).
        """
        with self.lease(tenant_id) as state:
            return self.execute_on(state.engine(base), request)

    def execute_on(self, engine: GraphEngine, request) -> list:
        """Answer over an already-captured overlay engine.

        The serving path leases the tenant once, keys its cache probe on
        the leased version and computes here — one registry round-trip
        per request.  The answer comes from the same functions the shared
        workers use, so a tenant answer differs from a shared answer only
        by the overlay's facts.
        """
        self.metrics.incr("tenants.reads")
        answer = ENGINE_PAYLOADS.get(type(request))
        if answer is None:
            raise TypeError(
                f"request type {type(request).__name__} is not tenant-servable"
            )
        return answer(engine, request)

    def upsert(self, tenant_id: str, records: Iterable[PersonalRecord]) -> dict[str, Any]:
        """Apply a :class:`TenantUpsertRequest`; returns its payload."""
        with self.lease(tenant_id, create=True) as state:
            applied, skipped = state.apply_upserts(
                to_source_record(record) for record in records
            )
            state.publish()
            self.metrics.incr("tenants.upserts")
            return {
                "applied": applied,
                "skipped": skipped,
                "tenant_version": state.version,
            }

    def delete(
        self, tenant_id: str, source: str, record_id: str, sequence: int = 0
    ) -> dict[str, Any]:
        """Apply a :class:`TenantDeleteRequest`; returns its payload."""
        with self.lease(tenant_id) as state:
            deleted = state.apply_delete(source, record_id, sequence)
            state.publish()
            self.metrics.incr("tenants.deletes")
            return {"deleted": deleted, "tenant_version": state.version}

    def sync(
        self,
        tenant_id: str,
        records: Iterable[PersonalRecord] = (),
        tombstones: Iterable[tuple[str, str, int]] = (),
        epsilon: float = 1.0,
    ) -> dict[str, Any]:
        """One device<->server sync round; returns the response payload.

        Ingests the device's records/tombstones (LWW), publishes once,
        then returns what the device is missing: server records that beat
        the device's copies, all server tombstones (retention — a late
        device must still learn about old deletions), the fused people
        and a DP-noised record count.
        """
        with self.lease(tenant_id, create=True) as state:
            return self._sync_leased(
                state, tenant_id, records=records, tombstones=tombstones,
                epsilon=epsilon,
            )

    def _sync_leased(
        self,
        state: TenantState,
        tenant_id: str,
        *,
        records: Iterable[PersonalRecord],
        tombstones: Iterable[tuple[str, str, int]],
        epsilon: float,
    ) -> dict[str, Any]:
        tombstones = [tuple(t) for t in tombstones]
        incoming = [to_source_record(record) for record in records]
        state.apply_tombstones(tombstones)
        state.apply_upserts(incoming)
        state.publish()
        self.metrics.incr("tenants.syncs")

        device_keys = {
            (record.source, record.record_id): record_lww_key(record)
            for record in incoming
        }
        device_tombs = {}
        for source, record_id, sequence in tombstones:
            key = (source, record_id)
            device_tombs[key] = max(sequence, device_tombs.get(key, sequence))
        with state._lock:
            missing = [
                to_personal_record(record)
                for key, record in sorted(state.records.items())
                if (
                    key not in device_keys
                    or device_keys[key] < record_lww_key(record)
                )
                and device_tombs.get(key, -1) < record.sequence
            ]
            server_tombstones = [
                [source, record_id, sequence]
                for (source, record_id), sequence in sorted(state.tombstones.items())
                if device_tombs.get((source, record_id), -1) < sequence
            ]
            record_count = len(state.records)
        _store, people = state.fused()
        seed = stable_hash(f"tenant-dp:{tenant_id}:{state.version}", _SEED_SPACE)
        return {
            "records": [
                {
                    "record_id": record.record_id,
                    "source": record.source,
                    "fields": [list(pair) for pair in record.fields],
                    "sequence": record.sequence,
                }
                for record in missing
            ],
            "tombstones": server_tombstones,
            "people": [
                {
                    "entity": person.entity,
                    "name": person.name,
                    "record_ids": list(person.record_ids),
                }
                for person in people
            ],
            "tenant_version": state.version,
            "dp_record_count": dp_count_query(record_count, epsilon, seed=seed),
        }

    def close(self) -> None:
        """Drop every resident tenant (durable state stays on disk)."""
        with self._lock:
            slots = list(self._resident.values())
            self._resident.clear()
        for slot in slots:
            if slot.state is not None:
                slot.state.close()
