"""Typed serving requests and responses — the query vocabulary of the platform.

Every request is a frozen, hashable dataclass:

* hashable → it is directly usable as a :class:`~repro.serving.cache.QueryCache`
  key next to the snapshot's ``store_version``;
* frozen → a request enqueued, shipped to a subprocess worker and merged
  back can never be mutated in flight;
* plain data → it pickles cheaply across the process-pool boundary and
  round-trips through the JSON wire codec (:mod:`repro.serving.protocol`).

Each request class carries its serving *policy* as class attributes the
dispatch reads instead of hard-coding per-family behaviour.  The
:class:`Request` base class holds the defaults (not splittable, cacheable,
not cheap to recompute); each family overrides only where it differs:

* ``wire_type`` — the stable protocol tag (``"walk"``, ``"verify"``, …);
* ``splittable`` — whether the shard router may partition the request's
  ``entities`` tuple and merge per-entity results (walks, neighborhoods,
  related entities, fact ranking, k-NN).  Non-splittable requests ship
  whole: annotation and verification are already *batched* compute (one
  cross-document scoring pass / one embedding score pass), and splitting
  them would undo the batching; similarity pairs are too cheap to route.
* ``cacheable()`` — whether a result may enter the
  :class:`~repro.serving.cache.QueryCache`.  Most requests repeat
  (dashboards re-ask the same walks; assistants re-rank the same facts);
  multi-text annotation batches essentially never repeat byte-identically,
  so caching them would only pin dead memory (the admission policy the
  ROADMAP's "cache warming + admission" item asks for).
* ``cheap_to_recompute`` — whether the gateway may shed this class first
  under overload.  Pure graph lookups and similarity probes are cheap
  for the client to retry (and usually cached); annotation, ranking,
  verification and k-NN burn real compute, so they keep their admission
  slot until the hard limit.

Every family answers with the one :class:`Response` envelope (status,
payload, ``store_version``, per-stage timings, structured error) — the
uniform unit every transport (in-process, asyncio gateway, HTTP) speaks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar

DEFAULT_WALK_LENGTH = 8
DEFAULT_WALKS_PER_ENTITY = 4

# Tenant ids name directories under ``tenants/<id>/`` and label cache keys
# and metrics — a conservative charset keeps them path- and wire-safe.
TENANT_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_tenant_id(tenant_id: object) -> bool:
    """True when ``tenant_id`` is a well-formed tenant identifier."""
    return isinstance(tenant_id, str) and bool(TENANT_ID_PATTERN.match(tenant_id))

# Status values of a Response envelope.  ``degraded`` is the graceful
# middle ground: a *usable* payload that is incomplete (failed shards
# past the retry budget) or stale (served from a previous generation's
# cache when fresh compute failed) — flagged so clients can decide.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_ERROR = "error"

# Stable error codes carried by error envelopes (never raw tracebacks).
ERROR_BAD_REQUEST = "bad_request"
ERROR_UNSUPPORTED_VERSION = "unsupported_version"
ERROR_UNSUPPORTED_TYPE = "unsupported_type"
ERROR_OVERLOADED = "overloaded"
ERROR_DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR_UNAVAILABLE = "unavailable"
ERROR_INTERNAL = "internal"


class Request:
    """Base of every request family: the serving-policy defaults.

    Families are frozen dataclass subclasses declaring ``wire_type`` and
    overriding only the policies where they differ from these defaults.
    """

    wire_type: ClassVar[str]
    splittable: ClassVar[bool] = False
    cheap_to_recompute: ClassVar[bool] = False

    def cacheable(self) -> bool:
        return True


@dataclass(frozen=True)
class WalkRequest(Request):
    """Random walks for each of ``entities``.

    Serving walk semantics are *per-entity*: each entity's walks are drawn
    from an independent substream derived from ``(seed, entity)`` (see
    :func:`repro.serving.worker.entity_walk_seed`), so the result is
    byte-identical no matter how the request is partitioned across shards
    or how many workers serve it.
    """

    wire_type: ClassVar[str] = "walk"
    cheap_to_recompute: ClassVar[bool] = True
    splittable: ClassVar[bool] = True

    entities: tuple[str, ...]
    walk_length: int = DEFAULT_WALK_LENGTH
    walks_per_entity: int = DEFAULT_WALKS_PER_ENTITY
    seed: int = 0


@dataclass(frozen=True)
class NeighborhoodRequest(Request):
    """K-hop undirected neighborhoods (sorted) for each of ``entities``."""

    wire_type: ClassVar[str] = "neighborhood"
    cheap_to_recompute: ClassVar[bool] = True
    splittable: ClassVar[bool] = True

    entities: tuple[str, ...]
    hops: int = 1


@dataclass(frozen=True)
class RelatedRequest(Request):
    """Top-k related entities (traversal embeddings) for each of ``entities``."""

    wire_type: ClassVar[str] = "related"
    splittable: ClassVar[bool] = True

    entities: tuple[str, ...]
    k: int = 10


@dataclass(frozen=True)
class AnnotateRequest(Request):
    """Entity links for each of ``texts``, scored as one cross-doc batch.

    Single-text requests are cacheable (clients re-annotate hot snippets);
    multi-text batches essentially never repeat byte-identically, and one
    cache entry would pin every input text plus every link list — the
    admission policy skips them.
    """

    wire_type: ClassVar[str] = "annotate"

    texts: tuple[str, ...]
    tier: str = "full"

    def cacheable(self) -> bool:
        return len(self.texts) == 1


@dataclass(frozen=True)
class FactRankRequest(Request):
    """Importance-ranked values of ``(entity, predicate, ?)`` per entity.

    ``entities`` are the *subjects* (Figure 2: "occupation of LeBron
    James") — per-subject results, so the router may shard them like any
    other entity-keyed request.
    """

    wire_type: ClassVar[str] = "fact_rank"
    splittable: ClassVar[bool] = True

    entities: tuple[str, ...]
    predicate: str = ""


@dataclass(frozen=True)
class VerifyRequest(Request):
    """Verdicts for candidate ``(subject, predicate, object)`` triples.

    Dispatched whole: the verifier scores the entire candidate set in one
    batched embedding pass, which sharding would undo.
    """

    wire_type: ClassVar[str] = "verify"

    candidates: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class SimilarityRequest(Request):
    """Cosine similarity for each ``(left, right)`` entity pair.

    Unknown entities score 0.0 (the embedding service's contract) rather
    than erroring — a similarity matrix query should not fail on one
    missing row.
    """

    wire_type: ClassVar[str] = "similarity"
    cheap_to_recompute: ClassVar[bool] = True

    pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class KnnRequest(Request):
    """k nearest entities in embedding space for each of ``entities``."""

    wire_type: ClassVar[str] = "knn"
    splittable: ClassVar[bool] = True

    entities: tuple[str, ...]
    k: int = 10
    exclude_self: bool = True


# -- the tenant request family -------------------------------------------------


class TenantWrite(Request):
    """Base of the tenant-write family: never cached.

    The on-device sync protocol (ondevice/sync.py) exposed through the
    gateway: a device ships its personal records (and tombstones) to its
    tenant's server-side store and gets back what it is missing.  These
    are *writes* against per-tenant state, served by the
    :class:`~repro.serving.tenancy.TenantRegistry` in the service process
    — never dispatched to the shared worker fleet (which rejects them),
    never cached, never shed (losing a sync costs the client a full
    re-send).
    """

    def cacheable(self) -> bool:
        return False


@dataclass(frozen=True)
class PersonalRecord:
    """One source record on the wire — the tenant-family payload unit.

    The hashable twin of :class:`repro.ondevice.records.SourceRecord`:
    ``fields`` is a sorted tuple of ``(key, value)`` pairs instead of a
    dict so requests stay frozen/hashable (the cache-key contract every
    request type honours).  ``sequence`` is the last-writer-wins clock.
    """

    record_id: str
    source: str
    fields: tuple[tuple[str, str], ...] = ()
    sequence: int = 0


@dataclass(frozen=True)
class TenantUpsertRequest(TenantWrite):
    """Apply ``records`` to the tenant's personal store (last-writer-wins)."""

    wire_type: ClassVar[str] = "tenant_upsert"

    records: tuple[PersonalRecord, ...]


@dataclass(frozen=True)
class TenantSyncRequest(TenantWrite):
    """One device<->server sync round: merge state, return what's missing.

    ``records``/``tombstones`` are the device's full current state (small
    by construction — personal KGs are per-user).  The response carries
    the server records/tombstones that beat the device's, plus the fused
    people and a DP-noised record count (``epsilon``) so aggregate
    telemetry never reveals an exact personal-store size — the
    differential-privacy enrichment stays server-side.
    """

    wire_type: ClassVar[str] = "tenant_sync"

    records: tuple[PersonalRecord, ...] = ()
    tombstones: tuple[tuple[str, str, int], ...] = ()
    epsilon: float = 1.0


@dataclass(frozen=True)
class TenantDeleteRequest(TenantWrite):
    """Tombstone one record in the tenant's personal store."""

    wire_type: ClassVar[str] = "tenant_delete"

    source: str
    record_id: str
    sequence: int = 0


REQUEST_TYPES: tuple[type[Request], ...] = (
    WalkRequest,
    NeighborhoodRequest,
    RelatedRequest,
    AnnotateRequest,
    FactRankRequest,
    VerifyRequest,
    SimilarityRequest,
    KnnRequest,
    TenantUpsertRequest,
    TenantSyncRequest,
    TenantDeleteRequest,
)

# wire_type tag -> request class (the protocol decode table).
REQUESTS_BY_WIRE_TYPE: dict[str, type[Request]] = {cls.wire_type: cls for cls in REQUEST_TYPES}


def sub_request(request: Request, entities: tuple[str, ...]) -> Request:
    """The same request narrowed to ``entities`` (shard fan-out unit)."""
    if not type(request).splittable:
        raise TypeError(f"request type {type(request).__name__} is not splittable")
    return replace(request, entities=entities)


# -- response envelopes --------------------------------------------------------


@dataclass(frozen=True)
class ErrorInfo:
    """Structured error detail of a failed request — never a traceback.

    ``retryable`` tells the caller whether the failure class is transient
    (a crashed worker, an I/O flake — worth re-issuing) or deterministic
    (a ``ValueError`` that will fail identically forever);
    ``exception_type`` carries the originating exception *class name*
    across the wire so clients can distinguish the two without the
    server-side exception object.
    """

    code: str
    message: str
    retryable: bool = False
    exception_type: str = ""


#: The stable ``Response.timings`` key vocabulary.  Every value is
#: wall-clock milliseconds measured by the server:
#:
#: - ``total_ms`` — end-to-end time inside ``KGService.serve`` (or, for
#:   gateway-minted rejection envelopes, inside the gateway).  Present on
#:   **every** response: ok, degraded, cached, stale and error alike.
#: - ``cache_ms`` — cache key build + lookup (cacheable requests only).
#: - ``scatter_ms`` — request split + per-shard dispatch (split path).
#: - ``compute_ms`` — worker execution: the whole fan-out window on the
#:   split path, the single dispatch otherwise.
#: - ``gather_ms`` — merging per-shard partials (split path only).
#:
#: Stages that did not run are absent, never zero-filled.  When tracing
#: is armed each stage's span carries the *same* measurement in its
#: ``stage_ms`` attribute, so traces reconcile with envelopes exactly.
TIMING_KEYS = ("total_ms", "cache_ms", "scatter_ms", "compute_ms", "gather_ms")


@dataclass
class Response:
    """The uniform answer envelope every transport and every family speaks.

    ``request_type`` is the family's ``wire_type``; ``payload`` is its
    result (``None`` on error) — one item per entity, text, candidate or
    pair in request order, or a JSON-native dict for a tenant write;
    ``timings`` carries per-stage wall-clock milliseconds (``total_ms``
    always; ``cache_ms``/``scatter_ms``/``compute_ms``/``gather_ms`` as
    the stages run — see :data:`TIMING_KEYS` for the stable vocabulary);
    ``cached`` marks cache hits.  ``exception`` keeps the original
    in-process exception for :meth:`result` to re-raise — it never
    crosses the wire (the codec strips it; clients see only the
    structured :class:`ErrorInfo`).

    ``trace_id`` is set only when the request was served under an armed
    tracer — it names the server-side trace in ``GET /debug/traces``.
    Untraced responses leave it empty and the codec omits it, keeping
    wire bytes identical to pre-tracing builds.

    ``resilience`` is the retry metadata of a request that survived
    faults: JSON-native keys such as ``attempts`` (total dispatch
    attempts beyond the fan-out), ``failed_entities`` (positions degraded
    past the retry budget), ``stale`` / ``stale_version`` (payload served
    from a previous generation's cache) — empty on the clean path.  A
    ``degraded`` response carries *both* a usable payload and an
    ``error`` explaining what is missing or stale.
    """

    request_type: str
    status: str
    store_version: int
    payload: Any = None
    timings: dict[str, float] = field(default_factory=dict)
    cached: bool = False
    error: ErrorInfo | None = None
    exception: BaseException | None = None
    resilience: dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED

    def result(self) -> Any:
        """The payload, re-raising the original error on failure.

        Degraded responses *return* their (partial or stale) payload —
        the graceful-degradation contract is "an imperfect answer beats
        a 500"; callers that need perfection check :attr:`status`.
        """
        if self.ok or self.degraded:
            return self.payload
        if self.exception is not None:
            raise self.exception
        error = self.error or ErrorInfo(ERROR_INTERNAL, "request failed")
        raise ServingError(error.code, error.message)


class ServingError(RuntimeError):
    """A serving-layer failure reconstructed from an error envelope."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
