"""Versioned LRU result cache for the serving layer.

Keys are ``(store_version, request)`` — requests are frozen dataclasses,
so the pair hashes directly.  Versioning makes invalidation structural:
results computed against one snapshot generation can never answer a query
against another, and :meth:`QueryCache.adopt_version` purges every entry
of older generations the moment a new bundle is adopted (entries would
otherwise merely age out of the LRU).

The storage mechanism is :class:`repro.common.kvstore.MemoryKVStore` —
the same thread-safe LRU the annotation layer's §3.2 KV cache uses —
with versioned keying and the generation purge layered on top.  Hit,
miss and eviction accounting stays in the store (one source of truth);
the registry only records generation invalidations.

Cached values are returned by reference and must be treated as read-only
— the serving facade hands them straight to clients, exactly like the
mmap-backed arrays underneath.

Serve-stale-on-error: when a generation swap demotes entries, the most
recent result per request survives in a bounded *stale* store instead of
vanishing.  :meth:`QueryCache.get_stale` is the degradation path's last
resort — a previous-generation answer beats a 500, and the serving
envelope flags it ``degraded`` with the stale ``store_version`` so
clients know exactly what they got.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.common import tracing
from repro.common.kvstore import MemoryKVStore
from repro.common.metrics import MetricsRegistry

_SENTINEL = object()


class QueryCache:
    """Thread-safe LRU over ``(store_version, [tenant,] request)`` keys."""

    def __init__(
        self,
        capacity: int = 2048,
        metrics: MetricsRegistry | None = None,
        stale_capacity: int = 256,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if stale_capacity < 0:
            raise ValueError(f"stale_capacity must be >= 0, got {stale_capacity}")
        self.capacity = capacity
        self.stale_capacity = stale_capacity
        self.metrics = metrics or MetricsRegistry("query-cache")
        self._store = MemoryKVStore(capacity=capacity)
        # stale key -> (store_version, value): the newest demoted result
        # per request, kept for serve-stale-on-error (0 disables it).
        self._stale = MemoryKVStore(capacity=max(stale_capacity, 1))
        # The generation this cache currently accepts live writes for;
        # None until the first adopt_version.  Writes tagged with any
        # other version demote straight to the stale store — see put().
        self._adopted_version: int | None = None

    @staticmethod
    def _key(version: int, request: Hashable, tenant) -> tuple:
        # Tenantless keys keep their historical 2-tuple shape (pinned by
        # tests and by adopt_version's key[0] sweep, which works on both
        # shapes).  A tenant entry keys on (tenant_id, tenant_version) so
        # a tenant write invalidates structurally, exactly like a shared
        # generation swap does — and two tenants can never collide even
        # on identical requests.
        if tenant is None:
            return (version, request)
        return (version, tuple(tenant), request)

    @staticmethod
    def _stale_key(request: Hashable, tenant) -> Hashable:
        # Stale fallbacks ignore versions by design but must never cross
        # tenants: key by tenant_id only (any version of *your own* past
        # answer may serve degraded; nobody else's ever can).
        if tenant is None:
            return request
        return (tuple(tenant)[0], request)

    @staticmethod
    def _family(request: Hashable) -> str:
        return getattr(type(request), "wire_type", None) or type(request).__name__

    def get(self, version: int, request: Hashable, tenant=None) -> Any:
        """The cached result, or ``None`` on a miss.

        ``tenant`` is a ``(tenant_id, tenant_version)`` pair scoping the
        entry to one tenant overlay generation, or ``None`` for the
        shared graph.  Aggregate hit/miss accounting lives in the backing
        store (one source of truth); read it via
        :attr:`hits`/:attr:`misses`/:attr:`hit_rate`.  Per-request-family
        counters land in the registry (``cache.hits.<wire_type>`` /
        ``cache.misses.<wire_type>``) for the /metrics exposition.
        """
        value = self._store.get(self._key(version, request, tenant), _SENTINEL)
        family = self._family(request)
        if value is _SENTINEL:
            self.metrics.incr(f"cache.misses.{family}")
            return None
        self.metrics.incr(f"cache.hits.{family}")
        return value

    def put(self, version: int, request: Hashable, value: Any, tenant=None) -> None:
        """Insert a result, evicting the least-recently-used past capacity.

        A write tagged with a generation other than the adopted one — an
        in-flight request that lost a race with :meth:`adopt_version` —
        never lands in the live store: it demotes straight to the stale
        store (newest generation per request wins), closing the window in
        which a straggling old-generation write could be re-read by a
        request that captured the old version before the swap.
        """
        adopted = self._adopted_version
        if adopted is not None and version != adopted:
            self.metrics.incr("cache.swap_races")
            self._demote(version, request, value, tenant)
            return
        self._store.put(self._key(version, request, tenant), value)

    def _demote(self, version: int, request: Hashable, value: Any, tenant=None) -> None:
        """Move one entry into the stale store if it is the newest there."""
        if self.stale_capacity == 0:
            return
        key = self._stale_key(request, tenant)
        existing = self._stale.get(key, _SENTINEL)
        if existing is _SENTINEL or existing[0] < version:
            self._stale.put(key, (version, value))

    def get_stale(self, request: Hashable, tenant=None) -> tuple[int, Any] | None:
        """The newest demoted ``(store_version, result)`` for ``request``.

        The degradation path's last resort: consulted only after fresh
        compute failed past its retry budget.  Returns ``None`` when no
        previous generation ever answered this request (or stale serving
        is disabled).  Tenant-scoped lookups only ever see the same
        tenant's demoted answers.
        """
        if self.stale_capacity == 0:
            return None
        family = self._family(request)
        entry = self._stale.get(self._stale_key(request, tenant), _SENTINEL)
        if entry is _SENTINEL:
            self.metrics.incr("cache.stale_misses")
            self.metrics.incr(f"cache.stale_misses.{family}")
            return None
        self.metrics.incr("cache.stale_hits")
        self.metrics.incr(f"cache.stale_hits.{family}")
        tracing.event("cache.stale_hit", store_version=entry[0])
        return entry

    def family_stats(self) -> dict[str, dict[str, int]]:
        """Per-request-family hit/miss/stale counts, from the registry.

        Shape: ``{wire_type: {"hits": n, "misses": n, "stale_hits": n}}``
        — the structured twin of the ``cache_*_by_type`` Prometheus
        families the service exposes.
        """
        # snapshot() copies under the registry lock — iterating the live
        # counters dict would race a first-of-its-family incr() from a
        # serving thread (dict grows mid-iteration).
        counters = self.metrics.snapshot()
        out: dict[str, dict[str, int]] = {}
        for kind in ("hits", "misses", "stale_hits", "stale_misses"):
            prefix = f"counter.cache.{kind}."
            for key, count in counters.items():
                if key.startswith(prefix) and len(key) > len(prefix):
                    family = key[len(prefix) :]
                    out.setdefault(family, {})[kind] = int(count)
        return out

    def adopt_version(self, version: int) -> int:
        """Drop every entry not built at ``version``; returns count dropped.

        Called when the service adopts a new snapshot generation — stale
        generations must free their memory immediately, not linger until
        LRU pressure pushes them out.

        The adopted version is published *before* the purge sweeps, so a
        put racing this call either lands before a sweep (and is swept)
        or observes the new version and self-demotes (:meth:`put`); a
        second sweep after the first closes the remaining interleaving.
        Either way no old-generation entry survives in the live store.

        Dropped entries are *demoted*, not lost: the newest result per
        request moves into the bounded stale store for
        serve-stale-on-error (:meth:`get_stale`).
        """
        self._adopted_version = version
        dropped = 0
        for _sweep in range(2):
            stale = [key for key in self._store.keys() if key[0] != version]
            for key in stale:
                value = self._store.get(key, _SENTINEL)
                if value is not _SENTINEL:
                    # 2-tuple = shared entry, 3-tuple = (version, tenant,
                    # request) — demote under the matching stale key.
                    if len(key) == 3:
                        self._demote(key[0], key[2], value, key[1])
                    else:
                        self._demote(key[0], key[1], value)
                self._store.delete(key)
            dropped += len(stale)
            if not stale:
                break
        if dropped:
            self.metrics.incr("cache.invalidated", dropped)
            tracing.event(
                "cache.invalidated", store_version=version, dropped=dropped
            )
        return dropped

    def clear(self) -> None:
        """Drop everything, stale entries included (counters are preserved)."""
        self._store.clear()
        self._stale.clear()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hits(self) -> int:
        """Lookups served from the cache so far."""
        return self._store.hits

    @property
    def misses(self) -> int:
        """Lookups that fell through so far."""
        return self._store.misses

    @property
    def evictions(self) -> int:
        """LRU evictions so far."""
        return self._store.evictions

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses) so far (0.0 before any traffic)."""
        return self._store.hit_rate
