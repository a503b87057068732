"""The serving facade: one front door over router, pool, batcher and cache.

This is the subsystem that turns the repo from a library into a service
(§4–5 of the paper: serving the grown KG to production traffic).  Every
knowledge service — graph queries, entity linking, fact ranking and
verification, similarity and k-NN — lands in one uniform dispatch::

    response = service.serve(request)   # any Request -> typed Response

Scatter/gather, micro-batching and the versioned :class:`QueryCache` are
*per-request-type policies* (declared on the request classes in
:mod:`repro.serving.requests`) instead of per-method code:

* ``splittable`` requests scatter over the :class:`ShardRouter`, fan out
  across the :class:`WorkerPool` and gather back in request order;
* single-text annotation rides the :class:`MicroBatcher` (cross-client
  coalescing), multi-text batches chunk straight onto the pool;
* ``cacheable()`` gates admission to the ``(store_version, request)``
  LRU — never-repeating requests (multi-text annotation) skip it.

Failures never leak tracebacks into the envelope: :meth:`serve` returns a
structured error response (the original exception rides along in-process
only, so the legacy delegating wrappers can re-raise it).  Every request
lands in per-type counters and bounded latency histograms surfaced by
:meth:`stats`.

Graceful degradation (``resilient=True``, the default): shard failures
retry under the pool's :class:`RetryPolicy` on healthy replicas, and a
shard that stays down past its budget *degrades* the response instead of
failing it — the envelope comes back ``status="degraded"`` with the
healthy shards' results in place, ``None`` holes for the failed
entities, and the underlying error attached.  A fully-failed cacheable
request falls back to the newest previous-generation answer
(serve-stale-on-error, :meth:`QueryCache.get_stale`) before surfacing an
error.  Per-shard circuit breakers fail persistent offenders fast;
:meth:`health` aggregates breaker and fleet state for ``/healthz``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.annotation.mention import EntityLink
from repro.common import tracing
from repro.common.metrics import MetricsRegistry, render_prometheus
from repro.kg.query_logs import QueryLogEntry
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import QueryCache
from repro.serving.protocol import error_response
from repro.serving.requests import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_UNAVAILABLE,
    ERROR_UNSUPPORTED_TYPE,
    REQUEST_TYPES,
    STATUS_DEGRADED,
    STATUS_OK,
    TENANT_REQUEST_TYPES,
    AnnotateRequest,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    RelatedRequest,
    Request,
    Response,
    SimilarityRequest,
    TenantSyncRequest,
    TenantUpsertRequest,
    VerifyRequest,
    WalkRequest,
    ErrorInfo,
    response_class,
)
from repro.serving.resilience import (
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    ShardResultError,
    error_fields,
)
from repro.serving.router import DEFAULT_NUM_SHARDS, ShardRouter
from repro.serving.tenancy import (
    TENANT_READ_TYPES,
    TenantNotFound,
    TenantRegistry,
    TenantState,
)
from repro.serving.worker import WORKER_MODES, WorkerConfig, WorkerPool

FULL_TIER = "full"


class PartialResultError(Exception):
    """Some shards failed past their retry budget; the rest answered.

    Raised by the scatter/gather path and caught by :meth:`serve`, which
    turns it into a ``degraded`` envelope: ``payload`` holds the merged
    results with ``None`` holes at the failed entities' positions, and
    ``cause`` is the first shard's terminal exception.
    """

    def __init__(
        self,
        payload: list,
        failed_positions: list[int],
        cause: BaseException,
        attempts: int,
    ) -> None:
        super().__init__(
            f"{len(failed_positions)} of {len(payload)} entities unavailable: "
            f"{type(cause).__name__}: {cause}"
        )
        self.payload = payload
        self.failed_positions = failed_positions
        self.cause = cause
        self.attempts = attempts


class ServingService:
    """Sharded, batched, cached KG serving over one snapshot bundle."""

    def __init__(
        self,
        bundle_dir: str | Path,
        *,
        mode: str = "inline",
        num_workers: int = 1,
        num_shards: int = DEFAULT_NUM_SHARDS,
        tier: str = FULL_TIER,
        cache_capacity: int = 2048,
        batch_max_docs: int = 16,
        batch_max_delay_s: float = 0.005,
        worker_config: WorkerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        resilient: bool = True,
        retry_policy: RetryPolicy | None = None,
        stale_capacity: int = 256,
        tenants_dir: str | Path | None = None,
        max_resident_tenants: int = 32,
    ) -> None:
        if mode not in WORKER_MODES:
            raise ValueError(f"mode must be one of {WORKER_MODES}, got {mode!r}")
        self.tier = tier
        self.num_shards = num_shards
        self.metrics = metrics or MetricsRegistry("serving")
        # resilient=False is the bare dispatch: no retries, no degradation,
        # no stale fallback — the control arm the overhead benchmark
        # measures the resilience layer's fault-free cost against.
        self.resilient = resilient
        self.retry_policy = retry_policy or (
            RetryPolicy() if resilient else RetryPolicy(max_attempts=1)
        )
        self._cache = QueryCache(
            cache_capacity,
            metrics=self.metrics,
            stale_capacity=stale_capacity if resilient else 0,
        )
        self._shard_breakers: dict[int, CircuitBreaker] = {}
        self._pool: WorkerPool | None = None
        self._router: ShardRouter | None = None
        # Bumped on every generation swap; serve() captures it up front
        # and skips its cache write when a swap happened mid-request, so
        # a result whose batched sub-work may have computed on the new
        # fleet is never cached under the old version (see _adopt).
        self._swap_epoch = 0
        self._worker_config = worker_config
        self._mode = mode
        self._num_workers = num_workers
        self._batcher = MicroBatcher(
            self._annotate_flush,
            max_batch=batch_max_docs,
            max_delay_s=batch_max_delay_s,
            metrics=self.metrics,
        )
        # Multi-tenant overlays: opt-in via tenants_dir.  The registry
        # shares this service's metrics registry and is (re)bound to the
        # live generation's CSR on every adopt.
        self._tenants: TenantRegistry | None = (
            TenantRegistry(
                tenants_dir,
                max_resident=max_resident_tenants,
                metrics=self.metrics,
            )
            if tenants_dir is not None
            else None
        )
        self._adopt(Path(bundle_dir))

    # -- lifecycle -----------------------------------------------------------

    def _adopt(self, bundle_dir: Path) -> None:
        pool = WorkerPool(
            bundle_dir,
            num_workers=self._num_workers,
            mode=self._mode,
            config=self._worker_config,
            metrics=self.metrics,
            retry_policy=self.retry_policy,
        )
        previous, self._pool = self._pool, pool
        self._swap_epoch += 1
        dictionary = pool.local_state.dictionary
        self._router = ShardRouter(
            self.num_shards,
            id_of=dictionary.get if dictionary is not None else None,
        )
        if previous is not None:
            previous.close()
        if self._tenants is not None:
            # Tenant overlays re-collapse lazily against the new base on
            # their next read; the swap itself stays O(1) per tenant.
            self._tenants.rebind_base(pool.local_state.engine.snapshot())
        # Structural invalidation: entries from other generations are
        # unreachable by key, and adopt_version frees their memory now.
        dropped = self._cache.adopt_version(pool.store_version)
        self.metrics.incr("serve.generations")
        self.metrics.gauge("serve.store_version", float(pool.store_version))
        if dropped:
            self.metrics.incr("serve.generation_invalidated", dropped)

    def adopt_generation(self, bundle_dir: str | Path) -> int:
        """Swap the fleet onto a new snapshot bundle.

        Workers for the new generation spin up first, the old pool shuts
        down after, and the query cache drops every entry whose
        ``store_version`` is not the new bundle's.  Returns the adopted
        ``store_version``.

        Requests racing the swap stay generation-consistent: each request
        captures one (version, pool, router) triple up front, so its
        results and cache writes all belong to a single generation — a
        result computed on the old fleet can never be cached under the
        new version.  A request that loses the race outright may fail
        with ``RuntimeError`` when the old pool shuts down under it;
        callers retry against the new generation.
        """
        self._batcher.flush()
        self._adopt(Path(bundle_dir))
        return self.store_version

    @property
    def store_version(self) -> int:
        """The snapshot generation currently served."""
        assert self._pool is not None
        return self._pool.store_version

    def close(self) -> None:
        """Drain pending annotation work and stop the workers."""
        self._batcher.flush()
        if self._tenants is not None:
            self._tenants.close()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ServingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the uniform dispatch --------------------------------------------------

    def serve(
        self, request: Request, *, tenant: str | None = None, _swap_retries: int = 2
    ) -> Response:
        """Answer any request with a typed response envelope.

        The single entry point every transport calls (legacy facade
        methods, the asyncio gateway, the HTTP front door).  Never raises
        for request-level failures — the envelope carries a structured
        error instead (with the original exception attached in-process
        for delegating wrappers).

        ``tenant`` scopes the request to one tenant's overlay graph, on
        the same pipeline as every other request: a tenant is an engine
        plus a cache namespace.  Walks and neighborhoods answer over the
        leased tenant's overlay engine and cache under
        ``(tenant, tenant_version)`` (with the same stale fallback), and
        the tenant write/sync family applies to that tenant's durable
        store.  Tenant work never reaches the shared worker fleet
        (isolation is enforced at dispatch, and again by the workers,
        which reject the family outright).

        Generation swaps drop zero requests: a request whose captured
        pool was shut down mid-flight by ``adopt_generation`` re-dispatches
        against the new generation (``_swap_retries`` bounds pathological
        back-to-back swaps) instead of surfacing the race as an error.

        Under an armed tracer the whole dispatch (including swap
        retries) runs inside one ``serve.request`` span and the envelope
        carries the trace id; disarmed, the only extra cost here is one
        ``None`` check.
        """
        if tracing.active() is None:
            response = self._serve_impl(request, _swap_retries, tenant)
            self.metrics.incr(f"serve.status.{response.status}")
            return response
        with tracing.span(
            "serve.request", request_type=type(request).__name__
        ) as span:
            response = self._serve_impl(request, _swap_retries, tenant)
            self.metrics.incr(f"serve.status.{response.status}")
            span.set_attribute("status", response.status)
            span.set_attribute("cached", response.cached)
            if tenant is not None:
                span.set_attribute("tenant", tenant)
            if span.recording:
                response.trace_id = span.trace_id
            return response

    def _serve_impl(
        self, request: Request, _swap_retries: int, tenant: str | None = None
    ) -> Response:
        started = time.perf_counter()
        timings: dict[str, float] = {}
        epoch = self._swap_epoch
        pool, router = self._pool, self._router
        assert pool is not None and router is not None
        version = pool.store_version
        type_name = type(request).__name__
        self.metrics.incr("serve.requests")
        self.metrics.incr(f"serve.requests.{type_name}")
        if not isinstance(request, REQUEST_TYPES):
            self.metrics.incr("serve.errors")
            timings["total_ms"] = _ms_since(started)
            return error_response(
                getattr(type(request), "wire_type", "unknown"),
                version,
                ERROR_UNSUPPORTED_TYPE,
                f"unsupported request type: {type_name}",
                timings=timings,
            )
        wire_type = type(request).wire_type

        def respond(status: str, payload, **fields) -> Response:
            timings["total_ms"] = _ms_since(started)
            return response_class(wire_type)(
                request_type=wire_type,
                status=status,
                store_version=version,
                payload=payload,
                timings=timings,
                **fields,
            )

        def fail(code: str, message: str, exception: BaseException | None = None):
            self.metrics.incr("serve.errors")
            self.metrics.incr(f"serve.errors.{type_name}")
            timings["total_ms"] = _ms_since(started)
            return error_response(
                wire_type, version, code, message, timings=timings, exception=exception
            )

        scope = nullcontext()
        if tenant is not None or isinstance(request, TENANT_REQUEST_TYPES):
            rejection = self._tenant_rejection(request, tenant)
            if rejection is not None:
                return fail(*rejection)
            if isinstance(request, TENANT_READ_TYPES):
                # The lease pins the tenant's version (the cache namespace)
                # against eviction across the cache probe and the compute.
                scope = self._tenants.lease(tenant)
        resilience: dict[str, float] = {}
        cacheable = False
        tenant_key = None
        # Everything after type dispatch sits under one except: even a
        # hostile request object (mistyped fields that defeat hashing in
        # the cache probe — the wire codec rejects those, but serve() is
        # also a public in-process API) must come back as an envelope.
        try:
            with scope as state:
                if state is not None:
                    tenant_key = (tenant, state.version)
                cacheable = request.cacheable()
                if cacheable:
                    with _stage(timings, "cache_ms", "serve.cache") as cache_span:
                        cached = self._cache.get(version, request, tenant=tenant_key)
                        cache_span.set_attribute("hit", cached is not None)
                    if cached is not None:
                        return respond(STATUS_OK, cached, cached=True)
                with self.metrics.hist_timed(
                    "serve.latency"
                ), self.metrics.hist_timed(f"serve.latency.{type_name}"):
                    payload = self._execute(
                        request, pool, router, timings, resilience, tenant, state
                    )
            if cacheable:
                if epoch == self._swap_epoch:
                    self._cache.put(version, request, payload, tenant=tenant_key)
                else:
                    # A generation swap landed mid-request: parts of this
                    # result (e.g. a micro-batched annotate flush, which
                    # reads the live pool) may have computed on the new
                    # fleet.  Skipping the write is always safe; the cache
                    # itself also refuses cross-generation writes.
                    self.metrics.incr("serve.swap_races")
        except TenantNotFound as exc:
            return fail(ERROR_BAD_REQUEST, str(exc), exc)
        except Exception as exc:
            if pool is not self._pool and _swap_retries > 0:
                # Lost the race with adopt_generation (the old pool may have
                # shut down under us): re-dispatch the same request, for the
                # same tenant, on the new generation — zero dropped
                # requests, and no partial answer from a healthy fleet.
                self.metrics.incr("serve.swap_retries")
                return self._serve_impl(request, _swap_retries - 1, tenant)
            if isinstance(exc, PartialResultError):
                # Graceful degradation: the healthy shards' answers go out
                # with None holes at the failed entities, plus the terminal
                # error — a partial answer beats a 500 for a KG lookup.
                self.metrics.incr("serve.degraded")
                self.metrics.incr(f"serve.degraded.{type_name}")
                retryable, exception_type = error_fields(exc.cause)
                return respond(
                    STATUS_DEGRADED,
                    exc.payload,
                    error=ErrorInfo(
                        code=ERROR_UNAVAILABLE,
                        message=str(exc),
                        retryable=retryable,
                        exception_type=exception_type,
                    ),
                    resilience={
                        **resilience,
                        "attempts": float(exc.attempts),
                        "failed_entities": float(len(exc.failed_positions)),
                    },
                    exception=exc.cause,
                )
            if self.resilient and cacheable:
                # Serve-stale-on-error: fresh compute is gone past its
                # budget, but a previous generation answered this exact
                # request (for this tenant) — degraded beats unavailable.
                stale = self._cache.get_stale(request, tenant=tenant_key)
                if stale is not None:
                    stale_version, stale_payload = stale
                    self.metrics.incr("serve.stale_served")
                    retryable, exception_type = error_fields(exc)
                    return respond(
                        STATUS_DEGRADED,
                        stale_payload,
                        cached=True,
                        error=ErrorInfo(
                            code=ERROR_UNAVAILABLE,
                            message=f"{type(exc).__name__}: {exc}",
                            retryable=retryable,
                            exception_type=exception_type,
                        ),
                        resilience={
                            **resilience,
                            "stale": True,
                            "stale_version": float(stale_version),
                        },
                        exception=exc,
                    )
            return fail(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}", exc)
        return respond(STATUS_OK, payload, resilience=resilience)

    def _tenant_rejection(
        self, request: Request, tenant: str | None
    ) -> tuple[str, str] | None:
        """``(code, message)`` when a tenant-scoped request cannot be served.

        Unknown tenants are rejected by the lease itself (``TenantNotFound``).
        """
        type_name = type(request).__name__
        if self._tenants is None:
            return (
                ERROR_UNAVAILABLE,
                "multi-tenant serving is not enabled (no tenants_dir configured)",
            )
        if tenant is None:
            return ERROR_BAD_REQUEST, f"{type_name} requires a tenant envelope field"
        if not isinstance(request, TENANT_REQUEST_TYPES + TENANT_READ_TYPES):
            return (
                ERROR_BAD_REQUEST,
                f"{type_name} cannot be tenant-scoped "
                "(only walks and neighborhoods answer over overlays)",
            )
        return None

    def _execute(
        self,
        request: Request,
        pool: WorkerPool,
        router: ShardRouter,
        timings: dict[str, float],
        resilience: dict[str, float],
        tenant: str | None = None,
        state: TenantState | None = None,
    ) -> list:
        """Compute one request's payload under its dispatch policy.

        A tenant read answers over the leased ``state``'s overlay engine;
        tenant writes apply to the tenant's durable store.  Neither ever
        reaches the shared worker fleet.
        """
        if tenant is not None:
            registry = self._tenants
            with _stage(timings, "compute_ms", "serve.tenant", tenant=tenant):
                if state is not None:
                    return registry.execute_on(state.engine(registry.base()), request)
                if isinstance(request, TenantUpsertRequest):
                    return registry.upsert(tenant, request.records)
                if isinstance(request, TenantSyncRequest):
                    return registry.sync(
                        tenant,
                        records=request.records,
                        tombstones=request.tombstones,
                        epsilon=request.epsilon,
                    )
                return registry.delete(
                    tenant, request.source, request.record_id, request.sequence
                )
        if isinstance(request, AnnotateRequest):
            return self._execute_annotate(request, pool, timings)
        if type(request).splittable:
            return self._execute_split(request, pool, router, timings, resilience)
        with _stage(timings, "compute_ms", "serve.compute"):
            if self.resilient:
                payload, attempts = pool.run_resilient(request)
                if attempts > 1:
                    resilience["attempts"] = float(attempts)
            else:
                payload = pool.submit(request).result()
        return payload

    def _shard_breaker(self, shard: int) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``shard``."""
        breaker = self._shard_breakers.get(shard)
        if breaker is None:
            breaker = self._shard_breakers.setdefault(
                shard, CircuitBreaker(f"shard:{shard}", metrics=self.metrics)
            )
        return breaker

    def _execute_split(
        self,
        request: Request,
        pool: WorkerPool,
        router: ShardRouter,
        timings: dict[str, float],
        resilience: dict[str, float],
    ) -> list:
        """Scatter a splittable request over shards, gather in order.

        (version, pool, router) were captured by :meth:`serve`, so a
        generation swap mid-request can't split the fan-out across two
        snapshots or cache an old-fleet result under the new version.

        Under ``resilient`` dispatch each shard resolves through the
        pool's retry loop behind its own circuit breaker; shards that
        stay down past the budget raise :class:`PartialResultError` with
        the healthy results merged in place (the degraded envelope).
        """
        with _stage(timings, "scatter_ms", "serve.scatter") as scatter_span:
            parts = router.scatter_request(request)
            scatter_span.set_attribute("shards", len(parts))
        self.metrics.incr("serve.shard_fanout", len(parts))
        if not self.resilient:
            with _stage(timings, "compute_ms", "serve.compute"):
                futures = [
                    (positions, pool.submit(shard_request))
                    for positions, shard_request in parts
                ]
                shard_results = [
                    (positions, future.result()) for positions, future in futures
                ]
            with _stage(timings, "gather_ms", "serve.gather"):
                merged = ShardRouter.gather(len(request.entities), shard_results)
            return merged
        # Resilient fan-out.  Submit everything up front (breaker-gated:
        # a tripped shard fails fast instead of queueing doomed work),
        # then resolve each shard under the retry budget.  Each shard
        # gets its own (non-activated) span, activated piecewise around
        # its submit and resolve windows so worker spans and retry events
        # parent under the right shard without the shard spans nesting
        # into each other.
        compute_span = tracing.span("serve.compute")
        compute_started = time.perf_counter()
        try:
            shard_results, failed, attempts_total = self._fan_out(
                parts, pool, router
            )
        finally:
            elapsed = _ms_since(compute_started)
            timings["compute_ms"] = elapsed
            compute_span.set_attribute("stage_ms", elapsed)
            compute_span.finish()
        if attempts_total > len(shard_results):
            resilience["attempts"] = float(attempts_total)
        if not failed:
            with _stage(timings, "gather_ms", "serve.gather"):
                merged = ShardRouter.gather(len(request.entities), shard_results)
            return merged
        gather_started = time.perf_counter()
        if not shard_results:
            # Nothing answered: a plain error (serve() may still find a
            # stale previous-generation result for it).
            raise failed[0][1]
        merged = [None] * len(request.entities)
        for positions, results in shard_results:
            for position, result in zip(positions, results):
                merged[position] = result
        failed_positions = sorted(
            position for positions, _ in failed for position in positions
        )
        timings["gather_ms"] = _ms_since(gather_started)
        raise PartialResultError(
            merged, failed_positions, failed[0][1], attempts_total
        )

    def _fan_out(
        self,
        parts: list[tuple[list[int], Request]],
        pool: WorkerPool,
        router: ShardRouter,
    ) -> tuple[
        list[tuple[list[int], list]],
        list[tuple[list[int], BaseException]],
        int,
    ]:
        """Submit + resolve every shard part; ``(results, failures, attempts)``."""
        tracer = tracing.active()
        pending: list[tuple[list[int], Request, CircuitBreaker, object, object]] = []
        for positions, shard_request in parts:
            shard = router.shard_of(shard_request.entities[0])
            breaker = self._shard_breaker(shard)
            shard_span = (
                tracer.start_span(
                    "serve.shard",
                    {"shard": shard, "entities": len(shard_request.entities)},
                    activate=False,
                )
                if tracer is not None
                else None
            )
            try:
                with tracing.using(shard_span):
                    breaker.check()
                    entry = pool.submit(shard_request)
            except Exception as exc:  # CircuitOpenError, or a failed submit
                entry = exc
                if shard_span is not None:
                    shard_span.set_attribute("error", type(exc).__name__)
                    shard_span.finish()
                    shard_span = None
            pending.append((positions, shard_request, breaker, entry, shard_span))
        shard_results: list[tuple[list[int], list]] = []
        failed: list[tuple[list[int], BaseException]] = []
        attempts_total = 0
        for positions, shard_request, breaker, entry, shard_span in pending:
            if isinstance(entry, BaseException):
                failed.append((positions, entry))
                continue
            try:
                with tracing.using(shard_span):
                    result, attempts = self._resolve_shard(
                        pool, shard_request, entry, breaker
                    )
            except Exception as exc:
                failed.append((positions, exc))
                if shard_span is not None:
                    shard_span.set_attribute("error", type(exc).__name__)
                    shard_span.finish()
                continue
            if shard_span is not None:
                shard_span.set_attribute("attempts", attempts)
                shard_span.finish()
            attempts_total += attempts
            shard_results.append((positions, result))
        return shard_results, failed, attempts_total

    def _resolve_shard(
        self,
        pool: WorkerPool,
        shard_request: Request,
        future,
        breaker: CircuitBreaker,
    ) -> tuple[list, int]:
        """One shard's result under retry + breaker + length validation.

        The pool's retry loop already covers crashes and transient
        errors; this wrapper additionally validates the *shape* of a
        nominally-successful result — a corrupt (truncated) shard
        response is retryable too, because a healthy replica answers
        correctly.  Outcomes feed the shard's breaker either way.
        """
        policy = pool.retry_policy
        expected = len(shard_request.entities)
        attempts = 0
        while True:
            try:
                result, waited = pool.resolve(shard_request, future)
            except Exception:
                breaker.record_failure()
                raise
            attempts += waited
            if len(result) == expected:
                breaker.record_success()
                return result, attempts
            self.metrics.incr("serve.shard_corrupt")
            tracing.event(
                "shard.corrupt", returned=len(result), expected=expected
            )
            breaker.record_failure()
            error = ShardResultError(
                f"shard returned {len(result)} results for {expected} entities"
            )
            if attempts >= policy.max_attempts:
                raise error
            time.sleep(policy.backoff_s(attempts, key=repr(shard_request)))
            breaker.check()
            future = pool.submit(shard_request)

    def _execute_annotate(
        self, request: AnnotateRequest, pool: WorkerPool, timings: dict[str, float]
    ) -> list[list[EntityLink]]:
        """Annotation policy: batcher for one text, chunked fan-out for many.

        A lone text rides the micro-batcher — concurrent callers' texts
        coalesce into one cross-document scoring pass, and the calling
        thread drains the queue so it never waits on the delay threshold.
        Multi-text requests chunk at the micro-batch size and dispatch to
        the pool concurrently; each worker scores its chunk as one batch.
        Results come back in input order either way.
        """
        with _stage(
            timings, "compute_ms", "serve.compute", texts=len(request.texts)
        ):
            if not request.texts:
                return []
            if len(request.texts) == 1:
                if request.tier != self.tier:
                    # The micro-batcher coalesces at the service's default
                    # tier only; an off-tier single text dispatches direct
                    # so the requested tier is honoured (and cached under
                    # the right key).
                    return pool.run(request)
                future = self._batcher.submit(request.texts[0])
                self._batcher.flush()
                return [future.result()]
            size = self._batcher.max_batch
            texts = list(request.texts)
            chunks = [texts[start : start + size] for start in range(0, len(texts), size)]
            chunk_results = pool.map(
                [
                    AnnotateRequest(texts=tuple(chunk), tier=request.tier)
                    for chunk in chunks
                ]
            )
            return [links for chunk in chunk_results for links in chunk]

    # -- legacy facade methods (thin delegation over serve()) ------------------

    def random_walks(
        self,
        entities: Sequence[str],
        walk_length: int = 8,
        walks_per_entity: int = 4,
        seed: int = 0,
    ) -> list[list[list[str]]]:
        """Per-entity random walks (see ``entity_walk_seed`` semantics)."""
        return self.serve(
            WalkRequest(
                entities=tuple(entities),
                walk_length=walk_length,
                walks_per_entity=walks_per_entity,
                seed=seed,
            )
        ).result()

    def neighborhood(
        self, entities: Sequence[str], hops: int = 1
    ) -> list[list[str]]:
        """Sorted k-hop neighborhood per entity."""
        return self.serve(
            NeighborhoodRequest(entities=tuple(entities), hops=hops)
        ).result()

    def related_entities(
        self, entities: Sequence[str], k: int = 10
    ) -> list[list[tuple[str, float]]]:
        """Top-k traversal-embedding related entities per seed entity."""
        return self.serve(RelatedRequest(entities=tuple(entities), k=k)).result()

    def annotate(self, text: str) -> list[EntityLink]:
        """Entity links for one text (coalesced with concurrent callers)."""
        return self.serve(
            AnnotateRequest(texts=(text,), tier=self.tier)
        ).result()[0]

    def annotate_many(self, texts: Sequence[str]) -> list[list[EntityLink]]:
        """Entity links for many texts: batched across documents, spread
        over the worker fleet."""
        return self.serve(
            AnnotateRequest(texts=tuple(texts), tier=self.tier)
        ).result()

    def rank_facts(self, subjects: Sequence[str], predicate: str) -> list[list]:
        """Importance-ranked values of ``(subject, predicate, ?)`` per subject."""
        return self.serve(
            FactRankRequest(entities=tuple(subjects), predicate=predicate)
        ).result()

    def verify_facts(self, candidates: Sequence[tuple[str, str, str]]) -> list:
        """Calibrated verdicts for candidate triples (one batched pass)."""
        return self.serve(
            VerifyRequest(candidates=tuple(tuple(c) for c in candidates))
        ).result()

    def similarity(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """Cosine similarity per entity pair (0.0 for unknown entities)."""
        return self.serve(
            SimilarityRequest(pairs=tuple(tuple(p) for p in pairs))
        ).result()

    def knn(self, entities: Sequence[str], k: int = 10) -> list[list]:
        """k nearest embedding-space entities per seed entity."""
        return self.serve(KnnRequest(entities=tuple(entities), k=k)).result()

    def _annotate_flush(self, texts: list[str]) -> list[list[EntityLink]]:
        """MicroBatcher sink: one pooled cross-document annotation call."""
        pool = self._pool
        assert pool is not None
        return pool.run(AnnotateRequest(texts=tuple(texts), tier=self.tier))

    # -- cache warming ---------------------------------------------------------

    def warm(self, requests: Iterable[Request]) -> int:
        """Pre-compute ``requests`` into the query cache; returns count served.

        Non-cacheable and already-cached requests are skipped.  Failed
        requests are skipped too (warming must never take the service
        down); they stay un-cached and will surface their error to the
        first real caller.
        """
        warmed = 0
        for request in requests:
            if not (isinstance(request, REQUEST_TYPES) and request.cacheable()):
                continue
            if self._cache.get(self.store_version, request) is not None:
                continue
            if self.serve(request).ok:
                warmed += 1
        self.metrics.incr("serve.cache_warmed", warmed)
        return warmed

    def warm_from_query_log(
        self, entries: Sequence[QueryLogEntry], *, min_count: int = 2, limit: int = 256
    ) -> int:
        """Warm the cache from real traffic traces (ROADMAP "cache warming").

        Aggregates *answered* ``(entity, predicate)`` lookups from a
        :mod:`repro.kg.query_logs` trace and pre-serves the fact-ranking
        request each hot pair maps to — the query shape an assistant
        issues when it re-asks a popular question.  Unanswered pairs are
        demand for *missing* facts (ODKE's reactive path) and nothing in
        the store can answer them, so they are not warmed.
        """
        return self.warm(
            requests_from_query_log(entries, min_count=min_count, limit=limit)
        )

    # -- observability ---------------------------------------------------------

    def health(self) -> dict[str, object]:
        """Liveness/readiness snapshot for the gateway's ``/healthz``.

        ``healthy`` goes false when every circuit breaker is open — the
        whole fleet is failing and callers should route elsewhere — or
        when no worker is alive.  Individual open breakers (one bad
        shard) keep the service healthy-but-degraded.
        """
        pool = self._pool
        assert pool is not None
        breakers: dict[str, str] = {"pool": pool.breaker.state}
        for shard, breaker in sorted(self._shard_breakers.items()):
            breakers[f"shard:{shard}"] = breaker.state
        all_open = all(state == OPEN for state in breakers.values())
        live = pool.live_workers()
        healthy = live > 0 and not all_open
        return {
            "healthy": healthy,
            "status": "ok" if healthy else "unhealthy",
            "store_version": self.store_version,
            "mode": pool.mode,
            "workers": pool.num_workers,
            "live_workers": live,
            "respawns": int(pool.stats().get("pool.executor_respawns", 0.0)),
            "breakers": breakers,
        }

    def gauges(self) -> dict[str, float]:
        """Point-in-time serving state the registry does not hold.

        The one gauge catalogue: :meth:`stats` and the ``/metrics``
        exposition (:meth:`prometheus_metrics`) both read it.
        """
        pool, cache = self._pool, self._cache
        assert pool is not None
        gauges = {
            "serve.store_version": float(pool.store_version),
            "serve.workers": float(pool.num_workers),
            "serve.live_workers": float(pool.live_workers()),
            "serve.shards": float(self.num_shards),
            "serve.cache_entries": float(len(cache)),
            "serve.cache_hits": float(cache.hits),
            "serve.cache_misses": float(cache.misses),
            "serve.cache_evictions": float(cache.evictions),
            "serve.cache_hit_rate": cache.hit_rate,
            "serve.batch_pending": float(self._batcher.pending),
        }
        if self._tenants is not None:
            gauges["serve.tenants_resident"] = float(self._tenants.resident_count())
            gauges["serve.tenants_evictions"] = float(self._tenants.evictions)
        return gauges

    def stats(self) -> dict[str, float | str]:
        """Requests, latency, hit rates and fleet shape, flattened.

        Per-request-type counters (``counter.serve.requests.<Type>``) and
        latency histograms (``hist.serve.latency.<Type>.p95_s``) ride the
        registry snapshot; ``serve.p95_s``/``serve.p50_s`` surface the
        overall request-path histogram directly, and :meth:`gauges` the
        point-in-time state.
        """
        out: dict[str, float | str] = dict(self.metrics.snapshot())
        assert self._pool is not None
        # Pool-computed gauges (live workers, respawns, breaker state) —
        # the raw counters already share this registry.
        out.update(
            (key, value)
            for key, value in self._pool.stats().items()
            if key.startswith("pool.")
        )
        for shard, breaker in sorted(self._shard_breakers.items()):
            snap = breaker.snapshot()
            out[f"serve.breaker.shard{shard}.state"] = snap["state"]
            out[f"serve.breaker.shard{shard}.transitions"] = snap["transitions"]
        latency = self.metrics.histograms.get("serve.latency")
        out["serve.p50_s"] = latency.quantile(0.50) if latency is not None else 0.0
        out["serve.p95_s"] = latency.quantile(0.95) if latency is not None else 0.0
        out["serve.mode"] = self._pool.mode
        out.update(self.gauges())
        return out

    def cache_family_stats(self) -> dict[str, dict[str, int]]:
        """Per-request-family cache hit/miss/stale counts (see QueryCache)."""
        return self._cache.family_stats()

    # Counter-key prefixes whose dynamic suffixes (request type names,
    # breaker edges) become one labeled Prometheus family each, instead of
    # minting a new metric name per suffix.
    PROMETHEUS_FAMILIES = {
        "serve.requests.": ("serve_requests_by_type", "type"),
        "serve.status.": ("serve_responses_by_status", "status"),
        "serve.errors.": ("serve_errors_by_type", "type"),
        "serve.degraded.": ("serve_degraded_by_type", "type"),
        "pool.requests.": ("pool_requests_by_type", "type"),
        "breaker.transitions.": ("breaker_transitions_by_edge", "edge"),
        # Per-request-family cache accounting (QueryCache.get/get_stale).
        "cache.hits.": ("cache_hits_by_type", "type"),
        "cache.misses.": ("cache_misses_by_type", "type"),
        "cache.stale_hits.": ("cache_stale_hits_by_type", "type"),
        "cache.stale_misses.": ("cache_stale_misses_by_type", "type"),
        # Tenant registry lifecycle + traffic counters.
        "tenants.": ("tenant_ops_by_kind", "kind"),
    }

    def prometheus_metrics(self) -> str:
        """This service's registry as Prometheus text exposition.

        The shared registry (serve/pool/cache/batcher/breaker counters
        and histograms) renders directly; point-in-time state the
        registry does not hold — the :meth:`gauges` catalogue, plus
        per-breaker state as one-hot series — rides along as extra
        gauges.  This is the body of the gateway's ``/metrics``.
        """
        assert self._pool is not None
        extra = self.gauges()
        tracer = tracing.active()
        if tracer is not None:
            for key, value in tracer.counters().items():
                extra[f"tracing.{key}"] = float(value)
        body = render_prometheus(
            self.metrics,
            families=self.PROMETHEUS_FAMILIES,
            extra_gauges=extra,
        )
        # Breaker state is categorical; expose it one-hot, the idiomatic
        # Prometheus encoding for state machines.
        lines = ["# TYPE kg_breaker_state gauge"]
        breakers: list[tuple[str, CircuitBreaker]] = [("pool", self._pool.breaker)]
        breakers.extend(
            (f"shard:{shard}", breaker)
            for shard, breaker in sorted(self._shard_breakers.items())
        )
        for name, breaker in breakers:
            state = breaker.state
            for candidate in ("closed", "open", "half_open"):
                flag = 1 if candidate == state else 0
                lines.append(
                    f'kg_breaker_state{{breaker="{name}",state="{candidate}"}} {flag}'
                )
        return body + "\n".join(lines) + "\n"


def requests_from_query_log(
    entries: Sequence[QueryLogEntry], *, min_count: int = 2, limit: int = 256
) -> list[Request]:
    """Cacheable requests implied by a query-log trace, hottest first.

    Each answered ``(entity, predicate)`` pair seen at least ``min_count``
    times becomes one single-subject :class:`FactRankRequest` — the exact
    key a repeat of that lookup will probe the cache with.
    """
    from collections import Counter

    counts: Counter[tuple[str, str]] = Counter(
        (entry.entity, entry.predicate) for entry in entries if entry.answered
    )
    hot = [
        (pair, count)
        for pair, count in counts.items()
        if count >= min_count
    ]
    hot.sort(key=lambda item: (-item[1], item[0]))
    return [
        FactRankRequest(entities=(entity,), predicate=predicate)
        for (entity, predicate), _count in hot[:limit]
    ]


def _ms_since(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


@contextmanager
def _stage(
    timings: dict[str, float], key: str, span_name: str, **attributes
) -> Iterator[object]:
    """One dispatch stage: a ``timings`` entry and (armed) a span, from
    the *same* measurement.

    The span's ``stage_ms`` attribute is set to the exact value written
    into ``timings[key]`` — not a second clock read — which is what makes
    trace/envelope reconciliation an equality, not an approximation.
    """
    span_obj = tracing.span(span_name, **attributes)
    started = time.perf_counter()
    try:
        yield span_obj
    finally:
        elapsed = _ms_since(started)
        timings[key] = elapsed
        span_obj.set_attribute("stage_ms", elapsed)
        span_obj.finish()


def save_and_serve(
    store, directory: str | Path, **service_kwargs
) -> ServingService:
    """Persist ``store`` as a bundle under ``directory`` and serve it.

    Convenience for tests and small deployments: the construction-side
    :func:`save_snapshot` and the serving-side :class:`ServingService`
    in one call.
    """
    from repro.kg.persistence import save_snapshot

    save_snapshot(store, directory)
    return ServingService(directory, **service_kwargs)
