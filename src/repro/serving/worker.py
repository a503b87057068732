"""Serving workers: bundle-backed request executors, in one process or many.

A :class:`WorkerState` is one worker's view of the platform: it
``load_snapshot``\\ s a persisted KG bundle (mmap — arrays land in the
shared OS page cache, so N workers on one host map the *same* physical
pages) and lazily stands up the helpers each request family needs — the
graph engine with the adopted CSR, per-tier annotation pipelines, and the
traversal related-entities backend built over the adopted snapshot.

Three executors share one ``submit(request) -> Future`` surface:

* **inline** — the same-process fallback: one shared state, executed
  synchronously on the caller's thread.  Tests and small deployments need
  no subprocesses, and every other executor must be byte-identical to it.
* **thread** — N threads over one shared state.  Concurrency-correct
  (the columnar layers are immutable and lazy materialisation is
  lock-guarded) but GIL-bound; useful for I/O-ish workloads and for
  hammering the thread-safety contract in tests.
* **process** — a ``ProcessPoolExecutor`` whose initializer loads the
  bundle in each child.  This is the throughput configuration: annotation
  is pure Python/NumPy compute, so only processes scale it across cores.

Serving walk semantics are **per-entity**: each entity's walks replay an
independent substream derived from ``(seed, entity)`` via
:func:`entity_walk_seed`.  That makes a walk request's result invariant
to sharding, worker count and executor mode — the property the router's
"byte-identical through the router" contract rests on.  (A plain
:meth:`GraphEngine.random_walks` call over a *list* threads one stream
through all entities, which no partitioning could reproduce.)
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.common import tracing
from repro.common.metrics import MetricsRegistry
from repro.common.rng import stable_hash
from repro.serving import faults
from repro.serving.resilience import CircuitBreaker, RetryPolicy, is_retryable
from repro.serving.requests import (
    AnnotateRequest,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    RelatedRequest,
    Request,
    SimilarityRequest,
    VerifyRequest,
    WalkRequest,
)

if TYPE_CHECKING:
    from repro.embeddings.suite import EmbeddingSuite, EmbeddingSuiteConfig
    from repro.kg.graph_engine import GraphEngine

WORKER_MODES = ("inline", "thread", "process")

# Seeds live in numpy's accepted range; 2**63 keeps them positive int64.
_WALK_SEED_SPACE = 2**63


def entity_walk_seed(seed: int, entity: str) -> int:
    """Derived, stable per-entity walk seed.

    The serving contract for walks: entity ``e`` of a request with seed
    ``s`` draws from ``substream(entity_walk_seed(s, e), "random-walks")``
    — one independent stream per entity, so any partition of a request
    over any number of workers replays the exact same draws.
    """
    return stable_hash(f"serve-walks:{seed}:{entity}", _WALK_SEED_SPACE)


def walks_payload(engine: "GraphEngine", request: WalkRequest) -> list[list[list[str]]]:
    """A walk request's answer over ``engine``: one seed substream per entity.

    Shared workers and tenant overlays both answer through here, so a
    tenant walk differs from a shared one only by the overlay's facts.
    """
    return [
        engine.random_walks(
            [entity],
            walk_length=request.walk_length,
            walks_per_entity=request.walks_per_entity,
            seed=entity_walk_seed(request.seed, entity),
        )
        for entity in request.entities
    ]


def neighborhoods_payload(
    engine: "GraphEngine", request: NeighborhoodRequest
) -> list[list[str]]:
    """A neighborhood request's answer over ``engine``, one per entity."""
    # Sorted for deterministic merge output (sets have no wire order).
    return [
        sorted(engine.neighborhood(entity, hops=request.hops))
        for entity in request.entities
    ]


# The families a bare graph engine answers: a worker's shared engine and a
# tenant's overlay engine alike.  Worker dispatch, tenant reads and the
# service's tenant-scope check all read this one table.
ENGINE_PAYLOADS: dict[type[Request], Callable[["GraphEngine", Request], list]] = {
    WalkRequest: walks_payload,
    NeighborhoodRequest: neighborhoods_payload,
}


@dataclass(frozen=True)
class WorkerConfig:
    """Deterministic per-worker build recipe (identical across replicas).

    Every worker must construct byte-identical helpers, so everything a
    lazy build depends on is pinned here rather than defaulted at call
    sites.  ``verify`` mirrors :func:`load_snapshot`'s checksum knob —
    workers re-mapping a bundle the parent already verified can skip the
    hash pass for a faster spawn.
    """

    related_dim: int = 32
    related_walk_length: int = 8
    related_walks_per_entity: int = 6
    related_window: int = 3
    related_seed: int = 0
    verify: bool = True
    # Embedding-family backends (fact ranking / verification / similarity /
    # k-NN) adopt the bundle's persisted ``embeddings/`` layer when its
    # recipe matches these fields, and train from the fact log otherwise.
    # Training is fully seeded and build_dataset orders its vocabulary
    # deterministically, so every replica — thread or subprocess — derives
    # byte-identical vectors from the same bundle either way.
    embedding_model: str = "distmult"
    embedding_dim: int = 32
    embedding_epochs: int = 15
    embedding_seed: int = 0
    calibration_fraction: float = 0.1
    # k-NN index shape: the first four are adopt-match recipe fields, the
    # last two are query-time knobs (see EmbeddingSuiteConfig).
    knn_nlist: int = 16
    knn_kmeans_iterations: int = 8
    knn_seed: int = 0
    knn_quantization: str | None = None
    knn_nprobe: int = 4
    knn_rerank_factor: int = 4

    def embedding_config(self) -> "EmbeddingSuiteConfig":
        """These fields as the embedding-suite build recipe."""
        from repro.embeddings.suite import EmbeddingSuiteConfig

        return EmbeddingSuiteConfig(
            model=self.embedding_model,
            dim=self.embedding_dim,
            epochs=self.embedding_epochs,
            seed=self.embedding_seed,
            calibration_fraction=self.calibration_fraction,
            knn_nlist=self.knn_nlist,
            knn_nprobe=self.knn_nprobe,
            knn_kmeans_iterations=self.knn_kmeans_iterations,
            knn_seed=self.knn_seed,
            knn_quantization=self.knn_quantization,
            knn_rerank_factor=self.knn_rerank_factor,
        )


class WorkerState:
    """One worker's loaded bundle plus lazily-built request helpers."""

    def __init__(self, bundle_dir: str | Path, config: WorkerConfig | None = None) -> None:
        self.bundle_dir = Path(bundle_dir)
        self.config = config or WorkerConfig()
        self.snapshot = load_snapshot_state(self.bundle_dir, verify=self.config.verify)
        self.engine = self.snapshot.engine()
        self.store_version = int(self.snapshot.manifest["store_version"])
        self._pipelines: dict[str, object] = {}
        self._related = None
        self._embedding_suite = None
        # Lazy helper construction must be once-only when worker threads
        # share this state (thread mode).
        self._build_lock = threading.RLock()

    @property
    def dictionary(self):
        """The snapshot dictionary (router id source), or ``None`` if absent."""
        adjacency = self.snapshot.adjacency
        return adjacency.dictionary if adjacency is not None else None

    def pipeline(self, tier: str):
        """The annotation pipeline for ``tier``, built on first use."""
        pipeline = self._pipelines.get(tier)
        if pipeline is None:
            with self._build_lock:
                pipeline = self._pipelines.get(tier)
                if pipeline is None:
                    pipeline = self.snapshot.annotation_pipeline(tier=tier)
                    self._pipelines[tier] = pipeline
        return pipeline

    def related_backend(self):
        """The traversal related-entities backend, built on first use.

        Construction is deterministic in :class:`WorkerConfig`, so every
        replica builds the same vectors; the worker's engine (with the
        mmap-adopted CSR) is reused, skipping the adjacency rebuild.
        """
        if self._related is None:
            with self._build_lock:
                if self._related is None:
                    from repro.services.related_entities import TraversalRelatedEntities

                    config = self.config
                    self._related = TraversalRelatedEntities(
                        self.snapshot.store,
                        dim=config.related_dim,
                        walk_length=config.related_walk_length,
                        walks_per_entity=config.related_walks_per_entity,
                        window=config.related_window,
                        seed=config.related_seed,
                        engine=self.engine,
                    )
        return self._related

    def embedding_suite(self) -> "EmbeddingSuite":
        """The embedding-family backends, adopted (or trained) on first use.

        One deterministic build serves all three newly-servable request
        families: a :class:`FactRanker` (ranking), a calibrated
        :class:`FactVerifier` (verification) and an
        :class:`EmbeddingService` (similarity / k-NN) share one trained
        model, exactly as Figure 1's serving platform shares its
        embedding service across knowledge services.  When the bundle
        carries a fresh ``embeddings/`` layer matching this worker's
        recipe, the suite is reconstructed zero-copy from the mmapped
        arrays — no SGD, no calibration pass, no k-means — so N replicas
        share one page-cache copy of the trained state.
        """
        if self._embedding_suite is None:
            with self._build_lock:
                if self._embedding_suite is None:
                    self._embedding_suite = self.snapshot.embedding_suite(
                        self.config.embedding_config()
                    )
        return self._embedding_suite

    # -- request execution ---------------------------------------------------

    def execute(self, request: Request) -> list:
        """Answer one request; results are per-entity (or per-text) lists.

        The two ``fault_point`` hooks bracket the dispatch: the first can
        kill/stall/flake the worker *before* any compute (a crash mid
        request), the second can corrupt the *result* on its way out (a
        truncated response).  Both are a no-op unless a chaos plan is
        armed.
        """
        wire_type = getattr(type(request), "wire_type", "")
        with tracing.span("worker.execute", request_type=wire_type):
            faults.fault_point(faults.SITE_WORKER_EXECUTE, request_type=wire_type)
            result = self._dispatch(request)
            return faults.fault_point(
                faults.SITE_WORKER_RESULT, result, request_type=wire_type
            )

    def _dispatch(self, request: Request) -> list:
        # Tenant writes fall through to the TypeError: the shared fleet
        # serves only shared state (isolation at dispatch).
        answer = ENGINE_PAYLOADS.get(type(request))
        if answer is not None:
            return answer(self.engine, request)
        if isinstance(request, RelatedRequest):
            return self._related_entities(request)
        if isinstance(request, AnnotateRequest):
            return self.pipeline(request.tier).annotate_batch(list(request.texts))
        if isinstance(request, FactRankRequest):
            # One batched scoring pass across every subject in this
            # (sub-)request; per-subject output identical to rank().
            return self.embedding_suite().ranker.rank_many(
                list(request.entities), request.predicate
            )
        if isinstance(request, VerifyRequest):
            return self.embedding_suite().verifier.verify_batch(
                list(request.candidates)
            )
        if isinstance(request, SimilarityRequest):
            return self.embedding_suite().embedding_service.batch_similarity(
                list(request.pairs)
            )
        if isinstance(request, KnnRequest):
            # One gathered query matrix through the index; per-entity hits
            # identical to scalar knn(), so results stay shard-invariant.
            return self.embedding_suite().embedding_service.knn_many(
                list(request.entities), k=request.k, exclude_self=request.exclude_self
            )
        raise TypeError(f"unsupported request type: {type(request).__name__}")

    def _related_entities(self, request: RelatedRequest) -> list[list[tuple[str, float]]]:
        backend = self.related_backend()
        return [
            [(hit.entity, hit.score) for hit in backend.related(entity, k=request.k)]
            for entity in request.entities
        ]


def load_snapshot_state(bundle_dir: Path, *, verify: bool):
    """``load_snapshot`` indirection point (kept tiny for test monkeypatching)."""
    from repro.kg.persistence import load_snapshot

    return load_snapshot(bundle_dir, verify=verify)


# -- executors ----------------------------------------------------------------


class InlineExecutor:
    """Same-process fallback: execute synchronously on the caller's thread."""

    def __init__(self, state: WorkerState) -> None:
        self.state = state

    def submit(self, request: Request) -> Future:
        future: Future = Future()
        try:
            future.set_result(self.state.execute(request))
        except BaseException as exc:  # surfaced via future, like real pools
            future.set_exception(exc)
        return future

    def respawn(self) -> bool:
        """Nothing to respawn: the caller's thread cannot die under us."""
        return False

    def live_workers(self) -> int:
        return 1

    def close(self) -> None:
        pass


class ThreadExecutor:
    """N threads sharing one state (immutable snapshot, lock-guarded lazies)."""

    def __init__(self, state: WorkerState, num_workers: int) -> None:
        self.state = state
        self.num_workers = num_workers
        self._pool = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="kg-serve"
        )

    def submit(self, request: Request) -> Future:
        if tracing.active() is not None:
            # Executor threads do not inherit the caller's contextvars;
            # carry the current span across so worker spans nest right.
            context = contextvars.copy_context()
            return self._pool.submit(context.run, self.state.execute, request)
        return self._pool.submit(self.state.execute, request)

    def respawn(self) -> bool:
        """Thread pools survive task exceptions; no replacement needed."""
        return False

    def live_workers(self) -> int:
        return self.num_workers

    def close(self) -> None:
        self._pool.shutdown(wait=True)


_PROCESS_STATE: WorkerState | None = None


def _process_initializer(
    bundle_dir: str,
    config: WorkerConfig,
    plan: "faults.FaultPlan | None" = None,
    incarnation: int = 1,
) -> None:
    global _PROCESS_STATE
    # Crashes in a subprocess worker must be real process deaths (the pool
    # then reports BrokenProcessPool, exactly like a segfault would).
    faults.mark_worker_process()
    if plan is not None:
        # Re-arm under this incarnation's salt: a replacement replica draws
        # a different (still deterministic) injection schedule, so one
        # scheduled crash can't wedge every respawn forever.
        faults.arm(plan.reseeded(incarnation))
    _PROCESS_STATE = WorkerState(bundle_dir, config)


_COLLECTOR: tracing.Tracer | None = None


class _TracedResult:
    """A worker result riding home with the spans recorded computing it."""

    __slots__ = ("result", "spans")

    def __init__(self, result: list, spans: list[dict]) -> None:
        self.result = result
        self.spans = spans

    def __getstate__(self):
        return (self.result, self.spans)

    def __setstate__(self, state) -> None:
        self.result, self.spans = state


def _process_execute(request: Request, trace_ctx: "tracing.TraceContext | None" = None) -> list:
    assert _PROCESS_STATE is not None, "worker process used before initialization"
    if trace_ctx is None:
        return _PROCESS_STATE.execute(request)
    # The parent shipped its trace position: record this worker's spans
    # into a local collector and return them alongside the result so the
    # parent tracer can stitch them into the live trace.
    global _COLLECTOR
    collector = _COLLECTOR
    if collector is None:
        collector = _COLLECTOR = tracing.arm(tracing.Tracer(ring_capacity=0))
    try:
        with tracing.seeded(trace_ctx):
            result = _PROCESS_STATE.execute(request)
    except BaseException:
        # A failed attempt's spans have no future to ride home on; drop
        # them so they cannot leak into the next request's bundle.
        collector.drain()
        raise
    return _TracedResult(result, collector.drain())


def _unwrap_traced(inner: Future) -> Future:
    """An outer future resolving to the bare result, adopting ridden spans.

    Adoption happens *before* the outer future resolves, so by the time a
    caller observes the result the worker's spans are already in the
    parent trace — the request's root span cannot finish first.
    """
    outer: Future = Future()

    def _done(finished: Future) -> None:
        try:
            value = finished.result()
        except BaseException as exc:
            outer.set_exception(exc)
            return
        if isinstance(value, _TracedResult):
            tracer = tracing.active()
            if tracer is not None and value.spans:
                tracer.adopt(value.spans)
            value = value.result
        outer.set_result(value)

    inner.add_done_callback(_done)
    return outer


class ProcessExecutor:
    """N subprocesses, each mapping the same bundle (shared page cache).

    The executor is *respawnable*: when a child dies (a real crash, an
    OOM kill, or an injected ``os._exit``) the stdlib pool marks itself
    broken and refuses further work — so supervision swaps in a fresh
    pool built from the same pinned ``WorkerConfig`` over the same
    immutable bundle.  Replacement replicas are byte-identical to the
    ones they replace, which is what keeps retried answers identical to
    never-failed ones.
    """

    def __init__(
        self, bundle_dir: Path, num_workers: int, config: WorkerConfig
    ) -> None:
        self.bundle_dir = Path(bundle_dir)
        self.num_workers = num_workers
        self.config = config
        self.respawns = 0
        self._incarnation = 0
        self._lock = threading.Lock()
        self._pool = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        self._incarnation += 1
        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_process_initializer,
            initargs=(
                str(self.bundle_dir),
                self.config,
                faults.active_plan(),
                self._incarnation,
            ),
        )

    def submit(self, request: Request) -> Future:
        trace_ctx = tracing.current_context()
        try:
            inner = self._pool.submit(_process_execute, request, trace_ctx)
        except RuntimeError:
            # A BrokenProcessPool (or a racing shutdown) rejects at submit
            # time; heal once and re-dispatch — the caller's retry budget
            # covers anything beyond that.
            self.respawn()
            inner = self._pool.submit(_process_execute, request, trace_ctx)
        if trace_ctx is None:
            return inner
        return _unwrap_traced(inner)

    def respawn(self) -> bool:
        """Replace a broken pool with a fresh fleet; ``True`` if we did.

        Lock-guarded and checked: concurrent failures from one dead child
        must heal the pool once, not stampede N replacements.
        """
        with self._lock:
            if not getattr(self._pool, "_broken", False):
                return False
            dead = self._pool
            self._pool = self._spawn()
            self.respawns += 1
        dead.shutdown(wait=False, cancel_futures=True)
        return True

    def live_workers(self) -> int:
        """Children currently alive (0 while a broken pool awaits respawn)."""
        with self._lock:
            if getattr(self._pool, "_broken", False):
                return 0
            processes = getattr(self._pool, "_processes", None)
        if not processes:
            # Stdlib spawns children lazily on first submit; an idle fresh
            # pool still counts as its full configured width.
            return self.num_workers
        return sum(1 for proc in processes.values() if proc.is_alive())

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class WorkerPool:
    """A fleet of bundle replicas behind one ``submit``/``run`` surface.

    ``mode`` picks the executor (``inline``/``thread``/``process``); all
    three answer identically, so deployments move between them by flag.
    The pool always keeps a parent-side :class:`WorkerState` — inline and
    thread modes execute on it, process mode uses it for the router's
    dictionary and the bundle's ``store_version`` (children map the same
    pages, so the extra load is page-cache cheap).

    Request counts and a bounded latency histogram are tracked in
    ``metrics`` (``pool.requests``, ``pool.requests.<Type>``,
    ``pool.latency``); :meth:`stats` flattens them for the facade.

    Supervision: :meth:`resolve` waits on a future under ``retry_policy``
    — a retryable failure (worker crash, broken pool, transient I/O)
    heals the executor (:meth:`ProcessExecutor.respawn`) and re-dispatches
    until the budget runs out, while the pool-level :class:`CircuitBreaker`
    trips after sustained failure so callers stop hammering a dead fleet.
    Retries are safe because every request is a pure read over an
    immutable snapshot generation, and replacement replicas rebuild from
    the same pinned ``WorkerConfig`` — a retried answer is byte-identical
    to a never-failed one.
    """

    def __init__(
        self,
        bundle_dir: str | Path,
        *,
        num_workers: int = 1,
        mode: str = "inline",
        config: WorkerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if mode not in WORKER_MODES:
            raise ValueError(f"mode must be one of {WORKER_MODES}, got {mode!r}")
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.bundle_dir = Path(bundle_dir)
        self.num_workers = num_workers
        self.mode = mode
        self.config = config or WorkerConfig()
        self.retry_policy = retry_policy or RetryPolicy()
        self.metrics = metrics or MetricsRegistry("worker-pool")
        self.breaker = breaker or CircuitBreaker("pool", metrics=self.metrics)
        if self.breaker.metrics is None:
            # Caller-supplied breakers still count transitions here unless
            # they already report somewhere else.
            self.breaker.metrics = self.metrics
        self.local_state = WorkerState(self.bundle_dir, self.config)
        if mode == "inline":
            self._executor = InlineExecutor(self.local_state)
        elif mode == "thread":
            self._executor = ThreadExecutor(self.local_state, num_workers)
        else:
            # The parent-side load above already ran the checksum pass (per
            # config.verify); children re-map the very same verified bundle,
            # so they skip it — exactly the WorkerConfig.verify fast path —
            # instead of paying num_workers redundant full-bundle hashes.
            self._executor = ProcessExecutor(
                self.bundle_dir, num_workers, replace(self.config, verify=False)
            )
        self._closed = False

    @property
    def store_version(self) -> int:
        """The bundle generation every worker serves."""
        return self.local_state.store_version

    def submit(self, request: Request) -> Future:
        """Dispatch one request; the future resolves to its result list."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        faults.fault_point(
            faults.SITE_POOL_SUBMIT,
            request_type=getattr(type(request), "wire_type", ""),
        )
        self.metrics.incr("pool.requests")
        self.metrics.incr(f"pool.requests.{type(request).__name__}")
        start = time.perf_counter()
        future = self._executor.submit(request)
        future.add_done_callback(
            lambda _: self.metrics.hist("pool.latency", time.perf_counter() - start)
        )
        return future

    def resolve(self, request: Request, future: Future) -> tuple[list, int]:
        """Wait on ``future``, retrying under the policy; ``(result, attempts)``.

        Each failed attempt records into the breaker and heals the
        executor; past the budget (or on a non-retryable error) the last
        exception propagates to the caller's degradation path.  Waiting
        through :meth:`resolve` rather than ``future.result()`` is what
        turns a worker death into a retry instead of a client-visible 500.
        """
        policy = self.retry_policy
        key = repr(request)
        attempts = 0
        while True:
            attempts += 1
            try:
                result = future.result()
            except BaseException as exc:
                self.metrics.incr("pool.failures")
                self.breaker.record_failure()
                self._supervise()
                if attempts >= policy.max_attempts or not is_retryable(exc):
                    raise
                self.metrics.incr("pool.retries")
                tracing.event(
                    "pool.retry", attempt=attempts, error=type(exc).__name__
                )
                time.sleep(policy.backoff_s(attempts, key=key))
                # Re-check the breaker before re-dispatching: sustained
                # failure must stop burning retries on a dead fleet.
                self.breaker.check()
                future = self.submit(request)
                continue
            self.breaker.record_success()
            return result, attempts

    def run_resilient(self, request: Request) -> tuple[list, int]:
        """Breaker-gated dispatch-and-wait; ``(result, attempts)``."""
        self.breaker.check()
        return self.resolve(request, self.submit(request))

    def _supervise(self) -> None:
        """Heal the executor after a failure (respawn dead process fleets).

        A successful respawn also resets the pool breaker: a broken pool
        fails every in-flight future at once (one fault, N recorded
        failures), and that burst must not open the breaker against the
        fresh fleet that just replaced it.
        """
        if self._executor.respawn():
            self.metrics.incr("pool.respawns")
            tracing.event("pool.respawn")
            self.breaker.reset()

    def run(self, request: Request) -> list:
        """Dispatch and wait (retrying under the policy)."""
        result, _ = self.run_resilient(request)
        return result

    def map(self, requests: list[Request]) -> list[list]:
        """Dispatch many requests concurrently, results in request order.

        Each future resolves through the retry loop, so one crashed
        worker mid-fan-out costs a resubmit, not the whole map.
        """
        futures = [self.submit(request) for request in requests]
        return [
            self.resolve(request, future)[0]
            for request, future in zip(requests, futures)
        ]

    def live_workers(self) -> int:
        """Workers currently able to take requests."""
        return self._executor.live_workers()

    def stats(self) -> dict[str, float | str]:
        """Flat metrics snapshot plus pool shape and breaker state."""
        out: dict[str, float | str] = dict(self.metrics.snapshot())
        out["pool.workers"] = float(self.num_workers)
        out["pool.store_version"] = float(self.store_version)
        out["pool.live_workers"] = float(self.live_workers())
        out["pool.executor_respawns"] = float(
            getattr(self._executor, "respawns", 0)
        )
        breaker = self.breaker.snapshot()
        out["pool.breaker.state"] = breaker["state"]
        out["pool.breaker.transitions"] = float(breaker["transitions"])
        return out

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._executor.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
