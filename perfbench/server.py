"""Traced gateway launcher: the real gateway with spans around each layer.

    python perfbench/server.py SPANS_OUT <python -m repro.serving.gateway args>

Before it starts :func:`repro.serving.gateway.main`, this wraps the public
functions of every serving layer in this process with a span recorder.
Each span records its name, start, end, parent span and request id.
Spans stay in memory and are written to ``SPANS_OUT`` as JSON when the
gateway shuts down (SIGINT).  The repository's own tracer stays disarmed.

Request ids are minted where the HTTP body is decoded.  The id then
follows the request in a context variable through the event loop.  The
gateway hands the call to an executor thread without copying context
(its tracer is disarmed), so that hop is bridged by the request object.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import json
import sys
import threading
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.extra: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        # (span id, request id) of the innermost open span.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._rid: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_rid", default=None
        )
        # id(request) -> (serve_async span id, request id), for the
        # executor-thread hop.
        self._handoff: dict[int, tuple[int, int | None]] = {}
        self._batch_lock = threading.Lock()
        self._submitted: dict[int, deque] = {}
        self._live_tenants: dict[int, object] = {}

    def _record(self, span_id, name, start, end, parent, attrs=None) -> None:
        parent_id, rid = parent if parent is not None else (None, None)
        self.spans.append((span_id, name, start, end, parent_id, rid, attrs))

    def _call(self, name, original, args, kwargs, parent, attrs_of=None):
        span_id = next(self._ids)
        token = self._current.set((span_id, parent[1] if parent else None))
        start = time.perf_counter_ns()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            attrs = attrs_of(args, result, start) if attrs_of is not None else None
            self._record(span_id, name, start, end, parent, attrs)

    def wrap(self, owner, attr: str, name: str, attrs_of=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call."""
        static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self._call(name, original, args, kwargs, self._current.get(), attrs_of)

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    # -- the request boundary ---------------------------------------------

    def wrap_decode(self, module) -> None:
        original = module.decode_request_envelope

        def decode(data):
            rid = next(self._rids)
            self._rid.set(rid)
            return self._call("protocol.decode", original, (data,), {}, (None, rid))

        module.decode_request_envelope = decode

    def wrap_encode(self, module) -> None:
        original = module.encode_response

        def encode(response):
            return self._call(
                "protocol.encode", original, (response,), {}, (None, self._rid.get()),
                lambda args, body, start: {"bytes": len(body) if body is not None else 0},
            )

        module.encode_response = encode

    def wrap_serve_async(self, cls) -> None:
        original = cls.serve_async

        async def serve_async(gateway, request, *args, **kwargs):
            rid = self._rid.get()
            span_id = next(self._ids)
            self._handoff[id(request)] = (span_id, rid)
            token = self._current.set((span_id, rid))
            start = time.perf_counter_ns()
            status = None
            try:
                response = await original(gateway, request, *args, **kwargs)
                status = response.error.code if response.error is not None else response.status
                return response
            finally:
                end = time.perf_counter_ns()
                self._current.reset(token)
                self._handoff.pop(id(request), None)
                self._record(span_id, "gateway.serve_async", start, end, (None, rid), {"status": status})

        cls.serve_async = serve_async

    def wrap_serve(self, cls) -> None:
        original = cls.serve

        def serve(service, request, *args, **kwargs):
            parent = self._handoff.get(id(request))
            return self._call("service.serve", original, (service, request) + args, kwargs, parent)

        cls.serve = serve

    # -- layers with extra bookkeeping -------------------------------------

    def wrap_batcher(self, cls) -> None:
        submit, flush = cls.submit, cls.flush

        def on_submit(batcher, text):
            with self._batch_lock:
                self._submitted.setdefault(id(batcher), deque()).append(time.perf_counter_ns())
            return self._call("batcher.submit", submit, (batcher, text), {}, self._current.get())

        def flush_attrs(args, flushed, started):
            # Texts leave the queue in submit order; each waited from its
            # submit to the start of the flush that took it.
            waits = []
            with self._batch_lock:
                queue = self._submitted.get(id(args[0]), deque())
                for _ in range(min(flushed or 0, len(queue))):
                    waits.append(started - queue.popleft())
            return {"docs": flushed or 0, "waits": waits}

        def on_flush(batcher):
            return self._call(
                "batcher.flush", flush, (batcher,), {}, self._current.get(), flush_attrs
            )

        cls.submit, cls.flush = on_submit, on_flush

    def wrap_tenant_state(self, cls) -> None:
        init, close = cls.__init__, cls.close

        def on_init(state, *args, **kwargs):
            self._call("tenant.attach", init, (state,) + args, kwargs, self._current.get())
            self._live_tenants[id(state)] = state

        def on_close(state):
            self._live_tenants.pop(id(state), None)
            return self._call("tenant.close", close, (state,), {}, self._current.get())

        cls.__init__, cls.close = on_init, on_close

    def wrap_service_close(self, cls) -> None:
        original = cls.close

        def close(service):
            # The resident overlays' footprint, measured before close drops them.
            self.extra["tenant_resident_bytes"] = sum(
                state.memory_bytes() for state in list(self._live_tenants.values())
            )
            self.extra["tenants_resident"] = len(self._live_tenants)
            return original(service)

        cls.close = close

    def dump(self, path: Path) -> None:
        rows = [list(span) for span in self.spans]
        path.write_text(json.dumps({"spans": rows, "extra": self.extra}), encoding="utf-8")


def install(recorder: Recorder) -> None:
    from repro.annotation.pipeline import AnnotationPipeline
    from repro.kg.graph_engine import GraphEngine
    from repro.serving import gateway
    from repro.serving.batcher import MicroBatcher
    from repro.serving.cache import QueryCache
    from repro.serving.growth import GenerationWatcher
    from repro.serving.router import ShardRouter
    from repro.serving.service import ServingService
    from repro.serving.tenancy import TenantRegistry, TenantState
    from repro.serving.worker import WorkerPool, WorkerState
    from repro.services.fact_ranking import FactRanker
    from repro.services.fact_verification import FactVerifier
    from repro.services.related_entities import TraversalRelatedEntities
    from repro.vector.service import EmbeddingService

    recorder.wrap_decode(gateway)
    recorder.wrap_encode(gateway)
    recorder.wrap_serve_async(gateway.AsyncGateway)
    recorder.wrap_serve(ServingService)
    recorder.wrap_service_close(ServingService)
    recorder.wrap(
        QueryCache, "get", "cache.get", attrs_of=lambda args, result, start: {"hit": result is not None}
    )
    recorder.wrap(QueryCache, "put", "cache.put")
    recorder.wrap(QueryCache, "adopt_version", "cache.adopt_version")
    recorder.wrap(
        ShardRouter, "scatter_request", "router.scatter",
        attrs_of=lambda args, result, start: {"parts": len(result) if result is not None else 0},
    )
    recorder.wrap(ShardRouter, "gather", "router.gather")
    recorder.wrap(WorkerPool, "submit", "worker.submit")
    recorder.wrap(WorkerPool, "resolve", "worker.resolve")
    recorder.wrap(WorkerState, "execute", "worker.execute")
    recorder.wrap_batcher(MicroBatcher)
    recorder.wrap(GraphEngine, "random_walks", "compute.walk")
    recorder.wrap(GraphEngine, "neighborhood", "compute.neighborhood")
    recorder.wrap(TraversalRelatedEntities, "related", "compute.related")
    recorder.wrap(AnnotationPipeline, "annotate_batch", "compute.annotate")
    recorder.wrap(FactRanker, "rank_many", "compute.rank")
    recorder.wrap(FactVerifier, "verify_batch", "compute.verify")
    recorder.wrap(EmbeddingService, "batch_similarity", "compute.similarity")
    recorder.wrap(EmbeddingService, "knn_many", "compute.knn")
    recorder.wrap(
        GenerationWatcher, "poll_once", "growth.poll",
        attrs_of=lambda args, result, start: {"swapped": result is not None},
    )
    recorder.wrap(ServingService, "adopt_generation", "growth.swap")
    recorder.wrap(TenantRegistry, "upsert", "tenant.upsert")
    recorder.wrap(TenantRegistry, "sync", "tenant.sync")
    recorder.wrap(TenantRegistry, "delete", "tenant.delete")
    recorder.wrap(TenantRegistry, "execute_on", "tenant.read")
    recorder.wrap(TenantState, "overlay", "tenant.overlay")
    recorder.wrap_tenant_state(TenantState)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: server.py SPANS_OUT BUNDLE [gateway options]", file=sys.stderr)
        return 2
    out = Path(argv[0])
    recorder = Recorder()
    install(recorder)
    from repro.serving.gateway import main as gateway_main

    try:
        return gateway_main(argv[1:])
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
