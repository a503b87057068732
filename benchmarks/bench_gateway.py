"""F-gateway — the asyncio/HTTP front door vs the direct in-process facade.

The gateway buys admission control, deadlines and a network surface; this
bench pins what those cost.  Three transports answer the same walk-query
stream (entities, seed, shard layout all identical):

* **facade** — direct ``ServingService.serve`` calls (the PR-4 path);
* **gateway** — ``AsyncGateway.serve_stream`` (executor bridge +
  semaphore admission, no network);
* **http** — full wire round-trips through ``GatewayHTTPServer``
  (encode → TCP → decode, one connection per request).

Parity is unconditional at every scale: every transport's payloads must
equal the facade's byte-for-byte.  The floors bound the overhead (the
gateway must stay within ~2x of the facade; HTTP within 10x), and a
streaming-annotation row records the cross-transport text path.
"""

import asyncio
import time

import pytest

from benchmarks.conftest import check_floor, record_result
from repro.kg.persistence import save_snapshot
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import decode_response, encode_request
from repro.serving.requests import AnnotateRequest, WalkRequest
from repro.serving.service import ServingService

WALK_QUERY_ENTITIES = 8
WALK_QUERIES = 60
ANNOTATE_DOCS = 40
GATEWAY_CONCURRENCY = 4


def min_time(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def bundle_dir(bench_kg, tmp_path_factory):
    directory = tmp_path_factory.mktemp("gateway-bundle")
    save_snapshot(bench_kg.store, directory)
    return directory


@pytest.fixture(scope="module")
def walk_requests(bench_kg):
    entities = sorted(bench_kg.store.entity_ids())
    return [
        WalkRequest(
            entities=tuple(
                entities[(index * WALK_QUERY_ENTITIES + offset) % len(entities)]
                for offset in range(WALK_QUERY_ENTITIES)
            ),
            seed=17,
        )
        for index in range(WALK_QUERIES)
    ]


def test_gateway_walk_throughput(benchmark, bundle_dir, walk_requests):
    """Walk queries/s: facade vs async gateway vs HTTP wire round-trips."""
    with ServingService(bundle_dir, mode="inline", num_shards=4) as svc:
        reference = [svc.serve(request).payload for request in walk_requests]

        def facade_run():
            svc._cache.clear()
            return [svc.serve(request).payload for request in walk_requests]

        facade_time, facade_payloads = min_time(facade_run)
        assert facade_payloads == reference

        gateway = AsyncGateway(
            svc, max_concurrency=GATEWAY_CONCURRENCY, max_pending=4 * WALK_QUERIES
        )

        async def stream_all():
            return [r async for r in gateway.serve_stream(walk_requests)]

        def gateway_run():
            svc._cache.clear()
            return asyncio.run(stream_all())

        gateway_time, gateway_responses = min_time(gateway_run)
        assert [r.payload for r in gateway_responses] == reference
        assert all(r.ok for r in gateway_responses)
        gateway.close()

        async def http_all():
            http_gateway = AsyncGateway(
                svc, max_concurrency=GATEWAY_CONCURRENCY, max_pending=4 * WALK_QUERIES
            )
            server = GatewayHTTPServer(http_gateway)
            host, port = await server.start()
            bodies = []
            try:
                for request in walk_requests:
                    payload = encode_request(request)
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        (
                            f"POST /v1/query HTTP/1.1\r\nHost: b\r\n"
                            f"Content-Length: {len(payload)}\r\n\r\n"
                        ).encode()
                        + payload
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    bodies.append(raw.partition(b"\r\n\r\n")[2])
            finally:
                await server.stop()
                http_gateway.close()
            return bodies

        def http_run():
            svc._cache.clear()
            return asyncio.run(http_all())

        http_time, http_bodies = min_time(http_run, repeats=2)
        assert [decode_response(body).payload for body in http_bodies] == reference

    facade_qps = WALK_QUERIES / facade_time
    gateway_qps = WALK_QUERIES / gateway_time
    http_qps = WALK_QUERIES / http_time
    benchmark.extra_info["facade_qps"] = facade_qps
    benchmark.extra_info["gateway_qps"] = gateway_qps
    benchmark.extra_info["http_qps"] = http_qps
    benchmark(lambda: None)
    record_result(
        "F-gateway",
        {
            "op": "walk_queries",
            "mode": "facade",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(facade_qps, 1),
        },
    )
    record_result(
        "F-gateway",
        {
            "op": "walk_queries",
            "mode": "gateway",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(gateway_qps, 1),
            "overhead_vs_facade": round(facade_qps / gateway_qps, 2),
        },
    )
    record_result(
        "F-gateway",
        {
            "op": "walk_queries",
            "mode": "http",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(http_qps, 1),
            "overhead_vs_facade": round(facade_qps / http_qps, 2),
        },
    )
    check_floor(
        gateway_qps >= 0.5 * facade_qps,
        f"async gateway {facade_qps / gateway_qps:.2f}x slower than facade (> 2x)",
    )
    check_floor(
        http_qps >= 0.1 * facade_qps,
        f"HTTP wire path {facade_qps / http_qps:.2f}x slower than facade (> 10x)",
    )


def test_gateway_annotation_stream(benchmark, bundle_dir, bench_corpus):
    """Docs/s: one in-process multi-text serve vs per-text requests streamed async."""
    texts = [doc.full_text for doc in bench_corpus][:ANNOTATE_DOCS]
    with ServingService(bundle_dir, mode="inline") as svc:
        batch = AnnotateRequest(texts=tuple(texts))
        reference = svc.serve(batch).result()
        signature = [
            [(link.mention.start, link.mention.end, link.entity) for link in links]
            for links in reference
        ]

        def facade_run():
            svc._cache.clear()
            return svc.serve(batch).result()

        facade_time, facade_links = min_time(facade_run, repeats=2)

        gateway = AsyncGateway(
            svc, max_concurrency=GATEWAY_CONCURRENCY, max_pending=4 * ANNOTATE_DOCS
        )
        requests = [AnnotateRequest(texts=(text,)) for text in texts]

        async def stream_all():
            return [r async for r in gateway.serve_stream(requests)]

        def gateway_run():
            svc._cache.clear()
            return asyncio.run(stream_all())

        gateway_time, responses = min_time(gateway_run, repeats=2)
        gateway.close()

    assert [
        [(link.mention.start, link.mention.end, link.entity) for link in links]
        for links in facade_links
    ] == signature
    assert [
        [(link.mention.start, link.mention.end, link.entity) for link in r.payload[0]]
        for r in responses
    ] == signature

    facade_rate = len(texts) / facade_time
    gateway_rate = len(texts) / gateway_time
    benchmark.extra_info["facade_docs_per_s"] = facade_rate
    benchmark.extra_info["gateway_docs_per_s"] = gateway_rate
    benchmark(lambda: None)
    record_result(
        "F-gateway",
        {
            "op": "annotate_stream",
            "mode": "facade",
            "docs": len(texts),
            "docs_per_s": round(facade_rate, 1),
        },
    )
    record_result(
        "F-gateway",
        {
            "op": "annotate_stream",
            "mode": "gateway",
            "docs": len(texts),
            "docs_per_s": round(gateway_rate, 1),
            "overhead_vs_facade": round(facade_rate / gateway_rate, 2),
        },
    )
    check_floor(
        gateway_rate >= 0.25 * facade_rate,
        f"gateway per-text stream {facade_rate / gateway_rate:.2f}x slower "
        f"than batched facade (> 4x)",
    )
