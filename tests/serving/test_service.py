"""ServingService facade: routing, caching, batching and generation swaps."""

import pytest

from repro.kg.persistence import save_snapshot
from repro.kg.query_logs import QueryLogEntry
from repro.serving.requests import (
    AnnotateRequest,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    RelatedRequest,
    Response,
    SimilarityRequest,
    VerifyRequest,
    WalkRequest,
)
from repro.serving.service import (
    ServingService,
    requests_from_query_log,
    save_and_serve,
)
from repro.serving.worker import entity_walk_seed


@pytest.fixture(scope="module")
def service(bundle_dir) -> ServingService:
    svc = ServingService(bundle_dir, mode="inline", num_shards=4)
    yield svc
    svc.close()


class TestTraversalServing:
    def test_walks_are_shard_invariant(self, bundle_dir, seed_entities):
        results = []
        for num_shards in (1, 3, 8):
            with ServingService(bundle_dir, num_shards=num_shards) as svc:
                request = WalkRequest(entities=tuple(seed_entities), seed=7)
                results.append(svc.serve(request).result())
        assert results[0] == results[1] == results[2]

    def test_walks_match_cold_engine_contract(self, service, bundle_dir, seed_entities):
        from repro.kg.persistence import load_snapshot

        served = service.serve(WalkRequest(entities=tuple(seed_entities[:6]), seed=3)).result()
        cold = load_snapshot(bundle_dir).engine()
        for entity, walks in zip(seed_entities[:6], served):
            assert walks == cold.random_walks(
                [entity], walk_length=8, walks_per_entity=4,
                seed=entity_walk_seed(3, entity),
            )

    def test_neighborhood_and_related(self, service, seed_entities):
        neighborhoods = service.serve(
            NeighborhoodRequest(entities=tuple(seed_entities[:4]), hops=2)
        ).result()
        assert len(neighborhoods) == 4
        assert all(row == sorted(row) for row in neighborhoods)
        related = service.serve(RelatedRequest(entities=tuple(seed_entities[:3]), k=5)).result()
        assert len(related) == 3
        assert all(len(hits) <= 5 for hits in related)

    def test_empty_request(self, service):
        assert service.serve(WalkRequest(entities=())).result() == []
        assert service.serve(NeighborhoodRequest(entities=())).result() == []


class TestQueryCaching:
    def test_repeat_request_hits_cache(self, bundle_dir, seed_entities):
        with ServingService(bundle_dir) as svc:
            first = svc.serve(WalkRequest(entities=tuple(seed_entities), seed=1)).result()
            hits_before = svc._cache.hits
            second = svc.serve(WalkRequest(entities=tuple(seed_entities), seed=1)).result()
            assert second == first
            assert svc._cache.hits == hits_before + 1

    def test_different_parameters_miss(self, bundle_dir, seed_entities):
        with ServingService(bundle_dir) as svc:
            svc.serve(WalkRequest(entities=tuple(seed_entities), seed=1)).result()
            svc.serve(WalkRequest(entities=tuple(seed_entities), seed=2)).result()
            assert svc._cache.hits == 0

    def test_annotation_caches_per_text(self, bundle_dir, sample_texts):
        with ServingService(bundle_dir) as svc:
            first = svc.serve(AnnotateRequest(texts=(sample_texts[0],))).result()[0]
            second = svc.serve(AnnotateRequest(texts=(sample_texts[0],))).result()[0]
            assert second == first
            assert svc._cache.hits == 1


class TestAnnotationServing:
    def test_annotate_matches_pipeline(self, service, sample_texts):
        pipeline = service._pool.local_state.snapshot.annotation_pipeline(tier="full")
        for text in sample_texts[:3]:
            served = service.serve(AnnotateRequest(texts=(text,))).result()[0]
            expected = pipeline.annotate(text)
            assert [
                (link.mention.start, link.mention.end, link.entity) for link in served
            ] == [
                (link.mention.start, link.mention.end, link.entity) for link in expected
            ]

    def test_annotate_many_matches_singles(self, service, sample_texts):
        batched = service.serve(AnnotateRequest(texts=tuple(sample_texts))).result()
        for text, links in zip(sample_texts, batched):
            singles = service.serve(AnnotateRequest(texts=(text,))).result()[0]
            assert [
                (link.mention.start, link.mention.end, link.entity) for link in links
            ] == [
                (link.mention.start, link.mention.end, link.entity) for link in singles
            ]

    def test_annotate_many_empty(self, service):
        assert service.serve(AnnotateRequest(texts=())).result() == []


class TestGenerationAdoption:
    def test_adopt_generation_invalidates_cache(self, tmp_path):
        # A private world: the test mutates the store between generations.
        from repro.kg.generator import SyntheticKGConfig, generate_kg
        from repro.kg.store import EntityRecord

        kg = generate_kg(SyntheticKGConfig(seed=3, scale=0.1))
        store = kg.store
        seeds = sorted(store.entity_ids())[:4]
        bundle_v1 = tmp_path / "v1"
        save_snapshot(store, bundle_v1)
        with ServingService(bundle_v1) as svc:
            svc.serve(WalkRequest(entities=tuple(seeds), seed=5)).result()
            version_1 = svc.store_version
            assert len(svc._cache) > 0

            # Grow the store: new generation, new bundle.
            store.upsert_entity(
                EntityRecord(
                    entity="entity:person/99999",
                    name="Generation Marker",
                    types=("type:person",),
                )
            )
            bundle_v2 = tmp_path / "v2"
            save_snapshot(store, bundle_v2)
            adopted = svc.adopt_generation(bundle_v2)
            assert adopted == store.version != version_1
            assert len(svc._cache) == 0  # old generation purged
            walks = svc.serve(WalkRequest(entities=tuple(seeds), seed=5)).result()
            assert len(walks) == 4
            assert svc.metrics.counters["serve.generations"] == 2


class TestStatsSurface:
    def test_stats_keys(self, bundle_dir, seed_entities, sample_texts):
        with ServingService(bundle_dir, num_shards=4) as svc:
            svc.serve(WalkRequest(entities=tuple(seed_entities[:4]))).result()
            svc.serve(AnnotateRequest(texts=(sample_texts[0],))).result()[0]
            stats = svc.stats()
        assert stats["counter.serve.requests"] == 2.0
        assert stats["hist.serve.latency.count"] == 2.0
        assert stats["serve.workers"] == 1.0
        assert stats["serve.mode"] == "inline"
        assert stats["serve.shards"] == 4.0
        assert 0.0 <= stats["serve.cache_hit_rate"] <= 1.0
        assert stats["serve.store_version"] == float(svc.store_version)

    def test_shard_fanout_counter(self, bundle_dir, seed_entities):
        with ServingService(bundle_dir, num_shards=4) as svc:
            svc.serve(WalkRequest(entities=tuple(seed_entities))).result()
            assert 1 <= svc.metrics.counters["serve.shard_fanout"] <= 4


@pytest.fixture(scope="module")
def embed_symbols(service):
    """(entities, predicate, candidate triples) the trained suite knows."""
    suite = service._pool.local_state.embedding_suite()
    dataset = suite.trained.dataset
    triples = [dataset.decode(*map(int, row)) for row in dataset.triples[:4]]
    return dataset.entities[:4], dataset.relations[0], triples


class TestServeDispatch:
    def test_serve_returns_typed_envelopes(self, service, seed_entities):
        response = service.serve(WalkRequest(entities=tuple(seed_entities[:3]), seed=2))
        assert type(response) is Response
        assert response.ok
        assert response.request_type == "walk"
        assert response.store_version == service.store_version
        assert response.timings["total_ms"] >= 0.0
        assert {"scatter_ms", "compute_ms", "gather_ms"} <= set(response.timings)

    def test_cache_hit_marks_envelope(self, service, seed_entities):
        request = WalkRequest(entities=tuple(seed_entities[:2]), seed=41)
        first = service.serve(request)
        second = service.serve(request)
        assert not first.cached
        assert second.cached
        assert second.payload == first.payload

    def test_fact_ranking_served(self, service, embed_symbols):
        _entities, predicate, triples = embed_symbols
        subjects = (triples[0][0], triples[1][0])
        response = service.serve(FactRankRequest(entities=subjects, predicate=predicate))
        assert type(response) is Response
        assert response.request_type == "fact_rank"
        assert response.ok
        assert len(response.payload) == 2

    def test_fact_ranking_matches_direct_backend(self, service, embed_symbols):
        _entities, predicate, triples = embed_symbols
        suite = service._pool.local_state.embedding_suite()
        served = service.serve(
            FactRankRequest(entities=(triples[0][0],), predicate=predicate)
        ).result()
        assert served[0] == suite.ranker.rank(triples[0][0], predicate)

    def test_verification_served(self, service, embed_symbols):
        _entities, _predicate, triples = embed_symbols
        verdicts = service.serve(VerifyRequest(candidates=tuple(triples))).result()
        assert len(verdicts) == len(triples)
        suite = service._pool.local_state.embedding_suite()
        assert verdicts == [suite.verifier.verify(*c) for c in triples]

    def test_similarity_and_knn_served(self, service, embed_symbols):
        entities, _predicate, _triples = embed_symbols
        sims = service.serve(
            SimilarityRequest(pairs=((entities[0], entities[1]), (entities[0], "ghost")))
        ).result()
        assert len(sims) == 2
        assert -1.0 <= sims[0] <= 1.0
        assert sims[1] == 0.0
        hits = service.serve(KnnRequest(entities=(entities[0],), k=3)).result()
        assert len(hits) == 1
        assert entities[0] not in {hit.key for hit in hits[0]}

    def test_error_becomes_envelope_and_wrapper_raises(self, service):
        from repro.common.errors import EmbeddingError

        response = service.serve(KnnRequest(entities=("entity:ghost",), k=3))
        assert not response.ok
        assert response.error is not None and response.error.code == "internal"
        assert isinstance(response.exception, EmbeddingError)
        with pytest.raises(EmbeddingError):
            response.result()

    def test_unsupported_request_type(self, service):
        response = service.serve("not a request")
        assert not response.ok
        assert response.error.code == "unsupported_type"

    def test_splittable_requests_are_shard_invariant(self, bundle_dir, embed_symbols):
        _entities, predicate, triples = embed_symbols
        subjects = tuple(sorted({s for s, _p, _o in triples}))
        results = []
        for num_shards in (1, 5):
            with ServingService(bundle_dir, num_shards=num_shards) as svc:
                results.append(
                    svc.serve(
                        FactRankRequest(entities=subjects, predicate=predicate)
                    ).payload
                )
        assert results[0] == results[1]


class TestAnnotationTiers:
    def test_single_text_honours_request_tier(self, bundle_dir, sample_texts):
        """A single-text request at a non-default tier is served — and
        cached — at the tier it asked for."""
        with ServingService(bundle_dir) as svc:
            text = sample_texts[0]
            lite_pipeline = svc._pool.local_state.snapshot.annotation_pipeline(
                tier="lite"
            )
            expected = lite_pipeline.annotate(text)
            response = svc.serve(AnnotateRequest(texts=(text,), tier="lite"))
            assert response.ok
            assert [
                (link.mention.start, link.mention.end, link.entity, link.score)
                for link in response.payload[0]
            ] == [
                (link.mention.start, link.mention.end, link.entity, link.score)
                for link in expected
            ]
            # Cached under the lite key, not poisoned by the full tier.
            again = svc.serve(AnnotateRequest(texts=(text,), tier="lite"))
            assert again.cached
            assert [link.score for link in again.payload[0]] == [
                link.score for link in expected
            ]


class TestCacheAdmission:
    def test_multi_text_annotation_not_cached(self, bundle_dir, sample_texts):
        with ServingService(bundle_dir) as svc:
            svc.serve(AnnotateRequest(texts=tuple(sample_texts[:3]))).result()
            assert len(svc._cache) == 0
            svc.serve(AnnotateRequest(texts=(sample_texts[0],))).result()[0]
            assert len(svc._cache) == 1

    def test_verify_results_cached(self, service, embed_symbols):
        _entities, _predicate, triples = embed_symbols
        request = VerifyRequest(candidates=tuple(triples[:2]))
        service.serve(request)
        assert service.serve(request).cached

    def test_similarity_results_cached(self, service, embed_symbols):
        entities, _predicate, _triples = embed_symbols
        request = SimilarityRequest(pairs=((entities[0], entities[1]),))
        service.serve(request)
        assert service.serve(request).cached


class TestCacheWarming:
    def test_warm_precomputes_requests(self, bundle_dir, seed_entities):
        with ServingService(bundle_dir) as svc:
            requests = [
                WalkRequest(entities=(entity,), seed=3) for entity in seed_entities[:4]
            ]
            warmed = svc.warm(requests)
            assert warmed == 4
            assert all(svc.serve(r).cached for r in requests)
            # A second warm pass finds everything cached already.
            assert svc.warm(requests) == 0

    def test_warm_counts_one_miss_per_fresh_request(self, bundle_dir, seed_entities):
        with ServingService(bundle_dir) as svc:
            requests = [
                NeighborhoodRequest(entities=(entity,), hops=1)
                for entity in seed_entities[:10]
            ]
            assert svc.warm(requests) == len(requests)
            assert svc._cache.misses == len(requests)
            assert svc._cache.hits == 0

    def test_warm_skips_non_cacheable(self, bundle_dir, sample_texts):
        with ServingService(bundle_dir) as svc:
            warmed = svc.warm([AnnotateRequest(texts=tuple(sample_texts[:2]))])
            assert warmed == 0
            assert len(svc._cache) == 0

    def test_requests_from_query_log_ranks_answered_demand(self):
        entries = [
            QueryLogEntry(entity="e1", predicate="p", timestamp=1.0, answered=True),
            QueryLogEntry(entity="e1", predicate="p", timestamp=2.0, answered=True),
            QueryLogEntry(entity="e1", predicate="p", timestamp=3.0, answered=True),
            QueryLogEntry(entity="e2", predicate="p", timestamp=4.0, answered=True),
            QueryLogEntry(entity="e2", predicate="p", timestamp=5.0, answered=True),
            QueryLogEntry(entity="e3", predicate="p", timestamp=6.0, answered=False),
            QueryLogEntry(entity="e3", predicate="p", timestamp=7.0, answered=False),
            QueryLogEntry(entity="e4", predicate="p", timestamp=8.0, answered=True),
        ]
        requests = requests_from_query_log(entries, min_count=2)
        assert requests == [
            FactRankRequest(entities=("e1",), predicate="p"),
            FactRankRequest(entities=("e2",), predicate="p"),
        ]

    def test_warm_from_query_log_end_to_end(self, bundle_dir, embed_symbols):
        _entities, predicate, triples = embed_symbols
        subject = triples[0][0]
        entries = [
            QueryLogEntry(entity=subject, predicate=predicate, timestamp=float(i), answered=True)
            for i in range(3)
        ]
        with ServingService(bundle_dir) as svc:
            warmed = svc.warm_from_query_log(entries, min_count=2)
            assert warmed == 1
            response = svc.serve(
                FactRankRequest(entities=(subject,), predicate=predicate)
            )
            assert response.cached


class TestPerTypeStats:
    def test_per_request_type_counters_and_p95(self, bundle_dir, seed_entities, sample_texts):
        with ServingService(bundle_dir, num_shards=4) as svc:
            svc.serve(WalkRequest(entities=tuple(seed_entities[:4]))).result()
            svc.serve(WalkRequest(entities=tuple(seed_entities[:4]), seed=1)).result()
            svc.serve(AnnotateRequest(texts=(sample_texts[0],))).result()[0]
            stats = svc.stats()
        assert stats["counter.serve.requests.WalkRequest"] == 2.0
        assert stats["counter.serve.requests.AnnotateRequest"] == 1.0
        assert stats["hist.serve.latency.WalkRequest.count"] == 2.0
        assert stats["hist.serve.latency.WalkRequest.p95_s"] >= 0.0
        assert stats["hist.serve.latency.AnnotateRequest.count"] == 1.0
        assert stats["serve.p95_s"] >= stats["serve.p50_s"] >= 0.0

    def test_error_counters(self, bundle_dir):
        with ServingService(bundle_dir) as svc:
            svc.serve(KnnRequest(entities=("entity:ghost",), k=2))
            stats = svc.stats()
        assert stats["counter.serve.errors"] == 1.0
        assert stats["counter.serve.errors.KnnRequest"] == 1.0


class TestSaveAndServe:
    def test_round_trip(self, serving_kg, tmp_path, seed_entities):
        with save_and_serve(serving_kg.store, tmp_path / "bundle") as svc:
            walks = svc.serve(WalkRequest(entities=tuple(seed_entities[:2]))).result()
            assert len(walks) == 2
            assert svc.store_version == serving_kg.store.version
