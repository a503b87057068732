"""Multi-tenant serving: registry lifecycle, isolation, swaps, caching.

The pins the ISSUE demands: ≥8 tenants answering byte-identically to a
single-tenant run, canary facts that never leak across tenants (including
across a concurrent shared-generation swap), LRU eviction with crash-safe
cold re-attach, and per-(tenant, tenant_version) cache keys.
"""

from __future__ import annotations

import threading

import pytest

from repro.common import ids
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.adjacency import build_csr
from repro.kg.deltas import GenerationPublisher
from repro.kg.store import EntityRecord
from repro.kg.triple import entity_fact
from repro.serving.requests import (
    ERROR_BAD_REQUEST,
    ERROR_UNAVAILABLE,
    NeighborhoodRequest,
    PersonalRecord,
    RelatedRequest,
    TenantDeleteRequest,
    TenantSyncRequest,
    TenantUpsertRequest,
    WalkRequest,
)
from repro.serving.service import ServingService
from repro.serving.tenancy import TenantNotFound, TenantRegistry

PERSON = ids.entity_id("personal/person-0000")


def canary_record(tenant_no: int, target: str, *, sequence: int = 1) -> PersonalRecord:
    """One contact record whose name and shared-graph link are unique to
    ``tenant_no`` — the leak detector every isolation sweep greps for."""
    return PersonalRecord(
        record_id=f"c{tenant_no:03d}",
        source="contacts",
        fields=(
            ("first_name", f"Canary{tenant_no:02d}"),
            ("last_name", "Holder"),
            ("linked_entity", target),
            ("phone", f"+1-555-01{tenant_no:02d}"),
        ),
        sequence=sequence,
    )


@pytest.fixture(scope="module")
def shared_world():
    kg = generate_kg(SyntheticKGConfig(seed=23, scale=0.05))
    return kg, build_csr(kg.store), sorted(kg.store.entity_ids())


def make_registry(tmp_path, shared_world, name="tenants", **kwargs):
    return TenantRegistry(tmp_path / name, **kwargs)


def populate(registry, entities, tenant_nos) -> dict[str, str]:
    """Create one canary tenant per number; returns tenant -> target."""
    targets = {}
    for n in tenant_nos:
        tenant = f"tenant-{n:02d}"
        target = entities[n % len(entities)]
        registry.upsert(tenant, [canary_record(n, target)])
        targets[tenant] = target
    return targets


class TestRegistryIsolation:
    def test_eight_tenants_never_see_each_other(self, tmp_path, shared_world):
        _kg, base, entities = shared_world
        registry = make_registry(tmp_path, shared_world)
        targets = populate(registry, entities, range(8))
        assert len(set(targets.values())) == 8
        for tenant, target in targets.items():
            hood = registry.execute_read(
                tenant, NeighborhoodRequest(entities=(PERSON,), hops=1), base
            )[0]
            assert target in hood
            leaked = set(hood) & (set(targets.values()) - {target})
            assert not leaked, f"{tenant} leaked {leaked}"

    def test_byte_identical_to_single_tenant_run(self, tmp_path, shared_world):
        """A tenant sharing the registry with 7 others answers exactly as
        it would alone — the multiplexing is invisible to results."""
        _kg, base, entities = shared_world
        fleet = make_registry(tmp_path, shared_world, name="fleet")
        populate(fleet, entities, range(8))
        solo = make_registry(tmp_path, shared_world, name="solo")
        populate(solo, entities, [3])

        walk = WalkRequest(
            entities=(PERSON,), walk_length=6, walks_per_entity=4, seed=41
        )
        hood = NeighborhoodRequest(entities=(PERSON,), hops=2)
        assert fleet.execute_read("tenant-03", walk, base) == solo.execute_read(
            "tenant-03", walk, base
        )
        assert fleet.execute_read("tenant-03", hood, base) == solo.execute_read(
            "tenant-03", hood, base
        )

    def test_unknown_tenant_raises(self, tmp_path, shared_world):
        _kg, base, _entities = shared_world
        registry = make_registry(tmp_path, shared_world)
        with pytest.raises(TenantNotFound):
            registry.execute_read(
                "nobody", NeighborhoodRequest(entities=(PERSON,), hops=1), base
            )

    def test_sync_round_trip_and_dp_count(self, tmp_path, shared_world):
        _kg, _base, entities = shared_world
        registry = make_registry(tmp_path, shared_world)
        payload = registry.sync(
            "sync-tenant", records=[canary_record(1, entities[0])], epsilon=2.0
        )
        assert payload["tenant_version"] >= 1
        assert payload["people"] and payload["people"][0]["name"].startswith(
            "Canary01"
        )
        # The device already holds its own record; nothing comes back.
        assert payload["records"] == []
        # DP, not exact: the noised count is a float, and two versions of
        # the store draw different noise (seeded by tenant+version).
        assert isinstance(payload["dp_record_count"], float)

        # A second, empty-handed device learns the record via sync.
        fresh = registry.sync("sync-tenant")
        assert [r["record_id"] for r in fresh["records"]] == ["c001"]

    def test_delete_tombstone_suppresses_and_lww_resurrects(
        self, tmp_path, shared_world
    ):
        _kg, base, entities = shared_world
        registry = make_registry(tmp_path, shared_world)
        registry.upsert("t", [canary_record(5, entities[5])])
        assert registry.delete("t", "contacts", "c005")["deleted"]
        # Replaying the same-sequence record after the delete is a no-op
        # (delete wins ties) ...
        result = registry.upsert("t", [canary_record(5, entities[5])])
        assert result["applied"] == 0 and result["skipped"] == 1
        # ... but a strictly newer write resurrects.
        result = registry.upsert("t", [canary_record(5, entities[5], sequence=9)])
        assert result["applied"] == 1
        hood = registry.execute_read(
            "t", NeighborhoodRequest(entities=(PERSON,), hops=1), base
        )[0]
        assert entities[5] in hood


class TestRegistryLifecycle:
    def test_lru_eviction_and_cold_reattach(self, tmp_path, shared_world):
        _kg, base, entities = shared_world
        registry = make_registry(tmp_path, shared_world, max_resident=2)
        targets = populate(registry, entities, range(4))
        assert registry.resident_count() == 2
        assert registry.evictions == 2
        assert registry.list_tenants() == sorted(targets)
        # The evicted tenant cold-attaches from its bundle with state
        # intact — version, records, and answers all survive residency.
        state = registry.get("tenant-00")
        assert state.records[("contacts", "c000")].fields["first_name"] == "Canary00"
        hood = registry.execute_read(
            "tenant-00", NeighborhoodRequest(entities=(PERSON,), hops=1), base
        )[0]
        assert targets["tenant-00"] in hood

    def test_crash_safe_reload_preserves_everything(self, tmp_path, shared_world):
        _kg, base, entities = shared_world
        first = make_registry(tmp_path, shared_world)
        first.upsert("durable", [canary_record(2, entities[2])])
        first.upsert("durable", [canary_record(7, entities[7])])
        first.delete("durable", "contacts", "c007")
        version = first.tenant_version("durable")
        answer = first.execute_read(
            "durable", NeighborhoodRequest(entities=(PERSON,), hops=1), base
        )
        first.close()  # simulated crash: only the durable bundles remain

        second = make_registry(tmp_path, shared_world)
        state = second.get("durable")
        assert state.version == version
        assert set(state.records) == {("contacts", "c002")}
        assert state.tombstones[("contacts", "c007")] == 1
        assert (
            second.execute_read(
                "durable", NeighborhoodRequest(entities=(PERSON,), hops=1), base
            )
            == answer
        )

    def test_lease_pins_against_eviction(self, tmp_path, shared_world):
        """A leased tenant survives LRU overflow (and explicit evict)
        until released — eviction mid-request could otherwise re-attach
        the same tenant and run two publishers over one chain."""
        _kg, _base, entities = shared_world
        registry = make_registry(tmp_path, shared_world, max_resident=1)
        registry.upsert("pinned", [canary_record(0, entities[0])])
        with registry.lease("pinned") as leased:
            assert not registry.evict("pinned")
            # Attaching others overflows the LRU, but the pinned slot
            # defers its eviction to the release below.
            registry.upsert("other", [canary_record(1, entities[1])])
            with registry.lease("pinned") as again:
                assert again is leased  # still the same resident state
        # Released: the overflow already trimmed back to max_resident
        # (the unpinned "other" went instead), and the explicit evict
        # that was refused above now succeeds.
        assert registry.resident_count() == 1
        assert registry.evict("pinned")
        assert registry.resident_count() == 0
        assert registry.exists("pinned")  # durable on disk either way

    def test_concurrent_writes_under_tiny_lru_lose_nothing(
        self, tmp_path, shared_world
    ):
        """Writers hammer two tenants through a max_resident=1 registry —
        constant eviction pressure — and every durable record survives a
        cold reload (no publisher ever ran concurrently with its twin)."""
        _kg, _base, entities = shared_world
        registry = make_registry(tmp_path, shared_world, max_resident=1)
        per_tenant = 6
        errors: list = []

        def writer(tenant: str, offset: int) -> None:
            try:
                for i in range(per_tenant):
                    n = offset + i
                    registry.upsert(
                        tenant, [canary_record(n, entities[n % len(entities)])]
                    )
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append((tenant, exc))

        threads = [
            threading.Thread(target=writer, args=(tenant, offset))
            for tenant in ("alpha", "beta")
            for offset in (0, per_tenant)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors[:3]
        registry.close()

        reloaded = make_registry(tmp_path, shared_world, max_resident=2)
        for tenant in ("alpha", "beta"):
            state = reloaded.get(tenant)
            assert set(state.records) == {
                ("contacts", f"c{n:03d}") for n in range(2 * per_tenant)
            }, tenant

    def test_invalid_tenant_ids_are_rejected(self, tmp_path, shared_world):
        from repro.serving.tenancy import TenantError

        registry = make_registry(tmp_path, shared_world)
        for bad in ("../escape", "", ".hidden", "a/b", "x" * 65):
            with pytest.raises(TenantError):
                registry.get(bad, create=True)
            assert not registry.exists(bad)

    def test_execute_read_picks_up_a_grown_base(self, tmp_path):
        kg = generate_kg(SyntheticKGConfig(seed=29, scale=0.05))
        entities = sorted(kg.store.entity_ids())
        registry = TenantRegistry(tmp_path / "tenants")
        registry.upsert("grower", [canary_record(0, entities[0])])
        person_hood = NeighborhoodRequest(entities=(PERSON,), hops=2)
        hood1 = registry.execute_read("grower", person_hood, build_csr(kg.store))[0]

        newcomer = ids.entity_id("grown/swap-witness")
        kg.store.upsert_entity(EntityRecord(entity=newcomer, name="Witness"))
        kg.store.add(
            entity_fact(
                newcomer, ids.predicate_id("knows"), entities[0], sources=("g",)
            )
        )
        hood2 = registry.execute_read("grower", person_hood, build_csr(kg.store))[0]
        # Two hops from the person: canary link, then the *new* shared
        # edge, absent from the overlay built over the first base.
        assert newcomer not in hood1
        assert newcomer in hood2


@pytest.fixture()
def tenant_service(bundle_dir, tmp_path):
    service = ServingService(
        bundle_dir, mode="inline", tenants_dir=tmp_path / "tenants"
    )
    yield service
    service.close()


class TestServiceDispatch:
    def test_end_to_end_upsert_then_read(self, tenant_service, seed_entities):
        upsert = tenant_service.serve(
            TenantUpsertRequest(records=(canary_record(1, seed_entities[1]),)),
            tenant="alice",
        )
        assert upsert.ok and upsert.payload["applied"] == 1
        read = tenant_service.serve(
            NeighborhoodRequest(entities=(PERSON,), hops=1), tenant="alice"
        )
        assert read.ok and seed_entities[1] in read.payload[0]
        # The shared graph never sees tenant facts: the same request
        # without a tenant answers over a dictionary with no person node.
        shared = tenant_service.serve(NeighborhoodRequest(entities=(PERSON,), hops=1))
        assert shared.ok and shared.payload[0] == []

    @pytest.mark.parametrize("mode", ["inline", "thread", "process"])
    def test_every_fleet_mode_serves_tenants(
        self, bundle_dir, tmp_path, seed_entities, mode
    ):
        """Tenant dispatch happens before pool fan-out, so every worker
        fleet shape serves identical tenant answers."""
        with ServingService(
            bundle_dir, mode=mode, tenants_dir=tmp_path / f"tenants-{mode}"
        ) as service:
            service.serve(
                TenantUpsertRequest(records=(canary_record(4, seed_entities[4]),)),
                tenant="modal",
            )
            walk = service.serve(
                WalkRequest(
                    entities=(PERSON,), walk_length=5, walks_per_entity=3, seed=11
                ),
                tenant="modal",
            )
            assert walk.ok
            flat = {node for walk_ in walk.payload[0] for node in walk_}
            assert PERSON in flat

    def test_tenant_cache_keys_hit_and_invalidate(
        self, tenant_service, seed_entities
    ):
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        tenant_service.serve(
            TenantUpsertRequest(records=(canary_record(2, seed_entities[2]),)),
            tenant="bob",
        )
        first = tenant_service.serve(request, tenant="bob")
        second = tenant_service.serve(request, tenant="bob")
        assert not first.cached and second.cached
        assert second.payload == first.payload
        # A tenant write bumps tenant_version: structural invalidation.
        # (Same record_id at a higher sequence — LWW moves the canary's
        # shared-graph link, so the fresh answer must differ.)
        tenant_service.serve(
            TenantUpsertRequest(
                records=(
                    PersonalRecord(
                        record_id="c002",
                        source="contacts",
                        fields=(
                            ("first_name", "Canary02"),
                            ("last_name", "Holder"),
                            ("linked_entity", seed_entities[3]),
                        ),
                        sequence=2,
                    ),
                )
            ),
            tenant="bob",
        )
        third = tenant_service.serve(request, tenant="bob")
        assert not third.cached
        assert seed_entities[3] in third.payload[0]
        assert seed_entities[2] not in third.payload[0]

    def test_cache_never_crosses_tenants(self, tenant_service, seed_entities):
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        for name, n in (("carol", 5), ("dave", 6)):
            tenant_service.serve(
                TenantUpsertRequest(records=(canary_record(n, seed_entities[n]),)),
                tenant=name,
            )
            tenant_service.serve(request, tenant=name)  # warm each key
        carol = tenant_service.serve(request, tenant="carol")
        dave = tenant_service.serve(request, tenant="dave")
        assert carol.cached and dave.cached
        assert seed_entities[5] in carol.payload[0]
        assert seed_entities[5] not in dave.payload[0]
        assert seed_entities[6] in dave.payload[0]

    def test_cache_family_stats_expose_tenant_traffic(
        self, tenant_service, seed_entities
    ):
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        tenant_service.serve(
            TenantUpsertRequest(records=(canary_record(1, seed_entities[1]),)),
            tenant="erin",
        )
        tenant_service.serve(request, tenant="erin")
        tenant_service.serve(request, tenant="erin")
        families = tenant_service.cache_family_stats()
        assert families["neighborhood"]["misses"] >= 1
        assert families["neighborhood"]["hits"] >= 1
        body = tenant_service.prometheus_metrics()
        assert 'kg_cache_hits_by_type_total{type="neighborhood"}' in body
        assert 'kg_tenant_ops_by_kind_total{kind="upserts"}' in body

    def test_error_codes(self, tenant_service, bundle_dir):
        # Tenant family without an envelope tenant: bad_request.
        response = tenant_service.serve(TenantDeleteRequest(source="s", record_id="r"))
        assert response.status == "error"
        assert response.error.code == ERROR_BAD_REQUEST
        # Unknown tenant on a read: bad_request, not internal.
        response = tenant_service.serve(
            NeighborhoodRequest(entities=(PERSON,), hops=1), tenant="ghost"
        )
        assert response.error.code == ERROR_BAD_REQUEST
        # Non-overlay request types refuse tenant scoping.
        response = tenant_service.serve(
            RelatedRequest(entities=(PERSON,), k=3), tenant="ghost"
        )
        assert response.error.code == ERROR_BAD_REQUEST
        # Tenancy disabled entirely: unavailable.
        with ServingService(bundle_dir, mode="inline") as bare:
            response = bare.serve(TenantSyncRequest(), tenant="anyone")
            assert response.error.code == ERROR_UNAVAILABLE


class TestConcurrentSwapSweep:
    def test_canaries_survive_a_live_shared_swap(self, tmp_path):
        """Readers hammer 8 tenants while the shared bundle swaps
        generations underneath: zero failed requests, zero leaks."""
        kg = generate_kg(SyntheticKGConfig(seed=31, scale=0.05))
        entities = sorted(kg.store.entity_ids())
        bundle = tmp_path / "bundle"
        publisher = GenerationPublisher(kg.store, bundle, embeddings=False)
        service = ServingService(
            bundle, mode="inline", tenants_dir=tmp_path / "tenants"
        )
        try:
            targets = {}
            for n in range(8):
                tenant = f"swap-{n}"
                target = entities[n]
                targets[tenant] = target
                service.serve(
                    TenantUpsertRequest(records=(canary_record(n, target),)),
                    tenant=tenant,
                )
            failures: list = []
            leaks: list = []
            stop = threading.Event()

            def reader(offset: int) -> None:
                round_no = 0
                while not stop.is_set():
                    for tenant, target in targets.items():
                        response = service.serve(
                            NeighborhoodRequest(entities=(PERSON,), hops=1),
                            tenant=tenant,
                        )
                        if not response.ok:
                            failures.append((tenant, response.error))
                            continue
                        hood = set(response.payload[0])
                        if target not in hood:
                            leaks.append((tenant, "missing-canary"))
                        foreign = hood & (set(targets.values()) - {target})
                        if foreign:
                            leaks.append((tenant, foreign))
                    round_no += 1

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            # Two generation swaps under live tenant traffic.
            for round_no in range(2):
                grown = ids.entity_id(f"grown/mid-swap-{round_no}")
                kg.store.upsert_entity(EntityRecord(entity=grown, name="Grown"))
                fact = entity_fact(
                    grown, ids.predicate_id("knows"), entities[round_no], sources=("g",)
                )
                kg.store.add(fact)
                publisher.record(keys=[fact.key], entities=[grown])
                publisher.publish()
                publisher.join_compaction()
                service.adopt_generation(bundle)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not failures, failures[:3]
            assert not leaks, leaks[:3]
            assert service.store_version == kg.store.version
        finally:
            service.close()


@pytest.fixture()
def growing_service(tmp_path):
    """A tenant-enabled service over a bundle that can publish a new shared
    generation on demand: ``(service, entities, grow, bundle)``."""
    kg = generate_kg(SyntheticKGConfig(seed=31, scale=0.05))
    entities = sorted(kg.store.entity_ids())
    bundle = tmp_path / "bundle"
    publisher = GenerationPublisher(kg.store, bundle, embeddings=False)
    service = ServingService(bundle, mode="inline", tenants_dir=tmp_path / "tenants")

    def grow(round_no: int) -> int:
        grown = ids.entity_id(f"grown/merged-{round_no}")
        kg.store.upsert_entity(EntityRecord(entity=grown, name="Grown"))
        fact = entity_fact(
            grown, ids.predicate_id("knows"), entities[round_no], sources=("g",)
        )
        kg.store.add(fact)
        publisher.record(keys=[fact.key], entities=[grown])
        publisher.publish()
        publisher.join_compaction()
        return kg.store.version

    yield service, entities, grow, bundle
    service.close()


class TestMergedPipeline:
    """Tenant reads ride the one serve pipeline: same cache, same swap
    retry, same stale fallback, each scoped to the tenant."""

    def test_failed_tenant_read_serves_its_own_stale_answer(
        self, growing_service, monkeypatch
    ):
        service, entities, grow, bundle = growing_service
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        answers = {}
        for n, tenant in enumerate(("frank", "gina")):
            service.serve(
                TenantUpsertRequest(records=(canary_record(n, entities[n]),)),
                tenant=tenant,
            )
            answers[tenant] = service.serve(request, tenant=tenant).payload
        answers[None] = service.serve(request).payload
        assert len({repr(answer) for answer in answers.values()}) == 3

        # The swap demotes every cached answer into the stale store; then
        # every tenant compute fails.
        version = grow(0)
        service.adopt_generation(bundle)
        assert service.store_version == version

        def broken(engine, request):
            raise RuntimeError("overlay engine unavailable")

        monkeypatch.setattr(service._tenants, "execute_on", broken)
        for tenant in ("frank", "gina"):
            response = service.serve(request, tenant=tenant)
            assert response.status == "degraded", response.error
            assert response.cached and response.resilience["stale"] is True
            assert response.payload == answers[tenant]
            assert response.store_version == version
        # A tenant that never answered before has no stale answer of its
        # own, and never borrows the shared one or another tenant's.
        service.serve(
            TenantUpsertRequest(records=(canary_record(7, entities[7]),)),
            tenant="hank",
        )
        response = service.serve(request, tenant="hank")
        assert response.status == "error"
        assert response.payload is None

    def test_tenant_read_racing_a_swap_retries_as_the_same_tenant(
        self, growing_service, monkeypatch
    ):
        service, entities, grow, bundle = growing_service
        request = NeighborhoodRequest(entities=(PERSON,), hops=1)
        service.serve(
            TenantUpsertRequest(records=(canary_record(3, entities[3]),)),
            tenant="ivy",
        )
        registry = service._tenants
        execute_on = registry.execute_on
        version = grow(1)
        calls = []

        def swap_then_fail(engine, request):
            calls.append(service.store_version)
            if len(calls) == 1:
                # The shared generation swaps under this read, and the
                # old generation's compute fails.
                service.adopt_generation(bundle)
                raise RuntimeError("old generation shut down")
            return execute_on(engine, request)

        monkeypatch.setattr(registry, "execute_on", swap_then_fail)
        response = service.serve(request, tenant="ivy")
        assert response.ok, response.error
        assert len(calls) == 2 and calls[1] == version
        assert response.store_version == version
        assert entities[3] in response.payload[0]
        assert service.stats()["counter.serve.swap_retries"] == 1.0
        # Cached under the tenant's key at the new generation, never under
        # the shared key.
        tenant_key = ("ivy", registry.tenant_version("ivy"))
        assert service._cache.get(version, request, tenant=tenant_key) == response.payload
        assert service._cache.get(version, request) is None
        assert service.serve(request, tenant="ivy").cached

    def test_every_catalogued_gauge_reaches_stats_and_metrics(
        self, tenant_service, seed_entities
    ):
        tenant_service.serve(
            TenantUpsertRequest(records=(canary_record(1, seed_entities[1]),)),
            tenant="jade",
        )
        tenant_service.serve(NeighborhoodRequest(entities=(PERSON,), hops=1), tenant="jade")
        gauges = tenant_service.gauges()
        stats = tenant_service.stats()
        series = {
            line.split(" ")[0]
            for line in tenant_service.prometheus_metrics().splitlines()
            if not line.startswith("#")
        }
        for key, value in gauges.items():
            assert stats[key] == value, key
            assert f"kg_{key.replace('.', '_')}" in series, key
        # Everything either exposition carried before the catalogue.
        for key in (
            "serve.store_version", "serve.workers", "serve.shards",
            "serve.cache_entries", "serve.cache_hits", "serve.cache_misses",
            "serve.cache_evictions", "serve.cache_hit_rate",
            "serve.tenants_resident", "serve.tenants_evictions",
            "serve.mode", "serve.p50_s", "serve.p95_s",
        ):
            assert key in stats, key
        for key in (
            "serve.store_version", "serve.cache_entries", "serve.cache_hits",
            "serve.cache_misses", "serve.cache_evictions", "serve.workers",
            "serve.live_workers", "serve.shards",
            "serve.tenants_resident",
        ):
            assert f"kg_{key.replace('.', '_')}" in series, key
