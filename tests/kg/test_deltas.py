"""Delta-chain bundles: publish/merge parity, edge cases, crash safety."""

import json
import threading

import numpy as np
import pytest

from repro.annotation.alias_table import AliasTable
from repro.annotation.context_encoder import EntityContextIndex
from repro.common import ids
from repro.common.errors import StoreError
from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.adjacency import build_csr
from repro.kg.deltas import (
    CHAIN_NAME,
    SITE_PUBLISH_CHAIN,
    SITE_PUBLISH_DELTA,
    GenerationPublisher,
    published_version,
    read_chain,
)
from repro.kg import persistence
from repro.kg.persistence import load_snapshot, save_snapshot
from repro.kg.store import EntityRecord
from repro.kg.triple import LiteralType, entity_fact, literal_fact
from repro.serving.faults import FaultPlan, FaultSpec, InjectedCrash, armed

RELATED = ids.predicate_id("related_to")
NOTE = ids.predicate_id("note")


@pytest.fixture()
def world(tmp_path):
    """A small fresh KG (mutable per test) plus its publisher bundle."""
    kg = generate_kg(SyntheticKGConfig(seed=11, scale=0.05))
    publisher = GenerationPublisher(kg.store, tmp_path / "bundle", embeddings=False)
    return kg.store, publisher, tmp_path / "bundle"


def _mutate(store, round_no: int) -> list[tuple[str, str, str]]:
    """Apply one round of mixed mutations; returns the touched keys."""
    entity_ids = store.entity_ids()
    a, b, c = (
        entity_ids[round_no % len(entity_ids)],
        entity_ids[(round_no * 3 + 1) % len(entity_ids)],
        entity_ids[(round_no * 7 + 2) % len(entity_ids)],
    )
    facts = [
        entity_fact(a, RELATED, b, confidence=0.9, sources=("live",), updated_at=1.0 + round_no),
        literal_fact(c, NOTE, f"note {round_no}", LiteralType.STRING, confidence=0.8, sources=("live",), updated_at=1.0 + round_no),
    ]
    for fact in facts:
        store.add(fact)
    return [fact.key for fact in facts]


def _rows(csr, node):
    node_id = csr.dictionary.get(node)
    if node_id is None:
        return set()
    return {csr.dictionary.string_of(int(i)) for i in csr.neighbors_of(node_id)}


def _assert_full_parity(store, bundle):
    """Chain-loaded snapshot == from-scratch rebuild, layer by layer."""
    snapshot = load_snapshot(bundle)
    assert snapshot.manifest["store_version"] == store.version

    # Logical store: identical facts with identical metadata.
    chain_facts = {fact.key: fact for fact in snapshot.store.scan()}
    live_facts = {fact.key: fact for fact in store.scan()}
    assert chain_facts == live_facts
    assert set(snapshot.store.entity_ids()) == set(store.entity_ids())

    # Adjacency: every row and degree matches a full rebuild.
    full = build_csr(store)
    merged = snapshot.adjacency
    assert merged is not None and merged.built_version == store.version
    assert merged.num_edges == full.num_edges
    for node in full.dictionary.strings():
        assert _rows(full, node) == _rows(merged, node), node
        assert full.degree(node) == merged.degree(node), node
    assert merged.predicate_counts == full.predicate_counts

    # Context: numerically identical vectors per entity.
    index = EntityContextIndex(store)
    index.build()
    matrix, entities, version, _extra = snapshot.context
    assert version == store.version
    assert sorted(entities) == sorted(store.entity_ids())
    row_of = {entity: i for i, entity in enumerate(entities)}
    for entity in store.entity_ids():
        np.testing.assert_array_equal(matrix[row_of[entity]], index.vector(entity))

    # Alias: bitwise-equal state versus a full refresh.
    fresh = AliasTable(store).state()
    state, alias_version, _extra = snapshot.alias
    assert alias_version == store.version
    assert set(state["exact"]) == set(fresh["exact"])
    for key, entries in fresh["exact"].items():
        assert [tuple(e) for e in state["exact"][key]] == [tuple(e) for e in entries], key
    assert state["trie"] == fresh["trie"]
    assert set(state["key_grams"]) == set(fresh["key_grams"])
    for key, grams in fresh["key_grams"].items():
        assert dict(state["key_grams"][key]) == dict(grams), key
    return snapshot


class TestPublishParity:
    def test_streamed_generations_match_full_rebuild(self, world):
        store, publisher, bundle = world
        for round_no in range(3):
            publisher.record(keys=_mutate(store, round_no))
            info = publisher.publish()
            assert info is not None
            assert info.store_version == store.version
        assert publisher.chain_length == 3
        _assert_full_parity(store, bundle)

    def test_new_entity_and_record_update(self, world):
        store, publisher, bundle = world
        new = EntityRecord(
            entity=ids.entity_id("fresh_e1"),
            name="Freshly Added",
            aliases=("The Fresh One",),
            types=("type:person",),
            description="a brand new entity",
            popularity=0.7,
        )
        store.upsert_entity(new)
        anchor = store.entity_ids()[0]
        fact = entity_fact(new.entity, RELATED, anchor, confidence=1.0, sources=("live",), updated_at=9.0)
        store.add(fact)
        publisher.record(keys=[fact.key], entities=[new.entity])
        assert publisher.publish() is not None
        snapshot = _assert_full_parity(store, bundle)
        state, _v, _e = snapshot.alias
        assert any("freshly" in key for key in state["exact"])

        # Second generation: rename an existing entity (alias keys move).
        record = store.entity(anchor)
        renamed = EntityRecord(
            entity=record.entity,
            name=record.name + " Jr",
            aliases=record.aliases,
            types=record.types,
            description=record.description,
            popularity=record.popularity,
        )
        store.upsert_entity(renamed)
        publisher.record(entities=[anchor])
        assert publisher.publish() is not None
        _assert_full_parity(store, bundle)

    def test_publish_without_changes_returns_none(self, world):
        store, publisher, _bundle = world
        assert publisher.publish() is None
        # Recorded keys but no actual store mutation: still a no-op.
        publisher.record(keys=[(store.entity_ids()[0], RELATED, store.entity_ids()[1])])
        assert publisher.publish() is None
        assert publisher.pending == 0

    def test_published_version_tracks_tip(self, world):
        store, publisher, bundle = world
        assert published_version(bundle) == publisher.tip_version == store.version
        publisher.record(keys=_mutate(store, 0))
        publisher.publish()
        assert published_version(bundle) == store.version

    def test_adopts_pre_chain_bundle(self, tmp_path):
        kg = generate_kg(SyntheticKGConfig(seed=3, scale=0.05))
        bundle = tmp_path / "plain"
        save_snapshot(kg.store, bundle, embeddings=False)
        assert not (bundle / CHAIN_NAME).exists()
        publisher = GenerationPublisher(kg.store, bundle, embeddings=False)
        assert (bundle / CHAIN_NAME).exists()
        publisher.record(keys=_mutate(kg.store, 1))
        assert publisher.publish() is not None
        _assert_full_parity(kg.store, bundle)


class TestDeltaEdgeCases:
    def test_delete_then_readd_row(self, world):
        store, publisher, bundle = world
        victim = next(iter(store.scan()))
        store.remove(*victim.key)
        publisher.record(keys=[victim.key])
        publisher.publish()
        snapshot = load_snapshot(bundle)
        assert snapshot.store.get(*victim.key) is None

        # Re-add the same key with brand new metadata: the chain must
        # serve the re-added fact, not a merge with the deleted one.
        readded = victim.with_metadata(confidence=0.42, sources=("readd",), updated_at=99.0)
        store.add(readded)
        publisher.record(keys=[readded.key])
        publisher.publish()
        snapshot = _assert_full_parity(store, bundle)
        served = snapshot.store.get(*readded.key)
        assert served.confidence == 0.42
        assert served.sources == ("readd",)

        # Delete-then-readd inside one generation collapses to the end state.
        store.remove(*readded.key)
        final = readded.with_metadata(confidence=0.9, sources=("final",), updated_at=100.0)
        store.add(final)
        publisher.record(keys=[final.key])
        publisher.publish()
        snapshot = load_snapshot(bundle)
        assert snapshot.store.get(*final.key).sources == ("final",)
        _assert_full_parity(store, bundle)

    def test_chain_longer_than_compaction_threshold(self, tmp_path):
        kg = generate_kg(SyntheticKGConfig(seed=11, scale=0.05))
        publisher = GenerationPublisher(
            kg.store, tmp_path / "bundle", compact_every=3, embeddings=False
        )
        infos = []
        for round_no in range(4):
            publisher.record(keys=_mutate(kg.store, round_no))
            infos.append(publisher.publish())
            # Compaction runs off the publish path; drain it so each
            # round observes a settled chain.
            assert publisher.join_compaction(timeout=30.0)
        # The third publish crossed the threshold and scheduled the fold.
        assert infos[2].compacted
        assert not infos[3].compacted
        assert publisher.chain_length == 1
        chain = read_chain(tmp_path / "bundle")
        assert chain["compactions"] == 1
        assert chain["base"].startswith("bases/")
        _assert_full_parity(kg.store, tmp_path / "bundle")

    def test_stale_delta_manifest_silently_rebuilds(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        info = publisher.publish()
        manifest_path = info.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["store_version"] = manifest["store_version"] - 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        snapshot = load_snapshot(bundle)
        # Physical overlays dropped, logical replay intact: consumers
        # rebuild from the store, the adopt-or-rebuild contract.
        assert snapshot.adjacency is None
        assert snapshot.context is None
        assert snapshot.alias is None
        assert {f.key for f in snapshot.store.scan()} == {f.key for f in store.scan()}
        engine = snapshot.engine()
        rebuilt = engine.snapshot()
        assert rebuilt.built_version == store.version

    def test_corrupt_delta_array_raises(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        info = publisher.publish()
        target = info.directory / "changed_nodes.npy"
        target.write_bytes(target.read_bytes()[:-4] + b"\xff\xff\xff\xff")
        with pytest.raises(StoreError):
            load_snapshot(bundle)

    def test_broken_chain_linkage_raises(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        publisher.publish()
        chain_path = bundle / CHAIN_NAME
        chain = json.loads(chain_path.read_text(encoding="utf-8"))
        chain["deltas"][0]["parent_version"] += 5
        chain_path.write_text(json.dumps(chain), encoding="utf-8")
        with pytest.raises(StoreError, match="linkage"):
            load_snapshot(bundle)

    def test_chain_referencing_missing_delta_raises(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        info = publisher.publish()
        import shutil

        shutil.rmtree(info.directory)
        with pytest.raises(StoreError, match="missing delta"):
            load_snapshot(bundle)

    def test_corrupt_chain_json_raises(self, world):
        _store, publisher, bundle = world
        (bundle / CHAIN_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="chain"):
            load_snapshot(bundle)


class TestCrashSafety:
    @pytest.mark.parametrize("site", [SITE_PUBLISH_DELTA, SITE_PUBLISH_CHAIN])
    def test_crash_mid_publish_never_serves_half_generation(self, world, site):
        store, publisher, bundle = world
        tip_before = publisher.tip_version
        publisher.record(keys=_mutate(store, 0))
        plan = FaultPlan(
            specs=[FaultSpec(site=site, kind="crash", at_calls=(1,))], seed=5
        )
        with armed(plan):
            with pytest.raises(InjectedCrash):
                publisher.publish()

        # Readers still load the previous generation, fully intact.
        assert published_version(bundle) == tip_before
        snapshot = load_snapshot(bundle)
        assert snapshot.manifest["store_version"] == tip_before
        assert snapshot.adjacency is not None

        # The pending set survived: a clean retry publishes everything.
        assert publisher.pending > 0
        info = publisher.publish()
        assert info is not None and info.store_version == store.version
        _assert_full_parity(store, bundle)


class TestBackgroundCompaction:
    def test_fold_stalled_mid_save_never_reads_the_live_store(
        self, tmp_path, monkeypatch
    ):
        """The owner mutates and publishes while the background fold is
        stalled inside its base save; the bundle still loads at the tip."""
        kg = generate_kg(SyntheticKGConfig(seed=11, scale=0.05))
        store, bundle = kg.store, tmp_path / "bundle"
        publisher = GenerationPublisher(
            store, bundle, compact_every=2, embeddings=False
        )
        entered, release = threading.Event(), threading.Event()
        save_store = persistence.save_store

        def stalling_save_store(*args, **kwargs):
            counts = save_store(*args, **kwargs)
            if threading.current_thread().name.startswith("compact-"):
                entered.set()
                assert release.wait(30.0)
            return counts

        monkeypatch.setattr(persistence, "save_store", stalling_save_store)
        for round_no in range(2):
            publisher.record(keys=_mutate(store, round_no))
            assert publisher.publish() is not None
        assert entered.wait(30.0), "the second publish schedules the fold"

        # The owner keeps growing its store while the fold is mid-save:
        # new facts and a new catalogued entity.  Recording takes the
        # publisher lock, so it waits on the fold like the publish does.
        fresh_entity = EntityRecord(
            entity=ids.entity_id("during_fold"),
            name="Added During Fold",
            types=("type:person",),
            popularity=0.5,
        )
        store.upsert_entity(fresh_entity)
        anchor = store.entity_ids()[0]
        link = entity_fact(
            fresh_entity.entity, RELATED, anchor, confidence=1.0,
            sources=("live",), updated_at=5.0,
        )
        store.add(link)
        keys = [*_mutate(store, 2), link.key]
        published = []

        def record_and_publish():
            publisher.record(keys=keys, entities=[fresh_entity.entity])
            published.append(publisher.publish())

        owner = threading.Thread(target=record_and_publish)
        owner.start()
        release.set()
        owner.join(30.0)
        assert not owner.is_alive()
        assert publisher.join_compaction(timeout=30.0)

        assert published and published[0] is not None
        assert published_version(bundle) == store.version
        chain = read_chain(bundle)
        assert chain["compactions"] == 1 and len(chain["deltas"]) == 1
        snapshot = _assert_full_parity(store, bundle)
        save_snapshot(store, tmp_path / "fresh", embeddings=False)
        fresh = load_snapshot(tmp_path / "fresh")
        assert {f.key: f for f in snapshot.store.scan()} == {
            f.key: f for f in fresh.store.scan()
        }
        assert snapshot.manifest["store_version"] == fresh.manifest["store_version"]

    def test_inline_compact_publishes_pending_changes_too(self, world):
        store, publisher, bundle = world
        publisher.record(keys=_mutate(store, 0))
        publisher.publish()
        publisher.record(keys=_mutate(store, 1))
        info = publisher.compact()
        assert info.compacted and info.store_version == store.version
        assert publisher.pending == 0 and publisher.chain_length == 0
        assert read_chain(bundle)["base_version"] == store.version
        _assert_full_parity(store, bundle)
