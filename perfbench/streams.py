"""Seeded request streams: the only inputs the gateway receives.

A stream is a pure function of ``(workload, seed, world)``: the same seed
gives the same encoded request bytes in the same order.  Nothing here
talks to the gateway; the load generator sends what these produce.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.common import ids
from repro.serving.protocol import encode_request
from repro.serving.requests import (
    AnnotateRequest,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    PersonalRecord,
    RelatedRequest,
    SimilarityRequest,
    TenantDeleteRequest,
    TenantSyncRequest,
    TenantUpsertRequest,
    VerifyRequest,
    WalkRequest,
)

from perfbench import spec

READ_FAMILIES = (
    "walk",
    "neighborhood",
    "related",
    "annotate",
    "fact_rank",
    "verify",
    "similarity",
    "knn",
)
# grow-and-serve leaves out related entities and the embedding families
# (see spec.WORKLOADS).
GROW_READ_FAMILIES = ("walk", "neighborhood", "annotate")
WRITE_FAMILIES = ("tenant_upsert", "tenant_sync", "tenant_delete")

# The fused person that a tenant's first record (by record id) becomes.
PERSON = ids.entity_id("personal/person-0000")
CANARY_RECORD = "0-canary"

_TEMPLATES = (
    "{0} met {1} in {2}.",
    "{0} and {1} talked about {2}.",
    "Yesterday {0} wrote to {1}.",
    "{0} was seen with {1} and {2} last year.",
)


@dataclass(frozen=True)
class Op:
    """One request on the wire, with what the checks need to know of it."""

    family: str
    request: object
    tenant: str | None = None
    # A tenant's writes ride one lane, so they reach the gateway in order.
    lane: int | None = None
    body: bytes = field(default=b"", compare=False)

    @staticmethod
    def make(family: str, request, tenant: str | None = None) -> "Op":
        lane = tenant_lane(tenant) if family in WRITE_FAMILIES else None
        return Op(family, request, tenant, lane, encode_request(request, tenant=tenant))

    @property
    def write(self) -> bool:
        return self.family in WRITE_FAMILIES


def tenant_lane(tenant: str) -> int:
    digits = "".join(ch for ch in tenant if ch.isdigit())
    return int(digits or 0) % spec.LANES


@dataclass(frozen=True)
class World:
    """What the request streams need to know of the generated store."""

    entities: tuple[str, ...]
    # Entities on either end of an entity-valued fact: the embedding
    # families' vocabulary.
    linked: tuple[str, ...]
    names: tuple[str, ...]
    # predicate -> subjects holding an entity-valued fact of it.
    subjects_by_predicate: dict[str, tuple[str, ...]]
    triples: tuple[tuple[str, str, str], ...]


def world_summary(store) -> World:
    entities = tuple(sorted(store.entity_ids()))
    triples = sorted(
        (fact.subject, fact.predicate, fact.obj)
        for fact in store.scan()
        if ids.is_entity(fact.obj)
    )
    linked = sorted({s for s, _, _ in triples} | {o for _, _, o in triples})
    by_predicate: dict[str, set[str]] = {}
    for subject, predicate, _ in triples:
        by_predicate.setdefault(predicate, set()).add(subject)
    names = tuple(
        store.entity(entity).name for entity in entities if store.entity(entity).name
    )
    return World(
        entities=entities,
        linked=tuple(linked),
        names=names,
        subjects_by_predicate={p: tuple(sorted(s)) for p, s in sorted(by_predicate.items())},
        triples=tuple(triples),
    )


class Zipf:
    """Rank sampler with P(rank r) proportional to 1 / r**s."""

    def __init__(self, n: int, s: float) -> None:
        self._cumulative = list(itertools.accumulate(1.0 / (r**s) for r in range(1, n + 1)))

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, point), len(self._cumulative) - 1)


class _RequestMaker:
    """Random single requests of every family over one world."""

    def __init__(self, world: World, rng: random.Random) -> None:
        self.world = world
        self.rng = rng
        self.predicates = tuple(self.world.subjects_by_predicate)

    def text(self) -> str:
        names = self.rng.sample(self.world.names, 3)
        return self.rng.choice(_TEMPLATES).format(*names)

    def candidate(self) -> tuple[str, str, str]:
        subject, predicate, obj = self.rng.choice(self.world.triples)
        if self.rng.random() < 0.5:
            obj = self.rng.choice(self.world.linked)
        return subject, predicate, obj

    def request(self, family: str, n: int, *, hops: int, seed: int):
        rng, world = self.rng, self.world
        if family == "walk":
            return WalkRequest(entities=tuple(rng.sample(world.entities, n)), seed=seed)
        if family == "neighborhood":
            return NeighborhoodRequest(entities=tuple(rng.sample(world.entities, n)), hops=hops)
        if family == "related":
            return RelatedRequest(
                entities=tuple(rng.sample(world.linked, n)), k=rng.choice((5, 10, 20))
            )
        if family == "annotate":
            return AnnotateRequest(texts=tuple(self.text() for _ in range(n)))
        if family == "fact_rank":
            predicate = rng.choice(self.predicates)
            subjects = world.subjects_by_predicate[predicate]
            return FactRankRequest(
                entities=tuple(rng.sample(subjects, min(n, len(subjects)))), predicate=predicate
            )
        if family == "verify":
            return VerifyRequest(candidates=tuple(self.candidate() for _ in range(n)))
        if family == "similarity":
            return SimilarityRequest(
                pairs=tuple(tuple(rng.sample(world.linked, 2)) for _ in range(n))
            )
        if family == "knn":
            return KnnRequest(
                entities=tuple(rng.sample(world.linked, n)), k=rng.choice((5, 10, 20))
            )
        raise ValueError(f"unknown family {family!r}")


def _probe_ops(world: World, families: tuple[str, ...]) -> list[Op]:
    """One small request per family, on keys no stream draws (walk seeds
    and texts of their own), for the set-up readiness check."""
    maker = _RequestMaker(world, random.Random("perfbench:probe"))
    ops = []
    for family in families:
        request = maker.request(family, 1, hops=1, seed=-1)
        if family == "annotate":
            request = AnnotateRequest(texts=(f"{world.names[0]} is ready.",))
        ops.append(Op.make(family, request))
    return ops


class WorkloadStream:
    """The seeded inputs of one workload run.

    ``probes`` are sent once per gateway launch to time set-up, ``warmup``
    once before the timed window, and ``ops()`` yields the timed requests:
    the open-loop phase takes a fixed-length prefix and the closed-loop
    phase continues from the same generator.
    """

    def __init__(self, workload: str, seed: int, world: World) -> None:
        if workload not in spec.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.world = world
        self.settings = spec.WORKLOADS[workload]
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self._maker = _RequestMaker(world, self.rng)
        self.tenants: list[str] = []
        self.canaries: dict[str, str] = {}
        if workload == "serve-hot":
            self.pool = self._pool(READ_FAMILIES)
        elif workload == "grow-and-serve":
            self.pool = self._pool(GROW_READ_FAMILIES)
            self.tenants = [f"t{n:03d}" for n in range(self.settings["tenants"])]
            targets = self.rng.sample(world.entities, len(self.tenants))
            self.canaries = dict(zip(self.tenants, targets))
        else:
            self.pool = []
        self._ops = self._generate()

    # -- set-up and warm-up ------------------------------------------------

    @property
    def probes(self) -> list[Op]:
        if self.workload != "grow-and-serve":
            return _probe_ops(self.world, READ_FAMILIES)
        tenant = "probe"
        record = PersonalRecord(
            record_id="p-1", source="contacts", fields=(("first_name", "Probe"),), sequence=1
        )
        return _probe_ops(self.world, GROW_READ_FAMILIES) + [
            Op.make("tenant_upsert", TenantUpsertRequest(records=(record,)), tenant),
            Op.make("neighborhood", NeighborhoodRequest(entities=(PERSON,)), tenant),
            Op.make("walk", WalkRequest(entities=(PERSON,)), tenant),
            Op.make("tenant_sync", TenantSyncRequest(records=(record,)), tenant),
            Op.make("tenant_delete", TenantDeleteRequest(source="contacts", record_id="p-1", sequence=2), tenant),
        ]

    @property
    def warmup(self) -> list[Op]:
        """serve-hot: the whole pool (fills the cache); grow-and-serve:
        one canary record per tenant (onboarding)."""
        if self.workload == "serve-hot":
            return list(self.pool)
        if self.workload == "grow-and-serve":
            return [self.canary_upsert(tenant) for tenant in self.tenants]
        return []

    def canary_upsert(self, tenant: str) -> Op:
        record = PersonalRecord(
            record_id=CANARY_RECORD,
            source="contacts",
            fields=(
                ("first_name", f"Canary{tenant}"),
                ("last_name", "Holder"),
                ("linked_entity", self.canaries[tenant]),
            ),
            sequence=1,
        )
        return Op.make("tenant_upsert", TenantUpsertRequest(records=(record,)), tenant)

    def canary_read(self, tenant: str) -> Op:
        return Op.make("neighborhood", NeighborhoodRequest(entities=(PERSON,), hops=1), tenant)

    # -- the timed stream --------------------------------------------------

    def ops(self) -> Iterator[Op]:
        return self._ops

    def _generate(self) -> Iterator[Op]:
        if self.workload == "serve-hot":
            return self._hot()
        if self.workload == "serve-cold":
            return self._cold()
        return self._grow()

    def _pool(self, families: tuple[str, ...]) -> list[Op]:
        """``pool_size`` distinct single-entity (or single-text) requests,
        an equal share per family, in seeded order (the Zipf ranks)."""
        per_family = self.settings["pool_size"] // len(families)
        pool: dict[bytes, Op] = {}
        for family in families:
            made = 0
            while made < per_family:
                request = self._maker.request(family, 1, hops=1, seed=self.rng.randrange(4))
                op = Op.make(family, request)
                if op.body not in pool:
                    pool[op.body] = op
                    made += 1
        ordered = list(pool.values())
        self.rng.shuffle(ordered)
        return ordered

    def _hot(self) -> Iterator[Op]:
        zipf = Zipf(len(self.pool), self.settings["zipf_s"])
        while True:
            yield self.pool[zipf.draw(self.rng)]

    def _cold(self) -> Iterator[Op]:
        seen: set[bytes] = set()
        max_entities = self.settings["max_entities"]
        max_docs = self.settings["max_docs"]
        while True:
            family = self.rng.choice(READ_FAMILIES)
            if family == "annotate":
                # One text rides the micro-batcher, several chunk onto the pool.
                n = self.rng.randint(1, max_docs)
            else:
                n = self.rng.randint(1, max_entities)
            request = self._maker.request(
                family, n, hops=2, seed=self.rng.randrange(2**31)
            )
            op = Op.make(family, request)
            if op.body in seen:
                continue
            seen.add(op.body)
            yield op

    def _grow(self) -> Iterator[Op]:
        rng, settings = self.rng, self.settings
        shared = Zipf(len(self.pool), settings["zipf_s"])
        tenants = Zipf(len(self.tenants), settings["tenant_zipf_s"])
        written: dict[str, list[str]] = {tenant: [] for tenant in self.tenants}
        for counter in itertools.count():
            tenant = self.tenants[tenants.draw(rng)]
            if rng.random() < settings["write_share"]:
                yield self._tenant_write(tenant, counter, written[tenant])
            elif rng.random() < settings["tenant_read_share"]:
                if rng.random() < 0.5:
                    yield self.canary_read(tenant)
                else:
                    request = WalkRequest(entities=(PERSON,), seed=rng.randrange(4))
                    yield Op.make("walk", request, tenant)
            else:
                yield self.pool[shared.draw(rng)]

    def _tenant_write(self, tenant: str, counter: int, written: list[str]) -> Op:
        rng = self.rng
        choice = rng.random()
        if choice < 0.25 and written:
            record_id = written.pop(rng.randrange(len(written)))
            request = TenantDeleteRequest(source="contacts", record_id=record_id, sequence=2)
            return Op.make("tenant_delete", request, tenant)
        record = PersonalRecord(
            record_id=f"r{counter:06d}",
            source="contacts",
            fields=(
                ("first_name", f"Contact{counter}"),
                ("last_name", "Bench"),
                ("phone", f"+1-555-{counter % 10000:04d}"),
            ),
            sequence=1,
        )
        if choice < 0.5:
            device = PersonalRecord(
                record_id=f"d{counter:06d}",
                source="calendar",
                fields=(("first_name", f"Meeting{counter}"), ("last_name", "Sync")),
                sequence=1,
            )
            return Op.make("tenant_sync", TenantSyncRequest(records=(device,)), tenant)
        written.append(record.record_id)
        return Op.make("tenant_upsert", TenantUpsertRequest(records=(record,)), tenant)
