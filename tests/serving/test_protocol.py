"""Wire protocol: schema-versioned JSON round-trips and structured errors."""

import dataclasses
import json

import pytest

from repro.annotation.mention import EntityLink, Mention
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
)
from repro.serving.requests import (
    REQUEST_TYPES,
    AnnotateRequest,
    ErrorInfo,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    PersonalRecord,
    RelatedRequest,
    Response,
    ServingError,
    SimilarityRequest,
    TenantDeleteRequest,
    TenantSyncRequest,
    TenantUpsertRequest,
    TenantWrite,
    VerifyRequest,
    WalkRequest,
)
from repro.serving.worker import ENGINE_PAYLOADS
from repro.services.fact_ranking import RankedFact
from repro.services.fact_verification import Verdict
from repro.vector.index import SearchHit

EVERY_REQUEST = [
    WalkRequest(entities=("a", "b"), walk_length=5, walks_per_entity=2, seed=9),
    NeighborhoodRequest(entities=("a",), hops=2),
    RelatedRequest(entities=("a", "b", "c"), k=4),
    AnnotateRequest(texts=("one text", "two texts"), tier="lite"),
    FactRankRequest(entities=("lebron",), predicate="predicate:occupation"),
    VerifyRequest(candidates=(("s", "p", "o"), ("s2", "p2", "o2"))),
    SimilarityRequest(pairs=(("a", "b"), ("a", "c"))),
    KnnRequest(entities=("a",), k=7, exclude_self=False),
    TenantUpsertRequest(
        records=(
            PersonalRecord(
                record_id="c001",
                source="contacts",
                fields=(("first_name", "Anna"), ("last_name", "Smith")),
                sequence=2,
            ),
        )
    ),
    TenantSyncRequest(
        records=(
            PersonalRecord(record_id="m001", source="messages", sequence=1),
        ),
        tombstones=(("contacts", "c000", 3),),
        epsilon=2.5,
    ),
    TenantDeleteRequest(source="contacts", record_id="c001", sequence=4),
]


class TestRequestRoundTrip:
    @pytest.mark.parametrize("request_obj", EVERY_REQUEST, ids=lambda r: type(r).__name__)
    def test_bytes_round_trip(self, request_obj):
        data = encode_request(request_obj)
        decoded = decode_request(data)
        assert decoded == request_obj
        assert type(decoded) is type(request_obj)
        # Tuples (hashability — cache keys) survive the JSON array detour.
        assert hash(decoded) == hash(request_obj)

    def test_every_request_type_is_covered(self):
        assert {type(r) for r in EVERY_REQUEST} == set(REQUEST_TYPES)

    def test_defaults_fill_missing_optional_fields(self):
        envelope = {"protocol": 1, "type": "walk", "body": {"entities": ["x"]}}
        decoded = decode_request(json.dumps(envelope))
        assert decoded == WalkRequest(entities=("x",))


class TestRequestRejection:
    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"{not json at all")
        assert excinfo.value.code == "bad_request"

    def test_non_utf8_bytes(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"\xff\xfe\x00")
        assert excinfo.value.code == "bad_request"

    def test_non_object_envelope(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"[1, 2, 3]")
        assert excinfo.value.code == "bad_request"

    def test_unknown_schema_version(self):
        envelope = {"protocol": 99, "type": "walk", "body": {"entities": []}}
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(envelope))
        assert excinfo.value.code == "unsupported_version"

    def test_missing_version(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"type": "walk", "body": {}}))
        assert excinfo.value.code == "unsupported_version"

    def test_unknown_request_type(self):
        envelope = {"protocol": 1, "type": "teleport", "body": {}}
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(envelope))
        assert excinfo.value.code == "unsupported_type"

    def test_non_string_type_field(self):
        # An unhashable type value must reject cleanly, not TypeError.
        envelope = {"protocol": 1, "type": ["walk"], "body": {}}
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(envelope))
        assert excinfo.value.code == "unsupported_type"

    def test_unknown_field_rejected(self):
        envelope = {
            "protocol": 1,
            "type": "walk",
            "body": {"entities": ["x"], "warp_speed": 9},
        }
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(envelope))
        assert excinfo.value.code == "bad_request"
        assert "warp_speed" in excinfo.value.message

    def test_missing_required_field(self):
        envelope = {"protocol": 1, "type": "walk", "body": {}}
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(envelope))
        assert excinfo.value.code == "bad_request"

    def test_wrong_candidate_arity(self):
        envelope = {
            "protocol": 1,
            "type": "verify",
            "body": {"candidates": [["s", "p"]]},
        }
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(envelope))
        assert excinfo.value.code == "bad_request"

    def test_non_string_entities(self):
        envelope = {"protocol": 1, "type": "walk", "body": {"entities": [1, 2]}}
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(envelope))
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize(
        "wire_type,field,value",
        [
            ("walk", "seed", [1]),  # unhashable — would break cache keying
            ("walk", "walk_length", "8"),
            ("walk", "walks_per_entity", 2.5),
            ("neighborhood", "hops", True),  # bool is not an int here
            ("knn", "k", {"n": 3}),
            ("knn", "exclude_self", "yes"),
            ("annotate", "tier", 3),
            ("fact_rank", "predicate", ["p"]),
        ],
    )
    def test_mistyped_scalar_fields_rejected(self, wire_type, field, value):
        body = {field: value}
        if wire_type in ("walk", "neighborhood", "knn", "fact_rank"):
            body.setdefault("entities", ["x"])
        if wire_type == "annotate":
            body.setdefault("texts", ["t"])
        envelope = {"protocol": 1, "type": wire_type, "body": body}
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(envelope))
        assert excinfo.value.code == "bad_request"
        assert field in excinfo.value.message


def ok_response(wire_type: str, payload) -> Response:
    return Response(
        request_type=wire_type,
        status="ok",
        store_version=3,
        payload=payload,
        timings={"compute_ms": 1.25, "total_ms": 1.5},
    )


EVERY_RESPONSE = [
    ok_response("walk", [[["a", "b", "c"]], [["b", "a"]]]),
    ok_response("neighborhood", [["a", "b"], []]),
    ok_response("related", [[("x", 0.123456789012345), ("y", -1.5)]]),
    ok_response(
        "annotate",
        [
            [
                EntityLink(
                    mention=Mention(start=0, end=5, surface="Alice"),
                    entity="entity:person/1",
                    score=0.875,
                    entity_type="PERSON",
                )
            ],
            [],
        ],
    ),
    ok_response(
        "fact_rank",
        [
            [
                RankedFact(
                    obj="basketball",
                    score=1.5,
                    model_score=0.5,
                    agreement=0.25,
                    popularity=0.75,
                    confidence=0.9,
                )
            ]
        ],
    ),
    ok_response(
        "verify",
        [
            Verdict(
                subject="s",
                predicate="p",
                obj="o",
                score=0.333333333333333314,
                plausible=True,
                margin=0.1,
            )
        ],
    ),
    ok_response("similarity", [0.5, 0.0, -0.25]),
    ok_response("knn", [[SearchHit(key="a", score=0.75), SearchHit(key="b", score=0.5)]]),
    # Tenant payloads are JSON-native dicts by construction (the registry
    # produces them wire-shaped), so they ride the codec's fallback path.
    ok_response("tenant_upsert", {"applied": 2, "skipped": 1, "tenant_version": 7}),
    ok_response(
        "tenant_sync",
        {
            "records": [
                {
                    "record_id": "c001",
                    "source": "contacts",
                    "fields": [["first_name", "Anna"]],
                    "sequence": 2,
                }
            ],
            "tombstones": [["contacts", "c000", 3]],
            "people": [
                {
                    "entity": "entity:personal/person-0000",
                    "name": "Anna Smith",
                    "record_ids": ["c001"],
                }
            ],
            "tenant_version": 7,
            "dp_record_count": 1.25,
        },
    ),
    ok_response("tenant_delete", {"deleted": True, "tenant_version": 8}),
]

class TestResponseRoundTrip:
    @pytest.mark.parametrize("response", EVERY_RESPONSE, ids=lambda r: r.request_type)
    def test_bytes_round_trip(self, response):
        decoded = decode_response(encode_response(response))
        assert decoded.status == "ok"
        assert decoded.request_type == response.request_type
        assert decoded.store_version == response.store_version
        assert decoded.timings == response.timings
        if response.request_type == "annotate":
            # Candidate lists are server-side detail and stay off the wire;
            # everything else on a link survives exactly.
            def signature(payload):
                return [
                    [
                        (
                            link.mention.start,
                            link.mention.end,
                            link.mention.surface,
                            link.entity,
                            link.score,
                            link.entity_type,
                        )
                        for link in links
                    ]
                    for links in payload
                ]

            assert signature(decoded.payload) == signature(response.payload)
        else:
            assert decoded.payload == response.payload
        # One envelope class for every family: request_type names it.
        assert type(decoded) is Response

    def test_every_wire_type_is_covered(self):
        assert {r.request_type for r in EVERY_RESPONSE} == {
            cls.wire_type for cls in REQUEST_TYPES
        }

    def test_floats_survive_exactly(self):
        response = ok_response("similarity", [0.1 + 0.2, 1e-17, 123456.789012345678])
        decoded = decode_response(encode_response(response))
        assert decoded.payload == response.payload  # bitwise, not approx

    def test_encoding_is_deterministic(self):
        response = EVERY_RESPONSE[0]
        assert encode_response(response) == encode_response(response)

    @pytest.mark.parametrize("wire_type", ["related", "annotate", "fact_rank", "verify", "knn"])
    def test_degraded_payload_holes_round_trip(self, wire_type):
        """A partial answer's ``None`` holes (failed entities) survive the
        codec in every family whose payload items are typed."""
        items = next(r.payload for r in EVERY_RESPONSE if r.request_type == wire_type)
        payload = [None, *items, None]
        response = Response(
            request_type=wire_type,
            status="degraded",
            store_version=3,
            payload=payload,
            timings={"total_ms": 2.5},
            error=ErrorInfo("unavailable", "2 of 4 entities unavailable", True, "WorkerCrashError"),
            resilience={"attempts": 3.0, "failed_entities": 2.0},
        )
        decoded = decode_response(encode_response(response))
        assert decoded.status == "degraded"
        assert decoded.payload == payload
        assert decoded.error == response.error
        assert decoded.resilience == response.resilience


class TestErrorEnvelopes:
    def test_error_round_trip(self):
        original = error_response(
            "verify", 7, "internal", "EmbeddingError: entity not in vocabulary"
        )
        decoded = decode_response(encode_response(original))
        assert decoded.status == "error"
        assert decoded.error == ErrorInfo(
            "internal", "EmbeddingError: entity not in vocabulary"
        )
        assert decoded.payload is None

    def test_exception_never_crosses_the_wire(self):
        try:
            raise ValueError("secret internal state")
        except ValueError as exc:
            response = error_response("walk", 1, "internal", "boom", exception=exc)
        data = encode_response(response)
        assert b"secret internal state" not in data
        assert b"Traceback" not in data
        decoded = decode_response(data)
        assert decoded.exception is None

    def test_decoded_error_raises_serving_error(self):
        decoded = decode_response(
            encode_response(error_response("walk", 1, "overloaded", "queue full"))
        )
        with pytest.raises(ServingError) as excinfo:
            decoded.result()
        assert excinfo.value.code == "overloaded"

    def test_error_envelope_missing_code_rejected(self):
        envelope = {
            "protocol": PROTOCOL_VERSION,
            "type": "walk",
            "status": "error",
            "store_version": 1,
            "timings": {},
            "error": {"message": "no code"},
        }
        with pytest.raises(ProtocolError):
            decode_response(json.dumps(envelope))

    def test_unknown_status_rejected(self):
        envelope = {
            "protocol": PROTOCOL_VERSION,
            "type": "walk",
            "status": "maybe",
            "store_version": 1,
        }
        with pytest.raises(ProtocolError):
            decode_response(json.dumps(envelope))

    @pytest.mark.parametrize(
        "field, value",
        [("store_version", [1]), ("store_version", "x"), ("timings", {"t": [1]})],
    )
    def test_malformed_envelope_scalars_rejected(self, field, value):
        envelope = {
            "protocol": PROTOCOL_VERSION,
            "type": "walk",
            "status": "ok",
            "store_version": 1,
            "timings": {},
            "payload": [],
        }
        envelope[field] = value
        with pytest.raises(ProtocolError) as excinfo:
            decode_response(json.dumps(envelope))
        assert excinfo.value.code == "bad_request"

    def test_response_version_gate(self):
        envelope = {"protocol": 2, "type": "walk", "status": "ok", "store_version": 1}
        with pytest.raises(ProtocolError) as excinfo:
            decode_response(json.dumps(envelope))
        assert excinfo.value.code == "unsupported_version"


# One row per request family: the policy every layer reads off the class.
# (wire_type, splittable, cheap_to_recompute, tenant write, engine-servable)
FAMILY_POLICIES = {
    WalkRequest: ("walk", True, True, False, True),
    NeighborhoodRequest: ("neighborhood", True, True, False, True),
    RelatedRequest: ("related", True, False, False, False),
    AnnotateRequest: ("annotate", False, False, False, False),
    FactRankRequest: ("fact_rank", True, False, False, False),
    VerifyRequest: ("verify", False, False, False, False),
    SimilarityRequest: ("similarity", False, True, False, False),
    KnnRequest: ("knn", True, False, False, False),
    TenantUpsertRequest: ("tenant_upsert", False, False, True, False),
    TenantSyncRequest: ("tenant_sync", False, False, True, False),
    TenantDeleteRequest: ("tenant_delete", False, False, True, False),
}


class TestPolicyDeclarations:
    @pytest.mark.parametrize("request_obj", EVERY_REQUEST, ids=lambda r: r.wire_type)
    def test_family_policy_table(self, request_obj):
        cls = type(request_obj)
        wire_type, splittable, cheap, tenant_write, engine = FAMILY_POLICIES[cls]
        assert cls.wire_type == wire_type
        assert cls.splittable is splittable
        assert cls.cheap_to_recompute is cheap
        assert isinstance(request_obj, TenantWrite) is tenant_write
        assert (cls in ENGINE_PAYLOADS) is engine
        if cls is not AnnotateRequest:
            # Everything but annotation (see test_annotate_admission_policy)
            # has a fixed admission policy: tenant writes are never cached,
            # every read always is.
            assert request_obj.cacheable() is not tenant_write

    def test_wire_types_are_unique(self):
        tags = [cls.wire_type for cls in REQUEST_TYPES]
        assert len(tags) == len(set(tags))

    def test_annotate_admission_policy(self):
        assert AnnotateRequest(texts=("one",)).cacheable()
        assert not AnnotateRequest(texts=("one", "two")).cacheable()
        assert not AnnotateRequest(texts=()).cacheable()

    def test_all_requests_are_frozen_and_hashable(self):
        for request in EVERY_REQUEST:
            assert dataclasses.fields(request)
            with pytest.raises(dataclasses.FrozenInstanceError):
                request.__class__.__setattr__(request, "seed", 1)
            hash(request)
