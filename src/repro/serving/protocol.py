"""JSON wire codec for the serving protocol (schema-versioned envelopes).

One protocol for every knowledge service (the paper's §4 serving platform:
graph queries, entity linking, fact ranking/verification, similarity — all
behind one low-latency API).  Requests and responses travel as UTF-8 JSON:

Request envelope::

    {"protocol": 1, "type": "walk", "body": {"entities": [...], "seed": 7}}

Response envelope::

    {"protocol": 1, "type": "walk", "status": "ok", "store_version": 3,
     "timings": {"compute_ms": 1.9, "total_ms": 2.1}, "cached": false,
     "payload": [...]}

    {"protocol": 1, "type": "verify", "status": "error", "store_version": 3,
     "timings": {"total_ms": 0.4}, "cached": false,
     "error": {"code": "internal", "message": "entity not in vocabulary: X"}}

Contracts:

* **Schema-versioned decode** — ``protocol`` must match a supported
  version; anything else is rejected with ``unsupported_version`` *before*
  the body is interpreted, so an old server never misreads a newer
  client's fields (and vice versa).
* **Structured errors** — failures cross the wire as
  ``{"code", "message"}`` envelopes, never tracebacks; the in-process
  exception object stays on the server side of the codec.
* **Typed round-trips** — ``decode_response(encode_response(r))``
  reconstructs the payload's dataclasses (verdicts, ranked facts, search
  hits, entity links), so a client sees the same types an in-process
  facade call returns.  Floats survive exactly: JSON's ``repr``-based
  float serialisation is lossless for IEEE doubles.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.common import tracing
from repro.serving.requests import (
    ERROR_BAD_REQUEST,
    ERROR_UNSUPPORTED_TYPE,
    ERROR_UNSUPPORTED_VERSION,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    REQUESTS_BY_WIRE_TYPE,
    ErrorInfo,
    PersonalRecord,
    Request,
    Response,
    valid_tenant_id,
)

PROTOCOL_VERSION = 1
SUPPORTED_VERSIONS = (1,)


class ProtocolError(ValueError):
    """A malformed or unsupported wire message, with a stable error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    def to_error(self) -> ErrorInfo:
        return ErrorInfo(code=self.code, message=self.message)


# -- request codec -------------------------------------------------------------


def encode_request(
    request: Request,
    *,
    trace: "tracing.TraceContext | None" = None,
    tenant: str | None = None,
) -> bytes:
    """Serialise ``request`` into a protocol envelope (UTF-8 JSON bytes).

    ``trace`` embeds the caller's trace context as an optional ``trace``
    envelope field.  The field is additive: servers and clients that
    predate it ignore unknown top-level envelope keys, so traced and
    untraced peers interoperate freely.  ``tenant`` scopes the request to
    one tenant's overlay graph — additive the same way, but validated
    strictly on both ends: a tenant id changes which graph answers, so a
    malformed one must fail loudly rather than fall through to the shared
    graph.
    """
    wire_type = getattr(type(request), "wire_type", None)
    if wire_type not in REQUESTS_BY_WIRE_TYPE:
        raise ProtocolError(
            ERROR_UNSUPPORTED_TYPE,
            f"unknown request type: {type(request).__name__}",
        )
    envelope: dict[str, Any] = {
        "protocol": PROTOCOL_VERSION,
        "type": wire_type,
        "body": dataclasses.asdict(request),
    }
    if trace is not None:
        envelope["trace"] = trace.to_wire()
    if tenant is not None:
        if not valid_tenant_id(tenant):
            raise ProtocolError(ERROR_BAD_REQUEST, f"invalid tenant id: {tenant!r}")
        envelope["tenant"] = tenant
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def decode_request(data: bytes | str) -> Request:
    """Parse a request envelope; raises :class:`ProtocolError` on bad input."""
    request, _context, _tenant = decode_request_envelope(data)
    return request


def decode_request_envelope(
    data: bytes | str,
) -> "tuple[Request, tracing.TraceContext | None, str | None]":
    """Full envelope decode: ``(request, trace_context, tenant)``.

    A missing or malformed ``trace`` field yields ``None`` — trace
    context is advisory and must never fail the request carrying it.
    Unlike trace context, a *present but malformed* ``tenant`` field is a
    hard ``bad_request``: routing a tenant-scoped request to the shared
    graph (or to a path-traversal directory name) on a typo would be an
    isolation failure, not a degraded nicety.
    """
    envelope = _parse_envelope(data)
    context = tracing.TraceContext.from_wire(envelope.get("trace"))
    tenant = envelope.get("tenant")
    if tenant is not None and not valid_tenant_id(tenant):
        raise ProtocolError(ERROR_BAD_REQUEST, f"invalid tenant id: {tenant!r}")
    wire_type = envelope.get("type")
    # The isinstance gate runs before the dict probe: a non-string (and
    # possibly unhashable) type field must reject cleanly, not TypeError.
    if not isinstance(wire_type, str) or wire_type not in REQUESTS_BY_WIRE_TYPE:
        raise ProtocolError(
            ERROR_UNSUPPORTED_TYPE, f"unknown request type: {wire_type!r}"
        )
    request_cls = REQUESTS_BY_WIRE_TYPE[wire_type]
    body = envelope.get("body")
    if not isinstance(body, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "request body must be an object")
    known = {field.name for field in dataclasses.fields(request_cls)}
    unknown = set(body) - known
    if unknown:
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"unknown field(s) for {wire_type!r} request: {sorted(unknown)}",
        )
    try:
        return request_cls(**_coerce_body(body)), context, tenant
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"invalid {wire_type!r} request: {exc}"
        ) from None


def _parse_envelope(data: bytes | str) -> dict:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(ERROR_BAD_REQUEST, f"not UTF-8: {exc}") from None
    try:
        envelope = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ProtocolError(ERROR_BAD_REQUEST, f"malformed JSON: {exc}") from None
    if not isinstance(envelope, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "envelope must be a JSON object")
    version = envelope.get("protocol")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            ERROR_UNSUPPORTED_VERSION,
            f"unsupported protocol version {version!r} "
            f"(supported: {list(SUPPORTED_VERSIONS)})",
        )
    return envelope


# Scalar request fields and the JSON type each must arrive as.  Decode
# validates these up front: a request built from unchecked network input
# would otherwise smuggle unhashable or mistyped values into the frozen
# dataclasses (cache keys!) and surface deep in the dispatch as a 500
# instead of a bad_request here.
_SCALAR_FIELDS: dict[str, type] = {
    "walk_length": int,
    "walks_per_entity": int,
    "seed": int,
    "hops": int,
    "k": int,
    "exclude_self": bool,
    "tier": str,
    "predicate": str,
    "source": str,
    "record_id": str,
    "sequence": int,
}


def _coerce_body(body: dict) -> dict:
    """JSON arrays back to the tuples the frozen dataclasses expect."""
    coerced = dict(body)
    for name in ("entities", "texts"):
        if name in coerced:
            coerced[name] = tuple(_require_strings(coerced[name], name))
    if "candidates" in coerced:
        coerced["candidates"] = tuple(
            _fixed_str_tuple(item, 3, "candidates") for item in _require_list(coerced["candidates"], "candidates")
        )
    if "pairs" in coerced:
        coerced["pairs"] = tuple(
            _fixed_str_tuple(item, 2, "pairs") for item in _require_list(coerced["pairs"], "pairs")
        )
    if "records" in coerced:
        coerced["records"] = tuple(
            _personal_record(item)
            for item in _require_list(coerced["records"], "records")
        )
    if "tombstones" in coerced:
        coerced["tombstones"] = tuple(
            _tombstone_item(item)
            for item in _require_list(coerced["tombstones"], "tombstones")
        )
    if "epsilon" in coerced:
        value = coerced["epsilon"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"epsilon must be a number, got {type(value).__name__}",
            )
        coerced["epsilon"] = float(value)
    for name, expected in _SCALAR_FIELDS.items():
        if name not in coerced:
            continue
        value = coerced[name]
        # bool is an int subclass; an int field must still reject true/false.
        if not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"{name} must be {expected.__name__}, got {type(value).__name__}",
            )
    return coerced


def _require_list(value: Any, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(ERROR_BAD_REQUEST, f"{name} must be an array")
    return list(value)


def _require_strings(value: Any, name: str) -> list[str]:
    items = _require_list(value, name)
    for item in items:
        if not isinstance(item, str):
            raise ProtocolError(ERROR_BAD_REQUEST, f"{name} must contain strings")
    return items


def _fixed_str_tuple(value: Any, size: int, name: str) -> tuple[str, ...]:
    items = _require_strings(value, name)
    if len(items) != size:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"each {name} item must have {size} elements"
        )
    return tuple(items)


def _personal_record(item: Any) -> PersonalRecord:
    """One wire record object back into a hashable :class:`PersonalRecord`.

    Field pairs arrive as ``[key, value]`` arrays (JSON has no tuples) and
    both sides must be strings — anything richer belongs in the on-device
    pipeline, not the wire format.
    """
    if not isinstance(item, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "each record must be an object")
    record_id = item.get("record_id")
    source = item.get("source")
    if not isinstance(record_id, str) or not isinstance(source, str):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "record record_id and source must be strings"
        )
    sequence = item.get("sequence", 0)
    if isinstance(sequence, bool) or not isinstance(sequence, int):
        raise ProtocolError(ERROR_BAD_REQUEST, "record sequence must be int")
    fields = tuple(
        _fixed_str_tuple(pair, 2, "record fields")
        for pair in _require_list(item.get("fields", []), "record fields")
    )
    return PersonalRecord(
        record_id=record_id, source=source, fields=fields, sequence=sequence
    )


def _tombstone_item(item: Any) -> tuple[str, str, int]:
    """A ``[source, record_id, sequence]`` tombstone triple."""
    items = _require_list(item, "tombstones")
    if len(items) != 3:
        raise ProtocolError(
            ERROR_BAD_REQUEST, "each tombstones item must have 3 elements"
        )
    source, record_id, sequence = items
    if not isinstance(source, str) or not isinstance(record_id, str):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "tombstone source and record_id must be strings"
        )
    if isinstance(sequence, bool) or not isinstance(sequence, int):
        raise ProtocolError(ERROR_BAD_REQUEST, "tombstone sequence must be int")
    return (source, record_id, sequence)


# -- payload codec -------------------------------------------------------------
#
# Payloads stay native Python dataclasses in-process; these converters map
# them to/from JSON-native structures at the wire boundary.  from_wire is
# the exact inverse of to_wire for every type, so a response round-trips
# to equal payloads (annotation links drop their server-side candidate
# lists — a deliberate wire reduction, see ``_link_to_wire``).


def payload_to_wire(wire_type: str, payload: Any) -> Any:
    # Degraded partial payloads hole out failed entities with None; the
    # holes travel verbatim (JSON null) in every typed payload.
    if payload is None:
        return None
    if wire_type == "related":
        return [
            None if hits is None else [[entity, score] for entity, score in hits]
            for hits in payload
        ]
    if wire_type == "annotate":
        return [
            None if links is None else [_link_to_wire(link) for link in links]
            for links in payload
        ]
    if wire_type == "fact_rank":
        return [
            None if ranked is None else [dataclasses.asdict(fact) for fact in ranked]
            for ranked in payload
        ]
    if wire_type == "verify":
        return [
            None if verdict is None else dataclasses.asdict(verdict)
            for verdict in payload
        ]
    if wire_type == "knn":
        return [
            None if hits is None else [dataclasses.asdict(hit) for hit in hits]
            for hits in payload
        ]
    # walk / neighborhood / similarity payloads are JSON-native already.
    return payload


def payload_from_wire(wire_type: str, wire: Any) -> Any:
    if wire is None:
        return None
    try:
        if wire_type == "related":
            return [
                None
                if hits is None
                else [(str(entity), float(score)) for entity, score in hits]
                for hits in wire
            ]
        if wire_type == "annotate":
            return [
                None if links is None else [_link_from_wire(item) for item in links]
                for links in wire
            ]
        if wire_type == "fact_rank":
            from repro.services.fact_ranking import RankedFact

            return [
                None if ranked is None else [RankedFact(**fact) for fact in ranked]
                for ranked in wire
            ]
        if wire_type == "verify":
            from repro.services.fact_verification import Verdict

            return [
                None if verdict is None else Verdict(**verdict) for verdict in wire
            ]
        if wire_type == "knn":
            from repro.vector.index import SearchHit

            return [
                None if hits is None else [SearchHit(**hit) for hit in hits]
                for hits in wire
            ]
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"malformed {wire_type!r} payload: {exc}"
        ) from None
    return wire


def _link_to_wire(link) -> dict:
    # EntityLink.to_dict(): start/end/surface/entity/score/entity_type.
    # Candidate feature lists are server-side detail and stay off the wire.
    return link.to_dict()


def _link_from_wire(item: dict):
    from repro.annotation.mention import EntityLink, Mention

    if not isinstance(item, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "annotation link must be an object")
    try:
        return EntityLink(
            mention=Mention(
                start=int(item["start"]),
                end=int(item["end"]),
                surface=str(item["surface"]),
            ),
            entity=str(item["entity"]),
            score=float(item["score"]),
            entity_type=str(item.get("entity_type", "OTHER")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"malformed annotation link: {exc}"
        ) from None


# -- response codec ------------------------------------------------------------


def encode_response(response: Response) -> bytes:
    """Serialise a response envelope (UTF-8 JSON bytes).

    The in-process ``exception`` field never crosses the wire — clients
    see only the structured error envelope.
    """
    envelope: dict[str, Any] = {
        "protocol": PROTOCOL_VERSION,
        "type": response.request_type,
        "status": response.status,
        "store_version": response.store_version,
        "timings": response.timings,
        "cached": response.cached,
    }
    if response.resilience:
        envelope["resilience"] = response.resilience
    # Only traced responses carry the id: untraced wire bytes stay
    # identical to pre-tracing builds (the byte-parity contract).
    if response.trace_id:
        envelope["trace_id"] = response.trace_id
    # Degraded envelopes carry BOTH: the usable (partial/stale) payload
    # and the structured error explaining what degraded.
    if response.status in (STATUS_OK, STATUS_DEGRADED):
        envelope["payload"] = payload_to_wire(response.request_type, response.payload)
    if response.status != STATUS_OK:
        error = response.error or ErrorInfo("internal", "request failed")
        envelope["error"] = {
            "code": error.code,
            "message": error.message,
            "retryable": error.retryable,
            "exception_type": error.exception_type,
        }
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def decode_response(data: bytes | str) -> Response:
    """Parse a response envelope into a :class:`Response`."""
    envelope = _parse_envelope(data)
    wire_type = envelope.get("type")
    if not isinstance(wire_type, str):
        raise ProtocolError(ERROR_BAD_REQUEST, "response envelope missing type")
    status = envelope.get("status")
    if status not in (STATUS_OK, STATUS_DEGRADED, STATUS_ERROR):
        raise ProtocolError(ERROR_BAD_REQUEST, f"unknown response status: {status!r}")
    timings = envelope.get("timings") or {}
    if not isinstance(timings, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "timings must be an object")
    resilience = envelope.get("resilience") or {}
    if not isinstance(resilience, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "resilience must be an object")
    error = None
    payload = None
    if status != STATUS_OK:
        raw = envelope.get("error")
        if not isinstance(raw, dict) or "code" not in raw:
            raise ProtocolError(ERROR_BAD_REQUEST, "error envelope missing code")
        error = ErrorInfo(
            code=str(raw["code"]),
            message=str(raw.get("message", "")),
            retryable=bool(raw.get("retryable", False)),
            exception_type=str(raw.get("exception_type", "")),
        )
    if status != STATUS_ERROR:
        payload = payload_from_wire(wire_type, envelope.get("payload"))
    try:
        store_version = int(envelope.get("store_version", 0))
        timings = {str(k): float(v) for k, v in timings.items()}
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"malformed response envelope: {exc}"
        ) from None
    return Response(
        request_type=wire_type,
        status=status,
        store_version=store_version,
        payload=payload,
        timings=timings,
        cached=bool(envelope.get("cached", False)),
        error=error,
        resilience={str(k): v for k, v in resilience.items()},
        trace_id=str(envelope.get("trace_id", "")),
    )


def error_response(
    wire_type: str,
    store_version: int,
    code: str,
    message: str,
    *,
    timings: dict[str, float] | None = None,
    exception: BaseException | None = None,
) -> Response:
    """An error envelope (the one shape every failure path produces).

    When the originating ``exception`` is attached, the error carries its
    retryability class and exception type onto the wire — clients decide
    whether a resubmit is worth it without parsing the message.
    """
    from repro.serving.resilience import error_fields

    retryable, exception_type = (
        error_fields(exception) if exception is not None else (False, "")
    )
    return Response(
        request_type=wire_type,
        status=STATUS_ERROR,
        store_version=store_version,
        timings=timings or {},
        error=ErrorInfo(
            code=code,
            message=message,
            retryable=retryable,
            exception_type=exception_type,
        ),
        exception=exception,
    )
