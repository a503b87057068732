"""Per-layer metrics of a traced pass, and the checks on its decomposition.

Per-request values are sums over the timed requests divided by their
count, so the layers' self times add up to the client's wall time:
``http.self_us`` is what the client waited beyond the server's spans.
"""

from __future__ import annotations

import json
import statistics

from perfbench import stats

# Span name -> the layer metric its self time counts toward.
SELF_METRIC = {
    "protocol.decode": "protocol.decode_us",
    "protocol.encode": "protocol.encode_us",
    "gateway.serve_async": "gateway.self_us",
    "service.serve": "service.self_us",
    "cache.get": "cache.get_us",
    "cache.put": "cache.get_us",
    "cache.adopt_version": "cache.get_us",
    "router.scatter": "router.scatter_us",
    "router.gather": "router.gather_us",
    "worker.submit": "worker.self_us",
    "worker.resolve": "worker.self_us",
    "worker.execute": "worker.self_us",
    "batcher.submit": "batcher.self_us",
    "batcher.flush": "batcher.self_us",
    "compute.walk": "compute.walk_us",
    "compute.neighborhood": "compute.neighborhood_us",
    "compute.related": "compute.related_us",
    "compute.annotate": "compute.annotate_us",
    "compute.rank": "compute.rank_us",
    "compute.verify": "compute.verify_us",
    "compute.similarity": "compute.similarity_us",
    "compute.knn": "compute.knn_us",
    "tenant.upsert": "tenant.self_us",
    "tenant.sync": "tenant.self_us",
    "tenant.delete": "tenant.self_us",
    "tenant.read": "tenant.self_us",
    "tenant.overlay": "tenant.self_us",
    "tenant.attach": "tenant.self_us",
    "tenant.close": "tenant.self_us",
}
ROOTS = ("protocol.decode", "gateway.serve_async", "protocol.encode")

# The decomposition must close within this share of the client wall time.
DECOMPOSITION_TOLERANCE = 0.01
# serve() spans enclose the envelope's total_ms measurement; per request
# they may exceed it by this much (metrics bookkeeping after the clock).
SERVE_EXCESS_US = 25.0
SERVE_EXCESS_SHARE = 0.02


def load_spans(path) -> tuple[list[dict], dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    keys = ("id", "name", "start", "end", "parent", "rid", "attrs")
    return [dict(zip(keys, row)) for row in data["spans"]], data["extra"]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(result, requests: list, spans: list[dict], extra: dict) -> tuple[dict, list]:
    """``(metrics, checks)`` for one traced pass; a check is ``(name, ok, detail)``.

    ``requests`` are the pass's timed samples; ``spans`` everything the
    traced server recorded.
    """
    lo, hi = result.window
    in_window = [s for s in spans if lo <= s["start"] <= hi]
    rids = {s["rid"] for s in in_window if s["name"] == "protocol.decode"}
    tree = [s for s in spans if s["rid"] in rids]
    n = len(rids)
    checks = [
        ("every timed request traced", n == len(requests), f"{n} of {len(requests)}")
    ]
    n = max(n, 1)

    selfs = stats.self_times(tree)
    metrics: dict[str, float] = {name: 0.0 for name in set(SELF_METRIC.values())}
    for span in tree:
        metrics[SELF_METRIC[span["name"]]] += selfs[span["id"]] / 1e3 / n
    root_us = sum(s["end"] - s["start"] for s in tree if s["name"] in ROOTS) / 1e3
    wall_us = sum(r.done_ns - r.send_ns for r in requests) / 1e3
    metrics["http.self_us"] = (wall_us - root_us) / n
    layers_us = sum(v for k, v in metrics.items() if k.endswith("_us")) * n
    checks += [
        (
            "server spans fit inside the client's wall time",
            root_us <= wall_us,
            f"{root_us:.0f} us of {wall_us:.0f} us",
        ),
        (
            f"layer self times sum to the client wall time within {DECOMPOSITION_TOLERANCE:.0%}",
            abs(layers_us - wall_us) <= DECOMPOSITION_TOLERANCE * wall_us,
            f"{layers_us:.0f} us vs {wall_us:.0f} us",
        ),
    ]

    serve_us = sum(s["end"] - s["start"] for s in tree if s["name"] == "service.serve") / 1e3
    envelope_us = 0.0
    for sample in requests:
        env = json.loads(sample.body) if sample.body else {}
        envelope_us += 1e3 * float((env.get("timings") or {}).get("total_ms", 0.0))
    excess = serve_us - envelope_us
    allowed = SERVE_EXCESS_US * n + SERVE_EXCESS_SHARE * envelope_us
    checks.append(
        (
            f"serve() spans match envelope total_ms (excess <= {SERVE_EXCESS_US:g} us/req "
            f"+ {SERVE_EXCESS_SHARE:.0%})",
            0.0 <= excess <= allowed,
            f"{serve_us:.0f} us vs {envelope_us:.0f} us",
        )
    )

    by_id = {s["id"]: s for s in tree}

    def named(name: str) -> list[dict]:
        return [s for s in tree if s["name"] == name]

    metrics["gateway.wait_us"] = sum(
        s["start"] - by_id[s["parent"]]["start"]
        for s in named("service.serve")
        if s["parent"] in by_id
    ) / 1e3 / n
    encodes = named("protocol.encode")
    metrics["protocol.resp_bytes"] = _mean(s["attrs"]["bytes"] for s in encodes)
    scatters = named("router.scatter")
    metrics["router.fanout"] = _mean(s["attrs"]["parts"] for s in scatters)
    metrics["worker.executes_per_req"] = len(named("worker.execute")) / n
    flushes = [s for s in named("batcher.flush") if s["attrs"]["docs"]]
    metrics["batcher.docs_per_flush"] = _mean(s["attrs"]["docs"] for s in flushes)
    metrics["batcher.wait_us"] = _mean(w / 1e3 for s in flushes for w in s["attrs"]["waits"])
    metrics["http.connects_per_req"] = result.connects / n

    # Background work (watcher thread, evictions) and per-call means.
    def window_named(name: str) -> list[dict]:
        return [s for s in in_window if s["name"] == name]

    def duration_ms(span: dict) -> float:
        return (span["end"] - span["start"]) / 1e6

    polls = [s for s in window_named("growth.poll") if not s["attrs"]["swapped"]]
    metrics["growth.poll_us"] = _mean(duration_ms(s) * 1e3 for s in polls)
    swaps = window_named("growth.swap")
    metrics["growth.swap_ms"] = _mean(duration_ms(s) for s in swaps)
    serves = sorted(named("service.serve"), key=lambda s: s["start"])
    first_reads = []
    for swap in swaps:
        after = next((s for s in serves if s["start"] >= swap["end"]), None)
        if after is not None:
            first_reads.append(duration_ms(after))
    metrics["growth.first_read_ms"] = _mean(first_reads)
    metrics["tenant.upsert_ms"] = _mean(
        duration_ms(s) for s in window_named("tenant.upsert") + window_named("tenant.sync")
    )
    attaches = window_named("tenant.attach")
    metrics["tenant.attach_ms"] = _mean(duration_ms(s) for s in attaches)
    metrics["tenant.attaches"] = float(len(attaches))
    metrics["tenant.overlay_ms"] = _mean(duration_ms(s) for s in window_named("tenant.overlay"))
    metrics["tenant.read_us"] = _mean(duration_ms(s) * 1e3 for s in window_named("tenant.read"))
    metrics["tenant.resident_bytes"] = float(extra.get("tenant_resident_bytes", 0))
    return metrics, checks
