"""Fixed settings of the benchmark: world, phases, rates and predictions.

Everything a later change is judged against lives here, so that two
commits measured with the same benchmark code are measured the same way.
The open-loop rates never adapt to the machine: a slower build shows up
as higher latency at the same offered load, not as a lower rate.
"""

from __future__ import annotations

# The world every workload serves: generate_kg(SyntheticKGConfig(seed,
# scale=WORLD_SCALE)) has ~1,360 entities and ~11.5k facts.  Eight
# families over them give far more distinct keys than the gateway's
# 2,048-entry query cache.  At scale 4.0 the related-entities backend
# alone takes 6-9 s per gateway launch (a dense SVD), which with
# SETUP_REPEATS launches per run does not fit the benchmark's time budget.
WORLD_SCALE = 2.0

# The load generator opens at most this many connections at once (one
# per lane) from a single thread.
LANES = 2

# Share of --seconds spent in the open-loop (fixed-rate) phase; the rest
# is the closed-loop phase, LANES clients each waiting for its reply.
OPEN_SHARE = 0.8

# The window alternates this many open-loop and closed-loop phases;
# read_p50_ms and read_throughput_rps are medians over the rounds.
ROUNDS = 4

# Gateway launches per run whose set-up time is measured; setup_s is
# their median.
SETUP_REPEATS = 3

# The highest percentile reported must have at least this many samples
# beyond it.
TAIL_SAMPLES = 10

WORKLOADS: dict[str, dict] = {
    "serve-hot": {
        "why": (
            "all 8 read families drawn Zipf from ~1,000 warm cached requests: "
            "transport, codec, admission and dispatch carry the time, compute "
            "almost none"
        ),
        "open_rate_rps": 200.0,
        "pool_size": 1000,
        "zipf_s": 1.1,
    },
    "serve-cold": {
        "why": (
            "all 8 read families, every request unique (key space >10x the cache): "
            "router, pool, batcher and compute carry the time, the cache is bypassed"
        ),
        "open_rate_rps": 105.0,
        "max_entities": 8,
        "max_docs": 8,
    },
    # Reads leave out related entities and the embedding families: after
    # every generation swap their backends rebuild in the request path
    # (related's dense SVD takes seconds), so they would time rebuilds.
    "grow-and-serve": {
        "why": (
            "walk/neighborhood/annotate reads, half tenant-scoped, beside tenant "
            "writes and a publisher whose generations the gateway hot-swaps"
        ),
        "open_rate_rps": 120.0,
        "write_share": 0.04,
        "tenant_read_share": 0.5,
        "pool_size": 300,
        "zipf_s": 1.1,
        # Tenants are drawn Zipf(2.0): one more tenant than fit resident,
        # so the rarest ones are evicted and re-attached now and then.
        "tenants": 9,
        "tenant_zipf_s": 2.0,
        "max_resident_tenants": 8,
        "watch_interval_s": 0.1,
        "publish_interval_s": 2.0,
        # Before the window the chain is grown to this many generations
        # short of the publisher's (default) compaction cadence.
        "compaction_lead": 3,
        "facts_per_generation": 20,
    },
}

# Which end-to-end metric, on which workload, an optimisation of each
# layer must move.  A workload not named for a layer is predicted not to
# move when only that layer changes.
PREDICTIONS: dict[str, list[str]] = {
    "loadgen": ["none: loadgen.late_p99_ms must stay far below read_p50_ms"],
    "http (serving.gateway.GatewayHTTPServer)": [
        "read_p50_ms@serve-hot",
        "read_throughput_rps@serve-hot",
    ],
    "codec (serving.protocol)": ["read_p50_ms@serve-hot"],
    "admission (serving.gateway.AsyncGateway)": ["read_p99_ms@serve-cold", "fail_frac@serve-cold"],
    "dispatch (serving.service)": ["read_p50_ms@serve-hot", "read_p50_ms@serve-cold"],
    "cache (serving.cache)": ["read_p50_ms@serve-hot", "read_p99_ms@grow-and-serve"],
    "router (serving.router)": ["read_p50_ms@serve-cold"],
    "pool (serving.worker)": ["read_p50_ms@serve-cold", "read_throughput_rps@serve-cold"],
    "batcher (serving.batcher)": ["read_p99_ms@serve-cold"],
    "compute (kg.graph_engine, services.*, annotation.pipeline, vector)": [
        "read_p50_ms@serve-cold",
        "read_throughput_rps@serve-cold",
    ],
    "bundle (kg.persistence)": ["none: reported so that work moved out of serving shows"],
    "publish (kg.deltas)": ["freshness_p50_ms@grow-and-serve"],
    "swap (serving.growth, ServingService.adopt_generation)": [
        "freshness_p50_ms@grow-and-serve",
        "read_p99_ms@grow-and-serve",
    ],
    "tenancy (serving.tenancy, kg.overlay)": [
        "write_p50_ms@grow-and-serve",
        "read_p99_ms@grow-and-serve",
        "server_rss_mb@grow-and-serve",
    ],
}
