"""One benchmark run: inputs, gateway launches, timed phases and checks.

A *pass* is one gateway launch measured end to end: set-up, warm-up, then
``spec.ROUNDS`` rounds of an open-loop phase at the workload's fixed rate
followed by a closed-loop phase.
An untraced run makes one pass (after ``spec.SETUP_REPEATS - 1`` extra
launches that only time set-up).  A traced run makes an untraced pass and
then a traced one over the same inputs, so the tracing overhead is the
ratio of their read latencies.
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import save_snapshot
from repro.serving.protocol import encode_response
from repro.serving.service import ServingService

from perfbench import spec
from perfbench.loadgen import Gateway, Lanes, Sample
from perfbench.publisher import Publish, PublisherProcess
from perfbench.streams import WorkloadStream, world_summary

_STARTED = time.monotonic()

# Floats in a payload may differ from the reference's by this relative
# amount and still match; each such op is counted as float drift.
FLOAT_RTOL = 1e-9


def log(message: str) -> None:
    elapsed = time.monotonic() - _STARTED
    print(f"perfbench [{elapsed:6.1f}s]: {message}", file=sys.stderr, flush=True)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def close_floats(a, b) -> bool:
    """Structural equality with floats compared to ``FLOAT_RTOL``."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b), 1e-300)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close_floats(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close_floats(a[k], b[k]) for k in a)
    return a == b


@dataclass
class Pass:
    """What one gateway launch measured."""

    traced: bool
    setup_s: list[float] = field(default_factory=list)
    warm: list[Sample] = field(default_factory=list)
    open_rounds: list[list[Sample]] = field(default_factory=list)
    # Per round: (samples, phase start ns, phase end ns).
    closed_rounds: list[tuple[list[Sample], int, int]] = field(default_factory=list)
    window: tuple[int, int] = (0, 0)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    connects: int = 0
    publishes: list[Publish] = field(default_factory=list)
    compactions: int = 0
    spans_path: Path | None = None

    def stat_delta(self, key: str) -> float:
        return float(self.stats_after.get(key, 0.0)) - float(self.stats_before.get(key, 0.0))

    @property
    def open(self) -> list[Sample]:
        return [sample for samples in self.open_rounds for sample in samples]

    @property
    def closed(self) -> list[Sample]:
        return [sample for samples, _, _ in self.closed_rounds for sample in samples]

    @property
    def timed(self) -> list[Sample]:
        return self.open + self.closed


class Failures:
    """Every checked op, and the reasons the failed ones failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.reasons.append(reason)
        return ok

    @property
    def failed(self) -> int:
        return len(self.reasons)


def envelope(sample: Sample) -> dict | None:
    """The decoded response envelope, or ``None`` if the op failed on the wire."""
    if sample.error is not None or not sample.body:
        return None
    try:
        return json.loads(sample.body)
    except ValueError:
        return None


def ask(gateway: Gateway, op) -> Sample:
    """One untimed request, answered."""
    status, body = gateway.post(op.body)
    return Sample(op, 0, 0, status=status, body=body)


def answered_ok(sample: Sample) -> bool:
    env = envelope(sample)
    return sample.status == 200 and env is not None and env.get("status") == "ok"


def describe(sample: Sample) -> str:
    env = envelope(sample)
    if env is None:
        return f"{sample.op.family}: transport {sample.error or 'empty body'}"
    error = env.get("error") or {}
    return (
        f"{sample.op.family}: http {sample.status} {env.get('status')} "
        f"{error.get('code', '')} {error.get('message', '')[:160]}"
    )


class Run:
    """Inputs and gateway passes of one ``--workload --seed`` invocation."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.settings = spec.WORKLOADS[workload]
        self.grow = workload == "grow-and-serve"
        self.work = root / ".perfbench-run" / f"{workload}-{seed}-{time.time_ns()}"
        self.work.mkdir(parents=True)
        self.failures = Failures()
        self.float_drift = 0
        self.passes: list[Pass] = []
        self.publisher: PublisherProcess | None = None

    def close(self) -> None:
        if self.publisher is not None:
            self.publisher.close()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- inputs ------------------------------------------------------------

    def prepare(self) -> None:
        """The world, its bundle and the request stream (not timed as set-up)."""
        kg = generate_kg(SyntheticKGConfig(seed=self.seed, scale=spec.WORLD_SCALE))
        self.store = kg.store
        self.bundle = self.work / "bundle"
        started = time.perf_counter()
        save_snapshot(self.store, self.bundle, embeddings=not self.grow)
        self.bundle_save_s = time.perf_counter() - started
        self.world = world_summary(self.store)
        if self.grow:
            self.publisher = PublisherProcess(self.seed, self.bundle)
        open_s = self.seconds * spec.OPEN_SHARE
        self.open_count = round(self.settings["open_rate_rps"] * open_s / spec.ROUNDS) * spec.ROUNDS
        self.closed_s = self.seconds - open_s

    def stream(self) -> WorkloadStream:
        return WorkloadStream(self.workload, self.seed, self.world)

    # -- gateway launches --------------------------------------------------

    def gateway_argv(self, index: int, traced: bool) -> list[str]:
        if traced:
            argv = [str(self.root / "perfbench" / "server.py"), str(self.work / f"spans-{index}.json")]
        else:
            argv = ["-m", "repro.serving.gateway"]
        argv += [str(self.bundle), "--port", "0"]
        if self.grow:
            argv += [
                "--tenants-dir", str(self.work / f"tenants-{index}"),
                "--max-resident-tenants", str(self.settings["max_resident_tenants"]),
                "--watch-interval-s", str(self.settings["watch_interval_s"]),
            ]
        return argv

    def launch(self, index: int, traced: bool, stream: WorkloadStream) -> tuple[Gateway, float]:
        """Start a gateway; its set-up time ends when every probe answered ok."""
        gateway = Gateway(self.gateway_argv(index, traced), self.work / f"gateway-{index}.log", self.root)
        try:
            for op in stream.probes:
                sample = ask(gateway, op)
                self.failures.check(answered_ok(sample), f"set-up probe {describe(sample)}")
        except BaseException:
            gateway.stop()
            raise
        return gateway, (time.perf_counter_ns() - gateway.launched_ns) / 1e9

    # -- one pass ------------------------------------------------------------

    def run_pass(self, index: int, traced: bool, setup_repeats: int) -> Pass:
        result = Pass(traced=traced)
        stream = self.stream()
        log(f"pass {index}: {setup_repeats} gateway launch(es), traced={traced}")
        for repeat in range(setup_repeats):
            gateway, setup_s = self.launch(index * 10 + repeat, traced, stream)
            result.setup_s.append(setup_s)
            if repeat < setup_repeats - 1:
                gateway.stop()
        if traced:
            result.spans_path = self.work / f"spans-{index * 10 + setup_repeats - 1}.json"
        try:
            self._measure(gateway, stream, result)
        finally:
            gateway.stop()
        self.passes.append(result)
        return result

    def _measure(self, gateway: Gateway, stream: WorkloadStream, result: Pass) -> None:
        lanes = Lanes(gateway.port)
        log(f"set-up {result.setup_s}; warming up")
        result.warm = lanes.drain(stream.warmup)
        ops = stream.ops()
        open_ops = [next(ops) for _ in range(self.open_count)]
        closed_ops = (op for op in ops if not op.write) if self.grow else ops
        if self.publisher is not None:
            # The window then holds a background compaction at a fixed point.
            tip = self.publisher.prime(self.settings["compaction_lead"])
            self._await_version(gateway, stream.pool[0], tip)
        result.stats_before = gateway.get_json("/stats")
        cpu_before = gateway.cpu_s()
        connects_before = lanes.connects
        log("timed window")
        # The generator's own collector pauses would read as server latency.
        gc.collect()
        gc.freeze()
        gc.disable()
        bases_before = self._bases()
        if self.publisher is not None:
            self.publisher.start()
        window_start = time.perf_counter_ns()
        try:
            # Open- and closed-loop phases alternate in rounds, so both
            # sample the same stretches of machine weather.
            size = len(open_ops) // spec.ROUNDS
            for r in range(spec.ROUNDS):
                result.open_rounds.append(
                    lanes.open_loop(open_ops[r * size:(r + 1) * size], self.settings["open_rate_rps"])
                )
                result.closed_rounds.append(
                    lanes.closed_loop(closed_ops, self.closed_s / spec.ROUNDS)
                )
        finally:
            gc.enable()
            gc.unfreeze()
            if self.publisher is not None:
                result.publishes = self.publisher.stop()
        result.window = (window_start, time.perf_counter_ns())
        result.cpu_s = gateway.cpu_s() - cpu_before
        result.connects = lanes.connects - connects_before
        result.stats_after = gateway.get_json("/stats")
        result.rss_mb = gateway.peak_rss_mb()
        if self.grow:
            result.compactions = self._bases() - bases_before
            self._final_grow_checks(gateway, stream)

    def _bases(self) -> int:
        return len(list((self.bundle / "bases").glob("base-*")))

    # -- growth --------------------------------------------------------------

    def _final_grow_checks(self, gateway: Gateway, stream: WorkloadStream) -> None:
        """After growth stops: the last generation answers like a fresh
        build of the final store, and no tenant sees another's canary."""
        probes = stream.pool[:30]
        self._await_version(gateway, probes[0], self.publisher.tip_version)
        samples = [ask(gateway, op) for op in probes]
        fresh_dir = self.work / f"fresh-{len(self.passes)}"
        self.publisher.save_fresh(fresh_dir)
        with ServingService(fresh_dir) as fresh:
            for sample in samples:
                env = envelope(sample)
                expected = json.loads(encode_response(fresh.serve(sample.op.request)))
                same = (
                    answered_ok(sample)
                    and env["store_version"] == expected["store_version"]
                    and canonical(env.get("payload")) == canonical(expected.get("payload"))
                )
                self.failures.check(same, f"final generation != fresh build: {describe(sample)}")
        for tenant in stream.tenants:
            sample = ask(gateway, stream.canary_read(tenant))
            self.failures.check(
                answered_ok(sample) and self._canary_clean(stream, sample, require_own=True),
                f"canary sweep {tenant}: {describe(sample)}",
            )

    def _await_version(self, gateway: Gateway, op, version: int) -> None:
        """Wait until the gateway answers from generation ``version``."""
        deadline = time.monotonic() + 30
        while True:
            env = envelope(ask(gateway, op))
            if env is not None and env.get("store_version") == version:
                return
            if time.monotonic() > deadline:
                self.failures.check(False, f"gateway never adopted generation {version}")
                return
            time.sleep(0.02)

    @staticmethod
    def _canary_clean(stream: WorkloadStream, sample: Sample, require_own: bool) -> bool:
        nodes = set(envelope(sample)["payload"][0])
        tenant = sample.op.tenant
        foreign = {target for other, target in stream.canaries.items() if other != tenant}
        if nodes & foreign:
            return False
        return not require_own or stream.canaries[tenant] in nodes

    # -- correctness ---------------------------------------------------------

    def check_serve(self) -> None:
        """Every answer equals an in-process ServingService's over the bundle."""
        expected: dict[bytes, tuple[str, object]] = {}
        with ServingService(self.bundle) as reference:
            for result in self.passes:
                for sample in result.warm + result.timed:
                    body = sample.op.body
                    if body not in expected:
                        response = reference.serve(sample.op.request)
                        payload = json.loads(encode_response(response)).get("payload")
                        text = canonical(payload) if response.ok else "reference failed"
                        expected[body] = (text, payload)
                    if not answered_ok(sample):
                        self.failures.check(False, describe(sample))
                        continue
                    got = envelope(sample).get("payload")
                    text, payload = expected[body]
                    same = canonical(got) == text
                    if not same and close_floats(got, payload):
                        # Last-digit float differences between processes:
                        # counted and reported, not failed.
                        self.float_drift += 1
                        same = True
                    self.failures.check(same, f"mismatch {describe(sample)}")

    def check_grow(self) -> None:
        """Status, per-lane version order, write payloads and isolation."""
        for result in self.passes:
            for sample in result.warm:
                self.failures.check(answered_ok(sample), f"onboarding {describe(sample)}")
            last_version: dict[int, int] = {}
            tenant_version: dict[str, int] = {}
            stream = self.stream()
            for sample in sorted(result.timed, key=lambda s: s.send_ns):
                if not answered_ok(sample):
                    self.failures.check(False, describe(sample))
                    continue
                env = envelope(sample)
                version = env["store_version"]
                ok = version >= last_version.get(sample.lane, version)
                last_version[sample.lane] = version
                op = sample.op
                payload = env.get("payload")
                if op.write:
                    ok = ok and self._write_ok(op, payload, tenant_version)
                elif op.tenant is not None and op.family == "neighborhood":
                    ok = ok and self._canary_clean(stream, sample, require_own=False)
                self.failures.check(ok, f"grow check {describe(sample)} v{version}")

    @staticmethod
    def _write_ok(op, payload, tenant_version: dict[str, int]) -> bool:
        if op.family == "tenant_upsert":
            ok = payload.get("applied") == 1
        elif op.family == "tenant_delete":
            ok = payload.get("deleted") is True
        else:
            ok = "dp_record_count" in payload
        version = payload.get("tenant_version", -1)
        ok = ok and version > tenant_version.get(op.tenant, -1)
        tenant_version[op.tenant] = version
        return ok
