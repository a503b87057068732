"""Tests of the benchmark's own helpers: ``python -m pytest perfbench/tests``."""

import inspect
import itertools

import pytest

from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.serving.service import ServingService

from perfbench import spec, stats
from perfbench.streams import WorkloadStream, world_summary


@pytest.fixture(scope="module")
def world():
    return world_summary(generate_kg(SyntheticKGConfig(seed=3, scale=0.25)).store)


def stream_bytes(workload: str, seed: int, world, n: int = 300) -> list[bytes]:
    stream = WorkloadStream(workload, seed, world)
    ops = stream.probes + stream.warmup + list(itertools.islice(stream.ops(), n))
    return [op.body for op in ops]


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_same_seed_gives_byte_identical_stream(workload, world):
    assert stream_bytes(workload, 7, world) == stream_bytes(workload, 7, world)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_other_seed_gives_other_stream(workload, world):
    assert stream_bytes(workload, 7, world) != stream_bytes(workload, 8, world)


def test_cold_stream_never_repeats_a_request(world):
    bodies = [op.body for op in itertools.islice(WorkloadStream("serve-cold", 1, world).ops(), 2000)]
    assert len(set(bodies)) == len(bodies)


def test_hot_pool_fits_under_the_cache():
    capacity = inspect.signature(ServingService).parameters["cache_capacity"].default
    # The benchmark's own world, so the pool is built as in a run.
    world = world_summary(generate_kg(SyntheticKGConfig(seed=1, scale=spec.WORLD_SCALE)).store)
    stream = WorkloadStream("serve-hot", 1, world)
    bodies = {op.body for op in stream.pool}
    assert len(bodies) == len(stream.pool) == spec.WORKLOADS["serve-hot"]["pool_size"]
    assert len(bodies) + len(stream.probes) < capacity
    drawn = {op.body for op in itertools.islice(stream.ops(), 5000)}
    assert drawn <= bodies


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0], 99) == 5.0


@pytest.mark.parametrize(
    "n, expected",
    [(10_000, 99.9), (1_000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= spec.TAIL_SAMPLES


def test_self_time_on_a_hand_built_tree():
    spans = [
        {"id": 1, "parent": None, "start": 0, "end": 100},
        # Overlapping siblings: their union, not their sum, is covered.
        {"id": 2, "parent": 1, "start": 10, "end": 40},
        {"id": 3, "parent": 1, "start": 30, "end": 60},
        {"id": 4, "parent": 2, "start": 15, "end": 20},
        # A child running past its parent counts only inside it.
        {"id": 5, "parent": 1, "start": 90, "end": 120},
    ]
    assert stats.self_times(spans) == {1: 40, 2: 25, 3: 30, 4: 5, 5: 30}
