"""The grow-and-serve publisher, in a process of its own.

    python perfbench/publisher.py FD SEED BUNDLE

A :class:`GenerationPublisher` grows the bundle the gateway watches.  It
runs apart from the load generator so that its work (deltas, background
compactions) never delays a due request there.  The child is a plain
subprocess, not a ``multiprocessing`` one, whose spawn method would leave
a resource-tracker process behind.  The two talk over an inherited socket
(file descriptor ``FD``); the child exits when it is told to or when the
parent's end closes.  Publish times are ``perf_counter_ns`` readings,
which share one monotonic clock across processes on Linux.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.common import ids  # noqa: E402
from repro.kg.deltas import GenerationPublisher  # noqa: E402
from repro.kg.generator import SyntheticKGConfig, generate_kg  # noqa: E402
from repro.kg.persistence import save_snapshot  # noqa: E402
from repro.kg.triple import entity_fact  # noqa: E402

from perfbench import spec  # noqa: E402

RELATED = ids.predicate_id("related_to")


@dataclass(frozen=True)
class Publish:
    called_ns: int
    ms: float
    version: int
    facts: int
    delta_bytes: int


def _publish_one(store, publisher, entities, rng, facts_per_generation: int) -> Publish:
    # Mutating the store while a background compaction snapshots it
    # breaks the next chain load, so wait for the previous one first.
    publisher.join_compaction()
    for _ in range(facts_per_generation):
        subject, obj = rng.sample(entities, 2)
        fact = entity_fact(
            subject, RELATED, obj, confidence=0.9, sources=("source:perfbench",),
            updated_at=float(store.version),
        )
        store.add(fact)
        publisher.record(keys=[fact.key])
    called = time.perf_counter_ns()
    info = publisher.publish()
    ms = (time.perf_counter_ns() - called) / 1e6
    delta_bytes = sum(p.stat().st_size for p in info.directory.rglob("*") if p.is_file())
    return Publish(called, ms, info.store_version, facts_per_generation, delta_bytes)


def _serve(conn, seed: int, bundle: str) -> None:
    """Child loop: ``prime`` publishes until the chain is ``lead``
    generations short of a compaction; ``start`` publishes every interval
    until ``stop``; ``fresh`` saves the current store from scratch;
    ``exit`` ends."""
    settings = spec.WORKLOADS["grow-and-serve"]
    store = generate_kg(SyntheticKGConfig(seed=seed, scale=spec.WORLD_SCALE)).store
    publisher = GenerationPublisher(store, bundle)
    entities = sorted(store.entity_ids())
    rng = random.Random(f"perfbench:publish:{seed}")
    conn.send(("ready", publisher.tip_version))
    while True:
        command, argument = conn.recv()
        if command == "prime":
            publisher.join_compaction()
            while publisher.chain_length != publisher.compact_every - argument:
                _publish_one(store, publisher, entities, rng, settings["facts_per_generation"])
                publisher.join_compaction()
            conn.send(("primed", publisher.tip_version))
        elif command == "start":
            publishes = []
            while not conn.poll(settings["publish_interval_s"]):
                publishes.append(
                    _publish_one(store, publisher, entities, rng, settings["facts_per_generation"])
                )
            conn.recv()  # the stop
            publisher.join_compaction()
            conn.send(("stopped", publishes, publisher.tip_version))
        elif command == "fresh":
            save_snapshot(store, argument, embeddings=False)
            conn.send(("fresh", store.version))
        else:
            conn.send(("bye", None))
            return


class PublisherProcess:
    """Parent-side handle of the publishing child."""

    def __init__(self, seed: int, bundle: Path) -> None:
        ours, theirs = socket.socketpair()
        self._conn = Connection(os.dup(ours.fileno()))
        ours.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        try:
            self._process = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(theirs.fileno()), str(seed), str(bundle)],
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
            )
        except BaseException:
            self._conn.close()
            raise
        finally:
            theirs.close()
        try:
            self.tip_version = self._expect("ready")[0]
        except BaseException:
            self.close()
            raise

    def _expect(self, tag: str, timeout_s: float = 120.0):
        if not self._conn.poll(timeout_s):
            raise RuntimeError(f"publisher gave no {tag!r} within {timeout_s}s")
        reply = self._conn.recv()
        if reply[0] != tag:
            raise RuntimeError(f"publisher answered {reply!r}, expected {tag!r}")
        return reply[1:]

    def prime(self, lead: int) -> int:
        """Publish until a compaction is ``lead`` generations away; the tip."""
        self._conn.send(("prime", lead))
        self.tip_version = self._expect("primed")[0]
        return self.tip_version

    def start(self) -> None:
        self._conn.send(("start", None))

    def stop(self) -> list[Publish]:
        self._conn.send(("stop", None))
        publishes, self.tip_version = self._expect("stopped")
        return publishes

    def save_fresh(self, directory: Path) -> int:
        self._conn.send(("fresh", str(directory)))
        return self._expect("fresh")[0]

    def close(self) -> None:
        """Ask the child to exit, then wait for it; kill it if it hangs."""
        if self._process.poll() is None:
            try:
                self._conn.send(("exit", None))
                self._expect("bye", timeout_s=30.0)
            except (OSError, RuntimeError, EOFError):
                pass
        self._conn.close()
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()


if __name__ == "__main__":
    # Run the importable module's loop, so that pickled replies name
    # perfbench.publisher.Publish rather than __main__.Publish.
    from perfbench.publisher import _serve as serve

    try:
        serve(Connection(int(sys.argv[1])), int(sys.argv[2]), sys.argv[3])
    except EOFError:
        pass  # the parent went away
