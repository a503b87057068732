"""Corpus-level micro-batching of annotation requests.

The ROADMAP's "document batching" item: ``encode_batch`` and
``rerank_batch`` don't care about document boundaries, so queued texts —
from different clients, different documents — coalesce into *one*
cross-document scoring pass (:meth:`AnnotationPipeline.annotate_batch`)
instead of one matmul per document.

The batcher is synchronous and thread-safe, with two flush triggers:

* **size** — the pending queue reaching ``max_batch`` flushes immediately;
* **time** — a submit arriving after the oldest pending text has waited
  ``max_delay_s`` flushes the backlog first (the arriving text starts the
  next batch), bounding staleness under continuous traffic.

There is no daemon thread: an idle tail is drained by :meth:`flush`,
which :meth:`annotate_many` calls at its sync point.  Each queued text
gets a :class:`~concurrent.futures.Future`; concurrent submitters whose
texts land in one batch share a single downstream call.

This is a library class, not a serving stage.  A synchronous
``serve()`` call must return its own answer, so it would flush right
after its submit and no flush would hold more than one text (measured:
400 concurrent single-text annotates through ``AsyncGateway`` gave 400
flushes).  :class:`~repro.serving.service.ServingService` therefore sends
single texts straight to the worker pool, and multi-text requests reach
``annotate_batch`` whole.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future

from repro.common import tracing
from repro.common.metrics import MetricsRegistry

# flush_fn: texts -> one result per text (order-aligned).
FlushFn = Callable[[list[str]], Sequence]


class MicroBatcher:
    """Coalesces queued texts into batched flush calls."""

    def __init__(
        self,
        flush_fn: FlushFn,
        *,
        max_batch: int = 16,
        max_delay_s: float = 0.005,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.flush_fn = flush_fn
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.clock = clock
        self.metrics = metrics or MetricsRegistry("micro-batcher")
        self._pending: list[tuple[str, Future]] = []
        self._oldest_enqueued_at: float | None = None
        self._lock = threading.RLock()

    def submit(self, text: str) -> Future:
        """Queue one text; the future resolves when its batch flushes.

        The downstream ``flush_fn`` runs *outside* the queue lock: a slow
        flush (e.g. an IPC round-trip to a process worker) must not block
        other submitters — that window is exactly where cross-client
        coalescing happens, and concurrent batches may flush in parallel
        across a multi-worker pool.
        """
        stale: list[tuple[str, Future]] | None = None
        filled: list[tuple[str, Future]] | None = None
        with self._lock:
            now = self.clock()
            if (
                self._pending
                and self._oldest_enqueued_at is not None
                and now - self._oldest_enqueued_at >= self.max_delay_s
            ):
                # Deadline passed: drain the backlog so no queued text
                # waits longer than max_delay_s plus one flush.
                self.metrics.incr("batcher.deadline_flushes")
                stale = self._take_locked()
            future: Future = Future()
            if not self._pending:
                self._oldest_enqueued_at = now
            self._pending.append((text, future))
            self.metrics.incr("batcher.submitted")
            if len(self._pending) >= self.max_batch:
                self.metrics.incr("batcher.size_flushes")
                filled = self._take_locked()
        if stale:
            self._run_flush(stale)
        if filled:
            self._run_flush(filled)
        return future

    def flush(self) -> int:
        """Flush whatever is pending; returns the number of texts flushed."""
        with self._lock:
            batch = self._take_locked()
        return self._run_flush(batch)

    def annotate_many(self, texts: Sequence[str]) -> list:
        """Submit ``texts``, drain the queue, return results in order.

        Full batches flush as they fill; the final partial batch flushes
        at the end — so ``len(texts)`` documents cost
        ``ceil(len / max_batch)`` downstream calls.
        """
        futures = [self.submit(text) for text in texts]
        self.flush()
        return [future.result() for future in futures]

    @property
    def pending(self) -> int:
        """Texts queued but not yet flushed."""
        return len(self._pending)

    def _take_locked(self) -> list[tuple[str, Future]]:
        """Claim the pending queue (caller must hold the lock)."""
        batch = self._pending
        self._pending = []
        self._oldest_enqueued_at = None
        return batch

    def _run_flush(self, batch: list[tuple[str, Future]]) -> int:
        """Score one claimed batch (no lock held) and resolve its futures."""
        if not batch:
            return 0
        texts = [text for text, _ in batch]
        # Mean batch size is derivable: batcher.submitted / batcher.flushes.
        # The bounded flush-latency histogram gives the per-stage number
        # the serving envelopes' compute_ms aggregates over: how long one
        # coalesced downstream scoring call takes.
        self.metrics.incr("batcher.flushes")
        started = time.perf_counter()
        with tracing.span("batcher.flush", texts=len(texts)):
            try:
                results = self.flush_fn(texts)
            except BaseException as exc:
                self.metrics.hist(
                    "batcher.flush_latency", time.perf_counter() - started
                )
                self._isolate_poisoned(batch, exc)
                return len(batch)
        self.metrics.hist("batcher.flush_latency", time.perf_counter() - started)
        if len(results) != len(batch):
            error = RuntimeError(
                f"flush_fn returned {len(results)} results for {len(batch)} texts"
            )
            for _, future in batch:
                future.set_exception(error)
            return len(batch)
        for (_, future), result in zip(batch, results):
            future.set_result(result)
        return len(batch)

    def _isolate_poisoned(
        self, batch: list[tuple[str, Future]], batch_exc: BaseException
    ) -> None:
        """Fail only the offending text(s) of a failed batch.

        One poisoned text must not take down the whole cross-document
        batch: each entry re-runs *individually*, so healthy texts still
        resolve and only the offender carries the exception.  A
        single-text batch skips the re-run (re-scoring it would fail
        identically — or worse, double-inject a transient fault's side
        effects into metrics).
        """
        if len(batch) == 1:
            batch[0][1].set_exception(batch_exc)
            return
        self.metrics.incr("batcher.batch_poisoned")
        for text, future in batch:
            try:
                results = self.flush_fn([text])
            except BaseException as exc:
                future.set_exception(exc)
                continue
            if len(results) != 1:
                future.set_exception(
                    RuntimeError(
                        f"flush_fn returned {len(results)} results for 1 text"
                    )
                )
                continue
            future.set_result(results[0])
