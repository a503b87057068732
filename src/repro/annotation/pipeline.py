"""The modular annotation pipeline: detect → candidates → rerank → type.

§3.2: the service is "(1) modular, allowing custom deployments for
different use-cases; for example, to balance the requirements for quality
(precision and recall) and performance (latency and throughput)".

:func:`make_pipeline` wires the standard tiers:

* ``full`` — context reranking (+ optional graph-embedding coherence),
* ``lite`` — prior + name similarity only (faster, for bulk passes),

and custom deployments can hand-assemble the stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.annotation.alias_table import AliasTable
from repro.annotation.candidates import CandidateGenerator, CandidateGeneratorConfig
from repro.annotation.context_encoder import EntityContextIndex, HashingContextEncoder
from repro.annotation.mention import AnnotatedDocument, Candidate, EntityLink, Mention
from repro.annotation.mention_detection import (
    DictionaryMentionDetector,
    MentionDetectorConfig,
)
from repro.annotation.ner import EntityTyper
from repro.annotation.reranker import ContextualReranker, RerankerConfig
from repro.common.metrics import MetricsRegistry
from repro.common.text import tokenize
from repro.kg.store import TripleStore
from repro.vector.service import EmbeddingService
from repro.web.document import WebDocument

FULL_TIER = "full"
LITE_TIER = "lite"


@dataclass
class AnnotationPipelineConfig:
    """Assembled pipeline configuration."""

    tier: str = FULL_TIER
    context_window_chars: int = 160
    detector: MentionDetectorConfig | None = None
    candidates: CandidateGeneratorConfig | None = None
    reranker: RerankerConfig | None = None


class AnnotationPipeline:
    """Annotates raw text or web documents with KG entity links."""

    def __init__(
        self,
        store: TripleStore,
        alias_table: AliasTable,
        detector: DictionaryMentionDetector,
        candidate_generator: CandidateGenerator,
        reranker: ContextualReranker,
        typer: EntityTyper,
        encoder: HashingContextEncoder | None = None,
        tier: str = FULL_TIER,
        context_window_chars: int = 160,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.alias_table = alias_table
        self.detector = detector
        self.candidate_generator = candidate_generator
        self.reranker = reranker
        self.typer = typer
        self.encoder = encoder
        self.tier = tier
        self.context_window_chars = context_window_chars
        self.metrics = metrics or MetricsRegistry("annotation")

    def annotate(self, text: str) -> list[EntityLink]:
        """Entity links for raw text (the query-annotation use case)."""
        with self.metrics.timed("annotate"):
            links = self._annotate_text(text)
        self.metrics.incr("texts")
        self.metrics.incr("links", len(links))
        return links

    def annotate_batch(self, texts: list[str]) -> list[list[EntityLink]]:
        """Entity links for many texts, scored in one cross-document batch.

        The corpus-level batching hook (a serving worker answers every
        annotate request through it, one call per request or chunk):
        mention detection and candidate generation stay per document, but
        *all* mention windows across the batch are hashed in a single
        :meth:`HashingContextEncoder.encode_batch` call and all (mention,
        candidate) pairs scored in one
        :meth:`ContextualReranker.rerank_batch` call — context similarity
        and coherence don't care about document boundaries.  The coherence
        second pass (when enabled) remains per document, because its
        evidence set is the document's own first-pass winners.

        Spans, chosen entities and candidate orders are identical to
        per-document :meth:`annotate` calls; full-tier scores agree to
        float64 rounding (one larger matmul vs several smaller ones).
        """
        with self.metrics.timed("annotate_batch"):
            results = self._annotate_texts(texts)
        self.metrics.incr("texts", len(texts))
        self.metrics.incr("batches")
        self.metrics.incr("links", sum(len(links) for links in results))
        return results

    def annotate_document(self, doc: WebDocument, annotated_at: float = 0.0) -> AnnotatedDocument:
        """Annotate a web document's title + body."""
        links = self.annotate(doc.full_text)
        # Offsets in full_text are shifted by the title + newline prefix;
        # keep only body links and rebase them onto doc.text offsets.
        prefix = len(doc.title) + 1
        body_links: list[EntityLink] = []
        for link in links:
            if link.mention.start >= prefix:
                rebased = Mention(
                    start=link.mention.start - prefix,
                    end=link.mention.end - prefix,
                    surface=link.mention.surface,
                )
                body_links.append(
                    EntityLink(
                        mention=rebased,
                        entity=link.entity,
                        score=link.score,
                        entity_type=link.entity_type,
                        candidates=link.candidates,
                    )
                )
        return AnnotatedDocument(
            doc_id=doc.doc_id,
            links=body_links,
            content_hash=doc.content_hash,
            annotated_at=annotated_at or time.time(),
            pipeline_tier=self.tier,
        )

    # -- internals ----------------------------------------------------------

    def _annotate_text(self, text: str) -> list[EntityLink]:
        if self.alias_table.is_stale:
            self.alias_table.refresh()
        mentions = self.detector.detect(text)
        self.metrics.incr("mentions", len(mentions))

        first_pass: list[tuple[Mention, list[Candidate]]] = []
        for mention in mentions:
            candidates = self.candidate_generator.generate(mention)
            if not candidates:
                self.metrics.incr("nil.no_candidates")
                continue
            first_pass.append((mention, candidates))
        if not first_pass:
            return []

        # All mention windows hashed into one query matrix, all (mention,
        # candidate) pairs scored in one batched rerank.
        query_matrix = None
        if self.encoder is not None:
            query_matrix = self.encoder.encode_batch(
                [self._window_tokens(text, mention) for mention, _ in first_pass]
            )
        candidate_lists = [candidates for _, candidates in first_pass]
        self.reranker.rerank_batch(candidate_lists, query_matrix=query_matrix)

        document_entities = [candidates[0].entity for candidates in candidate_lists]
        if self.reranker.config.use_coherence and len(document_entities) > 1:
            # Second pass: re-score with the coherence feature against the
            # first-pass winners.  No query matrix — the candidates already
            # carry their first-pass context similarities, which the batch
            # reranker reuses unchanged (only the coherence term moves).
            self.reranker.rerank_batch(
                candidate_lists, document_entities=document_entities
            )

        resolved: list[EntityLink] = []
        for mention, candidates in first_pass:
            best = candidates[0]
            if not self.reranker.accepts(best):
                self.metrics.incr("nil.below_threshold")
                continue
            resolved.append(
                EntityLink(
                    mention=mention,
                    entity=best.entity,
                    score=best.score,
                    entity_type=self.typer.label_for_entity(best.entity),
                    candidates=candidates,
                )
            )
        return resolved

    def _annotate_texts(self, texts: list[str]) -> list[list[EntityLink]]:
        if self.alias_table.is_stale:
            self.alias_table.refresh()
        # Corpus text repeats the same names constantly: candidate features
        # (alias lookups, n-gram Dice) are a pure function of the surface
        # form, so they are computed once per distinct surface across the
        # whole batch.  The memo is batch-scoped — the alias table cannot
        # move mid-batch, so no invalidation is needed.
        feature_memo: dict[str, tuple] = {}
        generator = self.candidate_generator
        docs: list[list[tuple[Mention, list[Candidate]]]] = []
        for text in texts:
            mentions = self.detector.detect(text)
            self.metrics.incr("mentions", len(mentions))
            first_pass: list[tuple[Mention, list[Candidate]]] = []
            for mention in mentions:
                features = feature_memo.get(mention.surface)
                if features is None:
                    features = feature_memo[mention.surface] = generator.features(
                        mention.surface
                    )
                if not features:
                    self.metrics.incr("nil.no_candidates")
                    continue
                first_pass.append((mention, generator.materialize(features)))
            docs.append(first_pass)

        # One encode + one rerank across every mention of every document.
        flat = [
            (doc_index, mention, candidates)
            for doc_index, first_pass in enumerate(docs)
            for mention, candidates in first_pass
        ]
        if flat:
            query_matrix = None
            if self.encoder is not None:
                query_matrix = self.encoder.encode_batch(
                    [
                        self._window_tokens(texts[doc_index], mention)
                        for doc_index, mention, _ in flat
                    ]
                )
            self.reranker.rerank_batch(
                [candidates for _, _, candidates in flat], query_matrix=query_matrix
            )
            if self.reranker.config.use_coherence:
                # Coherence scores a candidate against *its document's*
                # first-pass winners, so this pass groups by document.
                for first_pass in docs:
                    document_entities = [
                        candidates[0].entity for _, candidates in first_pass
                    ]
                    if len(document_entities) > 1:
                        self.reranker.rerank_batch(
                            [candidates for _, candidates in first_pass],
                            document_entities=document_entities,
                        )

        results: list[list[EntityLink]] = []
        for first_pass in docs:
            resolved: list[EntityLink] = []
            for mention, candidates in first_pass:
                best = candidates[0]
                if not self.reranker.accepts(best):
                    self.metrics.incr("nil.below_threshold")
                    continue
                resolved.append(
                    EntityLink(
                        mention=mention,
                        entity=best.entity,
                        score=best.score,
                        entity_type=self.typer.label_for_entity(best.entity),
                        candidates=candidates,
                    )
                )
            results.append(resolved)
        return results

    def _window_tokens(self, text: str, mention: Mention) -> list[str]:
        """Tokens of the text window around ``mention`` (mention excluded)."""
        radius = self.context_window_chars
        lo = max(0, mention.start - radius)
        hi = min(len(text), mention.end + radius)
        window = text[lo : mention.start] + " " + text[mention.end : hi]
        return tokenize(window)

    def _query_vector(self, text: str, mention: Mention):
        """Hashed embedding of the text window around ``mention``."""
        if self.encoder is None:
            return None
        return self.encoder.encode_tokens(self._window_tokens(text, mention))


def make_pipeline(
    store: TripleStore,
    tier: str = FULL_TIER,
    embedding_service: EmbeddingService | None = None,
    context_index: EntityContextIndex | None = None,
    alias_table: AliasTable | None = None,
    config: AnnotationPipelineConfig | None = None,
    metrics: MetricsRegistry | None = None,
) -> AnnotationPipeline:
    """Assemble a standard pipeline for ``tier`` over ``store``.

    ``full`` builds (or reuses) an :class:`EntityContextIndex` and enables
    context reranking; passing an ``embedding_service`` additionally
    enables the graph-embedding coherence feature.  ``lite`` uses priors
    and name similarity only.  A pre-built ``alias_table`` or
    ``context_index`` (e.g. adopted from a persisted snapshot) skips the
    corresponding cold-start rebuild.
    """
    config = config or AnnotationPipelineConfig(tier=tier)
    if alias_table is None:
        alias_table = AliasTable(store)
    elif alias_table.is_stale:
        alias_table.refresh()
    detector = DictionaryMentionDetector(alias_table, config.detector)
    candidate_generator = CandidateGenerator(alias_table, store, config.candidates)
    typer = EntityTyper(store)

    encoder: HashingContextEncoder | None = None
    if tier == FULL_TIER:
        if context_index is None:
            context_index = EntityContextIndex(store)
            context_index.build()
        elif context_index.is_stale:
            context_index.build()
        encoder = context_index.encoder
        reranker_config = config.reranker or RerankerConfig(
            use_context=True, use_coherence=embedding_service is not None
        )
    else:
        reranker_config = config.reranker or RerankerConfig(
            use_context=False, use_coherence=False, weight_context=0.0
        )
        context_index = None

    reranker = ContextualReranker(
        context_index=context_index,
        embedding_service=embedding_service,
        config=reranker_config,
    )
    return AnnotationPipeline(
        store=store,
        alias_table=alias_table,
        detector=detector,
        candidate_generator=candidate_generator,
        reranker=reranker,
        typer=typer,
        encoder=encoder,
        tier=tier,
        context_window_chars=config.context_window_chars,
        metrics=metrics,
    )
