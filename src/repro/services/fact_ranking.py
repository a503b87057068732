"""Fact ranking: importance-order the values of a multi-valued predicate.

Figure 2: for "What is the occupation of LeBron James?" the assistant must
answer "Basketball Player" before "TV Actor" before "Screenwriter".  The
ranker scores each existing fact ``(s, p, o_i)`` with a blend of signals:

* **embedding score** — the trained model's plausibility (z-normalised
  within the candidate set), the paper's primary signal;
* **neighborhood agreement** — a graph-engine feature: how much of ``s``'s
  neighborhood is shared with other subjects asserting the same value
  (LeBron shares teams/awards with other basketball players, not with
  screenwriters);
* **object popularity** and **fact confidence** — priors that break ties
  and demote low-confidence noise edges.

Weights are configurable; the benchmark ablates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings.inference import BatchInference
from repro.kg.graph_engine import GraphEngine
from repro.kg.store import TripleStore


@dataclass
class RankedFact:
    """One ranked value with its blended score and feature breakdown."""

    obj: str
    score: float
    model_score: float
    agreement: float
    popularity: float
    confidence: float


@dataclass
class FactRankerConfig:
    """Blend weights of the ranking features (need not sum to 1)."""

    weight_model: float = 1.0
    weight_agreement: float = 1.0
    weight_popularity: float = 0.25
    weight_confidence: float = 0.5
    agreement_sample: int = 8


class FactRanker:
    """Ranks the objects of ``(subject, predicate, ?)`` by importance."""

    def __init__(
        self,
        store: TripleStore,
        inference: BatchInference,
        config: FactRankerConfig | None = None,
    ) -> None:
        self.store = store
        self.engine = GraphEngine(store)
        self.inference = inference
        self.config = config or FactRankerConfig()

    def rank(self, subject: str, predicate: str) -> list[RankedFact]:
        """Importance-ranked values of ``(subject, predicate, ?)``.

        Returns an empty list when the subject has no such facts.
        """
        return self.rank_many([subject], predicate)[0]

    def rank_many(self, subjects: list[str], predicate: str) -> list[list[RankedFact]]:
        """Rankings for many subjects with one batched embedding pass.

        The serving layer's ``FactRankRequest`` hot path: every subject's
        candidate triples score in a single ``score_triples`` call instead
        of one model invocation per subject.  Z-normalisation stays
        *within* each subject's candidate set (scores are only comparable
        against their own alternatives), so per-subject output is
        identical to :meth:`rank`.

        Each subject's facts are taken in ``obj`` order: the store's index
        iterates a ``set``, whose order varies with ``PYTHONHASHSEED``, and
        the z-normalisation's float sums must not.
        """
        per_subject_facts = [
            sorted(
                self.store.scan(subject=subject, predicate=predicate),
                key=lambda fact: fact.obj,
            )
            for subject in subjects
        ]
        candidates = [
            (subject, predicate, fact.obj)
            for subject, facts in zip(subjects, per_subject_facts)
            for fact in facts
        ]
        scored = self.inference.score_triples(candidates)
        raw_scores: dict[tuple[str, str], float] = {
            (item.subject, item.obj): item.score for item in scored
        }
        return [
            self._rank_one(subject, predicate, facts, raw_scores)
            for subject, facts in zip(subjects, per_subject_facts)
        ]

    def _rank_one(
        self,
        subject: str,
        predicate: str,
        facts: list,
        raw_scores: dict[tuple[str, str], float],
    ) -> list[RankedFact]:
        if not facts:
            return []
        objects = [fact.obj for fact in facts]
        confidences = {fact.obj: fact.confidence for fact in facts}

        model_scores = self._normalize_scores(
            objects, [raw_scores.get((subject, obj), 0.0) for obj in objects]
        )
        agreements = {
            obj: self._neighborhood_agreement(subject, predicate, obj)
            for obj in objects
        }
        popularity = {
            obj: (self.store.entity(obj).popularity if self.store.has_entity(obj) else 0.0)
            for obj in objects
        }

        cfg = self.config
        ranked = [
            RankedFact(
                obj=obj,
                score=(
                    cfg.weight_model * model_scores[obj]
                    + cfg.weight_agreement * agreements[obj]
                    + cfg.weight_popularity * popularity[obj]
                    + cfg.weight_confidence * confidences[obj]
                ),
                model_score=model_scores[obj],
                agreement=agreements[obj],
                popularity=popularity[obj],
                confidence=confidences[obj],
            )
            for obj in objects
        ]
        ranked.sort(key=lambda item: (-item.score, item.obj))
        return ranked

    @staticmethod
    def _normalize_scores(
        objects: list[str], raw: list[float]
    ) -> dict[str, float]:
        """Embedding scores z-normalised within one candidate set."""
        values = np.array(raw, dtype=np.float64)
        if len(values) > 1 and values.std() > 0:
            values = (values - values.mean()) / values.std()
        else:
            values = np.zeros_like(values)
        return {obj: float(v) for obj, v in zip(objects, values)}

    def _neighborhood_agreement(self, subject: str, predicate: str, obj: str) -> float:
        """Overlap between ``subject``'s neighborhood and peers asserting
        the same (predicate, obj) value, in [0, 1]."""
        mine = self.store.neighbors(subject)
        if not mine:
            return 0.0
        peers = [
            peer for peer in self.store.subjects(predicate, obj) if peer != subject
        ]
        if not peers:
            return 0.0
        peers = peers[: self.config.agreement_sample]
        shared: set[str] = set()
        for peer in peers:
            shared |= self.store.neighbors(peer)
        shared.discard(subject)
        return len(mine & shared) / len(mine)


@dataclass
class FactRankingReport:
    """Quality of a ranker against generator ground truth."""

    precision_at_1: float
    ndcg: float
    num_subjects: int


def evaluate_fact_ranking(
    ranker: FactRanker,
    predicate: str,
    truth_order: dict[str, list[str]],
    min_values: int = 2,
) -> FactRankingReport:
    """Evaluate against known importance orders (primary value first).

    Only subjects with at least ``min_values`` ground-truth values are
    scored — ranking a single value is trivially correct.
    """
    hits = 0
    ndcgs: list[float] = []
    subjects = 0
    for subject, ordered_truth in sorted(truth_order.items()):
        if len(ordered_truth) < min_values:
            continue
        ranked = ranker.rank(subject, predicate)
        if not ranked:
            continue
        subjects += 1
        if ranked[0].obj == ordered_truth[0]:
            hits += 1
        ndcgs.append(_ndcg([item.obj for item in ranked], ordered_truth))
    return FactRankingReport(
        precision_at_1=hits / subjects if subjects else 0.0,
        ndcg=float(np.mean(ndcgs)) if ndcgs else 0.0,
        num_subjects=subjects,
    )


def _ndcg(ranking: list[str], truth_order: list[str]) -> float:
    """NDCG with graded relevance: truth position i gets gain len - i."""
    gains = {obj: len(truth_order) - i for i, obj in enumerate(truth_order)}
    dcg = sum(
        gains.get(obj, 0) / np.log2(position + 2)
        for position, obj in enumerate(ranking)
    )
    ideal = sum(
        gain / np.log2(position + 2)
        for position, gain in enumerate(sorted(gains.values(), reverse=True))
    )
    return float(dcg / ideal) if ideal > 0 else 0.0
