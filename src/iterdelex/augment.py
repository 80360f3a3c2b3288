"""Placeholder-substituted training data generation.

Training a parser that must understand placeholder tokens requires seeing
them in context: each gold slot span is independently replaced by its
placeholder with probability ``substitution_prob``, collapsing the span's
labels to a single Begin tag on the placeholder. The replacement is
``Candidate.substitute``, the one the engine seeds with, and the labels are
read off the alignment it returns. Utterances where nothing was replaced
are dropped (they would duplicate the source corpus). The parser is then
trained on the original utterances followed by the substituted ones, which
keep their sources' intents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from iterdelex.corpus import Dataset, SlotLabel, Span, Utterance, bio_spans
from iterdelex.gazetteer import TokenTable
from iterdelex.seed import original_candidate


@dataclass(frozen=True)
class AugmentConfig:
    substitution_prob: float
    rng_seed: int
    token_table: TokenTable

    def __post_init__(self) -> None:
        if not 0.0 < self.substitution_prob < 1.0:
            raise ValueError(
                f"substitution probability must be in (0, 1), got {self.substitution_prob}"
            )


@dataclass(frozen=True)
class AugmentStats:
    total_spans: int
    replaced_spans: int

    @property
    def replaced_fraction(self) -> float:
        return self.replaced_spans / self.total_spans if self.total_spans else 0.0


def _substitute(utt: Utterance, spans: list[Span], token_table: TokenTable) -> Utterance:
    """``utt`` with each gold span of ``spans`` replaced by its placeholder,
    labelled Begin; every other token keeps its gold label."""
    cand = original_candidate(utt.tokens).substitute(spans, token_table, "augment")
    labels = tuple(
        SlotLabel.begin(entry.slot_type) if entry.slot_type else utt.gold_labels[entry.start]
        for entry in cand.alignment
    )
    return Utterance(cand.tokens, labels, utt.gold_intent)


def delexicalize_training(train: Dataset, cfg: AugmentConfig) -> tuple[Dataset, AugmentStats]:
    """Produce the placeholder-substituted copy of ``train``.

    Each utterance draws from its own seed-derived random stream, so the
    result is deterministic for a fixed ``rng_seed`` and independent of
    processing order.
    """
    out: list[Utterance] = []
    total = 0
    replaced_total = 0
    for i, utt in enumerate(train):
        if utt.gold_labels is None:
            raise ValueError("delexicalization requires gold labels")
        rng = random.Random(f"{cfg.rng_seed}:{i}")
        spans = bio_spans(utt.gold_labels)
        total += len(spans)
        chosen = [span for span in spans if rng.random() < cfg.substitution_prob]
        if chosen:
            replaced_total += len(chosen)
            out.append(_substitute(utt, chosen, cfg.token_table))
    return Dataset.from_utterances(out), AugmentStats(total, replaced_total)
