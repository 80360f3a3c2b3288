"""Confidence-guided iterative rewriting around a slot/intent parser.

Starting from gazetteer-seeded substitutions, the engine repeatedly asks
the backend to parse each candidate rewrite, scores each parse by inverse
summed label entropy, and expands the highest-scoring candidates with three
rewrite moves:

* collapse a predicted begin/inside slot span to its placeholder,
* collapse an inside-only (orphan) slot run to its placeholder,
* widen an existing placeholder over adjacent low-confidence tokens.

The loop stops when a round yields no new candidates or fails to improve
the best score. The winning candidate's parse is projected back onto the
original tokens through the candidate's alignment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from iterdelex.backend import Backend, ParseResult
from iterdelex.corpus import SlotLabel, bio_spans, repair_bio
from iterdelex.gazetteer import Gazetteer, TokenTable
from iterdelex.seed import DEFAULT_SEED_CAP, Candidate, Span, seed_candidates

log = logging.getLogger(__name__)

DEFAULT_TAU = 1e-5
DEFAULT_TOP_K = 8
DEFAULT_ENTROPY_FLOOR = 1e-12


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the rewrite loop.

    ``ood_slots`` names the slot types whose values the parser cannot be
    trusted on; only their spans and placeholders are rewritten. ``tau`` is
    the per-token entropy (nats) below which a neighbor counts as confident
    and blocks placeholder widening.
    """

    ood_slots: tuple[str, ...]
    tau: float = DEFAULT_TAU
    top_k: int = DEFAULT_TOP_K
    seed_cap: int = DEFAULT_SEED_CAP
    entropy_floor: float = DEFAULT_ENTROPY_FLOOR

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.seed_cap < 1:
            raise ValueError("seed_cap must be at least 1")
        if self.entropy_floor <= 0:
            raise ValueError("entropy_floor must be positive")


def score(parse: ParseResult, *, entropy_floor: float = DEFAULT_ENTROPY_FLOOR) -> float:
    """Sequence length over summed token entropies (floored): higher means
    the parser labeled every token more confidently."""
    total = 0.0
    # summed in token order, deliberately: the built-in sum() compensates
    # rounding from Python 3.12 on
    for e in parse.token_entropies.tolist():
        total += e
    return len(parse) / max(total, entropy_floor)


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    score: float
    provenance: str
    tokens: tuple[str, ...]

    def format(self) -> str:
        return f"iter{self.iteration}\t{self.score:.6f}\t{self.provenance}\t{' '.join(self.tokens)}"


@dataclass(frozen=True)
class InferenceOutcome:
    source_tokens: tuple[str, ...]
    best: Candidate
    parse: ParseResult
    labels: tuple[SlotLabel, ...]
    intent: str
    score: float
    iterations_run: int
    candidates_evaluated: int
    repairs: int
    trace: tuple[TraceEntry, ...]

    def trace_text(self) -> str:
        return "".join(entry.format() + "\n" for entry in self.trace)


# ---------------------------------------------------------------------------
# rewrite moves


def _collapse(
    cand: Candidate, start: int, end: int, slot_type: str, surface: str, provenance: str
) -> Candidate:
    extents = cand.source_extents()
    merged = Span(extents[start][0], extents[end - 1][1], slot_type)
    return Candidate(
        cand.tokens[:start] + (surface,) + cand.tokens[end:],
        cand.alignment[:start] + (merged,) + cand.alignment[end:],
        provenance,
    )


def _span_rewrites(
    cand: Candidate, parse: ParseResult, table: TokenTable, config: EngineConfig
) -> Iterable[Candidate]:
    labels = parse.predicted_labels
    for start, end, slot in bio_spans(labels):
        if slot not in config.ood_slots:
            continue
        if any(table.is_special(tok) for tok in cand.tokens[start:end]):
            continue
        provenance = "proper_span" if labels[start].kind == "B" else "improper_span"
        yield _collapse(cand, start, end, slot, table.surface_for(slot), provenance)


def _expansion_rewrites(
    cand: Candidate, parse: ParseResult, table: TokenTable, config: EngineConfig
) -> Iterable[Candidate]:
    entropies = parse.token_entropies
    n = len(cand.tokens)
    for t, tok in enumerate(cand.tokens):
        if not table.is_special(tok):
            continue
        entry = cand.alignment[t]
        slot = entry.slot_type if entry is not None else table.slot_for_surface(tok)
        if slot not in config.ood_slots:
            continue
        left = t
        while (
            left - 1 >= 0
            and not table.is_special(cand.tokens[left - 1])
            and float(entropies[left - 1]) > config.tau
        ):
            left -= 1
        right = t
        while (
            right + 1 < n
            and not table.is_special(cand.tokens[right + 1])
            and float(entropies[right + 1]) > config.tau
        ):
            right += 1
        if left == t and right == t:
            continue
        yield _collapse(cand, left, right + 1, slot, tok, "expansion")


def generate_rewrites(
    cand: Candidate, parse: ParseResult, table: TokenTable, config: EngineConfig
) -> list[Candidate]:
    """All distinct single-move rewrites of one candidate, span moves first."""
    out: list[Candidate] = []
    seen: set[tuple] = set()
    for child in (
        *_span_rewrites(cand, parse, table, config),
        *_expansion_rewrites(cand, parse, table, config),
    ):
        if child.key() in seen:
            continue
        seen.add(child.key())
        out.append(child)
    return out


# ---------------------------------------------------------------------------
# projection


def project_labels(
    cand: Candidate, parse: ParseResult
) -> tuple[tuple[SlotLabel, ...], int]:
    """Map a candidate's predicted labels back onto the original tokens.

    Placeholder positions become a begin label plus inside labels across
    their aligned span — the alignment's slot type wins unconditionally.
    Natural positions copy the parser's prediction. Returns the repaired
    label sequence and how many orphan inside labels had to be repaired.
    """
    if len(parse) != len(cand):
        raise ValueError(
            f"parse length {len(parse)} does not match candidate length {len(cand)}"
        )
    out: list[Optional[SlotLabel]] = [None] * cand.source_length
    cursor = 0
    for pos, entry in enumerate(cand.alignment):
        if entry is None:
            out[cursor] = parse.predicted_labels[pos]
            cursor += 1
        else:
            out[entry.start] = SlotLabel.begin(entry.slot_type)
            for i in range(entry.start + 1, entry.end):
                out[i] = SlotLabel.inside(entry.slot_type)
            cursor = entry.end
    assert cursor == cand.source_length and all(lab is not None for lab in out)
    return repair_bio(tuple(out))


# ---------------------------------------------------------------------------
# the loop


def _tie_key(cand: Candidate) -> tuple:
    align = tuple(
        (e.start, e.end, e.slot_type) if e is not None else (-1, -1, "")
        for e in cand.alignment
    )
    return (cand.tokens, align)


class _Best:
    """Tracks the argmax candidate; ties break toward the smaller tie key so
    the winner does not depend on evaluation order."""

    def __init__(self) -> None:
        self.cand: Optional[Candidate] = None
        self.parse: Optional[ParseResult] = None
        self.score = float("-inf")

    def offer(self, cand: Candidate, parse: ParseResult, value: float) -> None:
        if self.cand is None or value > self.score or (
            value == self.score and _tie_key(cand) < _tie_key(self.cand)
        ):
            self.cand, self.parse, self.score = cand, parse, value


def iterative_parse(
    tokens: Sequence[str],
    backend: Backend,
    gazetteer: Gazetteer,
    table: TokenTable,
    config: EngineConfig,
) -> InferenceOutcome:
    """Run the full rewrite loop on one utterance."""
    source = tuple(tokens)
    if not source:
        raise ValueError("cannot run inference on an empty utterance")

    parse_cache: dict[tuple[str, ...], ParseResult] = {}

    def evaluate(cand: Candidate) -> tuple[ParseResult, float]:
        parse = parse_cache.get(cand.tokens)
        if parse is None:
            parse = backend.parse(cand.tokens)
            parse_cache[cand.tokens] = parse
        return parse, score(parse, entropy_floor=config.entropy_floor)

    best = _Best()
    seen: set[tuple] = set()
    trace: list[TraceEntry] = []
    evaluated = 0

    frontier: list[tuple[Candidate, ParseResult, float]] = []
    for cand in seed_candidates(source, gazetteer, table, cap=config.seed_cap):
        if cand.key() in seen:
            continue
        seen.add(cand.key())
        parse, value = evaluate(cand)
        evaluated += 1
        trace.append(TraceEntry(0, value, cand.provenance, cand.tokens))
        best.offer(cand, parse, value)
        frontier.append((cand, parse, value))
    frontier.sort(key=lambda item: -item[2])
    del frontier[config.top_k:]

    iterations = 0
    while any(cand.natural_count > 0 for cand, _, _ in frontier):
        iterations += 1
        previous_best = best.score
        round_items: list[tuple[Candidate, ParseResult, float]] = []
        for cand, parse, _ in frontier:
            for child in generate_rewrites(cand, parse, table, config):
                assert child.natural_count < cand.natural_count
                if child.key() in seen:
                    continue
                seen.add(child.key())
                child_parse, child_value = evaluate(child)
                evaluated += 1
                trace.append(
                    TraceEntry(iterations, child_value, child.provenance, child.tokens)
                )
                best.offer(child, child_parse, child_value)
                round_items.append((child, child_parse, child_value))
        if not round_items:
            break
        if max(value for _, _, value in round_items) <= previous_best:
            break
        frontier = sorted(round_items, key=lambda item: -item[2])
        del frontier[config.top_k:]

    assert best.cand is not None and best.parse is not None
    labels, repairs = project_labels(best.cand, best.parse)
    if repairs:
        log.warning(
            "projection repaired %d orphan inside label(s) for %r",
            repairs,
            " ".join(source),
        )
    return InferenceOutcome(
        source_tokens=source,
        best=best.cand,
        parse=best.parse,
        labels=labels,
        intent=best.parse.predicted_intent,
        score=best.score,
        iterations_run=iterations,
        candidates_evaluated=evaluated,
        repairs=repairs,
        trace=tuple(trace),
    )
