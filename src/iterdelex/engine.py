"""Confidence-guided iterative rewriting around a slot/intent parser.

Starting from gazetteer-seeded substitutions, the engine repeatedly asks
the backend to parse each candidate rewrite, scores each parse by inverse
summed label entropy, and expands the highest-scoring candidates with three
rewrite moves:

* collapse a predicted begin/inside slot span to its placeholder,
* collapse an inside-only (orphan) slot run to its placeholder,
* widen an existing placeholder over adjacent low-confidence tokens.

Each distinct candidate is scored once, into one evaluation log of
``(iteration, score, candidate)`` entries in evaluation order, the seeds
at iteration 0. Everything else is read from the log. The winner is the
entry with the highest score, ties going to the smaller
``Candidate.key()``; the candidate count and the trace are the log's
length and entries. The loop stops when a round yields no new candidates
or its best score does not beat the log's best before it. The winning
candidate's parse is projected back onto the original tokens through the
candidate's alignment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Sequence

from iterdelex.backend import Backend, ParseResult
from iterdelex.corpus import SlotLabel, Span, bio_spans, repair_bio
from iterdelex.gazetteer import Gazetteer, TokenTable
from iterdelex.seed import DEFAULT_SEED_CAP, Candidate, seed_candidates

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

    def __post_init__(self) -> None:
        # a string would pass the rewrite moves' ``slot in ood_slots`` tests by
        # substring: "contact,message" would make the slot type "act" out of domain
        if isinstance(self.ood_slots, str):
            raise ValueError("ood_slots must be a sequence of slot types, not a string")
        if not self.tau >= 0:  # rejects NaN too
            raise ValueError("tau must be non-negative")
        for name in ("top_k", "seed_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1")


def score(parse: ParseResult) -> float:
    """Sequence length over summed token entropies (floored): higher means
    the parser labeled every token more confidently."""
    total = 0.0
    # summed in token order, deliberately: the built-in sum() compensates
    # rounding from Python 3.12 on
    for e in parse.token_entropies.tolist():
        total += e
    return len(parse) / max(total, DEFAULT_ENTROPY_FLOOR)


@dataclass(frozen=True)
class InferenceOutcome:
    """The result of one ``iterative_parse`` call.

    ``evaluations`` is the evaluation log: one ``(iteration, score,
    candidate)`` entry per distinct candidate, in evaluation order, with
    the seeds at iteration 0. ``candidates_evaluated`` is read from it, and
    ``trace_text()`` formats it only when called.
    """

    best: Candidate
    parse: ParseResult
    labels: tuple[SlotLabel, ...]
    intent: str
    score: float
    iterations_run: int
    repairs: int
    evaluations: tuple[tuple[int, float, Candidate], ...]

    @property
    def candidates_evaluated(self) -> int:
        return len(self.evaluations)

    def trace_text(self) -> str:
        """One tab-separated line per log entry: iteration, score to six
        decimals, provenance and the space-joined tokens."""
        return "".join(
            f"iter{iteration}\t{value:.6f}\t{cand.provenance}\t{' '.join(cand.tokens)}\n"
            for iteration, value, cand in self.evaluations
        )


# ---------------------------------------------------------------------------
# rewrite moves


def _span_rewrites(
    cand: Candidate, parse: ParseResult, table: TokenTable, config: EngineConfig
) -> Iterable[Candidate]:
    labels = parse.predicted_labels
    for span in bio_spans(labels):
        if span.slot_type not in config.ood_slots:
            continue
        if any(table.is_special(tok) for tok in cand.tokens[span.start:span.end]):
            continue
        provenance = "proper_span" if labels[span.start].kind == "B" else "improper_span"
        yield cand.substitute((span,), table, provenance)


def _expansion_rewrites(
    cand: Candidate, parse: ParseResult, table: TokenTable, config: EngineConfig
) -> Iterable[Candidate]:
    entropies = parse.token_entropies
    n = len(cand.tokens)
    for t, tok in enumerate(cand.tokens):
        if not table.is_special(tok):
            continue
        slot = cand.alignment[t].slot_type or table.slot_for_surface(tok)
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
        yield cand.substitute((Span(left, right + 1, slot),), table, "expansion")


def generate_rewrites(
    cand: Candidate, parse: ParseResult, table: TokenTable, config: EngineConfig
) -> list[Candidate]:
    """Every single-move rewrite of one candidate, span moves first."""
    return [
        *_span_rewrites(cand, parse, table, config),
        *_expansion_rewrites(cand, parse, table, config),
    ]


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
    out: list[SlotLabel] = []
    for entry, predicted in zip(cand.alignment, parse.predicted_labels):
        if entry.slot_type:
            out.append(SlotLabel.begin(entry.slot_type))
            out += [SlotLabel.inside(entry.slot_type)] * (entry.end - entry.start - 1)
        else:
            out.append(predicted)
    return repair_bio(out)


# ---------------------------------------------------------------------------
# the loop


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

    parses: dict[tuple[str, ...], ParseResult] = {}
    seen: set[tuple] = set()
    evaluations: list[tuple[int, float, Candidate]] = []

    def evaluate(iteration: int, cands: Iterable[Candidate]) -> list[tuple[int, float, Candidate]]:
        """Log every candidate not seen before; returns the new entries."""
        start = len(evaluations)
        for cand in cands:
            key = cand.key()
            if key in seen:
                continue
            seen.add(key)
            parse = parses.get(cand.tokens)
            if parse is None:
                parse = parses[cand.tokens] = backend.parse(cand.tokens)
            evaluations.append((iteration, score(parse), cand))
        return evaluations[start:]

    def beam(entries: list[tuple[int, float, Candidate]]) -> list[Candidate]:
        """The top_k candidates by score, earlier entries first among equals."""
        ranked = sorted(entries, key=lambda entry: -entry[1])
        return [cand for _, _, cand in ranked[:config.top_k]]

    def children(frontier: list[Candidate]) -> Iterable[Candidate]:
        for cand in frontier:
            for child in generate_rewrites(cand, parses[cand.tokens], table, config):
                # every move consumes a natural token, so the loop ends within n rounds
                assert child.natural_count < cand.natural_count
                yield child

    frontier = beam(evaluate(0, seed_candidates(source, gazetteer, table, cap=config.seed_cap)))
    iterations = 0
    while any(cand.natural_count > 0 for cand in frontier):
        iterations += 1
        previous_best = max(value for _, value, _ in evaluations)
        fresh = evaluate(iterations, children(frontier))
        if not fresh or max(value for _, value, _ in fresh) <= previous_best:
            break
        frontier = beam(fresh)

    _, best_score, best = min(evaluations, key=lambda entry: (-entry[1], entry[2].key()))
    parse = parses[best.tokens]
    labels, repairs = project_labels(best, parse)
    if repairs:
        log.warning(
            "projection repaired %d orphan inside label(s) for %r",
            repairs,
            " ".join(source),
        )
    return InferenceOutcome(
        best=best,
        parse=parse,
        labels=labels,
        intent=parse.predicted_intent,
        score=best_score,
        iterations_run=iterations,
        repairs=repairs,
        evaluations=tuple(evaluations),
    )
