"""Seed candidate generation: gazetteer matching and initial substitutions.

A candidate is a rewritten token sequence plus an alignment that states,
for every token, the contiguous span of the *original* utterance it stands
for, as a ``corpus.Span``: a natural token its own position, a placeholder
the whole span it replaces. Gazetteer matches are ``Span``s too, in token
positions. Seeds, the engine's rewrites and training augmentation all
substitute placeholders through ``Candidate.substitute``, which keeps the
alignment tiling the original utterance; that is what makes label
projection after parsing a pure bookkeeping step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from iterdelex.corpus import Span
from iterdelex.gazetteer import Gazetteer, TokenTable

DEFAULT_SEED_CAP = 64


@dataclass(frozen=True)
class Candidate:
    """A (possibly rewritten) token sequence aligned to the source utterance.

    ``alignment`` has one ``Span`` per token: ``Span(i, i + 1, "")`` for the
    natural token at source position ``i``, or the original span a
    placeholder replaces, with its slot type. Entries must tile the original
    utterance in order, none of them empty, which ``__post_init__`` enforces.
    """

    tokens: tuple[str, ...]
    alignment: tuple[Span, ...]
    provenance: str

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.alignment):
            raise ValueError("alignment must have one entry per token")
        if not self.tokens:
            raise ValueError("candidate cannot be empty")
        cursor = 0
        for entry in self.alignment:
            if entry.start != cursor:
                raise ValueError(
                    f"alignment gap: span starts at {entry.start}, expected {cursor}"
                )
            if entry.end <= cursor:
                raise ValueError(f"empty span [{entry.start}, {entry.end})")
            if not entry.slot_type and entry.end != cursor + 1:
                raise ValueError(f"natural token aligned to {entry.end - entry.start} source tokens")
            cursor = entry.end

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def natural_count(self) -> int:
        """How many tokens are original (non-placeholder) material; counted
        once per candidate, on first use."""
        return sum(1 for e in self.alignment if not e.slot_type)

    def key(self) -> tuple:
        """Orderable identity, for deduplication and for breaking score ties:
        the tokens, then the alignment. Where two alignments first differ,
        both entries start at the same position, so a natural token sorts
        before any placeholder there. Provenance is bookkeeping, not
        identity."""
        return (self.tokens, self.alignment)

    def substitute(
        self, spans: Sequence[Span], table: TokenTable, provenance: str
    ) -> Candidate:
        """Replace the tokens of each of the sorted, disjoint ``spans`` (token
        positions in this candidate) by its slot type's placeholder, aligned to
        every original token they stand for, in one pass."""
        tokens: tuple[str, ...] = ()
        alignment: tuple[Span, ...] = ()
        pos = 0
        for span in spans:
            merged = Span(
                self.alignment[span.start].start, self.alignment[span.end - 1].end, span.slot_type
            )
            tokens += self.tokens[pos:span.start] + (table.surface_for(span.slot_type),)
            alignment += self.alignment[pos:span.start] + (merged,)
            pos = span.end
        return Candidate(
            tokens + self.tokens[pos:], alignment + self.alignment[pos:], provenance
        )


def original_candidate(tokens: Sequence[str]) -> Candidate:
    return Candidate(
        tuple(tokens), tuple(Span(i, i + 1, "") for i in range(len(tokens))), "original"
    )


def find_matches(tokens: Sequence[str], gazetteer: Gazetteer) -> tuple[Span, ...]:
    """Greedy longest-first, non-overlapping gazetteer matches, ignoring case.

    Context and ambiguous phrases never match. A phrase attested under
    several slot types (necessarily within one shared group, or it would be
    ambiguous) resolves to the lexicographically smallest type.
    """
    table = gazetteer.match_table
    lowered = tuple(tok.lower() for tok in tokens)
    covered = [False] * len(tokens)
    matches: list[Span] = []
    for length in range(gazetteer.max_phrase_len, 0, -1):
        for start in range(0, len(tokens) - length + 1):
            end = start + length
            if any(covered[start:end]):
                continue
            slot = table.get(lowered[start:end])
            if slot is None:
                continue
            matches.append(Span(start, end, slot))
            covered[start:end] = [True] * length
    return tuple(sorted(matches))


def seed_candidates(
    tokens: Sequence[str],
    gazetteer: Gazetteer,
    table: TokenTable,
    *,
    cap: int = DEFAULT_SEED_CAP,
) -> tuple[Candidate, ...]:
    """The unmodified utterance plus every subset of gazetteer matches
    substituted, most-substituted subsets first.

    When the power set exceeds ``cap`` candidates, subsets are kept in
    (substitution count descending, match index lexicographic) order until
    the cap is reached; the unmodified utterance always survives.
    """
    if cap < 1:
        raise ValueError("seed cap must be at least 1")
    matches = find_matches(tokens, gazetteer)
    original = original_candidate(tokens)
    seeds = [original]
    for size in range(len(matches), 0, -1):
        for combo in combinations(matches, size):
            if len(seeds) >= cap:
                return tuple(seeds)
            seeds.append(original.substitute(combo, table, "seed"))
    return tuple(seeds)
