"""Seed candidate generation: gazetteer matching and initial substitutions.

A candidate is a rewritten token sequence plus an alignment describing, for
every placeholder it contains, which contiguous span of the *original*
utterance that placeholder stands for. Natural tokens keep an implicit
one-to-one alignment, so walking a candidate left to right fully recovers
the original positions. All rewrite operations preserve this invariant,
which is what makes label projection after parsing a pure bookkeeping step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from iterdelex.gazetteer import Gazetteer, TokenTable

DEFAULT_SEED_CAP = 64


@dataclass(frozen=True, order=True)
class Span:
    """Half-open original-token range [start, end) carrying a slot type."""

    start: int
    end: int
    slot_type: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Candidate:
    """A (possibly rewritten) token sequence aligned to the source utterance.

    ``alignment`` has one entry per token: ``None`` for a natural token,
    or the original ``Span`` a placeholder replaces. Entries must tile the
    original utterance in order, which ``__post_init__`` enforces.
    """

    tokens: tuple[str, ...]
    alignment: tuple[Optional[Span], ...]
    provenance: str

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.alignment):
            raise ValueError("alignment must have one entry per token")
        if not self.tokens:
            raise ValueError("candidate cannot be empty")
        cursor = 0
        for entry in self.alignment:
            if entry is None:
                cursor += 1
            else:
                if entry.start != cursor:
                    raise ValueError(
                        f"alignment gap: span starts at {entry.start}, "
                        f"expected {cursor}"
                    )
                cursor = entry.end

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def source_length(self) -> int:
        """Length of the original utterance this candidate rewrites."""
        return sum(1 if e is None else len(e) for e in self.alignment)

    @property
    def natural_count(self) -> int:
        """How many tokens are original (non-placeholder) material."""
        return sum(1 for e in self.alignment if e is None)

    def key(self) -> tuple:
        """Orderable identity, for deduplication and for breaking score ties:
        the tokens, then each token's original span, a natural token as
        ``(-1, -1, "")`` so that it sorts before any placeholder. Provenance
        is bookkeeping, not identity."""
        return (
            self.tokens,
            tuple(
                (-1, -1, "") if e is None else (e.start, e.end, e.slot_type)
                for e in self.alignment
            ),
        )

    def source_extents(self) -> tuple[tuple[int, int], ...]:
        """Per-token half-open ranges into the original utterance."""
        extents = []
        cursor = 0
        for entry in self.alignment:
            if entry is None:
                extents.append((cursor, cursor + 1))
                cursor += 1
            else:
                extents.append((entry.start, entry.end))
                cursor = entry.end
        return tuple(extents)

    def collapse(
        self, start: int, end: int, slot_type: str, surface: str, provenance: str
    ) -> Candidate:
        """Replace tokens [start, end) by the placeholder ``surface``, aligned
        to every original token they stand for, as ``slot_type``."""
        extents = self.source_extents()
        merged = Span(extents[start][0], extents[end - 1][1], slot_type)
        return Candidate(
            self.tokens[:start] + (surface,) + self.tokens[end:],
            self.alignment[:start] + (merged,) + self.alignment[end:],
            provenance,
        )


def original_candidate(tokens: Sequence[str]) -> Candidate:
    return Candidate(tuple(tokens), (None,) * len(tokens), "original")


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
        for combo in combinations(range(len(matches)), size):
            if len(seeds) >= cap:
                return tuple(seeds)
            seed = original
            # right to left, so the positions of the matches still to come
            # are their original ones
            for i in reversed(combo):
                span = matches[i]
                surface = table.surface_for(span.slot_type)
                seed = seed.collapse(span.start, span.end, span.slot_type, surface, "seed")
            seeds.append(seed)
    return tuple(seeds)
