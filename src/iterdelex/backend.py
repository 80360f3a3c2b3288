"""Parser backend contract and the scripted deterministic backend.

A backend is anything that maps a token sequence to per-token slot-label
distributions plus an intent distribution. The engine never looks inside a
backend; it only consumes :class:`ParseResult`. Inference must be
deterministic and read-only so candidate sets can be parsed concurrently.
A parse's intent distribution is computed when it is first read: the
rewrite search reads the winner's only, so a backend may hand a parse a
function that computes it, and every intent array is read-only from the
moment it is made.

The scripted backend emits exactly the per-token distributions it was
configured with, which makes confidence scores hand-computable in tests.
The caching backend wraps any other to share its parses across callers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from iterdelex.corpus import SlotLabel


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy in nats; zero probabilities contribute nothing."""
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


@dataclass(frozen=True)
class ParseResult:
    """Joint parse of one token sequence.

    ``distributions`` has one row per input token over ``label_set`` (row
    order matches ``label_set`` order); ``token_entropies`` are the row
    entropies in nats. Argmax ties break toward the lowest index.
    ``intent_source`` returns the intent distribution over ``intent_set``,
    a read-only array; ``intent_distribution`` and ``predicted_intent``
    call it when either is first read, so an intent nobody reads is never
    computed.
    """

    label_set: tuple[SlotLabel, ...]
    intent_set: tuple[str, ...]
    distributions: np.ndarray
    predicted_labels: tuple[SlotLabel, ...]
    token_entropies: np.ndarray
    intent_source: Callable[[], np.ndarray] = field(repr=False)

    def __len__(self) -> int:
        return len(self.predicted_labels)

    @cached_property
    def intent_distribution(self) -> np.ndarray:
        return self.intent_source()

    @cached_property
    def predicted_intent(self) -> str:
        return self.intent_set[int(self.intent_distribution.argmax())]

    @classmethod
    def from_distributions(
        cls,
        label_set: Sequence[SlotLabel],
        intent_set: Sequence[str],
        distributions: np.ndarray,
        intent_distribution: np.ndarray,
    ) -> ParseResult:
        """Derive labels and entropies from raw probability rows; each row's
        label and entropy depend on that row alone. The intent distribution
        is kept as a read-only copy."""
        dists = np.asarray(distributions, dtype=float)
        if dists.ndim != 2 or dists.shape[1] != len(label_set):
            raise ValueError("distributions must be (n_tokens, n_labels)")
        labels = tuple(label_set[i] for i in dists.argmax(axis=1).tolist())
        if (dists > 0.0).all():
            entropies = (-(dists * np.log(dists))).sum(axis=1)
        else:
            # entropy() drops the zeros, which regroups numpy's pairwise sum;
            # on a row with no zero it gives the row sum's bits, negation being exact
            entropies = np.array([entropy(row) for row in dists])
        intent_dist = np.array(intent_distribution, dtype=float)
        intent_dist.setflags(write=False)
        return cls(
            label_set=tuple(label_set),
            intent_set=tuple(intent_set),
            distributions=dists,
            predicted_labels=labels,
            token_entropies=entropies,
            intent_source=lambda: intent_dist,
        )


class Backend(ABC):
    """Read-only joint slot tagging / intent classification interface."""

    label_set: tuple[SlotLabel, ...]
    intent_set: tuple[str, ...]

    @abstractmethod
    def parse(self, tokens: Sequence[str]) -> ParseResult:
        """Parse a non-empty token sequence. Never fails on unknown tokens."""

    def parse_many(self, sequences: Sequence[Sequence[str]]) -> list[ParseResult]:
        """Parse each sequence, in order. An override may share work across
        the batch, but its results must equal ``parse``'s bit for bit."""
        return [self.parse(tokens) for tokens in sequences]


class CachingBackend(Backend):
    """A backend that keeps the last ``maxsize`` parses of another, keyed by
    the token tuple, so that a sequence several utterances reach is parsed
    once.

    A parse depends only on the wrapped model and the tokens, so nothing
    (a gazetteer swap included) invalidates an entry. Every caller of a
    sequence gets the same ``ParseResult``, so its ``distributions`` and
    ``token_entropies`` are made read-only before it is stored; its intent
    array is read-only already, and it is left to be computed on first read.
    """

    def __init__(self, backend: Backend, maxsize: int):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.label_set = backend.label_set
        self.intent_set = backend.intent_set

        def parse_read_only(tokens: tuple[str, ...]) -> ParseResult:
            result = backend.parse(tokens)
            for array in (result.distributions, result.token_entropies):
                array.setflags(write=False)
            return result

        self._parse = lru_cache(maxsize=maxsize)(parse_read_only)

    def parse(self, tokens: Sequence[str]) -> ParseResult:
        return self._parse(tuple(tokens))

    def cache_info(self):
        """``functools`` cache statistics: hits, misses (each one call of
        the wrapped ``parse``), ``maxsize`` and the current size."""
        return self._parse.cache_info()


# --- scripted backend ------------------------------------------------------

Recipe = Union[Sequence[float], "DistributionRecipe"]
IntentRule = Union[str, Callable[[Sequence[str]], str]]


@dataclass(frozen=True)
class DistributionRecipe:
    """Declarative distribution over a label set, resolved once, when a
    ``ScriptedBackend`` is built."""

    kind: str  # "one_hot", "uniform" or "peaked"
    label: Optional[str] = None
    peak: float = 1.0

    def resolve(self, label_set: Sequence[SlotLabel]) -> np.ndarray:
        n = len(label_set)
        if self.kind == "uniform":
            return np.full(n, 1.0 / n)
        index = [str(lab) for lab in label_set].index(str(self.label))
        if self.kind == "one_hot":
            vec = np.zeros(n)
            vec[index] = 1.0
            return vec
        if self.kind == "peaked":
            rest = (1.0 - self.peak) / (n - 1) if n > 1 else 0.0
            vec = np.full(n, rest)
            vec[index] = self.peak
            return vec
        raise ValueError(f"unknown recipe kind: {self.kind!r}")


def one_hot(label: str) -> DistributionRecipe:
    return DistributionRecipe("one_hot", label)


def uniform() -> DistributionRecipe:
    return DistributionRecipe("uniform")


def peaked(label: str, peak: float) -> DistributionRecipe:
    if not 0.0 < peak <= 1.0:
        raise ValueError("peak probability must be in (0, 1]")
    return DistributionRecipe("peaked", label, peak)


class ScriptedBackend(Backend):
    """Backend whose output is a fixed per-token script; the test oracle.

    ``script`` maps token surfaces to distribution recipes (or explicit
    probability vectors); tokens not covered fall back to ``fallback``,
    which is required so any input parses.
    """

    def __init__(
        self,
        label_set: Sequence[SlotLabel],
        intent_set: Sequence[str],
        script: Mapping[str, Recipe],
        fallback: Recipe | None,
        intent_rule: IntentRule,
    ):
        if fallback is None:
            raise ValueError("scripted backend requires a fallback recipe")
        self.label_set = tuple(label_set)
        self.intent_set = tuple(intent_set)
        self._rows = {tok: self._resolve(r) for tok, r in script.items()}
        self._fallback = self._resolve(fallback)
        self._intent_rule = intent_rule

    def _resolve(self, recipe: Recipe) -> np.ndarray:
        if isinstance(recipe, DistributionRecipe):
            row = recipe.resolve(self.label_set)
        else:
            row = np.asarray(recipe, dtype=float)
            if row.shape != (len(self.label_set),):
                raise ValueError("explicit distribution has wrong length")
        total = row.sum()
        if not np.isclose(total, 1.0, atol=1e-9) or (row < 0).any():
            raise ValueError("distribution rows must be non-negative and sum to 1")
        return row

    def parse(self, tokens: Sequence[str]) -> ParseResult:
        if not tokens:
            raise ValueError("cannot parse an empty token sequence")
        dists = np.stack([self._rows.get(tok, self._fallback) for tok in tokens])
        if callable(self._intent_rule):
            intent = self._intent_rule(tokens)
        else:
            intent = self._intent_rule
        intent_dist = np.zeros(len(self.intent_set))
        intent_dist[self.intent_set.index(intent)] = 1.0
        return ParseResult.from_distributions(
            self.label_set, self.intent_set, dists, intent_dist
        )
