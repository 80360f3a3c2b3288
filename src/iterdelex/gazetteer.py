"""Phrase gazetteer and placeholder-token table built from labeled training data.

The gazetteer records three phrase inventories used by seed candidate
generation:

* ``slot_phrases`` — the gold slot spans per slot type,
* ``context_phrases`` — n-grams that occurred fully outside any slot
  (these must never be matched as slot values),
* ``ambiguous_phrases`` — phrases attested under two or more slot types
  that do not share a placeholder group (matching them would guess).

The placeholder table assigns one surface per slot type, except that slot
types declared in the same shared group (e.g. two city-typed slots) map to
a single shared surface.
"""

from __future__ import annotations

import gc
import logging
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from iterdelex.corpus import Dataset, bio_spans, open_text

log = logging.getLogger(__name__)

Phrase = tuple[str, ...]

CONTEXT_NGRAM_CAP = 4  # longest n-gram build_gazetteer records as context


class TokenTable:
    """Slot-type <-> placeholder-surface mapping with shared-group support,
    as ``build_token_table`` makes it."""

    def __init__(self, surface_of: Mapping[str, str]):
        self._surface_of = dict(surface_of)
        self._slot_of: dict[str, str] = {}
        for slot in sorted(self._surface_of, reverse=True):  # smallest written last
            self._slot_of[self._surface_of[slot]] = slot

    def surface_for(self, slot_type: str) -> str:
        return self._surface_of[slot_type]

    def slot_for_surface(self, surface: str) -> Optional[str]:
        """Canonical slot type for a surface (first by sort order for groups)."""
        return self._slot_of.get(surface)

    def is_special(self, token: str) -> bool:
        return token in self._slot_of

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(sorted(self._slot_of))

    @property
    def slot_types(self) -> tuple[str, ...]:
        return tuple(sorted(self._surface_of))


def build_token_table(
    slot_types: Iterable[str],
    shared_groups: Optional[Mapping[str, Sequence[str]]] = None,
    *,
    vocabulary: Optional[set[str]] = None,
) -> TokenTable:
    """Create one placeholder per slot type, one shared surface per group.

    Surfaces follow the ``<slot_type>`` / ``<group>`` convention. This is
    the one place that knows the shared-group rules: an empty group name, a
    member that is none of ``slot_types`` (it has no slot phrases), a slot
    listed twice in one group, a slot in two groups, and a group surface
    that is also a grouped-out slot's own are each a ``ValueError`` naming
    the group. A slot type or group name that is empty or holds whitespace
    would make a surface that is no single token, so it is rejected too, as
    is, when ``vocabulary`` is given, any collision between a surface and a
    natural token.
    """
    slots = set(slot_types)
    slot_to_group: dict[str, str] = {}
    for gname, members in (shared_groups or {}).items():
        if not gname:
            raise ValueError("shared group name is empty")
        if gname.split() != [gname]:
            raise ValueError(f"shared group name {gname!r} contains whitespace")
        for s in members:
            if s not in slots:
                raise ValueError(f"group {gname!r}: no slot phrases for {s!r}")
            if slot_to_group.get(s) == gname:
                raise ValueError(f"group {gname!r} lists slot {s!r} twice")
            if s in slot_to_group:
                raise ValueError(
                    f"slot {s!r} appears in two shared groups, "
                    f"{slot_to_group[s]!r} and {gname!r}"
                )
            slot_to_group[s] = gname
    surface_of: dict[str, str] = {}
    group_of_surface: dict[str, Optional[str]] = {}
    for slot in sorted(slots):
        if not slot:
            raise ValueError("slot type is empty")
        if slot.split() != [slot]:
            raise ValueError(f"slot type {slot!r} contains whitespace")
        group = slot_to_group.get(slot)
        surface = f"<{group or slot}>"
        if group_of_surface.setdefault(surface, group) != group:
            raise ValueError(
                f"group {group or group_of_surface[surface]!r}: surface {surface!r} "
                f"is also slot {surface[1:-1]!r}'s, outside a common group"
            )
        if vocabulary and surface in vocabulary:
            raise ValueError(
                f"placeholder surface {surface!r} collides with a training token"
            )
        surface_of[slot] = surface
    return TokenTable(surface_of)


@dataclass(frozen=True)
class Gazetteer:
    """Immutable phrase inventories extracted from a labeled dataset."""

    slot_phrases: Mapping[str, frozenset[Phrase]]
    context_phrases: frozenset[Phrase]
    ambiguous_phrases: frozenset[Phrase]
    shared_groups: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def token_table(self) -> TokenTable:
        """Placeholder table for exactly the slot types this gazetteer covers;
        built on first use, once per gazetteer, by ``build_token_table``."""
        return self._token_table

    @cached_property
    def _token_table(self) -> TokenTable:
        return build_token_table(self.slot_phrases, self.shared_groups)

    @cached_property
    def match_table(self) -> dict[Phrase, str]:
        """Lowercased slot phrase -> its smallest slot type, leaving out context
        and ambiguous phrases; built once per gazetteer, by ``load_gazetteer``
        (without lowering when the file has no uppercase) or else on first use."""
        return _match_table(
            {slot: {_lower(p) for p in phrases} for slot, phrases in self.slot_phrases.items()},
            {_lower(p) for p in self.context_phrases | self.ambiguous_phrases},
        )

    @cached_property
    def max_phrase_len(self) -> int:
        """Token count of the longest ``match_table`` key, 0 when it has none;
        computed once per gazetteer, by ``load_gazetteer`` or else on first use."""
        return max(map(len, self.match_table), default=0)


def _lower(phrase: Phrase) -> Phrase:
    lowered = tuple(map(str.lower, phrase))
    return phrase if lowered == phrase else lowered  # keeps one copy in memory


def _match_table(
    keys_by_slot: Mapping[str, Iterable[Phrase]], excluded: Iterable[Phrase]
) -> dict[Phrase, str]:
    """Key -> its smallest slot type, for every key not in ``excluded``."""
    table: dict[Phrase, str] = {}
    for slot in sorted(keys_by_slot, reverse=True):  # smallest written last
        table.update(dict.fromkeys(keys_by_slot[slot], slot))  # reuses the sets' hashes
    for key in excluded:
        table.pop(key, None)
    return table


def build_gazetteer(
    train: Dataset,
    shared_groups: Optional[Mapping[str, Sequence[str]]] = None,
) -> Gazetteer:
    """Collect slot, context and ambiguous phrase sets from gold labels.

    A phrase is ambiguous when its slot types map to two or more placeholder
    surfaces, that is when they are not members of one shared group. Context
    phrases are all n-grams (up to ``CONTEXT_NGRAM_CAP`` tokens) whose every
    token is labelled Outside. Bad shared groups, and a placeholder surface
    that is also a token of ``train``, are a ``ValueError``.
    """
    slot_phrases: dict[str, set[Phrase]] = {}
    context: set[Phrase] = set()
    for utt in train:
        if utt.gold_labels is None:
            raise ValueError("gazetteer construction requires gold labels")
        for start, end, slot in bio_spans(utt.gold_labels):
            slot_phrases.setdefault(slot, set()).add(utt.tokens[start:end])
        # every all-Outside n-gram up to the cap
        labels = utt.gold_labels
        for i in range(len(labels)):
            j = i
            while j < min(i + CONTEXT_NGRAM_CAP, len(labels)) and labels[j].is_outside:
                context.add(utt.tokens[i:j + 1])
                j += 1

    groups = {g: tuple(sorted(slots)) for g, slots in (shared_groups or {}).items()}
    vocabulary = {tok for utt in train for tok in utt.tokens}
    table = build_token_table(slot_phrases, groups, vocabulary=vocabulary)
    surfaces_of: dict[Phrase, set[str]] = {}
    for slot, phrases in slot_phrases.items():
        for phrase in phrases:
            surfaces_of.setdefault(phrase, set()).add(table.surface_for(slot))

    return Gazetteer(
        slot_phrases={s: frozenset(p) for s, p in slot_phrases.items()},
        context_phrases=frozenset(context),
        ambiguous_phrases=frozenset(p for p, s in surfaces_of.items() if len(s) > 1),
        shared_groups=groups,
    )


def save_gazetteer(gazetteer: Gazetteer, path: str | Path) -> None:
    """Write the gazetteer as TSV: kind, slot type (or empty), phrase."""
    p = Path(path)
    with p.open("w", encoding="utf-8") as f:
        for group in sorted(gazetteer.shared_groups):
            slots = " ".join(sorted(gazetteer.shared_groups[group]))
            f.write(f"group\t{group}\t{slots}\n")
        for slot in sorted(gazetteer.slot_phrases):
            for phrase in sorted(gazetteer.slot_phrases[slot]):
                f.write(f"slot\t{slot}\t{' '.join(phrase)}\n")
        for phrase in sorted(gazetteer.context_phrases):
            f.write(f"context\t\t{' '.join(phrase)}\n")
        for phrase in sorted(gazetteer.ambiguous_phrases):
            f.write(f"ambiguous\t\t{' '.join(phrase)}\n")


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Read a gazetteer TSV, skipping lines of whitespace, and build its
    placeholder table, its match table and ``max_phrase_len``, so the first
    parse after a reload builds none of them.

    The cyclic garbage collector is paused while it runs and then restored to
    its earlier state: the load makes one tuple per phrase and no cycles, and
    the collections those allocations trigger took about a third of a large
    load. The young generation those tuples fill is left to the collector:
    the first allocation after the load collects it (about 4 ms for 21,000
    rows)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_gazetteer(Path(path))
    finally:
        if enabled:
            gc.enable()


def _read_gazetteer(p: Path) -> Gazetteer:
    slot_phrases: defaultdict[str, list[Phrase]] = defaultdict(list)
    context: list[Phrase] = []
    ambiguous: list[Phrase] = []
    groups: dict[str, Phrase] = {}
    with open_text(p) as f:
        text = f.read()
    for lineno, line in enumerate(text.split("\n"), 1):
        try:
            kind, slot, phrase_text = line.split("\t")
        except ValueError:
            if not line.strip():
                continue
            raise ValueError(f"{p}:{lineno}: expected 3 tab-separated columns") from None
        phrase = tuple(phrase_text.split())
        if not phrase:
            if not line.strip():
                continue
            raise ValueError(f"{p}:{lineno}: empty phrase")
        if kind == "slot":
            if not slot:
                raise ValueError(f"{p}:{lineno}: slot row without a slot type")
            slot_phrases[slot].append(phrase)
        elif kind == "context" or kind == "ambiguous":
            if slot:
                raise ValueError(f"{p}:{lineno}: {kind} row with a name")
            (context if kind == "context" else ambiguous).append(phrase)
        elif kind == "group":
            if not slot:
                raise ValueError(f"{p}:{lineno}: group row without a group name")
            if slot in groups:
                raise ValueError(f"{p}:{lineno}: group {slot!r} is defined twice")
            groups[slot] = phrase
        else:
            raise ValueError(f"{p}:{lineno}: unknown row kind {kind!r}")
    gazetteer = Gazetteer(
        slot_phrases={s: frozenset(p) for s, p in slot_phrases.items()},
        context_phrases=frozenset(context),
        ambiguous_phrases=frozenset(ambiguous),
        shared_groups=groups,
    )
    try:
        gazetteer.token_table()
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None
    if text == text.lower():  # every phrase is its own key: none needs lowering
        gazetteer.__dict__["match_table"] = _match_table(  # the cached_property's slot
            gazetteer.slot_phrases, gazetteer.context_phrases | gazetteer.ambiguous_phrases
        )
    gazetteer.max_phrase_len  # noqa: B018 -- built now, and the match table if not set above
    return gazetteer
