"""Utterance/label data model and dataset I/O.

Two on-disk formats are supported, chosen by the file name (``is_jsonl``):

* JSONL (``.jsonl``, ``.json``): one object per line with ``tokens`` (array
  of strings), plus optional ``labels`` (BIO strings) and ``intent``.
* CoNLL-style (any other name): one ``token<TAB>label`` pair per line, a
  blank line ends an utterance, and an optional ``#intent=<name>`` line
  precedes each block.

Loaders lowercase every token, strip intent names, and repair orphan Inside
labels (an ``I-x`` not preceded by ``B-x``/``I-x`` of the same type) to
Begin, reporting the repair count through the module logger; gold data kept
in memory is always canonical BIO. ``bio_spans`` decodes labels to ``Span``s,
the span type of gazetteer matches and candidate alignments too.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

log = logging.getLogger(__name__)

OUTSIDE = "O"
BEGIN = "B"
INSIDE = "I"


@contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """Open ``path`` for reading as UTF-8 text, skipping a leading byte-order
    mark; bytes that do not decode raise a ``ValueError`` naming the file."""
    with Path(path).open("r", encoding="utf-8-sig") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: not UTF-8 text (cannot decode byte 0x{exc.object[exc.start]:02x})"
            ) from None


@dataclass(frozen=True, order=True)
class SlotLabel:
    """A single BIO tag: Outside, or Begin/Inside of a slot type."""

    kind: str  # "O", "B" or "I"
    slot_type: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (OUTSIDE, BEGIN, INSIDE):
            raise ValueError(f"invalid label kind: {self.kind!r}")
        if self.kind == OUTSIDE and self.slot_type:
            raise ValueError("Outside label must not carry a slot type")
        if self.kind != OUTSIDE and not self.slot_type:
            raise ValueError(f"{self.kind}-label requires a slot type")

    @classmethod
    def outside(cls) -> SlotLabel:
        return cls(OUTSIDE)

    @classmethod
    def begin(cls, slot_type: str) -> SlotLabel:
        return cls(BEGIN, slot_type)

    @classmethod
    def inside(cls, slot_type: str) -> SlotLabel:
        return cls(INSIDE, slot_type)

    @classmethod
    def parse(cls, text: str) -> SlotLabel:
        """Parse ``"O"`` / ``"B-x"`` / ``"I-x"``. A slot type that holds
        whitespace would make a placeholder token that does, so it is a
        ``ValueError``."""
        if text == OUTSIDE:
            return cls(OUTSIDE)
        if len(text) > 2 and text[0] in (BEGIN, INSIDE) and text[1] == "-":
            if text.split() != [text]:
                raise ValueError(f"slot type {text[2:]!r} contains whitespace")
            return cls(text[0], text[2:])
        raise ValueError(f"invalid BIO label: {text!r}")

    def __str__(self) -> str:
        if self.kind == OUTSIDE:
            return OUTSIDE
        return f"{self.kind}-{self.slot_type}"

    @property
    def is_outside(self) -> bool:
        return self.kind == OUTSIDE


class Span(NamedTuple):
    """Half-open token range [start, end) carrying a slot type, empty for a
    natural token. A plain tuple: ``len(span)`` is 3, the width is
    ``end - start``, and hashing and ordering are the tuple's."""

    start: int
    end: int
    slot_type: str


@dataclass(frozen=True)
class Utterance:
    """A token sequence with optional gold BIO labels and gold intent."""

    tokens: tuple[str, ...]
    gold_labels: Optional[tuple[SlotLabel, ...]] = None
    gold_intent: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("utterance must contain at least one token")
        if self.gold_labels is not None and len(self.gold_labels) != len(self.tokens):
            raise ValueError(
                f"label count {len(self.gold_labels)} != token count {len(self.tokens)}"
            )


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of utterances. Its label and intent inventories
    are read off the utterances on first use, once per dataset."""

    utterances: tuple[Utterance, ...]

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    @classmethod
    def from_utterances(cls, utterances: Iterable[Utterance]) -> Dataset:
        return cls(tuple(utterances))

    @cached_property
    def label_set(self) -> tuple[SlotLabel, ...]:
        """Outside and every distinct gold label, sorted."""
        labels = {SlotLabel.outside()}
        for utt in self.utterances:
            labels.update(utt.gold_labels or ())
        return tuple(sorted(labels))

    @cached_property
    def intent_set(self) -> tuple[str, ...]:
        """Every distinct gold intent, sorted."""
        return tuple(sorted({utt.gold_intent for utt in self.utterances} - {None}))

    @property
    def slot_types(self) -> tuple[str, ...]:
        return tuple(sorted({lab.slot_type for lab in self.label_set if not lab.is_outside}))


def repair_bio(labels: Sequence[SlotLabel]) -> tuple[tuple[SlotLabel, ...], int]:
    """Turn orphan Inside labels into Begin; returns (labels, repair count)."""
    out: list[SlotLabel] = []
    repairs = 0
    for lab in labels:
        if lab.kind == INSIDE:
            prev = out[-1] if out else None
            if prev is None or prev.is_outside or prev.slot_type != lab.slot_type:
                lab = SlotLabel.begin(lab.slot_type)
                repairs += 1
        out.append(lab)
    return tuple(out), repairs


def bio_spans(labels: Sequence[SlotLabel]) -> list[Span]:
    """Extract the labelled spans, end exclusive, repairing orphans."""
    spans: list[Span] = []
    start = -1
    cur = ""
    for i, lab in enumerate(labels):
        if lab.kind == BEGIN or (lab.kind == INSIDE and (not cur or cur != lab.slot_type)):
            if cur:
                spans.append(Span(start, i, cur))
            start, cur = i, lab.slot_type
        elif lab.is_outside:
            if cur:
                spans.append(Span(start, i, cur))
            start, cur = -1, ""
        # else: Inside continuing the open span
    if cur:
        spans.append(Span(start, len(labels), cur))
    return spans


@dataclass
class _LoaderState:
    repairs: int = 0
    utterances: list[Utterance] = field(default_factory=list)
    labels: dict[str, SlotLabel] = field(default_factory=dict)  # by their text

    def label(self, text: str, path: Path, lineno: int) -> SlotLabel:
        """The label ``text`` on line ``lineno`` of ``path`` names; each
        distinct text is parsed once per load."""
        label = self.labels.get(text)
        if label is None:
            try:
                label = self.labels[text] = SlotLabel.parse(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return label

    def add(
        self,
        tokens: list[str],
        labels: Optional[list[SlotLabel]],
        intent: Optional[str],
        where: str,
    ) -> None:
        """Append one utterance that starts at ``where`` (file and line), its
        tokens lowercased. A token that is empty or holds whitespace would
        not survive a gazetteer row or a re-split, so it is a ``ValueError``."""
        if " ".join(tokens).split() != tokens:
            bad = next(t for t in tokens if t.split() != [t])
            raise ValueError(f"{where}: token {bad!r} is empty or contains whitespace")
        tokens = [t.lower() for t in tokens]
        fixed: Optional[tuple[SlotLabel, ...]] = None
        if labels is not None:
            fixed, n = repair_bio(labels)
            self.repairs += n
        self.utterances.append(Utterance(tuple(tokens), fixed, intent))


def _intent_name(text: str, where: str) -> str:
    """``text`` stripped. An empty name, or one with a line break that a CoNLL
    ``#intent=`` line cannot hold, is a ``ValueError`` naming ``where``."""
    name = text.strip()
    if not name:
        raise ValueError(f"{where}: intent name is empty")
    if "\n" in name or "\r" in name:
        raise ValueError(f"{where}: intent name {name!r} contains a line break")
    return name


def _load_conll(path: Path, state: _LoaderState) -> None:
    tokens: list[str] = []
    labels: list[SlotLabel] = []
    intent: Optional[str] = None
    start = 0  # line of the utterance's first token
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                if tokens:
                    state.add(tokens, labels, intent, f"{path}:{start}")
                    tokens, labels, intent = [], [], None
                continue
            if line.startswith("#intent="):
                intent = _intent_name(line[len("#intent="):], f"{path}:{lineno}")
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'token<TAB>label', got {line!r}"
                )
            label = state.label(parts[1], path, lineno)
            if not tokens:
                start = lineno
            tokens.append(parts[0])
            labels.append(label)
    if tokens:
        state.add(tokens, labels, intent, f"{path}:{start}")


def _is_string_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _load_jsonl(path: Path, state: _LoaderState) -> None:
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record is not a JSON object")
            tokens = record.get("tokens")
            if not tokens:
                raise ValueError(f"{path}:{lineno}: record has no tokens")
            if not _is_string_list(tokens):
                raise ValueError(f"{path}:{lineno}: 'tokens' is not an array of strings")
            labels: Optional[list[SlotLabel]] = None
            raw_labels = record.get("labels")
            if raw_labels is not None:
                if not _is_string_list(raw_labels):
                    raise ValueError(f"{path}:{lineno}: 'labels' is not an array of strings")
                if len(raw_labels) != len(tokens):
                    raise ValueError(
                        f"{path}:{lineno}: record {lineno} has {len(tokens)} tokens "
                        f"but {len(raw_labels)} labels"
                    )
                labels = [state.label(s, path, lineno) for s in raw_labels]
            intent = record.get("intent")
            if intent is not None:
                if not isinstance(intent, str):
                    raise ValueError(f"{path}:{lineno}: 'intent' is not a string")
                intent = _intent_name(intent, f"{path}:{lineno}")
            state.add(tokens, labels, intent, f"{path}:{lineno}")


def is_jsonl(path: str | Path) -> bool:
    """Whether ``path`` names a JSONL file; any other name is CoNLL."""
    return Path(path).suffix in (".jsonl", ".json")


def load_dataset(path: str | Path) -> Dataset:
    """Load a Dataset from ``path``, in the format its name gives (``is_jsonl``).

    Orphan Inside labels are repaired to Begin; the repair count is logged
    as a warning.
    """
    p = Path(path)
    state = _LoaderState()
    (_load_jsonl if is_jsonl(p) else _load_conll)(p, state)
    if not state.utterances:
        raise ValueError(f"{p}: no utterances")
    if state.repairs:
        log.warning("%s: repaired %d orphan Inside label(s)", p, state.repairs)
    return Dataset(tuple(state.utterances))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` to ``path`` in the format its name gives
    (``is_jsonl``); it round-trips through load_dataset, except that CoNLL
    writes an unlabeled utterance as all Outside."""
    with Path(path).open("w", encoding="utf-8") as f:
        if is_jsonl(path):
            for utt in dataset:
                record: dict = {"tokens": list(utt.tokens)}
                if utt.gold_labels is not None:
                    record["labels"] = [str(lab) for lab in utt.gold_labels]
                if utt.gold_intent is not None:
                    record["intent"] = utt.gold_intent
                f.write(json.dumps(record) + "\n")
        else:
            for utt in dataset:
                if utt.gold_intent is not None:
                    f.write(f"#intent={utt.gold_intent}\n")
                labels = utt.gold_labels or tuple(SlotLabel.outside() for _ in utt.tokens)
                for tok, lab in zip(utt.tokens, labels):
                    f.write(f"{tok}\t{lab}\n")
                f.write("\n")
