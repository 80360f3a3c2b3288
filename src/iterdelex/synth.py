"""Synthetic corpus generator with a deliberately out-of-vocabulary slot.

Utterances are sampled from per-intent templates. Closed slots (contacts,
times, songs, artists, cities) draw from fixed phrase lists shared between
the train and test splits. The open slot draws free-text spans from two
*disjoint* content-word pools — one per split — plus a small shared filler
vocabulary, so nearly every open-slot token in the test split is unseen at
training time. Generation is fully determined by the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping

from iterdelex.corpus import Dataset, SlotLabel, Utterance, open_text

Phrase = tuple[str, ...]


@dataclass(frozen=True)
class IntentTemplates:
    """Templates for one intent; ``{slot}`` marks a slot to be filled."""

    name: str
    weight: float
    templates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 0 < self.weight < math.inf:
            raise ValueError(f"intent {self.name!r}: weight must be positive and finite")
        if not self.templates:
            raise ValueError(f"intent {self.name!r}: needs at least one template")


def _template_parts(template: str) -> list[str]:
    return template.split()


def _carrier_tokens(intents: Iterable[IntentTemplates]) -> set[str]:
    tokens: set[str] = set()
    for intent in intents:
        for template in intent.templates:
            for part in _template_parts(template):
                if not (part.startswith("{") and part.endswith("}")):
                    tokens.add(part)
    return tokens


@dataclass(frozen=True)
class SyntheticSpec:
    """Corpus recipe. ``fillers`` and ``confusables`` are the only words
    allowed to appear both inside open-slot spans and elsewhere; their rates
    bound how much of the open slot stays in-vocabulary, so
    ``filler_rate + confusable_rate`` must stay under 0.1 to preserve the
    out-of-vocabulary guarantee."""

    intents: tuple[IntentTemplates, ...]
    closed_slots: Mapping[str, tuple[Phrase, ...]]
    open_slot: str
    open_content_train: tuple[str, ...]
    open_content_test: tuple[str, ...]
    fillers: tuple[str, ...]
    confusables: tuple[str, ...] = ()
    filler_rate: float = 0.03
    confusable_rate: float = 0.02
    open_len: tuple[int, int] = (4, 9)
    train_count: int = 2200
    test_count: int = 550

    def __post_init__(self) -> None:
        if not self.intents:
            raise ValueError("spec needs at least one intent")
        if self.open_slot in self.closed_slots:
            raise ValueError(f"open slot {self.open_slot!r} also listed as closed")
        if not (0 <= self.filler_rate < 1):
            raise ValueError("filler_rate must be in [0, 1)")
        if not (0 <= self.confusable_rate < 1):
            raise ValueError("confusable_rate must be in [0, 1)")
        if self.filler_rate + self.confusable_rate >= 1:
            raise ValueError("filler_rate + confusable_rate must stay below 1")
        if self.confusable_rate > 0 and not self.confusables:
            raise ValueError("confusable_rate set but no confusable words given")
        if not self.open_content_train or not self.open_content_test:
            raise ValueError("both open-slot content pools need at least one word")
        if self.filler_rate > 0 and not self.fillers:
            raise ValueError("filler_rate set but no filler words given")
        for name, phrases in self.closed_slots.items():
            if not phrases or not all(phrases):
                raise ValueError(f"closed slot {name!r} needs non-empty phrases")
        lo, hi = self.open_len
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid open-slot length range {self.open_len}")
        if self.train_count < 1 or self.test_count < 1:
            raise ValueError("train_count and test_count must be positive")

        known = set(self.closed_slots) | {self.open_slot}
        for intent in self.intents:
            for template in intent.templates:
                for part in _template_parts(template):
                    if part.startswith("{") and part.endswith("}"):
                        slot = part[1:-1]
                        if slot not in known:
                            raise ValueError(
                                f"intent {intent.name!r}: template references "
                                f"unknown slot {slot!r}"
                            )

        # every word a training utterance can contain, outside the open pool
        shared = _carrier_tokens(self.intents) | set(self.fillers)
        for phrase in self.confusables:
            shared.update(phrase.split())
        for phrases in self.closed_slots.values():
            for phrase in phrases:
                shared.update(phrase)
        leaked = set(self.open_content_test) & (shared | set(self.open_content_train))
        if leaked:
            raise ValueError(
                "test-side open-slot words also occur in training vocabulary: "
                + ", ".join(sorted(leaked)[:10])
            )


def _sample_open_span(rng: random.Random, spec: SyntheticSpec, pool: tuple[str, ...]) -> Phrase:
    lo, hi = spec.open_len
    length = rng.randint(lo, hi)
    # per position: filler word, embedded carrier-like phrase, or content word
    kinds = []
    for _ in range(length):
        r = rng.random()
        if r < spec.filler_rate:
            kinds.append("filler")
        elif r < spec.filler_rate + spec.confusable_rate:
            kinds.append("confusable")
        else:
            kinds.append("content")
    if "content" not in kinds:
        kinds[-1] = "content"
    span: list[str] = []
    for kind in kinds:
        if kind == "filler":
            span.append(rng.choice(spec.fillers))
        elif kind == "confusable":
            span.extend(rng.choice(spec.confusables).split())
        else:
            span.append(rng.choice(pool))
    return tuple(span)


def _sample_utterance(
    rng: random.Random, spec: SyntheticSpec, pool: tuple[str, ...]
) -> Utterance:
    intent = rng.choices(spec.intents, weights=[i.weight for i in spec.intents])[0]
    template = rng.choice(intent.templates)
    tokens: list[str] = []
    labels: list[SlotLabel] = []
    for part in _template_parts(template):
        if part.startswith("{") and part.endswith("}"):
            slot = part[1:-1]
            if slot == spec.open_slot:
                phrase = _sample_open_span(rng, spec, pool)
            else:
                phrase = rng.choice(spec.closed_slots[slot])
            tokens.extend(phrase)
            labels.append(SlotLabel.begin(slot))
            labels.extend(SlotLabel.inside(slot) for _ in phrase[1:])
        else:
            tokens.append(part)
            labels.append(SlotLabel.outside())
    return Utterance(tuple(tokens), tuple(labels), intent.name)


def generate_corpus(seed: int, spec: SyntheticSpec | None = None) -> tuple[Dataset, Dataset]:
    """Generate (train, test) splits; raises if the test open slot is not
    at least 90% out-of-vocabulary with respect to the train split."""
    spec = spec or default_spec()
    rng = random.Random(seed)
    train_utts = [
        _sample_utterance(rng, spec, spec.open_content_train)
        for _ in range(spec.train_count)
    ]
    test_utts = [
        _sample_utterance(rng, spec, spec.open_content_test)
        for _ in range(spec.test_count)
    ]
    train = Dataset.from_utterances(train_utts)
    test = Dataset.from_utterances(test_utts)
    oov, total = open_slot_oov(train, test, spec.open_slot)
    if total and oov / total < 0.9:
        raise ValueError(
            f"open-slot test tokens are only {oov / total:.1%} out-of-vocabulary; "
            "need at least 90%"
        )
    return train, test


def open_slot_oov(train: Dataset, test: Dataset, open_slot: str) -> tuple[int, int]:
    """(out-of-vocabulary, all) counts of the test tokens labeled ``open_slot``,
    against the tokens of ``train``."""
    train_tokens = {tok for utt in train for tok in utt.tokens}
    open_tokens = [
        tok
        for utt in test
        for tok, lab in zip(utt.tokens, utt.gold_labels or ())
        if lab.slot_type == open_slot
    ]
    return sum(tok not in train_tokens for tok in open_tokens), len(open_tokens)


# ---------------------------------------------------------------------------
# spec files


def save_spec(spec: SyntheticSpec, path: str | Path) -> None:
    payload = {
        "intents": [
            {"name": i.name, "weight": i.weight, "templates": list(i.templates)}
            for i in spec.intents
        ],
        "closed_slots": {
            name: [" ".join(p) for p in phrases]
            for name, phrases in spec.closed_slots.items()
        },
        "open_slot": spec.open_slot,
        "open_content_train": list(spec.open_content_train),
        "open_content_test": list(spec.open_content_test),
        "fillers": list(spec.fillers),
        "confusables": list(spec.confusables),
        "filler_rate": spec.filler_rate,
        "confusable_rate": spec.confusable_rate,
        "open_len": list(spec.open_len),
        "train_count": spec.train_count,
        "test_count": spec.test_count,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _string(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError("not a string")
    return value


def _strings(value: object) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError("not a list of strings")
    return tuple(value)


def _number(value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError("not a number")
    return value


def _count(value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("not an integer")
    return value


def _length_range(value: object) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError("not a list of two integers")
    return _count(value[0]), _count(value[1])


def _phrase_lists(value: object) -> dict[str, tuple[Phrase, ...]]:
    if not isinstance(value, dict):
        raise ValueError("not an object of phrase lists")
    return {name: tuple(tuple(p.split()) for p in _strings(v)) for name, v in value.items()}


def _intents(value: object) -> tuple[IntentTemplates, ...]:
    if not isinstance(value, list):
        raise ValueError("not a list of intent objects")
    intents = []
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ValueError(f"entry {i} is not an object")
        values = {}
        for key, read in (("name", _string), ("weight", _number), ("templates", _strings)):
            if key not in item:
                raise ValueError(f"entry {i} has no {key!r}")
            try:
                values[key] = read(item[key])
            except ValueError as exc:
                raise ValueError(f"entry {i}: {key!r} is {exc}") from None
        intents.append(IntentTemplates(**values))
    return tuple(intents)


# how each spec file field is read; a field left out takes its SyntheticSpec default
_SPEC_FIELDS: dict[str, Callable[[object], object]] = {
    "intents": _intents,
    "closed_slots": _phrase_lists,
    "open_slot": _string,
    "open_content_train": _strings,
    "open_content_test": _strings,
    "fillers": _strings,
    "confusables": _strings,
    "filler_rate": _number,
    "confusable_rate": _number,
    "open_len": _length_range,
    "train_count": _count,
    "test_count": _count,
}


def load_spec(path: str | Path) -> SyntheticSpec:
    """Read a spec file written by ``save_spec`` or by hand. A missing
    ``confusable_rate`` is 0 when there are no confusables."""
    with open_text(path) as f:
        text = f.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: spec is not a JSON object")
    values = {}
    for name, read in _SPEC_FIELDS.items():
        if name in payload:
            try:
                values[name] = read(payload[name])
            except ValueError as exc:
                raise ValueError(f"{path}: spec field {name!r}: {exc}") from None
    for spec_field in fields(SyntheticSpec):
        if spec_field.default is MISSING and spec_field.name not in values:
            raise ValueError(f"{path}: missing spec field {spec_field.name!r}")
    if not values.get("confusables"):
        values.setdefault("confusable_rate", 0.0)
    try:
        return SyntheticSpec(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# built-in spec

_TRAIN_WORDS = (
    "running late dinner grabbing lunch stuck traffic almost home leaving "
    "office soon picking kids school groceries store movie tonight starts "
    "eight forgot keys inside house waiting outside gym done workout heading "
    "back need help moving couch borrow ladder weekend party saturday bring "
    "snacks drinks appointment moved friday flight delayed hours landed "
    "safely airport taxi arriving shortly package delivered front porch dog "
    "walked fed already raining hard umbrella game went overtime score tied "
    "pizza ordered arrives minutes babysitter confirmed staying extra shift "
    "car battery dead jumper cables garage door stayed open laundry machine "
    "finished folding clothes grandma visiting train station platform nine "
    "tickets booked aisle seats hotel checkin afternoon passport found drawer "
    "meeting pushed monday slides reviewed budget approved finally contract "
    "signed celebrate tacos"
).split()

_TEST_WORDS = (
    "canceled postponed rescheduled thursday presentation printer jammed "
    "upstairs neighbor borrowed drill returning sunday casserole oven cooling "
    "windows shut storm coming basement flooded plumber invoice overdue paid "
    "electrician rewired kitchen outlet sparked breaker tripped fuse replaced "
    "mailbox broken hinge repainted fence cedar planks lumber yard closes "
    "early roses bloomed garden hose leaking sprinkler repaired lawn mowed "
    "edges trimmed compost turned seedlings sprouted tomatoes ripening "
    "harvest basket overflowing jars sterilized jam simmering recipe doubled "
    "cinnamon added crust golden cooled rack sliced shared thermostat faulty "
    "furnace serviced filters swapped vents dusted chimney swept gutters "
    "cleared shingles loose patched sealant dried scaffolding removed "
    "inspection passed certificate framed hallway repainted banister sanded "
    "varnish drying stairwell bright bulbs swapped dimmer installed"
).split()

_FILLERS = ("to", "me", "the", "at", "my", "for", "a", "and", "you", "it")

# command-like phrases that also occur quoted inside free-text messages
# ("tell bob call me at noon"); these make open-slot boundaries genuinely
# ambiguous for a parser that never rewrites its input
_CONFUSABLES = (
    "call me",
    "wake me up",
    "set an alarm",
    "play some music",
    "the weather",
    "make a call",
    "set a timer",
    "play the song",
    "on speaker",
    "text me",
    "will it rain",
    "message me",
    "dial",
    "forecast",
)


def default_spec() -> SyntheticSpec:
    """The built-in messaging-assistant corpus: five intents, five closed
    slots, and an open free-text message slot."""
    intents = (
        IntentTemplates(
            "send_message",
            0.45,
            (
                "send {message} to {contact}",
                "tell {contact} {message}",
                "text {contact} saying {message}",
                "message {contact} that {message}",
                "send a note to {contact} saying {message}",
                "let {contact} know {message}",
            ),
        ),
        IntentTemplates(
            "set_alarm",
            0.14,
            (
                "set an alarm for {time}",
                "wake me up at {time}",
                "set a timer for {time}",
                "schedule an alarm at {time}",
            ),
        ),
        IntentTemplates(
            "play_music",
            0.14,
            (
                "play {song} by {artist}",
                "play some music by {artist}",
                "put on {song}",
                "play the song {song}",
            ),
        ),
        IntentTemplates(
            "get_weather",
            0.14,
            (
                "what is the weather in {city}",
                "weather forecast for {city}",
                "how cold is it in {city}",
                "will it rain in {city} tomorrow",
            ),
        ),
        IntentTemplates(
            "call_contact",
            0.13,
            (
                "call {contact}",
                "make a call to {contact}",
                "dial {contact} now",
                "call {contact} on speaker",
            ),
        ),
    )
    closed = {
        "contact": tuple(
            tuple(p.split())
            for p in (
                "alice", "bob", "carol", "david", "emma", "frank", "grace",
                "henry", "john smith", "mary jones", "uncle joe", "doctor brown",
            )
        ),
        "time": tuple(
            tuple(p.split())
            for p in (
                "6 am", "7 pm", "noon", "midnight", "8 30 pm", "five thirty",
                "ten fifteen am", "quarter past six",
            )
        ),
        "song": tuple(
            tuple(p.split())
            for p in (
                "bohemian rhapsody", "imagine", "hey jude", "purple rain",
                "thriller", "rolling stone", "stairway", "yellow submarine",
            )
        ),
        "artist": tuple(
            tuple(p.split())
            for p in (
                "queen", "the beatles", "prince", "adele", "coldplay",
                "taylor swift", "elvis", "madonna",
            )
        ),
        "city": tuple(
            tuple(p.split())
            for p in (
                "paris", "london", "tokyo", "berlin", "madrid", "new york",
                "san francisco", "oslo",
            )
        ),
    }
    return SyntheticSpec(
        intents=intents,
        closed_slots=closed,
        open_slot="message",
        open_content_train=tuple(_TRAIN_WORDS),
        open_content_test=tuple(_TEST_WORDS),
        fillers=_FILLERS,
        confusables=_CONFUSABLES,
    )
