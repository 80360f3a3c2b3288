import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from iterdelex.augment import (
    AugmentConfig,
    AugmentStats,
    _substitute,
    delexicalize_training,
)
from iterdelex.corpus import Dataset, SlotLabel, Utterance, bio_spans
from iterdelex.gazetteer import build_token_table


def labels(*texts):
    return tuple(SlotLabel.parse(t) for t in texts)


def utt(text, tags, intent="x"):
    return Utterance(tuple(text.split()), labels(*tags.split()), intent)


TABLE = build_token_table(["contact", "song"])


def test_full_replacement_collapses_spans():
    source = utt("call john smith and play hey jude", "O B-contact I-contact O O B-song I-song")
    out = _substitute(source, bio_spans(source.gold_labels), TABLE)
    assert out.tokens == ("call", "<contact>", "and", "play", "<song>")
    assert out.gold_labels == labels("O", "B-contact", "O", "O", "B-song")
    assert out.gold_intent == "x"


def test_selective_replacement():
    source = utt("call john smith and play hey jude", "O B-contact I-contact O O B-song I-song")
    out = _substitute(source, bio_spans(source.gold_labels)[1:], TABLE)
    assert out.tokens == ("call", "john", "smith", "and", "play", "<song>")


def test_no_spans_is_identity():
    source = utt("hello there", "O O")
    out = _substitute(source, bio_spans(source.gold_labels), TABLE)
    assert out == source


def test_unlabeled_utterance_rejected():
    data = Dataset.from_utterances([Utterance(("hi",))])
    with pytest.raises(ValueError, match="gold labels"):
        delexicalize_training(data, AugmentConfig(0.5, 1, TABLE))


GOLD = ("O", "B-contact", "I-contact", "B-song", "I-song")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_substitute_agrees_with_oracle(data):
    """Replacing any chosen gold spans equals the oracle's substitution of
    them, labelled Begin on each placeholder and gold everywhere else."""
    tags = data.draw(st.lists(st.sampled_from(GOLD), min_size=1, max_size=10))
    source = Utterance(tuple(f"w{i}" for i in range(len(tags))), labels(*tags), "x")
    spans = bio_spans(source.gold_labels)
    choices = data.draw(st.lists(st.booleans(), min_size=len(spans), max_size=len(spans)))
    chosen = [span for span, take in zip(spans, choices) if take]
    out = _substitute(source, chosen, TABLE)

    surface_of = {slot: TABLE.surface_for(slot) for slot in TABLE.slot_types}
    want_tokens, alignment = oracle._apply_subset(source.tokens, chosen, surface_of)
    want_labels, cursor = [], 0
    for entry in alignment:
        if entry[0] == "ph":
            want_labels.append(SlotLabel.begin(entry[3]))
            cursor = entry[2]
        else:
            want_labels.append(source.gold_labels[cursor])
            cursor += 1
    assert out.tokens == want_tokens
    assert out.gold_labels == tuple(want_labels)
    assert out.gold_intent == "x"


def _corpus(n=400):
    utts = []
    for i in range(n):
        utts.append(utt(f"call john{i} smith", "O B-contact I-contact", "call"))
    return Dataset.from_utterances(utts)


class TestDelexicalizeTraining:
    def test_deterministic_for_fixed_seed(self):
        cfg = AugmentConfig(0.5, 11, TABLE)
        first, stats1 = delexicalize_training(_corpus(), cfg)
        second, stats2 = delexicalize_training(_corpus(), cfg)
        assert [u.tokens for u in first] == [u.tokens for u in second]
        assert stats1 == stats2

    def test_seed_changes_selection(self):
        a, _ = delexicalize_training(_corpus(), AugmentConfig(0.5, 1, TABLE))
        b, _ = delexicalize_training(_corpus(), AugmentConfig(0.5, 2, TABLE))
        assert [u.tokens for u in a] != [u.tokens for u in b]

    def test_fraction_tracks_probability(self):
        data = _corpus(2000)
        _, stats = delexicalize_training(data, AugmentConfig(0.75, 3, TABLE))
        assert stats.total_spans == 2000
        assert 0.70 <= stats.replaced_fraction <= 0.80

    def test_zero_replacement_utterances_dropped(self):
        data = _corpus(300)
        delexed, stats = delexicalize_training(data, AugmentConfig(0.25, 5, TABLE))
        # every surviving utterance actually contains a placeholder
        for u in delexed:
            assert "<contact>" in u.tokens
        assert len(delexed) == stats.replaced_spans  # one span per utterance here
        assert len(delexed) < len(data)

    def test_probability_bounds_validated(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                AugmentConfig(bad, 1, TABLE)

    def test_stats_fraction_empty(self):
        assert AugmentStats(0, 0).replaced_fraction == 0.0
