import dataclasses

import pytest

from oracle import is_valid_bio
from iterdelex.synth import (
    IntentTemplates,
    SyntheticSpec,
    default_spec,
    generate_corpus,
    load_spec,
    save_spec,
)


def small_spec(**overrides):
    base = dataclasses.replace(default_spec(), train_count=200, test_count=60)
    return dataclasses.replace(base, **overrides) if overrides else base


class TestSpecValidation:
    def test_default_spec_is_valid(self):
        spec = default_spec()
        assert spec.open_slot == "message"
        assert "contact" in spec.closed_slots

    def test_open_slot_cannot_be_closed(self):
        spec = default_spec()
        with pytest.raises(ValueError, match="also listed as closed"):
            dataclasses.replace(spec, open_slot="contact")

    def test_template_slots_must_exist(self):
        spec = default_spec()
        bad = spec.intents[:1] + (
            IntentTemplates("broken", 1.0, ("do {nope} now",)),
        )
        with pytest.raises(ValueError, match="unknown slot 'nope'"):
            dataclasses.replace(spec, intents=bad)

    def test_test_pool_leak_rejected(self):
        spec = default_spec()
        leaky = spec.open_content_test + (spec.open_content_train[0],)
        with pytest.raises(ValueError, match="also occur in training"):
            dataclasses.replace(spec, open_content_test=leaky)

    def test_carrier_word_in_test_pool_rejected(self):
        spec = default_spec()
        with pytest.raises(ValueError, match="also occur in training"):
            dataclasses.replace(
                spec, open_content_test=spec.open_content_test + ("saying",)
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("filler_rate", -0.1),
            ("filler_rate", 1.0),
            ("confusable_rate", 1.0),
            ("open_len", (0, 4)),
            ("open_len", (5, 2)),
            ("train_count", 0),
            ("intents", ()),
        ],
    )
    def test_bad_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(default_spec(), **{field: value})

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("open_content_train", (), "content pools"),
            ("open_content_test", (), "content pools"),
            ("fillers", (), "no filler words"),
            ("closed_slots", {"contact": ()}, "non-empty phrases"),
            ("closed_slots", {"contact": ((),)}, "non-empty phrases"),
        ],
    )
    def test_empty_word_pools_rejected(self, field, value, message):
        """Generation would draw from these pools and fail mid-way."""
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(default_spec(), **{field: value})

    def test_intent_weight_must_be_finite(self):
        for weight in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="weight"):
                IntentTemplates("x", weight, ("a",))

    def test_confusable_rate_needs_confusables(self):
        with pytest.raises(ValueError, match="no confusable words"):
            dataclasses.replace(default_spec(), confusables=())

    def test_intent_templates_validated(self):
        with pytest.raises(ValueError, match="weight"):
            IntentTemplates("x", 0.0, ("a",))
        with pytest.raises(ValueError, match="at least one template"):
            IntentTemplates("x", 1.0, ())


class TestGeneration:
    def test_counts_match_spec(self):
        train, test = generate_corpus(3, small_spec())
        assert len(train) == 200
        assert len(test) == 60

    def test_deterministic_per_seed(self):
        a_train, a_test = generate_corpus(5, small_spec())
        b_train, b_test = generate_corpus(5, small_spec())
        assert [u.tokens for u in a_train] == [u.tokens for u in b_train]
        assert [u.gold_labels for u in a_test] == [u.gold_labels for u in b_test]

    def test_seed_changes_output(self):
        a, _ = generate_corpus(5, small_spec())
        b, _ = generate_corpus(6, small_spec())
        assert [u.tokens for u in a] != [u.tokens for u in b]

    def test_labels_valid_and_intents_in_inventory(self):
        train, test = generate_corpus(9, small_spec())
        names = {i.name for i in default_spec().intents}
        for data in (train, test):
            for u in data:
                assert u.gold_labels is not None and is_valid_bio(u.gold_labels)
                assert u.gold_intent in names

    def test_open_slot_spans_lengths(self):
        spec = small_spec(open_len=(3, 5))
        train, _ = generate_corpus(2, spec)
        from iterdelex.corpus import bio_spans

        lengths = [
            end - start
            for u in train
            for start, end, slot in bio_spans(u.gold_labels)
            if slot == "message"
        ]
        assert lengths
        # confusable phrases may stretch a span beyond the sampled length
        assert min(lengths) >= 3
        assert max(lengths) <= 5 + 2

    def test_test_split_open_slot_mostly_oov(self):
        spec = default_spec()
        train, test = generate_corpus(7, spec)
        train_tokens = {tok for u in train for tok in u.tokens}
        open_tokens = [
            tok
            for u in test
            for tok, lab in zip(u.tokens, u.gold_labels)
            if lab.slot_type == "message"
        ]
        oov = sum(1 for t in open_tokens if t not in train_tokens) / len(open_tokens)
        assert oov >= 0.9

    def test_confusable_phrases_do_appear_inside_messages(self):
        from iterdelex.corpus import bio_spans

        train, _ = generate_corpus(7, default_spec())
        carrier_words = {"call", "wake", "play", "weather", "dial", "speaker"}
        hits = 0
        for u in train:
            for start, end, slot in bio_spans(u.gold_labels):
                if slot == "message" and carrier_words & set(u.tokens[start:end]):
                    hits += 1
        assert hits > 10

    def test_oov_guarantee_enforced(self):
        # a spec whose train pool swallows nearly the whole test pool cannot
        # reach 90% OOV and must be rejected at generation time
        spec = default_spec()
        # keep one genuinely unseen word so the leak check passes, but make
        # the open slot short and the pools tiny so overlap dominates
        with pytest.raises(ValueError, match="out-of-vocabulary"):
            tiny = dataclasses.replace(
                spec,
                open_content_train=("lonewordone", "lonewordtwo"),
                open_content_test=("lonewordthree",),
                fillers=("to", "me"),
                filler_rate=0.45,
                confusable_rate=0.45,
                open_len=(2, 3),
                train_count=120,
                test_count=120,
            )
            generate_corpus(1, tiny)


class TestSpecIO:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"intents": []}')
        with pytest.raises(ValueError, match="missing spec field"):
            load_spec(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_spec(path)

    def test_defaults_fill_optional_fields(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        save_spec(small_spec(), path)
        payload = json.loads(path.read_text())
        for key in ("confusables", "confusable_rate", "filler_rate", "open_len"):
            payload.pop(key)
        path.write_text(json.dumps(payload))
        spec = load_spec(path)
        assert spec.filler_rate == 0.03
        assert spec.open_len == (4, 9)
        # no confusables in the file -> their rate defaults off, not to 0.02
        assert spec.confusables == ()
        assert spec.confusable_rate == 0.0
