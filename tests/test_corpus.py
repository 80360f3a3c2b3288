import json
import logging
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import is_valid_bio
from iterdelex.corpus import (
    Dataset,
    SlotLabel,
    Span,
    Utterance,
    bio_spans,
    is_jsonl,
    load_dataset,
    repair_bio,
    save_dataset,
)


def L(text):
    return SlotLabel.parse(text)


def labels(*texts):
    return tuple(L(t) for t in texts)


class TestSlotLabel:
    def test_parse_round_trip(self):
        for text in ["O", "B-contact", "I-contact", "B-message", "I-x"]:
            assert str(SlotLabel.parse(text)) == text

    def test_constructors(self):
        assert SlotLabel.outside() == L("O")
        assert SlotLabel.begin("song") == L("B-song")
        assert SlotLabel.inside("song") == L("I-song")
        assert SlotLabel.outside().is_outside
        assert not SlotLabel.begin("song").is_outside

    @pytest.mark.parametrize("bad", ["", "B", "B-", "I-", "Q-x", "o", "b-x", "B_x"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            SlotLabel.parse(bad)

    @pytest.mark.parametrize("bad", ["B-my contact", "I-a\tb", "B- x", "B-x ", "I-x\u00a0y"])
    def test_parse_rejects_whitespace_in_slot_type(self, bad):
        with pytest.raises(ValueError, match=rf"slot type {re.escape(repr(bad[2:]))} "
                                             "contains whitespace"):
            SlotLabel.parse(bad)

    def test_kind_slot_consistency_enforced(self):
        with pytest.raises(ValueError):
            SlotLabel("O", "contact")
        with pytest.raises(ValueError):
            SlotLabel("B", "")
        with pytest.raises(ValueError):
            SlotLabel("X", "contact")

    def test_ordering_is_well_defined(self):
        ordered = sorted([L("I-b"), L("B-b"), L("O"), L("B-a")])
        # Outside sorts after Begin because "O" > "B"/"I"; all we rely on
        # anywhere is that the order is total and deterministic.
        assert ordered == sorted(ordered)
        assert len(set(ordered)) == 4


class TestUtterance:
    def test_requires_tokens(self):
        with pytest.raises(ValueError):
            Utterance(())

    def test_label_length_must_match(self):
        with pytest.raises(ValueError):
            Utterance(("a", "b"), labels("O"))


class TestDataset:
    def test_from_utterances_collects_inventories(self):
        data = Dataset.from_utterances(
            [
                Utterance(("call", "mom"), labels("O", "B-contact"), "call"),
                Utterance(("play", "sting"), labels("O", "B-artist"), "play_music"),
            ]
        )
        assert len(data) == 2
        assert L("O") in data.label_set
        assert data.slot_types == ("artist", "contact")
        assert data.intent_set == ("call", "play_music")

    def test_outside_always_present(self):
        data = Dataset.from_utterances([Utterance(("hi",))])
        assert data.label_set == (L("O"),)
        assert data.slot_types == ()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.lists(st.sampled_from(("O", "B-x", "I-x", "B-y", "I-z")), min_size=1, max_size=4),
        st.booleans(),
        st.none() | st.sampled_from(("call", "ask", "play")),
    ), max_size=6))
    def test_inventories_are_a_sorted_scan(self, rows):
        """For labeled, unlabeled and intent-less utterances alike, the label
        inventory is Outside plus every gold label and the intent inventory
        every gold intent, each sorted."""
        utts = [Utterance(("w",) * len(tags), labels(*tags) if labeled else None, intent)
                for tags, labeled, intent in rows]
        data = Dataset.from_utterances(utts)
        gold = {lab for utt in utts if utt.gold_labels for lab in utt.gold_labels}
        assert data.label_set == tuple(sorted(gold | {L("O")}))
        assert data.intent_set == tuple(sorted({u.gold_intent for u in utts} - {None}))
        assert data.utterances == tuple(utts)


class TestBioHelpers:
    def test_is_valid_bio(self):
        assert is_valid_bio(labels("O", "B-a", "I-a", "O"))
        assert not is_valid_bio(labels("O", "I-a"))
        assert not is_valid_bio(labels("B-a", "I-b"))
        assert is_valid_bio(labels("B-a", "B-a"))

    def test_repair_bio_promotes_orphans(self):
        fixed, n = repair_bio(labels("O", "I-a", "I-a", "B-b", "I-a"))
        assert n == 2
        assert fixed == labels("O", "B-a", "I-a", "B-b", "B-a")
        assert is_valid_bio(fixed)

    def test_repair_bio_no_op_on_valid(self):
        original = labels("B-a", "I-a", "O")
        fixed, n = repair_bio(original)
        assert n == 0
        assert fixed == original

    def test_bio_spans_basic(self):
        got = bio_spans(labels("O", "B-a", "I-a", "O", "B-b"))
        assert got == [(1, 3, "a"), (4, 5, "b")]

    def test_bio_spans_are_spans(self):
        (span,) = bio_spans(labels("O", "B-a", "I-a"))
        assert type(span) is Span
        assert (span.start, span.end, span.slot_type) == (1, 3, "a")

    def test_bio_spans_adjacent_begins_split(self):
        assert bio_spans(labels("B-a", "B-a")) == [(0, 1, "a"), (1, 2, "a")]

    def test_bio_spans_type_change_splits(self):
        assert bio_spans(labels("B-a", "I-b")) == [(0, 1, "a"), (1, 2, "b")]

    def test_bio_spans_trailing_span_closed(self):
        assert bio_spans(labels("O", "B-a", "I-a")) == [(1, 3, "a")]


SAMPLE = Dataset.from_utterances(
    [
        Utterance(("call", "john", "smith"), labels("O", "B-contact", "I-contact"), "call"),
        Utterance(("what", "time", "is", "it"), labels("O", "O", "O", "O"), "ask_time"),
        Utterance(("untagged", "words"), None, None),
    ]
)


class TestIO:
    @pytest.mark.parametrize("suffix,fmt", [(".jsonl", "jsonl"), (".conll", "conll")])
    def test_round_trip(self, tmp_path, suffix, fmt):
        path = tmp_path / f"data{suffix}"
        save_dataset(SAMPLE, path)
        loaded = load_dataset(path)
        # the inventories are read off the utterances when first asked for
        assert "label_set" not in vars(loaded) and "intent_set" not in vars(loaded)
        assert loaded.label_set == SAMPLE.label_set
        assert loaded.intent_set == ("ask_time", "call")
        assert [u.tokens for u in loaded] == [u.tokens for u in SAMPLE]
        assert [u.gold_intent for u in loaded] == ["call", "ask_time", None]
        # conll cannot represent "unlabeled": missing labels come back as all-O
        if fmt == "jsonl":
            assert [u.gold_labels for u in loaded] == [u.gold_labels for u in SAMPLE]
        else:
            assert loaded.utterances[2].gold_labels == labels("O", "O")

    def test_auto_format_by_suffix(self, tmp_path):
        """A name ending in .jsonl or .json is JSONL, any other CoNLL, for
        saving and loading alike."""
        save_dataset(SAMPLE, tmp_path / "ref.jsonl")
        save_dataset(SAMPLE, tmp_path / "ref.conll")
        for name, jsonl in [("d.jsonl", True), ("d.json", True), ("d.conll", False),
                            ("d.txt", False), ("d", False), ("d.JSONL", False),
                            ("d.jsonl.bak", False)]:
            assert is_jsonl(name) is jsonl
            path = tmp_path / name
            save_dataset(SAMPLE, path)
            reference = tmp_path / ("ref.jsonl" if jsonl else "ref.conll")
            assert path.read_bytes() == reference.read_bytes()
            assert load_dataset(path) == load_dataset(reference)
        assert (tmp_path / "ref.jsonl").read_text().startswith("{")

    def test_lowercasing_default(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"tokens": ["Call", "MOM"]}\n')
        data = load_dataset(path)
        assert data.utterances[0].tokens == ("call", "mom")

    def test_jsonl_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": ["ok"]}\n{"tokens": []}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_dataset(path)

    def test_jsonl_label_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": ["a", "b"], "labels": ["O"]}\n')
        with pytest.raises(ValueError, match="2 tokens"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "record,message",
        [
            ("5", "record is not a JSON object"),
            ('["call"]', "record is not a JSON object"),
            ('{"tokens": 5}', "'tokens' is not an array of strings"),
            ('{"tokens": "call"}', "'tokens' is not an array of strings"),
            ('{"tokens": ["call", null]}', "'tokens' is not an array of strings"),
            ('{"tokens": ["call", 5]}', "'tokens' is not an array of strings"),
            ('{"tokens": ["a"], "labels": 5}', "'labels' is not an array of strings"),
            ('{"tokens": ["a"], "labels": [null]}', "'labels' is not an array of strings"),
            ('{"tokens": ["a"], "intent": 5}', "'intent' is not a string"),
            ('{"tokens": ["a"], "intent": ""}', "intent name is empty"),
            ('{"tokens": ["a"], "intent": " \\n "}', "intent name is empty"),
            ('{"tokens": ["a"], "intent": "x\\ny"}', "intent name 'x.ny' contains a line break"),
            ('{"tokens": ["a"], "intent": "x\\ry"}', "intent name 'x.ry' contains a line break"),
            ('{"tokens": ["a"], "intent": "\\ncall\\nnow\\n"}',
             "intent name 'call.nnow' contains a line break"),
        ],
    )
    def test_jsonl_malformed_record_names_file_and_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": ["ok"]}\n' + record + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl:2: {message}"):
            load_dataset(path)

    def test_conll_empty_intent_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("#intent=call\ncall\tO\n\n#intent= \nbob\tB-contact\n")
        with pytest.raises(ValueError, match=r"bad\.conll:4: intent name is empty"):
            load_dataset(path)

    def test_intent_names_stripped_in_both_formats(self, tmp_path):
        """A JSONL intent loads stripped, as a CoNLL one does, so that it
        survives a round trip through CoNLL."""
        source = tmp_path / "in.jsonl"
        source.write_text('{"tokens": ["a"], "labels": ["O"], "intent": " call "}\n')
        loaded = load_dataset(source)
        assert loaded.utterances[0].gold_intent == "call"
        save_dataset(loaded, tmp_path / "out.conll")
        assert (tmp_path / "out.conll").read_text() == "#intent=call\na\tO\n\n"
        assert load_dataset(tmp_path / "out.conll") == loaded

    @pytest.mark.parametrize("token", ["", " ", "john smith", "tab\there", "nbsp\u00a0x"])
    def test_jsonl_token_empty_or_with_whitespace_rejected(self, tmp_path, token):
        path = tmp_path / "bad.jsonl"
        record = {"tokens": ["call", token], "labels": ["O", "B-contact"]}
        path.write_text('{"tokens": ["ok"]}\n' + json.dumps(record) + "\n")
        with pytest.raises(
            ValueError,
            match=rf"bad\.jsonl:2: token {re.escape(repr(token))} is empty or contains whitespace",
        ):
            load_dataset(path)

    @pytest.mark.parametrize("token", ["", " ", "john smith"])
    def test_conll_token_empty_or_with_whitespace_rejected(self, tmp_path, token):
        path = tmp_path / "bad.conll"
        path.write_text(f"ok\tO\n\n#intent=call\ncall\tO\n{token}\tB-contact\n")
        with pytest.raises(
            ValueError,
            match=rf"bad\.conll:4: token {re.escape(repr(token))} is empty or contains whitespace",
        ):
            load_dataset(path)

    @pytest.mark.parametrize("label,message", [
        ("Q-x", "invalid BIO label: 'Q-x'"),
        ("B-my contact", "slot type 'my contact' contains whitespace"),
    ])
    def test_jsonl_invalid_label_names_file_and_line(self, tmp_path, label, message):
        path = tmp_path / "bad.jsonl"
        record = {"tokens": ["call", "bob"], "labels": ["O", label]}
        path.write_text('{"tokens": ["ok"], "labels": ["O"]}\n' + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl:2: {re.escape(message)}"):
            load_dataset(path)

    @pytest.mark.parametrize("label,message", [
        ("B_x", "invalid BIO label: 'B_x'"),
        ("B-my contact", "slot type 'my contact' contains whitespace"),
        ("B-contact ", "slot type 'contact ' contains whitespace"),
    ])
    def test_conll_invalid_label_names_file_and_line(self, tmp_path, label, message):
        path = tmp_path / "bad.conll"
        path.write_text(f"ok\tO\n\n#intent=call\ncall\tO\nbob\t{label}\n")
        with pytest.raises(ValueError, match=rf"bad\.conll:5: {re.escape(message)}"):
            load_dataset(path)

    @pytest.mark.parametrize("suffix", [".jsonl", ".conll"])
    def test_equal_labels_share_one_object_per_load(self, tmp_path, suffix):
        path = tmp_path / f"data{suffix}"
        save_dataset(SAMPLE, path)
        first, again = load_dataset(path), load_dataset(path)
        outside = [lab for utt in first for lab in utt.gold_labels or () if lab.is_outside]
        assert len(outside) > 1 and all(lab is outside[0] for lab in outside)
        assert first.utterances[0].gold_labels == again.utterances[0].gold_labels
        assert first.utterances[0].gold_labels[0] is not again.utterances[0].gold_labels[0]

    @pytest.mark.parametrize("suffix", [".jsonl", ".conll"])
    @settings(max_examples=100, deadline=None)
    @given(tags=st.lists(st.lists(st.sampled_from(("O", "B-x", "I-x", "I-y")),
                                  min_size=1, max_size=4), min_size=1, max_size=4))
    def test_label_set_is_every_loaded_label(self, suffix, tags):
        """The loaders' label inventory is Outside plus every gold label of the
        loaded utterances, after orphan Inside labels are repaired: a label
        whose every occurrence was repaired is left out, its Begin is in."""
        if suffix == ".jsonl":
            text = "".join(json.dumps({"tokens": ["w"] * len(t), "labels": t}) + "\n"
                           for t in tags)
        else:
            text = "\n".join("".join(f"w\t{label}\n" for label in t) for t in tags)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"data{suffix}"
            path.write_text(text)
            data = load_dataset(path)
        gold = {lab for utt in data for lab in utt.gold_labels}
        assert data.label_set == tuple(sorted(gold | {SlotLabel.outside()}))

    @pytest.mark.parametrize("suffix", [".jsonl", ".conll"])
    def test_label_set_after_every_inside_is_repaired(self, tmp_path, suffix):
        path = tmp_path / f"data{suffix}"
        if suffix == ".jsonl":
            path.write_text('{"tokens": ["a", "b"], "labels": ["O", "I-x"]}\n'
                            '{"tokens": ["c"], "labels": ["I-x"]}\n')
        else:
            path.write_text("a\tO\nb\tI-x\n\nc\tI-x\n")
        assert load_dataset(path).label_set == labels("B-x", "O")

    def test_jsonl_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1"):
            load_dataset(path)

    def test_jsonl_ignores_unknown_keys(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"tokens": ["hi"], "confidence": 0.4, "id": 7}\n')
        assert len(load_dataset(path)) == 1

    def test_conll_malformed_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("call\tO\nmom B-contact\n")
        with pytest.raises(ValueError, match=r"bad\.conll:2"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no utterances"):
            load_dataset(path)

    def test_loader_repairs_orphan_insides(self, tmp_path, caplog):
        path = tmp_path / "data.jsonl"
        path.write_text('{"tokens": ["a", "b"], "labels": ["O", "I-x"]}\n')
        with caplog.at_level(logging.WARNING, logger="iterdelex.corpus"):
            data = load_dataset(path)
        assert data.utterances[0].gold_labels == labels("O", "B-x")
        assert any("repaired 1 orphan" in r.message for r in caplog.records)
