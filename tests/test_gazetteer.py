import gc
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_seed import PHRASES, SLOTS, WORDS, lowered

import oracle
from iterdelex import gazetteer as gazetteer_module
from iterdelex.corpus import Dataset, SlotLabel, Utterance
from iterdelex.gazetteer import (
    Gazetteer,
    build_gazetteer,
    build_token_table,
    load_gazetteer,
    save_gazetteer,
)
from iterdelex.seed import find_matches, seed_candidates


def labels(*texts):
    return tuple(SlotLabel.parse(t) for t in texts)


def utt(text, tags, intent="x"):
    return Utterance(tuple(text.split()), labels(*tags.split()), intent)


class TestTokenTable:
    def test_build_surfaces_follow_convention(self):
        table = build_token_table(["contact", "song"])
        assert table.surface_for("contact") == "<contact>"
        assert table.surface_for("song") == "<song>"
        assert table.surfaces == ("<contact>", "<song>")
        assert table.slot_types == ("contact", "song")

    def test_shared_group_uses_one_surface(self):
        table = build_token_table(
            ["song", "artist", "city"], {"media": ["song", "artist"]}
        )
        assert table.surface_for("song") == "<media>"
        assert table.surface_for("artist") == "<media>"
        assert table.surface_for("city") == "<city>"
        # canonical slot for a shared surface: alphabetically first member
        assert table.slot_for_surface("<media>") == "artist"

    def test_is_special_and_unknown_surface(self):
        table = build_token_table(["time"])
        assert table.is_special("<time>")
        assert not table.is_special("time")
        assert table.slot_for_surface("plain") is None

    def test_slot_in_two_groups_rejected(self):
        with pytest.raises(ValueError, match="two shared groups"):
            build_token_table(["a", "b"], {"g1": ["a"], "g2": ["a", "b"]})

    @pytest.mark.parametrize("slots,groups,message", [
        (["my contact"], None, "slot type 'my contact' contains whitespace"),
        (["contact", "x\ty"], None, "slot type 'x\\ty' contains whitespace"),
        (["song", "date"], {"my g": ["song", "date"]},
         "shared group name 'my g' contains whitespace"),
    ])
    def test_name_with_whitespace_rejected(self, slots, groups, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_token_table(slots, groups)

    def test_vocabulary_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            build_token_table(["contact"], vocabulary={"<contact>", "call"})
        build_token_table(["contact"], vocabulary={"call"})  # fine

    def test_shared_surface_requires_common_group(self):
        # slot "m" keeps its own surface <m>, which is also group m's
        with pytest.raises(ValueError, match="common group"):
            build_token_table(["m", "b"], {"m": ["b"]})
        with pytest.raises(ValueError, match="common group"):
            build_token_table(["a", "m"], {"m": ["a"]})
        build_token_table(["a", "b"], {"m": ["a", "b"]})
        build_token_table(["m", "b"], {"m": ["m", "b"]})

    def test_special_token_validation(self):
        with pytest.raises(ValueError):
            build_token_table([""])
        with pytest.raises(ValueError):
            build_token_table(["x"], {"": ["x"]})


TRAIN = Dataset.from_utterances(
    [
        utt("call john smith now", "O B-contact I-contact O"),
        utt("play yesterday by the beatles", "O B-song O B-artist I-artist"),
        utt("set a reminder for tomorrow morning ok", "O O O O O O O"),
        utt("play yesterday", "O B-song"),
        utt("remind me about yesterday", "O O O B-date"),
    ]
)


class TestBuildGazetteer:
    def test_slot_phrases_collected_per_type(self):
        gaz = build_gazetteer(TRAIN)
        assert ("john", "smith") in gaz.slot_phrases["contact"]
        assert ("the", "beatles") in gaz.slot_phrases["artist"]
        assert ("yesterday",) in gaz.slot_phrases["song"]
        assert ("yesterday",) in gaz.slot_phrases["date"]

    def test_context_phrases_are_outside_run_ngrams(self):
        gaz = build_gazetteer(TRAIN)
        assert ("call",) in gaz.context_phrases
        assert ("by",) in gaz.context_phrases
        assert ("set", "a", "reminder", "for") in gaz.context_phrases
        # n-grams never cross a slot span
        assert ("call", "john") not in gaz.context_phrases
        # cap: the 7-token all-Outside utterance contributes nothing longer than 4
        assert all(len(p) <= 4 for p in gaz.context_phrases)

    def test_cross_type_phrase_marked_ambiguous(self):
        gaz = build_gazetteer(TRAIN)
        assert ("yesterday",) in gaz.ambiguous_phrases
        assert ("john", "smith") not in gaz.ambiguous_phrases

    def test_shared_group_suppresses_ambiguity(self):
        gaz = build_gazetteer(TRAIN, {"when": ["song", "date"]})
        assert ("yesterday",) not in gaz.ambiguous_phrases
        assert gaz.shared_groups == {"when": ("date", "song")}

    def test_bad_shared_groups_rejected(self):
        with pytest.raises(ValueError, match="group 'g': no slot phrases for 'nosuch'"):
            build_gazetteer(TRAIN, {"g": ["song", "nosuch"]})
        with pytest.raises(ValueError, match="common group"):
            build_gazetteer(TRAIN, {"contact": ["song"]})

    def test_requires_gold_labels(self):
        data = Dataset.from_utterances([Utterance(("hi",))])
        with pytest.raises(ValueError, match="gold labels"):
            build_gazetteer(data)

    def test_max_phrase_len(self):
        gaz = build_gazetteer(TRAIN)
        assert gaz.max_phrase_len == 2
        empty = Gazetteer({}, frozenset(), frozenset())
        assert empty.max_phrase_len == 0

    def test_token_table_from_gazetteer(self):
        gaz = build_gazetteer(TRAIN, {"when": ["song", "date"]})
        table = gaz.token_table()
        assert table.surface_for("song") == "<when>"
        assert table.surface_for("date") == "<when>"
        assert table.surface_for("contact") == "<contact>"

    def test_token_table_built_once(self):
        gaz = build_gazetteer(TRAIN)
        assert gaz.token_table() is gaz.token_table()

    def test_placeholder_surface_in_training_tokens_rejected(self):
        data = Dataset.from_utterances(
            [*TRAIN, utt("call <contact> now", "O B-contact O")]
        )
        with pytest.raises(
            ValueError, match="^placeholder surface '<contact>' collides with a training token$"
        ):
            build_gazetteer(data)


class TestGazetteerIO:
    def test_round_trip(self, tmp_path):
        gaz = build_gazetteer(TRAIN, {"when": ["song", "date"]})
        path = tmp_path / "gaz.tsv"
        save_gazetteer(gaz, path)
        loaded = load_gazetteer(path)
        assert loaded == gaz

    def test_rows_are_three_columns(self, tmp_path):
        gaz = build_gazetteer(TRAIN)
        path = tmp_path / "gaz.tsv"
        save_gazetteer(gaz, path)
        for line in path.read_text().splitlines():
            assert len(line.split("\t")) == 3

    @pytest.mark.parametrize(
        "row,message",
        [
            ("slot\tcontact", "3 tab-separated"),
            ("slot\tcontact\t", "empty phrase"),
            ("slot\t\tjohn", "without a slot type"),
            ("group\t\tsong date", "without a group name"),
            ("context\tcontact\tcall", r"gaz\.tsv:1: context row with a name"),
            ("ambiguous\tcontact\tcall", r"gaz\.tsv:1: ambiguous row with a name"),
            ("mystery\t\tjohn", "unknown row kind"),
            ("slot\tmy contact\tbob", "slot type 'my contact' contains whitespace"),
            ("slot\tsong\tjazz\ngroup\tmy g\tsong", "group name 'my g' contains whitespace"),
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, row, message):
        path = tmp_path / "gaz.tsv"
        path.write_text(row + "\n")
        with pytest.raises(ValueError, match=message):
            load_gazetteer(path)

    def test_error_includes_line_number(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("slot\tcontact\tjohn\nbroken line\n")
        with pytest.raises(ValueError, match=r"gaz\.tsv:2"):
            load_gazetteer(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("slot\tcontact\tjohn\n\n\ncontext\t\tcall\n")
        loaded = load_gazetteer(path)
        assert ("john",) in loaded.slot_phrases["contact"]
        assert ("call",) in loaded.context_phrases

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_line_numbers_count_blank_lines(self, tmp_path, newline):
        path = tmp_path / "gaz.tsv"
        lines = [b"slot\tcontact\tjohn", b"\t\t", b" \x0c", b"", b"\t", b"broken line", b""]
        path.write_bytes(newline.join(lines))
        with pytest.raises(ValueError, match=r"gaz\.tsv:6: expected 3 tab-separated columns"):
            load_gazetteer(path)

    @pytest.mark.parametrize(
        "enabled,row", [(True, "slot\tcontact\tjohn"), (False, "slot\tcontact\tjohn"),
                        (True, "broken line"), (False, "broken line")],
    )
    def test_load_pauses_gc_and_restores_it(self, tmp_path, monkeypatch, enabled, row):
        """The collector is off while the file is read and back in its earlier
        state afterwards, also when the file is malformed; the load runs no
        collection itself."""
        path = tmp_path / "gaz.tsv"
        path.write_text(row + "\n")
        seen, collected = [], []

        def open_text(p):
            seen.append(gc.isenabled())
            return real_open_text(p)

        def collect(*generation):
            collected.append(generation)
            return real_collect(*generation)

        real_open_text, real_collect = gazetteer_module.open_text, gc.collect
        monkeypatch.setattr(gazetteer_module, "open_text", open_text)
        monkeypatch.setattr(gc, "collect", collect)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if row == "broken line":
                with pytest.raises(ValueError, match="3 tab-separated"):
                    load_gazetteer(path)
            else:
                assert ("john",) in load_gazetteer(path).slot_phrases["contact"]
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False]
        assert collected == []

    @pytest.mark.parametrize("phrase", ["jazz", "Jazz"])
    def test_match_table_built_by_load(self, tmp_path, phrase):
        """The load builds every table a parse reads, for lowercase files and
        for the lowering build: one ``seed_candidates`` call adds nothing."""
        path = tmp_path / "gaz.tsv"
        path.write_text(f"slot\tsong\t{phrase} music\ncontext\t\tplay\n")
        loaded = load_gazetteer(path)
        assert vars(loaded)["match_table"] == {("jazz", "music"): "song"}
        assert vars(loaded)["max_phrase_len"] == 2
        built = set(vars(loaded))
        seeds = seed_candidates(("play", "jazz", "music"), loaded, loaded.token_table())
        assert seeds[1].tokens == ("play", "<song>")
        assert set(vars(loaded)) == built


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_corpora_ambiguity_and_round_trip(data):
    """On random labeled corpora and random valid shared groups, a phrase is
    ambiguous exactly when two or more slot types attest it and they are not
    all in one group; a save and a load give back an equal gazetteer with
    the same placeholder surfaces and match table."""
    segment = st.tuples(st.sampled_from((None,) + SLOTS), PHRASES)
    corpus = data.draw(st.lists(st.lists(segment, min_size=1, max_size=4),
                                min_size=1, max_size=6))
    utterances, slots_of = [], {}
    for segments in corpus:
        tokens, tags = [], []
        for slot, phrase in segments:
            tokens += phrase
            if slot is None:
                tags += ["O"] * len(phrase)
            else:
                tags += [f"B-{slot}"] + [f"I-{slot}"] * (len(phrase) - 1)
                slots_of.setdefault(phrase, set()).add(slot)
        utterances.append(utt(" ".join(tokens), " ".join(tags)))
    attested = sorted(set().union(*slots_of.values()))

    # each attested slot joins one of two groups or stands alone; a group
    # may be named after one of its own members, never after a solo slot
    names = st.sampled_from((None, "media", "other"))
    group_of = {s: g for s in attested if (g := data.draw(names))}
    groups = {}
    for slot, g in group_of.items():
        groups.setdefault(g, []).append(slot)
    if groups and data.draw(st.booleans()):
        members = groups.pop(data.draw(st.sampled_from(sorted(groups))))
        groups[members[0]] = members

    gaz = build_gazetteer(Dataset.from_utterances(utterances), groups)
    assert gaz.ambiguous_phrases == {
        phrase for phrase, slots in slots_of.items()
        if len(slots) >= 2 and not any(slots <= set(ms) for ms in groups.values())
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gaz.tsv"
        save_gazetteer(gaz, path)
        loaded = load_gazetteer(path)
    assert loaded == gaz
    assert loaded.token_table().surfaces == gaz.token_table().surfaces
    assert loaded.match_table == gaz.match_table


BLANK_LINES = ("", " ", "\t", "\t\t", "\x0c")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hand_written_files_load_the_lazy_match_table(data):
    """On hand-written files (rows of all four kinds in any order, a phrase
    under several slot types, context and ambiguous rows that differ from
    slot phrases only in case, runs of spaces, blank and whitespace lines),
    the match table that ``load_gazetteer`` builds is the one a gazetteer of
    the same fields builds on first use, and matching agrees with the oracle.
    Both all-lowercase files and mixed-case files are drawn."""
    lowercase = data.draw(st.booleans())
    shared = data.draw(PHRASES)
    slot_rows = [(slot, data.draw(PHRASES)) for slot in SLOTS]  # the group needs them all
    slot_rows += [(slot, shared) for slot in data.draw(
        st.lists(st.sampled_from(SLOTS), min_size=2, max_size=3, unique=True))]
    slot_rows += data.draw(st.lists(st.tuples(st.sampled_from(SLOTS), PHRASES), max_size=8))
    recased = st.sampled_from([phrase for _, phrase in slot_rows]).flatmap(
        lambda phrase: st.tuples(*(st.sampled_from((w.lower(), w.upper(), w.title()))
                                   for w in phrase)))
    excluded = st.lists(PHRASES | recased, max_size=3)
    context, ambiguous = data.draw(excluded), data.draw(excluded)
    if lowercase:
        slot_rows = [(slot, lowered(phrase)) for slot, phrase in slot_rows]
        context, ambiguous = [lowered(p) for p in context], [lowered(p) for p in ambiguous]

    def written(phrase):
        gaps = data.draw(st.lists(st.sampled_from((" ", "  ", "   ")),
                                  min_size=len(phrase) - 1, max_size=len(phrase) - 1))
        return phrase[0] + "".join(gap + word for gap, word in zip(gaps, phrase[1:]))

    lines = [f"slot\t{slot}\t{written(phrase)}" for slot, phrase in slot_rows]
    lines += [f"context\t\t{written(phrase)}" for phrase in context]
    lines += [f"ambiguous\t\t{written(phrase)}" for phrase in ambiguous]
    if data.draw(st.booleans()):
        lines.append(f"group\tmedia\t{written(('album', 'song'))}")
    lines += data.draw(st.lists(st.sampled_from(BLANK_LINES), max_size=4))
    text = "\n".join(data.draw(st.permutations(lines))) + data.draw(st.sampled_from(("", "\n")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gaz.tsv"
        path.write_text(text, encoding="utf-8")
        loaded = load_gazetteer(path)

    assert "match_table" in vars(loaded)  # built by the load, not by the first parse
    assert loaded.slot_phrases == {
        slot: frozenset(p for s, p in slot_rows if s == slot) for slot in SLOTS
    }
    fresh = Gazetteer(loaded.slot_phrases, loaded.context_phrases,
                      loaded.ambiguous_phrases, loaded.shared_groups)
    assert loaded.match_table == fresh.match_table

    slots_of: dict = {}
    for slot, phrase in slot_rows:
        slots_of.setdefault(lowered(phrase), set()).add(slot)
    excluded_keys = {lowered(p) for p in loaded.context_phrases | loaded.ambiguous_phrases}
    table = {p: min(slots) for p, slots in slots_of.items() if p not in excluded_keys}
    tokens = data.draw(st.lists(st.sampled_from(WORDS + ("for",)), min_size=1, max_size=8))
    expected = oracle._match_phrases(lowered(tokens), table, max_len=3)
    assert find_matches(tokens, loaded) == tuple(expected)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_loaded_max_phrase_len_is_the_longest_key(data):
    """The ``max_phrase_len`` that ``load_gazetteer`` sets is the token count
    of the match table's longest key, also when context or ambiguous rows
    remove every longest slot phrase, when the file is mixed
    case, and when it has no slot rows."""
    phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(tuple)
    slot_rows = data.draw(st.lists(st.tuples(st.sampled_from(SLOTS), phrase), max_size=5))
    excluded = data.draw(st.lists(phrase, max_size=3))
    if slot_rows and data.draw(st.booleans()):
        longest = max(len(p) for _, p in slot_rows)
        excluded += [p for _, p in slot_rows if len(p) == longest]
    if data.draw(st.booleans()):
        slot_rows = [(slot, lowered(p)) for slot, p in slot_rows]
        excluded = [lowered(p) for p in excluded]
    kinds = st.sampled_from(("context", "ambiguous"))
    lines = [f"slot\t{slot}\t{' '.join(p)}" for slot, p in slot_rows]
    lines += [f"{data.draw(kinds)}\t\t{' '.join(p)}" for p in excluded]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gaz.tsv"
        path.write_text("\n".join(data.draw(st.permutations(lines))) + "\n", encoding="utf-8")
        loaded = load_gazetteer(path)
    assert vars(loaded)["max_phrase_len"] == max(map(len, loaded.match_table), default=0)
