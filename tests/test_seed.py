import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from iterdelex.corpus import Span
from iterdelex.gazetteer import Gazetteer, build_token_table
from iterdelex.seed import Candidate, find_matches, original_candidate, seed_candidates


def gaz(slot_phrases, context=(), ambiguous=(), groups=None):
    return Gazetteer(
        slot_phrases={s: frozenset(p) for s, p in slot_phrases.items()},
        context_phrases=frozenset(context),
        ambiguous_phrases=frozenset(ambiguous),
        shared_groups=dict(groups or {}),
    )


TABLE = build_token_table(["contact", "song"])


class TestSpan:
    def test_length(self):
        span = Span(2, 5, "contact")
        assert span.end - span.start == 3
        assert len(span) == 3  # a plain tuple of its three fields

    def test_ordering(self):
        assert Span(1, 2, "a") < Span(2, 3, "a")


class TestCandidate:
    def test_original(self):
        cand = original_candidate(("call", "mom"))
        assert cand.tokens == ("call", "mom")
        assert cand.alignment == (Span(0, 1, ""), Span(1, 2, ""))
        assert cand.natural_count == 2
        assert cand.alignment[-1].end == 2
        assert cand.provenance == "original"

    def test_alignment_must_tile(self):
        # span starting past the cursor leaves original token 1 uncovered
        with pytest.raises(ValueError, match="alignment gap"):
            Candidate(("a", "<contact>"), (Span(0, 1, ""), Span(2, 3, "contact")), "seed")

    @pytest.mark.parametrize("start,end", [(-1, 2), (3, 3), (4, 2)])
    def test_invalid_ranges_rejected(self, start, end):
        # natural tokens up to ``start``, then the span: a negative start is
        # an alignment gap, an empty or reversed span is rejected as such
        naturals = [Span(i, i + 1, "") for i in range(max(start, 0))]
        with pytest.raises(ValueError, match="alignment gap" if start < 0 else "empty span"):
            Candidate(
                ("a",) * len(naturals) + ("<contact>",),
                (*naturals, Span(start, end, "contact")),
                "seed",
            )

    def test_natural_count_counted_once(self):
        cand = original_candidate(("call", "mom")).substitute(
            (Span(1, 2, "contact"),), TABLE, "seed"
        )
        assert "natural_count" not in vars(cand)
        assert cand.natural_count == 1
        assert vars(cand)["natural_count"] == 1

    def test_alignment_length_must_match(self):
        with pytest.raises(ValueError, match="one entry per token"):
            Candidate(("a", "b"), (None,), "seed")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Candidate((), (), "seed")

    def test_source_extents(self):
        cand = Candidate(
            ("call", "<contact>", "now"),
            (Span(0, 1, ""), Span(1, 3, "contact"), Span(3, 4, "")),
            "seed",
        )
        assert tuple((e.start, e.end) for e in cand.alignment) == ((0, 1), (1, 3), (3, 4))
        assert cand.alignment[-1].end == 4
        assert cand.natural_count == 2

    def test_natural_entry_wider_than_one_token_rejected(self):
        with pytest.raises(ValueError, match="natural token aligned to 2"):
            Candidate(("a", "b"), (Span(0, 2, ""), Span(2, 3, "")), "seed")

    def test_key_ignores_provenance(self):
        a = Candidate(("x",), (Span(0, 1, "s"),), "seed")
        b = Candidate(("x",), (Span(0, 1, "s"),), "proper_span")
        assert a.key() == b.key()
        assert a != b

    def test_key_orders_natural_token_before_placeholder(self):
        # a natural token spelled like a placeholder ties with that
        # placeholder on tokens; the alignment then decides
        natural = original_candidate(("<s>", "x"))
        placeholder = Candidate(("<s>", "x"), (Span(0, 1, "s"), Span(1, 2, "")), "seed")
        assert natural.key() < placeholder.key()


class TestFindMatches:
    def test_simple_match(self):
        g = gaz({"contact": [("john", "smith")]})
        got = find_matches(("call", "john", "smith", "now"), g)
        assert got == (Span(1, 3, "contact"),)

    def test_longest_first_wins(self):
        g = gaz({"contact": [("john",), ("john", "smith")]})
        got = find_matches(("john", "smith",), g)
        assert got == (Span(0, 2, "contact"),)

    def test_non_overlapping_left_to_right(self):
        g = gaz({"song": [("hey", "jude"), ("jude", "blues")]})
        got = find_matches(("hey", "jude", "blues"), g)
        # same length: leftmost claims its tokens first
        assert got == (Span(0, 2, "song"),)

    def test_multiple_matches_sorted(self):
        g = gaz({"contact": [("mom",)], "song": [("jazz",)]})
        got = find_matches(("play", "jazz", "for", "mom"), g)
        assert got == (Span(1, 2, "song"), Span(3, 4, "contact"))

    def test_context_phrases_never_match(self):
        g = gaz({"song": [("play",), ("jazz",)]}, context=[("play",)])
        got = find_matches(("play", "jazz"), g)
        assert got == (Span(1, 2, "song"),)

    def test_ambiguous_phrases_never_match(self):
        g = gaz({"song": [("yesterday",)], "date": [("yesterday",)]},
                ambiguous=[("yesterday",)])
        assert find_matches(("yesterday",), g) == ()

    def test_shared_group_phrase_resolves_to_smallest_slot(self):
        g = gaz(
            {"song": [("thriller",)], "album": [("thriller",)]},
            groups={"media": ("album", "song")},
        )
        got = find_matches(("play", "thriller"), g)
        assert got == (Span(1, 2, "album"),)

    def test_no_usable_phrases(self):
        assert find_matches(("hi",), gaz({})) == ()

    def test_same_token_not_claimed_twice(self):
        g = gaz({"contact": [("ana",)]})
        got = find_matches(("ana", "calls", "ana"), g)
        assert got == (Span(0, 1, "contact"), Span(2, 3, "contact"))


# Mixed-case words, so that rows and tokens differ from each other in case
WORDS = ("ana", "Ana", "jazz", "JAZZ", "mom", "play")
PHRASES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(tuple)
# album and song share a placeholder group, contact stands alone
SLOTS = ("album", "contact", "song")


def lowered(phrase):
    return tuple(word.lower() for word in phrase)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_find_matches_agrees_with_oracle_on_random_gazetteers(data):
    slot_rows = data.draw(st.lists(st.tuples(st.sampled_from(SLOTS), PHRASES), max_size=10))
    attested = [phrase for _, phrase in slot_rows] or [("mom",)]
    excluded_rows = st.lists(st.one_of(PHRASES, st.sampled_from(attested)), max_size=3)
    context, ambiguous = data.draw(excluded_rows), data.draw(excluded_rows)
    g = gaz(
        {slot: [p for s, p in slot_rows if s == slot] for slot, _ in slot_rows},
        context, ambiguous, {"media": ("album", "song")},
    )
    slots_of: dict = {}
    for slot, phrase in slot_rows:
        slots_of.setdefault(lowered(phrase), set()).add(slot)
    excluded = {lowered(p) for p in context + ambiguous}
    table = {p: min(slots) for p, slots in slots_of.items() if p not in excluded}

    utterances = st.lists(st.sampled_from(WORDS + ("for",)), min_size=1, max_size=8)
    tokens, other = data.draw(utterances), data.draw(utterances)
    expected = tuple(oracle._match_phrases(lowered(tokens), table, max_len=3))
    assert find_matches(tokens, g) == expected
    find_matches(other, g)
    assert find_matches(tokens, g) == expected


class TestSeedCandidates:
    G = gaz({"contact": [("mom",)], "song": [("jazz",)]})

    def test_original_always_first(self):
        seeds = seed_candidates(("play", "jazz", "for", "mom"), self.G, TABLE)
        assert seeds[0].tokens == ("play", "jazz", "for", "mom")
        assert seeds[0].provenance == "original"

    def test_power_set_of_matches(self):
        seeds = seed_candidates(("play", "jazz", "for", "mom"), self.G, TABLE)
        token_sets = {s.tokens for s in seeds}
        assert token_sets == {
            ("play", "jazz", "for", "mom"),
            ("play", "<song>", "for", "mom"),
            ("play", "jazz", "for", "<contact>"),
            ("play", "<song>", "for", "<contact>"),
        }
        assert len(seeds) == 4

    def test_most_substituted_first_after_original(self):
        seeds = seed_candidates(("play", "jazz", "for", "mom"), self.G, TABLE)
        assert seeds[1].tokens == ("play", "<song>", "for", "<contact>")
        assert seeds[1].natural_count == 2

    def test_alignments_record_original_spans(self):
        seeds = seed_candidates(("play", "jazz", "for", "mom"), self.G, TABLE)
        both = seeds[1]
        assert both.alignment == (
            Span(0, 1, ""), Span(1, 2, "song"), Span(2, 3, ""), Span(3, 4, "contact")
        )
        assert both.alignment[-1].end == 4

    def test_cap_truncates_but_keeps_original(self):
        tokens = ("jazz", "mom", "jazz", "mom", "jazz")
        seeds = seed_candidates(tokens, self.G, TABLE, cap=4)
        assert len(seeds) == 4
        assert seeds[0].provenance == "original"
        # 5 matches -> the first kept subset substitutes all of them
        assert seeds[1].natural_count == 0

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            seed_candidates(("x",), self.G, TABLE, cap=0)

    def test_no_matches_yields_only_original(self):
        seeds = seed_candidates(("nothing", "here"), self.G, TABLE)
        assert len(seeds) == 1


def oracle_alignment(entries):
    """The oracle's ("nat",) / ("ph", start, end, slot) entries as Spans."""
    spans, cursor = [], 0
    for entry in entries:
        span = Span(cursor, cursor + 1, "") if entry[0] == "nat" else Span(*entry[1:])
        spans.append(span)
        cursor = span.end
    return tuple(spans)


GROUPED = build_token_table(SLOTS, {"media": ("album", "song")})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_substitute_agrees_with_oracle(data):
    """One-pass substitution of any sorted, disjoint span subset equals the
    oracle's, in tokens and in every alignment entry."""
    tokens = data.draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=10))
    n = len(tokens)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    spans = [
        Span(start, end, slot)
        for start, end in zip(bounds, bounds[1:])
        if (slot := data.draw(st.sampled_from((None,) + SLOTS)))
    ]
    cand = original_candidate(tokens).substitute(spans, GROUPED, "seed")
    surface_of = {slot: GROUPED.surface_for(slot) for slot in SLOTS}
    want_tokens, want_alignment = oracle._apply_subset(tokens, spans, surface_of)
    assert cand.tokens == want_tokens
    assert cand.alignment == oracle_alignment(want_alignment)
    assert cand.provenance == "seed"
