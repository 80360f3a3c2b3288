import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from iterdelex.backend import (
    CachingBackend,
    ParseResult,
    ScriptedBackend,
    entropy,
    one_hot,
    peaked,
    uniform,
)
import iterdelex.engine as engine
from iterdelex.corpus import SlotLabel, Span
from iterdelex.engine import (
    EngineConfig,
    generate_rewrites,
    iterative_parse,
    project_labels,
    score,
)
from iterdelex.gazetteer import Gazetteer, build_token_table
from iterdelex.seed import Candidate, original_candidate


def labels(*texts):
    return tuple(SlotLabel.parse(t) for t in texts)


def gaz(slot_phrases, groups=None):
    return Gazetteer(
        slot_phrases={s: frozenset(p) for s, p in slot_phrases.items()},
        context_phrases=frozenset(),
        ambiguous_phrases=frozenset(),
        shared_groups=dict(groups or {}),
    )


MSG_LABELS = labels("O", "B-msg", "I-msg")


def make_backend(script, intent="note", label_set=MSG_LABELS, intents=("note", "other")):
    return ScriptedBackend(label_set, intents, script, uniform(), intent)


def fake_parse(texts, label_set=MSG_LABELS):
    """ParseResult predicting exactly the given labels, near-one-hot rows."""
    rows = [one_hot(t).resolve(label_set) for t in texts]
    return ParseResult.from_distributions(label_set, ("note",), np.array(rows), [1.0])


class TestScore:
    def test_hand_value(self):
        parse = fake_parse(["O", "O"])
        # one-hot rows carry zero entropy -> floor kicks in
        assert score(parse) == 2 / 1e-12

    def test_length_over_summed_entropy(self):
        backend = make_backend({"a": peaked("O", 0.9), "b": peaked("B-msg", 0.6)})
        parse = backend.parse(["a", "b"])
        expected = 2 / (entropy(parse.distributions[0]) + entropy(parse.distributions[1]))
        assert score(parse) == pytest.approx(expected, rel=1e-12)

    def test_floor_parameter(self, monkeypatch):
        # the floor is the module constant, read on every call
        monkeypatch.setattr(engine, "DEFAULT_ENTROPY_FLOOR", 0.5)
        assert score(fake_parse(["O", "O", "O"])) == 3 / 0.5

    def test_confident_parse_scores_higher(self):
        backend = make_backend({"a": peaked("O", 0.99), "b": peaked("O", 0.55)})
        assert score(backend.parse(["a", "a"])) > score(backend.parse(["b", "b"]))


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig(ood_slots=("msg",))
        assert cfg.tau == 1e-5 and cfg.top_k == 8 and cfg.seed_cap == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau=-0.1),
            dict(top_k=0),
            dict(seed_cap=0),
            dict(tau=float("nan")),
            dict(top_k=2.5),
            dict(top_k=2.0),
            dict(top_k="2"),
            dict(top_k=True),
            dict(seed_cap=1.5),
            dict(seed_cap=True),
            dict(seed_cap=False),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(ood_slots=("msg",), **kwargs)

    @pytest.mark.parametrize("ood_slots", ["msg", "contact,message", ""])
    def test_string_ood_slots_rejected(self, ood_slots):
        with pytest.raises(ValueError, match="not a string"):
            EngineConfig(ood_slots=ood_slots)

    @pytest.mark.parametrize("top_k", [1, 3, np.int64(3)])
    def test_integral_values_accepted(self, top_k):
        cfg = EngineConfig(ood_slots=("msg",), top_k=top_k, seed_cap=top_k)
        assert cfg.top_k == top_k and cfg.seed_cap == top_k

    def test_list_ood_slots_parse_as_the_tuple(self):
        """A list, as a JSON job gives it, rewrites what the tuple does."""
        backend = make_backend({"hi": peaked("O", 0.99), "there": peaked("I-msg", 0.4)})
        tokens = ["hi", "there", "hi"]
        got = iterative_parse(tokens, backend, gaz({}), TABLE,
                              EngineConfig(ood_slots=["msg"], tau=0.5))
        want = iterative_parse(tokens, backend, gaz({}), TABLE,
                               EngineConfig(ood_slots=("msg",), tau=0.5))
        assert len(want.evaluations) > 1  # the msg run was rewritten
        assert got.evaluations == want.evaluations and got.labels == want.labels

    def test_infinite_tau_allowed(self):
        assert EngineConfig(ood_slots=("msg",), tau=float("inf")).tau == float("inf")


TABLE = build_token_table(["msg"])
CFG = EngineConfig(ood_slots=("msg",))


class TestGenerateRewrites:
    def test_proper_span_collapses(self):
        cand = original_candidate(("alpha", "beta", "gamma"))
        parse = fake_parse(["O", "B-msg", "I-msg"])
        kids = generate_rewrites(cand, parse, TABLE, CFG)
        assert [k.tokens for k in kids] == [("alpha", "<msg>")]
        assert kids[0].provenance == "proper_span"
        assert kids[0].alignment == (Span(0, 1, ""), Span(1, 3, "msg"))

    def test_orphan_inside_run_collapses_as_improper(self):
        cand = original_candidate(("beta", "gamma"))
        parse = fake_parse(["I-msg", "I-msg"])
        kids = generate_rewrites(cand, parse, TABLE, CFG)
        assert [k.provenance for k in kids] == ["improper_span"]
        assert kids[0].tokens == ("<msg>",)
        assert kids[0].alignment == (Span(0, 2, "msg"),)

    def test_non_ood_slots_untouched(self):
        table = build_token_table(["msg", "city"])
        cand = original_candidate(("paris", "beta"))
        parse = fake_parse(
            ["B-city", "B-msg"], label_set=labels("O", "B-city", "B-msg", "I-msg")
        )
        kids = generate_rewrites(cand, parse, table, CFG)
        assert [k.tokens for k in kids] == [("paris", "<msg>")]

    def test_span_containing_placeholder_not_recollapsed(self):
        cand = Candidate(("alpha", "<msg>"), (Span(0, 1, ""), Span(1, 2, "msg")), "seed")
        parse = fake_parse(["O", "B-msg"])
        # the only candidate move would collapse [1,2) which is already special
        kids = [k for k in generate_rewrites(cand, parse, TABLE, CFG)
                if k.provenance != "expansion"]
        assert kids == []

    def test_run_breaks_at_begin_and_type_change(self):
        cand = original_candidate(("a", "b", "c", "d"))
        parse = fake_parse(["B-msg", "B-msg", "I-msg", "O"])
        kids = generate_rewrites(cand, parse, TABLE, CFG)
        assert {k.tokens for k in kids} == {
            ("<msg>", "b", "c", "d"),
            ("a", "<msg>", "d"),
        }


class TestExpansion:
    def backend(self, uncertain=0.55, confident=0.999):
        return make_backend(
            {
                "noise": peaked("O", uncertain),
                "quiet": peaked("O", confident),
                "<msg>": one_hot("B-msg"),
            }
        )

    def run_expansion(self, tokens, alignment, cfg=None):
        cand = Candidate(tuple(tokens), tuple(alignment), "seed")
        parse = self.backend().parse(cand.tokens)
        return [
            k for k in generate_rewrites(cand, parse, TABLE, cfg or CFG)
            if k.provenance == "expansion"
        ]

    def test_absorbs_uncertain_neighbors_both_sides(self):
        kids = self.run_expansion(
            ("noise", "<msg>", "noise"), (Span(0, 1, ""), Span(1, 2, "msg"), Span(2, 3, "")),
            EngineConfig(ood_slots=("msg",), tau=0.5),
        )
        assert [k.tokens for k in kids] == [("<msg>",)]
        assert kids[0].alignment == (Span(0, 3, "msg"),)

    def test_confident_neighbor_blocks(self):
        kids = self.run_expansion(
            ("quiet", "<msg>", "noise"), (Span(0, 1, ""), Span(1, 2, "msg"), Span(2, 3, "")),
            EngineConfig(ood_slots=("msg",), tau=0.5),
        )
        # only the right side is absorbed
        assert [k.tokens for k in kids] == [("quiet", "<msg>")]
        assert kids[0].alignment == (Span(0, 1, ""), Span(1, 3, "msg"))

    def test_no_absorbable_neighbor_yields_nothing(self):
        kids = self.run_expansion(
            ("quiet", "<msg>", "quiet"), (Span(0, 1, ""), Span(1, 2, "msg"), Span(2, 3, "")),
            EngineConfig(ood_slots=("msg",), tau=0.5),
        )
        assert kids == []

    def test_other_placeholder_blocks_absorption(self):
        table = build_token_table(["msg", "city"])
        backend = ScriptedBackend(
            labels("O", "B-city", "B-msg"),
            ("note",),
            {"noise": peaked("O", 0.55)},
            uniform(),
            "note",
        )
        cand = Candidate(
            ("<city>", "<msg>", "noise"),
            (Span(0, 1, "city"), Span(1, 2, "msg"), Span(2, 3, "")),
            "seed",
        )
        parse = backend.parse(cand.tokens)
        kids = [
            k
            for k in generate_rewrites(
                cand, parse, table, EngineConfig(ood_slots=("msg",), tau=0.5)
            )
            if k.provenance == "expansion"
        ]
        assert [k.tokens for k in kids] == [("<city>", "<msg>")]
        assert kids[0].alignment == (Span(0, 1, "city"), Span(1, 3, "msg"))

    def test_slot_comes_from_alignment_not_surface(self):
        # shared surface <m>: canonical slot is "a", but this placeholder was
        # seeded for slot "b" — only "b" is rewriteable here
        table = build_token_table(["a", "b"], {"m": ["a", "b"]})
        backend = ScriptedBackend(
            labels("O", "B-a", "B-b"),
            ("note",),
            {"noise": peaked("O", 0.55)},
            uniform(),
            "note",
        )
        cand = Candidate(("<m>", "noise"), (Span(0, 1, "b"), Span(1, 2, "")), "seed")
        parse = backend.parse(cand.tokens)
        cfg_b = EngineConfig(ood_slots=("b",), tau=0.5)
        kids = [
            k for k in generate_rewrites(cand, parse, table, cfg_b)
            if k.provenance == "expansion"
        ]
        assert [k.alignment for k in kids] == [(Span(0, 2, "b"),)]
        cfg_a = EngineConfig(ood_slots=("a",), tau=0.5)
        assert [
            k for k in generate_rewrites(cand, parse, table, cfg_a)
            if k.provenance == "expansion"
        ] == []


class TestProjection:
    def test_natural_tokens_copy_predictions(self):
        cand = original_candidate(("call", "mom"))
        parse = fake_parse(["O", "B-msg"])
        out, repairs = project_labels(cand, parse)
        assert out == labels("O", "B-msg")
        assert repairs == 0

    def test_placeholder_expands_to_begin_inside(self):
        cand = Candidate(("hi", "<msg>"), (Span(0, 1, ""), Span(1, 4, "msg")), "seed")
        parse = fake_parse(["O", "B-msg"])
        out, repairs = project_labels(cand, parse)
        assert out == labels("O", "B-msg", "I-msg", "I-msg")
        assert repairs == 0

    def test_alignment_slot_wins_over_prediction(self):
        cand = Candidate(("<msg>",), (Span(0, 2, "msg"),), "seed")
        parse = fake_parse(["O"])  # parser disagrees; alignment is trusted
        out, _ = project_labels(cand, parse)
        assert out == labels("B-msg", "I-msg")

    def test_orphan_inside_prediction_repaired(self):
        cand = original_candidate(("a", "b"))
        parse = fake_parse(["O", "I-msg"])
        out, repairs = project_labels(cand, parse)
        assert out == labels("O", "B-msg")
        assert repairs == 1

    def test_length_mismatch_rejected(self):
        cand = original_candidate(("a", "b"))
        with pytest.raises(ValueError, match="does not match"):
            project_labels(cand, fake_parse(["O"]))


PROJECTION_SLOTS = ("contact", "msg")
PROJECTION_LABELS = labels("O", "B-contact", "I-contact", "B-msg", "I-msg")


@st.composite
def tiled_candidates(draw):
    """A candidate tiling its source with natural tokens and placeholder
    spans, and a random predicted label for each of its tokens."""
    pieces = draw(st.lists(
        st.one_of(st.none(), st.tuples(st.integers(1, 4), st.sampled_from(PROJECTION_SLOTS))),
        min_size=1, max_size=12,
    ))
    tokens, alignment, cursor = [], [], 0
    for piece in pieces:
        if piece is None:
            tokens.append(f"w{cursor}")
            alignment.append(Span(cursor, cursor + 1, ""))
            cursor += 1
        else:
            length, slot = piece
            tokens.append(f"<{slot}>")
            alignment.append(Span(cursor, cursor + length, slot))
            cursor += length
    predicted = draw(st.lists(
        st.sampled_from([str(lab) for lab in PROJECTION_LABELS]),
        min_size=len(tokens), max_size=len(tokens),
    ))
    return Candidate(tuple(tokens), tuple(alignment), "seed"), predicted


@settings(max_examples=300, deadline=None)
@given(tiled_candidates())
def test_projection_is_valid_bio_over_the_source(case):
    cand, predicted = case
    out, repairs = project_labels(cand, fake_parse(predicted, PROJECTION_LABELS))
    assert len(out) == cand.alignment[-1].end
    assert oracle.is_valid_bio(out)
    cursor, repaired = 0, 0
    for pos, entry in enumerate(cand.alignment):
        if not entry.slot_type:
            want = SlotLabel.parse(predicted[pos])
            if out[cursor] != want:  # only an orphan inside label changes
                assert want.kind == "I" and out[cursor] == SlotLabel.begin(want.slot_type)
                repaired += 1
            cursor += 1
        else:
            inside = (SlotLabel.inside(entry.slot_type),) * (entry.end - entry.start - 1)
            assert out[entry.start:entry.end] == (SlotLabel.begin(entry.slot_type),) + inside
            cursor = entry.end
    assert repairs == repaired


class TestIterativeParse:
    """Integration on a fully scripted backend with hand-checkable scores."""

    def setup_method(self):
        self.backend = make_backend(
            {
                "alpha": peaked("O", 0.9),
                "beta": peaked("B-msg", 0.6),
                "gamma": peaked("I-msg", 0.6),
                "<msg>": one_hot("B-msg"),
            }
        )
        self.gaz = gaz({})
        self.e_alpha = entropy(peaked("O", 0.9).resolve(MSG_LABELS))
        self.e_middling = entropy(peaked("B-msg", 0.6).resolve(MSG_LABELS))

    def test_full_loop_collapse_then_expand(self):
        out = iterative_parse(("alpha", "beta", "gamma"), self.backend, self.gaz, TABLE, CFG)
        # iter1 collapses the predicted span, iter2 absorbs "alpha"
        assert out.best.tokens == ("<msg>",)
        assert out.best.alignment == (Span(0, 3, "msg"),)
        assert out.iterations_run == 2
        assert out.labels == labels("B-msg", "I-msg", "I-msg")
        assert out.intent == "note"
        assert out.score == 1 / 1e-12
        assert out.candidates_evaluated == 3  # original, collapsed, fully absorbed

    def test_scores_along_the_way(self):
        out = iterative_parse(("alpha", "beta", "gamma"), self.backend, self.gaz, TABLE, CFG)
        expected0 = 3 / (self.e_alpha + 2 * self.e_middling)
        expected1 = 2 / self.e_alpha
        assert out.evaluations[0][1] == pytest.approx(expected0, rel=1e-12)
        assert out.evaluations[1][1] == pytest.approx(expected1, rel=1e-12)
        assert [it for it, _, _ in out.evaluations] == [0, 1, 2]
        assert [c.provenance for _, _, c in out.evaluations] == [
            "original", "proper_span", "expansion"
        ]

    def test_tau_blocks_expansion(self):
        cfg = EngineConfig(ood_slots=("msg",), tau=0.5)
        out = iterative_parse(("alpha", "beta", "gamma"), self.backend, self.gaz, TABLE, cfg)
        assert out.best.tokens == ("alpha", "<msg>")
        assert out.iterations_run == 2  # second round ran and produced nothing
        assert out.labels == labels("O", "B-msg", "I-msg")

    def test_no_ood_slots_means_no_rewrites(self):
        cfg = EngineConfig(ood_slots=())
        out = iterative_parse(("alpha", "beta", "gamma"), self.backend, self.gaz, TABLE, cfg)
        assert out.best.tokens == ("alpha", "beta", "gamma")
        assert out.iterations_run == 1
        assert out.candidates_evaluated == 1

    def test_seeded_placeholder_outscores_original(self):
        g = gaz({"msg": [("beta",)]})
        backend = make_backend(
            {
                "alpha": peaked("O", 0.9),
                "beta": peaked("B-msg", 0.6),
                "<msg>": one_hot("B-msg"),
            }
        )
        cfg = EngineConfig(ood_slots=("msg",), tau=0.5)
        out = iterative_parse(("alpha", "beta"), backend, g, TABLE, cfg)
        assert out.best.tokens == ("alpha", "<msg>")
        assert out.evaluations[0][2].provenance == "original"
        assert out.evaluations[1][2].provenance == "seed"
        assert out.labels == labels("O", "B-msg")

    def test_deterministic(self):
        runs = [
            iterative_parse(("alpha", "beta", "gamma"), self.backend, self.gaz, TABLE, CFG)
            for _ in range(2)
        ]
        assert runs[0].best == runs[1].best
        assert runs[0].evaluations == runs[1].evaluations
        assert runs[0].score == runs[1].score

    def test_empty_utterance_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            iterative_parse((), self.backend, self.gaz, TABLE, CFG)

    def test_duplicate_candidates_evaluated_once(self):
        # both single-seed substitutions rewrite into the double-substituted
        # candidate, which is itself a seed: it must be evaluated exactly once
        table = build_token_table(["a", "b"])
        g = gaz({"a": [("foo",)], "b": [("bar",)]})
        backend = ScriptedBackend(
            labels("O", "B-a", "B-b"),
            ("note",),
            {
                "foo": peaked("B-a", 0.6),
                "bar": peaked("B-b", 0.6),
                "<a>": one_hot("B-a"),
                "<b>": one_hot("B-b"),
            },
            uniform(),
            "note",
        )
        cfg = EngineConfig(ood_slots=("a", "b"), tau=1e-5)
        out = iterative_parse(("foo", "bar"), backend, g, table, cfg)
        target = ("<a>", "<b>")
        hits = [c for _, _, c in out.evaluations if c.tokens == target]
        assert len(hits) == 1
        assert out.candidates_evaluated == len(out.trace_text().splitlines())

    def test_beam_truncation_limits_expansion(self):
        # with top_k=1 only the best seed survives iteration 0, so the first
        # round generates strictly fewer candidates than with a wide beam
        g = gaz({"msg": [("beta",), ("gamma",)]})

        def iter1_count(k):
            cfg = EngineConfig(ood_slots=("msg",), top_k=k)
            out = iterative_parse(("alpha", "beta", "gamma"), self.backend, g, TABLE, cfg)
            return sum(1 for it, _, _ in out.evaluations if it == 1)

        assert iter1_count(1) < iter1_count(8)

    def test_trace_text_one_line_per_entry(self):
        """One tab-separated line per evaluation: the iteration, the score
        rounded to six decimals in fixed notation, the provenance and the
        tokens."""
        out = iterative_parse(("alpha", "beta", "gamma"), self.backend, self.gaz, TABLE, CFG)
        assert out.trace_text() == (
            "iter0\t1.307224\toriginal\talpha beta gamma\n"  # 1.3072244...
            "iter1\t5.071024\tproper_span\talpha <msg>\n"  # 5.0710235...
            "iter2\t1000000000000.000000\texpansion\t<msg>\n"  # 1 / the entropy floor
        )

    def test_projection_repairs_logged(self, caplog):
        backend = make_backend(
            {"alpha": peaked("O", 0.9), "gamma": peaked("I-msg", 0.9)}
        )
        cfg = EngineConfig(ood_slots=(), tau=0.5)
        with caplog.at_level(logging.WARNING, logger="iterdelex.engine"):
            out = iterative_parse(("alpha", "gamma"), backend, self.gaz, TABLE, cfg)
        assert out.repairs == 1
        assert out.labels == labels("O", "B-msg")
        assert any("repaired" in r.message for r in caplog.records)


class TestTerminationBound:
    def test_iterations_never_exceed_length(self):
        # every rewrite consumes at least one natural token, so the loop
        # cannot run more rounds than there are tokens
        backend = make_backend(
            {
                "beta": peaked("B-msg", 0.6),
                "gamma": peaked("I-msg", 0.6),
                "<msg>": one_hot("B-msg"),
            }
        )
        for n in range(1, 8):
            tokens = tuple(["beta"] + ["gamma"] * (n - 1))
            out = iterative_parse(tokens, backend, gaz({}), TABLE, CFG)
            assert out.iterations_run <= n


def outcome_fingerprint(out):
    """Everything an outcome reports, with the winning parse as bytes."""
    parse = out.parse
    return (out.best.key(), out.best.provenance, out.score, out.iterations_run,
            out.candidates_evaluated, out.labels, out.intent, out.repairs,
            out.trace_text(), parse.distributions.tobytes(),
            parse.token_entropies.tobytes(), parse.intent_distribution.tobytes())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 10))
def test_shared_cache_leaves_outcomes_unchanged(seed, maxsize, n_utterances):
    """Utterances of one random model, each with its own gazetteer and
    settings, run through one cache small enough to evict: every outcome
    equals the uncached backend's. About half the utterances repeat an
    earlier one's words, as after a gazetteer swap, so that parses are
    shared."""
    rng = random.Random(seed)
    slots, backend = oracle.random_model(rng)
    cache = CachingBackend(backend, maxsize)
    earlier = []
    for _ in range(n_utterances):
        tokens, gazetteer, table, _, ood, tau = oracle.random_utterance(
            rng, slots, max_tokens=4, max_phrases=4
        )
        if earlier and rng.random() < 0.5:
            tokens = rng.choice(earlier)
        earlier.append(tokens)
        config = EngineConfig(ood_slots=ood, tau=tau, top_k=rng.randint(1, 4))
        cached = iterative_parse(tokens, cache, gazetteer, table, config)
        plain = iterative_parse(tokens, backend, gazetteer, table, config)
        assert outcome_fingerprint(cached) == outcome_fingerprint(plain)
