import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_loglinear import assert_same_parse

from iterdelex.backend import (
    CachingBackend,
    DistributionRecipe,
    ParseResult,
    ScriptedBackend,
    entropy,
    one_hot,
    peaked,
    uniform,
)
from iterdelex.corpus import SlotLabel


def labels(*texts):
    return tuple(SlotLabel.parse(t) for t in texts)


LABELS = labels("O", "B-contact", "I-contact")
INTENTS = ("call", "other")


class TestEntropy:
    def test_uniform_is_log_n(self):
        for n in (2, 3, 7):
            assert entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log(n), abs=1e-12)

    def test_one_hot_is_exactly_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_hand_value(self):
        e = entropy(np.array([0.5, 0.25, 0.25]))
        expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
        assert e == pytest.approx(expected, abs=1e-12)


class TestRecipes:
    def test_uniform(self):
        np.testing.assert_allclose(uniform().resolve(LABELS), np.full(3, 1 / 3))

    def test_one_hot(self):
        np.testing.assert_array_equal(
            one_hot("B-contact").resolve(LABELS), [0.0, 1.0, 0.0]
        )

    def test_peaked_spreads_remainder(self):
        row = peaked("O", 0.8).resolve(LABELS)
        np.testing.assert_allclose(row, [0.8, 0.1, 0.1])

    def test_peak_bounds(self):
        with pytest.raises(ValueError):
            peaked("O", 0.0)
        with pytest.raises(ValueError):
            peaked("O", 1.2)
        assert peaked("O", 1.0).resolve(LABELS)[0] == 1.0

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            one_hot("B-missing").resolve(LABELS)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown recipe kind"):
            DistributionRecipe("gaussian", "O").resolve(LABELS)


class TestParseResult:
    def test_from_distributions_derives_everything(self):
        dists = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1]])
        result = ParseResult.from_distributions(LABELS, INTENTS, dists, [0.9, 0.1])
        assert len(result) == 2
        assert [str(l) for l in result.predicted_labels] == ["O", "B-contact"]
        assert result.predicted_intent == "call"
        for row, e in zip(dists, result.token_entropies):
            assert e == pytest.approx(entropy(row), abs=1e-15)

    def test_argmax_tie_breaks_to_lowest_index(self):
        dists = np.array([[0.4, 0.4, 0.2]])
        result = ParseResult.from_distributions(LABELS, INTENTS, dists, [0.5, 0.5])
        assert str(result.predicted_labels[0]) == "O"
        assert result.predicted_intent == "call"

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="n_tokens, n_labels"):
            ParseResult.from_distributions(LABELS, INTENTS, np.ones((2, 5)) / 5, [1, 0])


@st.composite
def probability_rows(draw, label_set):
    """One row over ``label_set``: all positive, with exact zeros, one-hot or peaked."""
    n = len(label_set)
    kind = draw(st.sampled_from(["positive", "zeros", "one_hot", "peaked"]))
    label = str(label_set[draw(st.integers(0, n - 1))])
    if kind == "one_hot":
        return one_hot(label).resolve(label_set)
    if kind == "peaked":
        peak = draw(st.floats(min_value=1e-6, max_value=1.0, exclude_min=True))
        return peaked(label, peak).resolve(label_set)
    # weights over 300 orders of magnitude, so some terms vanish in the sum
    row = np.exp(np.array(draw(st.lists(st.floats(-690.0, 0.0), min_size=n, max_size=n))))
    if kind == "zeros":
        zeros = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        row[sorted(zeros)] = 0.0
    return row / row.sum()


# numpy sums a row of fewer than 9 terms in one way and a longer row in another
@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from([2, 5, 9, 13, 21]))
def test_from_distributions_entropies_equal_row_entropy_bitwise(data, n_labels):
    label_set = labels("O", *[f"B-s{i}" for i in range(n_labels - 1)])
    rows = data.draw(st.lists(probability_rows(label_set), min_size=1, max_size=12))
    dists = np.array(rows)
    result = ParseResult.from_distributions(label_set, INTENTS, dists, [0.5, 0.5])
    expected = np.array([entropy(row) for row in dists])
    assert result.token_entropies.tobytes() == expected.tobytes()


class TestScriptedBackend:
    def make(self, **kwargs):
        defaults = dict(
            label_set=LABELS,
            intent_set=INTENTS,
            script={"call": peaked("O", 0.9), "mom": one_hot("B-contact")},
            fallback=uniform(),
            intent_rule="call",
        )
        defaults.update(kwargs)
        return ScriptedBackend(**defaults)

    def test_scripted_rows_come_back_verbatim(self):
        backend = self.make()
        parse = backend.parse(["call", "mom"])
        np.testing.assert_allclose(parse.distributions[0], [0.9, 0.05, 0.05])
        np.testing.assert_array_equal(parse.distributions[1], [0.0, 1.0, 0.0])
        assert [str(l) for l in parse.predicted_labels] == ["O", "B-contact"]

    def test_unknown_token_uses_fallback(self):
        parse = self.make().parse(["zzz"])
        np.testing.assert_allclose(parse.distributions[0], np.full(3, 1 / 3))

    def test_fallback_required(self):
        with pytest.raises(ValueError, match="fallback"):
            self.make(fallback=None)

    def test_explicit_vectors_accepted_and_validated(self):
        backend = self.make(script={"x": [0.25, 0.25, 0.5]})
        np.testing.assert_array_equal(backend.parse(["x"]).distributions[0], [0.25, 0.25, 0.5])
        with pytest.raises(ValueError, match="wrong length"):
            self.make(script={"x": [0.5, 0.5]})
        with pytest.raises(ValueError, match="sum to 1"):
            self.make(script={"x": [0.5, 0.2, 0.2]})
        with pytest.raises(ValueError, match="sum to 1"):
            self.make(script={"x": [1.2, -0.2, 0.0]})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self.make().parse([])

    def test_intent_rule_callable(self):
        backend = self.make(
            intent_rule=lambda toks: "call" if "call" in toks else "other"
        )
        assert backend.parse(["call", "mom"]).predicted_intent == "call"
        assert backend.parse(["hello"]).predicted_intent == "other"
        np.testing.assert_array_equal(
            backend.parse(["hello"]).intent_distribution, [0.0, 1.0]
        )

    def test_parse_many_loops_over_parse(self):
        """The base class's ``parse_many`` is one ``parse`` per sequence, in
        order; an empty sequence fails as ``parse`` does."""
        backend = self.make(intent_rule=lambda toks: "call" if "call" in toks else "other")
        batch = [["call", "mom"], ["zzz"], ["mom", "call", "now"], ["zzz"]]
        for got, tokens in zip(backend.parse_many(batch), batch, strict=True):
            assert_same_parse(got, backend.parse(tokens))
        assert backend.parse_many([]) == []
        with pytest.raises(ValueError, match="empty"):
            backend.parse_many([["call"], []])

    def test_deterministic(self):
        backend = self.make()
        a = backend.parse(["call", "mom", "now"])
        b = backend.parse(["call", "mom", "now"])
        np.testing.assert_array_equal(a.distributions, b.distributions)
        np.testing.assert_array_equal(a.token_entropies, b.token_entropies)
        assert a.predicted_labels == b.predicted_labels
        assert a.predicted_intent == b.predicted_intent


class TestCachingBackend:
    def make(self, maxsize):
        scripted = ScriptedBackend(LABELS, INTENTS, {"mom": one_hot("B-contact")},
                                   uniform(), "call")
        return scripted, CachingBackend(scripted, maxsize)

    def test_repeated_sequence_is_parsed_once(self):
        scripted, cache = self.make(4)
        assert (cache.label_set, cache.intent_set) == (LABELS, INTENTS)
        first = cache.parse(["call", "mom"])
        assert cache.parse(("call", "mom")) is first
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        fresh = scripted.parse(["call", "mom"])
        assert first.distributions.tobytes() == fresh.distributions.tobytes()
        assert first.predicted_labels == fresh.predicted_labels

    def test_least_recently_used_parse_is_evicted(self):
        _, cache = self.make(2)
        a = cache.parse(["a"])
        cache.parse(["b"])
        assert cache.parse(["a"]) is a  # now "b" is the least recently used
        cache.parse(["c"])
        assert cache.parse(["a"]) is a
        cache.parse(["b"])
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 4, 2)

    def test_cached_arrays_are_read_only(self):
        _, cache = self.make(4)
        parse = cache.parse(["call", "mom"])
        for array in (parse.distributions, parse.token_entropies,
                      parse.intent_distribution):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        assert cache.parse(["call", "mom"]).distributions[1, 1] == 1.0

    def test_errors_pass_through_uncached(self):
        _, cache = self.make(4)
        for _ in range(2):
            with pytest.raises(ValueError, match="empty"):
                cache.parse([])
        assert cache.cache_info().currsize == 0

    def test_maxsize_must_be_positive(self):
        scripted, _ = self.make(1)
        with pytest.raises(ValueError, match="maxsize"):
            CachingBackend(scripted, 0)
