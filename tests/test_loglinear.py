"""Trained-backend behavior: fit quality on a toy corpus, serialization,
determinism, and the uncertainty signal on out-of-vocabulary tokens."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from iterdelex import loglinear
from iterdelex.corpus import Dataset, SlotLabel, Utterance, repair_bio
from iterdelex.loglinear import (
    LogLinearBackend,
    TrainingParams,
    _distinct_rows,
    _fit_softmax,
    _make_objective,
)


def labels(*texts):
    return tuple(SlotLabel.parse(t) for t in texts)


def utt(text, tags, intent):
    return Utterance(tuple(text.split()), labels(*tags.split()), intent)


def toy_corpus():
    rows = [
        ("call alice now", "O B-contact O", "call"),
        ("call bob now", "O B-contact O", "call"),
        ("call carol", "O B-contact", "call"),
        ("call <contact>", "O B-contact", "call"),
        ("play jazz music", "O B-genre O", "play"),
        ("play rock music", "O B-genre O", "play"),
        ("play blues", "O B-genre", "play"),
        ("play <genre>", "O B-genre", "play"),
        ("what time is it", "O O O O", "clock"),
        ("tell me the time", "O O O O", "clock"),
    ]
    return Dataset.from_utterances([utt(*r) for r in rows])


PARAMS = TrainingParams(special_tokens=("<contact>", "<genre>"))


@pytest.fixture(scope="module")
def backend():
    return LogLinearBackend.train(toy_corpus(), PARAMS)


class TestTraining:
    def test_fits_training_data(self, backend):
        for u in toy_corpus():
            parse = backend.parse(u.tokens)
            assert parse.predicted_labels == u.gold_labels
            assert parse.predicted_intent == u.gold_intent

    def test_deterministic_across_runs(self, backend):
        again = LogLinearBackend.train(toy_corpus(), PARAMS)
        np.testing.assert_array_equal(backend.slot_weights, again.slot_weights)
        np.testing.assert_array_equal(backend.intent_weights, again.intent_weights)
        assert backend.slot_features == again.slot_features

    def test_requires_two_labels(self):
        flat = Dataset.from_utterances([utt("hello there", "O O", "greet")])
        with pytest.raises(ValueError, match="at least 2 slot labels"):
            LogLinearBackend.train(flat)

    def test_requires_gold_annotations(self):
        data = Dataset.from_utterances([utt("hi bob", "O B-x", "greet"), Utterance(("hi",))])
        with pytest.raises(ValueError, match="gold labels and intents"):
            LogLinearBackend.train(data)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            TrainingParams(l2=-1.0)
        with pytest.raises(ValueError):
            TrainingParams(min_count=0)
        for nan in ({"l2": math.nan}, {"min_count": math.nan}):
            with pytest.raises(ValueError):
                TrainingParams(**nan)
        for bad in (
            {"l2": math.inf}, {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5},
            {"max_iter": 300.0}, {"max_iter": math.inf}, {"max_iter": True},
            {"min_count": 1.5}, {"min_count": 2.0},
        ):
            with pytest.raises(ValueError):
                TrainingParams(**bad)
        TrainingParams(l2=0, max_iter=np.int64(5), min_count=1)

    @pytest.mark.parametrize("max_iter", [0, 2.5])
    def test_train_rejects_invalid_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
            LogLinearBackend.train(toy_corpus(), TrainingParams(max_iter=max_iter))

    def test_bias_feature_present(self, backend):
        assert backend.slot_features[0] == "bias"
        assert "cur=call" in backend.slot_features

    def test_retraining_writes_identical_bytes(self, tmp_path):
        words = ["call", "play", "alice", "bob", "jazz", "now", "<contact>", "<genre>"]
        tags = ["O", "B-contact", "I-contact", "B-genre", "I-genre"]
        tagged = st.lists(st.tuples(st.sampled_from(words), st.sampled_from(tags)),
                          min_size=1, max_size=6)

        @settings(max_examples=25, deadline=None)
        @given(
            st.lists(st.tuples(tagged, st.sampled_from(["call", "play", "clock"])),
                     min_size=1, max_size=12),
            st.integers(1, 2),
        )
        def check(rows, min_count):
            utts = [utt("call alice", "O B-contact", "call")]  # at least 2 labels
            for pairs, intent in rows:
                toks, tags_ = zip(*pairs)
                utts.append(Utterance(toks, repair_bio(labels(*tags_))[0], intent))
            corpus = Dataset.from_utterances(utts)
            params = TrainingParams(min_count=min_count, special_tokens=("<contact>", "<genre>"))
            first, second = tmp_path / "a.json", tmp_path / "b.json"
            LogLinearBackend.train(corpus, params).save(first)
            LogLinearBackend.train(corpus, params).save(second)
            assert first.read_bytes() == second.read_bytes()

        check()


@st.composite
def objective_cases(draw):
    """A random sparse design (column 0 the bias), targets, flattened weights
    and l2. The weights are all zero (every row's classes tie), small, wide,
    or put every score near +700 or -700."""
    n, n_features = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    k = draw(st.integers(2, 21))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.integers(0, 4, size=(n, n_features)) * (rng.random((n, n_features)) < 0.2)
    dense[:, 0] = 1
    y = rng.integers(0, k, size=n)
    kind = draw(st.sampled_from(["zero", "small", "wide", "extreme"]))
    if kind == "zero":
        w = np.zeros((n_features, k))
    elif kind == "extreme":
        w = rng.normal(scale=0.1, size=(n_features, k))
        w[0] += rng.choice([-700.0, 700.0], size=k)
    else:
        w = rng.normal(scale=1.0 if kind == "small" else 30.0, size=(n_features, k))
    l2 = draw(st.sampled_from([0.0, 1e-5, 0.1]))
    return w.ravel(), sp.csr_matrix(dense.astype(float)), y, l2


def objective(flat, x, y, l2):
    """The training objective of design ``x`` at the flattened weights ``flat``."""
    return _make_objective(x, y, flat.size // x.shape[1], l2)(flat)


@st.composite
def repeated_row_cases(draw):
    """Like :func:`objective_cases`, over a design that repeats a few rows,
    each copy with its own target and some stored in another column order, so
    that a design has equal features with different targets and rows with the
    same entries in different stored orders (unsorted indices)."""
    n_features, k = draw(st.integers(2, 12)), draw(st.integers(2, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = []
    for _ in range(draw(st.integers(1, 6))):
        size = rng.integers(0, n_features)
        cols = rng.choice(np.arange(1, n_features), size=size, replace=False)
        base.append((np.concatenate([[0], cols]), rng.integers(1, 4, size=len(cols) + 1)))
    indices, data, indptr = [], [], [0]
    for pick in rng.integers(0, len(base), size=draw(st.integers(1, 40))):
        cols, vals = base[pick]
        order = rng.permutation(len(cols)) if rng.random() < 0.3 else np.arange(len(cols))
        indices.extend(cols[order])
        data.extend(vals[order])
        indptr.append(len(indices))
    n = len(indptr) - 1
    x = sp.csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int32), np.array(indptr)),
        shape=(n, n_features),
    )
    w = rng.normal(scale=draw(st.sampled_from([0.03, 1.0, 31.0])), size=(n_features, k))
    return w.ravel(), x, rng.integers(0, k, size=n), draw(st.sampled_from([0.0, 1e-5, 0.1]))


class TestObjective:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(objective_cases(), repeated_row_cases()))
    def test_matches_logsumexp_reference(self, case):
        """The objective, which weights each distinct row by its copies,
        matches the logsumexp and the row-layout references to 1e-12 of
        max(1, |reference|), and a second call returns the same bits."""
        flat, x, y, l2 = case
        f = _make_objective(x, y, flat.size // x.shape[1], l2)
        loss, grad = f(flat)
        for reference in (oracle.reference_objective, oracle.reference_row_objective):
            want_loss, want_grad = reference(flat, x, y, l2)
            assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
            assert np.abs(grad - want_grad).max() <= 1e-12 * max(1.0, np.abs(want_grad).max())
        again_loss, again_grad = f(flat)
        assert np.float64(again_loss).tobytes() == np.float64(loss).tobytes()
        assert again_grad.tobytes() == grad.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(objective_cases(), st.integers(0, 2**32 - 1))
    def test_gradient_matches_finite_differences(self, case, seed):
        flat, *rest = case
        loss, grad = objective(flat, *rest)
        step = np.random.default_rng(seed).normal(size=flat.shape)
        step *= 1e-5 / np.linalg.norm(step)
        ahead, _ = objective(flat + step, *rest)
        behind, _ = objective(flat - step, *rest)
        assert abs((ahead - behind) / 2 - grad @ step) <= 1e-11 * max(1.0, abs(loss))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(objective_cases(), repeated_row_cases()))
    def test_distinct_rows_reproduce_the_design(self, case):
        x = case[1]
        xu, inv = _distinct_rows(x)
        back = xu[inv]
        for attr in ("indptr", "indices", "data"):
            assert getattr(back, attr).tobytes() == getattr(x, attr).astype(
                getattr(back, attr).dtype
            ).tobytes()
        rows = (xu[i] for i in range(xu.shape[0]))
        keys = {(row.indices.tobytes(), row.data.tobytes()) for row in rows}
        assert len(keys) == xu.shape[0]  # no two distinct rows are the same

    def test_fit_agrees_with_reference_fit(self, monkeypatch):
        """On the fixture corpus's slot and intent designs, a fit and a fit of
        the row-layout objective with the options the fit passes to
        ``loglinear.minimize`` pick the same class on every row and reach
        reference losses within 1e-9 of max(1, loss) of each other."""
        designs, calls = [], []
        real_minimize = loglinear.minimize

        def capture(x, y, n_classes, l2, max_iter):
            designs.append((x, y, n_classes))
            return np.zeros((x.shape[1], n_classes))

        def record(fun, x0, **kwargs):
            calls.append(kwargs)
            return real_minimize(fun, x0, **kwargs)

        monkeypatch.setattr(loglinear, "_fit_softmax", capture)
        LogLinearBackend.train(toy_corpus(), PARAMS)
        monkeypatch.setattr(loglinear, "minimize", record)
        assert len(designs) == 2  # the slot design, then the intent design
        for (x, y, k), l2 in itertools.product(designs, [0.0, 1e-5, 1e-2]):
            calls.clear()
            got = _fit_softmax(x, y, k, l2, PARAMS.max_iter)
            (kwargs,) = calls
            assert kwargs == {
                "jac": True, "method": "L-BFGS-B",
                "options": {"maxiter": PARAMS.max_iter, "ftol": 1e-12, "gtol": 1e-8},
            }
            want = real_minimize(
                lambda flat: oracle.reference_row_objective(flat, x, y, l2),
                np.zeros(x.shape[1] * k), **kwargs,
            ).x.reshape(x.shape[1], k)
            assert ((x @ got).argmax(axis=1) == (x @ want).argmax(axis=1)).all()
            got_loss, _ = oracle.reference_row_objective(got.ravel(), x, y, l2)
            want_loss, _ = oracle.reference_row_objective(want.ravel(), x, y, l2)
            assert abs(got_loss - want_loss) <= 1e-9 * max(1.0, abs(want_loss))
        calls.clear()
        x, y, k = designs[0]
        _fit_softmax(x, y, k, 0.0, 7)
        assert calls[0]["options"]["maxiter"] == 7  # max_iter reaches minimize


class TestUncertaintySignal:
    """Swapping a token for an unseen one must raise that position's entropy;
    placeholders stay confident. These are relative claims on purpose — the
    absolute level depends on the corpus label balance."""

    def test_oov_raises_entropy_at_same_position(self, backend):
        known = backend.parse(("play", "jazz", "music"))
        unseen = backend.parse(("play", "zebra", "music"))
        assert unseen.token_entropies[1] > known.token_entropies[1]
        # context still carries information: prediction survives the swap
        assert str(unseen.predicted_labels[1]) == "B-genre"

    def test_placeholder_confident(self, backend):
        parse = backend.parse(("play", "<genre>"))
        assert parse.token_entropies[1] < 0.1
        assert parse.token_entropies[1] < math.log(len(backend.label_set)) / 10

    def test_never_fails_on_unknown_tokens(self, backend):
        parse = backend.parse(("completely", "novel", "words", "here"))
        assert len(parse) == 4
        np.testing.assert_allclose(parse.distributions.sum(axis=1), 1.0, atol=1e-9)


# with min_count=2, every token seen once (<genre> among them) maps to
# <unk>, and "now" ends every sentence it is in, so "prev=now" is never seen
SPARSE_PARAMS = TrainingParams(min_count=2, special_tokens=("<contact>", "<genre>", "<city>"))
UNSEEN = ("zebra", "qux", "<unk>", "<s>", "</s>", "<city>")


@pytest.fixture(scope="module")
def sparse_backend():
    corpus = Dataset.from_utterances(
        [*toy_corpus(), utt("call <contact> now", "O B-contact O", "call")]
    )
    backend = LogLinearBackend.train(corpus, SPARSE_PARAMS)
    assert "alice" not in backend.vocab and "<genre>" not in backend.vocab
    assert "<contact>" in backend.vocab and "now" in backend.vocab
    assert "next=now" in backend.slot_features and "prev=now" not in backend.slot_features
    return backend


def assert_same_parse(got, want):
    """Two parses are equal bit for bit."""
    assert got.distributions.tobytes() == want.distributions.tobytes()
    assert got.token_entropies.tobytes() == want.token_entropies.tobytes()
    assert got.intent_distribution.tobytes() == want.intent_distribution.tobytes()
    assert got.predicted_labels == want.predicted_labels
    assert got.predicted_intent == want.predicted_intent


def test_parse_equals_named_feature_reference_bitwise(sparse_backend):
    words = sorted({tok for u in toy_corpus() for tok in u.tokens}) + list(UNSEEN)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(words), min_size=1, max_size=20))
    def check(tokens):
        want = oracle.reference_parse(sparse_backend, tokens)
        assert_same_parse(sparse_backend.parse(tokens), want)

    check()


@st.composite
def parse_batches(draw):
    """Batches, the empty one included, of vocabulary words, placeholders (in
    and out of the model's vocabulary) and unseen tokens, with one-token
    sequences, sequences that begin or end with a placeholder or unseen
    token, and repeats."""
    words = sorted({tok for u in toy_corpus() for tok in u.tokens}) + list(UNSEEN)
    edges = st.sampled_from(("<contact>", "<genre>", *UNSEEN))
    middle = st.lists(st.sampled_from(words), max_size=10)
    sequence = st.one_of(
        st.lists(st.sampled_from(words), min_size=1, max_size=12),
        st.lists(edges, min_size=1, max_size=1),
        st.tuples(edges, middle, edges).map(lambda t: [t[0], *t[1], t[2]]),
    )
    distinct = draw(st.lists(sequence, max_size=12))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=6)) if distinct else []
    return draw(st.permutations(distinct + repeats))


@pytest.mark.parametrize("fixture", ["backend", "sparse_backend"])
def test_parse_many_equals_named_feature_reference_bitwise(request, fixture):
    """Each result of a batch has the bits of the named-feature reference
    parse of its sequence alone, whatever its neighbours in the batch."""
    model = request.getfixturevalue(fixture)

    @settings(max_examples=200, deadline=None)
    @given(parse_batches())
    def check(batch):
        got = model.parse_many(batch)
        assert len(got) == len(batch)
        for result, tokens in zip(got, batch):
            assert_same_parse(result, oracle.reference_parse(model, tokens))

    check()


def test_parse_many_rejects_an_empty_sequence(backend):
    with pytest.raises(ValueError) as parse_error:
        backend.parse(())
    for batch in ([()], [("call", "bob"), [], ("play",)]):
        with pytest.raises(ValueError) as batch_error:
            backend.parse_many(batch)
        assert str(batch_error.value) == str(parse_error.value)


def test_training_design_equals_named_feature_reference(monkeypatch):
    """Training hands its two fits the designs that named features give, bit
    for bit, with special tokens inside and outside the vocabulary."""
    fits = []

    def capture(x, y, n_classes, l2, max_iter):
        fits.append((x, y))
        return np.zeros((x.shape[1], n_classes))

    monkeypatch.setattr(loglinear, "_fit_softmax", capture)
    words = ["call", "play", "alice", "bob", "jazz", "now", "<contact>", "<genre>", "<city>"]
    tags = ["O", "B-contact", "I-contact", "B-genre", "I-genre"]
    tagged = st.lists(st.tuples(st.sampled_from(words), st.sampled_from(tags)),
                      min_size=1, max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(tagged, st.sampled_from(["call", "play", "clock"])),
                 min_size=1, max_size=12),
        st.integers(1, 3),
        st.sampled_from([(), ("<contact>",), ("<contact>", "<genre>", "<city>", "<time>")]),
    )
    def check(rows, min_count, specials):
        utts = [utt("call alice", "O B-contact", "call")]  # at least 2 labels
        for pairs, intent in rows:
            toks, tags_ = zip(*pairs)
            utts.append(Utterance(toks, repair_bio(labels(*tags_))[0], intent))
        corpus = Dataset.from_utterances(utts)
        fits.clear()
        backend = LogLinearBackend.train(
            corpus, TrainingParams(min_count=min_count, special_tokens=specials)
        )
        slot_features, *want = oracle.reference_design(corpus, specials, min_count)
        assert backend.slot_features == tuple(slot_features)
        (x, y), (xi, yi) = fits
        for got, expected in ((x, want[0]), (xi, want[2])):
            for attr in ("indices", "indptr", "data"):
                a, b = getattr(got, attr), getattr(expected, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for got, expected in ((y, want[1]), (yi, want[3])):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    check()


class TestSerialization:
    def test_round_trip_preserves_parses(self, backend, tmp_path):
        path = tmp_path / "model.json"
        backend.save(path)
        loaded = LogLinearBackend.load(path)
        for toks in [("call", "alice"), ("play", "<genre>"), ("novel", "input")]:
            a, b = backend.parse(toks), loaded.parse(toks)
            np.testing.assert_array_equal(a.distributions, b.distributions)
            np.testing.assert_array_equal(a.intent_distribution, b.intent_distribution)
            assert a.predicted_labels == b.predicted_labels

    def test_save_is_byte_stable(self, backend, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        backend.save(p1)
        LogLinearBackend.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_retrain_writes_identical_file(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        LogLinearBackend.train(toy_corpus(), PARAMS).save(p1)
        LogLinearBackend.train(toy_corpus(), PARAMS).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_foreign_files(self, backend, tmp_path):
        import json

        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="model file"):
            LogLinearBackend.load(path)
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a iterdelex-loglinear model file"):
            LogLinearBackend.load(path)
        path.write_text("not json")
        with pytest.raises(ValueError, match="not a valid model file"):
            LogLinearBackend.load(path)
        backend.save(path)
        payload = json.loads(path.read_text())
        for entry, value in [
            ("slot_weights", [1.0, 2.0]),
            ("slot_weights", [[True] * len(backend.label_set)] * len(backend.slot_features)),
            ("intent_weights", [["0.5"] * len(backend.intent_set)] * len(backend.intent_features)),
        ]:
            path.write_text(json.dumps({**payload, entry: value}))
            with pytest.raises(ValueError, match=f"'{entry}' is not a numeric matrix"):
                LogLinearBackend.load(path)

    def test_load_rejects_wrong_version(self, backend, tmp_path):
        import json

        path = tmp_path / "model.json"
        backend.save(path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported model version"):
            LogLinearBackend.load(path)


# Run in a fresh interpreter by the test below: it loads a model and a
# gazetteer, parses with and without the engine, records the scipy modules
# loaded so far, then trains on a corpus file and saves the model.
_FRESH_PROCESS = """
import json, sys
from iterdelex import EngineConfig, LogLinearBackend, TrainingParams, iterative_parse
from iterdelex.corpus import load_dataset
from iterdelex.gazetteer import load_gazetteer

model_path, gazetteer_path, corpus_path, out_path = sys.argv[1:5]
model = LogLinearBackend.load(model_path)
gazetteer = load_gazetteer(gazetteer_path)
config = EngineConfig(ood_slots=("contact", "genre"), tau=0.5)
outcome = iterative_parse(["call", "zed", "now"], model, gazetteer, gazetteer.token_table(), config)
batch = model.parse_many([["play", "jazz", "music"], ["call", "alice"]])
serving = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
params = TrainingParams(special_tokens=tuple(sys.argv[5:]))
LogLinearBackend.train(load_dataset(corpus_path), params).save(out_path)
print(json.dumps({
    "serving": serving,
    "delexicalized": list(outcome.best.tokens),
    "intents": [parse.predicted_intent for parse in batch],
    "trained_with": sorted(n for n in ("scipy.optimize", "scipy.sparse") if n in sys.modules),
}))
"""


def test_serving_loads_no_scipy_and_lazy_training_writes_the_same_bytes(backend, tmp_path):
    """A fresh process that imports iterdelex, loads a model and a gazetteer
    and parses imports no scipy module; training then imports scipy and
    writes the bytes that training in this process, where scipy was loaded
    up front, writes."""
    from iterdelex.corpus import load_dataset, save_dataset
    from iterdelex.gazetteer import build_gazetteer, save_gazetteer

    model, gazetteer, corpus = (tmp_path / n for n in ("model.json", "gaz.tsv", "train.jsonl"))
    backend.save(model)
    plain = [u for u in toy_corpus() if not any(t.startswith("<") for t in u.tokens)]
    save_gazetteer(build_gazetteer(Dataset.from_utterances(plain)), gazetteer)
    save_dataset(toy_corpus(), corpus)
    assert "scipy.optimize" in sys.modules  # the premise: fitted here with scipy loaded
    LogLinearBackend.train(load_dataset(corpus), PARAMS).save(tmp_path / "here.json")

    path = [str(Path(loglinear.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(model), str(gazetteer), str(corpus),
         str(tmp_path / "fresh.json"), *PARAMS.special_tokens],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["serving"] == []
    assert report["delexicalized"] == ["call", "<contact>", "now"]
    assert report["intents"] == ["play", "call"]
    assert report["trained_with"] == ["scipy.optimize", "scipy.sparse"]
    assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()
