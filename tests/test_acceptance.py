"""Acceptance suite: ten numbered criteria, one test per criterion.

Each test prints a single ``PASS criterion N: ...`` line with the measured
values once its assertions hold (run with ``pytest -s`` to see them; under
plain ``pytest -v`` the per-test PASSED/FAILED status serves as the line).
Expected values are computed independently here — with ``math`` arithmetic
and the standalone search in ``oracle.py`` — never by calling the code
under test twice.
"""

import json
import math
import random
import statistics
import time

import numpy as np
import pytest

import oracle
from iterdelex.augment import AugmentConfig, delexicalize_training
from iterdelex.backend import (
    ParseResult,
    ScriptedBackend,
    one_hot,
    peaked,
    uniform,
)
from iterdelex.cli import main
from iterdelex.corpus import (
    SlotLabel,
    Span,
    bio_spans,
    load_dataset,
)
from iterdelex.engine import (
    DEFAULT_ENTROPY_FLOOR,
    EngineConfig,
    iterative_parse,
    project_labels,
    score,
)
from iterdelex.gazetteer import Gazetteer, build_token_table, load_gazetteer
from iterdelex.loglinear import LogLinearBackend
from iterdelex.metrics import evaluate
from iterdelex.seed import Candidate, find_matches
from iterdelex.synth import default_spec, save_spec


def report(n, detail):
    print(f"\nPASS criterion {n}: {detail}")


def L(*texts):
    return tuple(SlotLabel.parse(t) for t in texts)


# ---------------------------------------------------------------------------
# criterion 1: score arithmetic


def independent_score(distributions, floor=1e-12):
    total = 0.0
    for row in distributions:
        row_entropy = 0.0
        for p in row:
            p = float(p)
            if p > 0.0:
                row_entropy += -(p * math.log(p))
        total += row_entropy
    return len(distributions) / max(total, floor)


def test_criterion_01_score_arithmetic():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(3, 9))
        label_set = L("O", *[f"B-s{i}" for i in range(k - 1)])
        rows = rng.random((n, k)) + 1e-6
        rows /= rows.sum(axis=1, keepdims=True)
        intent_dist = rng.random(3)
        intent_dist /= intent_dist.sum()
        parse = ParseResult.from_distributions(
            label_set, ("a", "b", "c"), rows, intent_dist
        )
        got = score(parse)
        expected = independent_score(rows)
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-9

    # floor case: every row one-hot, entropy sum exactly zero
    for n in (1, 4, 12):
        one_hot_rows = np.eye(5)[list(range(n % 5)) + [0] * (n - n % 5)]
        parse = ParseResult.from_distributions(
            L("O", "B-a", "I-a", "B-b", "I-b"), ("x",), one_hot_rows, [1.0]
        )
        assert score(parse) == n / DEFAULT_ENTROPY_FLOOR == n / 1e-12
    report(1, f"1000 random parses, max |score - n/sum(E)| = {worst:.2e} <= 1e-9; "
              "one-hot case returns n/entropy_floor exactly")


def test_criterion_02_termination():
    # the strict decrease of the non-placeholder count on every parent->child
    # edge is asserted inside the engine loop itself; these 1000 runs exercise
    # that assert and check the resulting iteration bound
    rng = random.Random(2002)
    worst_ratio = 0.0
    for _ in range(1000):
        tokens, backend, gazetteer, table, slots, _, ood, tau = oracle.random_world(
            rng, max_tokens=12, max_phrases=4
        )
        cfg = EngineConfig(
            ood_slots=ood, tau=tau, top_k=rng.randint(1, 4), seed_cap=64
        )
        outcome = iterative_parse(tokens, backend, gazetteer, table, cfg)
        n = len(tokens)
        assert outcome.iterations_run <= n, (tokens, outcome.iterations_run)
        assert len(outcome.labels) == n
        assert oracle.is_valid_bio(outcome.labels)
        worst_ratio = max(worst_ratio, outcome.iterations_run / n)
    report(2, "1000 random scripted worlds (n <= 12): iterations_run <= n always "
              f"(worst iterations/n = {worst_ratio:.2f}); in-loop strict-decrease "
              "assert never fired")


def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(3003)
    kept = 0
    attempts = 0
    while kept < 220 and attempts < 4000:
        attempts += 1
        tokens, backend, gazetteer, table, slots, phrases, ood, tau = oracle.random_world(
            rng, max_tokens=6, max_phrases=3
        )
        if len(find_matches(tokens, gazetteer)) > 2:
            continue
        kept += 1
        cfg = EngineConfig(ood_slots=ood, tau=tau, top_k=10_000, seed_cap=10_000)
        outcome = iterative_parse(tokens, backend, gazetteer, table, cfg)
        best_tokens, best_score, iterations, evaluated = oracle.brute_force_parse(
            tokens,
            backend,
            phrase_to_slot=dict(phrases),
            surface_of={s: f"<{s}>" for s in slots},
            specials={f"<{s}>": s for s in slots},
            ood=set(ood),
            tau=tau,
        )
        assert outcome.score == best_score, (tokens, outcome.score, best_score)
        assert outcome.best.tokens == best_tokens
        assert outcome.iterations_run == iterations, (tokens, outcome.iterations_run)
        assert outcome.candidates_evaluated == evaluated, (tokens, outcome.candidates_evaluated)
    elapsed = time.perf_counter() - started
    assert kept >= 200, f"only {kept} usable instances generated"
    assert elapsed < 60.0
    report(3, f"{kept} instances (n <= 6, <= 2 seed matches): engine best score "
              "bit-equal to exhaustive reachable-set maximum, same iterations and "
              f"candidate count; {elapsed:.1f}s < 60s")


def test_bounded_search_agrees_with_oracle():
    # with a binding beam and seed cap, which candidates survive a round
    # decides what is evaluated next, down to how ties at the cut break
    rng = random.Random(3113)
    for _ in range(300):
        tokens, backend, gazetteer, table, slots, phrases, ood, tau = oracle.random_world(
            rng, max_tokens=8, max_phrases=4
        )
        top_k, seed_cap = rng.randint(1, 3), rng.randint(1, 5)
        cfg = EngineConfig(ood_slots=ood, tau=tau, top_k=top_k, seed_cap=seed_cap)
        outcome = iterative_parse(tokens, backend, gazetteer, table, cfg)
        expected = oracle.brute_force_parse(
            tokens,
            backend,
            phrase_to_slot=dict(phrases),
            surface_of={s: f"<{s}>" for s in slots},
            specials={f"<{s}>": s for s in slots},
            ood=set(ood),
            tau=tau,
            top_k=top_k,
            seed_cap=seed_cap,
        )
        got = (outcome.best.tokens, outcome.score, outcome.iterations_run,
               outcome.candidates_evaluated)
        assert got == expected, (tokens, top_k, seed_cap)


# ---------------------------------------------------------------------------
# criterion 4: the two-round rewrite fixture


def test_criterion_04_two_round_rewrite_fixture():
    label_names = ["O", "B-contact", "I-contact", "B-message", "I-message"]
    label_set = L(*label_names)
    carrier = peaked("O", 0.998)   # entropy ~0.017, below tau: blocks widening
    fuzzy = peaked("O", 0.4)       # entropy ~1.50, above tau: gets absorbed
    backend = ScriptedBackend(
        label_set,
        ("send_message", "other"),
        {
            "send": carrier, "message": carrier, "to": carrier, "saying": carrier,
            "alice": peaked("B-contact", 0.7),
            "running": peaked("B-message", 0.8),
            "late": peaked("I-message", 0.8),
            "for": fuzzy, "dinner": fuzzy,
            "<contact>": one_hot("B-contact"),
            "<message>": one_hot("B-message"),
        },
        uniform(),
        "send_message",
    )
    gazetteer = Gazetteer(
        slot_phrases={"contact": frozenset({("alice",)}), "message": frozenset()},
        context_phrases=frozenset(),
        ambiguous_phrases=frozenset(),
    )
    table = build_token_table(["contact", "message"])
    cfg = EngineConfig(ood_slots=("message",), tau=0.05, top_k=8)
    tokens = ("send", "message", "to", "alice", "saying",
              "running", "late", "for", "dinner")

    outcome = iterative_parse(tokens, backend, gazetteer, table, cfg)

    # expected trace, every number recomputed here from first principles
    def H(vec):
        total = 0.0
        for p in vec:
            if p > 0.0:
                total += -(p * math.log(p))
        return total

    def row(peak_label, peak):
        rest = (1.0 - peak) / 4
        return [peak if name == peak_label else rest for name in label_names]

    e_carrier = H(row("O", 0.998))
    e_alice = H(row("B-contact", 0.7))
    e_msg = H(row("B-message", 0.8))
    e_fuzzy = H(row("O", 0.4))
    s0 = 9 / (4 * e_carrier + e_alice + 2 * e_msg + 2 * e_fuzzy)
    s1 = 9 / (4 * e_carrier + 2 * e_msg + 2 * e_fuzzy)
    s2 = 8 / (4 * e_carrier + 2 * e_fuzzy)
    s3 = 8 / (4 * e_carrier + e_alice + 2 * e_fuzzy)
    s4 = 6 / (4 * e_carrier)
    s5 = 6 / (4 * e_carrier + e_alice)
    expected = [
        f"iter0\t{s0:.6f}\toriginal\tsend message to alice saying running late for dinner",
        f"iter0\t{s1:.6f}\tseed\tsend message to <contact> saying running late for dinner",
        f"iter1\t{s2:.6f}\tproper_span\tsend message to <contact> saying <message> for dinner",
        f"iter1\t{s3:.6f}\tproper_span\tsend message to alice saying <message> for dinner",
        f"iter2\t{s4:.6f}\texpansion\tsend message to <contact> saying <message>",
        f"iter2\t{s5:.6f}\texpansion\tsend message to alice saying <message>",
    ]
    assert outcome.trace_text() == "".join(line + "\n" for line in expected)
    assert outcome.iterations_run == 3
    assert outcome.best.tokens == ("send", "message", "to", "<contact>",
                                   "saying", "<message>")
    assert outcome.labels == L("O", "O", "O", "B-contact", "O",
                               "B-message", "I-message", "I-message", "I-message")
    assert outcome.intent == "send_message"
    report(4, "trace matches exactly: iter1 proper-span rewrite, iter2 expansion, "
              "convergence at iter3 with the fully delexicalized candidate")


# ---------------------------------------------------------------------------
# criteria 5-7, 9-10 share one trained pipeline


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    spec_path = root / "spec.json"
    save_spec(default_spec(), spec_path)

    started = time.perf_counter()
    assert main(["gen", "--spec", str(spec_path), "--seed", "7",
                 "--out", str(root / "data")]) == 0
    train_path = root / "data" / "train.jsonl"
    test_path = root / "data" / "test.jsonl"
    assert main(["train", "--data", str(train_path), "--out", str(root / "run")]) == 0
    model = root / "run" / "model.json"
    gazetteer = root / "run" / "gazetteer.tsv"

    engine_pred = root / "engine.jsonl"
    baseline_pred = root / "baseline.jsonl"
    common = ["infer", "--model", str(model), "--gazetteer", str(gazetteer),
              "--input", str(test_path)]
    assert main(common + ["--output", str(engine_pred),
                          "--tau", "0.1", "--ood-slots", "message"]) == 0
    assert main(common + ["--output", str(baseline_pred), "--baseline"]) == 0

    gold = load_dataset(test_path)
    engine_report = evaluate(gold, load_dataset(engine_pred))
    baseline_report = evaluate(gold, load_dataset(baseline_pred))
    elapsed = time.perf_counter() - started

    return {
        "train_path": train_path,
        "test_path": test_path,
        "model": model,
        "gazetteer": gazetteer,
        "gold": gold,
        "engine": engine_report,
        "baseline": baseline_report,
        "engine_rows": [json.loads(l) for l in engine_pred.read_text().splitlines()],
        "elapsed": elapsed,
        "root": root,
    }


def test_criterion_05_direction_of_effect(pipeline):
    train = load_dataset(pipeline["train_path"])
    gold = pipeline["gold"]
    assert len(train) >= 2000 and len(gold) >= 500

    train_tokens = {tok for u in train for tok in u.tokens}
    open_tokens = [
        tok
        for u in gold
        for tok, lab in zip(u.tokens, u.gold_labels)
        if lab.slot_type == "message"
    ]
    oov = sum(1 for t in open_tokens if t not in train_tokens) / len(open_tokens)
    assert oov >= 0.90

    eng, base = pipeline["engine"], pipeline["baseline"]
    gain = (eng.per_slot["message"].f1 - base.per_slot["message"].f1) * 100
    assert gain >= 5.0, f"message-slot F1 gain only {gain:.2f} points"

    regressions = {}
    for slot, gold_score in eng.per_slot.items():
        if slot == "message":
            continue
        drop = (base.per_slot[slot].f1 - eng.per_slot[slot].f1) * 100
        regressions[slot] = drop
        assert drop <= 2.0, f"slot {slot} degraded by {drop:.2f} points"

    assert eng.intent_accuracy >= base.intent_accuracy

    # the quality anchors as exact counts, so that a change in predictions
    # shows even where the direction checks above still pass
    def counts(rep):
        msg, scores = rep.per_slot["message"], rep.per_slot.values()
        return {
            "message": (msg.matched, msg.predicted_count, msg.gold_count),
            "overall": tuple(sum(getattr(s, a) for s in scores)
                             for a in ("matched", "predicted_count", "gold_count")),
            "intent": (rep.intent_correct, rep.utterance_count),
        }

    assert counts(eng) == {
        "message": (241, 253, 247), "overall": (810, 822, 816), "intent": (549, 550)
    }
    assert counts(base) == {
        "message": (211, 276, 247), "overall": (780, 846, 816), "intent": (546, 550)
    }
    assert pipeline["elapsed"] < 300.0
    worst_drop = max(regressions.values())
    report(5, f"message F1 {base.per_slot['message'].f1 * 100:.2f} -> "
              f"{eng.per_slot['message'].f1 * 100:.2f} (+{gain:.2f} >= 5); "
              f"worst closed-slot drop {worst_drop:.2f} <= 2; intent "
              f"{base.intent_accuracy:.4f} -> {eng.intent_accuracy:.4f}; "
              f"OOV {oov:.1%}; pipeline {pipeline['elapsed']:.0f}s < 300s")


def test_criterion_06_convergence_speed(pipeline):
    iterations = [row["iterations"] for row in pipeline["engine_rows"]]
    med = statistics.median(iterations)
    assert med <= 3
    report(6, f"median iterations_run {med} <= 3 over {len(iterations)} test "
              f"utterances (max {max(iterations)})")


def test_criterion_07_augmentation_statistics(pipeline):
    train = load_dataset(pipeline["train_path"])
    table = build_token_table(train.slot_types)
    _, stats = delexicalize_training(
        train, AugmentConfig(substitution_prob=0.75, rng_seed=0, token_table=table)
    )
    assert stats.total_spans >= 1000
    assert 0.70 <= stats.replaced_fraction <= 0.80
    report(7, f"p_s=0.75 over {stats.total_spans} gold spans: replaced fraction "
              f"{stats.replaced_fraction:.4f} in [0.70, 0.80]")


# ---------------------------------------------------------------------------
# criterion 8: projection correctness on random candidates


def test_criterion_08_projection_correctness():
    rng = random.Random(8008)
    label_names = ["O", "B-a", "I-a", "B-b", "I-b"]
    label_set = L(*label_names)
    table = build_token_table(["a", "b"])
    words = [f"n{i}" for i in range(8)]

    for _ in range(500):
        # random alignment: walk the source, emitting naturals or placeholders
        source_len = rng.randint(1, 12)
        tokens, alignment = [], []
        pos = 0
        while pos < source_len:
            if rng.random() < 0.4 and source_len - pos >= 1:
                slot = rng.choice(["a", "b"])
                width = rng.randint(1, min(3, source_len - pos))
                tokens.append(table.surface_for(slot))
                alignment.append(Span(pos, pos + width, slot))
                pos += width
            else:
                tokens.append(rng.choice(words))
                alignment.append(Span(pos, pos + 1, ""))
                pos += 1
        cand = Candidate(tuple(tokens), tuple(alignment), "seed")

        script = {
            w: peaked(rng.choice(label_names), rng.uniform(0.4, 1.0))
            for w in set(tokens)
        }
        backend = ScriptedBackend(label_set, ("x",), script, uniform(), "x")
        labels, _ = project_labels(cand, backend.parse(cand.tokens))

        assert len(labels) == source_len
        assert oracle.is_valid_bio(labels)
        for entry in alignment:
            if not entry.slot_type:
                continue
            assert labels[entry.start] == SlotLabel.begin(entry.slot_type)
            for i in range(entry.start + 1, entry.end):
                assert labels[i] == SlotLabel.inside(entry.slot_type)
    report(8, "500 random candidates: projected labels keep source length, "
              "valid BIO, and exact alignment slot types")


# ---------------------------------------------------------------------------
# criterion 9: backend contract for both implementations


def contract_check(backend, inputs):
    for tokens in inputs:
        first = backend.parse(tokens)
        second = backend.parse(tokens)
        assert np.array_equal(first.distributions, second.distributions)
        assert np.array_equal(first.intent_distribution, second.intent_distribution)
        assert first.predicted_labels == second.predicted_labels
        assert first.predicted_intent == second.predicted_intent

        dists = first.distributions
        assert dists.shape == (len(tokens), len(backend.label_set))
        assert (dists >= 0.0).all()
        np.testing.assert_allclose(dists.sum(axis=1), 1.0, atol=1e-9)
        assert abs(float(first.intent_distribution.sum()) - 1.0) <= 1e-9

        for t, row in enumerate(dists):
            predicted = first.predicted_labels[t]
            assert predicted == backend.label_set[int(np.argmax(row))]
            expected_entropy = 0.0
            for p in row:
                p = float(p)
                if p > 0.0:
                    expected_entropy += -(p * math.log(p))
            assert abs(float(first.token_entropies[t]) - expected_entropy) <= 1e-9
        intent_index = int(np.argmax(first.intent_distribution))
        assert first.predicted_intent == backend.intent_set[intent_index]


def test_criterion_09_backend_contract(pipeline):
    inputs = [
        ("call", "alice"),
        ("send", "running", "late", "to", "bob"),
        ("<contact>",),
        ("zzz", "unseen", "junk", "tokens", "qqq"),
        tuple("word%d" % i for i in range(30)),
        ("play", "hey", "jude"),
    ]
    trained = LogLinearBackend.load(pipeline["model"])
    contract_check(trained, inputs)

    scripted = ScriptedBackend(
        L("O", "B-x", "I-x"),
        ("p", "q"),
        {"call": peaked("O", 0.9), "alice": one_hot("B-x"), "tie": [0.5, 0.5, 0.0]},
        uniform(),
        lambda toks: "p" if "call" in toks else "q",
    )
    contract_check(scripted, inputs + [("tie", "tie")])
    report(9, "trained and scripted backends: normalization within 1e-9, "
              "argmax/entropy consistency within 1e-9, determinism, OOV tolerated")


# ---------------------------------------------------------------------------
# criterion 10: gazetteer hot-swap without retraining


def test_criterion_10_gazetteer_hot_swap(pipeline, tmp_path):
    utterance = tmp_path / "utterance.jsonl"
    utterance.write_text(json.dumps({"tokens": ["call", "zara", "on", "speaker"]}) + "\n")

    # "zara" is nowhere in the training data or the shipped gazetteer
    gaz_before = load_gazetteer(pipeline["gazetteer"])
    assert all(("zara",) not in phrases for phrases in gaz_before.slot_phrases.values())
    assert find_matches(("call", "zara", "on", "speaker"), gaz_before) == ()

    def run(gazetteer_path, output):
        code = main([
            "infer", "--model", str(pipeline["model"]),
            "--gazetteer", str(gazetteer_path),
            "--input", str(utterance),
            "--output", str(output),
            "--ood-slots", "message",
        ])
        assert code == 0
        return json.loads(output.read_text().splitlines()[0])

    before = run(pipeline["gazetteer"], tmp_path / "before.jsonl")
    assert "<contact>" not in before["delexicalized"]

    swapped = tmp_path / "gazetteer.tsv"
    swapped.write_text(
        pipeline["gazetteer"].read_text() + "slot\tcontact\tzara\n"
    )
    model_bytes = pipeline["model"].read_bytes()  # the model is untouched
    after = run(swapped, tmp_path / "after.jsonl")
    assert pipeline["model"].read_bytes() == model_bytes

    assert after["delexicalized"] == ["call", "<contact>", "on", "speaker"]
    spans = bio_spans(L(*after["labels"]))
    assert (1, 2, "contact") in spans
    report(10, "adding 'zara' to the gazetteer file (no retraining) turns the "
               "unmatched utterance into a seed-delexicalized parse with the "
               "contact span at the right tokens")
