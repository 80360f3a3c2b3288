"""Correctness checks, computed apart from the program under test.

Gazetteer files are parsed here, spans are decoded from BIO labels here,
entropies and F1 are recomputed here, and the winning rewrite is compared
with the exhaustive search in ``tests/oracle.py``.  The program is only
asked for fresh parses (``LogLinearBackend.parse``) whose distributions the
checks then score themselves.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import oracle

SCORE_RTOL = 1e-9  # own entropy sums add in another order than numpy's


def read_jsonl(path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def bio_spans(labels) -> list[tuple[int, int, str]]:
    """(start, end, slot) spans; an Inside that continues nothing opens a span."""
    spans: list[list] = []
    for i, lab in enumerate(labels):
        if lab == "O":
            continue
        kind, slot = lab.split("-", 1)
        if kind == "I" and spans and spans[-1][1] == i and spans[-1][2] == slot:
            spans[-1][1] = i + 1
        else:
            spans.append([i, i + 1, slot])
    return [tuple(s) for s in spans]


def valid_bio(labels) -> bool:
    prev = "O"
    for lab in labels:
        if lab != "O" and (lab[:2] not in ("B-", "I-") or len(lab) < 3):
            return False
        if lab.startswith("I-") and prev[2:] != lab[2:]:
            return False
        prev = lab
    return True


def own_score(distributions) -> float:
    total = 0.0
    for row in distributions:
        total += -sum(float(p) * math.log(float(p)) for p in row if p > 0.0)
    return len(distributions) / max(total, 1e-12)


class GazetteerRows:
    """Slot, context, ambiguous and group rows of gazetteer TSV files."""

    def __init__(self, paths) -> None:
        self.slots: dict[tuple[str, ...], set[str]] = {}
        self.excluded: set[tuple[str, ...]] = set()
        self.groups: dict[str, tuple[str, ...]] = {}
        for path in paths:
            for line in Path(path).read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                kind, name, text = line.split("\t")
                phrase = tuple(text.split())
                if kind == "slot":
                    self.slots.setdefault(phrase, set()).add(name)
                elif kind in ("context", "ambiguous"):
                    self.excluded.add(phrase)
                elif kind == "group":
                    self.groups[name] = phrase
        self.phrase_to_slot = {p: min(s) for p, s in self.slots.items()
                               if p not in self.excluded}
        group_of = {slot: g for g, slots in self.groups.items() for slot in slots}
        slot_types = {slot for slots in self.slots.values() for slot in slots}
        self.surface_of = {s: f"<{group_of.get(s, s)}>" for s in slot_types}
        self.specials: dict[str, str] = {}  # surface -> canonical (smallest) slot
        self.members: dict[str, set[str]] = {}  # surface -> every slot it stands for
        for slot in sorted(slot_types, reverse=True):
            self.specials[self.surface_of[slot]] = slot
            self.members.setdefault(self.surface_of[slot], set()).add(slot)

    def slot_rows(self) -> set[tuple[str, tuple[str, ...]]]:
        return {(slot, phrase) for phrase, slots in self.slots.items() for slot in slots}


def tiles_source(source, labels, delex, members) -> bool:
    """True when the rewrite tiles the source: natural tokens equal source
    tokens in order and each placeholder stands for a span labelled
    ``B-slot I-slot...`` with a slot of that placeholder."""
    n, m = len(source), len(delex)

    @lru_cache(maxsize=None)
    def ok(i: int, j: int) -> bool:
        if j == m:
            return i == n
        slots = members.get(delex[j])
        if slots is None:
            return i < n and source[i] == delex[j] and ok(i + 1, j + 1)
        if i >= n or not labels[i].startswith("B-") or labels[i][2:] not in slots:
            return False
        end = i + 1
        while not ok(end, j + 1):
            if end < n and labels[end] == "I-" + labels[i][2:]:
                end += 1
            else:
                return False
        return True

    return ok(0, 0)


class MemoBackend:
    """A backend that parses each token sequence once.  The exhaustive search
    and the unbounded engine run it is compared with parse the same
    candidates, so sharing parses halves the cost of that check."""

    def __init__(self, backend) -> None:
        self.label_set, self.intent_set = backend.label_set, backend.intent_set
        self._parse, self._memo = backend.parse, {}

    def parse(self, tokens):
        key = tuple(tokens)
        if key not in self._memo:
            self._memo[key] = self._parse(key)
        return self._memo[key]


class Checker:
    """Checks engine outputs against properties and the exhaustive search."""

    def __init__(self, backend, ood, tau) -> None:
        self.backend = backend
        self.memo = MemoBackend(backend)
        self.ood = set(ood)
        self.tau = tau
        self._scores: dict[tuple, float] = {}
        self._oracle: dict[tuple, tuple] = {}

    def fresh_score(self, tokens) -> float:
        key = tuple(tokens)
        if key not in self._scores:
            self._scores[key] = own_score(self.backend.parse(key).distributions)
        return self._scores[key]

    def oracle_best(self, tokens, rows: GazetteerRows):
        """The exhaustive search's (winning tokens, score) under ``rows``."""
        key = (id(rows), tuple(tokens))
        if key not in self._oracle:
            self._oracle[key] = oracle.brute_force_parse(
                list(tokens), self.memo, rows.phrase_to_slot, rows.surface_of,
                rows.specials, self.ood, self.tau)[:2]
        return self._oracle[key]

    def problems(self, source, labels, delex, iterations, score, rows: GazetteerRows,
                 expected=None) -> list[str]:
        """Property violations of one engine output; ``score`` may be None
        (CLI rows carry no score); ``expected`` is the oracle's
        (tokens, score) when the engine must agree with it."""
        out = []
        n = len(source)
        if len(labels) != n or not valid_bio(labels):
            out.append("labels are not valid BIO of source length")
        if not tiles_source(tuple(source), tuple(labels), tuple(delex), rows.members):
            out.append("a placeholder does not cover a span labelled with its slot")
        if iterations > n:
            out.append(f"{iterations} iterations > {n} tokens")
        fresh = self.fresh_score(delex)
        if score is not None and abs(fresh - score) > SCORE_RTOL * fresh:
            out.append(f"score {score!r} != n / sum(entropies) = {fresh!r}")
        if fresh < self.fresh_score(source) * (1 - SCORE_RTOL):
            out.append("winner scores below the unmodified utterance")
        if expected is not None:
            best_tokens, best_score = expected
            if tuple(delex) != tuple(best_tokens):
                out.append(f"winner {delex} != exhaustive search {list(best_tokens)}")
            elif score is not None and score != best_score:
                out.append(f"score {score!r} != exhaustive search {best_score!r}")
            elif score is None and abs(fresh - best_score) > SCORE_RTOL * fresh:
                out.append(f"winner scores {fresh!r}, exhaustive search {best_score!r}")
        return out

    def baseline_problems(self, source, row) -> list[str]:
        """A baseline row must be the repaired argmax of one fresh parse."""
        parse = self.backend.parse(tuple(source))
        labels = []
        for row_probs in parse.distributions:
            best = max(range(len(row_probs)), key=lambda k: (row_probs[k], -k))
            lab = str(parse.label_set[best])
            if lab.startswith("I-") and (not labels or labels[-1][2:] != lab[2:]):
                lab = "B-" + lab[2:]
            labels.append(lab)
        intents = parse.intent_distribution
        intent = parse.intent_set[max(range(len(intents)), key=lambda k: (intents[k], -k))]
        out = []
        if row["labels"] != labels or row["intent"] != intent:
            out.append("baseline row is not the repaired argmax of a fresh parse")
        if row["delexicalized"] != list(source) or row["iterations"] != 0 \
                or row["candidates"] != 1:
            out.append("baseline row rewrote its input")
        return out


def f1_scores(gold_records, pred_records) -> dict:
    """Exact-span micro and per-slot F1 plus intent accuracy."""
    counts: dict[str, list[int]] = {}
    intents = 0
    for g, p in zip(gold_records, pred_records):
        gold, pred = set(bio_spans(g["labels"])), set(bio_spans(p["labels"]))
        for spans, k in ((gold, 0), (pred, 1), (gold & pred, 2)):
            for *_, slot in spans:
                counts.setdefault(slot, [0, 0, 0])[k] += 1
        intents += g["intent"] == p["intent"]

    def f1(gold, pred, matched):
        prec = matched / pred if pred else 0.0
        rec = matched / gold if gold else 0.0
        return 2 * prec * rec / (prec + rec) if prec + rec else 0.0

    totals = [sum(c[k] for c in counts.values()) for k in range(3)]
    return {"per_slot": {s: f1(*c) for s, c in sorted(counts.items())},
            "micro": f1(*totals), "intent_accuracy": intents / len(gold_records)}


def agrees_with_evaluate(own: dict, report) -> bool:
    if abs(own["micro"] - report.slot_f1) > 1e-12:
        return False
    if abs(own["intent_accuracy"] - report.intent_accuracy) > 1e-12:
        return False
    return all(abs(own["per_slot"].get(s, 0.0) - v.f1) <= 1e-12
               for s, v in report.per_slot.items())


def direction_problems(engine: dict, baseline: dict, open_slot: str) -> list[str]:
    """The paper's direction of effect: open-slot F1 up by 5 points or more,
    closed slots within 2 points, intent accuracy not worse."""
    out = []
    gain = engine["per_slot"][open_slot] - baseline["per_slot"][open_slot]
    if gain < 0.05:
        out.append(f"{open_slot} F1 gain {gain:.4f} < 0.05")
    for slot, base in baseline["per_slot"].items():
        if slot != open_slot and base - engine["per_slot"].get(slot, 0.0) > 0.02:
            out.append(f"{slot} F1 dropped by more than 0.02")
    if engine["intent_accuracy"] < baseline["intent_accuracy"]:
        out.append("intent accuracy got worse")
    return out
