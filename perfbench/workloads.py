"""Seeded inputs for the three workloads.

Every workload trains the synthetic-corpus model through the CLI, then
serves a stream of utterances split into ``STAGES`` stages per round; each
stage starts with a gazetteer reload (a swap) and then parses its
utterances one call at a time.  Only ``grown-gazetteer`` changes the
gazetteer file between stages; the other two reload it unchanged, so the
swap cost is measured on every workload.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

from iterdelex.synth import default_spec, save_spec

WORKLOADS = ("synth-cli", "dense-matches", "grown-gazetteer")

STAGES = 5
# A serving round is one pass over a pool of utterances.  The pools are large
# so that the latency percentiles do not hang on a few utterances: the seed
# changes which utterances are drawn, and with a small pool also how many of
# the slow kinds there are (on synth-cli the median sits where utterances with
# 2 candidates give way to those with 4, so a 700-utterance pool moved it by
# 10% from seed to seed).  The CLI calls, which repeat in every turn, take a
# smaller input.
TEST_COUNT = 2800          # synth-cli test split: one serving round
CLI_COUNT = 700            # synth-cli CLI input: the first utterances of the test split
DENSE_COUNT = 100          # dense-matches utterances (CLI input and serving round)
# closed-slot phrases embedded in one dense message; with the contact slot an
# utterance has at most 5 matches, as the exhaustive check visits every one
# of the 2**matches seed subsets and their rewrites
EMBEDDED = (2, 2, 3, 3, 4)
GROWN_BASE = 12000         # novel slot phrases in the grown file before a round
GROWN_BATCH = 2000         # novel slot phrases appended at stages 1..STAGES-1
GROWN_PER_STAGE = 40       # utterances served after each grown-gazetteer swap
GROWN_CLI_PER_STAGE = 5    # of which the first this many make up the CLI input

OOD_SLOTS = ("message",)
TAU = 0.1
NOVEL_SLOTS = ("artist", "city", "contact", "song")

_ONSETS = "b d f g k l m n p r s t v z br dr gr kr pl st tr".split()
_VOWELS = "a e i o u ai ou".split()


def spec():
    return dataclasses.replace(default_spec(), test_count=TEST_COUNT)


def _write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _record(parts, intent):
    """Build a labelled record from (phrase, slot-or-None) parts."""
    tokens, labels = [], []
    for phrase, slot in parts:
        for i, tok in enumerate(phrase):
            tokens.append(tok)
            labels.append("O" if slot is None else ("B-" if i == 0 else "I-") + slot)
    return {"tokens": tokens, "labels": labels, "intent": intent}


def _dense_records(seed: int, sp) -> list[dict]:
    """send_message utterances whose message embeds closed-slot phrases
    (contacts, cities, times); gold marks the embedded phrases as message.
    Utterance i embeds EMBEDDED[i % len(EMBEDDED)] phrases, so every seed
    gives the same mix of match counts."""
    rng = random.Random(f"dense:{seed}")
    templates = next(i for i in sp.intents if i.name == "send_message").templates
    embeddable = [p for slot in ("contact", "city", "time") for p in sp.closed_slots[slot]]
    records = []
    for n in range(DENSE_COUNT):
        parts = []
        for part in rng.choice(templates).split():
            if part == "{contact}":
                parts.append((rng.choice(sp.closed_slots["contact"]), "contact"))
            elif part == "{message}":
                message: list[str] = []
                for _ in range(EMBEDDED[n % len(EMBEDDED)]):
                    message += rng.choice(embeddable)
                    message += [rng.choice(sp.open_content_test) for _ in range(rng.randint(1, 2))]
                parts.append((tuple(message), "message"))
            else:
                parts.append(((part,), None))
        records.append(_record(parts, "send_message"))
    return records


def _spec_words(sp) -> set[str]:
    words = set(sp.open_content_train) | set(sp.open_content_test) | set(sp.fillers)
    for intent in sp.intents:
        for template in intent.templates:
            words.update(template.split())
    for phrase in sp.confusables:
        words.update(phrase.split())
    for phrases in sp.closed_slots.values():
        for phrase in phrases:
            words.update(phrase)
    return words


def _novel_phrases(rng: random.Random, count: int, taken: set) -> list[tuple[str, tuple[str, ...]]]:
    """Pseudo-word phrases of one or two words that occur in no corpus."""
    def word():
        return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3)))

    out = []
    while len(out) < count:
        phrase = tuple(word() for _ in range(rng.randint(1, 2)))
        if phrase in taken or any(w in taken for w in phrase):
            continue
        taken.add(phrase)
        out.append((NOVEL_SLOTS[len(out) % len(NOVEL_SLOTS)], phrase))
    return out


def _grown_records(rng: random.Random, sp, batch) -> list[dict]:
    """Utterances from the spec's templates whose closed slots are filled
    with phrases of the newest batch."""
    by_slot: dict[str, list] = {}
    for slot, phrase in batch:
        by_slot.setdefault(slot, []).append(phrase)
    templates = [(t, i.name) for i in sp.intents for t in i.templates
                 if "{time}" not in t]
    records = []
    for _ in range(GROWN_PER_STAGE):
        template, intent = rng.choice(templates)
        parts = []
        for part in template.split():
            slot = part[1:-1] if part.startswith("{") else None
            if slot is None:
                parts.append(((part,), None))
            elif slot == sp.open_slot:
                parts.append((tuple(rng.choice(sp.open_content_test)
                                    for _ in range(rng.randint(3, 5))), slot))
            else:
                parts.append((rng.choice(by_slot[slot]), slot))
        records.append(_record(parts, intent))
    return records


def _rows(batch) -> str:
    return "".join(f"slot\t{slot}\t{' '.join(phrase)}\n" for slot, phrase in batch)


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files under ``work`` and describe them.

    The returned dict names the CLI input, the gazetteer the CLI infer call
    loads, the serving stream and its stages (each a gazetteer file to reset
    the live file to or to append to it, and an utterance count), and the
    files the CLI worker concatenates (``lines``, where given, keeps only
    the first lines of the result); for ``grown-gazetteer``,
    ``grown_rows`` lists the novel-row files in the order they join the
    gazetteer (base first, then one per stage).
    """
    sp = spec()
    data, run = work / "data", work / "run"
    spec_path = work / "spec.json"
    save_spec(sp, spec_path)
    trained_gaz = run / "gazetteer.tsv"
    job = {
        "spec": str(spec_path), "data": str(data), "run": str(run),
        "model": str(run / "model.json"), "trained_gazetteer": str(trained_gaz),
        "cli_gazetteer": str(trained_gaz), "live_gazetteer": str(trained_gaz),
        "cat": [], "stages": [], "grown_rows": [],
    }
    if workload in ("synth-cli", "dense-matches"):
        if workload == "synth-cli":
            path, count = data / "test.jsonl", TEST_COUNT
            job["cli_input"] = str(work / "cli.jsonl")
            job["cat"] = [{"from": [str(path)], "to": job["cli_input"], "lines": CLI_COUNT}]
        else:
            path, count = work / "dense.jsonl", DENSE_COUNT
            _write_jsonl(path, _dense_records(seed, sp))
            job["cli_input"] = str(path)
        # the serving round reloads the unchanged gazetteer at every stage
        job["serve_input"] = str(path)
        job["stages"] = [{"reset": None, "append": None, "count": count // STAGES}
                         for _ in range(STAGES)]
        return job

    if workload != "grown-gazetteer":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"grown:{seed}")
    taken = set(_spec_words(sp))
    base = _novel_phrases(rng, GROWN_BASE, taken)
    batches = [_novel_phrases(rng, GROWN_BATCH, taken) for _ in range(STAGES - 1)]
    novel_base = work / "novel_base.tsv"
    novel_base.write_text(_rows(base), encoding="utf-8")
    grown_base, grown_full = work / "grown_base.tsv", work / "grown_full.tsv"
    job["cat"] = [
        {"from": [str(trained_gaz), str(novel_base)], "to": str(grown_base)},
        {"from": [str(grown_base)], "to": str(grown_full)},
    ]
    job["grown_rows"] = [str(novel_base)]
    stages, records, cli_records = [], [], []
    for s, batch in enumerate([base] + batches):
        stage_records = _grown_records(rng, sp, batch)
        records += stage_records
        cli_records += stage_records[:GROWN_CLI_PER_STAGE]
        if s == 0:
            stages.append({"reset": str(grown_base), "append": None})
        else:
            path = work / f"batch{s}.tsv"
            path.write_text(_rows(batch), encoding="utf-8")
            job["cat"][1]["from"].append(str(path))
            job["grown_rows"].append(str(path))
            stages.append({"reset": None, "append": str(path)})
        stages[-1]["count"] = len(stage_records)
    path, cli_path = work / "grown.jsonl", work / "grown_cli.jsonl"
    _write_jsonl(path, records)
    _write_jsonl(cli_path, cli_records)
    job.update(cli_input=str(cli_path), serve_input=str(path), cli_gazetteer=str(grown_full),
               live_gazetteer=str(work / "grown_live.tsv"), stages=stages)
    return job
