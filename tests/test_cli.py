"""End-to-end CLI coverage: gen -> train -> infer -> eval on a small corpus,
plus config files and exit codes (0 success, 1 validation, 2 I/O)."""

import dataclasses
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_loglinear import assert_same_parse, count_intent_passes

from iterdelex import cli
from iterdelex.cli import _config_keys, _parse_args, _parse_bool, build_parser, main
from iterdelex.corpus import SlotLabel, load_dataset, repair_bio
from iterdelex.engine import EngineConfig, iterative_parse
from iterdelex.gazetteer import load_gazetteer
from iterdelex.loglinear import LogLinearBackend
from iterdelex.synth import default_spec, save_spec


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A spec file, generated corpus, and trained model shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = dataclasses.replace(default_spec(), train_count=300, test_count=60)
    spec_path = root / "spec.json"
    save_spec(spec, spec_path)
    assert main(["gen", "--spec", str(spec_path), "--seed", "7",
                 "--out", str(root / "data")]) == 0
    assert main(["train", "--data", str(root / "data" / "train.jsonl"),
                 "--out", str(root / "run")]) == 0
    return {
        "root": root,
        "spec": spec_path,
        "train": root / "data" / "train.jsonl",
        "test": root / "data" / "test.jsonl",
        "model": root / "run" / "model.json",
        "gazetteer": root / "run" / "gazetteer.tsv",
    }


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def json_values(integers=st.integers()):
    """Random JSON values, nested up to a dozen leaves."""
    scalars = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=4)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    )


class TestGen:
    def test_outputs_both_splits(self, workspace):
        assert len(read_jsonl(workspace["train"])) == 300
        assert len(read_jsonl(workspace["test"])) == 60

    def test_deterministic(self, workspace, tmp_path, capsys):
        assert main(["gen", "--spec", str(workspace["spec"]), "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "train.jsonl").read_bytes() == workspace["train"].read_bytes()
        out = capsys.readouterr().out
        assert "message slot:" in out and "out-of-vocabulary" in out

    def test_seed_required(self, workspace, tmp_path, capsys):
        code = main(["gen", "--spec", str(workspace["spec"]), "--out", str(tmp_path)])
        assert code == 1
        assert "requires --seed" in capsys.readouterr().err

    def test_seed_from_config(self, workspace, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("seed = 7\n")
        assert main(["gen", "--spec", str(workspace["spec"]), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "train.jsonl").read_bytes() == workspace["train"].read_bytes()

    @pytest.mark.parametrize("edit,field", [
        pytest.param(lambda p: p.update(intents=5), "'intents'", id="intents-number"),
        pytest.param(lambda p: p.update(intents=[5]), "'intents'", id="intents-numbers"),
        pytest.param(lambda p: [1, 2], "JSON object", id="spec-list"),
        pytest.param(lambda p: p.update(open_len=5), "'open_len'", id="open_len-number"),
        pytest.param(lambda p: p["intents"][0].update(weight="heavy"), "'weight'",
                     id="weight-string"),
    ])
    def test_malformed_spec_names_file_and_field(self, workspace, tmp_path, capsys, edit,
                                                 field):
        payload = json.loads(workspace["spec"].read_text())
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(edit(payload) or payload))
        assert main(["gen", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(spec) in err and field in err

    def test_spec_field_swapped_for_random_json(self, workspace, tmp_path):
        """Any JSON value in place of any spec field exits 0, 1 or 2, never
        with an exception."""
        payload = json.loads(workspace["spec"].read_text())

        # integers stay small, so that a spec that is still valid generates quickly
        @settings(max_examples=100, deadline=None)
        @given(st.sampled_from(sorted(payload)), json_values(st.integers(-2, 40)))
        def check(field, value):
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({**payload, field: value}))
            assert main(["gen", "--spec", str(spec), "--seed", "1",
                         "--out", str(tmp_path / "out")]) in (0, 1, 2)

        check()

    def test_missing_spec_file_is_io_error(self, tmp_path):
        assert main(["gen", "--spec", str(tmp_path / "nope.json"), "--seed", "1",
                     "--out", str(tmp_path)]) == 2


class TestTrain:
    def test_artifacts_written(self, workspace, capsys):
        assert workspace["model"].exists()
        assert workspace["gazetteer"].exists()
        LogLinearBackend.load(workspace["model"])  # parses cleanly

    def test_summary_printed(self, workspace, tmp_path, capsys):
        assert main(["train", "--data", str(workspace["train"]),
                     "--out", str(tmp_path / "run2")]) == 0
        out = capsys.readouterr().out
        assert "trained on 300 utterances" in out
        assert "model:" in out

    def test_reproducible_model_file(self, workspace, tmp_path):
        assert main(["train", "--data", str(workspace["train"]),
                     "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "model.json").read_bytes() == workspace["model"].read_bytes()

    def test_unlabeled_data_rejected(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"tokens": ["hi"]}\n')
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        assert "labels and intents" in capsys.readouterr().err

    def test_malformed_record_rejected(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"tokens": 5}\n')
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        assert "bad.jsonl:1: 'tokens' is not an array of strings" in capsys.readouterr().err

    def test_intent_with_line_break_rejected(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps({"tokens": ["a"], "labels": ["O"], "intent": "x\ny"}) + "\n")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert f"{data}:1: intent name 'x\\ny' contains a line break" in err
        assert not (tmp_path / "run").exists()

    def test_missing_data_is_io_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "run")]) == 2

    def test_token_empty_or_with_whitespace_rejected(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text(
            json.dumps({"tokens": ["play", ""], "labels": ["O", "B-song"],
                        "intent": "play"}) + "\n"
            + json.dumps({"tokens": ["call", "john smith"], "labels": ["O", "B-contact"],
                          "intent": "call"}) + "\n"
        )
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{data}:1: token ''" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("suffix", [".jsonl", ".conll"])
    def test_slot_type_with_whitespace_rejected(self, tmp_path, capsys, suffix):
        """``B-my contact`` would give the placeholder ``<my contact>``, two
        tokens once re-split: exit 1, naming the file and line."""
        data = tmp_path / f"bad{suffix}"
        if suffix == ".jsonl":
            data.write_text("".join(
                json.dumps({"tokens": ["call", name], "labels": ["O", label],
                            "intent": "call"}) + "\n"
                for name, label in (("bob", "B-contact"), ("ann", "B-my contact"))
            ))
            line = 2
        else:
            data.write_text("#intent=call\ncall\tO\nbob\tB-contact\n\n"
                            "#intent=call\ncall\tO\nann\tB-my contact\n")
            line = 7
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}:{line}: slot type 'my contact' contains whitespace\n"
        )
        assert not (tmp_path / "run").exists()

    def test_placeholder_surface_in_corpus_rejected(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text("".join(
            json.dumps({"tokens": ["call", name], "labels": ["O", "B-contact"],
                        "intent": "call"}) + "\n"
            for name in ("bob", "<contact>")
        ))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            "error: placeholder surface '<contact>' collides with a training token\n"
        )


def infer_args(ws, output, extra=()):
    return [
        "infer",
        "--model", str(ws["model"]),
        "--gazetteer", str(ws["gazetteer"]),
        "--input", str(ws["test"]),
        "--output", str(output),
        *extra,
    ]


class TestInfer:
    def test_engine_predictions_shape(self, workspace, tmp_path):
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--ood-slots", "message"])) == 0
        rows = read_jsonl(out)
        assert len(rows) == 60
        for row in rows:
            assert set(row) == {"tokens", "intent", "labels", "delexicalized",
                                "iterations", "candidates"}
            assert len(row["labels"]) == len(row["tokens"])
            for lab in row["labels"]:
                SlotLabel.parse(lab)  # well-formed BIO strings
            assert row["iterations"] >= 0
            assert row["candidates"] >= 1

    def test_baseline_mode(self, workspace, tmp_path):
        out = tmp_path / "base.jsonl"
        assert main(infer_args(workspace, out, ["--baseline"])) == 0
        for row in read_jsonl(out):
            assert row["delexicalized"] == row["tokens"]
            assert row["iterations"] == 0
            assert row["candidates"] == 1

    def test_trace_written(self, workspace, tmp_path):
        out = tmp_path / "pred.jsonl"
        trace = tmp_path / "trace.txt"
        assert main(infer_args(workspace, out,
                               ["--trace", str(trace), "--ood-slots", "message"])) == 0
        text = trace.read_text()
        assert text.startswith("iter0\t")
        blocks = text.split("\n\n")
        assert len(blocks) == 60
        for line in blocks[0].splitlines():
            iter_part, score_part, provenance, tokens = line.split("\t")
            assert iter_part.startswith("iter")
            float(score_part)
            assert provenance in {"original", "seed", "proper_span",
                                  "improper_span", "expansion"}
            assert tokens

    def test_engine_equals_uncached_loop(self, workspace, tmp_path, capsys):
        """Output and trace bytes are those of one plain ``iterative_parse``
        per utterance, and the summary's tagger calls and cache hits add up
        to the ``parse`` calls those runs made: each distinct token sequence
        is a call, each repeat a hit."""
        out, trace = tmp_path / "pred.jsonl", tmp_path / "trace.txt"
        assert main(infer_args(workspace, out,
                               ["--ood-slots", "message", "--trace", str(trace)])) == 0
        printed = capsys.readouterr().out

        model = LogLinearBackend.load(workspace["model"])
        parsed = []

        class Counting:
            label_set, intent_set = model.label_set, model.intent_set

            def parse(self, tokens):
                parsed.append(tuple(tokens))
                return model.parse(tokens)

        gazetteer = load_gazetteer(workspace["gazetteer"])
        config = EngineConfig(ood_slots=("message",))
        rows, blocks = [], []
        for utt in load_dataset(workspace["test"]):
            outcome = iterative_parse(utt.tokens, Counting(), gazetteer,
                                      gazetteer.token_table(), config)
            rows.append(json.dumps({
                "tokens": list(utt.tokens),
                "intent": outcome.intent,
                "labels": [str(lab) for lab in outcome.labels],
                "delexicalized": list(outcome.best.tokens),
                "iterations": outcome.iterations_run,
                "candidates": outcome.candidates_evaluated,
            }) + "\n")
            blocks.append(outcome.trace_text())
        assert out.read_text() == "".join(rows)
        assert trace.read_text() == "\n".join(blocks)

        calls = len(set(parsed))
        hits = len(parsed) - calls
        assert hits > 0
        assert printed == (f"parsed 60 utterances (rewrite engine, {calls} tagger calls, "
                           f"{hits} cache hits) -> {out}\n")

    def test_baseline_equals_per_utterance_parse(self, workspace, tmp_path):
        """``--baseline`` tags its input as one batch, and its file has the
        bytes of rows built from one ``parse`` per utterance."""
        out = tmp_path / "base.jsonl"
        assert main(infer_args(workspace, out, ["--baseline"])) == 0
        model = LogLinearBackend.load(workspace["model"])
        data = load_dataset(workspace["test"])
        rows = []
        for utt, batched in zip(data, model.parse_many([utt.tokens for utt in data])):
            parse = model.parse(utt.tokens)
            assert_same_parse(batched, parse)
            labels, _ = repair_bio(parse.predicted_labels)
            rows.append(json.dumps({
                "tokens": list(utt.tokens),
                "intent": parse.predicted_intent,
                "labels": [str(lab) for lab in labels],
                "delexicalized": list(utt.tokens),
                "iterations": 0,
                "candidates": 1,
            }) + "\n")
        assert out.read_text() == "".join(rows)

    def test_baseline_computes_intents_in_one_pass(self, workspace, tmp_path, monkeypatch):
        """``--baseline`` computes the intents of its batch in one stacked
        pass; the engine computes at most one intent per utterance, its
        winner's, each alone."""
        passes = count_intent_passes(monkeypatch)
        assert main(infer_args(workspace, tmp_path / "base.jsonl", ["--baseline"])) == 0
        assert passes == [60]
        passes.clear()
        assert main(infer_args(workspace, tmp_path / "pred.jsonl",
                               ["--ood-slots", "message"])) == 0
        assert 0 < len(passes) <= 60 and set(passes) == {1}

    def test_baseline_summary_unchanged(self, workspace, tmp_path, capsys):
        out = tmp_path / "base.jsonl"
        assert main(infer_args(workspace, out, ["--baseline"])) == 0
        assert capsys.readouterr().out == f"parsed 60 utterances (baseline) -> {out}\n"

    def test_trace_incompatible_with_baseline(self, workspace, tmp_path, capsys):
        out = tmp_path / "pred.jsonl"
        code = main(infer_args(workspace, out,
                               ["--baseline", "--trace", str(tmp_path / "t.txt")]))
        assert code == 1
        assert "drop --baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("trace", ["pred.jsonl", "./pred.jsonl", "link.jsonl"])
    def test_trace_naming_the_output_rejected(self, workspace, tmp_path, capsys, monkeypatch,
                                              trace):
        """One file cannot hold both the rows and the traces; the case exits 1
        before either file is opened, whichever name reaches it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "pred.jsonl")
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--trace", trace])) == 1
        assert f"--trace {trace}: the same file as --output" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,extra", [
        ("pred.txt", ["--baseline"]), ("pred.conll", []), ("pred", []), ("pred.JSONL", []),
    ])
    def test_output_not_named_jsonl_rejected(self, workspace, tmp_path, capsys, name, extra):
        """Rows are JSONL, and ``eval`` would read any other name as CoNLL."""
        out = tmp_path / name
        assert main(infer_args(workspace, out, extra)) == 1
        assert f"--output {out}: rows are JSONL" in capsys.readouterr().err
        assert not out.exists()

    def test_output_named_json_evaluates(self, workspace, tmp_path, capsys):
        out = tmp_path / "pred.json"
        assert main(infer_args(workspace, out, ["--baseline"])) == 0
        assert main(["eval", "--gold", str(workspace["test"]), "--pred", str(out)]) == 0
        assert "intent accuracy" in capsys.readouterr().out

    def test_malformed_record_rejected(self, workspace, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"tokens": ["call", null]}\n')
        code = main(infer_args({**workspace, "test": data}, tmp_path / "pred.jsonl"))
        assert code == 1
        assert "bad.jsonl:1: 'tokens' is not an array of strings" in capsys.readouterr().err

    def test_nan_tau_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--ood-slots", "message", "--tau", "nan"])) == 1
        assert "tau must be non-negative" in capsys.readouterr().err

    def test_unknown_ood_slot_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--ood-slots", "bogus"])) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_ood_slots_naming_no_slot_rejected(self, workspace, tmp_path, capsys, value):
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--ood-slots", value])) == 1
        assert "--ood-slots names no slot type" in capsys.readouterr().err

    def test_foreign_placeholder_rejected(self, workspace, tmp_path, capsys):
        hacked = tmp_path / "gaz.tsv"
        hacked.write_text(
            workspace["gazetteer"].read_text() + "slot\tbrandnew\twidget\n"
        )
        code = main([
            "infer", "--model", str(workspace["model"]),
            "--gazetteer", str(hacked),
            "--input", str(workspace["test"]),
            "--output", str(tmp_path / "pred.jsonl"),
        ])
        assert code == 1
        assert "never seen by the model" in capsys.readouterr().err

    def test_gazetteer_match_ignores_case(self, workspace, tmp_path):
        gazetteer = tmp_path / "gaz.tsv"
        gazetteer.write_text(workspace["gazetteer"].read_text() + "slot\tcontact\tZara\n")
        utterance = tmp_path / "utterance.jsonl"
        utterance.write_text(json.dumps({"tokens": ["call", "Zara", "on", "speaker"]}) + "\n")
        out = tmp_path / "pred.jsonl"
        assert main([
            "infer", "--model", str(workspace["model"]),
            "--gazetteer", str(gazetteer),
            "--input", str(utterance),
            "--output", str(out),
            "--ood-slots", "message",
        ]) == 0
        assert read_jsonl(out)[0]["delexicalized"] == ["call", "<contact>", "on", "speaker"]

    @pytest.mark.parametrize("key,edit", [
        pytest.param("params", lambda p: p.pop("params"), id="params"),
        pytest.param("slot_weights", lambda p: p.pop("slot_weights"), id="slot_weights"),
        pytest.param("slot_weights", lambda p: p["slot_weights"].pop(), id="slot_weights-rows"),
        pytest.param("slot_weights", lambda p: [r.pop() for r in p["slot_weights"]],
                     id="slot_weights-columns"),
        pytest.param("slot_weights", lambda p: p["slot_weights"][0].pop(),
                     id="slot_weights-ragged"),
        pytest.param("intent_weights", lambda p: p["intent_weights"].pop(),
                     id="intent_weights-rows"),
        pytest.param("intent_weights", lambda p: [r.pop() for r in p["intent_weights"]],
                     id="intent_weights-columns"),
        *[pytest.param(key, lambda p, key=key: p.update({key: 5}), id=f"{key}-number")
          for key in ("labels", "intents", "vocab", "special_tokens", "slot_features",
                      "intent_features")],
        pytest.param("vocab", lambda p: p.update(vocab=[1, 2]), id="vocab-numbers"),
        pytest.param("params", lambda p: p.update(params=[]), id="params-list"),
        pytest.param("params", lambda p: p["params"].update(l2="0.1"), id="params-l2-string"),
        pytest.param("params", lambda p: p["params"].update(l2=float("nan")), id="params-l2-nan"),
        pytest.param("params", lambda p: p["params"].update(l2=float("inf")), id="params-l2-inf"),
        *[pytest.param("params", lambda p, v=v: p["params"].update(max_iter=v),
                       id=f"params-max_iter-{v}")
          for v in (-3, 0, 2.5, float("inf"))],  # 1e400 in a file reads as inf
        pytest.param("params", lambda p: p["params"].update(min_count=1.5),
                     id="params-min_count-1.5"),
        pytest.param("labels", lambda p: p["labels"].__setitem__(1, "Q-x"), id="labels-invalid"),
        pytest.param("labels", lambda p: p["labels"].__setitem__(1, "B-my x"),
                     id="labels-whitespace"),
        *[pytest.param(key, lambda p, key=key, weights=weights: p.update(
            {key: [], weights: [[] for _ in p[weights]]}), id=f"{key}-empty")
          for key, weights in (("labels", "slot_weights"), ("intents", "intent_weights"))],
    ])
    def test_model_missing_entry_rejected(self, workspace, tmp_path, capsys, key, edit):
        """A missing or malformed model entry exits 1 with an error line
        naming the file and the entry."""
        payload = json.loads(workspace["model"].read_text())
        edit(payload)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code = main([
            "infer", "--model", str(model),
            "--gazetteer", str(workspace["gazetteer"]),
            "--input", str(workspace["test"]),
            "--output", str(tmp_path / "pred.jsonl"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err and repr(key) in err

    def test_model_entry_swapped_for_random_json(self, workspace, tmp_path):
        """Any JSON value in place of any model entry exits 0, 1 or 2, never
        with an exception."""
        payload = json.loads(workspace["model"].read_text())
        utterance = tmp_path / "utterance.jsonl"
        utterance.write_text(json.dumps({"tokens": ["text", "bob", "saying", "hi"]}) + "\n")

        @settings(max_examples=100, deadline=None)
        @given(st.sampled_from(sorted(payload)), json_values())
        def check(entry, value):
            model = tmp_path / "model.json"
            model.write_text(json.dumps({**payload, entry: value}))
            assert main([
                "infer", "--model", str(model),
                "--gazetteer", str(workspace["gazetteer"]),
                "--input", str(utterance),
                "--output", str(tmp_path / "pred.jsonl"),
            ]) in (0, 1, 2)

        check()

    @pytest.mark.parametrize("rows,group", [
        pytest.param("group\tg\tnosuch other\n", "'g'", id="member-without-slot-row"),
        pytest.param("group\tcontact\tsong\n", "'contact'", id="surface-collision"),
        pytest.param("group\tg\tsong\ngroup\th\tsong time\n", "'h'", id="slot-in-two-groups"),
        pytest.param("group\tg\tsong\ngroup\tg\ttime\n", "'g'", id="repeated-group"),
        pytest.param("group\tg\tsong song\n", "group 'g' lists slot 'song' twice",
                     id="slot-listed-twice"),
    ])
    def test_bad_group_rows_name_file_and_group(self, workspace, tmp_path, capsys, rows, group):
        gazetteer = tmp_path / "gaz.tsv"
        gazetteer.write_text(workspace["gazetteer"].read_text() + rows)
        code = main([
            "infer", "--model", str(workspace["model"]),
            "--gazetteer", str(gazetteer),
            "--input", str(workspace["test"]),
            "--output", str(tmp_path / "pred.jsonl"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(gazetteer) in err and group in err

    def test_random_gazetteer_rows(self, workspace, tmp_path):
        """Any rows appended to a gazetteer exit 0, 1 or 2, never with an
        exception."""
        base = workspace["gazetteer"].read_text()
        utterance = tmp_path / "utterance.jsonl"
        utterance.write_text(json.dumps({"tokens": ["text", "bob", "saying", "hi"]}) + "\n")
        names = ("", "contact", "song", "message", "g", "nosuch")
        kinds = st.sampled_from(("slot", "context", "ambiguous", "group", "bogus"))
        words = st.lists(st.sampled_from(names[1:] + ("bob",)), max_size=3).map(" ".join)
        rows = (st.tuples(kinds, st.sampled_from(names), words).map("\t".join)
                | st.text(max_size=12))

        @settings(max_examples=100, deadline=None)
        @given(st.lists(rows, max_size=4))
        def check(extra):
            gazetteer = tmp_path / "gaz.tsv"
            gazetteer.write_text(base + "".join(row + "\n" for row in extra))
            assert main([
                "infer", "--model", str(workspace["model"]),
                "--gazetteer", str(gazetteer),
                "--input", str(utterance),
                "--output", str(tmp_path / "pred.jsonl"),
            ]) in (0, 1, 2)

        check()

    @pytest.mark.parametrize("flag", ["--output", "--trace"])
    def test_unwritable_output_fails_before_parsing(self, workspace, tmp_path, capsys,
                                                     monkeypatch, flag):
        def parse(*args):
            raise AssertionError("parsed before the output files were opened")

        monkeypatch.setattr(cli, "iterative_parse", parse)
        paths = {"--output": tmp_path / "pred.jsonl", "--trace": tmp_path / "trace.txt"}
        paths[flag] = tmp_path / "missing" / paths[flag].name
        args = infer_args(workspace, paths["--output"], ["--trace", str(paths["--trace"])])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(paths[flag]) in err

    def test_unwritable_baseline_output_fails_before_parsing(self, workspace, tmp_path,
                                                             capsys, monkeypatch):
        def parse_many(*args):
            raise AssertionError("parsed before the output file was opened")

        monkeypatch.setattr(LogLinearBackend, "parse_many", parse_many)
        out = tmp_path / "missing" / "base.jsonl"
        assert main(infer_args(workspace, out, ["--baseline"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err

    @pytest.mark.parametrize("row,name", [
        pytest.param("slot\tmy contact\tbob\n", "slot type 'my contact'", id="slot-type"),
        pytest.param("group\tmy g\tsong\n", "shared group name 'my g'", id="group-name"),
    ])
    def test_gazetteer_name_with_whitespace_rejected(self, workspace, tmp_path, capsys,
                                                    row, name):
        """A slot type or group name that holds whitespace would give a
        placeholder that is no single token: exit 1, naming the file."""
        gazetteer = tmp_path / "gaz.tsv"
        gazetteer.write_text(workspace["gazetteer"].read_text() + row)
        code = main([
            "infer", "--model", str(workspace["model"]),
            "--gazetteer", str(gazetteer),
            "--input", str(workspace["test"]),
            "--output", str(tmp_path / "pred.jsonl"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {gazetteer}: {name} contains whitespace\n"

    def test_missing_model_is_io_error(self, workspace, tmp_path):
        code = main([
            "infer", "--model", str(tmp_path / "nope.json"),
            "--gazetteer", str(workspace["gazetteer"]),
            "--input", str(workspace["test"]),
            "--output", str(tmp_path / "pred.jsonl"),
        ])
        assert code == 2


@pytest.fixture(scope="module")
def predictions(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval") / "pred.jsonl"
    assert main(infer_args(workspace, out, ["--ood-slots", "message"])) == 0
    return out


class TestEval:
    def test_report_printed(self, workspace, predictions, capsys):
        assert main(["eval", "--gold", str(workspace["test"]),
                     "--pred", str(predictions)]) == 0
        out = capsys.readouterr().out
        assert "overall (micro)" in out
        assert "intent accuracy" in out
        assert "message" in out

    def test_categories_file(self, workspace, predictions, tmp_path, capsys):
        cats = tmp_path / "cats.txt"
        cats.write_text("message\ncontact\n")
        assert main(["eval", "--gold", str(workspace["test"]),
                     "--pred", str(predictions), "--categories", str(cats)]) == 0
        out = capsys.readouterr().out
        assert "message" in out and "contact" in out
        assert "city" not in out

    def test_empty_categories_rejected(self, workspace, predictions, tmp_path, capsys):
        cats = tmp_path / "cats.txt"
        cats.write_text("\n\n")
        assert main(["eval", "--gold", str(workspace["test"]),
                     "--pred", str(predictions), "--categories", str(cats)]) == 1
        assert "no category names" in capsys.readouterr().err

    def test_mismatched_files_rejected(self, workspace, predictions, capsys):
        assert main(["eval", "--gold", str(workspace["train"]),
                     "--pred", str(predictions)]) == 1


def config_keys():
    """Each subcommand's config keys, with their converters, from the parser."""
    return {name: _config_keys(command) for name, command in build_parser().commands.items()}


class TestConfigFiles:
    # two values each converter reads, as a config file spells them
    SAMPLES = {float: ("0.25", "0.5"), int: ("3", "5"), str: ("a.txt", "b.txt"),
               _parse_bool: ("yes", "no")}

    @pytest.mark.parametrize("name,key", [
        (name, key) for name, keys in config_keys().items() for key in sorted(keys)
    ])
    def test_config_line_parses_as_its_flag(self, tmp_path, name, key):
        """A config line sets what its flag sets, and a flag given with the
        config wins; a flag that takes no value is set by ``yes``."""
        command = build_parser().commands[name]
        required = [arg for action in command._actions if action.required
                    for arg in (action.option_strings[0], "x")]
        option = "--" + key.replace("_", "-")
        action = command._option_string_actions[option]
        assert action.dest == key
        value, other = self.SAMPLES[_config_keys(command)[key]]
        flag = [option] + ([] if action.nargs == 0 else [value])
        cfg = tmp_path / "c.cfg"

        def parsed(lines, *argv):
            cfg.write_text(lines)
            return getattr(_parse_args([name, *required, *argv, "--config", str(cfg)]), key)

        from_flag = getattr(_parse_args([name, *required, *flag]), key)
        assert from_flag != getattr(_parse_args([name, *required]), key)
        assert parsed(f"{key} = {value}\n") == from_flag
        assert parsed(f"{key} = {other}\n", *flag) == from_flag

    def test_values_used_as_defaults(self, workspace, tmp_path):
        cfg = tmp_path / "infer.cfg"
        cfg.write_text("# engine settings\nbaseline = yes\n")
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--config", str(cfg)])) == 0
        assert all(r["iterations"] == 0 for r in read_jsonl(out))

    def test_flags_override_config(self, workspace, tmp_path):
        cfg = tmp_path / "infer.cfg"
        cfg.write_text("k = 1\ntau = 0.9\nood_slots = message\n")
        out = tmp_path / "pred.jsonl"
        # flag --k 8 wins over config k = 1; config still supplies tau/ood
        assert main(infer_args(workspace, out, ["--config", str(cfg), "--k", "8"])) == 0

    def test_unknown_key_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "infer.cfg"
        cfg.write_text("beam = 3\n")
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--config", str(cfg)])) == 1
        err = capsys.readouterr().err
        assert "unknown key 'beam'" in err
        assert "allowed:" in err

    def test_malformed_line_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "infer.cfg"
        cfg.write_text("just some words\n")
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--config", str(cfg)])) == 1
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_bad_value_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "infer.cfg"
        cfg.write_text("tau = warm\n")
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--config", str(cfg)])) == 1
        assert "bad value for 'tau'" in capsys.readouterr().err

    def test_empty_ood_slots_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "infer.cfg"
        cfg.write_text("ood_slots =\n")
        out = tmp_path / "pred.jsonl"
        assert main(infer_args(workspace, out, ["--config", str(cfg)])) == 1
        assert "--ood-slots names no slot type" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, workspace, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("# a comment\n\nseed = 3\n")
        assert main(["gen", "--spec", str(workspace["spec"]), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0


    def test_readme_lists_every_key(self):
        """README § Commands lists each subcommand's config keys."""
        block = README.read_text().split("spelled with underscores:\n\n")[1].split("\n\n")[0]
        listed = {}
        for line in block.splitlines():
            command, keys = re.match(r"- `(\w+)`: (.*)$", line).groups()
            listed[command] = sorted(re.findall(r"`(\w+)`", keys))
        assert listed == {command: sorted(keys) for command, keys in config_keys().items()}

    def test_random_config_lines(self, workspace, tmp_path, monkeypatch):
        """Any ``key = value`` lines in an infer config exit 0, 1 or 2, never
        with an exception."""
        monkeypatch.chdir(tmp_path)  # a trace path from the config lands here
        utterance = tmp_path / "utterance.jsonl"
        utterance.write_text(json.dumps({"tokens": ["text", "bob", "saying", "hi"]}) + "\n")
        keys = st.sampled_from(sorted(config_keys()["infer"]) + ["model", "ood-slots", ""])
        values = st.sampled_from(
            ["0", "-1", "3", "0.1", "nan", "inf", "yes", "off", "message", "contact,song", "x"]
        ) | st.text(  # a surrogate cannot be written to a UTF-8 file
            st.characters(blacklist_characters="/\\", blacklist_categories=("Cs",)), max_size=8
        )
        lines = st.tuples(keys, values).map(" = ".join) | st.text(max_size=12)

        @settings(max_examples=100, deadline=None)
        @given(st.lists(lines, max_size=4))
        def check(config_lines):
            cfg = tmp_path / "infer.cfg"
            cfg.write_text("".join(line + "\n" for line in config_lines))
            assert main([
                "infer", "--model", str(workspace["model"]),
                "--gazetteer", str(workspace["gazetteer"]),
                "--input", str(utterance),
                "--output", str(tmp_path / "pred.jsonl"),
                "--config", str(cfg),
            ]) in (0, 1, 2)

        check()


@pytest.mark.parametrize("kind,name", [
    ("config", "bad.cfg"), ("gazetteer", "bad.tsv"), ("jsonl", "bad.jsonl"),
    ("conll", "bad.conll"), ("model", "bad.json"), ("spec", "bad.json"),
])
def test_file_not_utf8_names_itself(workspace, tmp_path, capsys, kind, name):
    bad = tmp_path / name
    bad.write_bytes(b"#\n\xff\n")
    argv = {
        "jsonl": ["train", "--data", bad, "--out", tmp_path / "run"],
        "conll": ["train", "--data", bad, "--out", tmp_path / "run"],
        "spec": ["gen", "--spec", bad, "--seed", "1", "--out", tmp_path / "out"],
    }.get(kind) or infer_args({**workspace, kind: bad}, tmp_path / "pred.jsonl",
                              ["--config", bad] if kind == "config" else [])
    assert main([str(arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "not UTF-8" in err


@pytest.mark.parametrize("kind", ["config", "gazetteer", "test"])
def test_utf8_bom_skipped(workspace, tmp_path, kind):
    """A gazetteer, a JSONL corpus or a config file that starts with a UTF-8
    byte-order mark reads as the same file without it."""
    config = tmp_path / "infer.cfg"
    config.write_text("tau = 0.1\nood_slots = message\n", encoding="utf-8")
    files = {**workspace, "config": config}
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
    assert main(infer_args(files, plain, ["--config", str(files["config"])])) == 0
    bom = tmp_path / f"bom-{files[kind].name}"
    bom.write_text("\ufeff" + files[kind].read_text(encoding="utf-8"), encoding="utf-8")
    files[kind] = bom
    assert main(infer_args(files, marked, ["--config", str(files["config"])])) == 0
    assert marked.read_bytes() == plain.read_bytes()


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--out", "/tmp/x"]) == 1
        assert "--data" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Each ``iterdelex`` command line in the README's Quick start."""
    block = README.read_text().split("## Quick start")[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("iterdelex ")]


def readme_flags():
    """(subcommand, flag) for every --flag the README names under a subcommand."""
    flags = {(argv[0], w) for argv in readme_commands() for w in argv if w.startswith("--")}
    commands = README.read_text().split("## Commands")[1].split("\n\n")[1]
    for bullet in commands.split("\n- "):
        command = re.match(r"-? ?`(\w+)`", bullet).group(1)
        flags |= {(command, flag) for flag in re.findall(r"`(--[\w-]+)", bullet)}
    return flags


class TestReadme:
    def test_quick_start_commands_parse(self):
        commands = readme_commands()
        assert [argv[0] for argv in commands] == ["gen", "train", "infer", "eval"]
        for argv in commands:
            build_parser().parse_args(argv)

    def test_every_flag_named_under_a_subcommand_exists(self):
        flags = readme_flags()
        assert ("infer", "--k") in flags and ("eval", "--categories") in flags
        subparsers = build_parser().commands
        unknown = sorted((cmd, flag) for cmd, flag in flags
                         if flag not in subparsers[cmd]._option_string_actions)
        assert unknown == []

    def test_library_snippet_runs(self, workspace, tmp_path, monkeypatch, capsys):
        block = README.read_text().split("## Library")[1].split("```python\n")[1].split("```")[0]
        (tmp_path / "run").mkdir()
        for name in ("model", "gazetteer"):
            shutil.copy(workspace[name], tmp_path / "run")
        monkeypatch.chdir(tmp_path)
        namespace = {}
        exec(block, namespace)
        outcome = namespace["outcome"]
        printed = capsys.readouterr().out
        assert printed == (f"{outcome.intent} {outcome.labels} {outcome.best.tokens}\n"
                           f"{outcome.trace_text()}\n")
        trace = outcome.trace_text().splitlines()
        assert len(trace) == outcome.candidates_evaluated
        assert trace[0].startswith("iter0\t")
        assert len(outcome.labels) == 8
