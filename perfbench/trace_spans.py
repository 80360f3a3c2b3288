"""In-memory span tracer that wraps iterdelex's layers from outside.

``install()`` replaces each traced function with a wrapper under the name
its caller looks it up by, so no module under ``src/`` changes.  A span is
``[name, start, end, parent, utterance, count]``: ``parent`` indexes the
enclosing span (-1 at the root), every span inside one ``iterative_parse``
call shares that call's utterance id (-1 outside any), and ``count`` is a
per-layer work count (tokens parsed, matches found, ...).  Spans stay in
memory until the worker writes them out at exit.

``layer_metrics`` turns the spans of the CLI worker and of the serving
worker into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
import time

_NAME, _START, _END, _PARENT, _UTT, _COUNT = range(6)

UNITS = {
    "gazetteer.load_ms": "ms", "gazetteer.build_ms": "ms", "gazetteer.slot_phrases": "count",
    "seed.find_matches_ms_per_utt": "ms", "seed.matches_per_utt": "count",
    "seed.seed_candidates_self_ms_per_utt": "ms", "seed.seeds_per_utt": "count",
    "seed.cap_hit_utts": "count", "loglinear.parse_calls_per_utt": "count",
    "loglinear.parse_tokens_per_call": "count", "loglinear.parse_self_us_per_token": "us",
    "backend.from_distributions_us_per_token": "us", "loglinear.load_ms": "ms",
    "loglinear.train_self_s": "s", "loglinear.lbfgs_iterations": "count",
    "loglinear.objective_calls": "count", "loglinear.objective_ms_per_call": "ms",
    "augment.delexicalize_s": "s", "engine.self_ms_per_utt": "ms",
    "engine.score_ms_per_utt": "ms", "engine.rewrites_ms_per_utt": "ms",
    "engine.project_ms_per_utt": "ms", "engine.candidates_per_utt": "count",
    "engine.iterations_per_utt": "count", "engine.cache_hits_per_utt": "count",
    "engine.rewrite_yield": "ratio", "corpus.load_ms": "ms",
    "cli.trace_text_ms_per_utt": "ms", "cli.self_ms_per_utt": "ms",
    "trace.overhead_pct": "%", "trace.self_accounted_pct": "%",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._utt = -1
        self._next_utt = 0

    def wrap(self, name, fn, count=None, new_utt=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            outer_utt = self._utt
            if new_utt:
                self._utt, self._next_utt = self._next_utt, self._next_utt + 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._utt, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
                self._utt = outer_utt
            if count is not None:
                rec[_COUNT] = count(args, result)
            return result

        return traced


def _n_result(args, result):
    return len(result)


def _n_slot_phrases(args, result):
    return sum(len(p) for p in result.slot_phrases.values())


def install() -> Tracer:
    import iterdelex.cli as cli
    import iterdelex.engine as engine
    import iterdelex.gazetteer as gazetteer
    import iterdelex.loglinear as loglinear
    import iterdelex.seed as seed
    from iterdelex.backend import ParseResult
    from iterdelex.engine import InferenceOutcome
    from iterdelex.loglinear import LogLinearBackend

    tracer = Tracer()
    outcome = lambda args, out: [out.candidates_evaluated, out.iterations_run]  # noqa: E731
    plain = [
        (cli, "_cmd_train", "cli.train", None),
        (cli, "_cmd_infer", "cli.infer", None),
        (cli, "load_dataset", "corpus.load", _n_result),
        (cli, "build_gazetteer", "gazetteer.build", None),
        (cli, "load_gazetteer", "gazetteer.load", _n_slot_phrases),
        (gazetteer, "load_gazetteer", "gazetteer.load", _n_slot_phrases),
        (cli, "delexicalize_training", "augment.delexicalize", None),
        (engine, "seed_candidates", "seed.seed_candidates", _n_result),
        (seed, "find_matches", "seed.find_matches", _n_result),
        (engine, "score", "engine.score", None),
        (engine, "generate_rewrites", "engine.generate_rewrites", _n_result),
        (engine, "project_labels", "engine.project_labels", None),
        (LogLinearBackend, "parse", "loglinear.parse", lambda args, r: len(args[1])),
        (InferenceOutcome, "trace_text", "cli.trace_text", None),
    ]
    for owner, attr, name, count in plain:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
    for owner, attr in ((cli, "iterative_parse"), (engine, "iterative_parse")):
        setattr(owner, attr, tracer.wrap("engine.iterative_parse", getattr(owner, attr),
                                         outcome, new_utt=True))
    for owner, attr, name, count in (
        (LogLinearBackend, "load", "loglinear.load", None),
        (LogLinearBackend, "train", "loglinear.train", None),
        (ParseResult, "from_distributions", "backend.from_distributions",
         lambda args, r: len(args[3])),
    ):
        fn = owner.__dict__[attr].__func__
        setattr(owner, attr, classmethod(tracer.wrap(name, fn, count)))

    minimize = loglinear.minimize

    def minimize_traced_objective(fun, x0, *args, **kwargs):
        return minimize(tracer.wrap("loglinear.objective", fun), x0, *args, **kwargs)

    loglinear.minimize = tracer.wrap("loglinear.minimize", minimize_traced_objective,
                                     lambda args, r: int(r.nit))
    return tracer


# ---------------------------------------------------------------------------
# aggregation


def _self_times(spans) -> list[float]:
    own = [s[_END] - s[_START] for s in spans]
    for s in spans:
        if s[_PARENT] >= 0:
            own[s[_PARENT]] -= s[_END] - s[_START]
    return own


def _dur(s) -> float:
    return s[_END] - s[_START]


def layer_metrics(cli_spans, serve, untraced_serve, seed_cap) -> dict:
    """Per-layer metrics; per-utterance figures average over every
    ``iterative_parse`` call of the CLI engine calls and the serving loop.

    ``serve`` is the traced serving worker's result and ``untraced_serve``
    the untraced one's, whose time per utterance gives the overhead."""
    offset = len(cli_spans)
    spans = cli_spans + [s[:_PARENT] + [s[_PARENT] + offset if s[_PARENT] >= 0 else -1]
                         + s[_UTT:] for s in serve["spans"]]
    own = _self_times(spans)

    def named(name, lo=0, hi=len(spans)):
        return [i for i in range(lo, hi) if spans[i][_NAME] == name]

    def in_utt(name):
        return [i for i in named(name) if spans[i][_UTT] >= 0]

    def total(idx, times=None):
        return sum(times[i] if times else _dur(spans[i]) for i in idx)

    def count(idx):
        return sum(spans[i][_COUNT] for i in idx)

    utts = named("engine.iterative_parse")
    n_utt = len(utts)
    parses = in_utt("loglinear.parse")
    from_dist = in_utt("backend.from_distributions")
    seeds = in_utt("seed.seed_candidates")
    rewrites = in_utt("engine.generate_rewrites")
    objective = named("loglinear.objective")
    candidates = sum(spans[i][_COUNT][0] for i in utts)
    infer_calls = named("cli.infer", hi=offset)
    # matches found under each seed_candidates call tell truncated seed sets
    # apart; cap hits are counted over the first CLI engine call, which
    # parses each workload input once
    matches_under = {spans[i][_PARENT]: spans[i][_COUNT] for i in in_utt("seed.find_matches")}
    cap_hits = sum(1 for i in seeds if spans[spans[i][_PARENT]][_PARENT] == infer_calls[0]
                   and 2 ** matches_under[i] > seed_cap)
    corpus_loads = [i for i in named("corpus.load") if spans[i][_PARENT] in set(infer_calls)]
    serve_loads = named("gazetteer.load", lo=offset)
    serve_utts = len(named("engine.iterative_parse", lo=offset))
    loop_roots = [i for i in range(offset, len(spans))
                  if spans[i][_PARENT] < 0 and spans[i][_START] >= serve["loop_start"]]
    traced_per_utt = serve["wall"] / serve_utts
    untraced_per_utt = untraced_serve["wall"] / len(untraced_serve["latencies"])

    def per_utt_ms(idx, times=None):
        return 1e3 * total(idx, times) / n_utt

    return {
        "gazetteer.load_ms": 1e3 * statistics.median(_dur(spans[i]) for i in serve_loads),
        "gazetteer.build_ms": 1e3 * total(named("gazetteer.build")),
        "gazetteer.slot_phrases": statistics.median(spans[i][_COUNT] for i in serve_loads),
        "seed.find_matches_ms_per_utt": per_utt_ms(in_utt("seed.find_matches")),
        "seed.matches_per_utt": sum(matches_under.values()) / n_utt,
        "seed.seed_candidates_self_ms_per_utt": per_utt_ms(seeds, own),
        "seed.seeds_per_utt": count(seeds) / n_utt,
        "seed.cap_hit_utts": cap_hits,
        "loglinear.parse_calls_per_utt": len(parses) / n_utt,
        "loglinear.parse_tokens_per_call": count(parses) / len(parses),
        "loglinear.parse_self_us_per_token": 1e6 * total(parses, own) / count(parses),
        "backend.from_distributions_us_per_token": 1e6 * total(from_dist) / count(from_dist),
        "loglinear.load_ms":
            1e3 * statistics.median(_dur(spans[i]) for i in named("loglinear.load")),
        "loglinear.train_self_s": total(named("loglinear.train"), own),
        "loglinear.lbfgs_iterations": count(named("loglinear.minimize")),
        "loglinear.objective_calls": len(objective),
        "loglinear.objective_ms_per_call": 1e3 * total(objective) / len(objective),
        "augment.delexicalize_s": total(named("augment.delexicalize")),
        "engine.self_ms_per_utt": per_utt_ms(utts, own),
        "engine.score_ms_per_utt": per_utt_ms(in_utt("engine.score")),
        "engine.rewrites_ms_per_utt": per_utt_ms(rewrites),
        "engine.project_ms_per_utt": per_utt_ms(in_utt("engine.project_labels")),
        "engine.candidates_per_utt": candidates / n_utt,
        "engine.iterations_per_utt": sum(spans[i][_COUNT][1] for i in utts) / n_utt,
        "engine.cache_hits_per_utt": (candidates - len(parses)) / n_utt,
        "engine.rewrite_yield": (candidates - count(seeds)) / max(1, count(rewrites)),
        "corpus.load_ms": 1e3 * total(corpus_loads) / len(corpus_loads),
        "cli.trace_text_ms_per_utt":
            1e3 * total(named("cli.trace_text")) / (n_utt - serve_utts),
        "cli.self_ms_per_utt": 1e3 * total(infer_calls, own) / count(corpus_loads),
        "trace.overhead_pct": 100.0 * (traced_per_utt / untraced_per_utt - 1.0),
        "trace.self_accounted_pct": 100.0 * total(loop_roots) / serve["wall"],
    }
