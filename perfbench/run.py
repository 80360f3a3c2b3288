"""Benchmark of iterdelex.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run builds the workload's inputs
from the seed, then:

1. trains the synthetic-corpus model through ``iterdelex.cli.main`` in a
   CLI worker process;
2. in each of ``SEGMENTS`` turns: runs ``infer`` engine and baseline calls
   in a CLI worker, times set-up (import, model load, gazetteer load) in a
   fresh process, and serves whole rounds of its share of the workload's
   stream in a serving worker, one ``iterative_parse`` call at a time (a
   closed loop with one caller), reloading the gazetteer at the start of
   each stage; the serving stretches add up to about ``--seconds``, and
   every utterance of the stream is served at least once;
3. times set-up once more;
4. checks every output (see ``checks.py``) and counts failed operations.

Every timing in the metrics is CPU time of the worker process that made the
call (see ``child.py``); the stderr report gives the wall times beside it.

With ``--trace 1`` the workers wrap the program's layers (see
``trace_spans.py``) and the per-layer metrics are printed instead; the
serving loop then also runs untraced once, to state the tracing overhead.
A human-readable report goes to stderr; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The machine's speed drifts over tens of seconds, so an untimed run splits its
# timed phases into segments that take turns: CLI infer calls, a set-up probe,
# a stretch of the serving loop; then again.  Each metric then samples the
# whole run rather than one stretch of it.  A traced run keeps one segment.
SEGMENTS = 4
# engine and baseline infer calls take this many turns in all, spread over
# the segments; the median call of each counts.  A baseline call is a tenth
# of an engine call or less, so it runs at least three times a turn, and
# until the turn's baseline calls have taken BASELINE_TURN_S of CPU time.
INFER_ROUNDS = 4
BASELINE_PER_ROUND = 3
BASELINE_TURN_S = 0.4
WORKER_TIMEOUT_S = 150
UNBOUNDED = 1_000_000  # beam and seed cap that never bind

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "engine_utt_per_s": "1/s",
    "baseline_utt_per_s": "1/s", "serve_utt_per_s": "1/s", "lat_p50_ms": "ms",
    "lat_p90_ms": "ms", "swap_p50_ms": "ms", "peak_rss_mb": "MB",
}


class Worker:
    def __init__(self, work: Path, env: dict) -> None:
        self.work, self.env, self.runs = work, env, 0
        self.spent: dict[str, float] = {}  # wall seconds per worker mode

    def __call__(self, mode: str, job: dict) -> dict:
        started = time.perf_counter()
        self.runs += 1
        job_path = self.work / f"job-{self.runs}.json"
        out_path = self.work / f"out-{self.runs}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(job_path), str(out_path)],
            env=self.env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n"
                               f"{proc.stderr[-3000:]}")
        self.spent[mode] = self.spent.get(mode, 0.0) + time.perf_counter() - started
        return json.loads(out_path.read_text(encoding="utf-8"))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(args, root: Path, work: Path) -> dict:
    import checks
    import workloads
    from iterdelex.corpus import load_dataset
    from iterdelex.engine import DEFAULT_SEED_CAP, EngineConfig, iterative_parse
    from iterdelex.gazetteer import load_gazetteer
    from iterdelex.loglinear import LogLinearBackend
    from iterdelex.metrics import evaluate

    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    worker = Worker(work, env)
    job = workloads.prepare(args.workload, args.seed, work)
    ood, tau = workloads.OOD_SLOTS, workloads.TAU
    data = Path(job["data"])
    infer = ["infer", "--model", job["model"], "--gazetteer", job["cli_gazetteer"],
             "--input", job["cli_input"]]
    steps = [
        {"name": "gen", "argv": ["gen", "--spec", job["spec"], "--seed", str(args.seed),
                                 "--out", job["data"]]},
        {"name": "train", "argv": ["train", "--data", str(data / "train.jsonl"),
                                   "--out", job["run"], "--seed", str(args.seed)]},
        *({"name": "cat", "cat": c["from"], "to": c["to"], "lines": c.get("lines")}
          for c in job["cat"]),
    ]
    alternate = [
        {"name": "engine", "argv": infer + ["--output", str(work / "engine-{rep}.jsonl"),
                                            "--ood-slots", ",".join(ood), "--tau", str(tau)],
         "per_round": 1, "seconds": 0.0},
        {"name": "baseline", "argv": infer + ["--output", str(work / "baseline-{rep}.jsonl"),
                                              "--baseline"],
         "per_round": BASELINE_PER_ROUND, "seconds": BASELINE_TURN_S},
    ]
    # an untraced run trains once more in its last segment, into another
    # directory, so that train_s samples both ends of the run
    retrain = {"name": "train", "argv": ["train", "--data", str(data / "train.jsonl"),
                                         "--out", str(work / "retrain"),
                                         "--seed", str(args.seed)]}
    stages = job["stages"]
    serve_job = {"model": job["model"], "live_gazetteer": job["live_gazetteer"],
                 "serve_input": job["serve_input"], "stages": stages,
                 "engine": {"ood_slots": list(ood), "tau": tau}}
    segments = 1 if args.trace else SEGMENTS
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    codes: dict[str, list[int]] = {}
    serves, probes = [], []
    for segment in range(segments):
        cli = worker("cli", {
            "steps": steps if segment == 0 else [retrain] if segment == segments - 1 else [],
            "alternate": alternate,
            "rep_offset": {name: len(w) for name, w in walls.items()},
            "rounds": INFER_ROUNDS // segments, "trace": args.trace})
        for name in cli["walls"]:
            walls.setdefault(name, []).extend(cli["walls"][name])
            cpus.setdefault(name, []).extend(cli["cpus"][name])
            codes.setdefault(name, []).extend(cli["codes"][name])
        if not args.trace:
            probes.append(worker("setup", job))
        # the first serving worker sets the rounds for the others, so that
        # every utterance of the stream is served equally often
        serves.append(worker("serve", dict(serve_job, seconds=args.seconds / segments,
                                           part=segment, parts=segments,
                                           rounds=serves[0]["rounds"] if serves else None)))
    if args.trace:
        traced = worker("serve", dict(serve_job, seconds=args.seconds, part=0, parts=1,
                                      rounds=None, trace=True))
    else:
        traced = None
        probes.append(worker("setup", job))

    # ---- correctness ------------------------------------------------------
    checks_started = time.perf_counter()
    backend = LogLinearBackend.load(job["model"])
    checker = checks.Checker(backend, ood, tau)
    attempted = failed = 0
    problems: list[str] = []

    def op(name, found):
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"{name}: {p}" for p in found[:3])

    train_rows = checks.read_jsonl(data / "train.jsonl")
    gold_rows = {(slot, tuple(r["tokens"][a:b]))
                 for r in train_rows for a, b, slot in checks.bio_spans(r["labels"])}
    trained = checks.GazetteerRows([job["trained_gazetteer"]])
    op("train", ([f"exit code {codes['train'][0]}"] if codes["train"][0] else [])
       + ([] if trained.slot_rows() == gold_rows else
          ["gazetteer.tsv slot rows differ from the gold slot spans of the train split"]))
    # the second training must write the bytes of the first, which was checked
    for code in codes["train"][1:]:
        same = all((work / "retrain" / Path(job[f]).name).read_bytes()
                   == Path(job[f]).read_bytes() for f in ("model", "trained_gazetteer"))
        op("train", ([f"exit code {code}"] if code else [])
           + ([] if same else ["a second training wrote other files than the first"]))

    # gazetteer files and rows live during each stage, parsed from the files
    # this benchmark wrote; the CLI calls use the last stage's
    grown = job["grown_rows"]
    stage_files = [[job["trained_gazetteer"]] + grown[:s + 1] for s in range(len(stages))]
    stage_rows = [checks.GazetteerRows(files) if grown else trained for files in stage_files]
    dense = args.workload == "dense-matches"
    wide = EngineConfig(ood_slots=ood, tau=tau, top_k=UNBOUNDED, seed_cap=UNBOUNDED)
    stage_gazetteers: dict[int, tuple] = {}

    def unbounded_parse(tokens, s):
        """The engine's outcome with a beam and seed cap that never bind."""
        if s not in stage_gazetteers:
            path = work / f"check-stage{s}.tsv"
            path.write_text("".join(Path(f).read_text(encoding="utf-8")
                                    for f in stage_files[s]), encoding="utf-8")
            gaz = load_gazetteer(path)
            stage_gazetteers[s] = (gaz, gaz.token_table())
        return iterative_parse(tokens, checker.memo, *stage_gazetteers[s], wide)

    # dense-matches: the default beam binds, so agreement with the exhaustive
    # search is checked on an engine run with an unbounded beam and seed cap
    gold = checks.read_jsonl(job["cli_input"])
    unbounded_bad = set()
    if dense:
        for rec in gold:
            out = unbounded_parse(rec["tokens"], 0)
            best = checker.oracle_best(rec["tokens"], trained)
            if (out.best.tokens, out.score) != (tuple(best[0]), best[1]):
                unbounded_bad.add(tuple(rec["tokens"]))

    # elsewhere the default engine's winner must be the exhaustive search's,
    # except where the default beam or seed cap bound (the unbounded engine
    # evaluates more candidates): there, as on dense-matches, the unbounded
    # engine must agree with the exhaustive search instead
    beam_bound: set[tuple[str, ...]] = set()

    def expected(tokens, winner, candidates, s):
        """The exhaustive search's (tokens, score) that the winner must match,
        or None where it need not."""
        if dense:
            return None
        best = checker.oracle_best(tokens, stage_rows[s])
        if tuple(winner) != tuple(best[0]):
            out = unbounded_parse(tokens, s)
            if out.candidates_evaluated > candidates \
                    and (out.best.tokens, out.score) == (tuple(best[0]), best[1]):
                beam_bound.add(tuple(tokens))
                return None
        return best

    def unbounded(tokens):
        return ["unbounded engine disagrees with the exhaustive search"] \
            if tuple(tokens) in unbounded_bad else []

    engine_pred, base_pred = work / "engine-0.jsonl", work / "baseline-0.jsonl"
    engine_rows, base_rows = checks.read_jsonl(engine_pred), checks.read_jsonl(base_pred)
    found = [] if len(engine_rows) == len(gold) else ["prediction count differs from input"]
    for rec, row in zip(gold, engine_rows):
        found += checker.problems(rec["tokens"], row["labels"], row["delexicalized"],
                                  row["iterations"], None, stage_rows[-1],
                                  expected(rec["tokens"], row["delexicalized"],
                                           row["candidates"], len(stages) - 1))
        found += unbounded(rec["tokens"])
    own_engine = checks.f1_scores(gold, engine_rows)
    own_base = checks.f1_scores(gold, base_rows)
    gold_set = load_dataset(job["cli_input"])
    for own, path in ((own_engine, engine_pred), (own_base, base_pred)):
        if not checks.agrees_with_evaluate(own, evaluate(gold_set, load_dataset(path))):
            found.append(f"own span F1 disagrees with metrics.evaluate on {path.name}")
    if args.workload == "synth-cli":
        found += checks.direction_problems(own_engine, own_base, ood[0])
    base_found = [] if len(base_rows) == len(gold) else ["prediction count differs from input"]
    for rec, row in zip(gold, base_rows):
        base_found += checker.baseline_problems(rec["tokens"], row)
    # every repeated call must write the bytes of the first, which was checked in full
    for name, first, first_found in (("engine", engine_pred, found),
                                     ("baseline", base_pred, base_found)):
        for rep, code in enumerate(codes[name]):
            same = (work / f"{name}-{rep}.jsonl").read_bytes() == first.read_bytes()
            op(f"infer {name}", first_found + ([f"exit code {code}"] if code else [])
               + ([] if same else [f"output differs from the first {name} call"]))

    serve_records = checks.read_jsonl(job["serve_input"])
    stage_utts, offset = [], 0
    for stage in stages:
        stage_utts.append([r["tokens"] for r in serve_records[offset:offset + stage["count"]]])
        offset += stage["count"]
    verdicts: dict[tuple, list[str]] = {}
    for served in serves + ([traced] if traced else []):
        stage_failed: set[tuple[int, int]] = set()
        for r, s, i, best, labels, intent, score, iters, cands in map(json.loads,
                                                                        served["outputs"]):
            key = (s, i, tuple(best), tuple(labels), intent, score, iters, cands)
            if key not in verdicts:
                tokens = stage_utts[s][i]
                verdicts[key] = checker.problems(
                    tokens, labels, best, iters, score, stage_rows[s],
                    expected(tokens, best, cands, s)) + unbounded(tokens)
            if verdicts[key]:
                stage_failed.add((r, s))
            op("serve", verdicts[key])
        for k in range(len(served["swaps"])):
            op("swap", ["utterances served after this reload failed their checks"]
               if (k // len(stages), k % len(stages)) in stage_failed else [])
    for _ in probes:
        op("setup", [])

    # ---- report -----------------------------------------------------------
    lat = [x for served in serves for x in served["latencies"]]
    swaps = [x for served in serves for x in served["swaps"]]
    n_cli = len(gold)
    report = {
        "workload": args.workload, "seed": args.seed,
        "phase_s": dict(worker.spent, checks=time.perf_counter() - checks_started),
        "cli_call_cpu_s": cpus,
        "cli_call_wall_s": walls,
        "setup_cpu_s": [p["setup_s"] for p in probes],
        "setup_wall_s": [p["setup_wall_s"] for p in probes],
        "serve_cpu_s": [served["cpu"] for served in serves],
        "serve_wall_s": [served["wall"] for served in serves],
        "cli_utterances": n_cli,
        "served": len(lat), "rounds": sum(served["rounds"] for served in serves),
        "swaps": len(swaps),
        "slot_phrases_cli": len(stage_rows[-1].phrase_to_slot),
        "beam_bound_utterances": len(beam_bound),
        "candidates_per_served_utt": statistics.mean(json.loads(o)[8] for served in serves
                                                     for o in served["outputs"]),
        "f1_engine": own_engine, "f1_baseline": own_base,
        "sha256_engine": _sha256(engine_pred),
        "sha256_baseline": _sha256(base_pred),
        "problems": problems[:20],
    }
    print(json.dumps(report, indent=1), file=sys.stderr)

    if args.trace:
        import trace_spans
        metrics = trace_spans.layer_metrics(cli["spans"], traced, serves[0], DEFAULT_SEED_CAP)
        units = trace_spans.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "train_s": statistics.median(cpus["train"]),
            "engine_utt_per_s": n_cli / statistics.median(cpus["engine"]),
            "baseline_utt_per_s": n_cli / statistics.median(cpus["baseline"]),
            "serve_utt_per_s": len(lat) / sum(served["cpu"] for served in serves),
            "lat_p50_ms": 1e3 * statistics.median(lat),
            "lat_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
            "swap_p50_ms": 1e3 * statistics.median(swaps),
            "peak_rss_mb": max(served["peak_rss_mb"] for served in serves),
        }
        units = END_TO_END_UNITS
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running worker is killed and waited for, and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "iterdelex" / "cli.py").is_file() \
            or not (root / "tests" / "oracle.py").is_file():
        print("error: run from the root of an iterdelex checkout "
              "(src/iterdelex/ and tests/oracle.py are needed)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    scratch = root / ".perfbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
