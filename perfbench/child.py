"""Worker process of the benchmark: ``python3 child.py <mode> <job.json> <out.json>``.

Modes:

* ``cli``   -- run the CLI steps of the job through ``iterdelex.cli.main``
  and time each call, then repeat the ``alternate`` calls in turns;
* ``serve`` -- load the model and gazetteer, then serve whole rounds of the
  job's part of the stream one utterance per ``iterative_parse`` call for
  the job's seconds, reloading the gazetteer at the start of every stage;
* ``setup`` -- time importing iterdelex and loading the model and gazetteer.

Only the standard library is imported before the clock starts, so the
``setup`` time covers every import the program needs.

Timed calls are measured in CPU time of this process (user + system, all
threads), with wall time kept beside it for the report.  The program is
single-threaded and does no waiting of its own, so on an idle machine the
two agree; on a shared host the wall time also counts the slices the
scheduler gave to other tenants, which halved this benchmark's measured
speed in some runs and not in others.
"""

import time

T0, CPU0 = time.perf_counter(), time.process_time()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(job):
    from iterdelex.gazetteer import load_gazetteer
    from iterdelex.loglinear import LogLinearBackend

    LogLinearBackend.load(job["model"])
    load_gazetteer(job["cli_gazetteer"]).token_table()
    return {"setup_s": time.process_time() - CPU0, "setup_wall_s": time.perf_counter() - T0}


def _cli(job, tracer):
    from iterdelex.cli import main

    walls, cpus, codes = {}, {}, {}

    def call(name, argv, rep):
        gc.collect()  # each call starts from a collected heap, as in a fresh process
        started, cpu = time.perf_counter(), time.process_time()
        code = main([a.replace("{rep}", str(rep)) for a in argv])
        cpus.setdefault(name, []).append(time.process_time() - cpu)
        walls.setdefault(name, []).append(time.perf_counter() - started)
        codes.setdefault(name, []).append(code)

    for step in job["steps"]:
        if "cat" in step:
            text = "".join(Path(src).read_text(encoding="utf-8") for src in step["cat"])
            if step["lines"] is not None:
                text = "".join(text.splitlines(keepends=True)[:step["lines"]])
            Path(step["to"]).write_text(text, encoding="utf-8")
        else:
            call(step["name"], step["argv"], 0)
    # the repeated calls take turns, so the median of each spans the same stretch
    # of time and a slow spell of the machine does not fall on one of them alone;
    # a step repeats ``per_round`` times a turn, and then until its calls of the
    # turn have taken ``seconds`` of CPU time (``rep_offset`` counts the calls
    # earlier workers made, so that every call writes its own output file)
    for _ in range(job["rounds"]):
        for step in job["alternate"]:
            name = step["name"]
            calls, spent = 0, 0.0
            while calls < step["per_round"] or spent < step["seconds"]:
                call(name, step["argv"],
                     job["rep_offset"].get(name, 0) + len(walls.get(name, [])))
                calls, spent = calls + 1, spent + cpus[name][-1]
    return {"walls": walls, "cpus": cpus, "codes": codes}


def _serve(job, tracer):
    import iterdelex.engine as engine
    import iterdelex.gazetteer as gazetteer
    from iterdelex.loglinear import LogLinearBackend

    backend = LogLinearBackend.load(job["model"])
    live = Path(job["live_gazetteer"])
    config = engine.EngineConfig(**job["engine"])
    lines = Path(job["serve_input"]).read_text(encoding="utf-8").splitlines()
    utts = [json.loads(line)["tokens"] for line in lines]
    # a worker serves every ``parts``-th utterance of each stage, from its
    # ``part`` on, so that the workers of one run share the stream out
    part, parts = job["part"], job["parts"]
    stages, offset = [], 0
    for stage in job["stages"]:
        src = stage["reset"] or stage["append"]
        text = Path(src).read_text(encoding="utf-8") if src else None
        mine = range(part, stage["count"], parts)
        stages.append((stage, text, [(i, utts[offset + i]) for i in mine]))
        offset += stage["count"]

    def swap(stage, text):
        if stage["reset"]:
            live.write_text(text, encoding="utf-8")
        elif stage["append"]:
            with live.open("a", encoding="utf-8") as f:
                f.write(text)
        gaz = gazetteer.load_gazetteer(live)
        return gaz, gaz.token_table()

    if tracer is not None:
        swap = tracer.wrap("bench.swap", swap)

    latencies, swaps, outputs = [], [], []
    clock = time.process_time
    started, cpu_started = time.perf_counter(), clock()
    rounds = 0

    # whole rounds only: the job's ``rounds`` if it names them; else at least
    # one, then none that the mean round so far says would end past the job's
    # seconds
    def more():
        if job["rounds"]:
            return rounds < job["rounds"]
        return rounds == 0 or (time.perf_counter() - started) * (rounds + 1) / rounds \
            <= job["seconds"]

    while more():
        for s, (stage, text, stage_utts) in enumerate(stages):
            t = clock()
            gaz, table = swap(stage, text)
            swaps.append(clock() - t)
            for i, tokens in stage_utts:
                t = clock()
                out = engine.iterative_parse(tokens, backend, gaz, table, config)
                latencies.append(clock() - t)
                # kept as a string, which the garbage collector does not scan,
                # so that the stored outputs do not slow the calls that follow
                outputs.append(json.dumps((rounds, s, i, out.best.tokens,
                                           [str(label) for label in out.labels], out.intent,
                                           out.score, out.iterations_run,
                                           out.candidates_evaluated)))
        rounds += 1
    cpu = clock() - cpu_started
    wall = time.perf_counter() - started
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall": wall, "cpu": cpu, "loop_start": started, "rounds": rounds,
            "latencies": latencies,
            "swaps": swaps, "outputs": outputs, "peak_rss_mb": rss_kb / 1024.0}


def main():
    mode, job_path, out_path = sys.argv[1:4]
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if mode == "setup":
        result = _setup(job)
    else:
        tracer = None
        if job.get("trace"):
            import trace_spans
            tracer = trace_spans.install()
        result = (_cli if mode == "cli" else _serve)(job, tracer)
        if tracer is not None:
            result["spans"] = tracer.spans
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
