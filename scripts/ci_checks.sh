#!/usr/bin/env bash
# The end-to-end and benchmark checks of the CI workflow, runnable offline.
#
#     scripts/ci_checks.sh COMMAND
#
# COMMAND runs the iterdelex CLI: `iterdelex` for an installed package, or
# `python -m iterdelex.cli` in a checkout, with `PYTHONPATH` set to the
# absolute path of its `src/`. The CLI checks run in a fresh temporary
# directory outside the checkout, so that iterdelex is imported as the caller
# set it up; the benchmark checks run `perfbench/run.py` from the root of the
# checkout that holds this script. Any failed check exits non-zero.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 COMMAND   (e.g. iterdelex, or 'python -m iterdelex.cli')" >&2
  exit 2
fi
read -r -a iterdelex <<< "$1"
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== the iterdelex CLI end to end"
# two trainings in two processes must write the same bytes, as must two
# engine infer calls (rows and --trace files: unless PYTHONHASHSEED is set,
# the two processes hash strings with different seeds, so this pins the
# order of the evaluation log) and two baseline ones, the same settings
# given in a config file instead of flags, and the same corpus given as
# CoNLL instead of JSONL; a row appended to the gazetteer must take effect
# without retraining
(
  cd "$work"
  python -c "from iterdelex.synth import default_spec, save_spec; save_spec(default_spec(), 'spec.json')"
  "${iterdelex[@]}" gen --spec spec.json --seed 7 --out data/
  "${iterdelex[@]}" train --data data/train.jsonl --out run/
  "${iterdelex[@]}" train --data data/train.jsonl --out run2/
  cmp run/model.json run2/model.json
  cmp run/gazetteer.tsv run2/gazetteer.tsv
  for i in 1 2; do
    "${iterdelex[@]}" infer --model run/model.json --gazetteer run/gazetteer.tsv \
                            --input data/test.jsonl --output run/pred$i.jsonl \
                            --ood-slots message --tau 0.1 --trace run/trace$i.txt
  done
  cmp run/pred1.jsonl run/pred2.jsonl
  cmp run/trace1.txt run/trace2.txt
  "${iterdelex[@]}" eval --gold data/test.jsonl --pred run/pred1.jsonl
  for i in 1 2; do
    "${iterdelex[@]}" infer --model run/model.json --gazetteer run/gazetteer.tsv \
                            --input data/test.jsonl --output run/base$i.jsonl --baseline
  done
  cmp run/base1.jsonl run/base2.jsonl
  "${iterdelex[@]}" eval --gold data/test.jsonl --pred run/base1.jsonl
  printf 'ood_slots = message\ntau = 0.1\n' > engine.cfg
  printf 'baseline = yes\n' > baseline.cfg
  for mode in engine baseline; do
    "${iterdelex[@]}" infer --model run/model.json --gazetteer run/gazetteer.tsv \
                            --input data/test.jsonl --output run/$mode-config.jsonl \
                            --config $mode.cfg
  done
  cmp run/pred1.jsonl run/engine-config.jsonl
  cmp run/base1.jsonl run/baseline-config.jsonl
  # the same corpus written as CoNLL must train the same model and, as
  # input, give the same rows
  python -c "
from iterdelex.corpus import load_dataset, save_dataset
for split in ('train', 'test'):
    save_dataset(load_dataset(f'data/{split}.jsonl'), f'data/{split}.conll')
"
  "${iterdelex[@]}" train --data data/train.conll --out run-conll/
  cmp run/model.json run-conll/model.json
  cmp run/gazetteer.tsv run-conll/gazetteer.tsv
  "${iterdelex[@]}" infer --model run-conll/model.json --gazetteer run-conll/gazetteer.tsv \
                          --input data/test.conll --output run/pred-conll.jsonl \
                          --ood-slots message --tau 0.1
  cmp run/pred1.jsonl run/pred-conll.jsonl
  printf 'slot\tcontact\tZarqo Vell\n' >> run/gazetteer.tsv
  echo '{"tokens": ["call", "zarqo", "vell"]}' > swap.jsonl
  "${iterdelex[@]}" infer --model run/model.json --gazetteer run/gazetteer.tsv \
                          --input swap.jsonl --output run/swap.jsonl \
                          --ood-slots message --tau 0.1
  python -c '
import json, sys
row = json.loads(open("run/swap.jsonl").readline())
ok = row["delexicalized"] == ["call", "<contact>"]
sys.exit(0 if ok else f"hot swap not in effect: {row}")
'
)

cd "$root"

echo "== the benchmark's correctness checks"
# grown-gazetteer reloads the gazetteer mid-stream; synth-cli's checks are
# the only ones that include the engine beating the baseline on F1; the last
# line of stdout is the run's JSON summary
for workload in grown-gazetteer synth-cli; do
  echo "checking $workload"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 > "$work/bench.out"
  tail -n 1 "$work/bench.out" | python3 -c '
import json, sys
summary = json.loads(sys.stdin.read())
ok = summary["correct"] is True and summary["failed"] == 0
sys.exit(0 if ok else f"benchmark checks failed: {summary}")
'
done

echo "== the traced benchmark's per-layer metrics"
# the tracer counts objective calls and L-BFGS iterations by replacing the
# module attribute loglinear.minimize, which fitting looks up on each call;
# every per-layer metric BENCHMARK.json names must print
python3 perfbench/run.py --workload synth-cli --seed 1 --seconds 2 --trace 1 > "$work/trace.out"
tail -n 1 "$work/trace.out" | python3 -c '
import json, sys
metrics = json.loads(sys.stdin.read())["metrics"]
with open("BENCHMARK.json", encoding="utf-8") as f:
    names = [m["name"] for m in json.load(f)["per_layer"]]
missing = [n for n in names if n not in metrics]
counts = {n: metrics.get(n, {}).get("value", 0)
          for n in ("loglinear.objective_calls", "loglinear.lbfgs_iterations")}
ok = not missing and all(v > 0 for v in counts.values())
sys.exit(0 if ok else f"traced run: missing {missing}, counts {counts}")
'
echo "all checks passed"
