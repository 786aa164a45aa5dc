"""Repeat each workload in two sets of runs and print how steady every
end-to-end metric is.

    python3 bench/steady.py

Each set runs every workload ten times, with seeds 1 to 10, each run a
fresh process (`run.py --workload W --seed S`) of BENCHMARK.json's
`run_seconds`; the second set starts when the first has ended.  For
every metric and set the command prints the median, the first and
third quartiles (`statistics.quantiles(n=4)`) and the spread
(q3 - q1) / median, then the shift of the second set's median from the
first's, next to the metric's bound.  A spread above a third of its
bound is flagged WIDE (for `setup_s`, whose spread is not bounded, the
flag is only shown); a shift beyond the bound, in either direction, is
flagged SHIFT.  It also prints each workload's share of failed
operations, which must be the same in every run.  The bounds in
BENCHMARK.json are set from this output.  The exit code is 0 when
nothing is flagged, every run is correct and the shares agree.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import NAMES, ROOT, launch

RUNS = 10
SETS = 2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}  # (set, workload) -> the runs' final JSON objects
    for run_set in range(SETS):
        for workload in NAMES:
            runs = results[run_set, workload] = []
            for seed in range(1, RUNS + 1):
                runs.append(launch(workload, seed, spec["run_seconds"], 0))
                print(f"# set {run_set + 1} {workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                    file=sys.stderr, flush=True)
    steady = True
    for workload in NAMES:
        sets = [results[run_set, workload] for run_set in range(SETS)]
        shares = sorted({r["failed"] / r["attempted"] for runs in sets for r in runs})
        wrong = sum(not r["correct"] for runs in sets for r in runs)
        print(f"{workload}: {SETS} sets of {RUNS} runs, {wrong} incorrect, failed share "
              + ", ".join(f"{s:.6f}" for s in shares))
        steady = steady and wrong == 0 and len(shares) == 1
        for metric, bound in bounds.items():
            medians = []
            for run_set, runs in enumerate(sets):
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                spread = (q3 - q1) / medians[-1]
                flag = "  WIDE" if spread > bound / 3 else ""
                steady = steady and (metric == "setup_s" or not flag)
                print(f"  {metric:14} set {run_set + 1}  median {medians[-1]:10.4g}"
                      f"  q1 {q1:10.4g}  q3 {q3:10.4g}  spread {spread:6.3f}{flag}")
            shift = medians[1] / medians[0] - 1
            flag = "  SHIFT" if abs(shift) > bound else ""
            steady = steady and not flag
            print(f"  {metric:14} shift {shift:+7.3f}  bound {bound:.2f}{flag}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
