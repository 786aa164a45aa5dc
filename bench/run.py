"""Run one benchmark workload, or every workload once.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]     # every workload

Run from the root of a checkout.  A single-workload run pins its own
environment first (`PYTHONPATH=src`, `PYTHONHASHSEED=0`, no
`CPS_BUDGET`) by re-executing itself, imports cpspace from `src/`, and
repeats whole rounds until the next round would end past `--seconds`;
it always completes at least one.  A round sets up fresh inputs, runs
the timed phase and checks every output.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  Untraced (`--trace 0`) the
metrics are the end-to-end figures: `setup_s`, `run_s` and
`run_cpu_s`, medians over rounds; and `peak_rss_mib`, the process's
peak resident memory at the end of the first timed phase, before any
output check has run.  Traced (`--trace 1`) they are the per-layer
figures of `tracing.py`, medians over rounds, and the span tables go to
`bench/out/`.  Without `--workload`, each workload runs in its own
fresh process and the figures are printed by name.  The exit code is 0
once a result is printed, also when `correct` is false, and 2 when the
checkout has no `src/cpspace`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("induction", "indistinguishability", "games", "deep-rank")
HASH_SEED = "0"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CPS_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _is_pinned() -> bool:
    return (os.environ.get("PYTHONPATH") == str(SRC)
            and os.environ.get("PYTHONHASHSEED") == HASH_SEED
            and "CPS_BUDGET" not in os.environ)


def launch(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh process; its final JSON line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _median_metrics(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import LAYER_METRICS, Tracer

    workload = workloads.WORKLOADS[workload_name]()
    tracer = Tracer()
    if trace:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    setup_times, run_times, cpu_times, layers, spans = [], [], [], [], []
    attempted, failures, problems, peak_rss = 0, [], [], None
    while True:
        round_started = time.perf_counter()
        tracer.reset()
        tracer.active = trace
        close = tracer.phase("setup")
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        close()
        tracer.active = False
        gc.collect()
        tracer.active = trace
        close = tracer.phase("run")
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outputs = workload.run(inputs)
        cpu_times.append(time.process_time() - cpu0)
        run_times.append(time.perf_counter() - wall0)
        close()
        tracer.active = False
        if peak_rss is None:  # the checks' own memory stays out of the figure
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            layers.append(tracer.metrics())
            spans.append({"calls": tracer.call_table(), "spans": tracer.span_table()})
            tracer.universes = []
        print(f"round {len(run_times)}: setup {setup_times[-1]:.4f} s, "
              f"run {run_times[-1]:.4f} s, cpu {cpu_times[-1]:.4f} s", file=sys.stderr)
        n, round_failures, round_problems = workload.check(inputs, outputs)
        del inputs, outputs
        attempted += n
        failures += round_failures
        problems += round_problems
        now = time.perf_counter()
        if now - started + (now - round_started) > seconds:
            break

    for text in sorted(set(failures)):
        print(f"failed: {text}", file=sys.stderr)
    for text in problems:
        print(f"WRONG: {text}", file=sys.stderr)
    if trace:
        medians = _median_metrics(layers)
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit, _better in LAYER_METRICS}
        dump = OUT / f"trace-{workload_name}-seed{seed}.json"
        dump.write_text(json.dumps({
            "workload": workload_name, "seed": seed, "rounds": len(run_times),
            "traced_setup_s": setup_times, "traced_run_s": run_times,
            "metrics": layers, "round_spans": spans,
        }, indent=1), encoding="utf-8")
        print(f"trace written to {dump.relative_to(ROOT)}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(run_times),
            "run_cpu_s": statistics.median(cpu_times),
            "peak_rss_mib": peak_rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{workload_name} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload_name} rounds {len(run_times)} attempted {attempted} "
          f"failed {len(failures)}")
    return {"correct": not problems, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpspace" / "__init__.py").is_file():
        print(f"error: no cpspace sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        for name in NAMES:
            result = launch(name, args.seed, args.seconds, args.trace)
            for metric, m in result["metrics"].items():
                print(f"{name:22} {metric:32} {m['value']:12.6g} {m['unit']}")
            print(f"{name:22} {'correct':32} {str(result['correct']):>12}")
            print(f"{name:22} {'attempted / failed':32} {result['attempted']:>7} / "
                  f"{result['failed']}")
        return 0
    if not _is_pinned():
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], pinned_env())
    import cpspace
    if Path(cpspace.__file__).resolve().parent != SRC / "cpspace":
        print(f"error: cpspace imported from {cpspace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
