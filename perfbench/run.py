"""Streaming-decode benchmark for streamasr.

    python3 perfbench/run.py --workload greedy_toy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload per process, one thread, one stream at a time. With
``--trace 0`` it sets up, checks the pinned outputs, then decodes for
``--seconds`` and prints every end-to-end metric of BENCHMARK.json. With
``--trace 1`` it decodes a fixed number of utterances untraced, traced and
untraced again, and prints the per-layer metrics; spans go to
``perfbench/out/spans-<workload>-seed<seed>.jsonl``. ``--workload all`` runs
the self-test, then each workload in a fresh process, and prints a table.
The last stdout line of a single-workload run is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

try:
    import bench
except ImportError as exc:  # e.g. run outside a streamasr checkout
    print(f"perfbench: cannot import streamasr: {exc}", file=sys.stderr)
    raise SystemExit(2)

import spans


@dataclass
class Outcome:
    values: dict            # metric name -> (value, unit)
    context: dict           # sample sizes and unscaled figures, printed
    failures: list[str]     # utterances that raised or failed a check
    attempted: int          # utterances attempted
    problems: list[str] = field(default_factory=list)  # run-level checks


def run_end_to_end(wl: bench.Workload, seed: int, seconds: float) -> Outcome:
    calibration = bench.Calibration()
    st, setup_med = bench.median_setup(wl, seed, calibration)
    alloc_mb = bench.peak_alloc_mb(wl, st)
    pin_problems = bench.pinned_check(wl, bench.load_pins())
    loop = bench.run_loop(wl, st, seconds=seconds, calibration=calibration)
    attempted = loop.attempted + wl.pin_utts
    failures = loop.failures + pin_problems
    values = bench.end_to_end(loop, setup_med["setup_s"], alloc_mb,
                              len(failures), attempted, calibration.factor)
    context = {**bench.report_counts(loop, calibration),
               "unscaled_setup_s": setup_med["setup_s"]}
    return Outcome(values, context, failures, attempted)


def run_traced(wl: bench.Workload, seed: int) -> Outcome:
    """Untraced, traced, untraced again over the same utterances: the two
    untraced passes bracket the traced one, so drift does not pass for
    tracing overhead."""
    st, setup_med = bench.median_setup(wl, seed)
    pin_problems = bench.pinned_check(wl, bench.load_pins())
    before = bench.run_loop(wl, st, count=wl.trace_utts)
    tracer = spans.Tracer()

    def on_utterance(utt_id):
        tracer.utterance = utt_id

    with tracer.installed():
        traced = bench.run_loop(wl, st, count=wl.trace_utts,
                                on_utterance=on_utterance)
    after = bench.run_loop(wl, st, count=wl.trace_utts)
    bench.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(bench.OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
    values = spans.layer_metrics(tracer, traced, [before, after], setup_med)
    out = Outcome(
        values, {"utterances": wl.trace_utts, "spans": len(tracer.spans)},
        before.failures + traced.failures + after.failures + pin_problems,
        3 * wl.trace_utts + wl.pin_utts)
    covered = values["trace.self_sum_frac"][0]
    if not 0.9 <= covered <= 1.1:
        out.problems.append(f"trace accounting: layer self times cover "
                            f"{covered:.3f} of the traced decode time")
    return out


def run_one(args) -> int:
    wl = bench.WORKLOADS[args.workload]
    if args.trace:
        out = run_traced(wl, args.seed)
    else:
        out = run_end_to_end(wl, args.seed, args.seconds)
    env = bench.env_stamp(wl.name, args.seed)
    for name, (value, unit) in out.values.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print("context " + json.dumps(out.context, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace
                                        else "end_to_end"]}
    if declared != set(out.values):
        out.problems.append("metrics differ from BENCHMARK.json: "
                            f"{sorted(declared ^ set(out.values))}")
    for problem in out.failures + out.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not (out.failures or out.problems),
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.values.items()},
    }
    bench.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = bench.OUT_DIR / \
        f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "context": out.context, "env": env},
                               indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    import selftest

    problems = selftest.self_test()
    for p in problems:
        print(f"self-test FAILED {p}")
    print(f"self-test: {'ok' if not problems else 'FAILED'}")
    results = {}
    for name in bench.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    metrics = list(results[names[0]]["metrics"])
    print(f"{'metric':32s} {'unit':>10s} " + " ".join(f"{n:>14s}" for n in names))
    for m in metrics:
        unit = results[names[0]]["metrics"][m]["unit"]
        cells = " ".join(f"{results[n]['metrics'][m]['value']:14.4f}"
                         for n in names)
        print(f"{m:32s} {unit:>10s} {cells}")
    print(f"{'correct':32s} {'':>10s} " + " ".join(
        f"{str(results[n]['correct']):>14s}" for n in names))
    ok = not problems and all(r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*bench.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
