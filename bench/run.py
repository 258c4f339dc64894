"""Run the end-to-end benchmark.

One workload (what ``BENCHMARK.json``'s command runs)::

    python3 bench/run.py --workload serve-knn --seed 3 --seconds 22 --trace 0

measures it in this process, checks the answers, writes a result file
under ``.bench_out/results``, and prints one JSON object as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload traced and reports the per-layer
metrics, writing a Chrome trace and ``layers-<workload>-seed<n>.json``
under ``.bench_out/trace``.

All workloads::

    python3 bench/run.py --seed 0 [--trace 1]

runs each workload in a fresh subprocess, prints every metric with its
unit, adds a traced run per workload and the tracing overhead with
``--trace 1``, and exits non-zero if any answer was wrong.

See ``bench/README.md`` for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from quickbench import catalog  # noqa: E402  (stdlib-only module)
from quickbench.common import OUT, ROOT  # noqa: E402


def _run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json") as handle:
        return float(json.load(handle)["run_seconds"])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=OUT / "results",
                        help="directory for result JSON files")
    parser.add_argument("--trace-dir", type=Path, default=OUT / "trace",
                        help="directory for Chrome traces and layer files")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_one(args) -> int:
    from quickbench.common import MissingProgram, bootstrap

    try:
        bootstrap()
    except MissingProgram as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    from quickbench.tracing import Spans, write_chrome_trace
    from quickbench.workloads import RUNNERS, SCALES, Run

    seconds = args.seconds if args.seconds is not None else _run_seconds()
    run = Run(args.workload, args.seed, seconds, SCALES[args.scale])
    started_at = time.time()
    if args.trace:
        import repro.obs

        run.registry = repro.obs.enable(trace=True)
        run.spans = Spans()
    started = time.perf_counter()
    outcome = RUNNERS[args.workload](run)
    elapsed = time.perf_counter() - started

    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        write_chrome_trace(args.trace_dir / f"trace-{tag}.json", run.registry, run.spans)
        with open(args.trace_dir / f"layers-{tag}.json", "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "per_layer": outcome.per_layer, **outcome.layers},
                      handle, indent=2)
    names = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    values = outcome.per_layer if args.trace else outcome.e2e
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, (unit, _) in names.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "scale": args.scale, "trace": args.trace, "started": started_at,
        "inputs_sha256": outcome.inputs_sha256,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "wrong_rows": outcome.wrong_rows, "checked_rows": outcome.checked_rows,
        "end_to_end": {k: float(v) for k, v in outcome.e2e.items()},
        "details": {k: [float(v), u] for k, (v, u) in outcome.details.items()},
        "per_layer": {k: float(v) for k, v in outcome.per_layer.items()},
        "steps": outcome.steps, "samples": outcome.samples, "elapsed_s": elapsed,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{tag}-trace{args.trace}-{time.time_ns()}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)

    print(f"{args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace} inputs sha256={outcome.inputs_sha256[:16]}")
    for name, (value, unit) in {**{k: (v, catalog.END_TO_END[k][0])
                                   for k, v in outcome.e2e.items()},
                                **outcome.details}.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"  {'wrong_rows':<24} {outcome.wrong_rows:>14d} count "
          f"(of {outcome.checked_rows} checked)")
    for step in outcome.steps:
        print(f"  step {step['rate']:>5g} req/s x {step['seconds']:.1f}s: "
              f"n={step['offered']} failed={step['failed']} "
              f"p50={step['p50_ms']:.2f}ms p{step['tail_pct']:g}={step['tail_ms']:.2f}ms "
              f"{'pass' if step['passed'] else 'FAIL'}")
    print(f"  result file {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps({
        "correct": outcome.wrong_rows == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }), flush=True)
    return 0


def _child(args, workload: str, trace: int) -> dict | None:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--scale", args.scale, "--out", str(args.out),
           "--trace-dir", str(args.trace_dir)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_all(args) -> int:
    status = 0
    untraced, traced = {}, {}
    for workload in catalog.WORKLOADS:
        untraced[workload] = result = _child(args, workload, 0)
        if result is None or not result["correct"] or result["failed"]:
            status = 1
        if args.trace:
            traced[workload] = _child(args, workload, 1)
            if traced[workload] is None:
                status = 1
    print("\nend-to-end (untraced)")
    print(f"  {'metric':<18}" + "".join(f"{w:>14}" for w in catalog.WORKLOADS))
    for name, (unit, _) in catalog.END_TO_END.items():
        cells = [untraced[w]["metrics"][name]["value"] if untraced[w] else float("nan")
                 for w in catalog.WORKLOADS]
        print(f"  {name:<18}" + "".join(f"{c:>14.5g}" for c in cells) + f"  {unit}")
    for label in ("correct", "attempted", "failed"):
        cells = [str(untraced[w][label]) if untraced[w] else "-" for w in catalog.WORKLOADS]
        print(f"  {label:<18}" + "".join(f"{c:>14}" for c in cells))
    if args.trace:
        print("\nper layer (traced)")
        for layer, metrics in catalog.LAYERS.items():
            print(f"  [{layer}]")
            for name, unit, _ in metrics:
                cells = [traced[w]["metrics"][name]["value"] if traced[w] else float("nan")
                         for w in catalog.WORKLOADS]
                print(f"    {name:<32}" + "".join(f"{c:>14.5g}" for c in cells) + f"  {unit}")
        print("  tracing overhead (traced / untraced latency_ms_p50 - 1)")
        cells = []
        for w in catalog.WORKLOADS:
            if untraced[w] and traced[w]:
                base = untraced[w]["metrics"]["latency_ms_p50"]["value"]
                cells.append(traced[w]["metrics"]["trace.latency_ms_p50"]["value"] / base - 1)
            else:
                cells.append(float("nan"))
        print(f"    {'overhead_share':<32}" + "".join(f"{c:>14.3f}" for c in cells))
        print(f"  Chrome traces and layer files under {args.trace_dir}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload is None:
        return run_all(args)
    from quickbench.common import stop_helper_processes

    try:
        return run_one(args)
    finally:
        stop_helper_processes()


if __name__ == "__main__":
    sys.exit(main())
