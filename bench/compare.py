"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py A/ B/            # A = parent, B = change
    python3 bench/compare.py A/ B/ --pairs    # gain test for a claimed speed-up

``A`` and ``B`` are directories of result files written by ``run.py``
(``.bench_out/results`` by default; pass ``--out`` to ``run.py`` to keep
sets apart).  Only untraced results are compared.  For every workload
and end-to-end metric the table shows each side's median and quartiles
and a verdict:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than the bound;
* ``unresolved``: either side's spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell, unless every B run beats
  every A run, which reads ``better``;
* ``ok``: otherwise.

``--pairs`` pairs A and B runs of the same workload and seed, in the
order they ran, and applies the gain rule: at least ten pairs, B wins at
least nine tenths of them (ties count for neither side), and the medians
differ by more than A's quartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced results under ``directory``, by workload, in run order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if record.get("trace") == 0 and "end_to_end" in record:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r.get("started", 0))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _better(a: float, b: float, direction: str) -> bool:
    return b < a if direction == "lower" else b > a


def verdict(a: list[float], b: list[float], direction: str, bound: float) -> str:
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    change = (bm - am) / abs(am) if am else 0.0
    worse = change if direction == "lower" else -change
    if spread > bound:
        if all(_better(x, y, direction) for x in a for y in b):
            return "better"
        return "unresolved"
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "ok"


def pair_verdict(a_runs: list[dict], b_runs: list[dict], name: str,
                 direction: str) -> tuple[int, int, float, float, str]:
    """``(pairs, wins, median gap, A's quartile distance, verdict)``."""
    by_seed: dict[int, list] = {}
    for run in a_runs:
        by_seed.setdefault(run["seed"], [[], []])[0].append(run["end_to_end"][name])
    for run in b_runs:
        by_seed.setdefault(run["seed"], [[], []])[1].append(run["end_to_end"][name])
    pairs = [(x, y) for a, b in by_seed.values() for x, y in zip(a, b)]
    wins = sum(_better(x, y, direction) for x, y in pairs)
    a_vals = [x for x, _ in pairs]
    b_vals = [y for _, y in pairs]
    if not pairs:
        return 0, 0, 0.0, 0.0, "no pairs"
    a1, am, a3 = quartiles(a_vals)
    gap = statistics.median(b_vals) - am
    if len(pairs) < 10:
        return len(pairs), wins, gap, a3 - a1, "too few pairs"
    gain = wins >= 0.9 * len(pairs) and abs(gap) > a3 - a1
    return len(pairs), wins, gap, a3 - a1, "gain" if gain else "no gain"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent results directory")
    parser.add_argument("b", type=Path, help="change results directory")
    parser.add_argument("--pairs", action="store_true", help="apply the gain rule")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(args.a), load(args.b)
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload}: no runs on {'A' if not a else 'B'}")
            worst = max(worst, 1)
            continue
        a_inputs = {(r["seed"], r["inputs_sha256"]) for r in a}
        b_inputs = {(r["seed"], r["inputs_sha256"]) for r in b}
        seeds = {s for s, _ in a_inputs} & {s for s, _ in b_inputs}
        if {x for x in a_inputs if x[0] in seeds} != {x for x in b_inputs if x[0] in seeds}:
            print(f"{workload}: WARNING inputs differ between A and B for a shared seed")
        print(f"{workload} ({len(a)} A runs, {len(b)} B runs)")
        for metric in spec["end_to_end"]:
            name, direction, bound = metric["name"], metric["better"], metric["bound"]
            av = [r["end_to_end"][name] for r in a]
            bv = [r["end_to_end"][name] for r in b]
            (a1, am, a3), (b1, bm, b3) = quartiles(av), quartiles(bv)
            if args.pairs:
                n, wins, gap, iqr, v = pair_verdict(a, b, name, direction)
                print(f"  {name:<18} A {am:>11.5g}  B {bm:>11.5g}  pairs {n:>3} "
                      f"wins {wins:>3}  gap {gap:>+10.4g}  A-IQR {iqr:>9.4g}  {v}")
                continue
            v = verdict(av, bv, direction, bound)
            if v in ("worse", "unresolved"):
                worst = max(worst, 1)
            print(f"  {name:<18} A {am:>11.5g} [{a1:.5g}, {a3:.5g}]  "
                  f"B {bm:>11.5g} [{b1:.5g}, {b3:.5g}]  "
                  f"{(bm - am) / am if am else 0.0:>+7.1%}  bound {bound:.0%} "
                  f"{metric['unit']:<4} {v}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
