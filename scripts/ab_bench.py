"""Alternate benchmark runs of two checkouts and compare their end-to-end metrics.

    python3 scripts/ab_bench.py --parent DIR --change DIR --workload audit \
        --pairs 10 --seconds 35 --seed 501

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, at
seed K + k for pair k (k = 0, 1, ...), parent first in even pairs and
change first in odd ones.  For every end-to-end metric that
``BENCHMARK.json`` (read from the parent) lists, it prints each side's
median and quartiles, the ratio of the medians, the pairs the change won
(ties count for neither) and a verdict:

- ``gain``: the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's quartile distance;
- ``worse``: the change's median is worse by more than the metric's bound;
- ``unresolved``: the parent's quartile distance exceeds the bound, so the
  runs spread too widely to tell;
- ``within``: none of these.

The last line of stdout is a JSON object with every run's metrics and the
summary.  Exits 1 when any run is incorrect (its exit status or its
``correct`` field), 0 otherwise, whatever the verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in checkout; exits 1
    when the run fails or reports an incorrect answer."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"ab_bench: incorrect run in {checkout} at seed {seed} "
                 f"(exit status {proc.returncode})")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over the pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    spread = p3 - p1
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > spread:
        verdict = "gain"
    elif sign * (cm - pm) > metric["bound"] * pm:
        verdict = "worse"
    elif spread > metric["bound"] * pm:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3],
            "ratio": cm / pm if pm else None, "wins": wins, "verdict": verdict}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    for k in range(args.pairs):
        seed = args.seed + k
        sides = [("parent", args.parent), ("change", args.change)]
        for side, checkout in sides if k % 2 == 0 else sides[::-1]:
            result = run_once(checkout, args.workload, seed, args.seconds)
            runs.append({"side": side, "pair": k, "seed": seed,
                         "metrics": {m: v["value"] for m, v in result["metrics"].items()}})
            print(f"pair {k} seed {seed} {side}: " + " ".join(
                f"{m['name']}={runs[-1]['metrics'][m['name']]:.6g}" for m in metrics), flush=True)

    def values(side: str, name: str) -> list[float]:
        return [r["metrics"][name] for r in sorted(runs, key=lambda r: r["pair"]) if r["side"] == side]

    summary = {m["name"]: compare(m, values("parent", m["name"]), values("change", m["name"]))
               for m in metrics}
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs from seed {args.seed}")
    print(f"  {'metric':<18} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36}"
          f" {'ratio':>7} {'wins':>7}  verdict")
    for name, s in summary.items():
        parent, change = ("{1:.6g} [{0:.6g}, {2:.6g}]".format(*s[side]) for side in ("parent", "change"))
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        print(f"  {name:<18} {parent:<36} {change:<36} {ratio:>7} {s['wins']:>3}/{args.pairs:<3}"
              f"  {s['verdict']}")
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
                      "seed": args.seed, "summary": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
