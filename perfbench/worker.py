"""One benchmark process: run a workload's ops, gate every answer, and
print a JSON record as the last line of stdout.

``run.py`` starts this in a fresh interpreter with ``src`` on
``PYTHONPATH``; it is not meant to be called by hand.  Timing covers the
program's calls only: input generation and the correctness gate run
between batches, outside the timed sections.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

from inputs import load_catalogue, make_batch
from pace import pace_samples
from subindep.atlas import classify_all_pairs, render_report
from subindep.checks import recheck_witness
from subindep.pipeline import Config, decide, parse_pair_spec

# Per-op wall-clock caps; an op that hits its cap is a failed op.
OP_CAP_S = {"ladder_mix": 2.0, "step4_exhaustive": 20.0, "audit": 5.0, "atlas_s4": 120.0}
# The known-defect probe never finishes at the parent commit; its cap
# bounds what it costs each audit run.
PROBE_CAP_S = 2.0
# Pace loops (about 3 ms each) timed at the start of a process and after
# each batch, and on each side of an atlas pass.
PACE_PER_BATCH = 3
PACE_PER_SIDE = 15


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def capped(cap_s: float, fn, *args):
    """(result, error, seconds) of fn(*args) under a SIGALRM cap."""
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    t0 = time.perf_counter()
    try:
        result, err = fn(*args), None
    except OpTimeout:
        result, err = None, f"hit the {cap_s:g} s op cap"
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        result, err = None, f"raised {exc!r}"
    dt = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    return result, err, dt


def gate_op(op: dict, decision, err: str | None) -> str | None:
    """Why the op failed, or None.  Rebuilds the pair from the spec and
    rechecks the witness from scratch."""
    if err is not None:
        return err
    if decision.status != op["expected"]:
        return f"verdict {decision.status}, expected {op['expected']}"
    pair = parse_pair_spec(op["spec"])
    if not recheck_witness(pair, decision.witness):
        return f"witness {type(decision.witness).__name__} failed its recheck"
    want = op.get("diagnostics")
    if want is not None and decision.diagnostics != want:
        return f"diagnostics {decision.diagnostics}, expected {want}"
    return None


class Record:
    """What one process measured, in the shape run.py aggregates."""

    def __init__(self) -> None:
        self.batch_walls: list[float] = []
        self.batch_ops: list[int] = []
        self.latencies: list[float] = []
        self.pace_s: list[float] = []
        self.step_counts: dict[str, int] = {}
        self.step_latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.failures: list[str] = []
        self.pairs_checked = 0
        self.peak_rss_mb = 0.0
        self.extra: dict = {}

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(why)


def run_decide_batches(args, rec: Record, tracer) -> None:
    catalogue = load_catalogue()
    config = Config(run_diagnostics=args.workload == "audit")
    cap = OP_CAP_S[args.workload]
    rec.pace_s += pace_samples(PACE_PER_BATCH)
    start = last = time.perf_counter()
    index = args.first_batch
    while True:
        ops = make_batch(catalogue, args.workload, args.seed, index)
        results = []
        t_batch = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index * len(ops) + i
                with tracer:
                    results.append(capped(cap, decide, op["spec"], config))
            else:
                results.append(capped(cap, decide, op["spec"], config))
        rec.batch_walls.append(time.perf_counter() - t_batch)
        rec.batch_ops.append(len(ops))
        rec.pace_s += pace_samples(PACE_PER_BATCH)
        for op, (decision, err, dt) in zip(ops, results):
            rec.attempted += 1
            rec.latencies.append(dt)
            why = gate_op(op, decision, err)
            if why is not None:
                rec.fail(1, f"{op['spec']}: {why}")
            if decision is None:
                continue
            step = decision.step.value
            rec.step_counts[step] = rec.step_counts.get(step, 0) + 1
            rec.step_latencies.setdefault(step, []).append(dt)
            rec.inconclusive += decision.status == "Inconclusive"
            rec.pairs_checked += decision.stats.pairs_checked or 0
        index += 1
        done = index - args.first_batch
        if done == 1:
            # Read after a fixed amount of work, however many batches
            # the process goes on to fit into its time.
            rec.peak_rss_mb = rss_mb()
        # Stop before a batch that would overrun the time, gate included.
        now = time.perf_counter()
        if args.batches:
            if done >= args.batches:
                break
        elif done >= args.min_batches and now - start + (now - last) > args.seconds:
            break
        last = now


def run_known_defect(rec: Record) -> None:
    """Decide the known-defect pair once, outside any timed section."""
    entry = load_catalogue()["audit"]["known_defect"]
    spec = {k: entry[k] for k in ("degree", "A", "B")}
    op = {"spec": spec, "expected": entry["expected"]}
    decision, err, dt = capped(PROBE_CAP_S, decide, spec, Config(run_diagnostics=True))
    why = gate_op(op, decision, err)
    rec.extra["known_defect"] = {"name": entry["name"], "failed": why is not None,
                                 "why": why, "seconds": round(dt, 4)}


def run_atlas_pass(args, rec: Record, tracer) -> None:
    def one_pass():
        rows, summary = classify_all_pairs(4, jobs=1)
        return rows, summary, render_report(rows, summary)

    want = load_catalogue()["atlas_s4"]
    if tracer is not None:
        with tracer:
            result, err, dt = capped(OP_CAP_S["atlas_s4"], one_pass)
    else:
        rec.pace_s += pace_samples(PACE_PER_SIDE)
        result, err, dt = capped(OP_CAP_S["atlas_s4"], one_pass)
        rec.pace_s += pace_samples(PACE_PER_SIDE)
    rec.batch_walls.append(dt)
    rec.batch_ops.append(want["pairs"])
    rec.latencies.append(dt)
    rec.attempted += want["pairs"]
    rec.peak_rss_mb = rss_mb()
    if err is not None:
        rec.fail(want["pairs"], err)
        return
    rows, summary, text = result
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != want["sha256"] or len(rows) != want["pairs"]:
        rec.fail(want["pairs"], f"report sha256 {digest}, expected {want['sha256']}")
    else:
        bad = summary["oracle_disagreements"] + summary["symmetry_violations"]
        if bad:
            rec.fail(len(bad), f"oracle disagreements or symmetry violations: {bad[:5]}")
    rec.step_counts = dict(summary["deciding_steps"])
    rec.inconclusive = summary["verdicts"].get("Inconclusive", 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--batches", type=int, default=0,
                        help="run exactly this many batches instead of --seconds")
    parser.add_argument("--min-batches", type=int, default=1,
                        help="with --seconds, run at least this many batches")
    parser.add_argument("--first-batch", type=int, default=0,
                        help="index of the first batch in the seed's op stream")
    parser.add_argument("--known-defect", action="store_true",
                        help="only decide the audit workload's known-defect pair")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    parser.add_argument("--spans", help="file for the traced spans")
    args = parser.parse_args()

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    rec = Record()
    if args.known_defect:
        run_known_defect(rec)
    elif args.workload == "atlas_s4":
        run_atlas_pass(args, rec, tracer)
    else:
        run_decide_batches(args, rec, tracer)
    out = dict(vars(rec))
    if tracer is not None:
        out["trace"] = {"calls": tracer.calls, "total_s": tracer.total_s,
                        "self_s": tracer.self_s, "counts": tracer.counts,
                        "spans": len(tracer.spans)}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
