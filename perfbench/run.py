"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload ladder_mix --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it measures set-up in fresh interpreters, runs the
workload untraced in rounds of fresh worker processes, gates every
answer and prints the end-to-end metrics, in reference seconds
(``pace.py``): each round's times are scaled by the pace loop timed
through that round.
With ``--trace 1`` it runs a fixed amount of the workload twice, untraced
and then traced, each in a fresh process, and prints the per-layer
metrics.  The last line of stdout is always the JSON result; lines above
it are for people.  Exits 1 when an op fails unexpectedly and 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import pace_loop, pace_samples, scale

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ladder_mix", "step4_exhaustive", "audit", "atlas_s4")
# Fresh interpreters timed for setup_s before each round, after one that
# compiles bytecode, so that the samples spread over the run; each after
# PACE_PER_PROBE pace loops.
SETUP_PER_ROUND = 2
PACE_PER_PROBE = 3
SETUP_PROBE = ("import subindep, subindep.cli\n"
               "from subindep.pipeline import Config\n"
               "Config()\n"
               "print('ready', flush=True)\n")
# Batches (atlas passes) in each half of a traced run: fixed, so that
# traced counts repeat exactly for a seed.
TRACE_BATCHES = {"ladder_mix": 4, "step4_exhaustive": 1, "audit": 4, "atlas_s4": 1}
# A time-bounded run is this many rounds, each a fresh worker process that
# continues the seed's batch stream for its share of the time (at least
# MIN_BATCHES), or runs one atlas pass (and atlas_s4 adds passes while the
# time allows).  The pace loop scales each round by itself.
ROUNDS = 7
MIN_BATCHES = 2
# Rounds take the CPUs in turn.  A neighbour that slows one CPU of a
# shared machine for tens of seconds then leaves the rounds on the other
# CPUs at full speed.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
RUN_DEADLINE_S = 170.0
STEPS = ("Step1", "Step2i", "Step2ii", "NormalAsym", "Step3i", "Step3ii",
         "Step3iii", "Step3iv", "Step4", "BudgetExceeded")
CHECKS = ("check_almost_disjoint", "check_commuting", "check_order_divisibility",
          "check_normal_asymmetry", "check_b_inside_ncl_a", "check_a_inside_ncl_b",
          "check_conjugacy_merge_a", "check_conjugacy_merge_b")
OUT_DIR = ".perfbench_out"


class WorkerError(RuntimeError):
    pass


def machine_record() -> dict:
    """Where and when the run happened; never used to scale metrics."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    # Twenty pace loops in a row, timed once at the start.
    calib = sum(pace_loop() for _ in range(20))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model or platform.processor(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "calibration_loop_s": round(calib, 4)}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One hash seed for every process, so that set and dict orders, and with
    # them the work done, do not change from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_probe(root: Path) -> float:
    """Seconds from spawning an interpreter to its being ready for a first op."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=root,
                          env=worker_env(root), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=30)
    if line.strip() != "ready" or proc.returncode != 0:
        raise WorkerError("set-up probe failed to import subindep")
    return ready


def run_worker(root: Path, deadline: float, *args: str) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root,
                          env=worker_env(root), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge(records: list[dict]) -> dict:
    out = {"batch_walls": [], "batch_ops": [], "failures": [],
           "attempted": 0, "failed": 0, "inconclusive": 0, "pairs_checked": 0,
           "step_counts": {}, "step_latencies": {}, "peak_rss_mb": 0.0, "extra": {}}
    for rec in records:
        for key in ("batch_walls", "batch_ops", "failures"):
            out[key] += rec[key]
        for key in ("attempted", "failed", "inconclusive", "pairs_checked"):
            out[key] += rec[key]
        for step, n in rec["step_counts"].items():
            out["step_counts"][step] = out["step_counts"].get(step, 0) + n
        for step, lat in rec["step_latencies"].items():
            out["step_latencies"].setdefault(step, []).extend(lat)
        out["peak_rss_mb"] = max(out["peak_rss_mb"], rec["peak_rss_mb"])
        out["extra"].update(rec["extra"])
    return out


def tail(latencies: list[float], guaranteed: int) -> tuple[float, float]:
    """(percentile, value) by nearest rank.  The percentile is the highest
    of p95, p90, p75 and p50 with at least ten samples beyond it in the
    sample count every run reaches, so it does not move with machine
    speed.  Above p95, stalls of a shared machine set the value: p99 of
    ladder_mix read 2.0 to 3.1 ms across five seeds.  With too few samples
    for any percentile the median stands in."""
    ordered = sorted(latencies)
    for pct in (95.0, 90.0, 75.0, 50.0):
        if guaranteed - math.ceil(pct / 100.0 * guaranteed) >= 10:
            return pct, ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]
    return 50.0, statistics.median(ordered)


def end_to_end(rounds: list[dict], setup: list[float], setup_pace: list[float],
               workload: str) -> tuple[dict, dict]:
    """The end-to-end metrics in reference seconds, and notes with the
    same timings unscaled.  Every latency and batch time of a round is
    scaled by the pace loops timed in that round."""
    walls, lats, raw_walls, raw_lats = [], [], [], []
    for r in rounds:
        k = scale(r["pace_s"])
        walls += [t * k for t in r["batch_walls"]]
        lats += [t * k for t in r["latencies"]]
        raw_walls += r["batch_walls"]
        raw_lats += r["latencies"]
    ops = rounds[0]["batch_ops"][0]
    # Atlas latencies are whole passes, one per round.
    guaranteed = len(rounds) * (1 if workload == "atlas_s4" else MIN_BATCHES * ops)
    pct, tail_s = tail(lats, guaranteed)
    # The mean batch (pass), from the total: on atlas_s4 the quartile
    # distance over ten runs was 4-8 % of the median against 9 % for the
    # median pass.
    wall_s = statistics.fmean(walls)
    setup_k = scale(setup_pace)
    raw = {"setup_s": statistics.median(setup), "wall_s": statistics.fmean(raw_walls),
           "latency_p50_ms": statistics.median(raw_lats) * 1000.0,
           "latency_tail_ms": tail(raw_lats, guaranteed)[1] * 1000.0}
    return {
        "setup_s": (statistics.median(setup) * setup_k, "s"),
        "wall_s": (wall_s, "s"),
        "throughput_ops_s": (ops / wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(lats) * 1000.0, "ms"),
        "latency_tail_ms": (tail_s * 1000.0, "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }, {"rounds": len(rounds), "batches": len(walls), "tail_percentile": pct,
        "latency_samples": len(lats), "unscaled": raw,
        "pace_scale": [scale(r["pace_s"]) for r in rounds], "setup_pace_scale": setup_k}


def per_layer(plain: dict, traced: dict) -> dict:
    tr = traced["trace"]
    calls, total, self_s, counts = tr["calls"], tr["total_s"], tr["self_s"], tr["counts"]

    def ms(name):
        return (total.get(name, 0.0) * 1000.0, "ms")

    def n(name):
        return (calls.get(name, 0), "count")

    m = {
        "perm.mul.calls": n("perm.mul"),
        "perm.mul.self_ms": (self_s.get("perm.mul", 0.0) * 1000.0, "ms"),
        "perm.parse_cycles.calls": n("perm.parse_cycles"),
        "pipeline.parse_pair_spec.ms": ms("pipeline.parse_pair_spec"),
        "groups.closure.calls": n("groups.closure"),
        "groups.closure.ms": ms("groups.closure"),
        "groups.closure.self_ms": (self_s.get("groups.closure", 0.0) * 1000.0, "ms"),
        "groups.closure.elements": (counts["closure_elements"], "count"),
        "groups.intersection.ms": ms("groups.intersection"),
        "groups.is_normal_in.ms": ms("groups.is_normal_in"),
        "groups.normal_closure.calls": n("groups.normal_closure"),
        "groups.normal_closure.ms": ms("groups.normal_closure"),
        "groups.conjugacy_classes.calls": n("groups.conjugacy_classes"),
        "groups.conjugacy_classes.ms": ms("groups.conjugacy_classes"),
        "groups.propagate_images.calls": n("groups.propagate_images"),
        "groups.propagate_images.ms": ms("groups.propagate_images"),
        "homs.extend.calls": n("homs.extend"),
        "homs.extend.ms": ms("homs.extend"),
        "homs.extend.conflict_ratio": (counts["extend_conflicts"] / calls["homs.extend"]
                                       if calls.get("homs.extend") else 0.0, "ratio"),
        "homs.enumerate_endomorphisms.calls": n("homs.enumerate_endomorphisms"),
        "homs.enumerate_endomorphisms.ms": ms("homs.enumerate_endomorphisms"),
        "homs.endomorphisms.returned": (counts["endomorphisms_returned"], "count"),
    }
    for check in CHECKS:
        m[f"checks.{check}.ms"] = ms(f"checks.{check}")
    m.update({
        "checks.brute_force_independent.ms": ms("checks.brute_force_independent"),
        "checks.brute_force.pairs_scanned": (counts["pairs_scanned"], "count"),
        "pipeline.stats.pairs_checked": (counts["pairs_checked"], "count"),
        "groups.quotient.ms": ms("groups.quotient"),
        "groups.is_isomorphic.ms": ms("groups.is_isomorphic"),
        "groups.greedy_generators.ms": ms("groups.greedy_generators"),
        "checks.verify_factoring.ms": ms("checks.verify_factoring"),
        "pipeline.diagnostics_ms": (counts["diagnostics_s"] * 1000.0, "ms"),
    })
    for step in STEPS:
        lat = plain["step_latencies"].get(step)
        m[f"pipeline.step.{step}.count"] = (plain["step_counts"].get(step, 0), "count")
        m[f"pipeline.step.{step}.p50_ms"] = (statistics.median(lat) * 1000.0 if lat else 0.0,
                                             "ms")
    for name in ("enumerate_subgroups", "classify_all_pairs", "render_report"):
        m[f"atlas.{name}.ms"] = ms(f"atlas.{name}")
    untraced, traced_wall = sum(plain["batch_walls"]), sum(traced["batch_walls"])
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced, "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "subindep" / "__init__.py").is_file():
        print(f"perfbench: no src/subindep under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            batches = ["--batches", str(TRACE_BATCHES[args.workload])]
            plain = merge([run_worker(root, deadline, *common, *batches)])
            traced = run_worker(root, deadline, *common, *batches, "--trace", "1",
                                "--spans", str(out_dir / f"{stem}-spans.jsonl"))
            rec = merge([plain, traced])
            metrics = per_layer(plain, traced)
            record["spans"] = traced["trace"]["spans"]
        else:
            setup_probe(root)  # compiles bytecode; not a sample
            setup: list[float] = []
            setup_pace: list[float] = []
            rounds: list[dict] = []
            first = 0
            start = time.monotonic()
            while True:
                if len(rounds) < ROUNDS:
                    for _ in range(SETUP_PER_ROUND):
                        setup_pace += pace_samples(PACE_PER_PROBE)
                        setup.append(setup_probe(root))
                t_round = time.monotonic()
                cpu = ["--cpu", str(CPUS[len(rounds) % len(CPUS)])] if CPUS else []
                if args.workload == "atlas_s4":
                    # One cold process per pass, as a CLI atlas run would be.
                    rounds.append(run_worker(root, deadline, *common, *cpu))
                else:
                    rounds.append(run_worker(root, deadline, *common, *cpu,
                                             "--seconds", str(args.seconds / ROUNDS),
                                             "--min-batches", str(MIN_BATCHES),
                                             "--first-batch", str(first)))
                    first += len(rounds[-1]["batch_walls"])
                now = time.monotonic()
                if len(rounds) < ROUNDS:
                    continue
                # atlas_s4 adds passes while one more would not overrun the time.
                if args.workload != "atlas_s4" or 2 * now - start - t_round > args.seconds:
                    break
            extra = []
            if args.workload == "audit":
                extra.append(run_worker(root, deadline, *common, "--known-defect"))
            rec = merge(rounds + extra)
            metrics, notes = end_to_end(rounds, setup, setup_pace, args.workload)
            record.update(notes, setup_samples=setup,
                          failed_frac=rec["failed"] / rec["attempted"],
                          inconclusive_frac=rec["inconclusive"] / rec["attempted"])
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record.update({k: rec[k] for k in ("attempted", "failed", "inconclusive",
                                       "pairs_checked", "failures", "step_counts")})
    record.update(batch_walls=rec["batch_walls"], batch_ops=rec["batch_ops"][0],
                  known_defect=rec["extra"].get("known_defect"),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    if args.trace:
        shape = f"the same {TRACE_BATCHES[args.workload]} batches untraced, then traced"
    elif args.workload == "atlas_s4":
        shape = f"{record['rounds']} passes of {rec['batch_ops'][0]} rows"
    else:
        shape = (f"{record['batches']} batches of {rec['batch_ops'][0]} ops "
                 f"in {record['rounds']} rounds")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{rec['attempted']} ops in {shape}")
    print(f"machine: {json.dumps(record['machine'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if not args.trace:
        for name, value in record["unscaled"].items():
            print(f"  {name + ' unscaled':<40} {value:>14.6g}")
        print(f"  {'latency_tail_ms is p':<40} {record['tail_percentile']:>14g} "
              f"of {record['latency_samples']} samples")
        for name in ("failed_frac", "inconclusive_frac"):
            print(f"  {name:<40} {record[name]:>14.6g} ratio")
        if args.workload != "atlas_s4":
            print(f"  {'pipeline.stats.pairs_checked':<40} {rec['pairs_checked']:>14d} count")
    if record["known_defect"]:
        print(f"  known defect {json.dumps(record['known_defect'])}")
    for why in rec["failures"]:
        print(f"  FAILED {why}")
    correct = rec["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
