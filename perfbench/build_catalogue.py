"""Record the benchmark catalogue: pair shapes with their expected verdicts.

Run once from the repository root, when the benchmark is built or its
pools change:

    PYTHONPATH=src:tests python3 perfbench/build_catalogue.py

Candidates come from a fixed-seed search; the pipeline's own step and
cost at build time only sort them into the workload pools.  Each kept
verdict comes from an independent route: the global restriction search
of ``tests/oracles.py`` when the join is small enough to afford it, and
otherwise the exhaustive extension scan without shortcuts, whose witness
is rechecked.  A disagreement with the pipeline aborts the build.
Benchmark runs compare against this file and never against a fresh run
of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import signal
import sys
import time

from oracles import independent_by_global_search
from subindep.atlas import classify_all_pairs, render_report
from subindep.checks import Verdict, brute_force_independent, recheck_witness
from subindep.perm import Permutation, cycle_string
from subindep.pipeline import Config, PairSpecError, decide, parse_pair_spec

from inputs import CATALOGUE_PATH, relabel

GLOBAL_SEARCH_MAX_JOIN = 32
CANDIDATE_CAP_S = 3.0

# Catalogue shapes for ladder_mix, on points 1..m.
SHAPES = {
    "C2": ["(1 2)"], "C2x": ["(1 2)(3 4)"], "C3": ["(1 2 3)"], "C4": ["(1 2 3 4)"],
    "C5": ["(1 2 3 4 5)"], "C6": ["(1 2 3)(4 5)"], "K4": ["(1 2)(3 4)", "(1 3)(2 4)"],
    "C2^2": ["(1 2)", "(3 4)"], "C2^3": ["(1 2)", "(3 4)", "(5 6)"],
    "S3": ["(1 2 3)", "(1 2)"], "D4": ["(1 2 3 4)", "(1 3)"], "S4": ["(1 2 3 4)", "(1 2)"],
    "A4": ["(1 2 3)", "(2 3 4)"], "D5": ["(1 2 3 4 5)", "(2 5)(3 4)"],
    "C3xC2": ["(1 2 3)", "(4 5)"],
}

# Worked examples the step4_exhaustive search may miss, by pool.
FIXED_STEP4 = {
    "dependent": [
        (6, ["(1 2)", "(5 6)"], ["(1 3)(2 4)"]),
        (8, ["(1 2)", "(5 6)", "(7 8)"], ["(1 3)(2 4)"]),
    ],
    "independent": [
        (8, ["(6 8 1)", "(8 4 1 6)(2 3)"], ["(3 5)"]),
    ],
    "c2_4": [
        (10, ["(1 2)", "(5 6)", "(7 8)", "(9 10)"], ["(1 3)(2 4)"]),
    ],
}

# The diagnostics pass enumerates End(C2^5), about 33 million candidate
# maps, after Step2i has decided in under a millisecond.  Both routes to
# an expected verdict are unaffordable here; commuting subgroups that
# meet trivially are independent (the Step2i theorem), and the runs
# recheck that witness.
KNOWN_DEFECT = {
    "name": "diagnostics_c2^5",
    "degree": 12,
    "A": ["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"],
    "B": ["(11 12)"],
    "expected": "Independent",
    "oracle": "theorem",
}

_POINT = re.compile(r"\d+")


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def timed_decide(spec: dict, config: Config = Config()):
    """(decision, ms), or None when the candidate is too large or runs
    past the cap."""
    signal.setitimer(signal.ITIMER_REAL, CANDIDATE_CAP_S)
    try:
        t0 = time.perf_counter()
        decision = decide(spec, config)
        return decision, (time.perf_counter() - t0) * 1000.0
    except (_Timeout, PairSpecError):
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def oracle_verdict(spec: dict) -> tuple[str, str]:
    pair = parse_pair_spec(spec)
    j = pair.join
    if j.order <= GLOBAL_SEARCH_MAX_JOIN:
        try:
            ok = independent_by_global_search(pair.a, pair.b, j)
            return ("Independent" if ok else "Dependent"), "global_search"
        except AssertionError:
            pass  # the join needs more than three generators
    out = brute_force_independent(pair, use_shortcuts=False)
    if out.verdict is Verdict.INCONCLUSIVE or not recheck_witness(pair, out.witness):
        raise RuntimeError(f"exhaustive scan gave no checkable verdict for {spec}")
    return ("Independent" if out.verdict is Verdict.INDEPENDENT else "Dependent"), "exhaustive_scan"


def normalise(spec: dict) -> tuple[int, list[str], list[str]]:
    """Renumber the moved points 1..m in order of first appearance."""
    order: dict[int, int] = {}
    for g in spec["A"] + spec["B"]:
        for p in _POINT.findall(g):
            order.setdefault(int(p), len(order) + 1)

    return len(order), relabel(spec["A"], order), relabel(spec["B"], order)


def make_entry(spec: dict, decision, degrees, ms: float) -> dict:
    expected, source = oracle_verdict(spec)
    if expected != decision.status:
        sys.exit(f"oracle says {expected}, pipeline says {decision.status}: {spec}")
    points, a, b = normalise(spec)
    lo, hi = degrees
    return {"A": a, "B": b, "points": points, "degrees": [max(lo, points), max(hi, points)],
            "expected": expected, "oracle": source,
            "step_at_build": decision.step.value, "ms_at_build": round(ms, 2)}


def random_placement(rng: random.Random, names: list[str]) -> dict:
    a, b = SHAPES[rng.choice(names)], SHAPES[rng.choice(names)]

    def npts(gens):
        return max(int(p) for g in gens for p in _POINT.findall(g))
    n = rng.randint(max(5, npts(a), npts(b)), 8)
    pa = dict(zip(range(1, 99), rng.sample(range(1, n + 1), npts(a))))
    pb = dict(zip(range(1, 99), rng.sample(range(1, n + 1), npts(b))))
    return {"degree": n, "A": relabel(a, pa), "B": relabel(b, pb)}


def random_generators(rng: random.Random, degree: int, count: int, max_support: int) -> list[str]:
    out = []
    for _ in range(count):
        pts = rng.sample(range(degree), rng.randint(2, max_support))
        img = list(range(degree))
        for p, q in zip(pts, rng.sample(pts, len(pts))):
            img[p] = q
        perm = Permutation(tuple(img))
        if not perm.is_identity():
            out.append(cycle_string(perm))
    return out


def build_ladder(rng: random.Random) -> dict:
    want = {"Step2ii": 40, "Step1": 40, "Step2i": 24, "NormalAsym": 12,
            "Step3i": 4, "Step3ii": 4, "Step4": 8}
    # Step3 and Step4 ops must stay cheap so that the ladder, not the
    # normal closures or the scan, dominates this workload.
    max_ms = {"Step3i": 30.0, "Step3ii": 30.0, "Step4": 3.0}
    pools: dict[str, list] = {k: [] for k in want}
    seen = set()
    names = sorted(SHAPES)
    tries = 0
    while any(len(pools[k]) < n for k, n in want.items()):
        tries += 1
        if tries > 200000:
            sys.exit(f"ladder search stalled: {[(k, len(v)) for k, v in pools.items()]}")
        spec = random_placement(rng, names)
        key = normalise(spec)
        if str(key) in seen:
            continue
        seen.add(str(key))
        got = timed_decide(spec)
        if got is None:
            continue
        decision, ms = got
        step = decision.step.value
        if step not in pools or len(pools[step]) >= want[step] or ms > max_ms.get(step, 10.0):
            continue
        pools[step].append(make_entry(spec, decision, (5, 8), ms))
    return pools


def labelling_steady(spec: dict) -> bool:
    """True when the pair costs about the same, 70-140 ms, on four random
    relabellings.  Some shapes cost twice as much on one labelling as on
    another (the greedy generators, and with them the candidate product,
    follow the element order), and a pool of those leaves too few samples
    per run for a steady median."""
    rng = random.Random(str(spec))
    costs = []
    for _ in range(4):
        images = rng.sample(range(1, spec["degree"] + 1), spec["degree"])
        mapping = dict(zip(range(1, spec["degree"] + 1), images))
        got = timed_decide({"degree": spec["degree"], "A": relabel(spec["A"], mapping),
                            "B": relabel(spec["B"], mapping)})
        if got is None:
            return False
        costs.append(got[1])
    costs.sort()
    return costs[-1] <= 1.25 * costs[0] and 70.0 <= costs[1] <= 140.0


def build_step4(rng: random.Random) -> dict:
    pools: dict[str, list] = {"dependent": [], "independent": [], "c2_4": []}
    for pool, specs in FIXED_STEP4.items():
        for degree, a, b in specs:
            spec = {"degree": degree, "A": a, "B": b}
            decision, ms = timed_decide(spec)
            pools[pool].append(make_entry(spec, decision, (degree, degree), ms))
    want = {"dependent": 12, "independent": 8}
    seen = set()
    while any(len(pools[k]) < n for k, n in want.items()):
        spec = {"degree": 8,
                "A": random_generators(rng, 8, rng.randint(1, 3), 5),
                "B": random_generators(rng, 8, rng.randint(1, 2), 4)}
        if not spec["A"] or not spec["B"] or str(normalise(spec)) in seen:
            continue
        seen.add(str(normalise(spec)))
        got = timed_decide(spec)
        if got is None or got[0].step.value != "Step4":
            continue
        decision, ms = got
        pool = "dependent" if decision.status == "Dependent" else "independent"
        # Dependent scans worth measuring (not the trivial 2x2 ones) and
        # independents that scan a join of order 144 or more.
        if pool == "dependent" and not (decision.stats.endo_a * decision.stats.endo_b >= 32
                                        and ms <= 150.0):
            continue
        if pool == "independent" and not (decision.stats.join_order >= 144 and ms <= 300.0
                                          and labelling_steady(spec)):
            continue
        if len(pools[pool]) < want[pool]:
            pools[pool].append(make_entry(spec, decision, (8, 8), ms))
    return pools


def build_audit(rng: random.Random, ladder: dict) -> dict:
    config = Config(run_diagnostics=True)
    pools: dict[str, list] = {"commuting": [], "exhaustive": []}
    sources = [("commuting", e) for e in ladder["Step2i"]] + \
              [("exhaustive", e) for e in ladder["Step4"] if e["expected"] == "Independent"]
    for pool, entry in sources:
        spec = {"degree": entry["degrees"][1], "A": entry["A"], "B": entry["B"]}
        got = timed_decide(spec, config)
        if got is None or got[1] > 100.0:
            continue
        decision, ms = got
        diag = decision.diagnostics
        if not diag or diag.get("witness_rechecked") is not True:
            sys.exit(f"diagnostics failed at build time: {spec} {diag}")
        pools[pool].append(dict(entry, ms_at_build=round(ms, 2), diagnostics=diag))
    for pool, entries in pools.items():
        if len(entries) < 4:
            sys.exit(f"audit pool {pool} has only {len(entries)} entries")
    return pools


def atlas_digest() -> dict:
    rows, summary = classify_all_pairs(4, jobs=1)
    text = render_report(rows, summary)
    return {"pairs": len(rows), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(20261017)
    ladder = build_ladder(rng)
    catalogue = {
        "ladder_mix": {"pools": ladder},
        "step4_exhaustive": {"pools": build_step4(rng)},
        "audit": {"pools": build_audit(rng, ladder), "known_defect": KNOWN_DEFECT},
        "atlas_s4": atlas_digest(),
    }
    with open(CATALOGUE_PATH, "w", encoding="utf-8") as fh:
        json.dump(catalogue, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for wl in ("ladder_mix", "step4_exhaustive", "audit"):
        sizes = {k: len(v) for k, v in catalogue[wl]["pools"].items()}
        print(wl, sizes)
    print("atlas_s4", catalogue["atlas_s4"])


if __name__ == "__main__":
    main()
