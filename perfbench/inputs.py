"""Seeded inputs for the benchmark workloads.

Every op is a pair spec drawn from the recorded catalogue
(``catalogue.json``) and moved onto fresh points by a random relabelling.
Relabelling is a simultaneous conjugation of A and B (plus fixed points
when the degree grows), so it carries the join along and the recorded
verdict holds for every seed.  Nothing here imports the package under
test: generating inputs costs the program nothing.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

CATALOGUE_PATH = Path(__file__).with_name("catalogue.json")

# Ops per batch, by catalogue class.  A batch is the unit whose wall time
# is reported, so its composition is fixed: every entry of a pool appears
# count // len(pool) times, plus count % len(pool) distinct entries drawn
# by the seed, and the points move.  ladder_mix follows the S5 atlas step
# mix (Step1 and Step2ii decide most pairs) while keeping every stage
# that can fire present.  In step4_exhaustive every independent entry
# runs once per batch, so the median and p75 fall among its slower
# entries (join order 144, about 90-110 ms), clear of the two faster ones.
BATCHES = {
    "ladder_mix": {"Step2ii": 256, "Step1": 112, "Step2i": 16, "NormalAsym": 8,
                   "Step3i": 1, "Step3ii": 1, "Step4": 6},
    "step4_exhaustive": {"dependent": 4, "independent": 8, "c2_4": 1},
    "audit": {"commuting": 12, "exhaustive": 4},
}

_POINT = re.compile(r"\d+")


def load_catalogue(path: Path = CATALOGUE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def relabel(gens: list[str], mapping: dict[int, int]) -> list[str]:
    """Rewrite cycle strings through a point mapping."""
    return [_POINT.sub(lambda m: str(mapping[int(m.group())]), g) for g in gens]


def place(entry: dict, rng: random.Random) -> dict:
    """The entry's pair on random points of a degree in its range."""
    lo, hi = entry["degrees"]
    degree = rng.randint(lo, hi)
    targets = rng.sample(range(1, degree + 1), entry["points"])
    mapping = dict(zip(range(1, entry["points"] + 1), targets))
    return {"degree": degree, "A": relabel(entry["A"], mapping),
            "B": relabel(entry["B"], mapping)}


def make_batch(catalogue: dict, workload: str, seed: int, index: int) -> list[dict]:
    """Batch ``index`` of a workload's op stream for ``seed``.

    Each op is {"spec", "expected", "cls"} (plus "diagnostics" for
    audit).  The same (workload, seed, index) always gives the same ops.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    pools = catalogue[workload]["pools"]
    ops = []
    for cls, count in BATCHES[workload].items():
        pool = pools[cls]
        entries = pool * (count // len(pool)) + rng.sample(pool, count % len(pool))
        for entry in entries:
            op = {"spec": place(entry, rng), "expected": entry["expected"], "cls": cls}
            if "diagnostics" in entry:
                op["diagnostics"] = entry["diagnostics"]
            ops.append(op)
    rng.shuffle(ops)
    return ops
