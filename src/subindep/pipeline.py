"""The staged decision procedure and its serializable results.

Checks run from cheapest to most expensive; the first conclusive one
decides.  Stage names identify which check fired so a result can be
audited against the witness it carries.
"""

from __future__ import annotations

import json
import random
import time
from enum import Enum
from itertools import repeat
from typing import Iterable, NamedTuple

from .checks import (
    BudgetWitness,
    CheckOutcome,
    brute_force_independent,
    check_a_inside_ncl_b,
    check_almost_disjoint,
    check_b_inside_ncl_a,
    check_commuting,
    check_normal_asymmetry,
    check_order_divisibility,
    recheck_witness,
    verify_factoring,
)
from .groups import (
    DEFAULT_ENDO_BUDGET,
    DEFAULT_MAX_GROUP_ORDER,
    BudgetExceeded,
    SubgroupPair,
    closure,
)
from .homs import extend, enumerate_endomorphisms
from .perm import CycleParseError, Permutation, gather, parse_cycles


class Step(str, Enum):
    """Stage labels, in pipeline order."""

    INTERSECTION = "Step1"
    COMMUTING = "Step2i"
    ORDER = "Step2ii"
    NORMAL_ASYM = "NormalAsym"
    B_IN_NCL_A = "Step3i"
    A_IN_NCL_B = "Step3ii"
    BRUTE_FORCE = "Step4"
    BUDGET = "BudgetExceeded"


class _ConfigFields(NamedTuple):
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER
    endo_budget: int = DEFAULT_ENDO_BUDGET
    run_diagnostics: bool = False


class Config(_ConfigFields):
    """Budgets for a decision run, and whether to audit the result.
    Non-positive budgets are rejected, also by _replace."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Config":
        self = super().__new__(cls, *args, **kwargs)
        if self.max_group_order < 1 or self.endo_budget < 1:
            raise ValueError("budgets must be positive")
        return self

    @classmethod
    def _make(cls, iterable) -> "Config":
        return cls(*iterable)


class Stats(NamedTuple):
    """Orders and counts actually computed during the run.

    The orders are those the pair holds once the ladder stops, before any
    diagnostics run; the counts come from Step4.  A field is None when
    the run decided before that quantity was ever needed; nothing is
    computed just to fill in a stat.
    """

    join_order: int | None = None
    ncl_a_order: int | None = None
    ncl_b_order: int | None = None
    endo_a: int | None = None
    endo_b: int | None = None
    pairs_checked: int | None = None
    elapsed_ms: float = 0.0


class Decision(NamedTuple):
    """Outcome of a full pipeline run on one pair."""

    status: str  # "Independent", "Dependent", or "Inconclusive"
    step: Step
    witness: object | None
    stats: Stats
    diagnostics: dict | None = None


class PairSpecError(ValueError):
    """The input object does not describe a valid subgroup pair."""


# Input limits, checked before any permutation is built.  A generator
# string may hold MAX_SPEC_CHARS_PER_POINT characters per point of the
# degree: the longest canonical cycle string (every point moved, in as
# many cycles as possible) takes under 4.5 per point up to
# MAX_SPEC_DEGREE, and comma separators add at most one more.
MAX_SPEC_DEGREE = 1024
MAX_SPEC_GENERATORS = 64
MAX_SPEC_CHARS_PER_POINT = 6
# The longest spec text read before decoding: both sides' generator
# strings at the limits above, with as much again for quotes,
# separators, keys and whitespace.
MAX_SPEC_INPUT_CHARS = 2 * (2 * MAX_SPEC_GENERATORS * MAX_SPEC_DEGREE * MAX_SPEC_CHARS_PER_POINT)


def parse_pair_spec(obj: dict, max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> SubgroupPair:
    """Build a SubgroupPair from {"degree": n, "A": [...], "B": [...]}
    where the lists hold permutations in cycle notation.  The degree is
    at most MAX_SPEC_DEGREE, each side has at most MAX_SPEC_GENERATORS
    generators, and each generator string is at most
    MAX_SPEC_CHARS_PER_POINT * degree characters long."""
    if not isinstance(obj, dict):
        raise PairSpecError("pair spec must be a JSON object")
    missing = {"degree", "A", "B"} - obj.keys()
    if missing:
        raise PairSpecError(f"pair spec is missing {sorted(missing)}")
    degree = obj["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise PairSpecError("degree must be a positive integer")
    if degree > MAX_SPEC_DEGREE:
        raise PairSpecError(f"degree must be at most {MAX_SPEC_DEGREE}")
    max_chars = MAX_SPEC_CHARS_PER_POINT * degree
    for side in ("A", "B"):
        raw = obj[side]
        if not isinstance(raw, list) or not all(map(isinstance, raw, repeat(str))):
            raise PairSpecError(f"{side} must be a list of cycle strings")
        if len(raw) > MAX_SPEC_GENERATORS:
            raise PairSpecError(f"{side} has more than {MAX_SPEC_GENERATORS} generators")
        if max(map(len, raw), default=0) > max_chars:
            raise PairSpecError(f"{side} has a generator longer than {max_chars} characters")
    gens: dict[str, list[Permutation]] = {}
    for side in ("A", "B"):
        try:
            gens[side] = list(map(parse_cycles, obj[side], repeat(degree)))
        except CycleParseError as exc:
            raise PairSpecError(f"bad generator in {side}: {exc}") from exc
    try:
        a = closure(gens["A"], degree, max_group_order)
        b = closure(gens["B"], degree, max_group_order)
    except BudgetExceeded as exc:
        raise PairSpecError(f"subgroup too large: {exc}") from exc
    return SubgroupPair(a, b, max_group_order)


# The cheap stages, in the order they run; Step4 follows them.
LADDER = (
    (Step.INTERSECTION, check_almost_disjoint),
    (Step.COMMUTING, check_commuting),
    (Step.ORDER, check_order_divisibility),
    (Step.NORMAL_ASYM, check_normal_asymmetry),
    (Step.B_IN_NCL_A, check_b_inside_ncl_a),
    (Step.A_IN_NCL_B, check_a_inside_ncl_b),
)


def decide_pair(pair: SubgroupPair, config: Config = Config()) -> Decision:
    """Run the LADDER stages on an already-built pair, then Step4.  The
    paper's Step3iii and Step3iv (conjugacy merges) are not stages: they
    never fire once Step3i and Step3ii have passed, as the atlas code that
    records them as columns (atlas._AtlasRun._side) proves.
    """
    t0 = time.perf_counter()
    try:
        status, step, witness, counts = ladder_decision(
            pair, (check(pair) for _, check in LADDER), config.endo_budget)
    except BudgetExceeded as exc:
        status, step, counts = "Inconclusive", Step.BUDGET, None
        witness = BudgetWitness(exc.budget, exc.limit, exc.context)
    stats = Stats(**pair.computed_orders(), **(counts or {}),
                  elapsed_ms=(time.perf_counter() - t0) * 1000.0)
    # Outside the budget handler: an audit that trips a budget reports
    # None for its key and never turns the verdict Inconclusive.
    diagnostics = None
    if config.run_diagnostics and status != "Inconclusive":
        diagnostics = _run_diagnostics(pair, status, witness, config)
    return Decision(status, step, witness, stats, diagnostics)


def ladder_decision(pair: SubgroupPair, outcomes: Iterable[CheckOutcome],
                    endo_budget: int = DEFAULT_ENDO_BUDGET
                    ) -> tuple[str, Step, object, dict | None]:
    """(status, step, witness, Step4 counts) of the first LADDER stage
    that decides on pair, or of Step4 when none does; raises
    BudgetExceeded when a stage or Step4 trips a budget.

    outcomes yields each stage's outcome on pair in LADDER order, and is
    read no further than the deciding one: a generator that runs the
    stages as it is read runs none after that one."""
    for (step, _), out in zip(LADDER, outcomes):
        if out.decided:
            return out.verdict.value.capitalize(), step, out.witness, None
    out = brute_force_independent(pair, endo_budget)
    return out.verdict.value.capitalize(), Step.BRUTE_FORCE, out.witness, out.details


def decide(pair_spec: dict, config: Config = Config()) -> Decision:
    """Parse a pair spec and run the pipeline on it."""
    pair = parse_pair_spec(pair_spec, config.max_group_order)
    return decide_pair(pair, config)


def _run_diagnostics(pair: SubgroupPair, status: str, witness: object | None,
                     config: Config) -> dict:
    """Optional post-decision audits: recheck the witness, and for
    independent verdicts check the factoring isomorphisms by their group
    orders (see verify_factoring) and sample an associativity-style law
    on random extension triples.  An audit that trips a budget (the join
    or the endomorphisms) reports None."""
    diag: dict = {}
    if witness is not None:
        diag["witness_rechecked"] = _unless_budget(
            recheck_witness, pair, witness, config.endo_budget)
    if status == "Independent":
        diag["factoring_isomorphisms"] = _unless_budget(verify_factoring, pair)
        diag["extension_law_sampled"] = _unless_budget(_sample_extension_law, pair, config)
    return diag


def _unless_budget(audit, *args):
    """audit(*args), or None when it raises BudgetExceeded."""
    try:
        return audit(*args)
    except BudgetExceeded:
        return None


# The sampled extension law: LAW_SAMPLES endomorphism pairs drawn from a
# generator seeded with LAW_SEED, each checked on LAW_WORDS words x, y.
LAW_SAMPLES = 25
LAW_WORDS = 8
LAW_SEED = 0


def _sample_extension_law(pair: SubgroupPair, config: Config) -> bool:
    """For random endomorphism pairs of an independent pair, confirm the
    extension restricts correctly and respects products on sampled words.

    The draws are those of random.Random(LAW_SEED).randrange: for n >= 1,
    randrange(n) draws k = n.bit_length() bits and draws again while the
    result is n or more, and so does this loop, over the same generator's
    getrandbits.  Each distinct pair is extended once; gamma is read from
    its image table by element index.  Both products, x * y and gamma(x)
    * gamma(y), are permutation products formed as image gathers (x * y
    has images x[y[i]]), not the join's multiplication columns that
    extend propagates along, so the law is checked independently of the
    code that built the table."""
    endos_a = enumerate_endomorphisms(pair.a, config.endo_budget)
    endos_b = enumerate_endomorphisms(pair.b, config.endo_budget)
    j = pair.join
    elements, index = j.elements, j._image_index()
    # Join index -> gather of that element's images, so that x * y, whose
    # images are x[y[i]], is gathers[index of y](x).  Each getter is built
    # the first time its element is drawn: a law forms at most
    # 2 * LAW_SAMPLES * LAW_WORDS products, on joins of up to thousands of
    # elements.
    gathers: dict = {}
    bits = random.Random(LAW_SEED).getrandbits
    na, nb, nj = len(endos_a), len(endos_b), j.order
    ka, kb, kj = na.bit_length(), nb.bit_length(), nj.bit_length()
    tables: dict[tuple[int, int], tuple[int, ...]] = {}
    for _ in range(LAW_SAMPLES):
        ia = bits(ka)
        while ia >= na:
            ia = bits(ka)
        ib = bits(kb)
        while ib >= nb:
            ib = bits(kb)
        table = tables.get((ia, ib))
        if table is None:
            res = extend(endos_a[ia], endos_b[ib], pair)
            if not res.exists:
                return False
            table = tables[ia, ib] = res.map.images
        for _ in range(LAW_WORDS):
            ix = bits(kj)
            while ix >= nj:
                ix = bits(kj)
            iy = bits(kj)
            while iy >= nj:
                iy = bits(kj)
            igy = table[iy]
            get_y = gathers.get(iy) or gathers.setdefault(iy, gather(elements[iy]))
            get_gy = gathers.get(igy) or gathers.setdefault(igy, gather(elements[igy]))
            xy = get_y(elements[ix])
            gxgy = get_gy(elements[table[ix]])
            if elements[table[index[xy]]] != gxgy:
                return False
    return True


_STEP_TEXT = {
    Step.INTERSECTION: "step 1 (intersection)",
    Step.COMMUTING: "step 2(i) (commuting)",
    Step.ORDER: "step 2(ii) (order divisibility)",
    Step.NORMAL_ASYM: "normality comparison",
    Step.B_IN_NCL_A: "step 3(i) (B against <Conj(A)>)",
    Step.A_IN_NCL_B: "step 3(ii) (A against <Conj(B)>)",
    Step.BRUTE_FORCE: "step 4 (exhaustive extension)",
    Step.BUDGET: "budget limit",
}


def format_decision(decision: Decision, fmt: str = "json") -> str:
    """Render a Decision as a JSON document or a short text report."""
    if fmt == "json":
        doc = {
            "status": decision.status.lower(),
            "step": decision.step.value,
            "witness": None if decision.witness is None else decision.witness.to_json(),
            "stats": {**decision.stats._asdict(),
                      "elapsed_ms": round(decision.stats.elapsed_ms, 3)},
            "diagnostics": decision.diagnostics,
        }
        return json.dumps(doc, indent=2)
    if fmt != "text":
        raise ValueError(f"unknown output format {fmt!r}")
    lines = [f"{decision.status.upper()} at {_STEP_TEXT[decision.step]}"]
    if decision.witness is not None:
        lines.append(f"witness: {decision.witness.describe()}")
    st = decision.stats
    shown = [("join order", st.join_order),
             ("|<Conj(A)>|", st.ncl_a_order),
             ("|<Conj(B)>|", st.ncl_b_order),
             ("endomorphisms of A", st.endo_a),
             ("endomorphisms of B", st.endo_b),
             ("pairs checked", st.pairs_checked)]
    parts = [f"{name}: {val}" for name, val in shown if val is not None]
    if parts:
        lines.append("; ".join(parts))
    lines.append(f"elapsed: {st.elapsed_ms:.1f} ms")
    if decision.diagnostics:
        for key, val in decision.diagnostics.items():
            lines.append(f"diagnostic {key}: {val}")
    return "\n".join(lines)
