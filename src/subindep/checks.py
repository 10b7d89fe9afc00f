"""Independence checks for a pair of subgroups, with certificates.

A pair (A, B) is independent when every pair of endomorphisms (alpha of
A, beta of B) extends to an endomorphism of the join <A u B>.  The
functions here are the individual necessary or sufficient conditions; a
CheckOutcome either proves dependence, proves independence, or abstains,
and any non-abstaining outcome carries a witness that can be rechecked
from scratch with recheck_witness.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import Mapping, NamedTuple

from .groups import (
    DEFAULT_ENDO_BUDGET,
    BudgetExceeded,
    FiniteGroup,
    GroupMap,
    SubgroupPair,
    is_normal_in,
    propagate_images,
)
from .homs import ExtensionConflict, enumerate_endomorphisms, extend
from .perm import Permutation, cycle_string


class Verdict(Enum):
    DEPENDENT = "dependent"
    INDEPENDENT = "independent"
    INCONCLUSIVE = "inconclusive"


# Witness regions for membership certificates.
REGION_A_AND_B = "a_and_b"
REGION_B_IN_NCL_A = "b_in_ncl_a"
REGION_A_IN_NCL_B = "a_in_ncl_b"

_REGION_TEXT = {
    REGION_A_AND_B: "A ∩ B",
    REGION_B_IN_NCL_A: "B ∩ <Conj(A)>",
    REGION_A_IN_NCL_B: "A ∩ <Conj(B)>",
}


class MembershipWitness(NamedTuple):
    """A non-identity element living where independence forbids one."""

    element: Permutation
    region: str

    def to_json(self) -> dict:
        return {"kind": "membership", "region": self.region,
                "element": cycle_string(self.element)}

    def describe(self) -> str:
        return f"{cycle_string(self.element)} is a non-identity element of {_REGION_TEXT[self.region]}"


class CommutingWitness(NamedTuple):
    """A and B intersect trivially and commute elementwise."""

    def to_json(self) -> dict:
        return {"kind": "all_commute"}

    def describe(self) -> str:
        return "A and B intersect trivially and every a in A commutes with every b in B"


class OrderViolationWitness(NamedTuple):
    """Non-commuting a, b whose product order is divisible by neither."""

    a: Permutation
    b: Permutation
    ab: Permutation
    order_a: int
    order_b: int
    order_ab: int

    def to_json(self) -> dict:
        return {"kind": "order_violation",
                "a": cycle_string(self.a), "b": cycle_string(self.b),
                "ab": cycle_string(self.ab),
                "order_a": self.order_a, "order_b": self.order_b,
                "order_ab": self.order_ab}

    def describe(self) -> str:
        parts = []
        if self.order_ab % self.order_a:
            parts.append(f"|a|={self.order_a}")
        if self.order_ab % self.order_b:
            parts.append(f"|b|={self.order_b}")
        bad = " and ".join(parts)
        return (f"a={cycle_string(self.a)}, b={cycle_string(self.b)} do not commute and "
                f"{bad} does not divide |ab|={self.order_ab} (ab={cycle_string(self.ab)})")


class NormalAsymmetryWitness(NamedTuple):
    """Exactly one subgroup is normal in the join; carries evidence that
    the other one is not."""

    normal_side: str  # the side that IS normal in the join
    moved_element: Permutation
    conjugating_element: Permutation
    conjugate: Permutation

    def to_json(self) -> dict:
        other = "B" if self.normal_side == "A" else "A"
        return {"kind": "normal_asymmetry", "normal_side": self.normal_side,
                "non_normal_side": other,
                "moved_element": cycle_string(self.moved_element),
                "conjugating_element": cycle_string(self.conjugating_element),
                "conjugate": cycle_string(self.conjugate)}

    def describe(self) -> str:
        other = "B" if self.normal_side == "A" else "A"
        return (f"{self.normal_side} is normal in the join but {other} is not: conjugating "
                f"{cycle_string(self.moved_element)} by {cycle_string(self.conjugating_element)} "
                f"gives {cycle_string(self.conjugate)}, outside {other}")


class IncompatiblePairWitness(NamedTuple):
    """An endomorphism pair with no common extension to the join."""

    alpha: GroupMap
    beta: GroupMap
    conflict: ExtensionConflict

    def to_json(self) -> dict:
        return {"kind": "incompatible_endomorphisms",
                "alpha": self.alpha.table_strings(),
                "beta": self.beta.table_strings(),
                "conflict": {"element": cycle_string(self.conflict.element),
                             "images": [cycle_string(self.conflict.image_a),
                                        cycle_string(self.conflict.image_b)]}}

    def describe(self) -> str:
        return (f"no endomorphism of the join agrees with alpha on A and beta on B: "
                f"{cycle_string(self.conflict.element)} is forced to both "
                f"{cycle_string(self.conflict.image_a)} and {cycle_string(self.conflict.image_b)}")


class ExhaustiveWitness(NamedTuple):
    """Every endomorphism pair extends; the pairs the scan did not extend
    are composites of those it did (see brute_force_independent)."""

    pairs_checked: int

    def to_json(self) -> dict:
        return {"kind": "exhaustive", "pairs_checked": self.pairs_checked}

    def describe(self) -> str:
        return (f"every endomorphism pair extends to the join: {self.pairs_checked} "
                f"extended, the rest are composites of those")


class BudgetWitness(NamedTuple):
    """The computation was abandoned at a configured size limit."""

    budget: str
    limit: int
    context: str

    def to_json(self) -> dict:
        return {"kind": "budget", "budget": self.budget, "limit": self.limit,
                "context": self.context}

    def describe(self) -> str:
        return f"{self.budget} limit {self.limit} exceeded while {self.context}"


class CheckOutcome(NamedTuple):
    """Result of one check: a verdict, a witness when the verdict is not
    inconclusive, and the Step4 counts from brute_force_independent."""

    verdict: Verdict
    witness: object | None = None
    details: Mapping | None = None

    @property
    def decided(self) -> bool:
        return self.verdict is not Verdict.INCONCLUSIVE


_INCONCLUSIVE = CheckOutcome(Verdict.INCONCLUSIVE)


def check_almost_disjoint(pair: SubgroupPair) -> CheckOutcome:
    """Dependent if A and B share a non-identity element.

    Such an element x admits incompatible pairs outright (send x one way
    in A and another in B), so a nontrivial intersection is conclusive.
    """
    x = pair.shared_element
    if x is not None:
        return CheckOutcome(Verdict.DEPENDENT, MembershipWitness(x, REGION_A_AND_B))
    return _INCONCLUSIVE


def check_commuting(pair: SubgroupPair) -> CheckOutcome:
    """Independent if A and B intersect trivially and commute elementwise
    (their join is then an internal direct-ish product and every pair of
    endomorphisms extends); inconclusive otherwise.  A and B commute
    elementwise exactly when their generators do, so only generator pairs
    are tested."""
    if (all(a * b == b * a for a in pair.a.generators for b in pair.b.generators)
            and pair.shared_element is None):
        return CheckOutcome(Verdict.INDEPENDENT, CommutingWitness())
    return _INCONCLUSIVE


# The most (a, b) pairs check_order_divisibility scans up to degree 8:
# far above the 14,400 of the largest S5 pair, far below the 25M of two
# order-5040 sides.  Each pair costs O(degree), so past degree 8 the cap
# shrinks in proportion and the scan's work stays bounded.
ORDER_CHECK_PAIRS = 65_536


def check_order_divisibility(pair: SubgroupPair) -> CheckOutcome:
    """Dependent on the first non-commuting (a, b) where |a| or |b| fails
    to divide |ab|; any common extension would have to map ab to a power
    of itself compatible with both orders, which is impossible then.

    Only as many whole rows of A x B, in canonical order, as hold at
    most ORDER_CHECK_PAIRS * 8 // max(degree, 8) pairs are scanned; past
    them the check abstains.  It only ever proves dependence, so
    abstaining is sound."""
    bs = pair.b.elements[1:]
    cap = ORDER_CHECK_PAIRS * 8 // max(pair.degree, 8)
    orders: dict[Permutation, int] = {}  # each order computed once, when first needed
    for a in pair.a.elements[1:1 + cap // max(len(bs), 1)]:
        for b in bs:
            ab = a * b
            if ab == b * a:
                continue
            oa = orders.get(a) or orders.setdefault(a, a.order())
            ob = orders.get(b) or orders.setdefault(b, b.order())
            oab = orders.get(ab) or orders.setdefault(ab, ab.order())
            if oab % oa or oab % ob:
                return CheckOutcome(Verdict.DEPENDENT,
                                    OrderViolationWitness(a, b, ab, oa, ob, oab))
    return _INCONCLUSIVE


def _membership_check(sub: FiniteGroup, ncl: FiniteGroup, region: str) -> CheckOutcome:
    for x in sub.elements[1:]:
        if x in ncl:
            return CheckOutcome(Verdict.DEPENDENT, MembershipWitness(x, region))
    return _INCONCLUSIVE


def check_b_inside_ncl_a(pair: SubgroupPair) -> CheckOutcome:
    """Dependent if some non-identity element of B lies in the normal
    closure of A in the join (B fails to be A-separated)."""
    return _membership_check(pair.b, pair.ncl_a, REGION_B_IN_NCL_A)


def check_a_inside_ncl_b(pair: SubgroupPair) -> CheckOutcome:
    """Dependent if some non-identity element of A lies in the normal
    closure of B in the join (A fails to be B-separated)."""
    return _membership_check(pair.a, pair.ncl_b, REGION_A_IN_NCL_B)


def check_normal_asymmetry(pair: SubgroupPair) -> CheckOutcome:
    """Exactly one of A, B normal in the join proves dependence.  Both
    normal with A ∩ B = 1 proves independence with a CommutingWitness:
    [A, B] ≤ A ∩ B = 1, so A and B commute elementwise.  In the ladder
    Step2i decides that case first, so there this stage only ever proves
    dependence.

    Step3 subsumes this stage.  Let A be normal in J = ⟨A, B⟩ and B not.
    Then J = AB and B ≤ ⟨Conj(B)⟩ ≤ AB, so by Dedekind's law
    ⟨Conj(B)⟩ = (⟨Conj(B)⟩ ∩ A)B.  Were ⟨Conj(B)⟩ ∩ A = 1, B would be
    the normal subgroup ⟨Conj(B)⟩.  So A ∩ ⟨Conj(B)⟩ ≠ 1, and Step3ii
    fires; the mirror case gives Step3i."""
    j = pair.join
    na, nb = pair.a_normal, pair.b_normal
    if na != nb:
        normal_side = "A" if na else "B"
        loose = pair.b if na else pair.a
        for x in loose.elements[1:]:
            for t in j.generators:
                c = x.conjugated_by(t)
                if c not in loose:
                    return CheckOutcome(
                        Verdict.DEPENDENT,
                        NormalAsymmetryWitness(normal_side, x, t, c))
        raise AssertionError("non-normal subgroup with no moved generator conjugate")
    if na and pair.shared_element is None:
        return CheckOutcome(Verdict.INDEPENDENT, CommutingWitness())
    return _INCONCLUSIVE


def brute_force_independent(pair: SubgroupPair,
                            endo_budget: int = DEFAULT_ENDO_BUDGET,
                            use_shortcuts: bool = True) -> CheckOutcome:
    """The exhaustive decision: extend endomorphism pairs until one fails.

    Without use_shortcuts, every pair in End(A) x End(B), in canonical
    order: the definition.  With it, (alpha, id_B) for each alpha != id_A
    in End(A) order, then (id_A, beta) for each beta != id_B.  That
    suffices because extensions compose: if (alpha, beta) extends to gamma
    and (alpha', beta') to gamma', then (alpha alpha', beta beta') extends
    to gamma gamma', as alpha' maps A into A and beta' maps B into B; and
    (alpha, beta) = (alpha, id_B)(id_A, beta).  The scan uses no fact from
    the ladder, so it is sound on any pair.

    Dependent with the first pair that fails to extend, independent when
    all extend.  The details count the endomorphisms and the pairs
    extended.  Raises BudgetExceeded when the join or either endomorphism
    set is over its budget.
    """
    pair.join  # a join over max_group_order trips first
    endos_a = enumerate_endomorphisms(pair.a, endo_budget)
    endos_b = enumerate_endomorphisms(pair.b, endo_budget)
    if use_shortcuts:
        id_a = next(m for m in endos_a if m.is_identity())
        id_b = next(m for m in endos_b if m.is_identity())
        pairs = [(alpha, id_b) for alpha in endos_a if alpha is not id_a]
        pairs += [(id_a, beta) for beta in endos_b if beta is not id_b]
    else:
        pairs = product(endos_a, endos_b)
    counts = {"endo_a": len(endos_a), "endo_b": len(endos_b), "pairs_checked": 0}
    for alpha, beta in pairs:
        counts["pairs_checked"] += 1
        result = extend(alpha, beta, pair)
        if not result.exists:
            return CheckOutcome(Verdict.DEPENDENT,
                                IncompatiblePairWitness(alpha, beta, result.conflict), counts)
    return CheckOutcome(Verdict.INDEPENDENT, ExhaustiveWitness(counts["pairs_checked"]), counts)


def verify_factoring(pair: SubgroupPair) -> bool:
    """True iff join/<Conj(B)> is isomorphic to A and join/<Conj(A)> to B.

    B dies in join/<Conj(B)>, so that quotient is generated by the image
    of A: the projection maps A onto it, with kernel A ∩ <Conj(B)>.  The
    quotient is therefore isomorphic to A exactly when that kernel is
    trivial, that is when |join| = |A| * |<Conj(B)>|.  Likewise for B.
    """
    j = pair.join.order
    return j == pair.a.order * pair.ncl_b.order and j == pair.b.order * pair.ncl_a.order


def _is_endomorphism(m: GroupMap, g: FiniteGroup, gen_pos: tuple[int, ...]) -> bool:
    """Whether m's table has |g| entries in range and is the homomorphism
    that its images of g's generators determine."""
    images, n = m.images, g.order
    return (len(images) == n and all(0 <= y < n for y in images)
            and propagate_images(g, gen_pos, [images[i] for i in gen_pos])[0] == images)


def recheck_witness(pair: SubgroupPair, witness: object,
                    endo_budget: int = DEFAULT_ENDO_BUDGET) -> bool:
    """Re-establish a certificate from scratch against the pair: every
    field the witness carries must match what the pair gives.  The maps
    of an incompatible pair must each be an endomorphism of its side
    before their conflict is re-derived.  An exhaustive witness is
    re-established by a fresh scan under endo_budget, which must be
    independent with the pair count of the shortcut scan or of the full
    product scan, and fails when that scan trips the budget.  A
    BudgetWitness is no certificate, and raises TypeError like an
    unknown witness: a budget outcome is re-established only by running
    the pipeline again under the same Config."""
    if isinstance(witness, MembershipWitness):
        x = witness.element
        if x.is_identity():
            return False
        if witness.region == REGION_A_AND_B:
            return x in pair.a and x in pair.b
        if witness.region == REGION_B_IN_NCL_A:
            return x in pair.b and x in pair.ncl_a
        if witness.region == REGION_A_IN_NCL_B:
            return x in pair.a and x in pair.ncl_b
        return False
    if isinstance(witness, CommutingWitness):
        return (pair.shared_element is None
                and all(a * b == b * a for a in pair.a.generators for b in pair.b.generators))
    if isinstance(witness, OrderViolationWitness):
        a, b = witness.a, witness.b
        if a not in pair.a or b not in pair.b or a * b == b * a:
            return False
        ab = a * b
        oa, ob, oab = a.order(), b.order(), ab.order()
        return (witness.ab == ab
                and (witness.order_a, witness.order_b, witness.order_ab) == (oa, ob, oab)
                and (oab % oa != 0 or oab % ob != 0))
    if isinstance(witness, NormalAsymmetryWitness):
        j = pair.join
        na, nb = is_normal_in(pair.a, j), is_normal_in(pair.b, j)
        if na == nb:
            return False
        if witness.normal_side != ("A" if na else "B"):
            return False
        loose = pair.b if na else pair.a
        x, t = witness.moved_element, witness.conjugating_element
        if x not in loose or t not in j:
            return False
        moved = x.conjugated_by(t)
        return moved == witness.conjugate and moved not in loose
    if isinstance(witness, IncompatiblePairWitness):
        maps = (witness.alpha, witness.beta)
        if not all(map(_is_endomorphism, maps, (pair.a, pair.b), pair.generator_positions)):
            return False
        try:
            conflict = extend(*maps, pair).conflict
        except ValueError:  # maps of another pair's sides
            return False
        return conflict is not None and conflict == witness.conflict
    if isinstance(witness, ExhaustiveWitness):
        try:
            out = brute_force_independent(pair, endo_budget)
        except BudgetExceeded:
            return False
        # A shortcut scan extends |End A| + |End B| - 2 pairs, the full
        # product scan |End A| * |End B|; either count certifies.
        return (out.verdict is Verdict.INDEPENDENT
                and witness.pairs_checked in (out.witness.pairs_checked,
                                              out.details["endo_a"] * out.details["endo_b"]))
    raise TypeError(f"unknown witness type {type(witness).__name__}")
