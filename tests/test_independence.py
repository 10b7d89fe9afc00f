import pytest

from conftest import (
    SHARED_POINT, ORDER_CLASH, SWAP_VS_DOUBLE, FAR_SWAPS, MERGE_PAIR, atlas_run, atlas_side, lattice_index,
    make_pair,
)
from oracles import (
    all_subgroups,
    check_union_independent_sets,
    first_conjugacy_merge,
    independent_by_global_search,
    is_independent_set,
    noncommuting_pairs,
)
from subindep import checks
from subindep.checks import (
    BudgetWitness,
    CommutingWitness,
    ExhaustiveWitness,
    IncompatiblePairWitness,
    MembershipWitness,
    OrderViolationWitness,
    Verdict,
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
from subindep.groups import (
    BudgetExceeded,
    GroupMap,
    SubgroupPair,
    closure,
    identity_map,
    join,
    symmetric_group,
)
from subindep.homs import ExtensionConflict, extend
from subindep.perm import Permutation, cycle_string, parse_cycles


def P(text: str, degree: int) -> Permutation:
    return parse_cycles(text, degree)


class TestAlmostDisjoint:
    def test_self_pair_is_dependent_with_shared_element(self):
        sub = closure([P("(1 2)", 3)], 3)
        out = check_almost_disjoint(SubgroupPair(sub, sub))
        assert out.verdict is Verdict.DEPENDENT
        assert type(out.witness) is MembershipWitness
        assert out.witness == MembershipWitness(P("(1 2)", 3), "a_and_b")

    def test_e1_pair_is_inconclusive(self):
        out = check_almost_disjoint(make_pair(*SHARED_POINT))
        assert out.verdict is Verdict.INCONCLUSIVE and out.witness is None

    def test_trivial_against_full_group(self):
        pair = make_pair(3, [], ["(1 2)", "(1 2 3)"])
        assert check_almost_disjoint(pair).verdict is Verdict.INCONCLUSIVE


class TestCommuting:
    def test_disjoint_transpositions_prove_independence(self):
        out = check_commuting(make_pair(4, ["(1 2)"], ["(3 4)"]))
        assert out.verdict is Verdict.INDEPENDENT
        assert isinstance(out.witness, CommutingWitness)

    def test_main_example_records_first_noncommuting_pair(self):
        out = check_commuting(make_pair(*SWAP_VS_DOUBLE))
        assert out.verdict is Verdict.INCONCLUSIVE

    def test_trivial_side_commutes_vacuously(self):
        out = check_commuting(make_pair(3, [], ["(1 2)", "(1 2 3)"]))
        assert out.verdict is Verdict.INDEPENDENT

    def test_commuting_with_shared_elements_stays_inconclusive(self):
        # Soundness guard: elementwise commuting alone must not prove
        # independence when the intersection is nontrivial.
        sub = closure([P("(1 2)", 3)], 3)
        out = check_commuting(SubgroupPair(sub, sub))
        assert out.verdict is Verdict.INCONCLUSIVE


class TestOrderDivisibility:
    def test_e2_witness_orders(self):
        out = check_order_divisibility(make_pair(*ORDER_CLASH))
        assert out.verdict is Verdict.DEPENDENT
        w = out.witness
        assert isinstance(w, OrderViolationWitness)
        assert (w.a, w.b) == (P("(1 2)", 3), P("(1 2 3)", 3))
        assert (w.order_a, w.order_b, w.order_ab) == (2, 3, 2)
        assert w.ab == P("(2 3)", 3)

    def test_main_example_divides_both_ways(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        assert check_order_divisibility(pair).verdict is Verdict.INCONCLUSIVE
        for a, b in noncommuting_pairs(pair):
            ab = a * b
            assert ab.order() % a.order() == 0 and ab.order() % b.order() == 0

    def test_transpositions_meeting_in_one_point(self):
        out = check_order_divisibility(make_pair(4, ["(1 3)"], ["(3 4)"]))
        assert out.verdict is Verdict.DEPENDENT
        assert out.witness.order_ab == 3

    def test_abstains_past_its_pair_cap(self, monkeypatch):
        # |B| - 1 = 2, so a cap of 2 pairs scans the one row of A and a
        # cap of 1 pair scans none.
        pair = make_pair(*ORDER_CLASH)
        monkeypatch.setattr(checks, "ORDER_CHECK_PAIRS", 2)
        assert check_order_divisibility(pair).verdict is Verdict.DEPENDENT
        monkeypatch.setattr(checks, "ORDER_CHECK_PAIRS", 1)
        assert check_order_divisibility(pair).verdict is Verdict.INCONCLUSIVE


class TestSeparated:
    def test_e1_a_side_fires_first(self):
        out = check_a_inside_ncl_b(make_pair(*SHARED_POINT))
        assert out.verdict is Verdict.DEPENDENT
        assert type(out.witness) is MembershipWitness
        assert out.witness == MembershipWitness(P("(1 2)", 3), "a_in_ncl_b")

    def test_e1_directional_checks(self):
        pair = make_pair(*SHARED_POINT)
        a_side = check_a_inside_ncl_b(pair)
        b_side = check_b_inside_ncl_a(pair)
        assert a_side.witness.element == P("(1 2)", 3)
        assert b_side.witness.element == P("(1 3)", 3)

    def test_main_example_is_separated_both_ways(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        assert check_a_inside_ncl_b(pair).verdict is Verdict.INCONCLUSIVE
        assert check_b_inside_ncl_a(pair).verdict is Verdict.INCONCLUSIVE

    def test_gap_example_is_separated_yet_dependent(self):
        pair = make_pair(*FAR_SWAPS)
        assert check_a_inside_ncl_b(pair).verdict is Verdict.INCONCLUSIVE
        assert check_b_inside_ncl_a(pair).verdict is Verdict.INCONCLUSIVE
        assert brute_force_independent(pair).verdict is Verdict.DEPENDENT


def merge_column(sub, join) -> str:
    """The atlas's merge column for sub as a side whose join is join."""
    run = atlas_run(sub.degree)
    return atlas_side(run, lattice_index(run, sub), lattice_index(run, join)).merge


class TestConjugacyMerge:
    def test_merge_example_on_side_a(self):
        pair = make_pair(*MERGE_PAIR)
        assert merge_column(pair.a, pair.join) == "dependent"
        assert set(first_conjugacy_merge(pair.a, pair.join)) == {P("(1 2)", 4), P("(3 4)", 4)}

    def test_main_example_has_no_merge(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        assert merge_column(pair.a, pair.join) == "inconclusive"
        assert merge_column(pair.b, pair.join) == "inconclusive"

    def test_trivial_side_is_vacuous(self):
        pair = make_pair(3, [], ["(1 2 3)"])
        assert merge_column(pair.a, pair.join) == "inconclusive"
        assert merge_column(pair.b, pair.join) == "inconclusive"


class TestNormalAsymmetry:
    def test_alternating_against_transposition(self):
        pair = make_pair(3, ["(1 2 3)"], ["(1 2)"])
        out = check_normal_asymmetry(pair)
        assert out.verdict is Verdict.DEPENDENT
        # A = A3 is normal in S3 and B = <(1 2)> is not, so A meets
        # <Conj(B)> = S3: Step3ii's certificate.
        w = out.witness
        assert isinstance(w, MembershipWitness)
        assert w.region == "a_in_ncl_b"
        assert recheck_witness(pair, w)
        assert out == check_a_inside_ncl_b(pair)

    def test_main_example_neither_normal(self):
        assert check_normal_asymmetry(make_pair(*SWAP_VS_DOUBLE)).verdict is Verdict.INCONCLUSIVE

    def test_both_normal_disjoint_proves_independent(self):
        # Both normal and disjoint: [A, B] lies in A ∩ B = 1, so A and B
        # commute elementwise, which Step2i also proves.
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        assert pair.a_normal and pair.b_normal and pair.shared_element is None
        out = check_normal_asymmetry(pair)
        assert out.verdict is Verdict.INDEPENDENT
        assert type(out.witness) is CommutingWitness
        assert recheck_witness(pair, out.witness)
        assert check_commuting(pair) == out

    def test_both_normal_with_shared_elements_stays_inconclusive(self):
        sub = closure([P("(1 2)", 3)], 3)
        assert check_normal_asymmetry(SubgroupPair(sub, sub)).verdict is Verdict.INCONCLUSIVE


class TestBruteForce:
    def test_e1_dependent(self):
        out = brute_force_independent(make_pair(*SHARED_POINT))
        assert out.verdict is Verdict.DEPENDENT
        assert isinstance(out.witness, IncompatiblePairWitness)

    def test_main_example_extends_two_pairs(self):
        # (triv, id_B) and (id_A, triv): one non-identity map a side.
        out = brute_force_independent(make_pair(*SWAP_VS_DOUBLE))
        assert out.verdict is Verdict.INDEPENDENT
        assert type(out.witness) is ExhaustiveWitness
        assert out.witness == ExhaustiveWitness(pairs_checked=2)
        assert out.details["endo_a"] == 2 and out.details["endo_b"] == 2

    def test_gap_example_first_witness_is_canonical(self):
        out = brute_force_independent(make_pair(*FAR_SWAPS))
        assert out.verdict is Verdict.DEPENDENT
        w = out.witness
        assert w.beta.is_identity()
        assert w.alpha(P("(5 6)", 6)) == P("(1 2)", 6)
        assert w.alpha(P("(1 2)", 6)).is_identity()
        assert cycle_string(w.conflict.element) == "(1 3)(2 4)(5 6)"

    def test_shortcuts_never_change_the_answer(self):
        # The sum scan against the product scan: the worked examples and
        # every ordered pair of subgroups of S4.
        subs = all_subgroups(symmetric_group(4))
        assert len(subs) == 30
        pairs = [make_pair(*spec) for spec in
                 (SHARED_POINT, ORDER_CLASH, SWAP_VS_DOUBLE, FAR_SWAPS, MERGE_PAIR)]
        pairs += [SubgroupPair(a, b) for a in subs for b in subs]
        for pair in pairs:
            fast = brute_force_independent(pair, use_shortcuts=True)
            slow = brute_force_independent(pair, use_shortcuts=False)
            assert fast.verdict == slow.verdict
            d = fast.details
            assert d["pairs_checked"] <= d["endo_a"] + d["endo_b"] - 2
            if fast.verdict is Verdict.DEPENDENT:
                assert recheck_witness(pair, fast.witness)
                assert recheck_witness(pair, slow.witness)
                assert fast.witness.alpha.is_identity() or fast.witness.beta.is_identity()

    def test_budget_trips_to_inconclusive(self):
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_independent(make_pair(*SWAP_VS_DOUBLE), endo_budget=1)
        assert exc.value.budget == "endo_budget"

    def test_matches_global_search_oracle_on_small_pairs(self):
        for spec in (SHARED_POINT, ORDER_CLASH, SWAP_VS_DOUBLE, (3, [], ["(1 2 3)"]), (4, ["(1 2)"], ["(3 4)"])):
            pair = make_pair(*spec)
            ours = brute_force_independent(pair).verdict is Verdict.INDEPENDENT
            assert ours == independent_by_global_search(pair.a, pair.b, pair.join)


class TestFactoring:
    def test_main_example_factors_both_ways(self):
        assert verify_factoring(make_pair(*SWAP_VS_DOUBLE))

    def test_e1_fails_on_the_a_side(self):
        assert not verify_factoring(make_pair(*SHARED_POINT))

    def test_trivial_pair(self):
        assert verify_factoring(make_pair(3, [], []))


class TestIndependentSets:
    def test_two_transpositions_are_independent(self):
        s3 = symmetric_group(3)
        assert is_independent_set([P("(1 2)", 3), P("(2 3)", 3)], s3)

    def test_sets_containing_identity_fail(self):
        s3 = symmetric_group(3)
        assert not is_independent_set([Permutation.identity(3)], s3)
        assert not is_independent_set([Permutation.identity(3), P("(1 2)", 3)], s3)

    def test_power_dependence(self):
        s3 = symmetric_group(3)
        assert not is_independent_set([P("(1 2 3)", 3), P("(1 3 2)", 3)], s3)

    def test_empty_set_is_independent(self):
        assert is_independent_set([], symmetric_group(3))

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            is_independent_set([P("(1 4)", 4)], symmetric_group(3))


class TestUnionOfIndependentSets:
    def test_commuting_pair_union(self):
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        assert check_union_independent_sets(pair, [P("(1 2)", 4)], [P("(3 4)", 4)])

    def test_empty_subset_is_vacuous(self):
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        assert check_union_independent_sets(pair, [], [P("(3 4)", 4)])

    def test_main_example_generators(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        assert check_union_independent_sets(pair, [P("(1 2)", 4)], [P("(1 3)(2 4)", 4)])

    def test_rejects_subsets_outside_the_groups(self):
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        with pytest.raises(ValueError):
            check_union_independent_sets(pair, [P("(1 3)", 4)], [])

    def test_rejects_dependent_inputs(self):
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        with pytest.raises(ValueError):
            check_union_independent_sets(pair, [Permutation.identity(4)], [])


class TestWitnessRecheck:
    def test_every_example_witness_rechecks(self):
        for spec, check in [
            (SHARED_POINT, check_a_inside_ncl_b),
            (ORDER_CLASH, check_order_divisibility),
            (MERGE_PAIR, check_order_divisibility),
            ((3, ["(1 2 3)"], ["(1 2)"]), check_normal_asymmetry),
            ((4, ["(1 2)"], ["(3 4)"]), check_commuting),
            (SWAP_VS_DOUBLE, brute_force_independent),
            (FAR_SWAPS, brute_force_independent),
        ]:
            pair = make_pair(*spec)
            out = check(pair)
            assert out.decided
            assert recheck_witness(pair, out.witness), (spec, out.witness)

    def test_membership_witness_must_match_region(self):
        pair = make_pair(*SHARED_POINT)
        assert recheck_witness(pair, MembershipWitness(P("(1 2)", 3), "a_in_ncl_b"))
        assert not recheck_witness(pair, MembershipWitness(P("(1 2)", 3), "a_and_b"))
        assert not recheck_witness(pair, MembershipWitness(Permutation.identity(3), "a_in_ncl_b"))

    def test_tampered_witnesses_fail(self):
        pair = make_pair(*ORDER_CLASH)
        w = check_order_divisibility(pair).witness
        tampered = OrderViolationWitness(w.a, w.b, w.ab * w.ab, w.order_a,
                                         w.order_b, w.order_ab)
        assert not recheck_witness(pair, tampered)
        commuting_claim = CommutingWitness()
        assert not recheck_witness(pair, commuting_claim)

    def test_order_violation_orders_must_match(self):
        pair = make_pair(*ORDER_CLASH)
        w = check_order_divisibility(pair).witness
        assert recheck_witness(pair, w)
        assert not recheck_witness(pair, w._replace(order_ab=w.order_ab + 5))
        assert not recheck_witness(pair, w._replace(order_a=w.order_b))

    def test_incompatible_pair_conflict_must_match(self):
        pair = make_pair(*SHARED_POINT)
        w = brute_force_independent(pair).witness
        assert isinstance(w, IncompatiblePairWitness) and recheck_witness(pair, w)
        e = Permutation.identity(3)
        assert not recheck_witness(pair, w._replace(conflict=ExtensionConflict(e, e, e)))

    def test_incompatible_pair_maps_must_be_endomorphisms(self):
        # Step2i decides this pair independent.  The forged alpha sends
        # the identity to (1 2), so it is no endomorphism, though
        # extending it with id_B does conflict at the identity.
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        e = Permutation.identity(4)
        forged, beta = GroupMap(pair.a, (1, 0)), identity_map(pair.b)
        conflict = extend(forged, beta, pair).conflict
        assert conflict == ExtensionConflict(e, e, P("(1 2)", 4))
        assert not recheck_witness(pair, IncompatiblePairWitness(forged, beta, conflict))
        alpha, forged = identity_map(pair.a), GroupMap(pair.b, (1, 0))
        mirror = extend(alpha, forged, pair).conflict
        assert mirror is not None
        assert not recheck_witness(pair, IncompatiblePairWitness(alpha, forged, mirror))

    @pytest.mark.parametrize("images", [(0,), (0, 1, 0), (0, 2), (0, -1)])
    def test_incompatible_pair_table_out_of_shape_fails(self, images):
        # A table of the wrong length or with an index outside the side
        # is refused, not indexed.
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        e = Permutation.identity(4)
        w = IncompatiblePairWitness(GroupMap(pair.a, images), identity_map(pair.b),
                                    ExtensionConflict(e, e, P("(1 2)", 4)))
        assert recheck_witness(pair, w) is False

    def test_exhaustive_pair_count_must_match(self):
        # The scan on this pair extends (triv, id_B) and (id_A, triv).
        pair = make_pair(5, ["(1 2)"], ["(3 4)(5 1)"])
        assert brute_force_independent(pair).witness == ExhaustiveWitness(2)
        assert recheck_witness(pair, ExhaustiveWitness(2))
        for count in (999, -1, 1, 3):
            assert not recheck_witness(pair, ExhaustiveWitness(count))

    @pytest.mark.parametrize("spec", [
        (5, ["(1 2)"], ["(3 4)(5 1)"]),
        (6, ["(1 2)"], ["(3 4 5 6)", "(3 4)"]),  # C2 x S4: join of order 48
    ])
    def test_full_scan_witness_rechecks(self, spec):
        # The full product scan extends |End A| * |End B| pairs, not the
        # shortcut scan's |End A| + |End B| - 2; its count certifies too.
        pair = make_pair(*spec)
        out = brute_force_independent(pair, use_shortcuts=False)
        assert out.verdict is Verdict.INDEPENDENT
        assert out.witness.pairs_checked == out.details["endo_a"] * out.details["endo_b"]
        assert recheck_witness(pair, out.witness)
        assert not recheck_witness(pair, ExhaustiveWitness(out.witness.pairs_checked + 1))

    def test_incompatible_pair_of_another_pair_fails(self):
        # FAR_SWAPS's maps live on its own sides, which this pair's A does
        # not equal: the witness does not fit, and the recheck says so.
        w = brute_force_independent(make_pair(*FAR_SWAPS)).witness
        assert isinstance(w, IncompatiblePairWitness)
        assert not recheck_witness(make_pair(6, ["(1 2)"], ["(1 3)(2 4)"]), w)

    def test_unknown_witness_type_raises(self):
        with pytest.raises(TypeError):
            recheck_witness(make_pair(*SHARED_POINT), object())

    def test_budget_witness_is_no_certificate(self):
        # A budget outcome is re-established only by re-running the
        # pipeline under the same Config, never by a recheck.
        with pytest.raises(TypeError):
            recheck_witness(make_pair(*SHARED_POINT), BudgetWitness("nonsense", -1, ""))
