import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import atlas_run, lattice_index
from oracles import (
    all_subgroups,
    check_homomorphism,
    conjugacy_class_ids,
    find_isomorphism,
    is_bijective,
    is_normal_reference,
    normal_subgroups_containing,
    quotient,
    semigroup_closure,
)
from subindep import groups
from subindep.groups import (
    BudgetExceeded,
    SubgroupPair,
    closure,
    identity_map,
    join,
    normal_closure,
    propagate_images,
    symmetric_group,
    trivial_map,
)
from subindep.homs import enumerate_endomorphisms
from subindep.perm import Permutation, cycle_string, parse_cycles


def P(text: str, degree: int) -> Permutation:
    return parse_cycles(text, degree)


def names(group) -> set[str]:
    return {cycle_string(x) for x in group.elements}


class TestClosure:
    def test_s3_from_standard_generators(self):
        g = closure([P("(1 2)", 3), P("(1 2 3)", 3)], 3)
        assert g.order == 6

    def test_factorial_orders(self):
        for n in range(1, 6):
            assert symmetric_group(n).order == math.factorial(n)

    def test_empty_generators_give_trivial_group(self):
        g = closure([], 4)
        assert g.order == 1 and g.identity == Permutation.identity(4)

    def test_degree_one(self):
        # A gather of one index yields the item, not a tuple.
        for g in (closure([], 1), closure([Permutation((0,))], 1), symmetric_group(1)):
            assert g.elements == ((0,),) and g.generators == ()
            assert g._col(0) == (0,)

    def test_columns_match_permutation_products(self):
        g = symmetric_group(4)
        for c, pc in enumerate(g.elements):
            assert g._col(c) == tuple(g.index_of(x * pc) for x in g.elements)

    def test_identity_is_element_zero(self):
        g = symmetric_group(4)
        assert g.elements[0].is_identity()
        assert g.index_of(g.identity) == 0

    def test_budget_raises(self):
        with pytest.raises(BudgetExceeded) as exc:
            closure([P("(1 2)", 5), P("(1 2 3 4 5)", 5)], 5, max_order=100)
        assert exc.value.budget == "max_group_order"
        assert exc.value.limit == 100

    def test_closure_is_idempotent(self):
        g = closure([P("(1 2 3 4)", 4)], 4)
        again = closure(list(g.elements), 4)
        assert again == g

    def test_matches_positive_word_closure(self):
        # Subgroup closure and products-only closure agree on finite
        # permutation groups; pins the membership semantics.
        gens = [P("(1 2)", 4), P("(2 3 4)", 4)]
        g = closure(gens, 4)
        assert set(g.elements) == set(semigroup_closure(gens, 4))


class TestJoinAndClosures:
    def test_join_of_order2_pair_is_dihedral_order_8(self):
        a = closure([P("(1 2)", 4)], 4)
        b = closure([P("(1 3)(2 4)", 4)], 4)
        j = join(a, b)
        assert j.order == 8
        assert names(j) == {"e", "(1 2)", "(3 4)", "(1 2)(3 4)",
                            "(1 3)(2 4)", "(1 4)(2 3)", "(1 3 2 4)", "(1 4 2 3)"}

    def test_normal_closure_of_transposition_in_s3(self):
        s3 = symmetric_group(3)
        sub = closure([P("(1 3)", 3)], 3)
        assert normal_closure(sub, s3).order == 6

    def test_normal_closures_of_the_order_8_join(self):
        a = closure([P("(1 2)", 4)], 4)
        b = closure([P("(1 3)(2 4)", 4)], 4)
        j = join(a, b)
        assert names(normal_closure(a, j)) == {"e", "(1 2)", "(3 4)", "(1 2)(3 4)"}
        assert names(normal_closure(b, j)) == {"e", "(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)"}

    def test_normal_closure_is_smallest_normal_overgroup(self):
        # Cross-checked against the full subgroup lattice.
        g = symmetric_group(4)
        lattice = all_subgroups(g)
        for gens in [["(1 2)"], ["(1 2 3)"], ["(1 2)(3 4)"], ["(1 2 3 4)"]]:
            sub = closure([P(s, 4) for s in gens], 4)
            ncl = normal_closure(sub, g)
            candidates = normal_subgroups_containing(sub.elements, g, lattice)
            assert frozenset(ncl.elements) == candidates[0]

    def test_normal_closure_recloses_at_most_log2_order_times(self):
        # A transposition's class in S5 has ten members; only conjugates
        # outside the current group join the generators and close it
        # again, and each of those at least doubles it.
        g = symmetric_group(5)
        sub = closure([P("(1 2)", 5)], 5)
        ncl = normal_closure(sub, g)
        assert ncl == g
        assert 0 < len(ncl.generators) - len(sub.generators) <= math.log2(g.order)
        assert ncl.generators[:len(sub.generators)] == sub.generators
        assert normal_closure(g, g) is g

    def test_normal_closure_is_normal_and_contains_subgroup(self):
        g = symmetric_group(4)
        sub = closure([P("(1 2 3)", 4)], 4)
        ncl = normal_closure(sub, g)
        assert sub.is_subgroup_of(ncl)
        assert is_normal_reference(ncl, g)

    def test_intersection_is_commutative_and_lagrange(self):
        a = closure([P("(1 2)", 4), P("(3 4)", 4)], 4)
        b = closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)], 4)
        meet = {x for x in a.elements if x in b}
        assert meet == {x for x in b.elements if x in a}
        assert {cycle_string(x) for x in meet} == {"e", "(1 2)(3 4)"}
        assert a.order % len(meet) == 0 and b.order % len(meet) == 0
        # The pair reads only the least non-identity element of the meet.
        assert SubgroupPair(a, b).shared_element == P("(1 2)(3 4)", 4)
        assert SubgroupPair(b, a).shared_element == P("(1 2)(3 4)", 4)

    def test_disjoint_cyclic_groups_meet_trivially(self):
        a = closure([P("(1 2)", 4), P("(3 4)", 4)], 4)
        b = closure([P("(1 2 3 4)", 4)], 4)
        assert SubgroupPair(a, b).shared_element is None

    def test_product_formula_when_one_side_is_normal(self):
        g = symmetric_group(4)
        v = closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)], 4)
        assert is_normal_reference(v, g)
        for gens in [["(1 2)"], ["(1 2 3)"], ["(1 2 3 4)"]]:
            h = closure([P(s, 4) for s in gens], 4)
            j = join(v, h)
            meet = [x for x in v.elements if x in h]
            assert j.order == v.order * h.order // len(meet)
            assert {x * y for x in v.elements for y in h.elements} == set(j.elements)


class TestNormality:
    """A subgroup is normal exactly when it is its own normal closure."""

    def test_alternating_group_is_normal(self):
        s3 = symmetric_group(3)
        a3 = closure([P("(1 2 3)", 3)], 3)
        assert is_normal_reference(a3, s3)
        assert normal_closure(a3, s3) is a3

    def test_point_stabilizer_transposition_is_not_normal(self):
        s3 = symmetric_group(3)
        c2 = closure([P("(1 2)", 3)], 3)
        assert not is_normal_reference(c2, s3)
        assert normal_closure(c2, s3) == s3

    def test_requires_containment(self):
        s3 = symmetric_group(3)
        outside = closure([P("(1 4)", 4)], 4)
        with pytest.raises(ValueError):
            normal_closure(outside, s3)


class TestConjugationTables:
    @pytest.mark.parametrize("degree, gens", [
        (4, None),
        (5, None),
        (5, ["(1 2 3)", "(3 4 5)"]),  # A5
        (4, ["(1 2 3 4)", "(1 3)"]),  # D4
    ])
    def test_every_conjugation_matches_conjugated_by(self, degree, gens):
        g = symmetric_group(degree) if gens is None else closure([P(s, degree) for s in gens], degree)
        tables = groups.conjugation_tables(g, range(g.order))
        assert tables == [[g.index_of(x.conjugated_by(t)) for x in g.elements] for t in g.elements]

    def test_no_inverse_list_without_a_conjugator(self, monkeypatch):
        # An abelian group's endomorphism search asks for no table, and
        # then builds no inverse list.
        inverted = []
        real = Permutation.inverse
        monkeypatch.setattr(Permutation, "inverse", lambda p: inverted.append(p) or real(p))
        g = symmetric_group(4)
        assert groups.conjugation_tables(g, []) == []
        assert inverted == [] and g._index is None
        c2c2 = closure([P("(1 2)", 4), P("(3 4)", 4)], 4)
        assert len(enumerate_endomorphisms(c2c2)) == 16
        assert inverted == []
        groups.conjugation_tables(g, [1])
        assert len(inverted) == g.order


def class_ids(group) -> dict:
    """The atlas's conjugacy class id of each element of group, as
    elements: the run numbers elements by their index in the symmetric
    group, its last subgroup."""
    run = atlas_run(group.degree)
    ids, count = run._classes(lattice_index(run, group))
    assert count == len(set(ids.values()))
    elements = run.subs[-1].elements
    return {elements[x]: elements[c] for x, c in ids.items()}


def class_sizes(group) -> list[int]:
    ids = list(class_ids(group).values())
    return sorted(ids.count(c) for c in set(ids))


class TestConjugacyClasses:
    def test_s3_class_sizes(self):
        assert class_sizes(symmetric_group(3)) == [1, 2, 3]

    def test_s4_class_sizes(self):
        assert class_sizes(symmetric_group(4)) == [1, 3, 6, 6, 8]

    def test_classes_partition_the_group(self):
        g = symmetric_group(4)
        ids = class_ids(g)
        assert sorted(ids) == list(g.elements)
        # Each class is named by its least element.
        assert all(ids[c] == c <= x for x, c in ids.items())
        assert len(set(ids.values())) == 5

    def test_same_class_matches_explicit_conjugation(self):
        g = symmetric_group(4)
        ids = class_ids(g)
        x, y = P("(1 2)", 4), P("(3 4)", 4)
        assert ids[x] == ids[y]
        assert any(x.conjugated_by(h) == y for h in g.elements)
        assert ids[x] != ids[P("(1 2)(3 4)", 4)]

    def test_abelian_groups_have_singleton_classes(self):
        c4 = closure([P("(1 2 3 4)", 4)], 4)
        assert class_sizes(c4) == [1, 1, 1, 1]


class TestQuotient:
    """The coset-action quotient oracle."""

    def test_s3_mod_a3(self):
        s3 = symmetric_group(3)
        a3 = closure([P("(1 2 3)", 3)], 3)
        q, project = quotient(s3, a3)
        assert q.order == 2
        assert {x for x in s3.elements if project(x).is_identity()} == set(a3.elements)

    def test_projection_is_a_homomorphism(self):
        g = symmetric_group(4)
        v = closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)], 4)
        q, project = quotient(g, v)
        assert q.order == 6
        for x in g.elements:
            assert project(x) in q
            for y in g.elements[:8]:
                assert project(x * y) == project(x) * project(y)

    def test_kernel_is_exactly_the_projected_identity(self):
        g = symmetric_group(4)
        v = closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)], 4)
        _, project = quotient(g, v)
        kernel = [x for x in g.elements if project(x).is_identity()]
        assert set(kernel) == set(v.elements)

    def test_s4_mod_klein_is_s3(self):
        g = symmetric_group(4)
        v = closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)], 4)
        iso = find_isomorphism(quotient(g, v)[0], symmetric_group(3))
        assert iso is not None and is_bijective(iso) and check_homomorphism(iso)

    def test_rejects_non_normal_kernel(self):
        s3 = symmetric_group(3)
        c2 = closure([P("(1 2)", 3)], 3)
        with pytest.raises(ValueError):
            quotient(s3, c2)


class TestPropagation:
    def test_identity_assignment_yields_identity_table(self):
        g = symmetric_group(3)
        gens = [g.index_of(x) for x in g.generators]
        table, conflict = propagate_images(g, gens, gens)
        assert conflict is None
        assert list(table) == list(range(g.order))

    def test_non_generating_set_is_rejected(self):
        g = symmetric_group(3)
        a3_gen = g.index_of(P("(1 2 3)", 3))
        with pytest.raises(ValueError):
            propagate_images(g, [a3_gen], [a3_gen])

    def test_inconsistent_images_report_a_conflict(self):
        # An involution cannot map to a 4-cycle: the relation g*g = e
        # forces two different images for the identity.
        s, c = P("(1 2)", 6), P("(3 4 5 6)", 6)
        g = closure([s, c], 6)
        gen = [g.index_of(s), g.index_of(c)]
        img = [g.index_of(c), g.index_of(c)]
        table, conflict = propagate_images(g, gen, img)
        assert table is None and conflict is not None

    def test_order_halving_image_is_a_valid_homomorphism(self):
        c4 = closure([P("(1 2 3 4)", 4)], 4)
        gen = [c4.index_of(P("(1 2 3 4)", 4))]
        img = [c4.index_of(P("(1 3)(2 4)", 4))]
        table, conflict = propagate_images(c4, gen, img)
        assert conflict is None
        squared = P("(1 3)(2 4)", 4)
        assert c4.elements[table[c4.index_of(P("(1 2 3 4)", 4))]] == squared


class TestGroupMap:
    def test_identity_and_trivial_maps(self):
        g = symmetric_group(3)
        ident = identity_map(g)
        triv = trivial_map(g)
        assert ident.is_identity() and not ident.is_trivial()
        assert triv.is_trivial() and not triv.is_identity()
        assert check_homomorphism(ident) and check_homomorphism(triv)
        assert is_bijective(ident) and not is_bijective(triv)

    def test_call_and_table_strings(self):
        g = closure([P("(1 2)", 3)], 3)
        ident = identity_map(g)
        assert ident(P("(1 2)", 3)) == P("(1 2)", 3)
        assert ident.table_strings() == {"e": "e", "(1 2)": "(1 2)"}


class TestIsomorphism:
    """The isomorphism-search oracle."""

    def test_distinguishes_c4_from_klein(self):
        c4 = closure([P("(1 2 3 4)", 4)], 4)
        v4 = closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)], 4)
        assert find_isomorphism(c4, v4) is None

    def test_order_mismatch_is_cheap_rejection(self):
        assert find_isomorphism(symmetric_group(3), symmetric_group(4)) is None

    def test_conjugate_subgroups_are_isomorphic(self):
        a = closure([P("(1 2)", 4)], 4)
        b = closure([P("(3 4)", 4)], 4)
        iso = find_isomorphism(a, b)
        assert iso is not None and is_bijective(iso) and check_homomorphism(iso)

    def test_dihedral_vs_abelian_of_order_8(self):
        d4 = join(closure([P("(1 2)", 4)], 4), closure([P("(1 3)(2 4)", 4)], 4))
        c2v = closure([P("(1 2)", 8), P("(3 4)", 8), P("(5 6)", 8)], 8)
        assert d4.order == c2v.order == 8
        assert find_isomorphism(d4, c2v) is None

    def test_self_isomorphism(self):
        g = symmetric_group(3)
        iso = find_isomorphism(g, g)
        assert iso is not None and check_homomorphism(iso)


class TestSubgroupPair:
    def test_lazy_orders_start_unset(self):
        pair = SubgroupPair(closure([P("(1 2)", 3)], 3), closure([P("(1 3)", 3)], 3))
        assert pair.computed_orders() == {"join_order": None, "ncl_a_order": None,
                                          "ncl_b_order": None}
        assert pair.join.order == 6
        assert pair.computed_orders()["join_order"] == 6

    def test_degree_and_caching(self):
        pair = SubgroupPair(closure([P("(1 2)", 4)], 4), closure([P("(1 3)(2 4)", 4)], 4))
        assert pair.degree == 4
        assert pair.join is pair.join
        assert pair.ncl_a.order == 4 and pair.ncl_b.order == 4
        assert pair.shared_element is None

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SubgroupPair(closure([P("(1 2)", 3)], 3), closure([P("(1 2)", 4)], 4))


class TestLattice:
    def test_lagrange_over_the_s4_lattice(self):
        g = symmetric_group(4)
        for sub in all_subgroups(g):
            assert g.order % sub.order == 0
            assert sub.is_subgroup_of(g)

    def test_s3_lattice_is_the_known_six(self):
        subs = all_subgroups(symmetric_group(3))
        assert [s.order for s in subs] == [1, 2, 2, 2, 3, 6]


@st.composite
def small_generator_sets(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    all_perms = list(symmetric_group(degree).elements)
    gens = draw(st.lists(st.sampled_from(all_perms), min_size=0, max_size=2))
    return degree, gens


class TestEngineProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_generator_sets())
    def test_closure_properties(self, case):
        degree, gens = case
        g = closure(gens, degree)
        assert math.factorial(degree) % g.order == 0
        assert all(x * y in g for x in g.generators for y in g.generators)
        assert all(x.inverse() in g for x in g.elements)

    @settings(max_examples=25, deadline=None)
    @given(small_generator_sets())
    def test_normal_closure_contains_and_is_normal(self, case):
        degree, gens = case
        ambient = symmetric_group(degree)
        sub = closure(gens, degree)
        ncl = normal_closure(sub, ambient)
        assert sub.is_subgroup_of(ncl)
        assert is_normal_reference(ncl, ambient)

    @settings(max_examples=40, deadline=None)
    @given(small_generator_sets())
    def test_element_index_matches_linear_scans(self, case):
        degree, gens = case
        g = closure(gens, degree)
        assert list(g.elements) == sorted(semigroup_closure(gens, degree))
        for i, x in enumerate(g.elements):
            assert g.index_of(x) == i
        for x in symmetric_group(degree).elements:
            member = any(x == y for y in g.elements)
            assert (x in g) == member
            if not member:
                with pytest.raises(KeyError):
                    g.index_of(x)
        other = Permutation.identity(degree + 1)
        assert other not in g
        with pytest.raises(KeyError):
            g.index_of(other)
        # The atlas's classes, by orbits under the generators, against
        # conjugation by every element.
        ids, expected = class_ids(g), conjugacy_class_ids(g)
        for x in g.elements:
            for y in g.elements:
                assert (ids[x] == ids[y]) == (expected[x] == expected[y])
