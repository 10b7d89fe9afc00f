import csv
import hashlib
import io
import json
import random
import sys
from collections import Counter
from itertools import combinations
from typing import get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from conftest import atlas_run, pair_from_row
from oracles import (
    all_subgroups,
    check_union_independent_sets,
    endomorphism_tables_by_candidates,
    endomorphisms_by_products,
    find_isomorphism,
    first_conjugacy_merge,
    independent_by_global_search,
    independent_by_product_scan,
    pair_orbit_representatives,
    quotient,
    subgroups_from_all_pairs,
    summary_by_rows,
)
from subindep import atlas, checks, groups, pipeline
from subindep.atlas import (
    ATLAS_FIELDS,
    AtlasRow,
    classify_all_pairs,
    enumerate_subgroups,
    render_report,
)
from subindep.checks import (
    brute_force_independent,
    check_a_inside_ncl_b,
    check_b_inside_ncl_a,
    check_normal_asymmetry,
    verify_factoring,
)
from subindep.groups import (
    SubgroupPair,
    closure,
    identity_map,
    symmetric_group,
    trivial_map,
)
from subindep.perm import parse_cycles
from subindep.homs import enumerate_endomorphisms, extend
from subindep.pipeline import Step


@pytest.fixture(scope="module")
def s5_subgroups():
    return atlas_run(5).subs


@pytest.fixture(scope="module")
def s5_atlas():
    return classify_all_pairs(5)


class TestSubgroupEnumeration:
    def test_s3_lattice_complete(self):
        subs = atlas_run(3).subs
        assert [h.order for h in subs] == [1, 2, 2, 2, 3, 6]
        brute = all_subgroups(symmetric_group(3))
        assert [h.elements for h in subs] == [h.elements for h in brute]

    def test_s4_lattice_complete(self):
        subs = atlas_run(4).subs
        assert len(subs) == 30
        brute = all_subgroups(symmetric_group(4))
        assert [h.elements for h in subs] == [h.elements for h in brute]

    def test_s5_has_156_subgroups(self, s5_subgroups):
        # Past the brute-force lattice's reach, so pin the count (OEIS
        # A005432) and the number of subgroups of each order.
        subs = s5_subgroups
        assert len(subs) == 156
        counts = {}
        for h in subs:
            counts[h.order] = counts.get(h.order, 0) + 1
        assert counts == {1: 1, 2: 25, 3: 10, 4: 35, 5: 6, 6: 30, 8: 15, 10: 6,
                          12: 15, 20: 6, 24: 5, 60: 1, 120: 1}

    def test_s5_endomorphisms_fit_the_default_budget(self, s5_subgroups):
        # Why the atlas has no budget knobs: no S5 row can trip one.  The
        # search up to conjugation finds exactly the maps of the
        # per-candidate search.
        for sub in s5_subgroups:
            found = [m.images for m in enumerate_endomorphisms(sub)]
            assert found == endomorphism_tables_by_candidates(sub), sub

    def test_trivial_group(self):
        s1 = symmetric_group(1)
        assert enumerate_subgroups(s1) == ([(0,)], [()])
        assert len(atlas._AtlasRun(s1).subs) == 1

    def test_skips_keep_elements_and_generators(self, s5_subgroups):
        # The report's a_gens/b_gens come from these generators, so the
        # skipped pairs must not change which set reaches a group first.
        for degree in (2, 3, 4, 5):
            group = symmetric_group(degree)
            subs = s5_subgroups if degree == 5 else atlas_run(degree).subs
            plain = subgroups_from_all_pairs(group)
            assert [h.elements for h in subs] == [h.elements for h in plain], degree
            assert [h.generators for h in subs] == [h.generators for h in plain], degree

    def test_each_pair_of_cyclic_subgroups_closed_once(self, monkeypatch):
        closed = []
        real = atlas._orbit

        def recording(start, maps):
            # Each closure is the orbit of the identity under the
            # generators' columns, and a column's entry 0 is e * x = x.
            assert start == 0
            closed.append([m[0] for m in maps])
            return real(start, maps)

        monkeypatch.setattr(atlas, "_orbit", recording)
        group = symmetric_group(4)
        assert len(enumerate_subgroups(group)[0]) == 30
        # The trivial group needs no closure: the 23 non-identity elements
        # come first, then pairs only.
        assert closed[:23] == [[x] for x in range(1, 24)]
        pairs = [tuple(group.elements[i] for i in g) for g in closed[23:]]
        assert all(len(g) == 2 for g in pairs)
        cyclic = {x: closure([x], 4).elements for x in group.elements[1:]}
        assert not any(y in cyclic[x] or x in cyclic[y] for x, y in pairs)
        keys = [frozenset((cyclic[x], cyclic[y])) for x, y in pairs]
        assert len(keys) == len(set(keys)) < 253
        # The pair closed for two cyclic subgroups is their least
        # generators, and the pairs come in ascending order.
        least = {}
        for x in group.elements[1:]:
            least.setdefault(cyclic[x], x)
        assert len(least) == 16
        assert pairs == [(x, y) for x, y in combinations(least.values(), 2)
                         if not (y in cyclic[x] or x in cyclic[y])]
        assert len(pairs) == 117

    def test_subgroups_hold_the_ambient_elements(self):
        # Each subgroup's elements are gathered from the ambient group, not
        # rebuilt; the trivial group too, through its one-index case.
        for degree in (1, 2, 4):
            group = symmetric_group(degree)
            ambient = {id(x) for x in group.elements}
            for sub in atlas._AtlasRun(group).subs:
                assert type(sub.elements) is tuple
                assert all(id(x) in ambient for x in sub.elements + sub.generators)
                assert sub.elements == closure(sub.generators, degree).elements

    def test_run_numbers_elements_on_the_group_alone(self, monkeypatch):
        # The run builds the lattice on the group's own index and columns:
        # no subgroup, not even the last one (the whole group again), is
        # indexed while the lattice and its orbits are built.
        indexed = []
        real = groups.FiniteGroup._image_index

        def recording(self):
            indexed.append(self)
            return real(self)

        expected = atlas_run(4).orbits()
        monkeypatch.setattr(groups.FiniteGroup, "_image_index", recording)
        group = symmetric_group(4)
        rep = atlas._AtlasRun(group).orbits()
        assert indexed and all(g is group for g in indexed)
        assert rep == expected


class TestDegree3Atlas:
    def test_row_count_and_verdict_split(self, s3_atlas):
        rows, summary = s3_atlas
        assert len(rows) == 36
        assert summary["verdicts"] == {"Independent": 11, "Dependent": 25,
                                       "Inconclusive": 0}

    def test_first_worked_example_row(self, s3_atlas):
        rows, _ = s3_atlas
        row = next(r for r in rows if r.a_gens == "(1 2)" and r.b_gens == "(1 3)")
        assert row.pipeline_status == "Dependent"
        assert row.oracle == "dependent"
        assert row.order_join == 6

    def test_trivial_side_always_independent(self, s3_atlas):
        rows, _ = s3_atlas
        trivial_rows = [r for r in rows if r.a_gens == "e"]
        assert len(trivial_rows) == 6
        assert all(r.pipeline_status == "Independent" for r in trivial_rows)

    def test_no_disagreements_or_asymmetries(self, s3_atlas):
        _, summary = s3_atlas
        assert summary["oracle_disagreements"] == []
        assert summary["symmetry_violations"] == []
        assert summary["budget_trips"] == []

    def test_deciding_steps(self, s3_atlas):
        _, summary = s3_atlas
        assert summary["deciding_steps"] == {"Step1": 13, "Step2i": 11,
                                             "Step2ii": 12}


class TestDegree4Atlas:
    def test_row_count_and_verdict_split(self, s4_atlas):
        rows, summary = s4_atlas
        assert len(rows) == 900
        assert summary["verdicts"] == {"Independent": 107, "Dependent": 793,
                                       "Inconclusive": 0}

    def test_no_disagreements_or_asymmetries(self, s4_atlas):
        _, summary = s4_atlas
        assert summary["oracle_disagreements"] == []
        assert summary["symmetry_violations"] == []
        assert summary["budget_trips"] == []

    def test_main_example_row(self, s4_atlas):
        rows, _ = s4_atlas
        row = next(r for r in rows
                   if r.a_gens == "(1 2)" and r.b_gens == "(1 3)(2 4)")
        assert row.pipeline_status == "Independent"
        assert row.pipeline_step == "Step4"
        assert row.oracle == "independent"
        assert row.order_join == 8
        assert row.both_normal is False
        assert row.separated_both is True
        # Separated with entangled closures: the zone neither the
        # necessary nor the sufficient criterion settles.
        assert row.gap_region is True

    def test_every_deciding_step_is_a_pipeline_stage(self, s4_atlas):
        _, summary = s4_atlas
        assert set(summary["deciding_steps"]) == {"Step1", "Step2i", "Step2ii",
                                                  "NormalAsym", "Step4"}
        assert set(summary["deciding_steps"]) <= {s.value for s in Step}
        assert sum(summary["deciding_steps"].values()) == 900

    def test_atlas_calls_neither_normal_closure_nor_is_normal_in(self, monkeypatch):
        # The run looks normal closures and normality up in its lattice
        # (TestNormalClosureLookup checks it against both functions).
        assert not hasattr(atlas, "normal_closure") and not hasattr(atlas, "is_normal_in")
        calls = []
        for name in ("normal_closure", "is_normal_in"):
            real = getattr(groups, name)

            def spy(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            # Every module that binds the name, so a direct call is counted too.
            for mod in list(sys.modules.values()):
                if mod is not None and mod.__name__.startswith("subindep") \
                        and getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, spy)
        rows, _ = classify_all_pairs(4)
        assert len(rows) == 900
        assert calls == []
        # The spies do count: a pair outside the atlas closes and tests.
        pair = pair_from_row(rows[1], 4)
        fresh = SubgroupPair(pair.a, pair.b)
        assert pair.a.is_subgroup_of(fresh.ncl_a) and isinstance(fresh.a_normal, bool)
        assert calls == ["normal_closure", "is_normal_in"]

    def test_filled_normality_matches_a_fresh_pair(self):
        run = atlas_run(4)
        subs = run.subs
        for i, a in enumerate(subs):
            for j, b in enumerate(subs):
                filled = SubgroupPair(a, b)
                run.fill(filled, i, j)
                fresh = SubgroupPair(a, b)
                assert (filled.a_normal, filled.b_normal) == \
                    (groups.is_normal_in(a, fresh.join), groups.is_normal_in(b, fresh.join)), (i, j)

    def test_filled_orders_match_a_fresh_pair(self, monkeypatch):
        # fill assigns the join and both normal closures by name: the
        # pair reports their orders without closing anything itself.
        run = atlas_run(4)
        calls = []
        for name in ("closure", "normal_closure"):
            real = getattr(groups, name)

            def spy(*args, name=name, real=real, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(groups, name, spy)
        for i, a in enumerate(run.subs):
            for j, b in enumerate(run.subs):
                filled = SubgroupPair(a, b)
                run.fill(filled, i, j)
                orders = filled.computed_orders()
                assert calls == [], (i, j)
                fresh = SubgroupPair(a, b)
                fresh.ncl_a, fresh.ncl_b
                assert calls, (i, j)
                calls.clear()
                assert orders == fresh.computed_orders(), (i, j)

    def test_normal_asymmetry_is_subsumed_by_separation(self, s4_atlas, s5_atlas):
        # Why NormalAsym can go: with A normal in the join and B not,
        # A ∩ <Conj(B)> is not trivial (see check_normal_asymmetry), so
        # the mirror Step3 column is dependent too.
        for degree, (rows, _), count in ((4, s4_atlas, 240), (5, s5_atlas, 2832)):
            run = atlas_run(degree)
            asymmetric = [r for r in rows if r.normal_asymmetry == "dependent"]
            assert len(asymmetric) == count, degree
            for r in asymmetric:
                k = run._join(r.a_index, r.b_index)
                a_normal = run._side(r.a_index, k)[1]
                assert a_normal != run._side(r.b_index, k)[1], r.pair_id
                step3 = r.a_in_ncl_b if a_normal else r.b_in_ncl_a
                assert step3 == "dependent", r.pair_id

    def test_merge_checks_are_subsumed_by_separation(self, s4_atlas):
        # Why the conjugacy-merge checks are atlas columns, not stages: a
        # merge inside A means A is not B-separated (and mirror for B).
        rows, _ = s4_atlas
        merged = 0
        for r in rows:
            if r.merge_a == "dependent":
                merged += 1
                assert r.a_in_ncl_b == "dependent", r.pair_id
            if r.merge_b == "dependent":
                merged += 1
                assert r.b_in_ncl_a == "dependent", r.pair_id
        assert merged > 0

    def test_gap_region_counted(self, s4_atlas):
        rows, summary = s4_atlas
        flagged = [r for r in rows if r.gap_region]
        assert summary["gap_region_count"] == len(flagged) == 24
        # Gap rows are exactly the separated pairs with entangled closures.
        for r in flagged:
            assert r.separated_both and not r.ncl_intersection_trivial


class TestNormalClosureLookup:
    """The run looks each side's normal closure in its join up in the
    lattice, and reads normality off it; groups.normal_closure closes
    conjugates and groups.is_normal_in conjugates generators.  They must
    agree on every (side, join) pair of the lattice."""

    @staticmethod
    def _assert_lookup(run):
        subs = run.subs
        checked = normal = 0
        for k, join in enumerate(subs):
            for i, sub in enumerate(subs):
                if not sub.is_subgroup_of(join):
                    continue
                ncl, is_normal = run._side(i, k)[:2]
                assert ncl.elements == groups.normal_closure(sub, join).elements, (i, k)
                assert is_normal == groups.is_normal_in(sub, join), (i, k)
                checked += 1
                normal += is_normal
        # Both answers occur, and the closure is often a larger group.
        assert 0 < normal < checked
        return checked

    def test_every_s4_lattice_pair(self):
        assert self._assert_lookup(atlas_run(4)) == 150

    def test_every_s5_lattice_pair(self):
        assert self._assert_lookup(atlas_run(5)) == 1245


class TestMergeByClassCounts:
    """The merge columns decide by counting conjugacy classes; the plain
    pairwise scan must give the same verdict on every (side, join) pair
    of the lattice."""

    @staticmethod
    def _assert_scan(run):
        subs = run.subs
        merged = 0
        for k, join in enumerate(subs):
            for i, sub in enumerate(subs):
                if not sub.is_subgroup_of(join):
                    continue
                dependent = first_conjugacy_merge(sub, join) is not None
                assert run._side(i, k)[2] == ("dependent" if dependent else "inconclusive"), (sub, join)
                merged += dependent
        return merged

    def test_every_s4_lattice_pair(self):
        assert self._assert_scan(atlas_run(4)) > 0

    def test_every_s5_lattice_pair(self):
        assert self._assert_scan(atlas_run(5)) > 0


class TestProductScanOracle:
    """The oracle column counts S, the endomorphisms of the join that map
    each side into itself.  On every orbit representative, the rows the
    atlas actually classifies, it must agree with the definitional
    product scan of tests/oracles.py, which shares no code with Step4,
    and with brute_force_independent without shortcuts; and S can never
    outnumber End(A) x End(B), into which restriction embeds it."""

    @staticmethod
    def _assert_agrees(rows, run):
        subs = run.subs
        rep = run.orbits()
        n = len(subs)
        checked = 0
        for r in rows:
            i, j = r.a_index, r.b_index
            k = i * n + j
            if rep[k] != k:
                continue
            pair = SubgroupPair(subs[i], subs[j])
            assert independent_by_product_scan(pair) == (r.oracle == "independent"), r.pair_id
            scan = brute_force_independent(pair, use_shortcuts=False)
            assert r.oracle == scan.verdict.value, r.pair_id
            join = run._join(i, j)
            kept = (run._side(i, join)[3] & run._side(j, join)[3]).bit_count()
            assert kept <= scan.details["endo_a"] * scan.details["endo_b"], r.pair_id
            # Every endomorphism of the join maps the join into itself.
            assert run._side(join, join)[3] == (1 << len(enumerate_endomorphisms(subs[join]))) - 1
            checked += 1
        return checked

    def test_every_s4_representative(self, s4_atlas):
        rows, _ = s4_atlas
        assert self._assert_agrees(rows, atlas_run(4)) == 155

    def test_every_s5_representative(self, s5_atlas):
        rows, _ = s5_atlas
        assert self._assert_agrees(rows, atlas_run(5)) == 679

    def test_each_s4_mask_counts_the_maps_keeping_its_side(self):
        # Against the endomorphisms tests/oracles.py builds from
        # Permutation products, on every (side, join) pair of the lattice.
        run = atlas_run(4)
        subs = run.subs
        for k, join in enumerate(subs):
            endos = endomorphisms_by_products(join)
            for i, sub in enumerate(subs):
                if sub.is_subgroup_of(join):
                    keeping = sum(all(phi[g] in sub for g in sub.generators) for phi in endos)
                    assert run._side(i, k)[3].bit_count() == keeping, (sub, join)


def nonidentity(group):
    return [g for g in group.elements if not g.is_identity()]


class TestTheoremSuite:
    """Structural laws checked over every degree-4 atlas row."""

    def test_independent_rows_are_separated(self, s4_atlas):
        rows, _ = s4_atlas
        for r in rows:
            if r.pipeline_status == "Independent":
                assert r.separated_both, r.pair_id

    def test_separatedness_matches_one_sided_extension(self, s4_atlas):
        # A is B-separated exactly when (identity on A, collapse of B)
        # extends to the join, and symmetrically.
        rows, _ = s4_atlas
        for r in rows:
            pair = pair_from_row(r, 4)
            sep_a = extend(identity_map(pair.a), trivial_map(pair.b), pair).exists
            sep_b = extend(trivial_map(pair.a), identity_map(pair.b), pair).exists
            assert (sep_a and sep_b) == r.separated_both, r.pair_id

    def test_both_normal_disjoint_rows_independent(self, s4_atlas):
        rows, _ = s4_atlas
        hit = 0
        for r in rows:
            if r.both_normal and r.almost_disjoint == "inconclusive":
                assert r.oracle == "independent", r.pair_id
                # [A, B] lies in A ∩ B = 1, so Step2i decides first; the
                # NormalAsym check proves independence too.
                assert r.pipeline_step == "Step2i", r.pair_id
                assert r.normal_asymmetry == "independent", r.pair_id
                hit += 1
        assert hit > 0

    def test_normal_asymmetry_cell_is_the_check(self, s4_atlas, s5_atlas):
        # The atlas writes no ladder column itself: on every orbit
        # representative the cell is the check's verdict on the pair the
        # run filled.
        for degree, (rows, _) in ((4, s4_atlas), (5, s5_atlas)):
            run = atlas_run(degree)
            reps = [rows[k] for k, rep in enumerate(run.orbits()) if rep == k]
            assert len(reps) == {4: 155, 5: 679}[degree]
            for r in reps:
                pair = SubgroupPair(run.subs[r.a_index], run.subs[r.b_index])
                run.fill(pair, r.a_index, r.b_index)
                verdict = check_normal_asymmetry(pair).verdict.value
                assert r.normal_asymmetry == verdict, r.pair_id

    def test_normal_asymmetry_rows_dependent(self, s4_atlas):
        rows, _ = s4_atlas
        hit = 0
        for r in rows:
            if r.normal_asymmetry == "dependent":
                assert r.oracle == "dependent", r.pair_id
                hit += 1
        assert hit > 0

    def test_factoring_isomorphism_iff_separated(self, s4_atlas):
        # join/ncl(B) recovers A exactly on the B-separated side, and the
        # order identity in verify_factoring agrees with an explicit
        # quotient and isomorphism search on every ordered pair.
        rows, _ = s4_atlas
        for r in rows:
            pair = pair_from_row(r, 4)
            join = pair.join
            sep_a = not check_a_inside_ncl_b(pair).decided
            sep_b = not check_b_inside_ncl_a(pair).decided
            iso_a = find_isomorphism(quotient(join, pair.ncl_b)[0], pair.a) is not None
            iso_b = find_isomorphism(quotient(join, pair.ncl_a)[0], pair.b) is not None
            assert iso_a == sep_a and iso_b == sep_b, r.pair_id
            assert verify_factoring(pair) == (iso_a and iso_b), r.pair_id

    def test_trivial_closure_meet_forces_independence(self, s4_atlas):
        rows, _ = s4_atlas
        hit = 0
        for r in rows:
            if r.ncl_intersection_trivial:
                assert r.pipeline_status == "Independent", r.pair_id
                hit += 1
        assert hit > 0

    def test_gap_region_nonempty_in_wider_ambient(self):
        # Separated both ways yet dependent: needs degree 6.
        deg = 6
        a = closure([parse_cycles(s, deg) for s in ("(1 2)", "(5 6)")], deg)
        b = closure([parse_cycles("(1 3)(2 4)", deg)], deg)
        pair = SubgroupPair(a, b)
        assert not check_a_inside_ncl_b(pair).decided
        assert not check_b_inside_ncl_a(pair).decided
        assert not independent_by_global_search(a, b, pair.join)

    def test_separated_products_stay_in_join(self, s4_atlas):
        # For a separated pair, any word alternating A and B letters whose
        # sides both multiply to the identity must itself be trivial under
        # every extension, and in particular the word's sides collapse
        # consistently: projecting to join/ncl(B) kills the B letters, so
        # the A letters alone determine the coset.
        rows, _ = s4_atlas
        import random
        rng = random.Random(7)
        sampled = [r for r in rows
                   if r.separated_both and r.order_a > 1 and r.order_b > 1]
        for r in rng.sample(sampled, min(10, len(sampled))):
            pair = pair_from_row(r, 4)
            join = pair.join
            _, project = quotient(join, pair.ncl_b)
            for _ in range(6):
                a_word = [rng.choice(pair.a.elements) for _ in range(3)]
                b_word = [rng.choice(pair.b.elements) for _ in range(3)]
                prod = join.identity
                for x, y in zip(a_word, b_word):
                    prod = prod * x * y
                a_only = join.identity
                for x in a_word:
                    a_only = a_only * x
                assert project(prod) == project(a_only)

    def test_unions_of_independent_sets(self, s4_atlas):
        rows, _ = s4_atlas
        checked = 0
        for r in rows:
            if r.pipeline_status != "Independent" or min(r.order_a, r.order_b) < 2:
                continue
            pair = pair_from_row(r, 4)
            xs = frozenset(nonidentity(pair.a)[:1])
            ys = frozenset(nonidentity(pair.b)[:1])
            assert check_union_independent_sets(pair, xs, ys), r.pair_id
            checked += 1
            if checked >= 5:
                break
        assert checked == 5

    def test_heredity_under_both_normal_disjointness(self, s4_atlas):
        # Independence by the two-normal criterion survives passing to
        # subgroups, since subgroups still commute elementwise.
        rows, _ = s4_atlas
        done = 0
        for r in rows:
            if not (r.both_normal and r.almost_disjoint == "inconclusive"):
                continue
            if r.order_a < 2 or r.order_b < 2:
                continue
            pair = pair_from_row(r, 4)
            sub_a = closure([nonidentity(pair.a)[0]], 4)
            sub_b = closure([nonidentity(pair.b)[0]], 4)
            sub_pair = SubgroupPair(sub_a, sub_b)
            assert independent_by_global_search(sub_a, sub_b, sub_pair.join)
            done += 1
            if done >= 3:
                break
        assert done == 3


class TestIsomorphicReplacement:
    """Isomorphic replacement flips the verdict: independence is not an
    isomorphism invariant of the two sides alone."""

    def test_verdict_flip_located_in_atlas(self, s4_atlas):
        rows, _ = s4_atlas
        good = next(r for r in rows
                    if r.a_gens == "(1 2)" and r.b_gens == "(3 4)")
        bad = next(r for r in rows
                   if r.a_gens == "(1 3)" and r.b_gens == "(3 4)")
        assert good.pipeline_status == "Independent"
        assert bad.pipeline_status == "Dependent"
        pair_good = pair_from_row(good, 4)
        pair_bad = pair_from_row(bad, 4)
        assert find_isomorphism(pair_good.a, pair_bad.a) is not None
        assert pair_good.b.elements == pair_bad.b.elements


class TestOrbitExpansion:
    """Rows copied from an orbit representative must equal the rows a
    direct classification of their own pair gives."""

    ORBITS = {2: 4, 3: 17, 4: 155, 5: 679}

    @staticmethod
    def _orbits(degree):
        run = atlas_run(degree)
        return run.subs, run.orbits()

    @staticmethod
    def _assert_direct(run, rows, flat_indices):
        subs = run.subs
        for k in flat_indices:
            row = rows[k]
            assert row.a_index * len(subs) + row.b_index == k
            assert row == atlas._classify_one(run, (row.pair_id, row.a_index, row.b_index))

    def test_orbit_counts_pinned(self):
        for degree, count in self.ORBITS.items():
            _, rep = self._orbits(degree)
            assert all(rep[k] <= k and rep[rep[k]] == rep[k] for k in range(len(rep)))
            assert sum(rep[k] == k for k in range(len(rep))) == count, degree

    def test_orbits_match_conjugation_by_every_element(self):
        for degree in (2, 3, 4):
            subs, rep = self._orbits(degree)
            assert rep == pair_orbit_representatives(symmetric_group(degree), subs), degree
            assert len(set(rep)) == self.ORBITS[degree]

    def test_every_s3_and_s4_row_matches_direct_classification(self, s3_atlas, s4_atlas):
        for degree, (rows, _) in ((3, s3_atlas), (4, s4_atlas)):
            run = atlas_run(degree)
            assert len(rows) == len(run.subs) ** 2
            self._assert_direct(run, rows, range(len(rows)))

    def test_sampled_s5_rows_match_direct_classification(self, s5_atlas):
        rows, _ = s5_atlas
        _, rep = self._orbits(5)
        copied = [k for k in range(len(rep)) if rep[k] != k]
        self._assert_direct(atlas_run(5), rows, random.Random(11).sample(copied, 200))


class TestSummaryPerOrbit:
    """The summary counts each orbit representative once per pair of its
    orbit; tests/oracles.py counts every row."""

    def test_matches_the_per_row_summary(self, s3_atlas, s4_atlas, s5_atlas):
        for degree, (rows, summary) in ((3, s3_atlas), (4, s4_atlas), (5, s5_atlas)):
            assert summary == summary_by_rows(degree, rows), degree
            assert summary["gap_region_count"] > 0 or degree == 3

    @pytest.mark.parametrize("corrupt", [
        {"oracle": "independent"},
        {"pipeline_status": "Independent"},
    ])
    def test_flagged_orbits_list_every_pair(self, s4_atlas, monkeypatch, corrupt):
        # A healthy run flags no disagreement and no asymmetry, so one
        # representative is corrupted: every pair of its orbit must then
        # be listed, as the per-row summary lists it.
        rows, _ = s4_atlas
        n = len(atlas_run(4).subs)
        rep = atlas_run(4).orbits()
        sizes = Counter(rep)
        target = next(r for k, r in enumerate(rows)
                      if rep[k] == k and sizes[k] > 1 and r.pipeline_status == "Dependent"
                      and rep[r.b_index * n + r.a_index] != k)
        real = atlas._classify_one

        def corrupted(run, task):
            row = real(run, task)
            return row._replace(**corrupt) if row.pair_id == target.pair_id else row

        monkeypatch.setattr(atlas, "_classify_one", corrupted)
        rows, summary = classify_all_pairs(4)
        assert summary == summary_by_rows(4, rows)
        target_rep = rep[target.a_index * n + target.b_index]
        orbit = [r.pair_id for k, r in enumerate(rows) if rep[k] == target_rep]
        assert summary["oracle_disagreements"] == orbit
        if "pipeline_status" in corrupt:
            assert summary["symmetry_violations"]
            assert summary["verdicts"]["Independent"] == 107 + len(orbit)
        else:
            assert summary["symmetry_violations"] == []
            assert summary["oracle_verdicts"]["independent"] == 107 + len(orbit)


class TestJoinLookup:
    """The atlas looks joins up in the subgroup list; the package's
    join closes the union of the generators.  They must agree."""

    @staticmethod
    def _assert_lookup(run, index_pairs):
        subs = run.subs
        for i, j in index_pairs:
            closed = groups.join(subs[i], subs[j])
            assert subs[run._join(i, j)].elements == closed.elements, (i, j)

    def test_every_ordered_s4_pair(self):
        n = len(atlas_run(4).subs)
        self._assert_lookup(atlas_run(4), [(i, j) for i in range(n) for j in range(n)])

    def test_every_s5_orbit_representative(self):
        rep = atlas_run(5).orbits()
        n = len(atlas_run(5).subs)
        reps = [divmod(k, n) for k in range(len(rep)) if rep[k] == k]
        assert len(reps) == 679
        self._assert_lookup(atlas_run(5), reps)


# A strategy for each column's cells, by its type; text cells hold commas,
# quotes, newlines, non-ASCII and empty strings.
_CELL = {int: st.integers(-2, 999), bool: st.booleans(),
         str: st.text(st.sampled_from(',"\n\r é€(1 2);e'), max_size=4)}
_ROW_CELLS = [_CELL[t] for t in get_type_hints(AtlasRow).values()]
# The own cells come first: pair_id, the indices and the generators.
_OWN = ATLAS_FIELDS.index("order_a")


@st.composite
def _tail_pool(draw):
    """Three tails, the cells after the own ones: a first, and two that
    each redraw at most one of its cells, so tails differ in few cells."""
    first = draw(st.tuples(*_ROW_CELLS[_OWN:]))
    pool = [first]
    for p in draw(st.lists(st.integers(0, len(first) - 1), min_size=2, max_size=2)):
        pool.append(first[:p] + (draw(_ROW_CELLS[_OWN + p]),) + first[p + 1:])
    return pool


class TestReportRendering:
    def test_csv_shape(self, s3_atlas):
        rows, summary = s3_atlas
        text = render_report(rows, summary, "csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(ATLAS_FIELDS)
        assert len(parsed) == 37
        flat = text.splitlines()
        assert all("True" not in line for line in flat)  # bools lowercased

    def test_csv_bool_and_null_cells(self, s3_atlas):
        rows, summary = s3_atlas
        text = render_report(rows, summary, "csv")
        reader = csv.DictReader(io.StringIO(text))
        first = next(reader)
        assert first["almost_disjoint"] in {"independent", "dependent",
                                            "inconclusive"}
        assert first["separated_both"] in {"true", "false", ""}

    def test_json_shape(self, s3_atlas):
        rows, summary = s3_atlas
        doc = json.loads(render_report(rows, summary, "json"))
        assert set(doc) == {"summary", "rows"}
        assert len(doc["rows"]) == 36
        assert doc["summary"]["pairs"] == 36

    def test_render_sorted_by_generators(self, s3_atlas):
        rows, summary = s3_atlas
        text = render_report(rows, summary, "csv")
        reader = list(csv.DictReader(io.StringIO(text)))
        keys = [(r["a_gens"], r["b_gens"]) for r in reader]
        assert keys == sorted(keys)

    @staticmethod
    def _plain_csv(rows):
        """Every row encoded whole, with its bool cells lowercased."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ATLAS_FIELDS)
        for r in sorted(rows, key=lambda r: (r.a_gens, r.b_gens)):
            writer.writerow([("true" if c else "false") if isinstance(c, bool) else c
                             for c in r])
        return buf.getvalue()

    def test_csv_matches_plain_per_row_rendering(self, s3_atlas, s4_atlas):
        for rows, summary in (s3_atlas, s4_atlas):
            assert render_report(rows, summary, "csv") == self._plain_csv(rows)

    def test_csv_quotes_cells_on_either_side_of_the_split(self, s3_atlas):
        rows, summary = s3_atlas
        quoted = rows[7]._replace(pair_id='odd,"id"', b_gens="x\ny", budget='a "b", c')
        same_tail = quoted._replace(pair_id="plain", a_gens="(9 9)")
        rows = rows + [quoted, same_tail]
        text = render_report(rows, summary, "csv")
        assert text == self._plain_csv(rows)
        assert '"odd,""id""",' in text and '"a ""b"", c"' in text
        parsed = list(csv.reader(io.StringIO(text)))
        assert [p[-1] for p in parsed].count('a "b", c') == 2

    def test_csv_empty_own_cells(self, s3_atlas):
        # An empty own cell is written empty whether or not another own
        # cell needs quotes.
        rows, summary = s3_atlas
        for extra in ([rows[3]._replace(a_gens="")],
                      [rows[3]._replace(a_gens=""), rows[4]._replace(pair_id="x,y")]):
            assert render_report(rows + extra, summary, "csv") == self._plain_csv(rows + extra)

    @staticmethod
    def _plain_json(rows, summary):
        ordered = sorted(rows, key=lambda r: (r.a_gens, r.b_gens))
        doc = {"summary": summary, "rows": [r._asdict() for r in ordered]}
        return json.dumps(doc, indent=2) + "\n"

    def test_json_matches_plain_dumps(self, s3_atlas, s4_atlas):
        for rows, summary in (s3_atlas, s4_atlas):
            assert render_report(rows, summary, "json") == self._plain_json(rows, summary)
        rows, summary = s3_atlas
        odd = rows[7]._replace(pair_id='odd,"id"', a_gens="é", b_gens="x\ny", budget='a "b" \\ é')
        rows = rows + [odd, odd._replace(pair_id="plain"), rows[2]._replace(merge_a=None)]
        assert render_report(rows, summary, "json") == self._plain_json(rows, summary)
        assert render_report([], summary, "json") == self._plain_json([], summary)

    @settings(max_examples=150, deadline=None)
    @given(tails=_tail_pool(),
           own=st.lists(st.tuples(st.tuples(*_ROW_CELLS[:_OWN]), st.integers(0, 2)), max_size=12))
    def test_random_rows_match_plain_rendering(self, tails, own):
        # Rows draw their tails from a pool of three, so tails repeat.
        rows = [AtlasRow(*cells, *tails[k]) for cells, k in own]
        summary = {"pairs": len(rows)}
        assert render_report(rows, summary, "csv") == self._plain_csv(rows)
        assert render_report(rows, summary, "json") == self._plain_json(rows, summary)

    def test_empty_rows_render_header_only(self):
        text = render_report([], {"pairs": 0}, "csv")
        assert text.splitlines() == [",".join(ATLAS_FIELDS)]

    def test_unknown_format_rejected(self, s3_atlas):
        rows, summary = s3_atlas
        with pytest.raises(ValueError):
            render_report(rows, summary, "tsv")


class TestDeterminismAndBudgets:
    REPORT_SHA256 = {
        (3, "csv"): "acf091e7242f0d06ca35fcefdf65a16477b4d536d51c4aa25228a3efde5fa64d",
        (3, "json"): "bd5981b899d2de42e4ae849deeccd78b5bb3b2ea8bc8c8b857928217a905c6af",
        (4, "csv"): "1e739695c3e8fd685667f6d208f0220793ed4954e7539b338dc00543e7eb89e9",
        (4, "json"): "568d6368996166fa09f94afed555c3f6e523bb343308e21f0345dfb0a4c1015b",
    }

    def test_report_bytes_are_pinned(self, s3_atlas, s4_atlas):
        # Any change to a verdict, a column or the rendering moves a digest.
        for degree, (rows, summary) in ((3, s3_atlas), (4, s4_atlas)):
            for fmt in ("csv", "json"):
                text = render_report(rows, summary, fmt)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                assert digest == self.REPORT_SHA256[(degree, fmt)], (degree, fmt)

    def test_oracle_extends_no_map_pair(self, monkeypatch):
        # The oracle counts endomorphisms of the join; only the Step4 rows
        # extend map pairs, through the ladder's own scan.
        assert not hasattr(atlas, "brute_force_independent")
        real_extend, real_scan = checks.extend, pipeline.brute_force_independent
        extended, scanned = [], []
        monkeypatch.setattr(checks, "extend", lambda *args: extended.append(args) or real_extend(*args))
        monkeypatch.setattr(pipeline, "brute_force_independent",
                            lambda *args: scanned.append(args[0]) or real_scan(*args))
        for degree in (3, 4):
            extended.clear()
            scanned.clear()
            rows, _ = classify_all_pairs(degree)
            subs, rep = atlas_run(degree).subs, atlas_run(degree).orbits()
            step4 = [SubgroupPair(subs[r.a_index], subs[r.b_index]) for k, r in enumerate(rows)
                     if rep[k] == k and r.pipeline_step == Step.BRUTE_FORCE.value]
            calls = len(extended)
            assert len(scanned) == len(step4)
            assert calls == sum(real_scan(p).details["pairs_checked"] for p in step4)
        assert calls > 0  # S4 has Step4 rows

    def test_s5_report_bytes_are_pinned(self, s5_atlas):
        rows, summary = s5_atlas
        text = render_report(rows, summary, "csv")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            "298260513243325251ce8e9bc29d88066e8d3c3dc21381b5837ec2b4aabd0dc1"
        text = render_report(rows, summary, "json")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            "4e96c485dbe08e476b7b1e028344e256ea4b870d96746e4fb958ba1854192245"
        assert summary["oracle_disagreements"] == []
        assert summary["symmetry_violations"] == []
        assert summary["budget_trips"] == []

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            classify_all_pairs(3, jobs=0)

    def test_only_one_job_accepted(self):
        # The atlas has no worker pool; the keyword accepts only 1.
        for jobs in (2, 100000):
            with pytest.raises(ValueError, match="the atlas runs in one process"):
                classify_all_pairs(3, jobs=jobs)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            classify_all_pairs(1)
        with pytest.raises(ValueError):
            classify_all_pairs(6)
