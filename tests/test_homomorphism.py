import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SWAP_VS_DOUBLE, FAR_SWAPS, atlas_run, make_pair
from oracles import (
    check_homomorphism,
    compatible_by_global_search,
    endomorphism_tables_by_words,
    endomorphism_tables_literal,
    independent_by_global_search,
)
from subindep.groups import (
    BudgetExceeded,
    FiniteGroup,
    GroupMap,
    closure,
    identity_map,
    propagate_images,
    symmetric_group,
    trivial_map,
)
from subindep import homs
from subindep.homs import enumerate_endomorphisms, extend
from subindep.perm import Permutation, cycle_string, parse_cycles


def P(text: str, degree: int) -> Permutation:
    return parse_cycles(text, degree)


def tables(endos) -> list[tuple[int, ...]]:
    return [m.images for m in endos]


class TestEnumerationCounts:
    def test_klein_four_group_has_16(self):
        v4 = closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)], 4)
        assert len(enumerate_endomorphisms(v4)) == 16

    def test_cyclic_groups(self):
        # |End(C_n)| = n: the generator picks any image.
        for n, gen in [(2, "(1 2)"), (3, "(1 2 3)"), (4, "(1 2 3 4)")]:
            g = closure([P(gen, n)], n)
            assert len(enumerate_endomorphisms(g)) == n

    def test_s3_has_10(self):
        # 6 inner automorphisms + 3 sign-like maps + the trivial map.
        assert len(enumerate_endomorphisms(symmetric_group(3))) == 10

    def test_s6_and_a6(self):
        # Aut(S6) and Aut(A6) both have order 1,440.  Every other map of
        # S6 factors through the sign, onto one of 75 involutions or the
        # identity; A6 is simple, so its only other map is the trivial one.
        assert len(enumerate_endomorphisms(symmetric_group(6), endo_budget=1024)) == 1516
        a6 = closure([P("(1 2 3)", 6), P("(2 3 4 5 6)", 6)], 6)
        assert a6.order == 360
        assert len(enumerate_endomorphisms(a6, endo_budget=1024)) == 1441

    def test_trivial_group_has_1(self):
        g = closure([], 3)
        endos = enumerate_endomorphisms(g)
        assert len(endos) == 1 and endos[0].is_identity() and endos[0].is_trivial()


class TestEnumerationAgainstOracles:
    def test_matches_word_oracle_on_small_groups(self):
        cases = [
            closure([], 3),
            closure([P("(1 2)", 3)], 3),
            closure([P("(1 2 3)", 3)], 3),
            symmetric_group(3),
            closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)], 4),
            closure([P("(1 2 3 4)", 4)], 4),
            closure([P("(1 2)", 4), P("(1 3)(2 4)", 4)], 4),  # dihedral of order 8
            closure([P("(1 2 3)", 4), P("(1 2)(3 4)", 4)], 4),  # alternating, order 12
            symmetric_group(4),
            # C2 x S3, whose first generator is central.
            closure([P("(1 2)", 5), P("(3 4 5)", 5), P("(3 4)", 5)], 5),
        ]
        for g in cases:
            assert tables(enumerate_endomorphisms(g)) == endomorphism_tables_by_words(g)

    def test_word_oracle_matches_literal_filter_up_to_order_6(self):
        for g in (closure([], 2),
                  closure([P("(1 2)", 3)], 3),
                  closure([P("(1 2 3)", 3)], 3),
                  closure([P("(1 2)", 4), P("(3 4)", 4)], 4),
                  closure([P("(1 2 3 4)", 4)], 4),
                  symmetric_group(3),
                  closure([P("(1 2 3)(4 5)", 5)], 5)):
            assert g.order <= 6
            assert endomorphism_tables_by_words(g) == endomorphism_tables_literal(g)

    def test_every_enumerated_map_is_a_homomorphism(self):
        g = closure([P("(1 2)", 4), P("(1 3)(2 4)", 4)], 4)
        for m in enumerate_endomorphisms(g):
            assert check_homomorphism(m)

    def test_enumeration_is_sorted_and_duplicate_free(self):
        g = symmetric_group(3)
        ts = tables(enumerate_endomorphisms(g))
        assert ts == sorted(set(ts))

    def test_identity_and_trivial_always_present(self):
        g = closure([P("(1 2)", 4), P("(1 3)(2 4)", 4)], 4)
        endos = enumerate_endomorphisms(g)
        assert any(m.is_identity() for m in endos)
        assert any(m.is_trivial() for m in endos)

    def test_budget_respected(self):
        with pytest.raises(BudgetExceeded):
            enumerate_endomorphisms(symmetric_group(4), endo_budget=10)

    def test_candidate_search_is_budgeted(self, monkeypatch):
        # C2^3: three generators with 8 candidate images each, 512 in all.
        g = closure([P("(1 2)", 6), P("(3 4)", 6), P("(5 6)", 6)], 6)
        calls = []

        def counting(*args):
            calls.append(args)
            return propagate_images(*args)

        monkeypatch.setattr(homs, "propagate_images", counting)
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_endomorphisms(g, endo_budget=22)  # 22 ** 2 = 484
        assert exc.value.budget == "endo_budget" and calls == []
        assert len(enumerate_endomorphisms(g, endo_budget=23)) == 512  # 23 ** 2 = 529
        assert len(calls) == 512

    def test_one_propagation_per_conjugation_orbit(self, monkeypatch):
        # S4 from (1 2) and (1 2 3 4): 10 * 16 candidate image pairs,
        # propagated once per orbit under simultaneous conjugation by S4.
        g = symmetric_group(4)
        x, y = g.generators
        pairs = [(u, v) for u in g.elements if x.order() % u.order() == 0
                 for v in g.elements if y.order() % v.order() == 0]
        assert len(pairs) == 160
        orbits = {frozenset((u.conjugated_by(t), v.conjugated_by(t)) for t in g.elements)
                  for u, v in pairs}
        calls = []

        def counting(*args):
            calls.append(args)
            return propagate_images(*args)

        monkeypatch.setattr(homs, "propagate_images", counting)
        assert len(enumerate_endomorphisms(g)) == 58
        assert len(calls) == len(orbits) < 160

    def test_propagation_work_is_budgeted(self, monkeypatch):
        # C8 x C8: 64 ** 2 candidate maps, each propagated over 64
        # elements, against ENDO_WORK_FACTOR * endo_budget ** 2.
        g = closure([P("(1 2 3 4 5 6 7 8)", 16), P("(9 10 11 12 13 14 15 16)", 16)], 16)
        calls = []

        def counting(*args):
            calls.append(args)
            return propagate_images(*args)

        monkeypatch.setattr(homs, "propagate_images", counting)
        assert 4096 * 64 > homs.ENDO_WORK_FACTOR * 90 ** 2
        with pytest.raises(BudgetExceeded, match="propagating 4096 candidate maps over 64"):
            enumerate_endomorphisms(g, endo_budget=90)
        assert calls == []
        assert 4096 * 64 <= homs.ENDO_WORK_FACTOR * 91 ** 2
        assert len(enumerate_endomorphisms(g, endo_budget=91)) == 4096
        assert len(calls) == 4096

    def test_search_keeps_few_of_many_generators(self):
        # C2^8 from its eight transpositions, each pair's product put
        # before them: whatever the order, the closure keeps eight of the
        # 36 as its generators, and 256 ** 8 candidate maps trip the
        # budget before any search.
        swaps = [P(f"({2 * i + 1} {2 * i + 2})", 16) for i in range(8)]
        products = [x * y for i, x in enumerate(swaps) for y in swaps[i + 1:]]
        g = closure(products + swaps, 16)
        assert g.order == 256 and len(g.generators) == 8
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_endomorphisms(g)
        assert exc.value.budget == "endo_budget"
        assert exc.value.context == f"searching {256 ** 8} candidate maps"

    def test_search_runs_over_the_groups_own_generators(self):
        # S4 from its nine involutions keeps three of them, 10 ** 3
        # candidate maps, and finds the same maps as S4 from (1 2) and
        # (1 2 3 4).
        s4 = symmetric_group(4)
        involutions = [x for x in s4.elements if x.order() == 2]
        assert len(involutions) == 9
        many = closure(involutions, 4)
        with pytest.raises(BudgetExceeded, match="searching 1000 candidate maps"):
            enumerate_endomorphisms(many, endo_budget=31)
        two = closure([P("(1 2)", 4), P("(1 2 3 4)", 4)], 4)
        assert tables(enumerate_endomorphisms(many, endo_budget=32)) == \
            tables(enumerate_endomorphisms(two))

    def test_second_call_on_the_same_group_is_cached(self, monkeypatch):
        g = closure([P("(1 2)", 4), P("(1 3)(2 4)", 4)], 4)
        first = enumerate_endomorphisms(g)
        calls = []

        def counting(*args):
            calls.append(args)
            return propagate_images(*args)

        monkeypatch.setattr(homs, "propagate_images", counting)
        assert enumerate_endomorphisms(g) == first
        assert calls == []
        # An equal group built anew reads the memo of the search on g:
        # it propagates nothing, and finds the same maps.
        assert enumerate_endomorphisms(closure(list(g.generators), 4)) == first
        assert calls == []


def searched(g: FiniteGroup):
    """The tables and candidate count enumerate_endomorphisms finds on a
    fresh copy of g, or the message of the budget it trips."""
    fresh = closure(list(g.generators), g.degree)
    try:
        return tables(enumerate_endomorphisms(fresh)), fresh._endos[0]
    except BudgetExceeded as exc:
        return str(exc)


def check_memo_against_fresh_searches(groups, monkeypatch) -> bool:
    """Each group's search after every group has filled the memo equals
    its search with the memo cleared.  When all the searches fit in the
    memo at once, none is evicted, and the second round propagates
    nothing; returns whether they fit."""
    cold = []
    for g in groups:
        homs._ENDO_MEMO.clear()
        cold.append(searched(g))
    homs._ENDO_MEMO.clear()
    for g in groups:
        searched(g)
    calls = []

    def counting(*args):
        calls.append(args)
        return propagate_images(*args)

    monkeypatch.setattr(homs, "propagate_images", counting)
    assert [searched(g) for g in groups] == cold
    fit = sum(len(c[0]) * g.order for g, c in zip(groups, cold)
              if not isinstance(c, str)) <= homs.ENDO_MEMO_ENTRIES
    assert calls == [] or not fit
    return fit


@st.composite
def young_groups(draw, max_degree: int = 7):
    """A group at degree n <= max_degree inside S_k x S_(n-k), of order
    at most 256, and its image under a relabelling of the points."""
    n = draw(st.integers(min_value=1, max_value=max_degree))
    k = draw(st.sampled_from([k for k in range(n + 1)
                              if math.factorial(k) * math.factorial(n - k) <= 256]))
    block = st.tuples(st.permutations(range(k)), st.permutations(range(k, n)))
    gens = [Permutation(tuple(lo) + tuple(hi))
            for lo, hi in draw(st.lists(block, max_size=3))]
    relabel = Permutation(tuple(draw(st.permutations(range(n)))))
    return closure(gens, n), closure([x.conjugated_by(relabel) for x in gens], n)


class TestEnumerationMemo:
    def test_memo_agrees_with_fresh_searches_on_the_s4_lattice(self, monkeypatch):
        assert check_memo_against_fresh_searches(atlas_run(4).subs, monkeypatch)

    def test_memo_agrees_with_fresh_searches_on_the_s5_lattice(self, monkeypatch):
        subs = atlas_run(5).subs
        assert len(subs) == 156
        assert check_memo_against_fresh_searches(subs, monkeypatch)

    @settings(max_examples=60, deadline=None)
    @given(young_groups())
    def test_memo_agrees_with_fresh_searches_up_to_degree_7(self, groups):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_memo_against_fresh_searches(groups, monkeypatch)

    def test_same_cycles_at_a_higher_degree_propagate_nothing(self, monkeypatch):
        gens = ["(1 2 3 4)", "(1 2)"]
        low = enumerate_endomorphisms(closure([P(x, 4) for x in gens], 4))
        calls = []
        monkeypatch.setattr(homs, "propagate_images", lambda *args: calls.append(args))
        high = closure([P(x, 7) for x in gens], 7)
        assert tables(enumerate_endomorphisms(high)) == tables(low)
        assert calls == [] and len(low) == 58

    def test_end_of_c2_to_the_fourth_is_not_kept(self):
        # 65,536 tables of 16 entries, over the memo's whole bound.
        g = closure([P(f"({2 * i + 1} {2 * i + 2})", 8) for i in range(4)], 8)
        assert len(enumerate_endomorphisms(g)) == 65536
        assert 65536 * 16 > homs.ENDO_MEMO_ENTRIES
        assert homs._ENDO_MEMO == {}

    def test_memo_drops_the_least_recently_used_search(self, monkeypatch):
        # C4 holds 4 tables of 4 entries and C3 3 of 3: 25 in all.
        monkeypatch.setattr(homs, "ENDO_MEMO_ENTRIES", 25)
        c4, c3, c2 = ([P(x, 4)] for x in ("(1 2 3 4)", "(1 2 3)", "(1 2)"))
        enumerate_endomorphisms(closure(c4, 4))
        enumerate_endomorphisms(closure(c3, 4))
        assert [key[0] for key in homs._ENDO_MEMO] == [4, 3]
        enumerate_endomorphisms(closure(c4, 4))  # read: now the most recent
        enumerate_endomorphisms(closure(c2, 4))  # 29 entries: C3 goes
        assert [key[0] for key in homs._ENDO_MEMO] == [4, 2]
        enumerate_endomorphisms(symmetric_group(3))  # 60 entries: not kept
        assert [key[0] for key in homs._ENDO_MEMO] == [4, 2]


class TestExtend:
    def test_identity_pair_extends_to_identity(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        res = extend(identity_map(pair.a), identity_map(pair.b), pair)
        assert res.exists and res.map.is_identity()

    def test_trivial_pair_extends_to_trivial(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        res = extend(trivial_map(pair.a), trivial_map(pair.b), pair)
        assert res.exists and res.map.is_trivial()

    def test_extension_restricts_correctly(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        for alpha in enumerate_endomorphisms(pair.a):
            for beta in enumerate_endomorphisms(pair.b):
                res = extend(alpha, beta, pair)
                assert res.exists
                gamma = res.map
                assert all(gamma(x) == alpha(x) for x in pair.a.elements)
                assert all(gamma(x) == beta(x) for x in pair.b.elements)
                assert check_homomorphism(gamma)

    def test_incompatible_pair_reports_conflict(self):
        pair = make_pair(3, ["(1 2)"], ["(1 3)"])
        alpha = identity_map(pair.a)
        beta = trivial_map(pair.b)
        res = extend(alpha, beta, pair)
        assert not res.exists and res.map is None
        c = res.conflict
        assert c.image_a != c.image_b
        assert c.element in pair.join

    def test_join_embeddings_are_built_once_per_pair(self, monkeypatch):
        pair = make_pair(*FAR_SWAPS)
        j = pair.join
        for sub, emb in zip((pair.a, pair.b), pair.embeddings):
            assert [j.elements[k] for k in emb] == list(sub.elements)
        looked_up = []
        real = FiniteGroup.index_of

        def counting(self, x):
            if self is j:
                looked_up.append(x)
            return real(self, x)

        monkeypatch.setattr(FiniteGroup, "index_of", counting)
        for alpha in enumerate_endomorphisms(pair.a):
            extend(alpha, identity_map(pair.b), pair)
        assert looked_up == []

    def test_requires_endomorphisms_of_the_right_groups(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        other = closure([P("(1 2 3)", 4)], 4)
        with pytest.raises(ValueError):
            extend(identity_map(other), identity_map(pair.b), pair)

    def test_generator_presentation_does_not_change_extensions(self):
        # Same subgroups reached through different generating sets.
        lean = make_pair(6, ["(1 2)", "(5 6)"], ["(1 3)(2 4)"])
        redundant = make_pair(6, ["(5 6)", "(1 2)", "(1 2)(5 6)"], ["(1 3)(2 4)"])
        assert lean.a == redundant.a and lean.b == redundant.b
        for alpha in enumerate_endomorphisms(lean.a):
            for beta in enumerate_endomorphisms(lean.b):
                r1 = extend(alpha, beta, lean)
                r2 = extend(alpha, beta, redundant)
                assert r1.exists == r2.exists
                if r1.exists:
                    assert r1.map.images == r2.map.images


class TestExtendOnWorkedExamples:
    def test_swap_alpha_with_identity_beta_has_no_extension(self):
        pair = make_pair(*FAR_SWAPS)
        a = pair.a
        swap = {P("(1 2)", 6): P("(5 6)", 6), P("(5 6)", 6): P("(1 2)", 6)}
        gen_idx = [a.index_of(g) for g in a.generators]
        img_idx = [a.index_of(swap[g]) for g in a.generators]
        table, conflict = propagate_images(a, gen_idx, img_idx)
        assert conflict is None
        alpha = GroupMap(a, tuple(table))
        res = extend(alpha, identity_map(pair.b), pair)
        assert not res.exists
        assert cycle_string(res.conflict.element) == "(1 3)(2 4)(5 6)"
        assert {cycle_string(res.conflict.image_a),
                cycle_string(res.conflict.image_b)} == {"(1 3 2 4)", "(1 4 2 3)"}

    def test_exactly_eight_incompatible_pairs(self):
        pair = make_pair(*FAR_SWAPS)
        endos_a = enumerate_endomorphisms(pair.a)
        endos_b = enumerate_endomorphisms(pair.b)
        assert (len(endos_a), len(endos_b)) == (16, 2)
        bad = [(alpha, beta)
               for alpha in endos_a for beta in endos_b
               if not extend(alpha, beta, pair).exists]
        assert len(bad) == 8
        assert all(beta.is_identity() for _, beta in bad)
        # Exactly the maps sending (5 6) across to the other factor fail.
        crossing = {P("(1 2)", 6), P("(1 2)(5 6)", 6)}
        assert all(alpha(P("(5 6)", 6)) in crossing for alpha, _ in bad)

    def test_compatibility_agrees_with_global_search(self):
        pair = make_pair(*FAR_SWAPS)
        endos_a = enumerate_endomorphisms(pair.a)
        endos_b = enumerate_endomorphisms(pair.b)
        for alpha in endos_a:
            for beta in endos_b:
                expected = compatible_by_global_search(
                    [alpha(x) for x in pair.a.elements],
                    [beta(x) for x in pair.b.elements],
                    pair.a, pair.b, pair.join)
                got = extend(alpha, beta, pair).exists
                assert got == (expected > 0)
                if got:
                    assert expected == 1  # extensions are unique

    def test_independence_matches_global_search_on_s3_pairs(self):
        for degree, a_gens, b_gens in [
            (3, ["(1 2)"], ["(1 3)"]),
            (3, ["(1 2)"], ["(1 2 3)"]),
            (3, [], ["(1 2 3)"]),
            (4, ["(1 2)"], ["(1 3)(2 4)"]),
        ]:
            pair = make_pair(degree, a_gens, b_gens)
            endos_a = enumerate_endomorphisms(pair.a)
            endos_b = enumerate_endomorphisms(pair.b)
            ours = all(extend(al, be, pair).exists
                       for al in endos_a for be in endos_b)
            assert ours == independent_by_global_search(pair.a, pair.b, pair.join)
