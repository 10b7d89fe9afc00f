"""The kernels against the plain-loop references in oracles.

parse_cycles, closure, normal_closure, Permutation.order and extend run
their inner work in C-level passes; each must agree with a
point-by-point, level-by-level or element-by-element reference on every
input, including the ones it rejects.
"""

import math

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import SWAP_VS_DOUBLE, atlas_run, make_pair
from oracles import closure_reference, extend_reference, is_normal_reference, parse_cycles_reference
from subindep.groups import (
    BudgetExceeded,
    GroupMap,
    SubgroupPair,
    closure,
    identity_map,
    join,
    normal_closure,
)
from subindep.homs import enumerate_endomorphisms, extend
from subindep.perm import CycleParseError, Permutation, cycle_string, parse_cycles

# Degrees on both sides of 9: below 10 a digit run is one point per digit.
degrees = st.integers(min_value=1, max_value=14)


def cycle_texts(n: int):
    """Strings built from cycles of points in and around 1..n, with the
    separators, spacing and identity spellings the parser accepts."""
    point = st.integers(min_value=0, max_value=n + 2).map(str)
    sep = st.sampled_from([" ", ",", ", ", "  ", "\t", "\u2003", ""])
    cycle = st.tuples(st.lists(point, max_size=5), sep).map(lambda c: "(" + c[1].join(c[0]) + ")")
    gap = st.sampled_from(["", " ", "\n", "x", ")", "("])
    cycles = st.lists(st.tuples(gap, cycle), max_size=4).map(lambda cs: "".join(g + c for g, c in cs))
    return st.one_of(cycles, st.sampled_from(["e", "()", " e ", "", "ee"]))


# Malformed text: parentheses, digits, separators and stray characters.
noise = st.text(alphabet="()0123456789 ,e\t\u00a0\x1cx²٣", max_size=16)


def outcome(parse, text: str, degree: int):
    try:
        return parse(text, degree)
    except CycleParseError as exc:
        return ("error", str(exc))


class TestParseCycles:
    @settings(max_examples=250)
    @given(degrees.flatmap(lambda n: st.tuples(st.just(n), st.one_of(cycle_texts(n), noise))))
    @example((9, "(123)(45)"))
    @example((10, "(1 10)(2,3)"))
    @example((12, "(123)"))
    @example((4, "(1 2) x (3 4)"))
    @example((4, "(1 2)("))
    @example((4, "(1 9 x)"))
    @example((4, "(1 29)"))
    @example((4, "(x 9)"))
    def test_agrees_with_the_reference(self, case):
        n, text = case
        got = outcome(parse_cycles, text, n)
        assert got == outcome(parse_cycles_reference, text, n)
        if isinstance(got, Permutation):
            assert type(got) is Permutation and got.degree == n

    @given(st.integers(min_value=1, max_value=14).flatmap(
        lambda n: st.permutations(range(n)).map(lambda im: Permutation(tuple(im)))))
    def test_canonical_strings_agree(self, p):
        text = cycle_string(p)
        assert parse_cycles(text, p.degree) == parse_cycles_reference(text, p.degree) == p


def generator_lists(max_degree: int):
    def at_degree(n):
        one = st.permutations(range(n)).map(lambda im: Permutation(tuple(im)))
        return st.tuples(st.just(n), st.lists(one, max_size=4))
    return st.integers(min_value=1, max_value=max_degree).flatmap(at_degree)


def assert_kept(group):
    """Each generator lies outside the closure of those before it, so
    there are at most log2 of the order of them."""
    for i, x in enumerate(group.generators):
        assert x not in closure_reference(group.generators[:i], group.degree, group.order)
    assert 2 ** len(group.generators) <= group.order


class TestClosure:
    @settings(max_examples=150)
    @given(generator_lists(6), st.data())
    def test_agrees_with_the_reference(self, case, data):
        n, gens = case
        # Repeats, the identity and redundant generators must be dropped
        # the same way: products of the drawn generators and elements of
        # their group, each put in at a drawn place.
        redundant = [x * y for x, y in zip(gens, gens[1:])]
        redundant += data.draw(st.lists(st.sampled_from(closure_reference(gens, n, 5040).elements),
                                        max_size=4))
        gens = gens + gens[:1] + [Permutation.identity(n)]
        for x in redundant:
            gens.insert(data.draw(st.integers(min_value=0, max_value=len(gens))), x)
        got = closure(gens, n)
        want = closure_reference(gens, n, 5040)
        assert got.elements == want.elements and got.generators == want.generators
        assert all(type(x) is Permutation for x in got.elements)
        assert got.index_of(got.elements[-1]) == got.order - 1
        assert_kept(got)
        # The join of the closures of a split of the list keeps what the
        # closure of the whole list keeps.
        k = data.draw(st.integers(min_value=0, max_value=len(gens)))
        a, b = closure(gens[:k], n), closure(gens[k:], n)
        joined = join(a, b)
        assert joined.elements == want.elements and joined.generators == want.generators
        assert all(type(x) is Permutation for x in joined.elements)
        assert (joined is a) == (got.order == a.order)
        for group in (a, b, joined):
            assert_kept(group)

    @settings(max_examples=100)
    @given(generator_lists(6))
    def test_budget_boundary(self, case):
        # An order equal to max_order passes; one more than max_order raises.
        n, gens = case
        order = closure(gens, n).order
        assert closure(gens, n, max_order=order).order == order
        with pytest.raises(BudgetExceeded) as exc:
            closure(gens, n, max_order=order - 1)
        assert exc.value.limit == order - 1


class TestNormalClosure:
    # The reference closes every distinct conjugate: up to a few hundred
    # generators over up to 720 elements.
    @settings(max_examples=60, deadline=None)
    @given(generator_lists(6), st.lists(st.integers(min_value=0), max_size=3))
    # <(1 2)> in S6 from (1 2) and (1 2 3 4 5 6), element 120: the
    # conjugates by the generators alone give S3, not yet normal.
    @example((6, [Permutation((1, 0, 2, 3, 4, 5)), Permutation((1, 2, 3, 4, 5, 0))]), [120])
    def test_agrees_with_the_reference(self, case, picks):
        # s is a subgroup of g from picked elements; its normal closure is
        # the group the conjugates of its generators by all of g generate.
        n, gens = case
        g = closure(gens, n)
        s = closure([g.elements[i % g.order] for i in picks], n)
        got = normal_closure(s, g)
        conjugates = {x.conjugated_by(t) for x in s.generators for t in g.elements}
        assert got.elements == closure_reference(sorted(conjugates), n, g.order).elements
        assert got.generators[:len(s.generators)] == s.generators
        assert (got is s) == is_normal_reference(s, g)
        for group in (g, s, got):
            assert_kept(group)


class TestOrder:
    @given(st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.permutations(range(n)).map(lambda im: Permutation(tuple(im)))))
    def test_lcm_of_cycle_lengths(self, p):
        assert p.order() == math.lcm(*(len(c) for c in p.cycles()))
        power = p
        for _ in range(p.order() - 1):
            power = power * p
        assert power.is_identity()


S4_SUBGROUPS = atlas_run(4).subs


def extension_outcome(alpha, beta, pair):
    """extend's answer in the shape of extend_reference's."""
    res = extend(alpha, beta, pair)
    if res.exists:
        return res.map.images, None
    return None, tuple(res.conflict)


def assert_extends_like_the_reference(pair: SubgroupPair, pairs_of_maps) -> int:
    """Compare extend with the reference on each map pair; the number of
    pairs that fail to extend."""
    conflicts = 0
    for alpha, beta in pairs_of_maps:
        got = extension_outcome(alpha, beta, pair)
        assert got == extend_reference(alpha, beta, pair)
        conflicts += got[0] is None
    return conflicts


class TestExtend:
    def test_agrees_on_every_s4_orbit_representative(self):
        subs = S4_SUBGROUPS
        rep = atlas_run(4).orbits()
        n, checked, conflicts = len(subs), 0, 0
        for k in sorted(set(rep)):
            pair = SubgroupPair(subs[k // n], subs[k % n])
            endos_a, endos_b = enumerate_endomorphisms(pair.a), enumerate_endomorphisms(pair.b)
            maps = [(alpha, beta) for alpha in endos_a for beta in endos_b]
            conflicts += assert_extends_like_the_reference(pair, maps)
            checked += len(maps)
        # Both outcomes are exercised, not only one.
        assert len(set(rep)) == 155 and 0 < conflicts < checked

    @settings(max_examples=80, deadline=None)
    @given(generator_lists(6), st.data())
    def test_agrees_on_random_pairs(self, case, data):
        # The first two generators span A and the rest B, so either side
        # may be trivial.
        n, gens = case
        pair = SubgroupPair(closure(gens[:2], n), closure(gens[2:], n))
        try:
            endos_a, endos_b = enumerate_endomorphisms(pair.a), enumerate_endomorphisms(pair.b)
        except BudgetExceeded:
            reject()
        index = st.tuples(st.integers(0, len(endos_a) - 1), st.integers(0, len(endos_b) - 1))
        drawn = data.draw(st.lists(index, min_size=1, max_size=12))
        assert_extends_like_the_reference(pair, [(endos_a[i], endos_b[k]) for i, k in drawn])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_on_maps_that_are_not_homomorphisms(self, data):
        # Arbitrary image tables: propagation reads only the generators'
        # images, so the agreement check must name the first element of
        # A, then of B, whose image disagrees.
        subs = S4_SUBGROUPS
        pair = SubgroupPair(data.draw(st.sampled_from(subs)), data.draw(st.sampled_from(subs)))

        def any_map(g):
            images = st.lists(st.integers(0, g.order - 1), min_size=g.order, max_size=g.order)
            return GroupMap(g, tuple(data.draw(images)))

        maps = [(any_map(pair.a), any_map(pair.b)) for _ in range(4)]
        maps.append((identity_map(pair.a), any_map(pair.b)))
        assert_extends_like_the_reference(pair, maps)

    def test_accepts_an_equal_group_built_anew(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        anew = closure(pair.a.generators, pair.degree)
        assert anew is not pair.a and anew == pair.a
        res = extend(identity_map(anew), identity_map(pair.b), pair)
        assert res.exists and res.map.images == tuple(range(pair.join.order))

    def test_rejects_a_different_group(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        other = closure([Permutation((0, 1, 3, 2))], pair.degree)
        assert other.order == pair.a.order and other != pair.a
        with pytest.raises(ValueError, match="alpha"):
            extend(identity_map(other), identity_map(pair.b), pair)
        with pytest.raises(ValueError, match="beta"):
            extend(identity_map(pair.a), identity_map(other), pair)

    @pytest.mark.parametrize("images", [(0,), (0, 1, 0)])
    def test_rejects_a_table_of_the_wrong_length(self, images):
        # Too short a table would be indexed past its end; too long a
        # table would extend as if its extra entries were not there.
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        with pytest.raises(ValueError, match="alpha"):
            extend(GroupMap(pair.a, images), identity_map(pair.b), pair)
        with pytest.raises(ValueError, match="beta"):
            extend(identity_map(pair.a), GroupMap(pair.b, images), pair)

    @pytest.mark.parametrize("images", [(0, -1), (0, 2)], ids=["negative", "past-the-end"])
    def test_rejects_a_table_entry_out_of_range(self, images):
        # -1 would index the last element and read as the identity; 2
        # would be indexed past the side's end.
        pair = make_pair(4, ["(1 2)"], ["(3 4)"])
        with pytest.raises(ValueError, match="alpha"):
            extend(GroupMap(pair.a, images), identity_map(pair.b), pair)
        with pytest.raises(ValueError, match="beta"):
            extend(identity_map(pair.a), GroupMap(pair.b, images), pair)
