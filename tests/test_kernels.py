"""The permutation kernels against the plain-loop references in oracles.

parse_cycles, closure and Permutation.order run their inner work in
C-level passes; each must agree with a point-by-point or level-by-level
reference on every input, including the ones it rejects.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import closure_reference, parse_cycles_reference
from subindep.groups import BudgetExceeded, closure
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


class TestClosure:
    @settings(max_examples=150)
    @given(generator_lists(6))
    def test_agrees_with_the_reference(self, case):
        n, gens = case
        # Repeats and the identity must be dropped the same way.
        gens = gens + gens[:1] + [Permutation.identity(n)]
        got = closure(gens, n)
        want = closure_reference(gens, n, 5040)
        assert got.elements == want.elements and got.generators == want.generators
        assert all(type(x) is Permutation for x in got.elements)
        assert got.index_of(got.elements[-1]) == got.order - 1

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


class TestOrder:
    @given(st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.permutations(range(n)).map(lambda im: Permutation(tuple(im)))))
    def test_lcm_of_cycle_lengths(self, p):
        assert p.order() == math.lcm(*(len(c) for c in p.cycles()))
        power = p
        for _ in range(p.order() - 1):
            power = power * p
        assert power.is_identity()
