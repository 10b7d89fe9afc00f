import copy
import math
import pickle
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from subindep.perm import CycleParseError, Permutation, cycle_string, gather, parse_cycles


def perms(max_degree: int = 8):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(range(n))).map(lambda images: Permutation(tuple(images)))


def perm_triples(max_degree: int = 6):
    def at_degree(n):
        one = st.permutations(range(n)).map(lambda im: Permutation(tuple(im)))
        return st.tuples(one, one, one)
    return st.integers(min_value=1, max_value=max_degree).flatmap(at_degree)


class TestCompositionConvention:
    def test_right_factor_acts_first(self):
        # The one convention everything else hangs on: (p*q)(x) = p(q(x)).
        assert parse_cycles("(12)(123)", 3) == parse_cycles("(2 3)", 3)
        p = parse_cycles("(1 2)", 3)
        q = parse_cycles("(1 2 3)", 3)
        assert cycle_string(p * q) == "(2 3)"
        assert cycle_string(q * p) == "(1 3)"

    def test_images_indexing(self):
        p = Permutation((1, 0, 2))
        assert p[0] == 1  # point 0 maps to 1
        assert p == (1, 0, 2) and len(p) == p.degree == 3
        q = Permutation((1, 2, 0))
        assert p * q == tuple(p[j] for j in q)

    def test_conjugation_relabels_points(self):
        g = parse_cycles("(1 2)", 3)
        h = parse_cycles("(1 3)", 3)
        assert cycle_string(g.conjugated_by(h)) == "(2 3)"
        assert g.conjugated_by(h) == h * g * h.inverse()

    def test_one_pass_conjugation_matches_the_products_on_s4(self):
        s4 = [Permutation(im) for im in permutations(range(4))]
        for x in s4:
            for h in s4:
                c = x.conjugated_by(h)
                assert c == h * x * h.inverse() and type(c) is Permutation
        with pytest.raises(ValueError):
            s4[1].conjugated_by(Permutation((1, 0)))

    @given(perm_triples())
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(perms())
    def test_inverse_cancels(self, p):
        e = Permutation.identity(p.degree)
        assert p * p.inverse() == e
        assert p.inverse() * p == e

    @given(perm_triples())
    def test_conjugation_preserves_cycle_type(self, triple):
        p, h, _ = triple
        assert sorted(len(c) for c in p.conjugated_by(h).cycles()) == \
            sorted(len(c) for c in p.cycles())


class TestOrderAndPowers:
    @given(perms())
    def test_order_is_minimal_exponent(self, p):
        k = p.order()
        acc = Permutation.identity(p.degree)
        for i in range(1, k):
            acc = acc * p
            assert not acc.is_identity()
        assert (acc * p).is_identity()

    @given(perms())
    def test_order_is_lcm_of_cycle_lengths(self, p):
        lengths = [len(c) for c in p.cycles()]
        expected = math.lcm(*lengths) if lengths else 1
        assert p.order() == expected

    @given(perms(6), st.integers(min_value=0, max_value=6))
    def test_inverse_of_a_power_is_the_power_of_the_inverse(self, p, k):
        power = inverse_power = Permutation.identity(p.degree)
        for _ in range(k):
            power = power * p
            inverse_power = inverse_power * p.inverse()
        assert power.inverse() == inverse_power
        assert (power * inverse_power).is_identity()


class TestCycles:
    def test_cycles_are_least_point_first_and_disjoint(self):
        p = parse_cycles("(2 4)(1 5 3)", 5)
        cycs = p.cycles()
        assert cycs == [(0, 4, 2), (1, 3)]
        seen = [pt for c in cycs for pt in c]
        assert len(seen) == len(set(seen))

    def test_fixed_points_are_omitted(self):
        assert parse_cycles("(1 2)", 5).cycles() == [(0, 1)]
        assert Permutation.identity(4).cycles() == []


class TestFormatting:
    def test_identity_prints_e(self):
        assert cycle_string(Permutation.identity(3)) == "e"

    def test_spaces_between_points(self):
        assert cycle_string(parse_cycles("(12)(34)", 4)) == "(1 2)(3 4)"
        assert cycle_string(parse_cycles("(1 11)", 11)) == "(1 11)"

    def test_round_trip_exhaustive_degree_5(self):
        for images in permutations(range(5)):
            p = Permutation(images)
            assert parse_cycles(cycle_string(p), 5) == p

    @given(perms())
    def test_round_trip(self, p):
        assert parse_cycles(cycle_string(p), p.degree) == p


class TestParsing:
    def test_identity_spellings(self):
        assert parse_cycles("e", 5).is_identity()
        assert parse_cycles("()", 5).is_identity()
        assert parse_cycles("(1)", 3).is_identity()

    def test_separator_styles(self):
        assert parse_cycles("(1,2)", 4) == parse_cycles("(1 2)", 4)
        assert parse_cycles("( 1 2 )( 3 4 )", 4) == parse_cycles("(12)(34)", 4)

    def test_juxtaposed_digits_only_below_degree_10(self):
        assert parse_cycles("(123)", 9) == parse_cycles("(1 2 3)", 9)
        # At degree >= 10 digit runs are one point, so this is out of range.
        with pytest.raises(CycleParseError):
            parse_cycles("(123)", 12)

    def test_multi_digit_points(self):
        p = parse_cycles("(1 12)", 12)
        assert p[0] == 11 and p[11] == 0

    @pytest.mark.parametrize("text,degree", [
        ("(1 1)", 3),
        ("(0 1)", 3),
        ("(1 4)", 3),
        ("", 3),
        ("   ", 3),
        ("abc", 3),
        ("(1 2) x", 3),
        ("(1 2)()", 4),
        ("e e", 3),
        ("(1 2", 3),
        ("(1 2)", True),
        ("(1 ²)", 4),  # isdigit, but int() rejects it
        ("(1 ٣)", 4),  # isdigit, and int() reads it as 3
    ])
    def test_rejects(self, text, degree):
        with pytest.raises(CycleParseError):
            parse_cycles(text, degree)

    @given(st.integers(min_value=1, max_value=7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(1, n), min_size=1, unique=True), max_size=4))))
    def test_overlapping_cycles_compose_into_a_valid_permutation(self, case):
        # Cycles are built unchecked; the result must still be a bijection
        # and equal the product of the checked cycles.
        n, cycles = case
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "e"
        want = Permutation(range(n))
        for c in cycles:
            img = list(range(n))
            for a, b in zip(c, c[1:] + c[:1]):
                img[a - 1] = b - 1
            want = want * Permutation(img)
        got = parse_cycles(text, n)
        assert Permutation(got) == got == want

    def test_parse_error_is_value_error(self):
        assert issubclass(CycleParseError, ValueError)


class TestValidation:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation(())
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        with pytest.raises(ValueError):
            Permutation((0, 3, 1))

    @pytest.mark.parametrize("images", [(1.0, 0.0), (True, False), (1, 0.0), ("1", "0"), (0, None)])
    def test_rejects_images_that_are_not_integers(self, images):
        # (1.0, 0.0) would equal and hash like (1, 0), then fail in p * p.
        with pytest.raises(ValueError, match="integers"):
            Permutation(images)

    def test_permutations_are_hashable_and_ordered(self):
        a = Permutation((1, 0, 2))
        b = Permutation((0, 1, 2))
        assert len({a, b, a}) == 2
        assert b < a

    def test_degree_mismatch_in_product(self):
        with pytest.raises(ValueError):
            Permutation((1, 0)) * Permutation((0, 1, 2))

    def test_degree_one_product_is_a_permutation(self):
        # A product at degree 1 gathers one index, which itemgetter would
        # return as the item alone.
        e = Permutation((0,))
        for p in (e * e, e.inverse(), e.conjugated_by(e)):
            assert p == (0,) and type(p) is Permutation

    @pytest.mark.parametrize("seq", [(5, 6, 7), [5, 6, 7]], ids=["tuple", "list"])
    def test_gather_returns_a_tuple_at_any_number_of_indices(self, seq):
        assert gather((1,))(seq) == (6,)
        assert gather([2, 0])(seq) == (7, 5)
        assert gather(Permutation((2, 1, 0)))(seq) == (7, 6, 5)
        assert all(type(gather(ix)(seq)) is tuple for ix in ((0,), (0, 0), (2, 1, 0)))

    def test_immutable(self):
        p = Permutation((1, 0, 2))
        with pytest.raises(TypeError):
            p[0] = 0
        with pytest.raises(AttributeError):
            p.other = 1
        with pytest.raises(TypeError):
            del p[0]
        assert p == (1, 0, 2)

    def test_pickle_and_deepcopy_round_trip(self):
        p = parse_cycles("(1 3 2)(4 5)", 5)
        copies = [pickle.loads(pickle.dumps(p, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for q in copies + [copy.deepcopy(p), copy.copy(p)]:
            assert q == p and hash(q) == hash(p) and tuple(q) == tuple(p)
            assert type(q) is Permutation
        assert pickle.loads(pickle.dumps([p, p.inverse()])) == [p, p.inverse()]

    @given(perms(6).flatmap(lambda p: st.tuples(
        st.just(p), st.permutations(range(p.degree)).map(lambda im: Permutation(tuple(im))))))
    def test_unchecked_products_are_valid_and_compare_by_images(self, pq):
        p, q = pq
        # Re-validating a product or an inverse through the public
        # constructor accepts it and gives an equal permutation.
        assert Permutation(p * q) == p * q
        assert Permutation(p.inverse()) == p.inverse()
        tp, tq = tuple(p), tuple(q)
        assert (p == q) == (tp == tq)
        assert (p < q) == (tp < tq)
        assert (p <= q) == (tp <= tq)
        assert (p > q) == (tp > tq)
        assert (p >= q) == (tp >= tq)
        assert hash(p) == hash(tp) and hash(p * q) == hash(tuple(p * q))
