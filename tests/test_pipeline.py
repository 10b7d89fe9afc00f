import io
import json
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, find, given, settings, strategies as st

from conftest import SHARED_POINT, ORDER_CLASH, SWAP_VS_DOUBLE, FAR_SWAPS, MERGE_PAIR, make_pair
from oracles import endomorphisms_by_products, first_conjugacy_merge, independent_by_product_scan
from subindep.checks import (
    brute_force_independent,
    check_a_inside_ncl_b,
    check_almost_disjoint,
    check_b_inside_ncl_a,
    check_commuting,
    check_normal_asymmetry,
    check_order_divisibility,
    recheck_witness,
)
from subindep import cli, homs, pipeline
from subindep.atlas import MAX_ATLAS_DEGREE, classify_all_pairs, render_report
from subindep.groups import BudgetExceeded, GroupMap, closure
from subindep.homs import ExtensionConflict, ExtensionResult, enumerate_endomorphisms, extend
from subindep.perm import Permutation, cycle_string, gather, parse_cycles
from subindep.pipeline import (
    Config,
    MAX_SPEC_CHARS_PER_POINT,
    MAX_SPEC_DEGREE,
    MAX_SPEC_GENERATORS,
    MAX_SPEC_INPUT_CHARS,
    PairSpecError,
    Step,
    decide,
    decide_pair,
    format_decision,
    parse_pair_spec,
)


def P(text: str, degree: int) -> Permutation:
    return parse_cycles(text, degree)


def spec_dict(spec) -> dict:
    degree, a, b = spec
    return {"degree": degree, "A": a, "B": b}


def within_alarm(seconds: float, fn, *args):
    """fn(*args), raising TimeoutError if it runs past the wall-clock bound."""
    def overran(signum, frame):
        raise TimeoutError(f"{fn.__name__} overran its {seconds} s wall-clock bound")

    old = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestParsePairSpec:
    def test_main_example_spec(self):
        pair = parse_pair_spec(spec_dict(SWAP_VS_DOUBLE))
        assert (pair.a.order, pair.b.order, pair.degree) == (2, 2, 4)

    def test_identity_generator_spelling(self):
        pair = parse_pair_spec({"degree": 3, "A": ["e"], "B": ["(1 2 3)"]})
        assert pair.a.order == 1 and pair.b.order == 3

    def test_input_limits_are_inclusive(self):
        pair = parse_pair_spec({"degree": MAX_SPEC_DEGREE,
                                "A": ["(1 2)"] * MAX_SPEC_GENERATORS,
                                "B": ["(3 4)"] * MAX_SPEC_GENERATORS})
        assert (pair.degree, pair.a.order, pair.b.order) == (1024, 2, 2)

    @pytest.mark.parametrize("bad", [
        42,
        {"degree": 3, "A": ["(1 2)"]},
        {"degree": 0, "A": [], "B": []},
        {"degree": "3", "A": [], "B": []},
        {"degree": 3, "A": "(1 2)", "B": []},
        {"degree": 3, "A": [12], "B": []},
        {"degree": 3, "A": ["(1 4)"], "B": []},
        {"degree": 3, "A": ["(1 2"], "B": []},
        {"degree": True, "A": ["e"], "B": ["e"]},
        {"degree": 1025, "A": ["(1 2)"], "B": ["(3 4)"]},
        {"degree": 10**9, "A": ["(1 2)"], "B": ["(3 4)"]},
        {"degree": 4, "A": ["(1 2)"] * 65, "B": ["(3 4)"]},
        {"degree": 4, "A": ["(1 2)"], "B": ["(3 4)"] * 65},
        {"degree": 4, "A": ["(1 ²)"], "B": []},
        # A point past int()'s 4300-digit limit, within the length cap.
        {"degree": 1024, "A": ["(1 " + "1" * 4400 + ")"], "B": []},
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(PairSpecError):
            parse_pair_spec(bad)

    def test_subgroup_budget_enforced(self):
        with pytest.raises(PairSpecError):
            parse_pair_spec({"degree": 4, "A": ["(1 2 3 4)"], "B": []},
                            max_group_order=3)

    @pytest.mark.parametrize("degree, longest", [(1, 1), (2, 5), (9, 22), (10, 26), (1024, 4525)])
    def test_every_canonical_generator_fits_the_length_cap(self, degree, longest):
        # The longest canonical string of a degree moves every point, in
        # transpositions and, at odd degree, one 3-cycle.  Comma
        # separators make it longer still.
        images = list(range(degree))
        for i in range(0, degree - 1, 2):
            images[i], images[i + 1] = i + 1, i
        if degree % 2 and degree > 1:
            images[-3:] = [degree - 2, degree - 1, degree - 3]
        p = Permutation(images)
        text = cycle_string(p)
        assert len(text) == longest
        for s in (text, text.replace(" ", ", ")):
            assert p in parse_pair_spec({"degree": degree, "A": [s], "B": []}).a

    @pytest.mark.parametrize("degree", [2, 9, 1024])
    def test_generator_length_cap_boundary(self, degree):
        at_cap = "(1 2)".ljust(MAX_SPEC_CHARS_PER_POINT * degree)
        assert parse_pair_spec({"degree": degree, "A": [at_cap], "B": [at_cap]}).a.order == 2
        for side in ("A", "B"):
            spec = {"degree": degree, "A": ["(1 2)"], "B": ["(1 2)"]}
            spec[side] = ["(1 2)", at_cap + " "]
            with pytest.raises(PairSpecError, match=f"{side} has a generator longer than"):
                parse_pair_spec(spec)

    def test_generators_at_the_length_cap_parse_in_linear_time(self):
        # 128 strings of 1,228 transpositions at degree 1024, just under the
        # cap.  Multiplying cycle by cycle costs the degree per cycle (about
        # 10 s on a 2-core machine); building the product in place costs
        # the string length.
        swaps = "(1 2)" * 1228
        assert len(swaps) <= MAX_SPEC_CHARS_PER_POINT * 1024
        d = within_alarm(5, decide, {"degree": 1024, "A": [swaps] * 64, "B": [swaps] * 64})
        assert d.status == "Independent"

    def test_over_long_spec_is_rejected_before_parsing(self, monkeypatch):
        # 128 generators of 6,250 characters, 0.8 MB of JSON: every point of
        # degree 1024 in one comma-separated cycle, padded with spaces.
        # Without the cap it parses and decides in about a quarter second.
        cycle = "(" + ", ".join(str(i) for i in range(1, 1025)) + ")"
        spec = {"degree": 1024, "A": [cycle.ljust(6250)] * 64, "B": [cycle.ljust(6250)] * 64}
        assert len(json.dumps(spec)) > 800_000

        def never(*args):
            raise AssertionError("an over-long generator reached the parser")

        monkeypatch.setattr(pipeline, "parse_cycles", never)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            with pytest.raises(PairSpecError, match="longer than"):
                parse_pair_spec(spec)
            times.append(time.perf_counter() - t0)
        assert min(times) < 1e-3


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert list(cfg._fields) == [
            "max_group_order", "endo_budget", "run_diagnostics"]
        assert (cfg.max_group_order, cfg.endo_budget, cfg.run_diagnostics) == (5040, 256, False)

    @pytest.mark.parametrize("kwargs", [
        {"max_group_order": 0},
        {"endo_budget": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Config(**kwargs)
        with pytest.raises(ValueError):
            Config()._replace(**kwargs)


class TestDecisions:
    def test_e1_dependent_at_the_order_check(self):
        d = decide(spec_dict(SHARED_POINT))
        assert d.status == "Dependent" and d.step is Step.ORDER
        assert d.stats.join_order is None  # decided before the join was built

    def test_e2_dependent_with_the_documented_orders(self):
        d = decide(spec_dict(ORDER_CLASH))
        assert d.status == "Dependent" and d.step is Step.ORDER
        assert (d.witness.order_b, d.witness.order_ab) == (3, 2)

    def test_main_example_independent_at_exhaustion(self):
        d = decide(spec_dict(SWAP_VS_DOUBLE))
        assert d.status == "Independent" and d.step is Step.BRUTE_FORCE
        assert d.stats.join_order == 8
        assert d.stats.ncl_a_order == 4 and d.stats.ncl_b_order == 4
        assert d.stats.endo_a == 2 and d.stats.endo_b == 2
        assert d.stats.pairs_checked == 2

    def test_cached_endomorphisms_keep_a_smaller_budget(self):
        # C2^3 has 8^3 = 512 candidate maps, over the 22^2 = 484 that
        # endo_budget=22 allows; the default budget decides at Step4.
        spec = {"degree": 8, "A": ["(1 2)", "(3 4)", "(5 6)"], "B": ["(1 7)(2 8)"]}
        tight = Config(endo_budget=22)
        assert decide(spec, tight).step is Step.BUDGET
        pair = parse_pair_spec(spec)
        assert decide_pair(pair).step is Step.BRUTE_FORCE
        d = decide_pair(pair, tight)
        assert d.status == "Inconclusive" and d.step is Step.BUDGET

    def test_memoized_endomorphisms_keep_a_smaller_budget(self, monkeypatch):
        # The default budget decides at Step4 and memoizes End(C2^3); a
        # pair parsed anew reads the memoized count of 512 candidate maps,
        # and endo_budget=22 still trips without a search.
        spec = {"degree": 8, "A": ["(1 2)", "(3 4)", "(5 6)"], "B": ["(1 7)(2 8)"]}
        assert decide(spec).step is Step.BRUTE_FORCE
        searched = []
        monkeypatch.setattr(homs, "closure", lambda *args, **kwargs: searched.append(args))
        monkeypatch.setattr(homs, "propagate_images", lambda *args: searched.append(args))
        d = decide(spec, Config(endo_budget=22))
        assert d.status == "Inconclusive" and d.step is Step.BUDGET
        assert d.witness.context == "searching 512 candidate maps"
        assert searched == []

    def test_gap_example_dependent_at_exhaustion(self):
        d = decide(spec_dict(FAR_SWAPS))
        assert d.status == "Dependent" and d.step is Step.BRUTE_FORCE
        # Both separatedness stages ran (and passed) before step 4.
        assert d.stats.ncl_a_order == 8 and d.stats.ncl_b_order == 4
        assert d.witness.beta.is_identity()
        # The scan extends (alpha, id_B) in End(A) order and stops at the
        # first failing pair, the eighth.
        assert d.stats.pairs_checked == 8
        assert cycle_string(d.witness.conflict.element) == "(1 3)(2 4)(5 6)"

    def test_merge_example_decided_by_the_earlier_order_check(self):
        # The order check fires on the merge example; the merge itself is
        # asserted through the plain conjugacy scan.
        d = decide(spec_dict(MERGE_PAIR))
        assert d.status == "Dependent" and d.step is Step.ORDER
        pair = make_pair(*MERGE_PAIR)
        assert set(first_conjugacy_merge(pair.a, pair.join)) == {P("(1 2)", 4), P("(3 4)", 4)}

    def test_commuting_pair_independent_without_join(self):
        d = decide({"degree": 4, "A": ["(1 2)"], "B": ["(3 4)"]})
        assert d.status == "Independent" and d.step is Step.COMMUTING
        assert d.stats.join_order is None

    def test_normal_asymmetry_fires_between_steps_two_and_three(self):
        # A single swap against the double-swap group: the join is the
        # order-8 dihedral group, B is normal in it, A is not.
        d = decide({"degree": 4, "A": ["(3 4)"],
                    "B": ["(1 2)(3 4)", "(1 3)(2 4)"]})
        assert d.status == "Dependent" and d.step is Step.NORMAL_ASYM
        assert d.witness.normal_side == "B"
        assert d.stats.join_order == 8
        assert d.stats.ncl_a_order is None  # step 3 never ran

    def test_membership_stages_decide_in_wider_ambient(self):
        # A transposition against a coordinate double-swap group: every
        # earlier stage passes, then one side's closure swallows the other.
        d = decide({"degree": 5, "A": ["(4 5)"],
                    "B": ["(1 2)(3 4)", "(1 3)(2 4)"]})
        assert d.status == "Dependent" and d.step is Step.B_IN_NCL_A
        assert d.witness.region == "b_in_ncl_a"
        assert d.stats.ncl_b_order is None  # Step3ii never ran
        mirror = decide({"degree": 5, "A": ["(1 2)(3 4)", "(1 3)(2 4)"],
                         "B": ["(4 5)"]})
        assert mirror.status == "Dependent" and mirror.step is Step.A_IN_NCL_B

    def test_self_pair_dependent_at_intersection(self):
        d = decide({"degree": 3, "A": ["(1 2)"], "B": ["(1 2)"]})
        assert d.status == "Dependent" and d.step is Step.INTERSECTION

    def test_trivial_pair_independent(self):
        d = decide({"degree": 3, "A": ["e"], "B": ["e"]})
        assert d.status == "Independent" and d.step is Step.COMMUTING

    def test_inconclusive_only_on_budget(self):
        d = decide(spec_dict(SWAP_VS_DOUBLE), Config(max_group_order=7))
        assert d.status == "Inconclusive" and d.step is Step.BUDGET
        assert d.witness.budget == "max_group_order" and d.witness.limit == 7
        assert d.stats.join_order is None  # the join never finished

        d2 = decide(spec_dict(SWAP_VS_DOUBLE), Config(endo_budget=1))
        assert d2.status == "Inconclusive" and d2.step is Step.BUDGET
        assert d2.witness.budget == "endo_budget"
        # The ladder's orders survive the trip; Step4's counts do not.
        assert d2.stats.join_order == 8
        assert d2.stats.ncl_a_order == 4 and d2.stats.ncl_b_order == 4
        assert d2.stats.endo_a is None

    def test_order_check_scan_is_bounded(self):
        # Twelve disjoint transpositions against eleven double
        # transpositions: every one of the 8.4M (a, b) pairs passes the
        # order check, so only its pair cap keeps Step2ii from scanning
        # them all (about 200 s).  The join then trips max_group_order.
        k = 12
        spec = {"degree": 4 * k - 2,
                "A": [f"({2 * i - 1} {2 * i})" for i in range(1, k + 1)],
                "B": [f"({2 * i} {2 * i + 1})({2 * k + 2 * i - 1} {2 * k + 2 * i})"
                      for i in range(1, k)]}
        d = within_alarm(10, decide, spec)
        assert d.status == "Inconclusive" and d.step is Step.BUDGET
        assert d.witness.budget == "max_group_order"

    def test_order_check_work_is_bounded_at_the_largest_degree(self):
        # The same spec padded to degree 1,024, where each product and
        # order() costs 1,024 steps: the pair cap shrinks with the
        # degree, so Step2ii does no more work than at degree 8.
        k = 12
        spec = {"degree": MAX_SPEC_DEGREE,
                "A": [f"({2 * i - 1} {2 * i})" for i in range(1, k + 1)],
                "B": [f"({2 * i} {2 * i + 1})({2 * k + 2 * i - 1} {2 * k + 2 * i})"
                      for i in range(1, k)]}
        d = within_alarm(10, decide, spec)
        assert d.status == "Inconclusive" and d.step is Step.BUDGET
        assert d.witness.budget == "max_group_order"


class TestStepAttributionHonesty:
    CHECKS = {
        Step.INTERSECTION: check_almost_disjoint,
        Step.COMMUTING: check_commuting,
        Step.ORDER: check_order_divisibility,
        Step.NORMAL_ASYM: check_normal_asymmetry,
        Step.B_IN_NCL_A: check_b_inside_ncl_a,
        Step.A_IN_NCL_B: check_a_inside_ncl_b,
        Step.BRUTE_FORCE: brute_force_independent,
    }

    def test_rerunning_the_attributed_check_reproduces_the_verdict(self):
        specs = [SHARED_POINT, ORDER_CLASH, SWAP_VS_DOUBLE, FAR_SWAPS, MERGE_PAIR,
                 (3, ["(1 2 3)"], ["(1 2)"]),
                 (4, ["(1 2)"], ["(3 4)"]),
                 (3, ["(1 2)"], ["(1 2)"]),
                 (4, ["(3 4)"], ["(1 2)(3 4)", "(1 3)(2 4)"]),
                 (5, ["(4 5)"], ["(1 2)(3 4)", "(1 3)(2 4)"]),
                 (5, ["(1 2)(3 4)", "(1 3)(2 4)"], ["(4 5)"])]
        for spec in specs:
            d = decide(spec_dict(spec))
            pair = make_pair(*spec)
            out = self.CHECKS[d.step](pair)
            assert out.verdict.value == d.status.lower(), spec
            assert recheck_witness(pair, d.witness)


class TestDiagnostics:
    def test_independent_decision_gets_full_audit(self):
        d = decide(spec_dict(SWAP_VS_DOUBLE), Config(run_diagnostics=True))
        assert d.diagnostics == {"witness_rechecked": True,
                                 "factoring_isomorphisms": True,
                                 "extension_law_sampled": True}

    def test_dependent_decision_rechecks_witness(self):
        d = decide(spec_dict(ORDER_CLASH), Config(run_diagnostics=True))
        assert d.diagnostics == {"witness_rechecked": True}

    def test_diagnostics_off_by_default(self):
        assert decide(spec_dict(ORDER_CLASH)).diagnostics is None

    def test_extension_law_not_reported_when_its_budget_trips(self):
        # Step2i decides without endomorphisms; the sample needs them.
        d = decide({"degree": 4, "A": ["(1 2)"], "B": ["(3 4)"]},
                   Config(endo_budget=1, run_diagnostics=True))
        assert d.status == "Independent" and d.step is Step.COMMUTING
        assert d.diagnostics["extension_law_sampled"] is None

    def test_audit_tripping_the_join_budget_keeps_the_verdict(self):
        # The join has order 9; Step2i decides without it, the audits need it.
        spec = {"degree": 6, "A": ["(1 2 3)"], "B": ["(4 5 6)"]}
        plain = decide(spec, Config(max_group_order=5))
        d = decide(spec, Config(max_group_order=5, run_diagnostics=True))
        for out in (plain, d):
            assert out.status == "Independent" and out.step is Step.COMMUTING
        assert d.diagnostics == {"witness_rechecked": True,
                                 "factoring_isomorphisms": None,
                                 "extension_law_sampled": None}

    def test_audit_of_c2_to_the_fifth_finishes_within_a_wall_clock_bound(self):
        # End(C2^5) has 2^25 maps and its search 32^5 candidates, over the
        # default endo_budget ** 2, so the sampled law trips its budget
        # instead of searching.  The alarm turns a hang into a failure.
        spec = {"degree": 12, "A": ["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"],
                "B": ["(11 12)"]}
        d = within_alarm(10, decide, spec, Config(run_diagnostics=True))
        assert d.status == "Independent" and d.step is Step.COMMUTING
        assert d.diagnostics["witness_rechecked"] is True
        assert d.diagnostics["extension_law_sampled"] is None

    def test_audit_of_c16_squared_trips_the_search_work_budget(self):
        # End(C16 x C16) has 65,536 maps, within endo_budget ** 2, but
        # each would propagate over 256 elements: the sampled law trips
        # the work bound before searching.
        a = [f"({' '.join(map(str, range(1, 17)))})", f"({' '.join(map(str, range(17, 33)))})"]
        spec = {"degree": 34, "A": a, "B": ["(33 34)"]}
        d = within_alarm(10, decide, spec, Config(run_diagnostics=True))
        assert d.status == "Independent" and d.step is Step.COMMUTING
        assert d.diagnostics == {"witness_rechecked": True,
                                 "factoring_isomorphisms": True,
                                 "extension_law_sampled": None}

    @pytest.mark.parametrize("k", [6, 9])
    def test_factoring_audit_of_c2_powers_is_bounded_in_time(self, k):
        # A = C2^k against a disjoint transposition.  The factoring audit
        # compares group orders and searches nothing.  The sampled law
        # trips endo_budget before searching: on the 64^6 candidate maps
        # at k = 6, and on A's order 512 at k = 9.
        a = [f"({2 * i + 1} {2 * i + 2})" for i in range(k)]
        spec = {"degree": 2 * k + 2, "A": a, "B": [f"({2 * k + 1} {2 * k + 2})"]}
        d = within_alarm(10, decide, spec, Config(run_diagnostics=True))
        assert d.status == "Independent" and d.step is Step.COMMUTING
        assert d.diagnostics["witness_rechecked"] is True
        assert d.diagnostics["factoring_isomorphisms"] is True
        assert d.diagnostics["extension_law_sampled"] is None

    # S3 against a disjoint 3-cycle: Step2i decides; End(S3) has 10 maps
    # and End(C3) 3, so 25 samples draw some of the 30 pairs twice.
    LAW_SPEC = {"degree": 6, "A": ["(1 2)", "(1 2 3)"], "B": ["(4 5 6)"]}

    def test_degree_one_gets_full_audit(self):
        d = decide({"degree": 1, "A": ["e"], "B": ["e"]}, Config(run_diagnostics=True))
        assert d.status == "Independent"
        assert d.diagnostics == {"witness_rechecked": True,
                                 "factoring_isomorphisms": True,
                                 "extension_law_sampled": True}

    def test_law_fails_when_a_sampled_pair_does_not_extend(self, monkeypatch):
        asked = []

        def second_pair_conflicts(alpha, beta, pair):
            asked.append((alpha, beta))
            if len(asked) < 2:
                return extend(alpha, beta, pair)
            e = pair.join.identity
            return ExtensionResult(None, ExtensionConflict(e, e, e))

        monkeypatch.setattr(pipeline, "extend", second_pair_conflicts)
        d = decide(self.LAW_SPEC, Config(run_diagnostics=True))
        assert d.diagnostics["extension_law_sampled"] is False
        assert len(asked) == 2

    def test_law_fails_on_a_table_that_is_no_homomorphism(self, monkeypatch):
        def swapped_identity(alpha, beta, pair):
            # The identity of the join with the images of a transposition
            # and a 3-cycle exchanged: a bijection that changes orders.
            j = pair.join
            table = list(range(j.order))
            s, t = j.index_of(parse_cycles("(1 2)", 6)), j.index_of(parse_cycles("(1 2 3)", 6))
            table[s], table[t] = t, s
            return ExtensionResult(GroupMap(j, tuple(table)), None)

        monkeypatch.setattr(pipeline, "extend", swapped_identity)
        d = decide(self.LAW_SPEC, Config(run_diagnostics=True))
        assert d.diagnostics["extension_law_sampled"] is False

    def test_law_extends_each_distinct_sampled_pair_once(self, monkeypatch):
        asked = []

        def spy(alpha, beta, pair):
            asked.append((enumerate_endomorphisms(alpha.group).index(alpha),
                          enumerate_endomorphisms(beta.group).index(beta)))
            return extend(alpha, beta, pair)

        monkeypatch.setattr(pipeline, "extend", spy)
        d = decide(self.LAW_SPEC, Config(run_diagnostics=True))
        assert d.diagnostics["extension_law_sampled"] is True
        # Replay the audit's stream as 25 draws of a map of A, a map of B
        # and 8 words of two join elements each.
        pair = parse_pair_spec(self.LAW_SPEC)
        endos_a, endos_b = enumerate_endomorphisms(pair.a), enumerate_endomorphisms(pair.b)
        rng = random.Random(0)
        expected = []
        for _ in range(25):
            key = (endos_a.index(rng.choice(endos_a)), endos_b.index(rng.choice(endos_b)))
            if key not in expected:
                expected.append(key)
            for _ in range(16):
                rng.randrange(pair.join.order)
        assert (len(endos_a), len(endos_b), pair.join.order) == (10, 3, 18)
        assert asked == expected and len(expected) < 25

    @pytest.mark.parametrize("spec", [LAW_SPEC, {"degree": 1, "A": ["e"], "B": ["e"]},
                                      spec_dict(SWAP_VS_DOUBLE),
                                      {"degree": 3, "A": ["(1 2)", "(1 2 3)"], "B": ["e"]}],
                             ids=["degree-6", "degree-1", "join-order-8", "trivial-b"])
    def test_law_products_are_permutation_products(self, monkeypatch, spec):
        # Every product the audit forms as an image gather equals the
        # Permutation product of its factors, at degree 1 too.
        gathered = []

        def spy(y):
            get = gather(y)

            def recording(x):
                xy = get(x)
                gathered.append((x, y, xy))
                return xy
            return recording

        monkeypatch.setattr(pipeline, "gather", spy)
        d = decide(spec, Config(run_diagnostics=True))
        assert d.diagnostics["extension_law_sampled"] is True
        for x, y, xy in gathered:
            assert xy == Permutation(x) * Permutation(y)
        # Two products for each of the 8 words of the 25 samples.
        assert len(gathered) == 400
        # The words, and the maps applied to them, are those that
        # random.Random(0).randrange draws: a map of A, a map of B, then 8
        # words of two join elements, 25 times.  A side with one map still
        # draws, since randrange(1) consumes bits.
        pair = parse_pair_spec(spec)
        endos_a, endos_b = enumerate_endomorphisms(pair.a), enumerate_endomorphisms(pair.b)
        elements = pair.join.elements
        randrange = random.Random(0).randrange
        expected = []
        for _ in range(25):
            alpha, beta = endos_a[randrange(len(endos_a))], endos_b[randrange(len(endos_b))]
            gamma = extend(alpha, beta, pair).map.images
            for _ in range(8):
                ix, iy = randrange(len(elements)), randrange(len(elements))
                expected.append((elements[ix], elements[iy]))
                expected.append((elements[gamma[ix]], elements[gamma[iy]]))
        assert [(x, y) for x, y, _ in gathered] == expected

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 4), (10, 3, 18), (2, 58, 48)])
    def test_law_stream_replays_randrange(self, sizes):
        # A map of A, a map of B, then 8 words of two join elements, 25
        # times, as random.Random(0).randrange draws them; a size of 1
        # still consumes bits.
        n_a, n_b, n_join = sizes
        randrange = random.Random(0).randrange
        expected = []
        for _ in range(25):
            a, b = randrange(n_a), randrange(n_b)
            expected.append((a, b, tuple((randrange(n_join), randrange(n_join)) for _ in range(8))))
        assert pipeline._law_stream(*sizes) == tuple(expected)
        assert pipeline._law_stream(*sizes) is pipeline._law_stream(*sizes)
        assert pipeline._law_stream.cache_info().maxsize == pipeline.LAW_STREAMS

    def test_exhaustive_recheck_runs_under_the_given_budget(self):
        pair = make_pair(*SWAP_VS_DOUBLE)
        witness = decide(spec_dict(SWAP_VS_DOUBLE)).witness
        assert recheck_witness(pair, witness)
        assert recheck_witness(pair, witness, endo_budget=2)
        assert not recheck_witness(pair, witness, endo_budget=1)

    def test_diagnostics_recheck_with_the_config_budget(self, monkeypatch):
        seen = []

        def spy(pair, witness, endo_budget):
            seen.append(endo_budget)
            return True

        monkeypatch.setattr(pipeline, "recheck_witness", spy)
        decide(spec_dict(SWAP_VS_DOUBLE), Config(endo_budget=7, run_diagnostics=True))
        assert seen == [7]


@st.composite
def pair_specs(draw):
    """Degree at most 7 and up to three random permutations a side, in
    cycle notation."""
    degree = draw(st.integers(min_value=1, max_value=7))
    gens = st.lists(st.permutations(range(degree)).map(lambda p: cycle_string(Permutation(p))),
                    max_size=3)
    return {"degree": degree, "A": draw(gens), "B": draw(gens)}


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(pair_specs())
    def test_decide_answers_in_bounded_time_with_a_checkable_witness(self, spec):
        for diagnostics in (False, True):
            d = within_alarm(20, decide, spec, Config(run_diagnostics=diagnostics))
            assert d.status in ("Independent", "Dependent", "Inconclusive")
            if d.status != "Inconclusive":
                assert recheck_witness(parse_pair_spec(spec), d.witness)
            if diagnostics and d.status == "Independent":
                assert d.diagnostics["factoring_isomorphisms"] is True


@st.composite
def far_swap_specs(draw):
    """Degree 6 or 7: one or two transpositions against a double
    transposition, half the time beside a transposition, in the shape of
    FAR_SWAPS.  Such pairs often get past every ladder stage to Step4."""
    degree = draw(st.sampled_from((6, 7)))
    points = st.permutations(range(1, degree + 1))

    def swap() -> str:
        p = draw(points)
        return f"({p[0]} {p[1]})"

    p = draw(points)
    a = [swap() for _ in range(draw(st.integers(1, 2)))]
    b = [f"({p[0]} {p[1]})({p[2]} {p[3]})"] + [swap() for _ in range(draw(st.integers(0, 1)))]
    return {"degree": degree, "A": a, "B": b}


class TestVerdictFuzz:
    """decide against the definitional product scan of tests/oracles.py,
    which shares no code with Step4, past the atlas's degree 5.  The scan
    extends every pair in End(A) x End(B) over the whole join, so only
    pairs whose endomorphism sets and join stay small are compared."""

    MAX_ENDOS = 16
    MAX_JOIN = 720

    @settings(max_examples=60, deadline=None)
    @given(far_swap_specs())
    def test_decide_agrees_with_the_product_scan(self, spec):
        pair = parse_pair_spec(spec)
        assume(pair.join.order <= self.MAX_JOIN)
        assume(len(endomorphisms_by_products(pair.a)) <= self.MAX_ENDOS)
        assume(len(endomorphisms_by_products(pair.b)) <= self.MAX_ENDOS)
        d = within_alarm(20, decide, spec)
        assert d.status == ("Independent" if independent_by_product_scan(pair) else "Dependent")

    def test_the_strategy_reaches_step4_dependence(self):
        def step4_dependent(spec):
            d = decide(spec)
            return d.step is Step.BRUTE_FORCE and d.status == "Dependent"
        spec = find(far_swap_specs(), step4_dependent,
                    settings=settings(max_examples=500, derandomize=True, database=None))
        assert not independent_by_product_scan(parse_pair_spec(spec))


@st.composite
def involution_pair_specs(draw):
    """Degree 5 to 8: one to three random involutions on each side."""
    degree = draw(st.integers(5, 8))

    def involution() -> str:
        p = draw(st.permutations(range(1, degree + 1)))
        return "".join(f"({p[2 * i]} {p[2 * i + 1]})" for i in range(draw(st.integers(1, degree // 2))))

    return {"degree": degree, **{side: [involution() for _ in range(draw(st.integers(1, 3)))]
                                 for side in "AB"}}


def generators(spec: dict, side: str) -> list[Permutation]:
    return [parse_cycles(g, spec["degree"]) for g in spec[side]]


def join_order_at_most(spec: dict, limit: int) -> bool:
    try:
        closure(generators(spec, "A") + generators(spec, "B"), spec["degree"], limit)
    except BudgetExceeded:
        return False
    return True


def conjugated(spec: dict, data) -> dict:
    """Both sides conjugated by one permutation."""
    t = Permutation(tuple(data.draw(st.permutations(range(spec["degree"])))))
    return {**spec, **{side: [cycle_string(g.conjugated_by(t)) for g in generators(spec, side)]
                       for side in "AB"}}


def swapped(spec: dict, data) -> dict:
    return {**spec, "A": spec["B"], "B": spec["A"]}


def padded(spec: dict, data) -> dict:
    """The same generators with fixed points up to degree 8."""
    return {**spec, "degree": 8}


def regenerated(spec: dict, data) -> dict:
    """Each side's generators with a product of two of them added, in
    reverse order: the same subgroups, generated another way."""
    out = dict(spec)
    for side in "AB":
        gens = generators(spec, side)
        i, j = (data.draw(st.integers(0, len(gens) - 1)) for _ in range(2))
        out[side] = [cycle_string(g) for g in reversed(gens + [gens[i] * gens[j]])]
    return out


class TestVerdictInvariants:
    """Metamorphic checks on random involution pairs: relabelling the
    points, swapping the sides, padding with fixed points or generating
    each side another way keeps the status, and each witness rechecks on
    the pair it was found for.  Where Step2ii scans every pair, |A| * |B|
    at most 65,536, the deciding step is kept too, except that a swap may
    exchange Step3i and Step3ii: a pair meeting both conditions still
    decides at Step3i after the swap."""

    STEP3 = {Step.B_IN_NCL_A, Step.A_IN_NCL_B}

    @pytest.mark.parametrize("transform", [conjugated, swapped, padded, regenerated])
    @settings(max_examples=100, deadline=None)
    @given(spec=involution_pair_specs(), data=st.data())
    def test_status_and_step_are_kept(self, transform, spec, data):
        assume(join_order_at_most(spec, TestVerdictFuzz.MAX_JOIN))
        other = transform(spec, data)
        pair, moved = parse_pair_spec(spec), parse_pair_spec(other)
        d, e = (within_alarm(20, decide_pair, p) for p in (pair, moved))
        assert e.status == d.status
        if pair.a.order * pair.b.order <= 65_536:
            assert e.step is d.step or (transform is swapped and {d.step, e.step} <= self.STEP3)
        if d.status != "Inconclusive":
            assert recheck_witness(pair, d.witness) and recheck_witness(moved, e.witness)

    @settings(max_examples=60, deadline=None)
    @given(involution_pair_specs())
    def test_decide_agrees_with_the_product_scan(self, spec):
        assume(join_order_at_most(spec, TestVerdictFuzz.MAX_JOIN))
        pair = parse_pair_spec(spec)
        # The End count spreads every choice of generator images, 76^3 of
        # them on a side of order 720, so only sides of at most MAX_ENDOS
        # elements are counted.
        assume(max(pair.a.order, pair.b.order) <= TestVerdictFuzz.MAX_ENDOS)
        assume(len(endomorphisms_by_products(pair.a)) <= TestVerdictFuzz.MAX_ENDOS)
        assume(len(endomorphisms_by_products(pair.b)) <= TestVerdictFuzz.MAX_ENDOS)
        d = within_alarm(20, decide, spec)
        assert d.status == ("Independent" if independent_by_product_scan(pair) else "Dependent")


def strip_elapsed(doc: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": X', doc)


# format_decision's JSON, elapsed_ms masked, with diagnostics on, for the
# scripts/run_example_pairs.py pairs and the first perfbench ladder_mix
# entry of each cheap step.
PINNED_DECISIONS = json.loads(
    (Path(__file__).parent / "data" / "pinned_decisions.json").read_text(encoding="utf-8"))


class TestFormatting:
    def test_json_schema_keys(self):
        doc = json.loads(format_decision(decide(spec_dict(SWAP_VS_DOUBLE)), "json"))
        assert list(doc) == ["status", "step", "witness", "stats", "diagnostics"]
        assert doc["status"] == "independent"
        assert doc["step"] == "Step4"
        assert list(doc["stats"]) == ["join_order", "ncl_a_order", "ncl_b_order",
                                      "endo_a", "endo_b", "pairs_checked",
                                      "elapsed_ms"]
        assert doc["stats"]["pairs_checked"] == 2
        assert doc["witness"]["kind"] == "exhaustive"
        assert doc["diagnostics"] is None

    def test_json_nulls_for_never_computed_stats(self):
        doc = json.loads(format_decision(decide(spec_dict(SHARED_POINT)), "json"))
        assert doc["status"] == "dependent"
        assert doc["stats"]["join_order"] is None
        assert doc["stats"]["endo_a"] is None

    def test_json_stable_modulo_elapsed(self):
        one = format_decision(decide(spec_dict(FAR_SWAPS)), "json")
        two = format_decision(decide(spec_dict(FAR_SWAPS)), "json")
        assert strip_elapsed(one) == strip_elapsed(two)

    def test_text_mode_names_verdict_and_step(self):
        text = format_decision(decide(spec_dict(SHARED_POINT)), "text")
        assert "DEPENDENT" in text and "step 2(ii)" in text
        assert "(1 2)" in text  # the witness element appears

    def test_text_mode_independent(self):
        text = format_decision(decide(spec_dict(SWAP_VS_DOUBLE)), "text")
        assert "INDEPENDENT" in text and "step 4" in text

    @pytest.mark.parametrize("case", PINNED_DECISIONS,
                             ids=[c["label"].replace(" ", "-") for c in PINNED_DECISIONS])
    def test_decide_json_is_pinned(self, case):
        out = format_decision(decide(case["spec"], Config(run_diagnostics=True)), "json")
        assert strip_elapsed(out) == case["json"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            format_decision(decide(spec_dict(SHARED_POINT)), "xml")


def run_cli(*args, stdin: str | None = None):
    return subprocess.run([sys.executable, "-m", "subindep", *args],
                          capture_output=True, text=True, input=stdin, timeout=120)


class TestCli:
    def test_decide_inline_independent_exit_0(self):
        r = run_cli("decide", "--inline", "--degree", "4",
                    "--a", "(1 2)", "--b", "(1 3)(2 4)")
        assert r.returncode == 0
        assert json.loads(r.stdout)["status"] == "independent"

    def test_decide_stdin_json(self):
        r = run_cli("decide", "--input", "-",
                    stdin='{"degree": 3, "A": ["(1 2)"], "B": ["(1 3)"]}')
        assert r.returncode == 0
        assert json.loads(r.stdout)["status"] == "dependent"

    def test_decide_file_input(self, tmp_path):
        f = tmp_path / "pair.json"
        f.write_text(json.dumps(spec_dict(SWAP_VS_DOUBLE)))
        r = run_cli("decide", "--input", str(f), "--format", "text")
        assert r.returncode == 0
        assert "INDEPENDENT" in r.stdout

    def test_inconclusive_exits_2(self):
        r = run_cli("decide", "--inline", "--degree", "4",
                    "--a", "(1 2)", "--b", "(1 3)(2 4)", "--endo-budget", "1")
        assert r.returncode == 2
        assert json.loads(r.stdout)["status"] == "inconclusive"

    def test_bad_cycle_exits_1(self):
        r = run_cli("decide", "--inline", "--degree", "3", "--a", "(1 2", "--b", "e")
        assert r.returncode == 1 and "error" in r.stderr

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_input_exits_1(self, tmp_path, source):
        # json.loads recurses once per level and raises RecursionError.
        text = "[" * 100_000 + "]" * 100_000
        if source == "file":
            f = tmp_path / "deep.json"
            f.write_text(text)
            r = run_cli("decide", "--input", str(f))
        else:
            r = run_cli("decide", "--input", "-", stdin=text)
        assert r.returncode == 1
        assert r.stderr.startswith("subindep: error: input is not valid JSON: ")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_input_past_the_length_bound_exits_1(self, tmp_path, source):
        # A valid spec padded with whitespace decides at the bound and is
        # rejected one character past it, before it is decoded.
        spec = json.dumps(spec_dict(SHARED_POINT))
        for extra, code in ((0, 0), (1, 1)):
            text = spec.ljust(MAX_SPEC_INPUT_CHARS + extra)
            if source == "file":
                f = tmp_path / "padded.json"
                f.write_text(text)
                r = run_cli("decide", "--input", str(f))
            else:
                r = run_cli("decide", "--input", "-", stdin=text)
            assert r.returncode == code, r.stderr
        assert r.stderr == (f"subindep: error: input is longer than "
                            f"{MAX_SPEC_INPUT_CHARS} characters\n")

    def test_length_bound_admits_the_largest_spec(self):
        longest = "(1 2)".ljust(MAX_SPEC_CHARS_PER_POINT * MAX_SPEC_DEGREE)
        sides = [longest] * MAX_SPEC_GENERATORS
        spec = {"degree": MAX_SPEC_DEGREE, "A": sides, "B": sides}
        assert len(json.dumps(spec, indent=2)) <= MAX_SPEC_INPUT_CHARS

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("flags", [("--degree", "9"), ("--a", "(1 2 3)"), ("--b", "(1 2)")],
                             ids=["degree", "a", "b"])
    def test_inline_flags_without_inline_exit_1(self, tmp_path, monkeypatch, capsys,
                                                source, flags):
        # The pair comes from the input alone; a flag it would ignore is
        # refused, not dropped.
        text = json.dumps(spec_dict(SHARED_POINT))
        f = tmp_path / "pair.json"
        f.write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        path = str(f) if source == "file" else "-"
        assert cli.main(["decide", "--input", path, *flags]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("subindep: error: ")
        assert "--inline" in out.err

    def test_missing_input_exits_1(self):
        r = run_cli("decide", "--input", "/nonexistent/pair.json")
        assert r.returncode == 1

    def test_usage_error_exits_1(self):
        assert run_cli("decide").returncode == 1
        assert run_cli("frobnicate").returncode == 1
        assert run_cli("decide", "--inline", "--degree", "3").returncode == 1

    def test_multiple_generator_flags(self):
        r = run_cli("decide", "--inline", "--degree", "6",
                    "--a", "(1 2)", "--a", "(5 6)", "--b", "(1 3)(2 4)",
                    "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["status"] == "dependent" and doc["step"] == "Step4"

    def test_diagnostics_flag(self):
        r = run_cli("decide", "--inline", "--degree", "4",
                    "--a", "(1 2)", "--b", "(1 3)(2 4)", "--diagnostics")
        doc = json.loads(r.stdout)
        assert doc["diagnostics"]["witness_rechecked"] is True

    def test_atlas_writes_report_and_summary(self, tmp_path):
        out = tmp_path / "s3.csv"
        r = run_cli("atlas", "--degree", "3", "--out", str(out))
        assert r.returncode == 0
        summary = json.loads(r.stdout)
        assert summary["pairs"] == 36 and summary["oracle_disagreements"] == []
        assert r.stderr.startswith(f"wrote 36 rows (17 orbits classified) to {out} in ")
        header = out.read_text().splitlines()[0]
        assert header.startswith("pair_id,a_index,b_index,a_gens,b_gens,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_atlas_stderr_times_each_phase(self, tmp_path, capsys, fmt):
        # The phase times go to stderr only: the report holds the same
        # bytes as a render of the same classification, and stdout is the
        # summary alone.
        out = tmp_path / f"s3.{fmt}"
        assert cli.main(["atlas", "--degree", "3", "--format", fmt, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        line = (rf"wrote 36 rows \(17 orbits classified\) to {re.escape(str(out))} in \d+\.\ds "
                r"\(lattice \d+ ms, classify \d+ ms, write \d+ ms\)\n")
        assert re.fullmatch(line, captured.err), captured.err
        assert out.read_text(encoding="utf-8") == render_report(*classify_all_pairs(3), fmt)
        assert "lattice" not in captured.out and json.loads(captured.out)["pairs"] == 36

    def test_atlas_stdout_summary_omits_gap_region_ids(self, tmp_path, capsys):
        out = tmp_path / "s3.json"
        assert cli.main(["atlas", "--degree", "3", "--format", "json",
                         "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "gap_region_ids" not in summary
        assert summary["gap_region_count"] == 0 and summary["pairs"] == 36
        report = json.loads(out.read_text())["summary"]
        assert report["gap_region_ids"] == []
        assert {k: v for k, v in report.items() if k != "gap_region_ids"} == summary

    @pytest.mark.parametrize("flags", [["--full-lattice"], ["--endo-budget", "1"],
                                       ["--max-group-order", "2"], ["--jobs", "2"]])
    def test_atlas_has_no_budget_or_lattice_flags(self, tmp_path, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["atlas", "--degree", "3", *flags, "--out", str(tmp_path / "s3.csv")])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "s3.csv").exists()

    def test_atlas_help_names_the_degree_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["atlas", "--help"])
        assert exc.value.code == 0
        assert f"2..{MAX_ATLAS_DEGREE}" in capsys.readouterr().out

    def test_import_leaves_the_atlas_unloaded(self):
        # Start-up is most of what one decide costs: importing the package
        # and its command line loads neither dataclasses (which imports
        # inspect) nor what only the atlas needs.
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import subindep, subindep.cli\n"
                "print(sorted({'dataclasses', 'multiprocessing', 'csv', 'subindep.atlas'}"
                " & set(sys.modules)))\n")
        r = subprocess.run([sys.executable, "-S", "-c", code, src],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_atlas_rejects_large_degree(self):
        r = run_cli("atlas", "--degree", "6", "--out", "/tmp/nope.csv")
        assert r.returncode == 1
