"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS line
when its assertions hold, so a verbose run reads as a checklist.
"""

import random
import time

from conftest import (
    SHARED_POINT, ORDER_CLASH, SWAP_VS_DOUBLE, FAR_SWAPS, MERGE_PAIR, atlas_run, make_pair, pair_from_row,
)
from oracles import (
    all_subgroups,
    check_union_independent_sets,
    endomorphism_tables_by_words,
    endomorphism_tables_literal,
    endomorphism_tables_pruned,
    find_isomorphism,
    first_conjugacy_merge,
    quotient,
)
from subindep.atlas import classify_all_pairs, render_report
from subindep.checks import (
    check_a_inside_ncl_b,
    check_b_inside_ncl_a,
    recheck_witness,
)
from subindep.groups import (
    GroupMap,
    identity_map,
    propagate_images,
    symmetric_group,
    trivial_map,
)
from subindep.homs import extend
from subindep.perm import parse_cycles
from subindep.pipeline import Step, decide


def P(text, degree):
    return parse_cycles(text, degree)


def elements_of(group):
    return set(group.elements)


def spec_dict(spec):
    degree, a, b = spec
    return {"degree": degree, "A": a, "B": b}


def test_criterion_01_first_worked_example():
    t0 = time.perf_counter()
    d = decide(spec_dict(SHARED_POINT))
    pair = make_pair(*SHARED_POINT)
    join = pair.join
    ncl_b = pair.ncl_b
    elapsed = time.perf_counter() - t0
    assert d.status == "Dependent"
    assert join.order == 6
    assert elements_of(ncl_b) == elements_of(symmetric_group(3))
    assert P("(1 2)", 3) in ncl_b
    assert elapsed < 1.0
    print(f"PASS criterion 1: SHARED_POINT dependent, join order 6, closure of B is "
          f"the full symmetric group and contains (1 2) ({elapsed:.3f}s)")


def test_criterion_02_main_example():
    t0 = time.perf_counter()
    d = decide(spec_dict(SWAP_VS_DOUBLE))
    pair = make_pair(*SWAP_VS_DOUBLE)
    join, ncl_a, ncl_b = pair.join, pair.ncl_a, pair.ncl_b
    meet = {x for x in ncl_a.elements if x in ncl_b}
    elapsed = time.perf_counter() - t0
    assert d.status == "Independent"
    listed = {P(s, 4) for s in ("e", "(1 2)", "(3 4)", "(1 2)(3 4)",
                                "(1 3)(2 4)", "(1 4)(2 3)",
                                "(1 3 2 4)", "(1 4 2 3)")}
    assert elements_of(join) == listed and join.order == 8
    assert elements_of(ncl_a) == {P(s, 4) for s in
                                  ("e", "(1 2)", "(3 4)", "(1 2)(3 4)")}
    assert elements_of(ncl_b) == {P(s, 4) for s in
                                  ("e", "(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)")}
    assert meet == {P("e", 4), P("(1 2)(3 4)", 4)}
    assert elapsed < 1.0
    print(f"PASS criterion 2: main example independent with the exact join, "
          f"closures and meet ({elapsed:.3f}s)")


def test_criterion_03_gap_example_certificate():
    t0 = time.perf_counter()
    d = decide(spec_dict(FAR_SWAPS))
    pair = make_pair(*FAR_SWAPS)
    elapsed = time.perf_counter() - t0
    assert d.status == "Dependent" and d.step is Step.BRUTE_FORCE

    # Separatedness passed before step 4 ran: both closure stats were
    # filled in and the standalone check stays undecided.
    assert d.stats.ncl_a_order == 8 and d.stats.ncl_b_order == 4
    assert not check_a_inside_ncl_b(pair).decided
    assert not check_b_inside_ncl_a(pair).decided

    # The engine's certificate has beta = id and rechecks from scratch.
    assert d.witness.beta.is_identity()
    assert recheck_witness(pair, d.witness)

    # The natural-looking pair (alpha swapping the two transpositions,
    # beta = id) is likewise incompatible: no common extension exists.
    a = pair.a
    g1, g2 = P("(1 2)", 6), P("(5 6)", 6)
    table, conflict = propagate_images(a, [a.index_of(g1), a.index_of(g2)],
                                       [a.index_of(g2), a.index_of(g1)])
    assert conflict is None
    swap = GroupMap(a, table)
    res = extend(swap, identity_map(pair.b), pair)
    assert res.map is None and res.conflict is not None
    assert not extend(swap, identity_map(pair.b), pair).exists

    assert elapsed < 5.0
    print(f"PASS criterion 3: gap example dependent at exhaustion with a "
          f"recheckable certificate; the transposition-swapping pair admits no "
          f"extension ({elapsed:.3f}s)")


def test_criterion_04_order_violation_example():
    d = decide(spec_dict(ORDER_CLASH))
    assert d.status == "Dependent" and d.step is Step.ORDER
    assert d.witness.order_b == 3 and d.witness.order_ab == 2
    print("PASS criterion 4: order check fires with witness orders "
          "|b| = 3, |ab| = 2")


def test_criterion_05_conjugacy_merge_example():
    d = decide(spec_dict(MERGE_PAIR))
    assert d.status == "Dependent"
    pair = make_pair(*MERGE_PAIR)
    assert set(first_conjugacy_merge(pair.a, pair.join)) == {P("(1 2)", 4), P("(3 4)", 4)}
    assert elements_of(pair.join) == elements_of(symmetric_group(4))
    print("PASS criterion 5: merge example dependent; the plain conjugacy "
          "scan merges (1 2) with (3 4) inside the full symmetric group "
          "(pipeline decides at the earlier order stage)")


def test_criterion_06_isomorphic_replacement_quadruple():
    good = decide({"degree": 4, "A": ["(1 2)"], "B": ["(3 4)"]})
    bad = decide({"degree": 4, "A": ["(1 3)"], "B": ["(3 4)"]})
    assert good.status == "Independent" and good.step is Step.COMMUTING
    assert bad.status == "Dependent" and bad.step is Step.ORDER
    a1 = make_pair(4, ["(1 2)"], ["(3 4)"])
    a2 = make_pair(4, ["(1 3)"], ["(3 4)"])
    assert find_isomorphism(a1.a, a2.a) is not None
    assert find_isomorphism(a1.b, a2.b) is not None
    print("PASS criterion 6: replacing A by an isomorphic copy flips the "
          "verdict; an isomorphism search confirms both isomorphisms")


def test_criterion_07_oracle_soundness_sweep():
    t0 = time.perf_counter()
    rows3, summary3 = classify_all_pairs(3)
    rows4, summary4 = classify_all_pairs(4)
    elapsed = time.perf_counter() - t0
    # Every ordered pair of the full lattice, not only of the
    # two-generated subgroups the atlas enumerates.
    assert len(rows3) == len(all_subgroups(symmetric_group(3))) ** 2 == 36
    assert len(rows4) == len(all_subgroups(symmetric_group(4))) ** 2 == 900
    assert summary3["oracle_disagreements"] == []
    assert summary4["oracle_disagreements"] == []
    assert summary3["symmetry_violations"] == []
    assert summary4["symmetry_violations"] == []
    assert summary3["budget_trips"] == [] and summary4["budget_trips"] == []
    assert elapsed < 600.0
    print(f"PASS criterion 7: 36 + 900 ordered pairs, pipeline and "
          f"exhaustive oracle agree everywhere ({elapsed:.1f}s)")


def test_criterion_08_theorem_suite(s4_atlas):
    rows, _ = s4_atlas
    lattice = [s.elements for s in all_subgroups(symmetric_group(4))]
    assert sorted({pair_from_row(r, 4).a.elements for r in rows}) == sorted(lattice)
    violations = []

    for r in rows:
        pair = pair_from_row(r, 4)
        join = pair.join
        sep_a = not check_a_inside_ncl_b(pair).decided
        sep_b = not check_b_inside_ncl_a(pair).decided

        # Necessity: independence forces separation both ways.
        if r.oracle == "independent" and not (sep_a and sep_b):
            violations.append(("necessity", r.pair_id))

        # Separation on a side is the same thing as compatibility of
        # (id, triv) on that side.
        if sep_a != extend(identity_map(pair.a), trivial_map(pair.b),
                           pair).exists:
            violations.append(("one-sided extension A", r.pair_id))
        if sep_b != extend(trivial_map(pair.a), identity_map(pair.b),
                           pair).exists:
            violations.append(("one-sided extension B", r.pair_id))

        # Both normal and almost disjoint suffices for independence.
        if (r.both_normal and r.almost_disjoint == "inconclusive"
                and r.oracle != "independent"):
            violations.append(("two-normal sufficiency", r.pair_id))

        # Exactly one side normal forces dependence.
        if r.normal_asymmetry == "dependent" and r.oracle != "dependent":
            violations.append(("one-normal asymmetry", r.pair_id))

        # Factoring: the quotient by one closure recovers the other side
        # exactly when that side is separated; in particular both
        # isomorphisms hold on every independent pair.
        iso_a = find_isomorphism(quotient(join, pair.ncl_b)[0], pair.a) is not None
        iso_b = find_isomorphism(quotient(join, pair.ncl_a)[0], pair.b) is not None
        if iso_a != sep_a or iso_b != sep_b:
            violations.append(("factoring biconditional", r.pair_id))
        if r.oracle == "independent" and not (iso_a and iso_b):
            violations.append(("factoring on independent", r.pair_id))

    # Union law on sampled independent rows.
    rng = random.Random(2)
    independents = [r for r in rows if r.pipeline_status == "Independent"
                    and r.order_a > 1 and r.order_b > 1]
    for r in rng.sample(independents, min(6, len(independents))):
        pair = pair_from_row(r, 4)
        xs = [g for g in pair.a.elements if not g.is_identity()][:1]
        ys = [g for g in pair.b.elements if not g.is_identity()][:1]
        if not check_union_independent_sets(pair, xs, ys):
            violations.append(("union of independent sets", r.pair_id))

    assert violations == []
    print("PASS criterion 8: theorem suite holds over all 900 degree-4 "
          "rows with zero violations")


def test_criterion_09_endomorphism_enumeration_exact():
    from subindep.homs import enumerate_endomorphisms

    seen = set()
    checked = literal_checked = 0
    for sub in atlas_run(4).subs:
        if sub.order > 8 or sub.elements in seen:
            continue
        seen.add(sub.elements)
        production = sorted(m.images for m in enumerate_endomorphisms(sub))
        assert production == endomorphism_tables_pruned(sub)
        assert production == sorted(endomorphism_tables_by_words(sub))
        checked += 1
        if sub.order <= 6:
            assert production == sorted(endomorphism_tables_literal(sub))
            literal_checked += 1
    assert checked >= 10 and literal_checked >= 5
    print(f"PASS criterion 9: endomorphism sets match the position-by-"
          f"position function filter on {checked} lattice subgroups "
          f"(unpruned filter re-verified on {literal_checked})")


def test_criterion_10_parallel_determinism():
    # The atlas runs in one process; two sweeps must render the same bytes.
    reports = []
    for _ in range(2):
        r3, s3 = classify_all_pairs(3)
        r4, s4 = classify_all_pairs(4)
        reports.append((render_report(r3, s3, "csv"),
                        render_report(r3, s3, "json"),
                        render_report(r4, s4, "csv"),
                        render_report(r4, s4, "json")))
    assert reports[0] == reports[1]
    print("PASS criterion 10: two serial sweeps render byte-identical "
          "reports in both formats")
