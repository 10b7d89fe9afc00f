"""Exhaustive cross-validation over all subgroup pairs of small
symmetric groups.

Every ordered pair of enumerated subgroups gets a row holding every
individual check, the full staged pipeline, and the exhaustive oracle,
side by side so that disagreements between shortcut theory and brute
force are impossible to miss.  The oracle counts the endomorphisms of
the join that map each side into itself; it extends no map pair, so it
shares no code with Step4 beyond enumerate_endomorphisms.  The columns
do not change when both subgroups are conjugated by the same
permutation, so one representative pair per conjugation orbit is
classified and its verdicts are copied to the other rows of the orbit.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from itertools import chain, combinations, product
from operator import attrgetter
from time import perf_counter
from typing import NamedTuple, get_type_hints

from .checks import Verdict
from .groups import FiniteGroup, SubgroupPair, conjugation_tables, symmetric_group
from .homs import enumerate_endomorphisms
from .perm import cycle_string
from .pipeline import LADDER, ladder_decision

MAX_ATLAS_DEGREE = 5


def _orbit(start: int, maps: list) -> set[int]:
    """The indices that products of the maps send start to, each map a
    sequence of image indices.  Under the right-multiplication columns
    of some elements, the orbit of the identity, index 0, is the subgroup
    they generate."""
    seen = {start}
    found = [start]
    add, append = seen.add, found.append
    for x in found:  # found grows as the search runs: breadth-first
        for m in maps:
            y = m[x]
            if y not in seen:
                add(y)
                append(y)
    return seen


def enumerate_subgroups(group: FiniteGroup) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Distinct subgroups generated by at most two elements, as element
    indices of group: each subgroup's sorted index tuple and its
    generators' indices, sorted by (order, index tuple).  Indices follow
    the sorted element order, so that is (order, element list).

    For symmetric groups of degree up to 5 two generators reach every
    subgroup: 2, 6, 30 and 156 of them.  The tests check that against a
    brute-force lattice up to degree 4 and pin the S5 count.

    Each subgroup carries the generators of the first set, in
    combinations order, that generates it (singletons first, then
    pairs): those of the plain all-pairs scan.  Every non-identity
    element is closed once.  <x, y> depends only on <x> and <y>, so one
    pair is closed per two distinct cyclic subgroups, neither inside the
    other: their least generators m < m', in ascending order.  That is
    the first pair (x, y), x < y, the all-pairs scan meets with those two
    cyclic subgroups: x >= m, and y >= m' when x = m, as m generates only
    <m>.  So the closed pairs come in the scan's order, and each group is
    first reached by the scan's generators.
    """
    cols = list(map(group._col, range(group.order)))
    # The first generator indices to reach each subgroup, keyed by its
    # sorted index tuple.
    found: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
    # Each distinct nontrivial cyclic subgroup, keyed by its least
    # generator: elements come in ascending order.
    cyclic: dict[int, set[int]] = {}
    for x in range(1, group.order):
        c = _orbit(0, [cols[x]])
        key = tuple(sorted(c))
        if key not in found:
            found[key] = (x,)
            cyclic[x] = c
    for x, y in combinations(cyclic, 2):
        if y not in cyclic[x] and x not in cyclic[y]:
            found.setdefault(tuple(sorted(_orbit(0, [cols[x], cols[y]]))), (x, y))
    members = sorted(found, key=lambda k: (len(k), k))
    return members, [found[k] for k in members]


class AtlasRow(NamedTuple):
    """One ordered subgroup pair with every check's verdict."""

    pair_id: str
    a_index: int
    b_index: int
    a_gens: str
    b_gens: str
    order_a: int
    order_b: int
    order_join: int
    almost_disjoint: str
    commuting: str
    order_divisibility: str
    normal_asymmetry: str
    b_in_ncl_a: str
    a_in_ncl_b: str
    merge_a: str
    merge_b: str
    oracle: str
    pipeline_status: str
    pipeline_step: str
    separated_both: bool
    ncl_intersection_trivial: bool
    both_normal: bool
    gap_region: bool
    budget: str


ATLAS_FIELDS = AtlasRow._fields
# The cells of a row's own pair: pair_id, the indices and the generator
# strings.  The cells after them are the same for every pair of a
# conjugation orbit.
_OWN_CELLS = 5
# Positions of the bool columns among the cells after the own ones,
# written lowercase in csv.  The annotations are strings (see the
# __future__ import), so they are resolved first.
_BOOL_CELLS = [p - _OWN_CELLS for p, t in enumerate(get_type_hints(AtlasRow).values())
               if t is bool]

# The column of each LADDER stage, in LADDER order.
_LADDER_COLUMNS = ("almost_disjoint", "commuting", "order_divisibility",
                   "normal_asymmetry", "b_in_ncl_a", "a_in_ncl_b")


class _AtlasRun:
    """The lattice of one atlas run, built once from the symmetric group
    it is given, and what the run shares across its rows: the enumerated
    subgroups, their generator strings, the conjugacy class ids of each
    subgroup, and a memo holding, for each (side, join) pair of the
    lattice, the side's normal closure in the join, its merge column and
    the endomorphisms of the join that map the side into itself.  Many
    rows share a side and a join, so each of those runs once per lattice
    pair, not once per row.

    Everything runs on the group's own numbering: an element is its
    index in the group, and products are lookups in the group's
    right-multiplication columns.  enumerate_subgroups returns each
    subgroup as its sorted index tuple and its generators' indices; the
    run keeps both, with a bitset over the indices, and gathers each
    subgroup's FiniteGroup from the group's elements.  The lattice is
    numbered once, on the group's indices.  A conjugation is a lookup in
    the table of the conjugating element (groups.conjugation_tables), one
    per element that generates a subgroup.

    fill assigns a pair's facts but no ladder verdict: each ladder
    column of a row is its check's own outcome on the filled pair, and
    the pipeline columns are read from those outcomes.

    The join of a pair is looked up, not closed: it is the first
    subgroup in the list whose bitset covers both sides.  The normal
    closure of subs[i] in subs[k] is looked up too: it is the first
    subgroup in the list that contains subs[i] and is closed under
    conjugation by subs[k], which is a bit test of each of its
    generators conjugated by each generator of subs[k] (closure under
    conjugation by the generators gives closure under every conjugation,
    as t^-1 is a power of t).  Such a subgroup holds every conjugate of
    subs[i] by subs[k], so it contains the normal closure.  Both lookups
    need the list to be the full subgroup lattice, sorted by order, as
    every enumerate_subgroups list up to degree 5 is.  The join, or the
    normal closure, is then in the list; every listed subgroup that
    passes the test contains it, so has at least its order; and the only
    one of its order that does is itself.  No earlier entry has a larger
    order, so the first to pass is the one sought, and a scan may start
    at the larger side's index.  The join and the closure are the
    listed groups themselves, with their generators; the rows record
    verdicts only, and no verdict depends on which generators a group
    carries.
    """

    def __init__(self, group: FiniteGroup):
        self._members, self._gen_ids = enumerate_subgroups(group)
        at = group.elements.__getitem__
        self.subs = [FiniteGroup(tuple(map(at, m)), tuple(map(at, g)))
                     for m, g in zip(self._members, self._gen_ids)]
        self.gens = [";".join(map(cycle_string, s.generators)) or "e" for s in self.subs]
        self._bits = [sum(1 << x for x in m) for m in self._members]
        ts = sorted(set(chain.from_iterable(self._gen_ids)))
        tables = dict(zip(ts, conjugation_tables(group, ts)))
        # The conjugation table of each generator of each subgroup.
        self._conj = [[tables[t] for t in g] for g in self._gen_ids]
        self._class_ids: list[tuple[dict[int, int], int] | None] = [None] * len(self.subs)
        # Per (join, generator index): the endomorphisms of the join, as
        # a bitmask, that send the generator to each image index.
        self._images: dict[tuple[int, int], dict[int, int]] = {}
        self._sides: dict[tuple[int, int], tuple[FiniteGroup, str, int]] = {}

    def orbits(self) -> list[int]:
        """The orbits of ordered subgroup pairs under simultaneous
        conjugation by the group.

        Pair (subs[i], subs[j]) has the flat index i * len(subs) + j.
        Returns, for each flat index, the least flat index of its orbit,
        its representative.  The last subgroup is the whole group, so
        its generators' conjugation tables generate every conjugation.
        A subgroup's conjugate by one of them is its index tuple mapped
        through the table and sorted, and the list is closed under
        conjugation, so each table acts on the subgroup indices, and on
        the flat pair indices.
        """
        n = len(self.subs)
        index = dict(zip(self._members, range(n)))
        acts = [[index[tuple(sorted(map(table.__getitem__, m)))] for m in self._members]
                for table in self._conj[-1]]
        pair_acts = [[x + y for x in [a * n for a in act] for y in act] for act in acts]
        rep = [-1] * (n * n)
        for k in range(n * n):
            if rep[k] < 0:
                for m in _orbit(k, pair_acts):
                    rep[m] = k
        return rep

    def _join(self, i: int, j: int) -> int:
        """The index of the join of subs[i] and subs[j]."""
        bits = self._bits
        both = bits[i] | bits[j]
        k = max(i, j)
        while both & ~bits[k]:
            k += 1
        return k

    def _classes(self, k: int) -> tuple[dict[int, int], int]:
        """The conjugacy class id of each element index of subs[k], the
        least index in its class, and the number of classes.  A class is
        an orbit under conjugation by the generators, whose products
        give every conjugation."""
        if self._class_ids[k] is None:
            ids: dict[int, int] = {}
            for x in self._members[k]:  # ascending, so x is its class's least
                if x not in ids:
                    ids.update(dict.fromkeys(_orbit(x, self._conj[k]), x))
            self._class_ids[k] = ids, len(set(ids.values()))
        return self._class_ids[k]

    def _side(self, i: int, k: int) -> tuple[FiniteGroup, str, int]:
        """The normal closure of subs[i] in subs[k], the merge column of
        subs[i] as a side whose join is subs[k], and the bitmask over
        enumerate_endomorphisms of subs[k] whose bit t is set when the
        t-th endomorphism maps subs[i] into itself.  An endomorphism is
        a homomorphism, so it does that exactly when it maps each
        generator of subs[i] into subs[i]: the mask is the AND, over the
        generators, of the masks of their images inside subs[i].

        The merge column is the paper's Step3iii (Step3iv for B):
        dependent when two elements of the side that are not conjugate
        in it are conjugate in the join.  Each class of the side lies in
        one class of the join, so that happens exactly when fewer join
        classes meet the side than it has classes.

        It is a column, not a ladder stage, because once Step3i and
        Step3ii have passed it can never fire.  Suppose x1, x2 in A are
        conjugate in the join by some t but not conjugate in A.  A common
        extension gamma of (id_A, triv_B) would fix A pointwise and kill
        B, so gamma(t) lies in A, and conjugation by gamma(t) would carry
        x1 to x2 inside A.  Hence (id_A, triv_B) cannot extend.  But if A
        were B-separated, A would map isomorphically onto
        join/<Conj(B)>, and the quotient map followed by that inverse
        would extend (id_A, triv_B).  So A is not B-separated, and
        Step3ii has already fired.  The mirror argument for B gives
        Step3i.  The tests assert the subsumption row by row.
        """
        side = self._sides.get((i, k))
        if side is None:
            in_join = self._classes(k)[0]
            merged = len(set(map(in_join.__getitem__, self._members[i]))) < self._classes(i)[1]
            bits, members = self._bits, self._members[k]
            endos = enumerate_endomorphisms(self.subs[k])
            keeps = (1 << len(endos)) - 1
            for g in self._gen_ids[i]:
                masks = self._images.get((k, g))
                if masks is None:
                    at = members.index(g)
                    masks = self._images[(k, g)] = {}
                    for t, gamma in enumerate(endos):
                        y = members[gamma.images[at]]
                        masks[y] = masks.get(y, 0) | 1 << t
                keeps &= sum(mask for y, mask in masks.items() if bits[i] >> y & 1)
            # The normal closure: see the class docstring.
            m = i
            while not (bits[m] & bits[i] == bits[i]
                       and all(bits[m] >> table[g] & 1
                               for table in self._conj[k] for g in self._gen_ids[m])):
                m += 1
            merge = (Verdict.DEPENDENT if merged else Verdict.INCONCLUSIVE).value
            side = self._sides[(i, k)] = (self.subs[m], merge, keeps)
        return side

    def fill(self, pair: SubgroupPair, i: int, j: int) -> tuple[str, str, str]:
        """Assign the join and normal closures of the pair (subs[i],
        subs[j]) by name from the lattice and the memo, and return its
        merge_a, merge_b and oracle columns.  The pair's sides must be
        subs[i] and subs[j] themselves: a normal side's closure is the
        listed side (see SubgroupPair).

        The oracle is the definition of independence, counted.  Let S be
        the endomorphisms gamma of the join with gamma(A) in A and
        gamma(B) in B.  Restriction maps S into End(A) x End(B), and it
        is injective because A and B generate the join.  Every pair in
        End(A) x End(B) extends exactly when it is onto, that is when
        |S| = |End(A)| |End(B)|.
        """
        k = self._join(i, j)
        pair.join = self.subs[k]
        pair.ncl_a, merge_a, keeps_a = self._side(i, k)
        pair.ncl_b, merge_b, keeps_b = self._side(j, k)
        extending = (keeps_a & keeps_b).bit_count()
        independent = extending == (len(enumerate_endomorphisms(pair.a))
                                    * len(enumerate_endomorphisms(pair.b)))
        return merge_a, merge_b, (Verdict.INDEPENDENT if independent else Verdict.DEPENDENT).value


def _classify_one(run: _AtlasRun, task: tuple[str, int, int]) -> AtlasRow:
    """Run every check and the pipeline on one ordered pair, and count
    its oracle from the run's memo (see _AtlasRun.fill): Step4 rows
    extend map pairs, the oracle extends none.

    Every atlas group is far inside the default budgets (S5 has order
    120, and its largest endomorphism search is 1,456 candidate maps), so
    a BudgetExceeded here is a bug and propagates.  The budget column is
    kept, always empty, so the report schema does not change.
    """
    pair_id, a_index, b_index = task
    a, b = run.subs[a_index], run.subs[b_index]
    pair = SubgroupPair(a, b)
    merge_a, merge_b, oracle = run.fill(pair, a_index, b_index)
    # Each stage runs once: its outcome fills its column, and the
    # pipeline's status and step are read from the same outcomes.
    outcomes = [check(pair) for _, check in LADDER]
    status, step, _, _ = ladder_decision(pair, outcomes)
    checks = {name: out.verdict.value for name, out in zip(_LADDER_COLUMNS, outcomes)}
    sep_both = (checks["a_in_ncl_b"] == Verdict.INCONCLUSIVE.value
                and checks["b_in_ncl_a"] == Verdict.INCONCLUSIVE.value)
    ncl_b = pair.ncl_b
    ncl_meet = any(x in ncl_b for x in pair.ncl_a.elements[1:])
    return AtlasRow(pair_id=pair_id, a_index=a_index, b_index=b_index,
                    a_gens=run.gens[a_index], b_gens=run.gens[b_index],
                    order_a=a.order, order_b=b.order, order_join=pair.join.order,
                    **checks, merge_a=merge_a, merge_b=merge_b,
                    oracle=oracle,
                    pipeline_status=status,
                    pipeline_step=step.value,
                    separated_both=sep_both,
                    ncl_intersection_trivial=not ncl_meet,
                    both_normal=pair.a_normal and pair.b_normal,
                    gap_region=sep_both and ncl_meet,
                    budget="")


def classify_all_pairs(degree: int, jobs: int = 1) -> tuple[list[AtlasRow], dict]:
    """(rows, summary) of run_atlas.  jobs must be 1: it is kept only for
    the benchmark harness (perfbench/worker.py and build_catalogue.py),
    which passes jobs=1, and goes once the harness stops passing it."""
    if jobs != 1:
        raise ValueError("the atlas runs in one process")
    rows, summary, _, _ = run_atlas(degree)
    return rows, summary


def run_atlas(degree: int) -> tuple[list[AtlasRow], dict, int, tuple[float, float]]:
    """Classify every ordered pair of enumerated subgroups of the
    symmetric group of the given degree, at the default budgets.

    Only the least pair of each conjugation orbit is classified; every
    other row copies its representative's columns and keeps its own
    pair_id, indices and generator strings.  That is sound because
    conjugation by t is an automorphism of the symmetric group: it maps
    A, B, their join, both normal closures and End(A) x End(B)
    isomorphically onto those of the conjugated pair, and carries
    extensions to extensions.  So every check, the oracle and the step at
    which the ladder decides give the same answer on both pairs, and the
    orders agree.

    Returns (rows, summary, number of orbits classified, seconds), where
    seconds holds the wall time of building the lattice (the run: the
    subgroups, their conjugation tables and orbits) and of classifying
    the representatives (with the row expansion and the summary, which is
    counted per orbit).
    Rows come back in a fixed canonical order and carry no timing, so
    emitted reports are reproducible byte for byte.
    """
    if not 2 <= degree <= MAX_ATLAS_DEGREE:
        raise ValueError(f"degree must be between 2 and {MAX_ATLAS_DEGREE}")
    start = perf_counter()
    group = symmetric_group(degree)
    run = _AtlasRun(group)
    subs = run.subs
    n = len(subs)
    rep = run.orbits()
    lattice = perf_counter()
    tasks = [(f"s{degree}-{k:04d}", *divmod(k, n)) for k in range(n * n) if rep[k] == k]
    classified = [_classify_one(run, t) for t in tasks]
    # The columns conjugating both sides leaves unchanged.
    cells = {r.a_index * n + r.b_index: r[_OWN_CELLS:] for r in classified}
    gens = run.gens
    new = tuple.__new__
    rows = [new(AtlasRow, (f"s{degree}-{k:04d}", i, j, gens[i], gens[j]) + cells[rep[k]])
            for k, (i, j) in enumerate(product(range(n), repeat=2))]
    summary = _summarize(degree, group, subs, classified, rep)
    return rows, summary, len(tasks), (lattice - start, perf_counter() - lattice)


def _summarize(degree: int, group: FiniteGroup, subs: list[FiniteGroup],
               classified: list[AtlasRow], rep: list[int]) -> dict:
    """The run's summary, counted per orbit: each representative's row
    counts once per pair of its orbit, as every row of the orbit copies
    its columns.  An orbit's pair ids are listed only when it is flagged.

    Swapping the sides commutes with conjugation, so the mirror of each
    pair of an orbit lies in one orbit, the mirror orbit; a pair (i, j)
    with i < j is a symmetry violation when its orbit and the mirror
    orbit are both decided, differently."""
    n = len(subs)
    size = Counter(rep)
    status = {r.a_index * n + r.b_index: r.pipeline_status for r in classified}
    verdicts = {"Independent": 0, "Dependent": 0, "Inconclusive": 0}
    oracle_counts = {v.value: 0 for v in Verdict}
    steps: dict[str, int] = {}
    disagreeing, asymmetric, gap = set(), set(), set()
    for r in classified:
        k = r.a_index * n + r.b_index
        count = size[k]
        verdicts[r.pipeline_status] = verdicts.get(r.pipeline_status, 0) + count
        oracle_counts[r.oracle] += count
        steps[r.pipeline_step] = steps.get(r.pipeline_step, 0) + count
        if r.pipeline_status != "Inconclusive" and r.oracle != r.pipeline_status.lower():
            disagreeing.add(k)
        mirror = status[rep[r.b_index * n + r.a_index]]
        if "Inconclusive" not in (r.pipeline_status, mirror) and r.pipeline_status != mirror:
            asymmetric.add(k)
        if r.gap_region:
            gap.add(k)

    def ids(orbits: set[int], above_diagonal: bool = False) -> list[str]:
        """The pair ids of the given orbits, in row order."""
        return [f"s{degree}-{k:04d}" for k, r in enumerate(rep)
                if r in orbits and (not above_diagonal or k // n < k % n)]

    gap_ids = ids(gap)
    return {
        "degree": degree,
        "group_order": group.order,
        "subgroups": n,
        "pairs": n * n,
        "verdicts": verdicts,
        "oracle_verdicts": oracle_counts,
        "deciding_steps": dict(sorted(steps.items())),
        "oracle_disagreements": ids(disagreeing),
        "symmetry_violations": ids(asymmetric, above_diagonal=True),
        "gap_region_count": len(gap_ids),
        "gap_region_ids": gap_ids,
        # Always empty, like the budget column: kept for the schema.
        "budget_trips": [],
    }


class _Echo:
    """A file whose write returns the line it is given, so that a csv
    writer's writerow returns the encoded row."""

    write = str


_encode_csv = csv.writer(_Echo(), lineterminator="\n").writerow
# The key of each column as a row of the indent=2 JSON report prints it.
_JSON_KEYS = [f"      {json.dumps(f)}: " for f in ATLAS_FIELDS]


def _csv_cell(cell) -> str:
    # Beside an empty second cell: a lone empty cell would be quoted.
    return _encode_csv((cell, ""))[:-2]


def _csv_tail(tail: tuple) -> str:
    cells = list(tail)
    for p in _BOOL_CELLS:
        cells[p] = "true" if cells[p] else "false"
    return "," + _encode_csv(cells)


def _json_tail(tail: tuple) -> str:
    return ",\n" + ",\n".join(map(str.__add__, _JSON_KEYS[_OWN_CELLS:],
                                     map(json.dumps, tail))) + "\n    }"


def render_report(rows: list[AtlasRow], summary: dict, fmt: str = "csv") -> str:
    """Serialize an atlas run; rows ordered by generator strings so the
    bytes depend only on the classification.

    One loop writes the rows of either format from two caches: own holds
    the text of each distinct own cell (pair_id, the indices and the
    generator strings), tails that of the cells after them, once per
    conjugation orbit.  csv quotes each field on its own, and every cell
    is a scalar, which JSON encodes alone as it does inside the
    document, so the pieces change no byte of csv.writer's or
    json.dumps(..., indent=2)'s output."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    encode, encode_tail = (_csv_cell, _csv_tail) if fmt == "csv" else (json.dumps, _json_tail)
    own, tails, lines = {}, {}, []
    for r in sorted(rows, key=attrgetter("a_gens", "b_gens")):
        head = []
        for c in r[:_OWN_CELLS]:
            text = own.get(c)
            if text is None:
                text = own[c] = encode(c)
            head.append(text)
        tail = r[_OWN_CELLS:]
        text = tails.get(tail)
        if text is None:
            text = tails[tail] = encode_tail(tail)
        lines.append(",".join(head) + text if fmt == "csv" else
                     "    {\n" + ",\n".join(map(str.__add__, _JSON_KEYS, head)) + text)
    if fmt == "csv":
        return _encode_csv(ATLAS_FIELDS) + "".join(lines)
    text = json.dumps({"summary": summary, "rows": []}, indent=2)
    if lines:  # the empty rows list closes the document: "[]\n}"
        text = text[:-4] + "[\n" + ",\n".join(lines) + "\n  ]\n}"
    return text + "\n"


def emit_report(rows: list[AtlasRow], summary: dict, path: str, fmt: str = "csv") -> None:
    """Write a report file (CSV rows only, or JSON with summary)."""
    text = render_report(rows, summary, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
