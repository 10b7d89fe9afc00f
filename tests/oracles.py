"""Independent oracles the production code is validated against.

Nothing here calls the package's propagation or enumeration machinery.
Endomorphisms are recovered by expressing every element as a word in a
minimal generating tuple (found by exhaustive combination search) and
filtering all |G|^k image assignments through a full multiplication
table check.  A literal |G|^|G| filter validates that oracle in turn on
groups small enough to afford it.  Quotients are coset actions,
isomorphisms come from the same word search, and the subgroup lattice
is saturated one element at a time.  The atlas's two-generator
enumeration is replayed as the plain scan over every element pair that
its skips must agree with.  Conjugacy classes come from conjugating by
every element, and so do the orbits of subgroup pairs under
simultaneous conjugation, and normality is every conjugate of every
element staying inside; the conjugacy-merge check and the
non-commuting pairs are plain scans over every element pair.  The map
checks and the union-law harness at the end are the full-table checks
the tests hold results to.  The
cycle-notation parser, the closure and the extension of a map pair come
last, written as plain per-point, per-level and per-element loops, as
references for the package's kernels.  Last are the per-candidate
endomorphism search, which spreads every choice of generator images on
its own, and the definitional product scan of independence, which
extends every endomorphism pair of End(A) x End(B) through dicts and
Permutation products only.  The atlas summary is last, counted row by
row where the atlas counts once per conjugation orbit.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple

from subindep.groups import BudgetExceeded, FiniteGroup, GroupMap, SubgroupPair, closure
from subindep.perm import CycleParseError, Permutation


def minimal_generating_tuples(group: FiniteGroup, max_size: int = 3):
    """All generating tuples of the smallest size, via plain search."""
    if group.order == 1:
        return [()]
    els = group.elements[1:]
    for k in range(1, max_size + 1):
        found = [c for c in combinations(els, k) if _generates(c, group)]
        if found:
            return found
    raise AssertionError(f"group of order {group.order} not {max_size}-generated")


def _generates(gens, group: FiniteGroup) -> bool:
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == group.order


def element_words(group: FiniteGroup, gens) -> dict[Permutation, tuple[int, ...]]:
    """Express every element as a word (tuple of generator positions)."""
    words = {group.identity: ()}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for pos, g in enumerate(gens):
                y = x * g
                if y not in words:
                    words[y] = words[x] + (pos,)
                    nxt.append(y)
        frontier = nxt
    assert len(words) == group.order
    return words


_WORD_TABLE_CACHE: dict[tuple, list[tuple[int, ...]]] = {}


def endomorphism_tables_by_words(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All endomorphism tables of the group, with no pruning beyond the
    final full multiplication check.

    Every assignment of images to a minimal generating tuple is turned
    into a candidate map through the word expressions, then kept only if
    it preserves every product.  Sorted tables, ready to compare against
    the package's enumeration.
    """
    key = group.elements
    if key in _WORD_TABLE_CACHE:
        return _WORD_TABLE_CACHE[key]
    gens = minimal_generating_tuples(group)[0]
    words = element_words(group, gens)
    els = group.elements
    tables = set()
    for images in product(els, repeat=len(gens)):
        mapping = {}
        for x, word in words.items():
            y = group.identity
            for pos in word:
                y = y * images[pos]
            mapping[x] = y
        if all(mapping[x * y] == mapping[x] * mapping[y] for x in els for y in els):
            tables.add(tuple(group.index_of(mapping[x]) for x in els))
    result = sorted(tables)
    _WORD_TABLE_CACHE[key] = result
    return result


def endomorphism_tables_literal(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The |G|^|G| filter, literally.  Only sane for |G| <= 6."""
    els = group.elements
    n = len(els)
    idx = {x: i for i, x in enumerate(els)}
    mul = [[idx[els[i] * els[j]] for j in range(n)] for i in range(n)]
    tables = []
    for assign in product(range(n), repeat=n):
        if all(assign[mul[i][j]] == mul[assign[i]][assign[j]]
               for i in range(n) for j in range(n)):
            tables.append(assign)
    return sorted(tables)


def compatible_by_global_search(alpha_table, beta_table, a: FiniteGroup,
                                b: FiniteGroup, join: FiniteGroup) -> int:
    """How many endomorphisms of the join restrict to the given maps.

    Compatibility means at least one; uniqueness of extensions means the
    count is never above one.  alpha_table/beta_table map elements of A
    and B (in their element order) to permutations.
    """
    alpha = dict(zip(a.elements, alpha_table))
    beta = dict(zip(b.elements, beta_table))
    count = 0
    for table in endomorphism_tables_by_words(join):
        gamma = {x: join.elements[table[i]] for i, x in enumerate(join.elements)}
        if all(gamma[x] == alpha[x] for x in a.elements) and \
                all(gamma[x] == beta[x] for x in b.elements):
            count += 1
    return count


def independent_by_global_search(a: FiniteGroup, b: FiniteGroup,
                                 join: FiniteGroup) -> bool:
    """Independence decided purely by restriction search over End(join)."""
    end_a = endomorphism_tables_by_words(a)
    end_b = endomorphism_tables_by_words(b)
    end_j = endomorphism_tables_by_words(join)
    restrictions = set()
    for table in end_j:
        gamma = {x: join.elements[table[i]] for i, x in enumerate(join.elements)}
        ra = tuple(join.index_of(gamma[x]) for x in a.elements)
        rb = tuple(join.index_of(gamma[x]) for x in b.elements)
        restrictions.add((ra, rb))
    for ta in end_a:
        ra = tuple(join.index_of(a.elements[i]) for i in ta)
        for tb in end_b:
            rb = tuple(join.index_of(b.elements[i]) for i in tb)
            if (ra, rb) not in restrictions:
                return False
    return True


def quotient(g: FiniteGroup, n: FiniteGroup):
    """g/n as the action of g on the left cosets of n, and the projection.

    Returns (q, project): q is the group of coset-index permutations that
    left multiplication induces, and project(x) is the permutation x
    induces.  Cosets are numbered by their least element, so coset 0 is n.
    Raises ValueError unless every element of n stays in n under
    conjugation by each generator of g, that is unless n is normal in g.
    """
    n_set = set(n.elements)
    if not all(x.conjugated_by(t) in n_set for x in n.elements for t in g.generators):
        raise ValueError("subgroup is not normal")
    coset_of: dict[Permutation, int] = {}
    reps: list[Permutation] = []
    for x in g.elements:
        if x not in coset_of:
            for m in n.elements:
                coset_of[x * m] = len(reps)
            reps.append(x)

    def project(x: Permutation) -> Permutation:
        return Permutation(tuple(coset_of[x * r] for r in reps))

    k = len(reps)
    return closure([project(t) for t in g.generators], k, max_order=k), project


class GroupHom(NamedTuple):
    """A map between two groups, as the tuple of codomain element indices
    aligned with domain.elements.  The package's maps are endomorphisms
    (GroupMap); only these oracles map one group to another."""

    domain: FiniteGroup
    codomain: FiniteGroup
    images: tuple[int, ...]


def _ends(m: GroupMap | GroupHom) -> tuple[FiniteGroup, FiniteGroup]:
    return (m.group, m.group) if isinstance(m, GroupMap) else (m.domain, m.codomain)


def find_isomorphism(g: FiniteGroup, h: FiniteGroup) -> GroupHom | None:
    """An isomorphism g -> h, or None when there is none.

    A generating tuple of g of least size is sent to every tuple of
    elements of h with the same orders; each assignment is spread over g
    through the word expressions and kept if it is a bijection that
    preserves every product.
    """
    if g.order != h.order:
        return None
    gens = minimal_generating_tuples(g)[0]
    words = element_words(g, gens)
    choices = [[y for y in h.elements if y.order() == x.order()] for x in gens]
    for images in product(*choices):
        mapping = {}
        for x, word in words.items():
            y = h.identity
            for pos in word:
                y = y * images[pos]
            mapping[x] = y
        if len(set(mapping.values())) == g.order and all(
                mapping[x * y] == mapping[x] * mapping[y] for x in g.elements for y in g.elements):
            return GroupHom(g, h, tuple(h.index_of(mapping[x]) for x in g.elements))
    return None


def semigroup_closure(elements, degree: int) -> frozenset[Permutation]:
    """Products-only closure: positive words in the given elements plus
    the identity.  For permutations this equals the generated subgroup."""
    ident = Permutation.identity(degree)
    seen = {ident} | set(elements)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in elements:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def all_subgroups(group: FiniteGroup) -> list[FiniteGroup]:
    """Every subgroup, by saturating one-element extensions of the
    trivial group, each closed with semigroup_closure.  Exponential in
    principle, instant up to S4.  Sorted by (order, elements), the order
    atlas.enumerate_subgroups uses."""
    found = {frozenset([group.identity]): ()}
    frontier = list(found)
    while frontier:
        nxt = []
        for sub in frontier:
            for g in group.elements[1:]:
                if g in sub:
                    continue
                gens = found[sub] + (g,)
                ext = semigroup_closure(gens, group.degree)
                if ext not in found:
                    found[ext] = gens
                    nxt.append(ext)
        frontier = nxt
    subs = [FiniteGroup(tuple(sorted(els)), gens) for els, gens in found.items()]
    return sorted(subs, key=lambda s: (s.order, s.elements))


def subgroups_from_all_pairs(group: FiniteGroup) -> list[FiniteGroup]:
    """Every subgroup generated by at most two elements, by closing the
    trivial set, every non-identity element and every pair of them, in
    combinations order.  Each subgroup keeps the generators of the first
    set that reached it.  Sorted by (order, elements), the order
    atlas.enumerate_subgroups uses."""
    seen: dict[tuple[Permutation, ...], FiniteGroup] = {}
    for k in (0, 1, 2):
        for combo in combinations(group.elements[1:], k):
            sub = closure(list(combo), group.degree, max_order=group.order)
            seen.setdefault(sub.elements, sub)
    return sorted(seen.values(), key=lambda s: (s.order, s.elements))


def is_normal_reference(h: FiniteGroup, g: FiniteGroup) -> bool:
    """Normality by its definition: every conjugate of every element of h
    by every element of g lies in h."""
    members = set(h.elements)
    return all(x.conjugated_by(t) in members for x in h.elements for t in g.elements)


def normal_subgroups_containing(sub_elements, group: FiniteGroup,
                                lattice) -> list[frozenset]:
    """All normal subgroups of the group (from a provided lattice) that
    contain the given element set; the smallest is the normal closure."""
    out = []
    target = set(sub_elements)
    for cand in lattice:
        cand_set = set(cand.elements)
        if not target <= cand_set:
            continue
        if all(x.conjugated_by(g) in cand_set
               for x in cand.elements for g in group.elements):
            out.append(frozenset(cand_set))
    return sorted(out, key=len)


def endomorphism_tables_pruned(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The |G|^|G| function filter, realized by assigning an image to one
    table position at a time and abandoning a prefix as soon as any fully
    determined product constraint fails.  Unlike the word route this never
    looks at generators; it is a straight depth-first scan of the function
    space and agrees with the unpruned filter by construction."""
    n = group.order
    els = group.elements
    prod = [[group.index_of(els[i] * els[j]) for j in range(n)]
            for i in range(n)]
    tables: list[tuple[int, ...]] = []
    assign = [0] * n

    def consistent(k: int) -> bool:
        for i in range(k + 1):
            for j in range(k + 1):
                p = prod[i][j]
                if p <= k and assign[p] != prod[assign[i]][assign[j]]:
                    return False
        return True

    def descend(k: int) -> None:
        if k == n:
            tables.append(tuple(assign))
            return
        for img in range(n):
            assign[k] = img
            if consistent(k):
                descend(k + 1)

    descend(0)
    return sorted(tables)


def noncommuting_pairs(pair: SubgroupPair) -> Iterator[tuple[Permutation, Permutation]]:
    """All (a, b) with a in A, b in B and ab != ba, in canonical order."""
    for a in pair.a.elements[1:]:
        for b in pair.b.elements[1:]:
            if a * b != b * a:
                yield a, b


@lru_cache(maxsize=None)
def conjugacy_class_ids(group: FiniteGroup) -> dict[Permutation, int]:
    """The conjugacy class of each element, numbered in element order,
    from conjugation by every element of the group.  Cached per group:
    a lattice sweep asks for each join once per subgroup inside it."""
    ids: dict[Permutation, int] = {}
    classes = 0
    for x in group.elements:
        if x not in ids:
            for t in group.elements:
                ids[x.conjugated_by(t)] = classes
            classes += 1
    return ids


def pair_orbit_representatives(group: FiniteGroup, subs: list[FiniteGroup]) -> list[int]:
    """For each ordered pair (subs[i], subs[j]), at flat index
    i * len(subs) + j, the least flat index of a pair it is conjugate to.
    Each subgroup's element set is conjugated by every element of the
    group, so the conjugates by t of all subgroups are found at once and
    a pair's orbit is read off directly, with no walk over generators."""
    position = {frozenset(s.elements): i for i, s in enumerate(subs)}
    images = [[position[frozenset(x.conjugated_by(t) for x in s.elements)] for s in subs]
              for t in group.elements]
    n = len(subs)
    return [min(image[i] * n + image[j] for image in images)
            for i in range(n) for j in range(n)]


def first_conjugacy_merge(sub: FiniteGroup, join: FiniteGroup) -> tuple[Permutation, Permutation] | None:
    """The plain quadratic merge scan: the first (x1, x2) of sub, in
    element order, that are conjugate in join but not in sub, or None."""
    in_sub, in_join = conjugacy_class_ids(sub), conjugacy_class_ids(join)
    els = sub.elements
    for i, x1 in enumerate(els):
        for x2 in els[i + 1:]:
            if in_join[x1] == in_join[x2] and in_sub[x1] != in_sub[x2]:
                return x1, x2
    return None


def check_homomorphism(m: GroupMap | GroupHom) -> bool:
    """Full |G|^2 verification of f(xy) = f(x)f(y)."""
    dom, cod = _ends(m)
    for i, x in enumerate(dom.elements):
        for j, y in enumerate(dom.elements):
            lhs = m.images[dom.index_of(x * y)]
            rhs = cod.index_of(cod.elements[m.images[i]] * cod.elements[m.images[j]])
            if lhs != rhs:
                return False
    return True


def is_bijective(m: GroupMap | GroupHom) -> bool:
    dom, cod = _ends(m)
    return len(set(m.images)) == dom.order == cod.order


def is_independent_set(elements: Iterable[Permutation], ambient: FiniteGroup) -> bool:
    """True iff no member is generated by the others.

    The identity is the empty product, so any set containing it fails.
    The empty set is vacuously independent.
    """
    els = sorted(set(elements))
    for x in els:
        if x not in ambient:
            raise ValueError(f"{x!r} is not in the ambient group")
    for x in els:
        rest = [y for y in els if y != x]
        if x in closure(rest, ambient.degree, max_order=ambient.order):
            return False
    return True


def check_union_independent_sets(pair: SubgroupPair,
                                 a_subset: Iterable[Permutation],
                                 b_subset: Iterable[Permutation]) -> bool:
    """Harness for the union law: for an independent pair (A, B) and
    independent subsets A' of A and B' of B, report whether A' u B' is
    independent in the join.  The law says it always is; a False return
    from a valid input flags a bug."""
    a_els = sorted(set(a_subset))
    b_els = sorted(set(b_subset))
    if any(x not in pair.a for x in a_els):
        raise ValueError("a_subset is not contained in A")
    if any(x not in pair.b for x in b_els):
        raise ValueError("b_subset is not contained in B")
    if not is_independent_set(a_els, pair.a):
        raise ValueError("a_subset is not an independent set")
    if not is_independent_set(b_els, pair.b):
        raise ValueError("b_subset is not an independent set")
    return is_independent_set(set(a_els) | set(b_els), pair.join)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_points(body: str, degree: int) -> list[int]:
    tokens = [t for t in re.split(r"[,\s]+", body.strip()) if t]
    points: list[int] = []
    for tok in tokens:
        # str.isdigit also accepts non-ASCII digits such as "²" and "٣".
        if not (tok.isascii() and tok.isdigit()):
            raise CycleParseError(f"bad point {tok!r}")
        if degree <= 9 and len(tok) > 1:
            # juxtaposed single digits, compact style "(12)"
            vals = [int(ch) for ch in tok]
        else:
            vals = [int(tok)]
        for v in vals:
            if not 1 <= v <= degree:
                raise CycleParseError(f"point {v} out of range 1..{degree}")
            points.append(v)
    return points


def parse_cycles_reference(text: str, degree: int) -> Permutation:
    """Cycle notation parsed cycle by cycle and point by point: the
    reference the package's parse_cycles must agree with, on the
    permutation it returns and on the error it raises."""
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise CycleParseError(f"invalid degree {degree!r}")
    s = text.strip()
    identity = Permutation(range(degree))
    if s in ("e", "()"):
        return identity
    if not s:
        raise CycleParseError("empty permutation string")
    matches = list(_CYCLE_RE.finditer(s))
    if not matches:
        raise CycleParseError(f"no cycles found in {text!r}")
    cursor = 0
    for m in matches:
        if s[cursor:m.start()].strip():
            raise CycleParseError(f"unexpected text in {text!r}")
        cursor = m.end()
    if s[cursor:].strip():
        raise CycleParseError(f"unexpected trailing text in {text!r}")
    img = list(identity)
    for m in matches:
        pts = _parse_points(m.group(1), degree)
        if not pts:
            raise CycleParseError(f"empty cycle in {text!r}")
        if len(set(pts)) != len(pts):
            raise CycleParseError(f"repeated point in cycle {m.group(0)!r}")
        old = [img[p - 1] for p in pts]
        for p, v in zip(pts, old[1:] + old[:1]):
            img[p - 1] = v
    return Permutation(img)


def closure_reference(generators: Iterable[Permutation], degree: int,
                      max_order: int) -> FiniteGroup:
    """Level-by-level breadth-first closure under right multiplication
    by Permutation products, keeping a generator only when it lies
    outside the closure of the generators kept before it, each such
    prefix closed anew from the identity: the reference the package's
    closure must agree with on its sorted elements and its kept
    generators."""
    generators = list(generators)
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} does not match {degree}")
    e = Permutation.identity(degree)
    gens: list[Permutation] = []
    seen = {e}
    for g in generators:
        if g in seen:
            continue
        gens.append(g)
        seen = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for x in frontier:
                for h in gens:
                    y = x * h
                    if y not in seen:
                        if len(seen) >= max_order:
                            raise BudgetExceeded("max_group_order", max_order,
                                                 "closing a generator set")
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    return FiniteGroup(tuple(sorted(seen)), tuple(gens))


def extend_reference(alpha: GroupMap, beta: GroupMap, pair: SubgroupPair):
    """extend's answer in plain loops: (image table, None), or (None,
    (element, image_a, image_b)) for the first element of the join
    forced to two images.

    A breadth-first search from the identity along x -> x * g for each
    generator g of A and then of B, by Permutation products, carrying
    gamma(x * g) = gamma(x) * alpha(g) or beta(g) and checking every
    edge; then agreement with alpha on every element of A and with beta
    on every element of B, one element at a time.  Visiting in the same
    order as extend, it names the same first conflict.
    """
    j = pair.join
    sides = ((pair.a, alpha), (pair.b, beta))
    edges = [(g, m(g)) for sub, m in sides for g in sub.generators]
    gamma = {j.identity: j.identity}
    queue = [j.identity]
    for x in queue:
        for g, h in edges:
            y, fy = x * g, gamma[x] * h
            if y not in gamma:
                gamma[y] = fy
                queue.append(y)
            elif gamma[y] != fy:
                return None, (y, gamma[y], fy)
    for sub, m in sides:
        for x in sub.elements:
            if gamma[x] != m(x):
                return None, (x, gamma[x], m(x))
    return tuple(j.index_of(gamma[x]) for x in j.elements), None


def _spread(identity: Permutation, edges) -> dict[Permutation, Permutation] | None:
    """The map with phi(identity) = identity and phi(x * g) = phi(x) * h
    for every edge (g, h), by a breadth-first search from the identity
    along Permutation products that checks every edge, or None when some
    element is forced to two images.  A map whose edges all agree is a
    homomorphism on the group the g generate."""
    phi = {identity: identity}
    queue = [identity]
    for x in queue:
        for g, h in edges:
            y, fy = x * g, phi[x] * h
            if y not in phi:
                phi[y] = fy
                queue.append(y)
            elif phi[y] != fy:
                return None
    return phi


_PRODUCT_ENDO_CACHE: dict[tuple[Permutation, ...], list[dict[Permutation, Permutation]]] = {}


def endomorphisms_by_products(group: FiniteGroup) -> list[dict[Permutation, Permutation]]:
    """Every endomorphism of the group, as an element-to-image dict.

    Each generator is sent to every element whose order divides its own,
    and each choice is spread over the group by _spread.  Cached per
    element tuple: a lattice sweep meets each subgroup many times."""
    key = group.elements
    if key not in _PRODUCT_ENDO_CACHE:
        gens = group.generators
        choices = [[y for y in group.elements if g.order() % y.order() == 0] for g in gens]
        spread = (_spread(group.identity, list(zip(gens, images))) for images in product(*choices))
        _PRODUCT_ENDO_CACHE[key] = [phi for phi in spread if phi is not None]
    return _PRODUCT_ENDO_CACHE[key]


def endomorphism_tables_by_candidates(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The per-candidate search with no pruning by conjugation: every
    choice of generator images spread on its own, as
    endomorphisms_by_products does, returned as sorted index tables, the
    form enumerate_endomorphisms returns."""
    index = {x: i for i, x in enumerate(group.elements)}
    return sorted({tuple(index[phi[x]] for x in group.elements)
                   for phi in endomorphisms_by_products(group)})


def independent_by_product_scan(pair: SubgroupPair) -> bool:
    """Independence by the definition, in dicts and Permutation products
    only: every (alpha, beta) in End(A) x End(B) must extend to the join.

    Each pair is extended by _spread over the generators of A and of B,
    carrying alpha's and beta's images, which reaches the whole join;
    the extension must then agree with alpha on every element of A and
    with beta on every element of B.  Shares no code with Step4: no
    enumerate_endomorphisms, extend, propagate_images or index columns.
    """
    a, b = pair.a, pair.b
    identity = Permutation.identity(pair.degree)
    for alpha in endomorphisms_by_products(a):
        for beta in endomorphisms_by_products(b):
            edges = [(g, alpha[g]) for g in a.generators] + [(g, beta[g]) for g in b.generators]
            gamma = _spread(identity, edges)
            if (gamma is None or any(gamma[x] != alpha[x] for x in a.elements)
                    or any(gamma[x] != beta[x] for x in b.elements)):
                return False
    return True


def summary_by_rows(degree: int, rows) -> dict:
    """An atlas summary counted row by row, the reference for the
    atlas's count per conjugation orbit: every row adds itself to the
    counts, and each row's mirror is looked up by position.  rows must
    hold every ordered pair of the degree's subgroup list."""
    verdicts = {"Independent": 0, "Dependent": 0, "Inconclusive": 0}
    oracle_counts = {"dependent": 0, "independent": 0, "inconclusive": 0}
    steps: dict[str, int] = {}
    disagreements, symmetry_violations, gap_ids = [], [], []
    by_pos = {(r.a_index, r.b_index): r for r in rows}
    for r in rows:
        verdicts[r.pipeline_status] += 1
        oracle_counts[r.oracle] += 1
        steps[r.pipeline_step] = steps.get(r.pipeline_step, 0) + 1
        if r.pipeline_status != "Inconclusive" and r.oracle != r.pipeline_status.lower():
            disagreements.append(r.pair_id)
        mirror = by_pos[(r.b_index, r.a_index)]
        statuses = (r.pipeline_status, mirror.pipeline_status)
        if r.a_index < r.b_index and "Inconclusive" not in statuses and statuses[0] != statuses[1]:
            symmetry_violations.append(r.pair_id)
        if r.gap_region:
            gap_ids.append(r.pair_id)
    subgroups = math.isqrt(len(rows))
    assert subgroups * subgroups == len(rows)
    return {
        "degree": degree,
        "group_order": math.factorial(degree),
        "subgroups": subgroups,
        "pairs": len(rows),
        "verdicts": verdicts,
        "oracle_verdicts": oracle_counts,
        "deciding_steps": dict(sorted(steps.items())),
        "oracle_disagreements": disagreements,
        "symmetry_violations": symmetry_violations,
        "gap_region_count": len(gap_ids),
        "gap_region_ids": gap_ids,
        "budget_trips": [],
    }
