"""Endomorphism enumeration and extension of map pairs to a join.

The extension question is the heart of the package: given endomorphisms
alpha of A and beta of B, is there an endomorphism of <A u B> agreeing
with both?  Such a map is unique when it exists, because A and B
together generate the join, so we can build it by forced propagation
and report the exact element where the forcing first clashes.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .groups import (
    DEFAULT_ENDO_BUDGET,
    BudgetExceeded,
    FiniteGroup,
    GroupMap,
    SubgroupPair,
    conjugation_tables,
    propagate_images,
)
from .perm import Permutation, gather

# Each candidate map propagates over all of g, so the search costs at
# most candidates * |g| steps (fewer when g is not abelian: one candidate
# per conjugation orbit propagates).  32 * endo_budget ** 2 admits Step4
# on C2^4 (65,536 candidates over 16 elements, 16 * 256 ** 2) and End(S5)
# (1,456 over 120), and stops C16 x C16 (65,536 over 256) before it
# searches.
ENDO_WORK_FACTOR = 32


# End tables by multiplication structure (see enumerate_endomorphisms),
# bounded by the table entries held.  The memo lasts for the process, so
# only a process that searches one structure twice reads it (an atlas
# pass, a loop of decisions, a benchmark worker), not a one-pair CLI
# call.  The benchmark's audit inputs settle at 233 keys and 79,318
# entries, the S5 lattice at 40 keys and 36,144; End(C2^4), 65,536
# tables of 16, is never kept.
ENDO_MEMO_ENTRIES = 1 << 18
_ENDO_MEMO: dict[tuple, tuple[int, tuple[tuple[int, ...], ...]]] = {}


def enumerate_endomorphisms(g: FiniteGroup, endo_budget: int = DEFAULT_ENDO_BUDGET) -> list[GroupMap]:
    """All endomorphisms of g, deduplicated and sorted by their full image
    tables in canonical element order.

    The search runs over g's generators: each lies outside the subgroup
    the earlier ones generate, so there are at most log2|g| of them (see
    FiniteGroup).  Each generator is sent to every element whose order
    divides its own, and each choice is validated by propagation over the
    whole multiplication table, so every returned map is a genuine
    homomorphism and none is missed.

    Choices are propagated one per orbit under conjugation: for t in g,
    c_t . phi is an endomorphism exactly when phi is, and conjugation
    keeps orders, so it maps the choices onto themselves.  The first
    choice met in each orbit is propagated; the rest of the orbit is
    reached through the conjugation maps of the generators that are not
    central, and when the choice extends, each member's table is the
    representative's gathered through the same maps.  When g is abelian
    every orbit is a single choice, and each is propagated as it comes.

    The number of choices and the sorted tables are memoized by g's order
    and the right-multiplication columns (g._col) of its generators, each
    of which starts with its generator's index.  That key is enough:
    breadth-first search from index 0 along equal columns reaches every
    index by the same generator word, so groups with equal keys have
    index-identical multiplication tables, and so the same generator
    positions, element orders, choices and tables, whatever their degree
    or points.  The memo holds at most ENDO_MEMO_ENTRIES table
    entries, dropping the least recently used key first; a search with
    more entries than that is not kept.

    Raises BudgetExceeded when the order of g exceeds endo_budget, or,
    before searching, when the number of choices exceeds endo_budget ** 2
    or the propagation work, choices times |g|, exceeds ENDO_WORK_FACTOR *
    endo_budget ** 2.  The maps are cached on g with the number of
    choices, and so is a memoized search, so a cached list is returned
    under the same budgets.
    """
    if g.order > endo_budget:
        raise BudgetExceeded("endo_budget", endo_budget, "enumerating endomorphisms")
    if g._endos is None:
        gens = g.generators
        gen_idx = list(map(g.index_of, gens))
        key = (g.order, tuple(map(g._col, gen_idx)))
        known = _ENDO_MEMO.pop(key, None)
        if known is not None:
            _ENDO_MEMO[key] = known  # now the most recently used
            g._endos = known[0], tuple(GroupMap(g, t) for t in known[1])
    if g._endos is None:
        orders = [y.order() for y in g.elements]
        candidates = [[j for j, oy in enumerate(orders) if ox % oy == 0]
                      for ox in [orders[i] for i in gen_idx]]
        search = math.prod(map(len, candidates))
    else:
        search = g._endos[0]
    if search > endo_budget ** 2:
        raise BudgetExceeded("endo_budget", endo_budget, f"searching {search} candidate maps")
    if search * g.order > ENDO_WORK_FACTOR * endo_budget ** 2:
        raise BudgetExceeded("endo_budget", endo_budget,
                             f"propagating {search} candidate maps over {g.order} elements")
    if g._endos is None:
        conj = conjugation_tables(g, [i for i, t in zip(gen_idx, gens)
                                      if any(t * u != u * t for u in gens if u is not t)])
        tables = set()
        # Product order never returns to a tuple, so only the orbit
        # members reached through conj are recorded as seen; when g is
        # abelian, conj is empty and so is seen.
        seen = set()
        for combo in itertools.product(*candidates):
            if combo in seen:
                continue
            table, conflict = propagate_images(g, gen_idx, combo)
            orbit = [(combo, table)]
            for member, member_table in orbit:  # orbit grows: breadth-first
                for c in conj:
                    image = gather(member)(c)
                    if image not in seen:
                        seen.add(image)
                        orbit.append((image, None if conflict else gather(member_table)(c)))
            if conflict is None:
                tables.update(t for _, t in orbit)
        tables = tuple(sorted(tables))
        _memoize(key, (search, tables))
        g._endos = search, tuple(GroupMap(g, t) for t in tables)
    return list(g._endos[1])


def _memoize(key: tuple, known: tuple[int, tuple[tuple[int, ...], ...]]) -> None:
    """Keep a search under key, whose first item is the group order,
    unless its tables alone exceed ENDO_MEMO_ENTRIES entries; then drop
    the least recently used keys until the memo's tables fit again."""
    if key[0] * len(known[1]) > ENDO_MEMO_ENTRIES:
        return
    _ENDO_MEMO[key] = known
    held = sum(k[0] * len(tables) for k, (_, tables) in _ENDO_MEMO.items())
    while held > ENDO_MEMO_ENTRIES:
        oldest = next(iter(_ENDO_MEMO))
        held -= oldest[0] * len(_ENDO_MEMO.pop(oldest)[1])


class ExtensionConflict(NamedTuple):
    """An element of the join forced to two distinct images."""

    element: Permutation
    image_a: Permutation
    image_b: Permutation


class ExtensionResult(NamedTuple):
    """Outcome of extending an endomorphism pair to the join: either the
    unique common extension or the first conflict encountered."""

    map: GroupMap | None
    conflict: ExtensionConflict | None

    @property
    def exists(self) -> bool:
        return self.map is not None


def _require_endomorphism(m: GroupMap, g: FiniteGroup, name: str) -> None:
    # The maps of a pair are built on its own sides, so identity settles
    # almost every group test.  A negative entry would index from the end.
    images, n = m.images, g.order
    if not ((m.group is g or m.group == g) and len(images) == n
            and min(images) >= 0 and max(images) < n):
        raise ValueError(f"{name} is not an endomorphism of the expected subgroup")


def extend(alpha: GroupMap, beta: GroupMap, pair: SubgroupPair) -> ExtensionResult:
    """Extend (alpha on A, beta on B) to the join, or fail with a witness.

    Propagates images from the identity out along right multiplication by
    the generators of A and B, each carrying its alpha- or beta-image.
    Every product edge is checked, not just a spanning tree, so a
    returned map is a verified homomorphism; agreement with alpha on all
    of A and with beta on all of B is then checked rather than assumed,
    one whole-side comparison per side, with the element loop run only
    to name the first element that disagrees.

    Each map must be a table of its side's order with every entry an
    index of the side, or ValueError names it.  A table of that shape
    that is no homomorphism is taken as given and ends in a conflict,
    which is the right answer: no endomorphism of the join restricts to
    a map that is not a homomorphism.
    """
    _require_endomorphism(alpha, pair.a, "alpha")
    _require_endomorphism(beta, pair.b, "beta")
    j = pair.join
    emb_a, emb_b = pair.embeddings
    pos_a, pos_b = pair.generator_positions
    im_a, im_b = alpha.images, beta.images
    gen_idx = [emb_a[i] for i in pos_a] + [emb_b[i] for i in pos_b]
    image_idx = [emb_a[im_a[i]] for i in pos_a] + [emb_b[im_b[i]] for i in pos_b]
    table, conflict = propagate_images(j, gen_idx, image_idx)
    if conflict is not None:
        y, c1, c2 = conflict
        return ExtensionResult(None, ExtensionConflict(j.elements[y], j.elements[c1], j.elements[c2]))
    for sub, images, emb in ((pair.a, im_a, emb_a), (pair.b, im_b, emb_b)):
        if gather(emb)(table) != gather(images)(emb):
            for i, x in enumerate(sub.elements):
                if table[emb[i]] != emb[images[i]]:
                    return ExtensionResult(None, ExtensionConflict(
                        x, j.elements[table[emb[i]]], sub.elements[images[i]]))
    return ExtensionResult(GroupMap(j, table), None)
