"""Finite permutation groups as explicit, canonically sorted element sets.

Everything here is exhaustive and deterministic: groups are closures of
generator lists, element tuples are sorted lexicographically by image
tuple (so the identity sits at index 0), and membership and index
lookups go through a dict keyed by element.  Closure works on plain
image tuples and wraps each element as a Permutation once.
Budgets guard against accidentally materializing a group that is too
large; callers see BudgetExceeded and report an inconclusive outcome
instead of thrashing.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .perm import Permutation, _trusted, cycle_string, gather

DEFAULT_MAX_GROUP_ORDER = 5040
DEFAULT_ENDO_BUDGET = 256


class BudgetExceeded(RuntimeError):
    """A size budget was hit; the computation was abandoned, not wrong."""

    def __init__(self, budget: str, limit: int, context: str):
        super().__init__(f"{budget} limit {limit} exceeded while {context}")
        self.budget = budget
        self.limit = limit
        self.context = context


class FiniteGroup:
    """A finite permutation group held as its full sorted element tuple.

    elements is sorted lexicographically by image arrays; generators is a
    (possibly empty) tuple of elements whose closure is the element set,
    each outside the subgroup the ones before it generate.  Each one at
    least doubles that subgroup, so there are at most log2 of the order
    of them; closure, join and normal_closure keep only such generators
    (see _grow), whatever they were given.  Instances are immutable in
    intent; the only mutable state is lazy caches: the element index
    (element to position), right-multiplication columns and
    endomorphisms.
    """

    __slots__ = ("degree", "elements", "generators", "_index", "_mul_cols", "_endos")

    def __init__(self, elements: tuple[Permutation, ...], generators: tuple[Permutation, ...]):
        self.degree = len(elements[0])
        self.elements = elements
        self.generators = generators
        self._index: dict[Permutation, int] | None = None
        self._mul_cols: dict[int, tuple[int, ...]] = {}
        self._endos: "tuple[int, tuple[GroupMap, ...]] | None" = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def _image_index(self) -> dict[Permutation, int]:
        """The position of each element."""
        index = self._index
        if index is None:
            index = self._index = dict(zip(self.elements, range(len(self.elements))))
        return index

    def index_of(self, p: Permutation) -> int:
        try:
            return self._image_index()[p]
        except KeyError:
            raise KeyError(f"{p!r} is not an element") from None

    def __contains__(self, p: Permutation) -> bool:
        return p in self._image_index()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        gens = ", ".join(cycle_string(g) for g in self.generators) or "e"
        return f"<group deg={self.degree} order={self.order} gens=[{gens}]>"

    def is_subgroup_of(self, other: "FiniteGroup") -> bool:
        return all(x in other for x in self.elements)

    def _col(self, c: int) -> tuple[int, ...]:
        """Right multiplication by elements[c], as an index array."""
        col = self._mul_cols.get(c)
        if col is None:
            index = self._image_index()
            # x * elements[c] has images x[pc[i]].  The index's keys are
            # the elements, in order; a plain tuple looks up the
            # Permutation equal to it.
            times_c = gather(self.elements[c])
            col = tuple([index[times_c(x)] for x in index])
            self._mul_cols[c] = col
        return col


def _grow(found: list, kept: list, candidates: Iterable[Permutation], max_order: int,
          start: FiniteGroup | None = None) -> FiniteGroup:
    """The group found, generated by kept, grown by the candidates in turn:
    start itself when it is the group found and no candidate is kept.

    found holds the group's elements as image tuples and kept its
    generators; the candidates may be drawn lazily from kept as it grows.
    A candidate already in the group found so far (the identity, a
    repeat, a product of earlier ones) is passed over; one outside it
    joins kept, and the group is closed again breadth-first under right
    multiplication by every kept generator (x * g has images x[g[i]],
    gathered by perm.gather).  Each kept candidate at least doubles the
    group, so the closures before the last one cost at most as much again
    as the last; one seen set serves the whole growth.  Each element is
    wrapped as a Permutation once, after sorting.  Raises BudgetExceeded
    once the element count passes max_order, checked after each element
    is expanded, so at most max_order + len(kept) tuples are ever held.
    """
    seen = set(found)
    add, append = seen.add, found.append
    times = list(map(gather, kept))
    for c in candidates:
        if c in seen:
            continue
        kept.append(c)
        times.append(gather(c))
        for x in found:  # found grows as the search runs: breadth-first
            for times_g in times:
                y = times_g(x)
                if y not in seen:
                    add(y)
                    append(y)
            if len(found) > max_order:
                raise BudgetExceeded("max_group_order", max_order, "closing a generator set")
    if len(found) > max_order:  # the group given, when nothing was kept
        raise BudgetExceeded("max_group_order", max_order, "closing a generator set")
    if start is not None and len(found) == start.order:
        return start
    return FiniteGroup(tuple(map(_trusted, sorted(found))), tuple(kept))


def closure(generators: Iterable[Permutation], degree: int,
            max_order: int = DEFAULT_MAX_GROUP_ORDER) -> FiniteGroup:
    """The subgroup generated by the given permutations.

    The identity grows by the generators in turn (see _grow), which keeps
    only those outside the group generated before them: the identity,
    repeats and products of earlier ones are dropped.  In a finite group
    the closure under right multiplication also yields all inverses.
    Raises BudgetExceeded once the element count passes max_order.
    """
    gens = list(generators)
    for g in gens:
        if len(g) != degree:
            raise ValueError(f"generator degree {len(g)} does not match {degree}")
    return _grow([tuple(range(degree))], [], gens, max_order)


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n == 1:
        return closure([], 1)
    swap = Permutation(tuple([1, 0] + list(range(2, n))))
    cyc = Permutation(tuple(list(range(1, n)) + [0]))
    return closure([swap, cyc], n)


def join(a: FiniteGroup, b: FiniteGroup, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> FiniteGroup:
    """Smallest subgroup containing both: a's elements grown by b's
    generators (see _grow), so a is not closed again.

    Its generators are a's, then each of b's that lies outside the group
    generated before it: those closure keeps from a's generators followed
    by b's.  Returns a itself when b lies inside a.
    """
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return _grow(list(a.elements), list(a.generators), b.generators, max_order, a)


def normal_closure(s: FiniteGroup, g: FiniteGroup) -> FiniteGroup:
    """Smallest normal subgroup of g containing s.

    Grows s by the conjugate of each of its generators by each generator
    of g (see _grow); a conjugate outside the group joins the generators,
    after s's own, and its own conjugates are drawn in turn.  Once every
    generator's conjugates lie inside, the group is normal, and it is
    generated by conjugates of elements of s, so it lies in every normal
    subgroup containing s.  Returns s itself when s is normal.  Bounded
    by |g|, so no budget applies.
    """
    if not s.is_subgroup_of(g):
        raise ValueError("s is not a subgroup of g")
    gens = list(s.generators)
    return _grow(list(s.elements), gens, (x.conjugated_by(t) for x in gens for t in g.generators),
                 g.order, s)


def conjugation_tables(g: FiniteGroup, ts: Sequence[int]) -> list[list[int]]:
    """Conjugation by elements[t] on element indices, for each index t in
    ts: entry x of t's table is the index of
    elements[x].conjugated_by(elements[t]), t x t^-1.

    With inverse the index of each element's inverse and c the column of
    t^-1, c[x] is x t^-1, and t y is the inverse of y^-1 t^-1, so t x t^-1
    is inverse[c[inverse[c[x]]]].  The inverse list is built only when ts
    is not empty.
    """
    if not ts:
        return []
    at = g._image_index().__getitem__
    inverse = [at(x.inverse()) for x in g.elements]
    return [[inverse[c[inverse[y]]] for y in c]
            for c in map(g._col, map(inverse.__getitem__, ts))]


def propagate_images(g: FiniteGroup, gen_idx: Sequence[int], image_idx: Sequence[int]):
    """Build the unique map f of g into itself with f(identity) =
    identity and f(x * gen) = f(x) * image, checking every product edge.

    Works over element indices.  Returns (table, None) where table[i] is
    the index of the image of element i, or (None, (i, a, b)) naming the
    first element forced to two distinct images a and b.  A total
    consistent table is automatically an endomorphism: consistency on all
    edges extends multiplicativity from generators to arbitrary products.
    """
    # Each generator column paired with its image column, once per call.
    cols = list(zip(map(g._col, gen_idx), map(g._col, image_idx)))
    table = [-1] * g.order
    table[0] = 0
    queue = [0]
    append = queue.append
    for x in queue:  # queue grows as the search runs: breadth-first
        fx = table[x]
        for gc, ic in cols:
            y = gc[x]
            fy = ic[fx]
            cur = table[y]
            if cur < 0:
                table[y] = fy
                append(y)
            elif cur != fy:
                return None, (y, cur, fy)
    if len(queue) != len(table):
        raise ValueError("generators do not generate the group")
    return tuple(table), None


class GroupMap(NamedTuple):
    """An endomorphism of group, as the index of each element's image."""

    group: FiniteGroup
    images: tuple[int, ...]

    def __call__(self, x: Permutation) -> Permutation:
        return self.group.elements[self.images[self.group.index_of(x)]]

    def is_identity(self) -> bool:
        return self.images == tuple(range(self.group.order))

    def is_trivial(self) -> bool:
        return all(i == 0 for i in self.images)

    def table_strings(self) -> dict[str, str]:
        elements = self.group.elements
        return {cycle_string(x): cycle_string(elements[i]) for x, i in zip(elements, self.images)}

    def __repr__(self) -> str:
        kind = "id" if self.is_identity() else ("triv" if self.is_trivial() else "map")
        return f"<{kind} on order {self.group.order}>"


def identity_map(g: FiniteGroup) -> GroupMap:
    return GroupMap(g, tuple(range(g.order)))


def trivial_map(g: FiniteGroup) -> GroupMap:
    return GroupMap(g, (0,) * g.order)


class SubgroupPair:
    """Two subgroups of a common symmetric group, with cached properties
    for the join, normal closures in the join, embeddings of each side's
    indices into the join, each side's generator positions, and least
    shared non-identity element.  A caller that already knows a fact
    assigns it by name.

    A side is normal in the join exactly when it is its own normal
    closure there.  normal_closure then returns the side itself, and so
    must a caller that assigns a closure; a_normal and b_normal read
    that, and are never assigned.
    """

    def __init__(self, a: FiniteGroup, b: FiniteGroup,
                 max_group_order: int = DEFAULT_MAX_GROUP_ORDER):
        if a.degree != b.degree:
            raise ValueError("subgroups must share a degree")
        self.a = a
        self.b = b
        self.max_group_order = max_group_order

    @property
    def degree(self) -> int:
        return self.a.degree

    @cached_property
    def join(self) -> FiniteGroup:
        return join(self.a, self.b, self.max_group_order)

    @cached_property
    def ncl_a(self) -> FiniteGroup:
        """Normal closure of a in the join."""
        return normal_closure(self.a, self.join)

    @cached_property
    def ncl_b(self) -> FiniteGroup:
        return normal_closure(self.b, self.join)

    @property
    def a_normal(self) -> bool:
        return self.ncl_a is self.a

    @property
    def b_normal(self) -> bool:
        return self.ncl_b is self.b

    @cached_property
    def embeddings(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """For A and for B, the join index of each element, by position."""
        at = self.join._image_index().__getitem__
        return tuple(tuple(map(at, sub.elements)) for sub in (self.a, self.b))

    @cached_property
    def generator_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """For A and for B, the position of each generator in its side."""
        return tuple(tuple(map(sub._image_index().__getitem__, sub.generators))
                     for sub in (self.a, self.b))

    @cached_property
    def shared_element(self) -> Permutation | None:
        """The least non-identity element of A ∩ B, or None when A and B
        meet trivially."""
        return next((x for x in self.a.elements[1:] if x in self.b), None)

    def computed_orders(self) -> dict[str, int | None]:
        """Orders of the join and normal closures computed or assigned so
        far, None for each that is not (a budget trip leaves it unset)."""
        facts = vars(self)
        return {f"{name}_order": facts[name].order if name in facts else None
                for name in ("join", "ncl_a", "ncl_b")}

    def __repr__(self) -> str:
        return f"<pair |A|={self.a.order} |B|={self.b.order} deg={self.degree}>"
