"""Permutations of {1..n} with cycle-notation parsing and formatting.

Composition is right-to-left throughout: (p * q)(x) = p(q(x)), so in a
product the rightmost factor acts first.  Points are 1-based in all text
forms and 0-based in a Permutation, which is the tuple of its images.

Validation happens only where outside input enters: the Permutation
constructor checks for a bijection and parse_cycles checks the points of
each cycle, while products and inverses, which are bijections by
construction, are built without a check.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter


class CycleParseError(ValueError):
    """Raised when a cycle-notation string cannot be parsed."""


class Permutation(tuple):
    """An element of the symmetric group on len(self) points.

    A Permutation is the tuple of its images: self[i] is the 0-based image
    of the 0-based point i.  It is therefore immutable, hashable, and
    totally ordered by its images, which makes the identity the minimum of
    every symmetric group, and it equals the plain tuple of its images.
    """

    __slots__ = ()

    def __new__(cls, images) -> "Permutation":
        p = tuple.__new__(cls, images)
        n = len(p)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(p) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(p)}")
        return p

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @property
    def degree(self) -> int:
        return len(self)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # self * other applies other first.
        if len(self) != len(other):
            raise ValueError(f"degree mismatch: {len(self)} vs {len(other)}")
        if len(other) == 1:
            # itemgetter of one index returns the item, not a tuple; the
            # only permutation of degree 1 is the identity.
            return self
        return _trusted(itemgetter(*other)(self))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return _trusted(inv)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        out = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self))

    def order(self) -> int:
        """Multiplicative order, the lcm of the cycle lengths."""
        cycs = self.cycles()
        return math.lcm(*(len(c) for c in cycs)) if cycs else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 0-based tuples, each starting at its least
        point, listed in order of least point."""
        seen = [False] * len(self)
        out = []
        for i in range(len(self)):
            if seen[i] or self[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self[j]
            out.append(tuple(cyc))
        return out

    def conjugated_by(self, h: "Permutation") -> "Permutation":
        """h * self * h^-1, which sends h(i) to h(self(i)), built in one
        pass without the inverse or the two products."""
        if len(self) != len(h):
            raise ValueError(f"degree mismatch: {len(self)} vs {len(h)}")
        img = [0] * len(self)
        for hi, si in zip(h, self):
            img[hi] = h[si]
        return _trusted(img)

    def __str__(self) -> str:
        return cycle_string(self)

    def __repr__(self) -> str:
        return f"Perm({cycle_string(self)!r}, deg={self.degree})"


def _trusted(images) -> Permutation:
    """A Permutation from images already known to be a bijection."""
    return tuple.__new__(Permutation, images)


def cycle_string(p: Permutation) -> str:
    """Canonical cycle notation: cycles sorted by least point, each cycle
    starting at its least point, points space-separated, fixed points
    omitted, identity rendered as "e"."""
    cycs = p.cycles()
    if not cycs:
        return "e"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)


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


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation into a Permutation of the given degree.

    Accepts a sequence of parenthesized cycles composed right-to-left
    (rightmost cycle acts first), or the identity tokens "e" / "()".
    Points may be separated by whitespace or commas; juxtaposed single
    digits like "(12)" are allowed only for degree <= 9.
    """
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise CycleParseError(f"invalid degree {degree!r}")
    s = text.strip()
    identity = _trusted(range(degree))
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

    # Points are range-checked and distinct within a cycle, so each cycle
    # is a bijection and needs no further check.  The product is built in
    # place: multiplying on the right by a cycle (a1 ... ak) only sets the
    # image of each ai to the old image of the next point, so a string
    # costs its length plus the degree, however many cycles it holds.
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
    return _trusted(img)
