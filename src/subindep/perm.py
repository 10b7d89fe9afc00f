"""Permutations of {1..n} with cycle-notation parsing and formatting.

Composition is right-to-left throughout: (p * q)(x) = p(q(x)), so in a
product the rightmost factor acts first.  Points are 1-based in all text
forms and 0-based in the internal image arrays.

Validation happens only where outside input enters: the Permutation
constructor checks for a bijection and parse_cycles checks the points of
each cycle, while products and inverses, which are bijections by
construction, are built without a check.
"""

from __future__ import annotations

import math
import re


class CycleParseError(ValueError):
    """Raised when a cycle-notation string cannot be parsed."""


class Permutation:
    """An element of the symmetric group on len(images) points.

    images[i] is the 0-based image of the 0-based point i.  Instances are
    immutable, hashable, and totally ordered by their image arrays, which
    makes the identity the minimum of every symmetric group.
    """

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
        _set_images(self, images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __delattr__(self, name):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        return (Permutation, (self.images,))

    def __eq__(self, other):
        if isinstance(other, Permutation):
            return self.images == other.images
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Permutation):
            return self.images < other.images
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Permutation):
            return self.images <= other.images
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Permutation):
            return self.images > other.images
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, Permutation):
            return self.images >= other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # self * other applies other first.
        img = self.images
        other_img = other.images
        if len(img) != len(other_img):
            raise ValueError(f"degree mismatch: {len(img)} vs {len(other_img)}")
        return _trusted(tuple([img[j] for j in other_img]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return _trusted(tuple(inv))

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
        return all(j == i for i, j in enumerate(self.images))

    def order(self) -> int:
        """Multiplicative order, the lcm of the cycle lengths."""
        cycs = self.cycles()
        return math.lcm(*(len(c) for c in cycs)) if cycs else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 0-based tuples, each starting at its least
        point, listed in order of least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def conjugated_by(self, h: "Permutation") -> "Permutation":
        """h * self * h^-1."""
        return h * self * h.inverse()

    def __str__(self) -> str:
        return cycle_string(self)

    def __repr__(self) -> str:
        return f"Perm({cycle_string(self)!r}, deg={self.degree})"


_set_images = Permutation.images.__set__


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation from images already known to be a bijection."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    return p


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
        if not tok.isdigit():
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
    identity = _trusted(tuple(range(degree)))
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
    # is a bijection and needs no further check.
    result = identity
    for m in matches:
        pts = _parse_points(m.group(1), degree)
        if not pts:
            raise CycleParseError(f"empty cycle in {text!r}")
        if len(set(pts)) != len(pts):
            raise CycleParseError(f"repeated point in cycle {m.group(0)!r}")
        img = list(range(degree))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = b - 1
        result = result * _trusted(tuple(img))
    return result
