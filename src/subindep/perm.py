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
from functools import partial
from operator import itemgetter
from typing import Callable, Sequence


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
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in p):
            raise ValueError(f"images must be integers: {tuple(p)}")
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
        return _trusted(gather(other)(self))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return _trusted(inv)

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self))

    def order(self) -> int:
        """Multiplicative order, the lcm of the cycle lengths."""
        seen = [False] * len(self)
        lengths = set()
        for i, j in enumerate(self):
            if seen[i]:
                continue
            k = 1
            while j != i:
                seen[j] = True
                j = self[j]
                k += 1
            lengths.add(k)
        return math.lcm(*lengths)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 0-based tuples, each starting at its least
        point, listed in order of least point."""
        seen = [False] * len(self)
        out = []
        for i, j in enumerate(self):
            if seen[i] or j == i:
                continue
            cyc = [i]
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


def gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A getter of the items at the given indices, in order, as a tuple:
    operator.itemgetter(*indices), except that one index gives a tuple
    too, where itemgetter gives the item alone."""
    if len(indices) == 1:
        i, = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


# A Permutation from images already known to be a bijection; a partial of
# tuple.__new__, so that map(_trusted, ...) wraps without a Python frame.
_trusted = partial(tuple.__new__, Permutation)


def cycle_string(p: Permutation) -> str:
    """Canonical cycle notation: cycles sorted by least point, each cycle
    starting at its least point, points space-separated, fixed points
    omitted, identity rendered as "e"."""
    cycs = p.cycles()
    if not cycs:
        return "e"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)


# A whole cycle string, stripped: cycles separated only by whitespace.
_CYCLES_RE = re.compile(r"\([^()]*\)(?:\s*\([^()]*\))*")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _shape_error(text: str, s: str) -> str:
    """Why the stripped string s is not a sequence of cycles."""
    if not s:
        return "empty permutation string"
    if not _CYCLE_RE.search(s):
        return f"no cycles found in {text!r}"
    # Text after the run of cycles s starts with is trailing when no cycle follows it.
    run = _CYCLES_RE.match(s)
    trailing = run and not _CYCLE_RE.search(s, run.end())
    return f"unexpected {'trailing ' if trailing else ''}text in {text!r}"


def _bad_point(tokens: list[str], degree: int) -> str | None:
    """The error for the first token that is not a point in range, read
    token by token, or None when every token is one."""
    for tok in tokens:
        # str.isdigit also accepts non-ASCII digits such as "²" and "٣".
        if not (tok.isascii() and tok.isdigit()):
            return f"bad point {tok!r}"
        for v in map(int, tok if degree <= 9 else (tok,)):
            if not 1 <= v <= degree:
                return f"point {v} out of range 1..{degree}"


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
    if s == "e" or s == "()":
        return _trusted(range(degree))
    if not _CYCLES_RE.fullmatch(s):
        raise CycleParseError(_shape_error(text, s))

    # Points are range-checked and distinct within a cycle, so each cycle
    # is a bijection and needs no further check.  The product is built in
    # place on img, where img[p] is the 0-based image of the 1-based point
    # p: multiplying on the right by a cycle (a1 ... ak) only sets the
    # image of each ai to the old image of the next point, so a string
    # costs its length plus the degree, however many cycles it holds.
    img = [0, *range(degree)]
    for body in _CYCLE_RE.findall(s):
        tokens = body.replace(",", " ").split()
        digits = "".join(tokens)
        if not (digits.isascii() and digits.isdigit()):
            raise CycleParseError(_bad_point(tokens, degree) or f"empty cycle in {text!r}")
        try:
            # Below degree 10 every digit is a point, compact style "(12)".
            pts = list(map(int, digits if degree <= 9 else tokens))
        except ValueError:  # past int's limit on the digits of a string
            raise CycleParseError(f"point out of range 1..{degree} in cycle {body[:20]!r}") from None
        if min(pts) < 1 or max(pts) > degree:
            raise CycleParseError(_bad_point(tokens, degree))
        if len(set(pts)) != len(pts):
            raise CycleParseError(f"repeated point in cycle {'(' + body + ')'!r}")
        if len(pts) > 1:
            old = itemgetter(*pts)(img)
            for p, v in zip(pts, old[1:] + old[:1]):
                img[p] = v
    return _trusted(img[1:])
