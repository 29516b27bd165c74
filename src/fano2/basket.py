"""Terminal quotient singularities 1/r(a, r-a, 2) and baskets of them.

A polarising divisor of index 2 forces the third local weight to be 2 and
the index r to be odd.  A type is stored canonically with
``1 <= a <= (r-1)/2`` (the germs for a and r-a are isomorphic).  A basket
is a multiset of types; the ones carried by a Fano 3-fold satisfy the
load bound ``sum (r^2 - 1)/r < 24``.  Every point costs at least 8/3, so
such a basket has at most MAX_POINTS points.

Baskets have a compact text syntax used by the command line and the data
fixtures: comma-separated ``r/a`` pairs with an optional multiplicity
prefix, e.g. ``2x3/1,5/2`` for two copies of 1/3(1,2,2) and one of
1/5(2,3,2).  The parser insists on canonical ``r/a`` pairs and suggests
the canonical form otherwise, and it refuses a basket of more than
MAX_POINTS points before building it, whatever its multiplicities.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import count, groupby, takewhile
from math import gcd, lcm
from typing import Iterable, NamedTuple

#: Upper bound for the basket load sum (r^2 - 1)/r; strict inequality.
BASKET_BOUND = 24

#: Most points a basket within the bound has: each costs at least 8/3,
#: the cost of 1/3(1, 2, 2), and nine of those reach 24.
MAX_POINTS = 8


class InvalidSingularityError(ValueError):
    """A (r, a) pair that does not describe a valid singularity type."""


class EvenIndexError(InvalidSingularityError):
    """Index r is even (impossible when the third local weight is 2)."""


class ZeroWeightError(InvalidSingularityError):
    """Local weight a is divisible by r."""


class NotCoprimeError(InvalidSingularityError):
    """gcd(a, r) > 1, so the action is not free in codimension 2."""


class BasketParseError(ValueError):
    """Malformed basket text."""


class BasketBoundError(ValueError):
    """Basket load reaches 24, forcing A c2 <= 0.  ``basket`` is the
    basket's text, which a basket too large to build has too."""


def overweight(text: str, load: Fraction) -> BasketBoundError:
    """The error for the basket written ``text`` of load ``load``."""
    p, q = load.numerator, load.denominator
    shown = _decimal(p) if q == 1 else f"{_decimal(p)}/{_decimal(q)}"
    exc = BasketBoundError(f"basket load {shown} reaches 24 (A c2 would be <= 0)")
    exc.basket = text
    return exc


def _decimal(n: int) -> str:
    """str(n) for n >= 0, also past the digits str() writes at most
    (sys.get_int_max_str_digits()), which the load or the point count of
    parsed numbers can pass."""
    try:
        return str(n)
    except ValueError:
        step = sys.get_int_max_str_digits()
        high, low = divmod(n, 10**step)
        return _decimal(high) + str(low).zfill(step)


class _TypeFields(NamedTuple):
    r: int
    a: int


class SingularityType(_TypeFields):
    """The quotient singularity 1/r(a, r-a, 2), stored canonically.

    A named tuple (r, a): types order by r, then a, and hash and compare
    as tuples do.  Every way to build one, ``_replace`` and unpickling
    included, rejects pairs that are not canonical.
    """

    __slots__ = ()

    def __new__(cls, r: int, a: int):
        if r < 3 or r % 2 == 0:
            raise EvenIndexError(f"index must be odd and >= 3, got r={r}")
        if not 1 <= a <= (r - 1) // 2:
            raise InvalidSingularityError(
                f"weight a={a} not in canonical range 1..{(r - 1) // 2} "
                f"for r={r}"
            )
        if gcd(a, r) != 1:
            raise NotCoprimeError(f"gcd({a}, {r}) != 1")
        return super().__new__(cls, r, a)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def cost(self) -> Fraction:
        """Load (r^2 - 1)/r contributed to the basket bound."""
        return Fraction(self.r * self.r - 1, self.r)

    @property
    def b(self) -> int:
        """The unique b in [0, r-1] with a*b = 2 (mod r)."""
        return 2 * pow(self.a, -1, self.r) % self.r

    def local_index(self, n: int) -> int:
        """Residue i in [0, r-1] with nA ~ i K locally; K ~ -2A pins
        i = -n * inverse(2) mod r."""
        return -n * pow(2, -1, self.r) % self.r

    def __str__(self) -> str:
        return f"{self.r}/{self.a}"


def normalize(r: int, a_raw: int) -> SingularityType:
    """Canonicalise (r, a_raw): reduce a mod r, then fold a -> min(a, r-a).

    Raises :class:`EvenIndexError`, :class:`ZeroWeightError` or
    :class:`NotCoprimeError` for inputs that denote no valid type.
    """
    if r < 3 or r % 2 == 0:
        raise EvenIndexError(f"index must be odd and >= 3, got r={r}")
    a = a_raw % r
    if a == 0:
        raise ZeroWeightError(f"weight {a_raw} is divisible by r={r}")
    if gcd(a, r) != 1:
        raise NotCoprimeError(f"gcd({a_raw}, {r}) != 1")
    return SingularityType(r, min(a, r - a))


class Basket(tuple):
    """A multiset of singularity types: the tuple of its entries, sorted.

    The constructor does not police the load bound: consumers that need
    it (the Riemann-Roch layer) raise on overweight baskets, the parser
    refuses more than MAX_POINTS points, and the enumerator only ever
    produces admissible ones.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[SingularityType] = ()):
        return super().__new__(cls, sorted(entries))

    def __repr__(self) -> str:
        return f"Basket(entries={tuple(self)!r})"

    @property
    def cost(self) -> Fraction:
        return sum((s.cost for s in self), Fraction(0))

    @property
    def singular_rank(self) -> int:
        """Exceptional curves over the basket: the transverse surface
        singularity 1/r(a, -a) of a point resolves to an A_{r-1} chain of
        r - 1 curves.  At least 20 rules out a K3 elephant."""
        return sum(s.r - 1 for s in self)

    def __str__(self) -> str:
        return _text((s, sum(1 for _ in run)) for s, run in groupby(self))


def _text(runs: Iterable[tuple[SingularityType, int]]) -> str:
    """The basket text of (type, multiplicity) runs in canonical order."""
    return ",".join(f"{_decimal(n)}x{s}" if n > 1 else str(s) for s, n in runs)


_ENTRY_RE = re.compile(r"^(?:(\d+)x)?(\d+)/(\d+)$")


def parse_basket(text: str) -> Basket:
    """Parse the ``[mult x] r/a`` comma syntax; whitespace is ignored.

    The empty string is the empty basket.  Non-canonical pairs are
    rejected with a hint giving the canonical form, and a number longer
    than int() reads (sys.get_int_max_str_digits()) is a parse error.
    Text of more than MAX_POINTS points raises :class:`BasketBoundError`
    once every entry has parsed, from the multiplicities alone: the
    basket is never built.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        return Basket()
    entries: list[SingularityType] = []
    runs: list[tuple[SingularityType, int]] = []
    points = 0
    for token in compact.split(","):
        m = _ENTRY_RE.match(token)
        if not m:
            raise BasketParseError(
                f"cannot parse basket entry {token!r}; expected r/a or NxR/A"
            )
        try:
            mult, r, a = int(m[1] or 1), int(m[2]), int(m[3])
        except ValueError:  # past the digits int() reads at most
            raise BasketParseError(
                f"basket entry {token!r} has a number of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if mult < 1:
            raise BasketParseError(f"multiplicity must be >= 1 in {token!r}")
        try:
            canonical = normalize(r, a)
        except InvalidSingularityError as exc:
            raise BasketParseError(f"invalid entry {token!r}: {exc}") from exc
        if (canonical.r, canonical.a) != (r, a):
            raise BasketParseError(
                f"entry {token!r} is not in canonical form; use "
                f"{canonical.r}/{canonical.a}"
            )
        runs.append((canonical, mult))
        points += mult
        if points <= MAX_POINTS:  # past it only the count goes on
            entries.extend([canonical] * mult)
    if points > MAX_POINTS:
        raise _too_many(runs)
    return Basket(entries)


def _too_many(runs: list[tuple[SingularityType, int]]) -> BasketBoundError:
    """The load error of parsed runs, written as the basket would be."""
    counts: dict[SingularityType, int] = {}
    for s, n in runs:
        counts[s] = counts.get(s, 0) + n
    merged = sorted(counts.items())
    return overweight(_text(merged), sum(s.cost * n for s, n in merged))


def singularity_universe() -> tuple[SingularityType, ...]:
    """All types whose load alone fits the bound, in (r, a) order: odd r
    while the cost (r^2 - 1)/r stays below BASKET_BOUND (so r <= 23), and
    a in 1..(r-1)/2 coprime to r.  The cost depends on r alone, and is
    compared in integers as r^2 - 1 < BASKET_BOUND r."""
    indices = takewhile(lambda r: r * r - 1 < BASKET_BOUND * r, count(3, 2))
    return tuple(
        SingularityType(r, a)
        for r in indices
        for a in range(1, (r - 1) // 2 + 1)
        if gcd(a, r) == 1
    )


def enumerate_baskets() -> list[Basket]:
    """Every basket with load strictly below 24, the empty one included.

    Output order is lexicographic on the sorted (r, a) sequences, which a
    depth-first walk over the sorted universe produces directly; the
    result is deterministic and diffable.  The walk runs on integer loads:
    every cost and the bound are scaled by the lcm of the indices in the
    universe, which clears their denominators, so the integers
    (r^2 - 1) (scale / r) compare exactly as the rationals do.
    """
    universe = singularity_universe()
    scale = lcm(*(s.r for s in universe))
    loads = [(s.r * s.r - 1) * (scale // s.r) for s in universe]
    out: list[Basket] = []
    acc: list[SingularityType] = []

    def walk(start: int, remaining: int) -> None:
        out.append(Basket(acc))
        for i in range(start, len(universe)):
            if loads[i] < remaining:  # strict: total load must stay < 24
                acc.append(universe[i])
                walk(i, remaining - loads[i])
                acc.pop()

    walk(0, BASKET_BOUND * scale)
    return out
