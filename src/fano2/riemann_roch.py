"""Orbifold Riemann-Roch for polarised 3-folds with -K = 2A.

For a basket point s = 1/r(a, -a, 2) the periodic correction to chi(nA) is

    per(n) = -i_n (r^2 - 1) / (12 r)
             + sum_{j=1}^{i_n - 1} bar(bj) (r - bar(bj)) / (2 r)

with i_n = s.local_index(n) the local index of nA, b = s.b the solution
of a b = 2 (mod r), and bar the residue in [0, r-1].  The sum over the
basket enters both the single-value formula :func:`plurigenus` and the
full series :func:`hilbert_series`; the two are computed along
deliberately separate code paths so that one can oracle the other.
The series reads 24 r per(n) from an integer table per type
(:func:`_periodic_table`); :func:`plurigenus` evaluates
:func:`periodic_term` on Fraction, term by term.  The two routes share
only SingularityType.b and local_index.

Global quantities, for a basket B and ample Weil divisor A:

    Ac2/12   = 1 - load(B) / 24, load(B) = sum (r^2 - 1) / r  (positive by
               the bound)
    A^3      = base_degree(B) + N for an integer N >= 0, with genus N - 2
    degree cap: A^3 <= DEGREE_CAP (Ac2/12) = (48/5) (Ac2/12), tightening to
    STABLE_DEGREE_CAP (Ac2/12) = 9 (Ac2/12) in the mu-semistable
    (Bogomolov-Kawamata) case; :func:`genus_range` lists the genera
    within the first cap.

Substituting these into chi(nA), with C = C(n+2,3), splits the series
into integer pieces:

    h^0(nA) = [1 + n - 2C] + N C + sum_{s in B} Q_s(n),

where Q_s is an integer table of one point of type s, built by
:func:`_point_series` with no per-basket denominator.

A series to cutoff c is summed from tables of one depth class,
L = :func:`_depth` (c), the least power of two above c, and only its
first c + 1 coefficients are decoded.  The depth is decided here alone,
so a process holds one table per type and depth class (and the two unit
tables per class) however many cutoffs it reads: one class per bit
length of those cutoffs.  Each integer table T_0..T_L-1 is cached
packed, as one Python int: its value at t = 2^64, sum T_k 2^(64 k), with
negative T_k allowed, and beside it the bound max |T_k|.  Evaluation at
2^64 is a ring homomorphism Z[t] -> Z, so a series is a few big-int
additions and one small multiply.  Its lanes are read back exactly
while every coefficient is below 2^63 in absolute value, and the tables'
bounds bound the series in O(points); past 2^63 the same sum runs at 2^w
for the narrowest multiple w of 64 bits that holds it
(:func:`_lane_width`).
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache
from math import lcm

from .basket import Basket, SingularityType, overweight
from .series import (
    DEFAULT_CUTOFF,
    NonIntegerSeriesError,
    RationalForm,
    Series,
    expand,
)

#: The Fano index this package instantiates; -K = FANO_INDEX * A.
FANO_INDEX = 2

#: Unconditional degree cap: A^3 <= DEGREE_CAP * Ac2/12.
DEGREE_CAP = Fraction(48, 5)
#: Degree cap of a Bogomolov-Kawamata stable pair: A^3 <= 9 Ac2/12.
STABLE_DEGREE_CAP = 9

STABLE = "stable"
UNSTABLE = "unstable"
REJECTED = "rejected"


class NonpositiveDegreeError(ValueError):
    """The requested (basket, genus) pair gives A^3 <= 0."""


class PolarisationResidualError(ValueError):
    """The basket's polarisation residual is nonzero: h^0(-A) would not
    vanish.  Never observed on an admissible basket."""


@cache
def periodic_term(s: SingularityType, n: int) -> Fraction:
    """Periodic correction of the basket point s at nA; r-periodic in n,
    vanishing when r divides n.  Callers pass n mod r, so the cache holds
    at most r values per type.

    The Fraction oracle of :func:`_periodic_table`, read by
    :func:`plurigenus` and the other Fraction forms only."""
    r, b, i = s.r, s.b, s.local_index(n)
    term = -Fraction(i * (r * r - 1), 12 * r)
    if i > 1:
        term += Fraction(
            sum((b * j % r) * (r - b * j % r) for j in range(1, i)), 2 * r
        )
    return term


@cache
def acz12_from_basket(basket: Basket) -> Fraction:
    """A c2(X) / 12 = 1 - load / 24; raises when not positive.

    The Fraction oracle of the integer constant in
    :func:`scaled_invariants`; cached per basket because every
    :func:`plurigenus` of the basket starts from it.
    """
    value = 1 - basket.cost / 24
    if value <= 0:
        raise overweight(str(basket), basket.cost)
    return value


def polarisation_residual(basket: Basket) -> Fraction:
    """(1 + sum per(-1)) - Ac2/12.  Admissible baskets give exactly 0.

    Observed to vanish identically under the pinned local-index
    convention (per(s, -1) = -(r^2-1)/(24r) pointwise);
    :func:`scaled_invariants` enforces it in integers rather than assume
    it, and this Fraction form is its oracle.
    """
    acz12 = acz12_from_basket(basket)  # first: it refuses a large index
    per = sum((periodic_term(s, -1 % s.r) for s in basket), Fraction(0))
    return 1 + per - acz12


def base_degree(basket: Basket) -> Fraction:
    """The N = 0 value of A^3 = -1 - Ac2/12 - sum per(1) + N.

    Candidate degrees for the basket are base_degree + N over integers
    N >= 0, and the genus of the candidate is N - 2.
    """
    return (
        -1
        - acz12_from_basket(basket)
        - sum((periodic_term(s, 1) for s in basket), Fraction(0))
    )


def kawamata_status(a3: Fraction | int, acz12: Fraction | int) -> str:
    """Classify a degree against the boundedness caps.

    ``stable`` when A^3 <= 9 (Ac2/12) (equivalently (-K)^3 <= 3 (-K c2)),
    ``unstable`` up to the unconditional cap (48/5)(Ac2/12), ``rejected``
    beyond it.  The status is homogeneous in the pair: scaling both by
    the same positive number changes nothing, so the integers
    (D A^3, D Ac2/12) of :func:`scaled_invariants` classify as the
    Fractions do.  The cap DEGREE_CAP = p/q is compared as
    q A^3 <= p (Ac2/12), which builds no Fraction from integers.
    """
    p, q = DEGREE_CAP.numerator, DEGREE_CAP.denominator
    if a3 <= STABLE_DEGREE_CAP * acz12:
        return STABLE
    if q * a3 <= p * acz12:
        return UNSTABLE
    return REJECTED


#: Bits per lane of a packed table whose coefficients are below 2^63.
LANE = 64

#: A packed table: its value at t = 2^w and the bound max |T_k|, where w
#: is the :func:`_lane_width` of the bound: LANE unless a coefficient
#: reaches 2^63, which C(n+2,3) does only past n = 3.8 million.
Packed = tuple[int, int]


def _depth(cutoff: int) -> int:
    """The depth class of a cutoff: the least power of two above it, the
    length of every table a series to that cutoff is summed from."""
    return 1 << cutoff.bit_length()


def _lane_width(bound: int) -> int:
    """The narrowest multiple of LANE bits whose signed lanes hold every
    integer of absolute value at most bound."""
    return LANE * (bound.bit_length() // LANE + 1)


@cache
def _bias(depth: int, width: int) -> int:
    """2^(width-1) in each of depth lanes of width bits."""
    return ((1 << width * depth) - 1) // ((1 << width) - 1) << (width - 1)


def _pack(table: Series, width: int) -> int:
    """sum T_k 2^(width k), each T_k in [-2^(width-1), 2^(width-1)).

    Lane k of the bytes holds T_k in two's complement; flipping bit
    width-1 of each lane turns it into T_k + 2^(width-1), so the lanes
    read as one unsigned int are the packed value plus :func:`_bias`.
    """
    m = _bias(len(table), width)
    raw = b"".join(t.to_bytes(width // 8, "little", signed=True) for t in table)
    return (int.from_bytes(raw, "little") ^ m) - m


def _unpack(x: int, depth: int, width: int, length: int) -> Series:
    """The first length lanes of :func:`_pack` of a table of depth lanes:
    exact while each is in range.

    Adding the bias makes every lane nonnegative with no carry between
    lanes, and flipping bit width-1 back leaves each in two's complement.
    Both steps name the byte order, so the host's does not matter.
    """
    m = _bias(depth, width)
    raw = ((x + m) ^ m).to_bytes(width // 8 * depth, "little")
    if width == LANE:
        return struct.unpack_from(f"<{length}q", raw)
    step = width // 8
    return tuple(
        int.from_bytes(raw[i : i + step], "little", signed=True)
        for i in range(0, step * length, step)
    )


def _packed(table: Series) -> Packed:
    bound = max(map(abs, table))
    return _pack(table, _lane_width(bound)), bound


def _table(packed: Packed, depth: int) -> Series:
    """The coefficients of a packed table of depth lanes."""
    x, bound = packed
    return _unpack(x, depth, _lane_width(bound), depth)


@cache
def _unit_series(depth: int) -> tuple[Packed, Packed]:
    """The genus-free polynomial part 1 + n - 2 C(n+2,3), expanded from
    (1 - 4t + t^2)/(1-t)^4, and C(n+2,3) from t/(1-t)^4, for
    n = 0..depth-1; both packed."""
    return (
        _packed(expand(RationalForm((1, -4, 1), (1, 1, 1, 1)), depth - 1)),
        _packed(expand(RationalForm((0, 1), (1, 1, 1, 1)), depth - 1)),
    )


@cache
def _periodic_table(s: SingularityType) -> tuple[int, ...]:
    """24 r per(s, k) for k = 0..r-1, in integers: with i = s.local_index(k),

        24 r per(s, k) = -2 i (r^2 - 1)
                         + 12 sum_{j=1}^{i-1} bar(bj) (r - bar(bj)).

    The partial sums over j are taken once, so a type costs O(r).  This
    is the integer route's only periodic term; :func:`periodic_term`
    computes the same values on Fraction, as the test suite's oracle.
    """
    r, b = s.r, s.b
    sums = [0, 0]  # sums[i]: the sum over j = 1..i-1
    for j in range(1, r - 1):
        m = b * j % r
        sums.append(sums[-1] + m * (r - m))
    return tuple(
        -2 * i * (r * r - 1) + 12 * sums[i] for i in map(s.local_index, range(r))
    )


@cache
def _type_constants(s: SingularityType) -> tuple[int, int, int]:
    """r^2 - 1, 24 r per(s, 1) and 24 r per(s, -1): the integers one
    point of type s contributes to :func:`scaled_invariants` and to its
    table in :func:`_point_series`, in units of 1/(24 r), read off
    :func:`_periodic_table` (whose last entry is k = r - 1, the class of
    n = -1)."""
    per = _periodic_table(s)
    return s.r * s.r - 1, per[1], per[-1]


@cache
def _point_series(s: SingularityType, depth: int) -> Packed:
    """Q_s(n) for n = 0..depth-1, packed: the integer share of one point of
    type s in h^0(nA), with C = C(n+2,3) read from the packed unit table,
    24 r per(s, n mod r) from :func:`_periodic_table` and the integers of
    :func:`_type_constants`,

        Q_s(n) = [24 r per(s, n mod r) - 24 r per(s, 1) C
                  - (r^2 - 1)(n - C)] / (24 r).

    The division by 24 r is exact or raises
    :class:`NonIntegerSeriesError` naming the type and the degree.  This
    is the integrality check of the one-point basket {s}, whose
    D = 24 lcm(r) is 24 r: there

        D h^0(nA) = D [1 + n - 2C + N C] + 24 r Q_s(n),

    so dividing the D-scaled series by D is exact exactly when Q_s(n) is
    an integer.  Each of the 58 types forms an admissible one-point
    basket, so these checks fire exactly where that division would, and
    the series of any basket is a sum of integer tables.

    The table is built and checked as a list; only its packed value and
    bound are cached, one per type and depth class (:func:`_depth`).
    """
    r = s.r
    d = 24 * r
    cost, plus, _ = _type_constants(s)
    per = _periodic_table(s)
    out = []
    for n, c in enumerate(_table(_unit_series(depth)[1], depth)):
        x = per[n % r] - plus * c - cost * (n - c)
        q, rem = divmod(x, d)
        if rem:
            raise NonIntegerSeriesError(
                f"non-integer coefficient at degree {n} for a point of "
                f"type {s}: {Fraction(x, d)}"
            )
        out.append(q)
    return _packed(out)


@cache
def scaled_invariants(basket: Basket) -> tuple[int, int, int]:
    """(D, D Ac2/12, D base_degree) with D = 24 lcm(r) over the basket.

    D clears the denominators of Ac2/12, of base_degree and of every
    periodic term, so the basket's Riemann-Roch constants are exact
    integers over one common denominator, computed once per basket from
    the per-type integers of :func:`_type_constants`, each point of index
    r weighted by m = D / (24 r):

        D Ac2/12       = D - sum m (r^2 - 1)
        D residual     = D + sum m 24 r per(-1) - D Ac2/12
        D base_degree  = -D - D Ac2/12 - sum m 24 r per(1)

    :func:`acz12_from_basket`, :func:`polarisation_residual` and
    :func:`base_degree` compute the same numbers on Fraction, as the
    test suite's oracle.  Raises :class:`BasketBoundError` for an
    overweight basket and :class:`PolarisationResidualError` for a
    nonzero residual, so only admissible baskets are cached.  The load is
    checked first, from r^2 - 1 alone, since a periodic table costs O(r).
    """
    d = 24 * lcm(*(s.r for s in basket))
    acz12_d = d - sum(d // (24 * s.r) * (s.r * s.r - 1) for s in basket)
    if acz12_d <= 0:
        raise overweight(str(basket), basket.cost)
    per_plus = per_minus = 0
    for s in basket:
        m = d // (24 * s.r)
        _, plus, minus = _type_constants(s)
        per_plus += m * plus
        per_minus += m * minus
    if d + per_minus - acz12_d != 0:
        # A nonzero residual would be major news: fail loudly rather
        # than silently dropping the basket.
        raise PolarisationResidualError(
            f"polarisation residual nonzero for basket [{basket}]"
        )
    return d, acz12_d, -d - acz12_d - per_plus


def genus_range(basket: Basket) -> range:
    """Every genus with 0 < A^3 <= DEGREE_CAP (Ac2/12), A^3 = base + genus + 2.

    Computed in integers over the D of :func:`scaled_invariants`, with
    N = genus + 2 >= 0 (h^0(A) = N): N runs from the smallest value with
    base + N > 0 to the largest with q (base + N) <= p (Ac2/12), where
    DEGREE_CAP = p/q.
    """
    d, acz12_d, base_d = scaled_invariants(basket)
    p, q = DEGREE_CAP.numerator, DEGREE_CAP.denominator
    n_min = max(0, -base_d // d + 1)
    n_max = (p * acz12_d - q * base_d) // (q * d)
    return range(n_min - 2, n_max - 1)


def scaled_degree(basket: Basket, genus: int) -> tuple[int, int, int]:
    """(D, D Ac2/12, D A^3) with A^3 = base_degree + genus + 2, over the D
    of :func:`scaled_invariants`, which raises for an inadmissible basket.

    Raises :class:`NonpositiveDegreeError` when A^3 <= 0: the one check of
    the degree, for a candidate and for its series alike.
    """
    d, acz12_d, base_d = scaled_invariants(basket)
    a3_d = base_d + (genus + 2) * d
    if a3_d <= 0:
        raise NonpositiveDegreeError(
            f"A^3 = {Fraction(a3_d, d)} <= 0 for basket [{basket}] "
            f"at genus {genus}"
        )
    return d, acz12_d, a3_d


def hilbert_series(
    basket: Basket, genus: int, cutoff: int = DEFAULT_CUTOFF
) -> Series:
    """The Hilbert series sum h^0(nA) t^n truncated at cutoff.

    By Riemann-Roch, h^0(nA) = 1 + A^3 C + (Ac2/12) n + sum per(s, n)
    with C = C(n+2,3) and A^3 = base_degree + genus + 2.  Substituting
    the basket's base_degree and Ac2/12 splits it into a genus-free
    polynomial, a multiple of C and one integer table per point:

        h^0(nA) = [1 + n - 2C] + (genus + 2) C + sum_s Q_s(n),

    with Q_s of :func:`_point_series`.  The tables are those of the
    depth class :func:`_depth` (cutoff), each packed as its value at
    t = 2^64, so the whole series is the one integer
    U + (genus + 2) C + sum_s Q_s, of which the first cutoff + 1 lanes
    are decoded.  The tables' bounds give
    max |U| + |genus + 2| max C + sum_s max |Q_s| as a bound on every
    coefficient of the class; when it reaches 2^63 the class tables are
    repacked at the :func:`_lane_width` of the bound and the sum runs
    there, so the result is exact for every genus and cutoff.  A
    negative cutoff raises ValueError.

    :func:`scaled_degree` is read first, so an overweight basket, a
    nonzero polarisation residual and A^3 <= 0 raise
    :class:`BasketBoundError`, :class:`PolarisationResidualError` and
    :class:`NonpositiveDegreeError`.  The integrality check is the exact
    division in :func:`_point_series`.  Positivity of the coefficients is
    a consequence checked by the test suite.
    """
    scaled_degree(basket, genus)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    n = genus + 2
    depth = _depth(cutoff)
    units = _unit_series(depth)
    points = [_point_series(s, depth) for s in basket]
    (base, base_max), (cubes, cubes_max) = units
    width = _lane_width(
        base_max + abs(n) * cubes_max + sum([m for _, m in points])
    )
    if width == LANE:
        points = [p for p, _ in points]
    else:
        base, cubes, *points = (
            _pack(_table(t, depth), width) for t in (*units, *points)
        )
    return _unpack(base + n * cubes + sum(points), depth, width, cutoff + 1)


def plurigenus(basket: Basket, a3: Fraction, n: int) -> Fraction:
    """chi(nA) evaluated term by term; equals h^0(nA) for n >= -1.

    This is the single-value route: the polynomial part is evaluated
    directly (no series machinery) and the periodic part by
    :func:`periodic_term` on Fraction.  It shares only SingularityType.b
    and local_index with :func:`hilbert_series`, whose integer tables
    never read periodic_term, which makes the two mutual oracles.
    """
    f = FANO_INDEX
    return (
        1
        + Fraction(n * (n + f) * (2 * n + f), 12) * a3
        + n * acz12_from_basket(basket)
        + sum((periodic_term(s, n % s.r) for s in basket), Fraction(0))
    )
