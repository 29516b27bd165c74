"""Minimal-generator inference for a Hilbert series, with the basket's
polarisation constraints, and shape recognition in codimension <= 3.

The inference is the standard greedy reading of the series: keep a weight
multiset W, form Q = P(t) * prod_{w in W} (1 - t^w), and while the lowest
nonzero coefficient of Q - 1 sits in degree d with a positive value c,
adjoin c generators of degree d.  The first negative coefficient is the
first relation and stops the loop.  This yields a lower bound for the
generators: pairs of generators and relations in equal degree are
invisible to it (a known, documented limitation).

A basket point 1/r(a, -a, 2) additionally forces ambient weights whose
residues mod r cover {0, a, r-a, 2}: the local coordinates and a local
equation all need polarising variables.  Missing residues are seeded
(never removed) at their smallest positive representatives in degrees
with sections until the coverage holds; the codimension is then a lower
bound.  This needs no second pass: no weight sits in a gap degree g, so
a pass whose first relation lies past g read a zero there, and rerun
with the seeds it would read the same below the lowest gap g0, then
-(seeds at g0) < 0.

The pass stops at its first relation, so it reads only a prefix of the
series: :func:`corrected_inference` runs it on the prefix to FIRST_PREFIX
and, while a prefix has no relation, again on one twice as long.  The
prefixes end: with no relation the series would be 1/prod(1 - t^w),
which by Gorenstein symmetry forces sum(w) = 2 with four weights, and
with five or more outgrows the cubic growth of h^0(nA).  The pass
reads through :meth:`~fano2.classify.Candidate.read`, which computes
exactly the degree asked past the series held, so a candidate computes
no more of its series than the passes, the seeds' section checks and
the numerator read.

A model is a function of its candidate's basket and genus alone, and so
are the degrees it reads: neither the pass nor the numerator reads the
candidate's cutoff.  Its numerator is the exact Gorenstein polynomial of
degree sum(weights) - 2 (Altinok-Brown-Reid), read by
:func:`~fano2.series.numerator_wrt_weights`.  The numerator and the shape
are built on first read and then kept, so a caller that reads only
weights and codimensions, as ``histogram --by codim`` and
``verify-tables`` do, builds neither.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import islice
from typing import Callable, Sequence

from .basket import Basket
from .classify import Candidate, ReadOnlyValue
from .series import (
    IntPoly,
    Series,
    _mul_one_minus_tw,
    codimension,
    gorenstein_degree,
    numerator_wrt_weights,
    poly,
    poly_degree,
    series_times_weights,
)

HYPERSURFACE = "hypersurface"
CODIM2_CI = "codim2_ci"
CODIM3_PFAFFIAN = "codim3_pfaffian"
CODIM_GE4 = "codim_ge4"
UNKNOWN = "unknown"


#: Hilbert-series counts per estimated codimension obtained by comparing
#: candidates of singular rank < 20 against a database of polarised K3
#: surfaces.  Shipped for side-by-side display only: the estimates beyond
#: low codimension are a guide, not ground truth.
REFERENCE_CODIM_COUNTS = {
    1: 8, 2: 26, 3: 2, 4: 35, 5: 13, 6: 59, 7: 25, 8: 99, 9: 51,
    10: 163, 11: 93, 12: 227, 13: 126, 14: 255, 15: 48, 16: 78,
    17: 8, 18: 3,
}


class GradedModel(ReadOnlyValue):
    """Inferred ambient weights and Hilbert numerator for a candidate.

    The numerator is the exact polynomial series * prod (1 - t^w).  An
    index-2 numerator is signed-palindromic of top degree sum(weights) - 2,
    and ``numerator_complete`` checks that degree.  It always holds, since
    the numerator is read to half that degree and completed by symmetry;
    the property stays only for the benchmark's count of complete models.
    ``seeded`` lists weights that were forced in by polarisation rather
    than read off the series; a nonempty seed makes the codimension a
    lower bound.

    The numerator and the shape are built on first read, through ``read``,
    the candidate's :meth:`~fano2.classify.Candidate.read` that the greedy
    pass used, and then kept, so ``histogram --by codim``, which reads
    only codimensions, builds neither.  The numerator reads the series to
    half its Gorenstein degree, whatever the candidate's cutoff: within
    the series held it computes nothing, and past it exactly that degree.
    A model is read-only.  It compares and hashes by (basket, genus,
    weights, seeded): the numerator and shape are functions of the first
    three, so equal models have equal ones.
    """

    _identity = ("basket", "genus", "weights", "seeded")

    def __init__(
        self,
        basket: Basket,
        genus: int,
        weights: tuple[int, ...],
        seeded: tuple[int, ...],
        read: Callable[[int], Series],
    ) -> None:
        self.__dict__.update(basket=basket, genus=genus, weights=weights,
                             seeded=seeded, read=read)

    @cached_property
    def numerator(self) -> IntPoly:
        return numerator_wrt_weights(
            self.read(gorenstein_degree(self.weights) // 2), self.weights)

    @cached_property
    def shape(self) -> str:
        return classify_shape(self.weights, self.numerator)

    @property
    def codim(self) -> int:
        return codimension(self.weights)

    @property
    def numerator_complete(self) -> bool:
        return poly_degree(self.numerator) == gorenstein_degree(self.weights)

    @property
    def codim_is_lower_bound(self) -> bool:
        return bool(self.seeded)


def _greedy(
    series: Series, seeded: Sequence[int]
) -> tuple[tuple[int, ...], IntPoly] | None:
    """The greedy loop over one series: (weights, numerator) at the first
    relation, or None when the series ends first."""
    if series[0] != 1:
        raise ValueError("a Hilbert series must start with coefficient 1")
    weights = sorted(seeded)
    q = series_times_weights(series, weights)
    for d in range(1, len(q)):
        if q[d] < 0:
            return tuple(sorted(weights)), poly(q)  # first relation
        for _ in range(q[d]):
            _mul_one_minus_tw(q, d)
            weights.append(d)
        # q[d] is zero now, and lower coefficients are never touched
    return None


def infer_generators(
    series: Series, seeded: Sequence[int] = ()
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One greedy pass over the whole series, honouring seeded weights.

    Returns (weights, numerator), the numerator being the truncated
    product series * prod (1 - t^w), trimmed.  Raises ValueError if no
    relation appears by the end of the series, since generators could
    still follow.
    """
    found = _greedy(series, seeded)
    if found is None:
        raise ValueError(f"no relation up to the cutoff {len(series) - 1}")
    return found


def polarization_gaps(
    weights: Sequence[int], basket: Basket, read: Callable[[int], Series]
) -> list[int]:
    """Degrees that must be adjoined so every basket point is polarised.

    Each point 1/r(a, -a, 2) needs the residues {0, a, r-a, 2} mod r
    among the weights (coinciding residues may share a witness).  A gap
    is filled by the smallest positive d of its residue with sections,
    h^0(dA) > 0, read off the series through ``read`` (the candidate's
    :meth:`~fano2.classify.Candidate.read`), stepping d by r past degrees
    with none: a generator of a degree without sections would be zero.
    The steps end, since h^0(dA) grows like A^3 d^3 / 6 with A^3 > 0.
    Smaller residues go first, points in canonical order, and a gap added
    for one point counts for the later ones.  When the weights include
    1, no degree is read: a generator x of degree 1 is a nonzero element
    of the domain R(X, A) = sum_n H^0(X, nA), so x^d != 0 in H^0(dA) and
    every degree d >= 0 has sections.

    Seeding rounds are arithmetic (see :func:`corrected_inference`) on
    two premises, which a new seeding rule must keep or re-derive: no gap
    is the degree of a given weight, and ``weights + gaps`` has no gaps.
    Both hold here, since a gap is only ever taken for a residue that no
    weight has, and every missing residue gets one.
    """
    have = list(weights)
    sections = 1 in have  # then every degree has sections
    gaps: list[int] = []
    for s in basket:  # a repeated point finds its residues present
        r = s.r
        present = {w % r for w in have}
        for residue in _required_residues(r, s.a):
            if residue not in present:
                degree = residue if residue > 0 else r
                while not sections and read(degree)[degree] == 0:
                    degree += r
                gaps.append(degree)
                have.append(degree)
    return gaps


@cache
def _required_residues(r: int, a: int) -> tuple[int, ...]:
    """The residues {0, a, r-a, 2} mod r of the point 1/r(a, -a, 2), sorted.

    Cached per type, not per basket: a long-lived caller meets hundreds of
    baskets, and a key of two integers hashes without Python calls."""
    return tuple(sorted({0, a % r, (r - a) % r, 2 % r}))


#: Degree of the first prefix a greedy pass reads.  Most enumerated
#: candidates meet their first relation within it; the others rerun the
#: pass on a prefix twice as long until one holds it.
FIRST_PREFIX = 8


def corrected_inference(c: Candidate) -> GradedModel:
    """Generator inference with the basket's polarisation enforced.

    The unseeded greedy pass reads the organic weights and the degree
    ``stop`` of the first relation; each seeding round is arithmetic on
    them (see the module docstring).  The gaps join the seeds; with g0
    the lowest, if g0 < stop the organic weights from g0 up go and
    ``stop`` becomes g0, and otherwise the gaps close every residue and
    the rounds end.

    The pass runs on the prefix of the series to FIRST_PREFIX and, while
    a prefix has no relation, reruns on one twice as long (8, 16, 32,
    ...), so a pass whose first relation lies past FIRST_PREFIX reads
    less than twice as deep.  A rerun repeats the products the last
    prefix made, each over the longer prefix.  The passes, and the
    model's numerator, built on its first read, read the series through
    :meth:`~fano2.classify.Candidate.read`, which computes exactly the
    degree asked past the deepest degree computed so far: on a candidate
    nobody has read, the series to each prefix the passes reach.  With
    no weight 1, a seed reads h^0 at its degree, past those prefixes only
    when the degree lies past them (see :func:`polarization_gaps`); the
    numerator reads to half the Gorenstein degree, and computes the
    series only when that lies past the prefixes read.  None of this
    reads the candidate's cutoff, so the model of a candidate nobody has
    read computes the same series at every cutoff.
    """
    h = FIRST_PREFIX
    while (found := _greedy(c.read(h), ())) is None:
        h *= 2  # the prefixes end: see the module docstring
    organic = list(found[0])
    stop = next(d for d, k in enumerate(found[1]) if k < 0)
    seeded: list[int] = []
    # Seeds are permanent: 4 residues per distinct type bound the rounds.
    for _ in range(4 * len(set(c.basket)) + 2):
        gaps = polarization_gaps(organic + seeded, c.basket, c.read)
        if not gaps:
            break
        seeded += gaps
        if min(gaps) >= stop:
            break
        stop = min(gaps)
        organic = [w for w in organic if w < stop]
    else:
        raise RuntimeError("polarisation seeding failed to stabilise")
    weights = tuple(sorted(organic + seeded))
    return GradedModel(
        c.basket, c.genus, weights, tuple(sorted(seeded)), c.read)


def ci_numerator(degrees: Sequence[int]) -> IntPoly:
    """prod (1 - t^d): the numerator of a complete intersection."""
    return poly(series_times_weights((1,) + (0,) * sum(degrees), degrees))


def pfaffian_numerator(degrees: Sequence[int]) -> IntPoly:
    """1 - sum t^e_i + sum t^(k - e_i) - t^k for k = sum(e)/2.

    The five Pfaffians of a 5x5 skew matrix have degrees e_i with an even
    sum and 1 <= e_i < k; other degrees raise ValueError.
    """
    total = sum(degrees)
    if total % 2 != 0:
        raise ValueError("Pfaffian degrees must have even sum")
    k = total // 2
    if len(degrees) != 5 or not all(1 <= e < k for e in degrees):
        raise ValueError(
            f"{tuple(degrees)} are not the degrees of five Pfaffians"
        )
    c = [0] * (k + 1)
    c[0] = 1
    c[k] -= 1
    for e in degrees:
        c[e] -= 1
        c[k - e] += 1
    return poly(c)


#: The format of each low codimension: its number of relations, the
#: numerator formula over the relation degrees, and the shape it names.
#: :func:`classify_shape` and the reference tables read it.
FORMATS = {
    1: (1, ci_numerator, HYPERSURFACE),
    2: (2, ci_numerator, CODIM2_CI),
    3: (5, pfaffian_numerator, CODIM3_PFAFFIAN),
}


def classify_shape(weights: Sequence[int], numerator: Sequence[int]) -> str:
    """The format of the codimension len(weights) - 4, if the numerator has it.

    Codimension 1 and 2 are complete intersections, codimension 3 is the
    5x5-Pfaffian format (Buchsbaum-Eisenbud), and codimension >= 4 is
    reported as such.  The lowest 1, 2 or 5 relation degrees are read off
    the negative coefficients and the format's numerator is rebuilt from
    them; the shape holds when it equals the given numerator, and
    otherwise, or when the degrees cannot form the format, it is unknown.
    On genuine 3-fold series the pole order at t = 1 ties each format to
    its weight count.
    """
    codim = codimension(weights)
    if codim >= 4:
        return CODIM_GE4
    if codim not in FORMATS:
        return UNKNOWN
    count, formula, shape = FORMATS[codim]
    num = poly(numerator)
    negatives = (d for d, c in enumerate(num) for _ in range(-c))
    relations = list(islice(negatives, count))
    if len(relations) < count:
        return UNKNOWN
    try:
        rebuilt = formula(relations)
    except ValueError:
        return UNKNOWN
    return shape if rebuilt == num else UNKNOWN

