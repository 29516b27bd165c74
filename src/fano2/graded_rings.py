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
equation all need polarising variables.  Missing residues are filled by
the smallest positive representative and the greedy loop is re-run with
those weights seeded (and never removed), iterating until the coverage
is satisfied.  When seeding was needed the estimated codimension is only
a lower bound.

Each pass stops at its first relation, so it reads only a prefix of the
series: from degree FIRST_PREFIX, doubling while the pass runs out of
series, which reads the same weights as the whole series would.

A model is a function of its candidate alone, whatever cutoff the
candidate was built with, and its numerator is the exact Gorenstein
polynomial of degree sum(weights) - 2 (Altinok-Brown-Reid), read by
:func:`~fano2.series.numerator_wrt_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .basket import Basket
from .classify import Candidate
from .riemann_roch import hilbert_series
from .series import (
    DEFAULT_CUTOFF,
    IntPoly,
    Series,
    _mul_one_minus_tw,
    numerator_wrt_weights,
    one_minus_t,
    poly,
    poly_degree,
    poly_mul,
    series_times_weights,
)

HYPERSURFACE = "hypersurface"
CODIM2_CI = "codim2_ci"
CODIM3_PFAFFIAN = "codim3_pfaffian"
CODIM_GE4 = "codim_ge4"
UNKNOWN = "unknown"


class CutoffExhaustedError(ValueError):
    """The greedy loop reached the end of its series without a relation."""


#: Hilbert-series counts per estimated codimension obtained by comparing
#: candidates of singular rank < 20 against a database of polarised K3
#: surfaces.  Shipped for side-by-side display only: the estimates beyond
#: low codimension are a guide, not ground truth.
REFERENCE_CODIM_COUNTS = {
    1: 8, 2: 26, 3: 2, 4: 35, 5: 13, 6: 59, 7: 25, 8: 99, 9: 51,
    10: 163, 11: 93, 12: 227, 13: 126, 14: 255, 15: 48, 16: 78,
    17: 8, 18: 3,
}


@dataclass(frozen=True)
class GradedModel:
    """Inferred ambient weights and Hilbert numerator for a candidate.

    The numerator is the exact polynomial series * prod (1 - t^w).  An
    index-2 numerator is signed-palindromic of top degree sum(weights) - 2,
    and ``numerator_complete`` checks that degree.  ``seeded`` lists
    weights that were forced in by polarisation rather than read off the
    series; a nonempty seed makes the codimension a lower bound.
    """

    weights: tuple[int, ...]
    numerator: tuple[int, ...]
    shape: str
    seeded: tuple[int, ...] = ()

    @property
    def codim(self) -> int:
        return len(self.weights) - 4

    @property
    def numerator_complete(self) -> bool:
        return poly_degree(self.numerator) == sum(self.weights) - 2

    @property
    def codim_is_lower_bound(self) -> bool:
        return bool(self.seeded)


def infer_generators(
    series: Series, seeded: Sequence[int] = ()
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One pass of the greedy minimal-generator loop, honouring
    pre-seeded weights.

    Returns (weights, numerator), the numerator being the truncated
    product series * prod (1 - t^w), trimmed.  Raises
    :class:`CutoffExhaustedError` if no relation appears by the end of
    the series, since generators could still follow.
    """
    cutoff = len(series) - 1
    if series[0] != 1:
        raise ValueError("a Hilbert series must start with coefficient 1")
    q = series_times_weights(series, seeded)
    weights = sorted(seeded)
    d = 1
    while d <= cutoff:
        c = q[d]
        if c < 0:
            return tuple(sorted(weights)), poly(q)  # first relation
        if c == 0:
            d += 1
            continue
        for _ in range(c):
            _mul_one_minus_tw(q, d)
            weights.append(d)
        # q[d] is now zero and lower coefficients were never touched
    raise CutoffExhaustedError(f"no relation up to the cutoff {cutoff}")


def polarization_gaps(weights: Sequence[int], basket: Basket) -> list[int]:
    """Degrees that must be adjoined so every basket point is polarised.

    Each point 1/r(a, -a, 2) needs the residues {0, a, r-a, 2} mod r
    among the weights (coinciding residues may share a witness).  Gaps
    are filled by the smallest positive representative, smaller residues
    first, points in canonical order; a gap added for one point counts
    for the later ones.
    """
    have = list(weights)
    gaps: list[int] = []
    for s in sorted(set(basket)):
        required = {0, s.a % s.r, (s.r - s.a) % s.r, 2 % s.r}
        present = {w % s.r for w in have}
        for residue in sorted(required - present):
            degree = residue if residue > 0 else s.r
            gaps.append(degree)
            have.append(degree)
    return gaps


#: Degree of the first prefix a greedy pass reads; it doubles while the
#: pass runs out of series.  The first relation of an enumerated
#: candidate sits at degree 4.7 on average and 38 at most.
FIRST_PREFIX = 16


def _prefix_weights(series: Series, seeded: Sequence[int]) -> tuple[int, ...]:
    """The weights of :func:`infer_generators` on the whole series, read
    off the shortest doubling prefix that holds the first relation.

    Coefficient d of series * prod (1 - t^w) depends only on the series
    to degree d, so a pass that meets its relation by degree h reads the
    same weights from series[:h + 1] as from the whole series.
    """
    h = FIRST_PREFIX
    while True:
        try:
            return infer_generators(series[: h + 1], seeded)[0]
        except CutoffExhaustedError:
            if h + 1 >= len(series):
                raise
            h = min(2 * h, len(series) - 1)


def corrected_inference(c: Candidate) -> GradedModel:
    """Generator inference with the basket's polarisation enforced.

    Runs the greedy loop on the candidate's series, or on the series to
    the default cutoff when the candidate's is shorter, fills residue
    gaps by seeding their minimal representatives, and repeats until
    coverage holds.  Of the 1492 candidates, 118 need no seeding round,
    1305 need one and 69 need two: a seed can displace a generator read
    before and so open a new gap.  Seeds are never removed.  Each pass
    stops at its first relation and reads only a prefix of the series
    deep enough to hold it, so a longer series changes no model.

    Seeding puts a multiple of every index among the weights, so the
    numerator is a polynomial of degree sum(weights) - 2:
    :func:`~fano2.series.numerator_wrt_weights` reads it off the series
    to half that degree and completes it by Gorenstein symmetry.
    """
    series = c.series
    if len(series) <= DEFAULT_CUTOFF:
        series = hilbert_series(c.basket, c.genus, DEFAULT_CUTOFF)
    seeded: list[int] = []
    # Seeds are permanent, so each round can only convert residues from
    # organic to seeded coverage; 4 residues per distinct type bounds it.
    max_rounds = 4 * len(set(c.basket)) + 2
    for _ in range(max_rounds):
        weights = _prefix_weights(series, seeded)
        gaps = polarization_gaps(weights, c.basket)
        if not gaps:
            break
        seeded.extend(gaps)
    else:
        raise RuntimeError("polarisation seeding failed to stabilise")
    half = (sum(weights) - 2) // 2
    if half >= len(series):
        series = hilbert_series(c.basket, c.genus, half)
    numerator = numerator_wrt_weights(series, weights)
    return GradedModel(
        weights=weights,
        numerator=numerator,
        shape=classify_shape(weights, numerator),
        seeded=tuple(sorted(seeded)),
    )


def ci_numerator(degrees: Sequence[int]) -> IntPoly:
    """prod (1 - t^d): the numerator of a complete intersection."""
    num: IntPoly = (1,)
    for d in degrees:
        num = poly_mul(num, one_minus_t(d))
    return num


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
_FORMATS = {
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
    codim = len(weights) - 4
    if codim >= 4:
        return CODIM_GE4
    if codim not in _FORMATS:
        return UNKNOWN
    count, formula, shape = _FORMATS[codim]
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

