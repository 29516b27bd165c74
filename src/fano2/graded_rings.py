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
(never removed) at their smallest positive representatives until the
coverage holds; the codimension is then a lower bound.  This needs no
second pass: no weight sits in a gap degree g, so a pass whose first
relation lies past g read a zero there, and rerun with the seeds it
would read the same below the lowest gap g0, then -(seeds at g0) < 0.

The pass stops at its first relation, so it reads only a prefix of the
series: from degree FIRST_PREFIX, doubling while it runs out, with its
product extended to each longer prefix.  The doubling ends: with no
relation the series would be 1/prod(1 - t^w), which by Gorenstein
symmetry forces sum(w) = 2 with four weights, and with five or more
outgrows the cubic growth of h^0(nA).

A model is a function of its candidate alone, whatever cutoff the
candidate was built with, and its numerator is the exact Gorenstein
polynomial of degree sum(weights) - 2 (Altinok-Brown-Reid), read by
:func:`~fano2.series.numerator_wrt_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

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
    and ``numerator_complete`` checks that degree.  It always holds, since
    the numerator is read to half that degree and completed by symmetry;
    the property stays only for the benchmark's count of complete models.
    ``seeded`` lists weights that were forced in by polarisation rather
    than read off the series; a nonempty seed makes the codimension a
    lower bound.
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


def _greedy(
    prefixes: Iterable[Series], seeded: Sequence[int]
) -> tuple[tuple[int, ...], IntPoly] | None:
    """The greedy loop over ever longer prefixes of one series: (weights,
    numerator) at the first relation, or None when the prefixes end first.
    Each next prefix is multiplied by the weights read so far."""
    weights = sorted(seeded)
    d = 1
    for series in prefixes:
        if series[0] != 1:
            raise ValueError("a Hilbert series must start with coefficient 1")
        q = series_times_weights(series, weights)
        while d < len(q):
            if q[d] < 0:
                return tuple(sorted(weights)), poly(q)  # first relation
            for _ in range(q[d]):
                _mul_one_minus_tw(q, d)
                weights.append(d)
            d += 1  # q[d] is zero now, lower coefficients never touched
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
    found = _greedy((series,), seeded)
    if found is None:
        raise ValueError(f"no relation up to the cutoff {len(series) - 1}")
    return found


def polarization_gaps(weights: Sequence[int], basket: Basket) -> list[int]:
    """Degrees that must be adjoined so every basket point is polarised.

    Each point 1/r(a, -a, 2) needs the residues {0, a, r-a, 2} mod r
    among the weights (coinciding residues may share a witness).  Gaps
    are filled by the smallest positive representative, smaller residues
    first, points in canonical order; a gap added for one point counts
    for the later ones.

    Seeding rounds are arithmetic (see :func:`corrected_inference`) on
    two premises, which a new seeding rule must keep or re-derive: no gap
    is the degree of a given weight, and ``weights + gaps`` has no gaps.
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
#: candidate sits at degree 8 or below for 1385 of the 1492, and at 38
#: at most.
FIRST_PREFIX = 8


def corrected_inference(c: Candidate) -> GradedModel:
    """Generator inference with the basket's polarisation enforced.

    One greedy pass reads the organic weights and the degree ``stop`` of
    the first relation; each seeding round is arithmetic on them (see the
    module docstring).  The gaps join the seeds; with g0 the lowest, if
    g0 < stop the organic weights from g0 up go and ``stop`` becomes g0,
    and otherwise the gaps close every residue and the rounds end.

    The pass and the numerator read the series through one reader: it
    slices the series held, the candidate's own at first, and past its
    end computes it once from the basket, to the default cutoff at least,
    and keeps it.  The pass's prefix doubles from FIRST_PREFIX, capped at
    the end held until the pass has read to it.
    """
    series = c.series

    def read(h: int) -> Series:
        nonlocal series
        if h >= len(series):
            series = hilbert_series(c.basket, c.genus, max(h, DEFAULT_CUTOFF))
        return series[: h + 1]

    def prefixes() -> Iterator[Series]:
        h = min(FIRST_PREFIX, len(series) - 1)
        while True:
            yield read(h)
            h = 2 * h if h == len(series) - 1 else min(2 * h, len(series) - 1)

    found, pass_numerator = _greedy(prefixes(), ())  # prefixes never end
    organic = list(found)
    stop = next(d for d, k in enumerate(pass_numerator) if k < 0)
    seeded: list[int] = []
    # Seeds are permanent: 4 residues per distinct type bound the rounds.
    for _ in range(4 * len(set(c.basket)) + 2):
        gaps = polarization_gaps(organic + seeded, c.basket)
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
    numerator = numerator_wrt_weights(read((sum(weights) - 2) // 2), weights)
    shape = classify_shape(weights, numerator)
    return GradedModel(weights, numerator, shape, tuple(sorted(seeded)))


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

