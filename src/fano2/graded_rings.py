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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .basket import Basket
from .series import (
    IntPoly,
    Series,
    _mul_one_minus_tw,
    one_minus_t,
    palindromy_sign,
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
    """Generators were still being added at the series cutoff."""


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
    """Inferred ambient weights and Hilbert numerator for a series.

    ``numerator_complete`` records the trailing-zero check: the top
    max(weights) coefficients below the cutoff all vanish, so the
    numerator cannot extend past the cutoff.  ``seeded`` lists weights
    that were forced in by polarisation rather than read off the series;
    a nonempty seed (or an incomplete numerator) makes the codimension a
    lower bound.
    """

    weights: tuple[int, ...]
    numerator: tuple[int, ...]
    shape: str
    numerator_complete: bool = True
    seeded: tuple[int, ...] = ()

    @property
    def codim(self) -> int:
        return len(self.weights) - 4

    @property
    def codim_is_lower_bound(self) -> bool:
        return bool(self.seeded) or not self.numerator_complete


def _greedy(
    series: Series, seeded: Sequence[int] = ()
) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """One pass of the greedy loop, honouring pre-seeded weights.

    Returns (weights, numerator, numerator_complete).  The numerator is
    the truncated product series * prod (1 - t^w), trimmed; completeness
    is the trailing-window check.
    """
    cutoff = len(series) - 1
    if series[0] != 1:
        raise ValueError("a Hilbert series must start with coefficient 1")
    q = series_times_weights(series, seeded)
    weights = sorted(seeded)
    d = 1
    while d <= cutoff:
        c = q[d]
        if c == 0:
            d += 1
            continue
        if c < 0:
            break  # first relation: stop adding generators
        if d == cutoff:
            raise CutoffExhaustedError(
                f"still adding generators at the cutoff {cutoff}"
            )
        for _ in range(c):
            _mul_one_minus_tw(q, d)
            weights.append(d)
        # q[d] is now zero and lower coefficients were never touched
    window = max(weights, default=0)
    complete = all(q[k] == 0 for k in range(cutoff - window + 1, cutoff + 1))
    numerator = poly(q)
    return tuple(sorted(weights)), numerator, complete


def infer_generators(
    series: Series,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy minimal-generator inference; returns (weights, numerator)."""
    weights, numerator, _ = _greedy(series)
    return weights, numerator


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


def corrected_inference(series: Series, basket: Basket) -> GradedModel:
    """Generator inference with the basket's polarisation enforced.

    Runs the greedy loop, fills residue gaps by seeding their minimal
    representatives, and repeats until coverage holds (one round in every
    case arising here; the loop guards against seeds displacing
    previously read generators).  Seeded weights are never removed.
    """
    seeded: list[int] = []
    # Seeds are permanent, so each round can only convert residues from
    # organic to seeded coverage; 4 residues per distinct type bounds it.
    max_rounds = 4 * len(set(basket)) + 2
    for _ in range(max_rounds):
        weights, numerator, complete = _greedy(series, seeded=seeded)
        gaps = polarization_gaps(weights, basket)
        if not gaps:
            break
        seeded.extend(gaps)
    else:
        raise RuntimeError("polarisation seeding failed to stabilise")
    if complete:
        shape = classify_shape(weights, numerator)
    else:
        shape = CODIM_GE4 if len(weights) >= 8 else UNKNOWN
    return GradedModel(
        weights=weights,
        numerator=numerator,
        shape=shape,
        numerator_complete=complete,
        seeded=tuple(sorted(seeded)),
    )


def pfaffian_numerator(degrees: Sequence[int]) -> IntPoly:
    """1 - sum t^e_i + sum t^(k - e_i) - t^k for k = sum(e)/2."""
    total = sum(degrees)
    if total % 2 != 0:
        raise ValueError("Pfaffian degrees must have even sum")
    k = total // 2
    c = [0] * (k + 1)
    c[0] = 1
    c[k] -= 1
    for e in degrees:
        c[e] -= 1
        c[k - e] += 1
    return poly(c)


def pfaffian_degrees_of(numerator: Sequence[int]) -> tuple[int, ...] | None:
    """Recover (e_1..e_5) if the numerator matches the 5x5-Pfaffian
    pattern 1 - sum t^e_i + sum t^(k - e_i) - t^k with k = sum(e)/2."""
    num = poly(numerator)
    k = poly_degree(num)
    if k < 2 or num[0] != 1 or num[k] != -1:
        return None
    if palindromy_sign(num, k) != -1:
        return None
    degrees: list[int] = []
    for d in range(1, k):
        if num[d] < 0:
            degrees.extend([d] * (-num[d]))
    if len(degrees) != 5 or sum(degrees) != 2 * k:
        return None
    if pfaffian_numerator(degrees) != num:
        return None
    return tuple(degrees)


def _ci_degrees_of(numerator: Sequence[int]) -> tuple[int, int] | None:
    """Recover (d1, d2) if the numerator is (1 - t^d1)(1 - t^d2)."""
    num = poly(numerator)
    k = poly_degree(num)
    if k < 2 or num[0] != 1 or num[k] != 1:
        return None
    d1 = next((d for d in range(1, k) if num[d] != 0), None)
    if d1 is None:
        return None
    d2 = k - d1
    if poly_mul(one_minus_t(d1), one_minus_t(d2)) != num:
        return None
    return (d1, d2)


def classify_shape(weights: Sequence[int], numerator: Sequence[int]) -> str:
    """Recognise the numerator pattern for codimension <= 3.

    hypersurface: 1 - t^d; complete intersection: (1 - t^d1)(1 - t^d2);
    Pfaffian: the five-relation pattern above.  The three patterns are
    mutually exclusive (top coefficients and negative-term counts differ)
    and, for genuine 3-fold series, force 5, 6 and 7 weights respectively
    through the pole order at t = 1.  With no pattern, eight or more
    weights means codimension >= 4; anything else is unknown.
    """
    num = poly(numerator)
    deg = poly_degree(num)
    if deg >= 1 and num == (1,) + (0,) * (deg - 1) + (-1,):
        return HYPERSURFACE
    if _ci_degrees_of(num) is not None:
        return CODIM2_CI
    if pfaffian_degrees_of(num) is not None:
        return CODIM3_PFAFFIAN
    if len(weights) >= 8:
        return CODIM_GE4
    return UNKNOWN


def codim_histogram(models: Sequence[GradedModel]) -> dict[int, int]:
    """Counts of inferred codimension (lower bounds included at face
    value); for display next to REFERENCE_CODIM_COUNTS."""
    out: dict[int, int] = {}
    for m in models:
        out[m.codim] = out.get(m.codim, 0) + 1
    return dict(sorted(out.items()))
