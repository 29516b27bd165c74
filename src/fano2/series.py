"""Exact arithmetic for integer polynomials, truncated power series, and
closed rational forms N(t) / prod_w (1 - t^w).

Three representations are used throughout the package, all on Python
integers:

* a polynomial (:data:`IntPoly`) is a dense tuple of integer
  coefficients, constant term first, with no trailing zeros;
* a truncated series (:data:`Series`) is a dense tuple of the integer
  coefficients for degrees ``0..cutoff``, so ``len(series) == cutoff + 1``
  and trailing zeros are kept;
* :class:`RationalForm` is the closed form ``N(t) / prod_w (1 - t^w)``.

Each factor ``1 - t^w`` is a unit in the formal power-series ring, so a
form expands to any cutoff.  An index-2 Hilbert series has a Gorenstein
numerator over ``prod (1 - t^w)``, determined by its lower half, so
multiplying the series back by ``prod (1 - t^w)`` to half the numerator
degree recovers it (:func:`numerator_wrt_weights`).  The only rational
value here is the degree of a form (:func:`degree_from_form`); no
floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

#: Default truncation degree for series work: the cutoff that is printed
#: unless another is asked for, and the degree every reference table row
#: is cut at.  Graded models read the series as deep as they need,
#: whatever the cutoff.
DEFAULT_CUTOFF = 60

IntPoly = tuple[int, ...]
Series = tuple[int, ...]


class CutoffTooSmallError(ValueError):
    """The series stops below half the Gorenstein degree of the numerator
    it should determine."""


class WrongPoleOrderError(ValueError):
    """The form does not have the expected pole order at t = 1."""


class NonIntegerSeriesError(ValueError):
    """A series required to have integer coefficients does not."""


# ---------------------------------------------------------------------------
# dense integer polynomials


def poly(coeffs: Iterable[int]) -> IntPoly:
    """Normalise a coefficient sequence: trim trailing zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p: Sequence[int]) -> int:
    """Degree of the polynomial; the zero polynomial has degree -1."""
    for k in range(len(p) - 1, -1, -1):
        if p[k] != 0:
            return k
    return -1


def poly_mul(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly(out)


def one_minus_t(w: int) -> IntPoly:
    """The polynomial 1 - t^w."""
    if w < 1:
        raise ValueError(f"weight must be positive, got {w}")
    return (1,) + (0,) * (w - 1) + (-1,)


def poly_div_one_minus_t(p: Sequence[int]) -> IntPoly:
    """Exact quotient p / (1 - t); requires p(1) = 0.

    If p = (1 - t) q then q's coefficients are the partial sums of p's.
    """
    if sum(p) != 0:
        raise ValueError("polynomial is not divisible by 1 - t")
    out = []
    acc = 0
    for c in p[:-1]:
        acc += c
        out.append(acc)
    return poly(out)


def poly_str(p: Sequence[int], var: str = "t") -> str:
    """Human-readable form such as ``1 - 2t^3 - 3t^4 + 3t^5 + 2t^6 - t^9``."""
    terms = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            tpow = var if k == 1 else f"{var}^{k}"
            body = tpow if mag == 1 else f"{mag}{tpow}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


def palindromy_sign(p: Sequence[int], top_degree: int) -> int | None:
    """Signed palindromy of p against the mirror degree ``top_degree``.

    Returns +1 if coeff(k) = coeff(top - k) for all k, -1 if
    coeff(k) = -coeff(top - k), and None otherwise.  Gorenstein numerators
    are always one or the other: -1 in odd codimension, +1 in even.
    """
    if poly_degree(p) > top_degree:
        raise ValueError("polynomial degree exceeds top_degree")
    padded = list(p) + [0] * (top_degree + 1 - len(p))
    if all(padded[k] == padded[top_degree - k] for k in range(top_degree + 1)):
        return 1
    if all(padded[k] == -padded[top_degree - k] for k in range(top_degree + 1)):
        return -1
    return None


# ---------------------------------------------------------------------------
# truncated power series


def _mul_one_minus_tw(c: list[int], w: int) -> None:
    """In place: multiply the coefficient vector by (1 - t^w)."""
    for k in range(len(c) - 1, w - 1, -1):
        c[k] -= c[k - w]


def _div_one_minus_tw(c: list[int], w: int) -> None:
    """In place: multiply by the unit 1 / (1 - t^w)."""
    for k in range(w, len(c)):
        c[k] += c[k - w]


# ---------------------------------------------------------------------------
# closed rational forms


@dataclass(frozen=True)
class RationalForm:
    """A closed form N(t) / prod_w (1 - t^w), weights sorted, N trimmed."""

    numerator: IntPoly
    denom_weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "numerator", poly(self.numerator))
        ws = tuple(sorted(int(w) for w in self.denom_weights))
        if any(w < 1 for w in ws):
            raise ValueError("denominator weights must be positive")
        object.__setattr__(self, "denom_weights", ws)

    def __str__(self) -> str:
        num = poly_str(self.numerator)
        if len(poly(self.numerator)) > 1:
            num = f"({num})"
        den = "".join(f"(1 - t^{w})" if w > 1 else "(1 - t)"
                      for w in self.denom_weights)
        return f"{num} / {den}" if den else num


def expand(form: RationalForm, cutoff: int) -> Series:
    """Taylor coefficients 0..cutoff of the form, computed exactly.

    Division by each (1 - t^w) is the linear recurrence c[k] += c[k-w],
    valid because 1 - t^w is a unit in the power-series ring.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    c = list(form.numerator[: cutoff + 1])
    c += [0] * (cutoff + 1 - len(c))
    for w in form.denom_weights:
        _div_one_minus_tw(c, w)
    return tuple(c)


def series_times_weights(
    series: Series, weights: Sequence[int]
) -> list[int]:
    """Coefficients of series * prod_w (1 - t^w), exact up to the cutoff.

    Multiplying a truncated series by a polynomial only reaches downward,
    so every returned coefficient is exact.
    """
    c = list(series)
    for w in weights:
        if w < 1:
            raise ValueError("weights must be positive")
        _mul_one_minus_tw(c, w)
    return c


def gorenstein_completion(
    numerator: Sequence[int], weights: Sequence[int]
) -> IntPoly:
    """The Gorenstein numerator over ``weights`` whose coefficients
    through degree (sum(weights) - 2) // 2 are those of ``numerator``.

    An index-2 Hilbert series satisfies P(1/t) = t^2 P(t) (Serre duality),
    so a polynomial numerator P(t) * prod (1 - t^w) has n_(top-k) =
    (-1)^codim n_k with top = sum(w) - 2 (Altinok-Brown-Reid): its lower
    half determines it.
    """
    top = sum(weights) - 2
    half = top // 2
    low = list(numerator[: half + 1])
    low += [0] * (half + 1 - len(low))
    sign = (-1) ** (len(weights) - 4)
    return poly(low + [sign * low[top - k] for k in range(half + 1, top + 1)])


def numerator_wrt_weights(
    series: Series, weights: Sequence[int]
) -> IntPoly:
    """The Gorenstein numerator of an index-2 series over prod_w (1 - t^w).

    Reads series * prod (1 - t^w) to half the degree sum(weights) - 2 and
    completes it by :func:`gorenstein_completion`.  Raises
    :class:`CutoffTooSmallError` when the series is shorter than that half.
    Whether the numerator reproduces the series is for the caller to check.
    """
    half = (sum(weights) - 2) // 2
    if half >= len(series):
        raise CutoffTooSmallError(
            f"the series stops at degree {len(series) - 1}, below half "
            f"the Gorenstein degree {sum(weights) - 2}"
        )
    return gorenstein_completion(
        series_times_weights(series[: half + 1], weights), weights
    )


def degree_from_form(form: RationalForm) -> Fraction:
    """The limit (1 - t)^4 * form at t = 1, computed exactly.

    Each denominator factor 1 - t^w contributes one power of (1 - t) and
    the value w at t = 1; the numerator may cancel some powers.  The form
    must be left with a pole of order exactly 4.
    """
    num = poly(form.numerator)
    vanishing = 0
    while num and sum(num) == 0:
        num = poly_div_one_minus_t(num)
        vanishing += 1
    pole = len(form.denom_weights) - vanishing
    if pole != 4:
        raise WrongPoleOrderError(
            f"pole order at t=1 is {pole}, expected 4"
        )
    return Fraction(sum(num), prod(form.denom_weights))
