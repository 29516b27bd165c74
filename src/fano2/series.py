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

from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Iterable, NamedTuple, Sequence

from .basket import Basket

#: The cutoff that is printed unless another is asked for, and nothing
#: more: graded models and reference table rows read the series as deep
#: as they need, whatever the cutoff.
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


def poly_str(p: Sequence[int]) -> str:
    """Human-readable form such as ``1 - 2t^3 - 3t^4 + 3t^5 + 2t^6 - t^9``."""
    terms = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            tpow = "t" if k == 1 else f"t^{k}"
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


class _FormFields(NamedTuple):
    numerator: IntPoly
    denom_weights: tuple[int, ...]


class RationalForm(_FormFields):
    """A closed form N(t) / prod_w (1 - t^w), weights sorted, N trimmed."""

    __slots__ = ()

    def __new__(cls, numerator: Sequence[int], denom_weights: Iterable[int]):
        num = poly(numerator)
        ws = tuple(sorted(int(w) for w in denom_weights))
        if any(w < 1 for w in ws):
            raise ValueError("denominator weights must be positive")
        return super().__new__(cls, num, ws)

    @classmethod
    def _make(cls, iterable):  # so that _replace normalises too
        return cls(*iterable)

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


def gorenstein_degree(weights: Sequence[int]) -> int:
    """sum(weights) - 2: the top degree of an index-2 Gorenstein numerator
    over prod_w (1 - t^w), about which it is symmetric."""
    return sum(weights) - 2


def codimension(weights: Sequence[int]) -> int:
    """len(weights) - 4: the codimension of a 3-fold in P(weights)."""
    return len(weights) - 4


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
    top = gorenstein_degree(weights)
    half = top // 2
    low = list(numerator[: half + 1])
    low += [0] * (half + 1 - len(low))
    sign = (-1) ** codimension(weights)
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
    top = gorenstein_degree(weights)
    half = top // 2
    if half >= len(series):
        raise CutoffTooSmallError(
            f"the series stops at degree {len(series) - 1}, below half "
            f"the Gorenstein degree {top}"
        )
    return gorenstein_completion(
        series_times_weights(series[: half + 1], weights), weights
    )


def certificate_degree(basket: Basket, weights: Sequence[int]) -> int:
    """d = sum(w) + sum of the distinct r + 3: a numerator N of degree at
    most sum(w) - 2 gives the Hilbert series P_X of the basket exactly
    when N / prod_w (1 - t^w) and P_X agree through degree d.

    K_X = -2A, so nA - K_X = (n + 2)A is ample for n >= -1 and
    Kawamata-Viehweg vanishing gives h^0(nA) = chi(nA) for n >= 0.  By
    Riemann-Roch, chi(nA) is a cubic in n plus, for each point, a term
    periodic in n mod r.  So P_X = Q / ((1 - t)^4 prod_{distinct r}
    (1 - t^r)) with deg Q <= 3 + sum_{distinct r} r.  Both sides of
    N (1 - t)^4 prod (1 - t^r) = Q prod_w (1 - t^w) are then polynomials
    of degree at most d.  They are the series N / prod_w (1 - t^w) and
    P_X, each times the one polynomial (1 - t)^4 prod (1 - t^r)
    prod_w (1 - t^w), so their coefficients through d are fixed by the
    two series through d: if the series agree that far, the polynomials
    are equal and N / prod_w (1 - t^w) = P_X in every degree.
    """
    return sum(weights) + sum({s.r for s in basket}) + 3


def degree_from_form(form: RationalForm) -> Fraction:
    """The limit (1 - t)^4 * form at t = 1, computed exactly.

    Each denominator factor 1 - t^w contributes one power of (1 - t) and
    the value w at t = 1; the numerator may cancel some powers.  The form
    must be left with a pole of order exactly 4.
    """
    num = poly(form.numerator)
    vanishing = 0
    while num and sum(num) == 0:
        num = poly(accumulate(num))  # num / (1 - t): its partial sums
        vanishing += 1
    pole = len(form.denom_weights) - vanishing
    if pole != 4:
        raise WrongPoleOrderError(
            f"pole order at t=1 is {pole}, expected 4"
        )
    return Fraction(sum(num), prod(form.denom_weights))
