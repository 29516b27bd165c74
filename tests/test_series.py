"""Exact series arithmetic: expansion, numerator extraction, degree."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano2.graded_rings import ci_numerator
from fano2.series import (
    CutoffTooSmallError,
    RationalForm,
    WrongPoleOrderError,
    degree_from_form,
    expand,
    numerator_wrt_weights,
    palindromy_sign,
    poly,
    poly_str,
)


def weighted_partition_count(weights, k):
    """Independent oracle: number of ways to write k as a non-negative
    integer combination of the listed weights (one slot per entry)."""
    if k == 0:
        return 1
    if not weights or k < 0:
        return 0
    head, tail = weights[0], weights[1:]
    return sum(
        weighted_partition_count(tail, k - head * m)
        for m in range(k // head + 1)
    )


def product(a, b):
    """Independent oracle: the coefficients of the product of two
    polynomials, by the schoolbook convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def form_coefficient_oracle(numerator, weights, k):
    """Coefficient k of numerator / prod (1 - t^w) by brute force."""
    return sum(
        c * weighted_partition_count(weights, k - d)
        for d, c in enumerate(numerator)
        if c != 0 and d <= k
    )


class TestRationalForm:
    def test_normalises_and_validates(self):
        form = RationalForm([1, 0, -1, 0, 0], [5, 1, 2])
        assert form.numerator == (1, 0, -1) and form.denom_weights == (1, 2, 5)
        assert str(form) == "(1 - t^2) / (1 - t)(1 - t^2)(1 - t^5)"
        with pytest.raises(ValueError, match="positive"):
            RationalForm((1,), (1, 0))
        assert form._replace(denom_weights=[3, 1]).denom_weights == (1, 3)
        with pytest.raises(ValueError, match="positive"):
            form._replace(denom_weights=(0,))

    def test_pickle_and_copy_round_trips(self):
        form = RationalForm((1, 0, 0, -2, -3, 3, 2, 0, 0, -1),
                            (1, 1, 1, 1, 1, 2, 3))
        copies = [pickle.loads(pickle.dumps(form, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in copies + [copy.copy(form), copy.deepcopy(form)]:
            assert type(clone) is RationalForm
            assert clone == form and hash(clone) == hash(form)
            assert RationalForm(*clone) == clone


class TestExpand:
    def test_degree38_hypersurface_form_prefix(self):
        form = RationalForm((1,) + (0,) * 37 + (-1,), (2, 3, 5, 11, 19))
        series = expand(form, 6)
        expected = tuple(
            form_coefficient_oracle(form.numerator, form.denom_weights, k)
            for k in range(7)
        )
        assert expected == (1, 0, 1, 1, 1, 2, 2)
        assert series == expected

    def test_geometric_series(self):
        assert expand(RationalForm((1,), (1,)), 3) == (1, 1, 1, 1)

    def test_codim2_form_counts_sections_of_a(self):
        # (1-t^4)^2 / (1-t)^3 (1-t^2)^3 (1-t^3): the t coefficient must be
        # the number of degree-1 generators, here 3.
        num = (1, 0, 0, 0, -2, 0, 0, 0, 1)
        series = expand(RationalForm(num, (1, 1, 1, 2, 2, 2, 3)), 1)
        assert series == (1, 3)

    def test_matches_oracle_on_deeper_prefix(self):
        form = RationalForm((1, 0, 0, -1), (1, 2, 5))
        series = expand(form, 20)
        for k in range(21):
            assert series[k] == form_coefficient_oracle(
                form.numerator, form.denom_weights, k
            )


class TestNumeratorExtraction:
    def test_pfaffian_numerator_from_alternate_presentation(self):
        # The same series written over a smaller denominator:
        # (t^4 + t^3 + 3t^2 + t + 1) / (1-t)^3 (1-t^3).
        alt = RationalForm((1, 1, 3, 1, 1), (1, 1, 1, 3))
        series = expand(alt, 40)
        num = numerator_wrt_weights(series, (1, 1, 1, 1, 2, 2, 3))
        assert num == (1, 0, 0, -2, -3, 3, 2, 0, 0, -1)
        assert poly_str(num) == "1 - 2t^3 - 3t^4 + 3t^5 + 2t^6 - t^9"

    def test_degree38_recovery(self):
        form = RationalForm((1,) + (0,) * 37 + (-1,), (2, 3, 5, 11, 19))
        series = expand(form, 60)
        assert numerator_wrt_weights(series, (2, 3, 5, 11, 19)) == form.numerator

    def test_cubic_threefold(self):
        # (1 - t^3) / (1 - t)^5: top degree 5 - 2 = 3, sign -1 in codim 1
        series = expand(RationalForm((1, 0, 0, -1), (1,) * 5), 10)
        assert numerator_wrt_weights(series, (1,) * 5) == (1, 0, 0, -1)

    def test_cutoff_too_small_reported(self):
        # X38 in P(2,3,5,11,19) has Gorenstein degree 38: a series that
        # stops below degree 19 cannot determine its numerator
        form = RationalForm((1,) + (0,) * 37 + (-1,), (2, 3, 5, 11, 19))
        assert numerator_wrt_weights(expand(form, 19), form.denom_weights) == (
            form.numerator
        )
        with pytest.raises(CutoffTooSmallError):
            numerator_wrt_weights(expand(form, 18), form.denom_weights)


class TestDegreeFromForm:
    def test_hypersurface_degree(self):
        form = RationalForm((1,) + (0,) * 25 + (-1,), (1, 2, 5, 7, 13))
        assert degree_from_form(form) == Fraction(1, 35)

    def test_codim2_degree(self):
        num = ci_numerator((18, 22))
        form = RationalForm(num, (2, 2, 5, 9, 11, 13))
        assert degree_from_form(form) == Fraction(396, 25740) == Fraction(1, 65)

    def test_pole_order_four_exactly(self):
        assert degree_from_form(RationalForm((1,), (1, 1, 1, 1))) == 1

    def test_wrong_pole_order(self):
        with pytest.raises(WrongPoleOrderError):
            degree_from_form(RationalForm((1,), (1, 1, 1)))
        with pytest.raises(WrongPoleOrderError):
            degree_from_form(RationalForm((1, 0, -1), (1, 1, 1, 1)))


class TestPalindromy:
    def test_anti_palindromic_pfaffian(self):
        assert palindromy_sign((1, 0, 0, -2, -3, 3, 2, 0, 0, -1), 9) == -1

    def test_two_term_numerator(self):
        assert palindromy_sign((1,) + (0,) * 37 + (-1,), 38) == -1

    def test_codim2_pattern(self):
        assert palindromy_sign(ci_numerator((4, 6)), 10) == 1

    def test_neither(self):
        assert palindromy_sign((1, 1, 0, 2), 3) is None


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
small_weights = st.lists(st.integers(1, 6), min_size=1, max_size=3)


class TestProperties:
    @given(small_polys, small_weights, small_polys, small_weights)
    @settings(max_examples=60, deadline=None)
    def test_expand_is_multiplicative(self, n1, w1, n2, w2):
        f = RationalForm(tuple(n1), tuple(w1))
        g = RationalForm(tuple(n2), tuple(w2))
        fg = RationalForm(product(n1, n2), tuple(w1) + tuple(w2))
        cutoff = 14
        lhs = expand(fg, cutoff)
        rhs = product(expand(f, cutoff), expand(g, cutoff))[: cutoff + 1]
        assert len(lhs) == cutoff + 1
        assert poly(lhs) == poly(rhs)

    @given(small_polys, small_weights)
    @settings(max_examples=60, deadline=None)
    def test_expand_is_linear(self, n, w):
        f = RationalForm(tuple(n), tuple(w))
        doubled = RationalForm(tuple(2 * c for c in n), tuple(w))
        assert expand(doubled, 12) == tuple(2 * c for c in expand(f, 12))

    @given(
        st.lists(st.integers(1, 6), min_size=5, max_size=6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_numerator_round_trip(self, weights, data):
        # A hypersurface (5 weights) or codim-2 complete intersection (6)
        # whose relation degrees sum to sum(w) - 2 has a Gorenstein
        # numerator; the series to half that degree recovers it.
        top = sum(weights) - 2
        if len(weights) == 5:
            degrees = (top,)
        else:
            first = data.draw(st.integers(1, top - 1))
            degrees = (first, top - first)
        num = ci_numerator(degrees)
        series = expand(RationalForm(num, tuple(weights)), top // 2)
        assert numerator_wrt_weights(series, tuple(weights)) == num

    @given(small_polys, st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_palindromy_of_symmetrised_polys(self, coeffs, pad):
        p = poly(coeffs)
        if not p:
            return
        top = len(p) - 1 + pad
        mirror = [0] * (top + 1)
        for k, c in enumerate(p):
            mirror[top - k] = c
        plus = [a + b for a, b in zip(list(p) + [0] * pad, mirror)]
        if any(plus):
            assert palindromy_sign(plus, top) == 1
        minus = [a - b for a, b in zip(list(p) + [0] * pad, mirror)]
        if any(minus):
            assert palindromy_sign(minus, top) == -1
