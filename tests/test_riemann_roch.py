"""The Riemann-Roch engine: global invariants, periodic terms, series."""

from fractions import Fraction
from math import comb, lcm

import pytest

from fano2 import riemann_roch
from fano2.basket import Basket, SingularityType, enumerate_baskets, parse_basket
from fano2.riemann_roch import (
    BasketBoundError,
    NonpositiveDegreeError,
    PolarisationResidualError,
    REJECTED,
    STABLE,
    UNSTABLE,
    acz12_from_basket,
    base_degree,
    hilbert_series,
    kawamata_status,
    periodic_term,
    plurigenus,
    polarisation_residual,
    scaled_invariants,
)
from fano2.series import NonIntegerSeriesError, RationalForm, expand


TRIPLE = parse_basket("3/1,5/1,11/3")


class TestAcz12:
    def test_empty(self):
        assert acz12_from_basket(Basket()) == 1

    def test_single_third(self):
        assert acz12_from_basket(parse_basket("3/1")) == Fraction(8, 9)

    def test_worked_example(self):
        assert acz12_from_basket(TRIPLE) == Fraction(116, 495)

    def test_bound_violation_raises(self):
        overweight = Basket(tuple([SingularityType(3, 1)] * 9))
        with pytest.raises(BasketBoundError):
            acz12_from_basket(overweight)


class TestPeriodicTerm:
    @pytest.mark.parametrize(
        "r,a,n,value",
        [
            (3, 1, -1, Fraction(-1, 9)),
            (11, 3, -1, Fraction(-5, 11)),
            (3, 1, 0, 0),
            (11, 3, 0, 0),
            (3, 1, 1, Fraction(-2, 9)),
            (5, 1, 1, Fraction(-1, 5)),
            (11, 3, 1, Fraction(-9, 11)),
        ],
    )
    def test_values(self, r, a, n, value):
        assert periodic_term(SingularityType(r, a), n) == value

    def test_periodicity_and_vanishing(self):
        for r, a in ((3, 1), (7, 2), (9, 4), (17, 6), (23, 11)):
            s = SingularityType(r, a)
            for n in range(-r, r + 1):
                assert periodic_term(s, n) == periodic_term(s, n + r)
            assert periodic_term(s, 0) == periodic_term(s, r) == 0


class TestPolarisationResidual:
    def test_examples(self):
        assert polarisation_residual(parse_basket("3/1")) == 0
        assert polarisation_residual(parse_basket("5/2,7/1")) == 0
        assert polarisation_residual(Basket()) == 0

    def test_vanishes_for_every_admissible_basket(self):
        # Observed identity making the n = -1 constraint vacuous as a
        # filter; the enumeration still enforces it.
        assert all(polarisation_residual(b) == 0 for b in enumerate_baskets())


class TestBaseDegree:
    def test_empty_basket_gives_minus_two(self):
        assert base_degree(Basket()) == -2

    def test_worked_example(self):
        assert base_degree(TRIPLE) == Fraction(1, 165)

    def test_index_21_point(self):
        assert base_degree(parse_basket("21/10")) == Fraction(19, 21) - 2


class TestScaledInvariants:
    def test_match_the_fraction_constants_on_every_basket(self):
        baskets = enumerate_baskets()
        assert len(baskets) == 1032
        for b in baskets:
            d, acz12_d, base_d = scaled_invariants(b)
            assert d == 24 * lcm(*(s.r for s in b))
            assert Fraction(acz12_d, d) == acz12_from_basket(b)
            assert Fraction(base_d, d) == base_degree(b)

    def test_worked_example(self):
        assert scaled_invariants(TRIPLE) == (3960, 928, 24)

    def test_overweight_basket_raises_and_is_not_cached(self):
        before = scaled_invariants.cache_info().currsize
        with pytest.raises(BasketBoundError):
            scaled_invariants(parse_basket("9x3/1"))
        assert scaled_invariants.cache_info().currsize == before

    def test_nonzero_residual_raises(self, fresh_invariants, monkeypatch):
        # An explicit raise, not an assert, so it also holds under -O.
        # 3/1 has D = 72; adding 8 to 24 r per(s, -1) makes the residual
        # 8/72 = 1/9.
        constants = riemann_roch._type_constants
        monkeypatch.setattr(
            riemann_roch, "_type_constants",
            lambda s: constants(s)[:2] + (constants(s)[2] + 8,),
        )
        with pytest.raises(
            PolarisationResidualError,
            match=r"^polarisation residual nonzero for basket \[3/1\]$",
        ):
            hilbert_series(parse_basket("3/1"), 0)


class TestKawamataStatus:
    def test_sharp_stable_boundary(self):
        assert kawamata_status(Fraction(9), Fraction(1)) == STABLE

    def test_unstable_window(self):
        assert kawamata_status(Fraction(25, 3), Fraction(8, 9)) == UNSTABLE

    def test_rejected_beyond_cap(self):
        assert kawamata_status(Fraction(10), Fraction(1)) == REJECTED


class TestHilbertSeries:
    def test_matches_degree38_closed_form(self):
        series = hilbert_series(TRIPLE, -2, 60)
        form = RationalForm((1,) + (0,) * 37 + (-1,), (2, 3, 5, 11, 19))
        assert series == expand(form, 60)

    def test_matches_degree10_closed_form(self):
        series = hilbert_series(parse_basket("3/1"), 0, 60)
        form = RationalForm((1,) + (0,) * 9 + (-1,), (1, 1, 2, 3, 5))
        assert series == expand(form, 60)

    def test_cubic_binomial_identity(self):
        # Nonsingular genus-3 candidate: h^0(nA) = C(n+4,4) - C(n+1,4).
        series = hilbert_series(Basket(), 3, 60)
        assert series[:4] == (1, 5, 15, 34)
        for n in range(61):
            assert series[n] == comb(n + 4, 4) - comb(n + 1, 4)

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(NonpositiveDegreeError):
            hilbert_series(Basket(), -2)

    @pytest.mark.parametrize("base", [Fraction(1, 2), Fraction(1, 7)])
    def test_degree_off_the_lattice_is_not_integral(
        self, fresh_invariants, monkeypatch, base
    ):
        # A^3 outside base_degree + Z.  The D = 24 of the empty basket
        # clears 1/2, so a base degree of 1/2 enters the integer constants
        # and is caught by the exact division.  The D = 72 of 3/1 does not
        # clear 1/7: a periodic term that would put its base degree at 1/7
        # (-1 - 8/9 - 1/7) is caught when the point scales it by 24 r.
        if (24 * base).denominator == 1:
            monkeypatch.setattr(
                riemann_roch, "scaled_invariants",
                lambda basket: (24, 24, int(24 * base)),
            )
            basket = Basket()
        else:
            monkeypatch.setattr(
                riemann_roch, "periodic_term",
                lambda s, n: -1 - Fraction(8, 9) - base,
            )
            basket = parse_basket("3/1")
        with pytest.raises(NonIntegerSeriesError):
            hilbert_series(basket, 0, 10)

    def test_coefficients_are_integral_and_counted(self):
        for text, genus in (("3/1", 5), ("21/10", 0), ("5/2,7/1", -1)):
            series = hilbert_series(parse_basket(text), genus, 40)
            coeffs = series
            assert all(type(c) is int for c in coeffs)
            assert coeffs[0] == 1
            assert coeffs[1] == genus + 2
            assert all(c >= 0 for c in coeffs)


class TestPlurigenus:
    def test_worked_example_pins_genus(self):
        assert plurigenus(TRIPLE, Fraction(1, 165), 1) == 0

    def test_degree26_section_count(self):
        assert plurigenus(parse_basket("5/2,7/1"), Fraction(1, 35), 2) == 2

    def test_vanishes_at_minus_one_for_any_degree(self):
        # dim H^0(-A) = 0 is the polarisation condition restated.
        for b in (Basket(), parse_basket("3/1"), TRIPLE, parse_basket("21/10")):
            for a3 in (Fraction(1, 7), Fraction(3), Fraction(19, 21)):
                assert plurigenus(b, a3, -1) == 0

    def test_two_route_equality_on_worked_examples(self):
        for text, genus in (("", 9), ("3/1", 8), ("3/1,5/1,11/3", -2)):
            basket = parse_basket(text)
            a3 = base_degree(basket) + genus + 2
            series = hilbert_series(basket, genus, 45)
            for n in range(46):
                assert series[n] == plurigenus(basket, a3, n)

    def test_two_route_equality_on_every_candidate(self, candidates):
        # The whole enumeration, degrees 0..60: the assembled series and
        # the term-wise chi share nothing but periodic_term.
        assert len(candidates) == 1492
        bad = [
            (str(c.basket), c.genus, n)
            for c in candidates
            for n in range(61)
            if c.series[n] != plurigenus(c.basket, c.a3, n)
        ]
        assert not bad, bad[:5]

    def test_anticanonical_sections_of_largest_degree(self):
        # chi(2A) for the nonsingular degree-9 candidate.
        assert plurigenus(Basket(), Fraction(9), 2) == 39
