"""The Riemann-Roch engine: global invariants, periodic terms, series."""

import time
from fractions import Fraction
from math import comb, lcm

import pytest

from fano2 import riemann_roch
from fano2.basket import (
    Basket,
    BasketBoundError,
    SingularityType,
    enumerate_baskets,
    parse_basket,
    singularity_universe,
)
from fano2.classify import enumerate_candidates
from fano2.riemann_roch import (
    NonpositiveDegreeError,
    PolarisationResidualError,
    REJECTED,
    STABLE,
    UNSTABLE,
    acz12_from_basket,
    base_degree,
    genus_range,
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

    def test_fraction_forms_cache_one_term_per_residue(self):
        # plurigenus, base_degree and polarisation_residual read the term
        # at n mod r, so any number of degrees keeps at most r per type
        periodic_term.cache_clear()
        a3 = base_degree(TRIPLE)
        for n in range(-1, 201):
            plurigenus(TRIPLE, a3, n)
        polarisation_residual(TRIPLE)
        assert periodic_term.cache_info().currsize <= sum(s.r for s in TRIPLE)


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
        # built without the parser, which refuses nine points itself
        before = scaled_invariants.cache_info().currsize
        with pytest.raises(BasketBoundError):
            scaled_invariants(Basket([SingularityType(3, 1)] * 9))
        assert scaled_invariants.cache_info().currsize == before

    @pytest.mark.parametrize("refuse", [
        scaled_invariants,
        lambda b: hilbert_series(b, 0),
        acz12_from_basket,
        polarisation_residual,
        base_degree,
        lambda b: plurigenus(b, Fraction(1), 1),
    ], ids=["scaled_invariants", "hilbert_series", "acz12_from_basket",
            "polarisation_residual", "base_degree", "plurigenus"])
    def test_large_index_is_refused_before_its_periodic_terms(
        self, fresh_invariants, refuse
    ):
        # a periodic term of index r sums O(r) terms: about 0.6 s each at
        # r = 10^7 + 1, whose load alone is far past 24.  The caches are
        # emptied, so no case gets its terms from an earlier one.
        periodic_term.cache_clear()
        basket = Basket([SingularityType(10**7 + 1, 1)])
        start = time.perf_counter()
        with pytest.raises(BasketBoundError, match="reaches 24"):
            refuse(basket)
        assert time.perf_counter() - start < 0.05

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

    @pytest.mark.parametrize("base", [Fraction(1, 2), Fraction(5, 36)])
    def test_degree_off_the_lattice_is_not_integral(
        self, fresh_invariants, monkeypatch, base
    ):
        # A^3 outside base_degree + Z for the one point 3/1, whose 24 r is
        # 72.  The integer constants express a base degree in steps of
        # 1/72 only: lowering 24 r per(s, 1) by 72 base moves the base
        # degree by base (1/2, or 5/36, the step nearest 1/7), which the
        # constants accept, and the exact division of the point's table
        # catches it at degree 1.
        constants = riemann_roch._type_constants
        shift = int(72 * base)
        monkeypatch.setattr(
            riemann_roch, "_type_constants",
            lambda s: (constants(s)[0], constants(s)[1] - shift,
                       constants(s)[2]),
        )
        with pytest.raises(
            NonIntegerSeriesError,
            match=rf"^non-integer coefficient at degree 1 "
                  rf"for a point of type 3/1: {base}$",
        ):
            hilbert_series(parse_basket("3/1"), 0, 10)

    def test_periodic_term_off_the_lattice_is_not_integral(
        self, fresh_invariants, monkeypatch
    ):
        # 24 r per(5/2, 2) moved by 1, which 24 r = 120 does not divide:
        # the point's share 2 at degree 2 becomes 241/120.  The constants
        # read only k = 1 and k = r - 1, so the point's table is where it
        # is caught.  (For 3/1, k = 2 is k = r - 1, and the moved entry
        # would be a nonzero polarisation residual.)
        table = riemann_roch._periodic_table
        monkeypatch.setattr(
            riemann_roch, "_periodic_table",
            lambda s: tuple(t + (k == 2) for k, t in enumerate(table(s))),
        )
        hilbert_series(parse_basket("5/2"), 0, 1)
        with pytest.raises(
            NonIntegerSeriesError,
            match=r"^non-integer coefficient at degree 2 "
                  r"for a point of type 5/2: 241/120$",
        ):
            hilbert_series(parse_basket("5/2"), 0, 2)

    def test_coefficients_are_integral_and_counted(self):
        for text, genus in (("3/1", 5), ("21/10", 0), ("5/2,7/1", -1)):
            series = hilbert_series(parse_basket(text), genus, 40)
            coeffs = series
            assert all(type(c) is int for c in coeffs)
            assert coeffs[0] == 1
            assert coeffs[1] == genus + 2
            assert all(c >= 0 for c in coeffs)


class TestPackedTables:
    EDGES = (-(2**63), -(2**63) + 1, -5, -1, 0, 1, 7, 2**63 - 1)

    @pytest.mark.parametrize("width", [64, 128, 192])
    def test_pack_round_trip(self, width):
        lanes = [self.EDGES, (0,), (-1,), (2**63 - 1,), (-(2**63),),
                 (0, 0, -(2**63)), (-(2**63), 0, 0), (2**63 - 1,) * 5]
        if width > 64:
            half = 2 ** (width - 1)
            lanes += [(-half, half - 1, 0, -1, 2**63), (half - 1,) * 3]
        for table in lanes:
            x = riemann_roch._pack(table, width)
            # the value at t = 2^width: a homomorphism Z[t] -> Z
            assert x == sum(t << width * k for k, t in enumerate(table))
            decoded = riemann_roch._unpack(x, len(table), width, len(table))
            assert decoded == table
            assert all(type(t) is int for t in decoded)
            # a prefix is read off the same value, as a series is off
            # the sum of its depth class
            prefix = riemann_roch._unpack(x, len(table), width, 1)
            assert prefix == table[:1]

    def test_lane_width(self):
        assert riemann_roch._lane_width(0) == 64
        assert riemann_roch._lane_width(2**63 - 1) == 64
        assert riemann_roch._lane_width(2**63) == 128
        assert riemann_roch._lane_width(2**127 - 1) == 128
        assert riemann_roch._lane_width(2**127) == 192

    @pytest.mark.parametrize(
        "text, genus, cutoff",
        [("3/1,5/1,11/3", 10**15, 60), ("", 2**63, 2),
         ("5/2,7/1", 10**40, 200)],
    )
    def test_wide_lanes_match_plurigenus(self, text, genus, cutoff):
        # (genus + 2) C(cutoff + 2, 3) reaches 2^63: the sum runs in wider
        # lanes and still agrees with the term-wise chi at every degree
        basket = parse_basket(text)
        assert (genus + 2) * comb(cutoff + 2, 3) >= 2**63
        series = hilbert_series(basket, genus, cutoff)
        assert len(series) == cutoff + 1
        assert max(series) >= 2**63
        a3 = base_degree(basket) + genus + 2
        for n in range(cutoff + 1):
            assert series[n] == plurigenus(basket, a3, n), n


def scaled_hilbert_series(basket, genus, cutoff):
    """hilbert_series as it was before the per-point tables: every term
    scaled by D = 24 lcm(r), each point's 24 r c_P(t) expanded over
    (1 - t^r) and weighted by D / (24 r), and the integer sum divided
    by D once."""
    d, acz12_d, base_d = scaled_invariants(basket)
    a3_d = base_d + (genus + 2) * d
    units = (
        expand(RationalForm((1,), (1,)), cutoff),
        expand(RationalForm((0, 1), (1, 1, 1, 1)), cutoff),
        expand(RationalForm((0, 1), (1, 1)), cutoff),
    )
    total = [d * x + a3_d * y + acz12_d * z for x, y, z in zip(*units)]
    for s in basket:
        scaled = [periodic_term(s, k) * 24 * s.r for k in range(s.r)]
        assert all(x.denominator == 1 for x in scaled), s
        periodic = expand(RationalForm([int(x) for x in scaled], (s.r,)), cutoff)
        for k, x in enumerate(periodic):
            total[k] += d // (24 * s.r) * x
    out = []
    for k, x in enumerate(total):
        q, rem = divmod(x, d)
        if rem:
            raise NonIntegerSeriesError(f"degree {k}: {Fraction(x, d)}")
        out.append(q)
    return tuple(out)


class TestPointSeries:
    def test_every_type_is_a_one_point_basket(self):
        # the integrality argument of _point_series rests on this
        types = singularity_universe()
        assert len(types) == 58
        baskets = set(enumerate_baskets())
        assert all(Basket((s,)) in baskets for s in types)

    def test_periodic_table_is_the_scaled_periodic_term(self):
        # the bridge between the routes: on every type the integer table
        # and constants of the series are the Fraction terms of plurigenus
        # times 24 r
        types = singularity_universe()
        assert len(types) == 58
        for s in types:
            d = 24 * s.r
            table = riemann_roch._periodic_table(s)
            assert all(type(t) is int for t in table), s
            assert table == tuple(d * periodic_term(s, k) for k in range(s.r)), s
            assert riemann_roch._type_constants(s) == (
                s.r * s.cost, d * periodic_term(s, 1), d * periodic_term(s, -1)
            ), s

    def test_every_table_is_integral_and_extends(self):
        # over the decoded tables of three depth classes: each is cached
        # packed, with its bound, and a deeper class extends a shallower
        def table(s, depth):
            packed = riemann_roch._point_series(s, depth)
            decoded = riemann_roch._table(packed, depth)
            assert packed[1] == max(map(abs, decoded)), s
            return decoded

        for s in singularity_universe():
            full = table(s, 1024)
            assert len(full) == 1024
            assert all(type(q) is int for q in full), s
            assert full[:2] == (0, 0), s
            short = table(s, 64)
            assert table(s, 256)[:64] == short, s
            assert full[:256] == table(s, 256), s

    @pytest.mark.parametrize("cutoff", [60, 200])
    def test_match_scaled_series(self, cutoff):
        cands = enumerate_candidates(cutoff)
        assert len(cands) == 1492
        for c in cands:
            assert c.series == scaled_hilbert_series(c.basket, c.genus, cutoff), (
                str(c.basket), c.genus)

    def test_match_scaled_series_past_the_degree_cap(self):
        # the first genus past the cap and ten more, on every basket
        for b in enumerate_baskets():
            genera = genus_range(b)
            first = max(genera.start, genera.stop)
            for g in (first, first + 10):
                assert hilbert_series(b, g) == scaled_hilbert_series(b, g, 60), (
                    str(b), g)


class TestDepthClasses:
    def test_depth_is_the_least_power_of_two_above_the_cutoff(self):
        depths = [riemann_roch._depth(c) for c in (0, 1, 2, 15, 16, 60, 64)]
        assert depths == [1, 2, 4, 16, 32, 64, 128]

    @pytest.mark.parametrize("cutoff", [0, 1, 15, 16, 63, 64, 127, 128])
    @pytest.mark.parametrize(
        "text, genus", [("3/1,5/1,11/3", -2), ("5/2,7/1", 3), ("3/1", 2**63)]
    )
    def test_series_at_class_edges_match_plurigenus(self, text, genus, cutoff):
        # a cutoff just below or at a power of two reads the last lane of
        # its class or the first of the next; genus 2^63 runs in wide lanes
        basket = parse_basket(text)
        a3 = base_degree(basket) + genus + 2
        series = hilbert_series(basket, genus, cutoff)
        assert len(series) == cutoff + 1
        for n in range(cutoff + 1):
            assert series[n] == plurigenus(basket, a3, n), n

    def test_negative_cutoff_is_refused(self):
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            hilbert_series(TRIPLE, -2, -1)

    def test_caches_hold_depth_classes_not_cutoffs(self, fresh_invariants):
        # a long-lived process reading 1000 distinct cutoffs keeps one
        # table per type and depth class: 64, 128, ..., 2048
        a3 = base_degree(TRIPLE)
        for cutoff in range(61, 1061):
            series = hilbert_series(TRIPLE, -2, cutoff)
            assert len(series) == cutoff + 1
            for n in (cutoff % 61, cutoff):
                assert series[n] == plurigenus(TRIPLE, a3, n), (cutoff, n)
        classes = 1060 .bit_length()
        assert riemann_roch._unit_series.cache_info().currsize <= classes
        assert riemann_roch._point_series.cache_info().currsize <= (
            classes * len(TRIPLE))
        assert riemann_roch._bias.cache_info().currsize <= classes


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
        # the term-wise chi share nothing but SingularityType.b and
        # local_index; the series reads the integer periodic tables and
        # the chi reads periodic_term.
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


class TestK3Section:
    def test_k3_identity_on_every_candidate(self, candidates):
        # A third route, sharing no code with the other two.  A general
        # S in |2A| is a K3 surface with D = A|_S, D^2 = 2 A^3, and an
        # A_{r-1} point for each basket point 1/r(a, -a, 2), where nD has
        # local type m = n a^-1 mod r.  Riemann-Roch on S and
        # 0 -> O((n-2)A) -> O(nA) -> O_S(nD) -> 0 give, for n >= 1,
        #     P_n - P_{n-2} = 2 + n^2 A^3 - sum m (r - m) / (2 r),
        # checked here in integers over a denominator of its own, with no
        # periodic_term, SingularityType.b or point table.
        assert len(candidates) == 1492
        bad = []
        for c in candidates:
            a3, p = c.a3, c.series
            points = [(s.r, pow(s.a, -1, s.r)) for s in c.basket]
            d = lcm(a3.denominator, *(2 * r for r, _ in points))
            a3_d = a3.numerator * (d // a3.denominator)
            for n in range(1, 60):
                k3 = 2 * d + n * n * a3_d - sum(
                    n * u % r * (r - n * u % r) * (d // (2 * r))
                    for r, u in points
                )
                if d * (p[n] - (p[n - 2] if n >= 2 else 0)) != k3:
                    bad.append((str(c.basket), c.genus, n))
        assert not bad, bad[:5]
