"""Singularity types, normalisation, basket enumeration and text syntax."""

import copy
import pickle
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano2.basket import (
    MAX_POINTS,
    Basket,
    BasketBoundError,
    BasketParseError,
    EvenIndexError,
    NotCoprimeError,
    SingularityType,
    ZeroWeightError,
    enumerate_baskets,
    normalize,
    parse_basket,
    singularity_universe,
)
from fano2.riemann_roch import periodic_term, scaled_invariants

#: Number of admissible baskets, frozen after the first verified run.
GOLDEN_BASKET_COUNT = 1032


class TestNormalize:
    def test_folds_to_smaller_weight(self):
        assert normalize(5, 4) == SingularityType(5, 1)

    def test_reduces_mod_r_then_folds(self):
        assert normalize(9, 10) == SingularityType(9, 1)

    def test_already_canonical(self):
        assert normalize(7, 3) == SingularityType(7, 3)

    def test_even_index_rejected(self):
        with pytest.raises(EvenIndexError):
            normalize(4, 1)

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeightError):
            normalize(9, 18)

    def test_not_coprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            normalize(9, 3)

    @given(st.integers(1, 11), st.integers(-200, 200))
    @settings(max_examples=200, deadline=None)
    def test_fuzz(self, half_r, a_raw):
        r = 2 * half_r + 1
        if a_raw % r == 0:
            with pytest.raises(ZeroWeightError):
                normalize(r, a_raw)
        elif gcd(a_raw, r) != 1:
            with pytest.raises(NotCoprimeError):
                normalize(r, a_raw)
        else:
            s = normalize(r, a_raw)
            assert 1 <= s.a <= (r - 1) // 2 and gcd(s.a, r) == 1
            # the germ only depends on a mod r up to sign
            assert s == normalize(r, -a_raw) == normalize(r, a_raw + r)


def round_trips(value):
    """Copies of ``value`` through every pickle protocol and the copy module."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))
    yield copy.copy(value)
    yield copy.deepcopy(value)


class TestValueSemantics:
    def test_universe_order_and_type_order(self):
        universe = singularity_universe()
        assert universe[:6] == (
            SingularityType(3, 1), SingularityType(5, 1),
            SingularityType(5, 2), SingularityType(7, 1),
            SingularityType(7, 2), SingularityType(7, 3),
        )
        assert [(s.r, s.a) for s in universe] == sorted(
            (s.r, s.a) for s in universe)
        assert sorted(reversed(universe)) == list(universe)
        assert SingularityType(5, 2) < SingularityType(7, 1)
        assert SingularityType(7, 2) < SingularityType(7, 3)

    def test_basket_sorts_its_entries(self):
        s3, s5, s11 = SingularityType(3, 1), SingularityType(5, 2), normalize(11, 3)
        basket = Basket((s11, s3, s5, s3))
        assert tuple(basket) == (s3, s3, s5, s11)
        assert len(basket) == 4
        assert basket == Basket(entries=[s5, s3, s11, s3])
        assert str(basket) == "2x3/1,5/2,11/3"
        assert repr(Basket((s5, s3))) == (
            "Basket(entries=(SingularityType(r=3, a=1), "
            "SingularityType(r=5, a=2)))")

    def test_baskets_are_equal_exactly_when_their_entries_are(self):
        sample = enumerate_baskets()[::53] + [parse_basket("2x3/1,5/2")]
        for x, y in product(sample, repeat=2):
            assert (x == y) == (tuple(x) == tuple(y))
            if x == y:
                assert hash(x) == hash(y)
        assert Basket((SingularityType(3, 1),)) != Basket(
            (SingularityType(3, 1),) * 2)

    @pytest.mark.parametrize(
        "value, rebuild",
        [(SingularityType(11, 3), lambda s: SingularityType(*s)),
         (Basket(), Basket),
         (parse_basket("2x3/1,5/2"), Basket)],
        ids=["type", "empty-basket", "basket"],
    )
    def test_pickle_and_copy_round_trips(self, value, rebuild):
        # every copy is equal, of the same type, and as its validating
        # constructor builds it
        for clone in round_trips(value):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert rebuild(clone) == clone
            assert str(clone) == str(value)

    def test_replace_validates(self):
        s = SingularityType(11, 3)
        assert s._replace(a=2) == SingularityType(11, 2)
        with pytest.raises(EvenIndexError):
            s._replace(r=12)

    def test_unpickling_validates(self):
        # index 11 -> 12 in the pickled arguments: the constructor runs
        data = pickle.dumps(SingularityType(11, 3), pickle.HIGHEST_PROTOCOL)
        assert data.count(b"K\x0b") == 1
        with pytest.raises(EvenIndexError):
            pickle.loads(data.replace(b"K\x0b", b"K\x0c"))


class TestLocalData:
    @pytest.mark.parametrize(
        "r,a,expected", [(3, 1, 2), (5, 2, 1), (11, 3, 8)]
    )
    def test_b_solves_ab_eq_2(self, r, a, expected):
        s = SingularityType(r, a)
        assert s.b == expected
        assert (s.a * s.b) % s.r == 2 % s.r

    @pytest.mark.parametrize(
        "r,a,n,expected",
        [(3, 1, -1, 2), (5, 2, -1, 3), (7, 1, 0, 0), (7, 1, 1, 3)],
    )
    def test_local_index_examples(self, r, a, n, expected):
        assert SingularityType(r, a).local_index(n) == expected

    def test_local_index_periodic_and_doubles_to_minus_n(self):
        for s in singularity_universe():
            for n in range(-2 * s.r, 2 * s.r + 1):
                i = s.local_index(n)
                assert 0 <= i < s.r
                assert i == s.local_index(n + s.r)
                assert (2 * i + n) % s.r == 0
            assert s.local_index(0) == 0

    def test_periodic_terms_invariant_under_weight_fold(self):
        # The germs for a and r - a are isomorphic, which is what lets a
        # type store only the canonical weight: the module-docstring
        # formula, evaluated here on the unfolded weight r - a, must
        # give the canonical type's periodic term.
        def raw_term(r, a, n):
            i = -n * pow(2, -1, r) % r  # local index of nA
            b = 2 * pow(a, -1, r) % r  # a b = 2 (mod r)
            return -Fraction(i * (r * r - 1), 12 * r) + sum(
                (Fraction((b * j % r) * (r - b * j % r), 2 * r)
                 for j in range(1, i)),
                Fraction(0),
            )

        for s in singularity_universe():
            for n in (1, -1):
                assert periodic_term(s, n) == raw_term(s.r, s.r - s.a, n)


class TestUniverseAndEnumeration:
    def test_universe_is_closed_and_canonical(self):
        universe = singularity_universe()
        assert len(universe) == len(set(universe))
        assert all(s.r <= 23 and s.r % 2 == 1 for s in universe)
        assert all(s.cost < 24 for s in universe)
        assert max(s.r for s in universe) == 23

    def test_universe_is_every_type_under_the_bound(self):
        # Past r = 23 the load (r^2 - 1)/r only grows, so a search to
        # r = 41 finds every type whose load alone stays below 24.
        every = [
            SingularityType(r, a)
            for r in range(3, 42, 2)
            for a in range(1, (r - 1) // 2 + 1)
            if gcd(a, r) == 1 and Fraction(r * r - 1, r) < 24
        ]
        assert singularity_universe() == tuple(every)
        assert len(every) == 58

    def test_enumeration_contains_empty_basket(self):
        baskets = enumerate_baskets()
        assert baskets[0] == Basket()

    def test_enumeration_contains_worked_example(self):
        triple = parse_basket("3/1,5/1,11/3")
        assert triple.cost == Fraction(3032, 165) < 24
        assert triple in enumerate_baskets()

    def test_enumeration_excludes_boundary(self):
        nine = Basket(tuple([SingularityType(3, 1)] * 9))
        assert nine.cost == 24
        assert nine not in enumerate_baskets()
        eight = Basket(tuple([SingularityType(3, 1)] * 8))
        assert eight in enumerate_baskets()

    def test_enumeration_is_deterministic_and_golden(self):
        first = enumerate_baskets()
        second = enumerate_baskets()
        assert first == second
        assert len(first) == GOLDEN_BASKET_COUNT
        assert len(set(first)) == GOLDEN_BASKET_COUNT
        assert all(b.cost < 24 for b in first)

    def test_integer_walk_matches_fraction_walk(self):
        # Reference walk on the rational loads (r^2 - 1)/r against the
        # bound 24: same baskets in the same order.
        universe = singularity_universe()
        expected: list[Basket] = []

        def walk(start, acc, remaining):
            expected.append(Basket(tuple(acc)))
            for i in range(start, len(universe)):
                cost = Fraction(universe[i].r ** 2 - 1, universe[i].r)
                if cost < remaining:
                    walk(i, acc + [universe[i]], remaining - cost)

        walk(0, [], Fraction(24))
        assert enumerate_baskets() == expected

    def test_enumeration_order_is_lexicographic(self):
        baskets = enumerate_baskets()
        keys = [tuple((s.r, s.a) for s in b) for b in baskets]
        assert keys == sorted(keys)


class TestSingularRank:
    def test_rank_of_index_21_point(self):
        assert Basket((normalize(21, 10),)).singular_rank == 20

    def test_rank_of_empty(self):
        assert Basket().singular_rank == 0

    def test_rank_of_worked_example(self):
        assert parse_basket("3/1,5/1,11/3").singular_rank == 16


class TestTextSyntax:
    def test_parse_with_multiplicity(self):
        b = parse_basket("2x3/1,5/2")
        assert tuple(b) == (
            SingularityType(3, 1),
            SingularityType(3, 1),
            SingularityType(5, 2),
        )

    def test_whitespace_insensitive(self):
        assert parse_basket(" 2x 3/1 , 5/2 ") == parse_basket("2x3/1,5/2")

    def test_empty_string_is_empty_basket(self):
        assert parse_basket("") == Basket()
        assert parse_basket("  ") == Basket()

    def test_rejects_non_canonical_with_hint(self):
        with pytest.raises(BasketParseError, match="5/1"):
            parse_basket("5/4")

    def test_rejects_garbage(self):
        with pytest.raises(BasketParseError):
            parse_basket("3-1")
        with pytest.raises(BasketParseError):
            parse_basket("0x3/1")

    def test_rejects_invalid_types(self):
        with pytest.raises(BasketParseError):
            parse_basket("4/1")
        with pytest.raises(BasketParseError):
            parse_basket("9/3")

    def test_round_trip(self):
        for text in ("", "3/1", "2x3/1,5/2", "8x3/1", "3/1,5/1,11/3"):
            assert str(parse_basket(text)) == text

    def test_max_points_is_what_the_bound_allows(self):
        cheapest = min(s.cost for s in singularity_universe())
        assert MAX_POINTS * cheapest < 24 <= (MAX_POINTS + 1) * cheapest
        assert max(len(b) for b in enumerate_baskets()) == MAX_POINTS

    @pytest.mark.parametrize(
        "text", ["9x3/1", "3/1,5x3/1,3x3/1", "2x5/2,3/1,6x3/1", "4x7/3,5x23/11"])
    def test_too_many_points_raise_the_load_error(self, text):
        # the parser's error is the one the Riemann-Roch layer raises for
        # the same basket built point by point
        with pytest.raises(BasketBoundError) as parsed:
            parse_basket(text)
        points = []
        for token in text.split(","):
            mult, _, pair = token.rpartition("x")
            r, a = map(int, pair.split("/"))
            points += [SingularityType(r, a)] * int(mult or 1)
        built = Basket(points)
        with pytest.raises(BasketBoundError) as layer:
            scaled_invariants(built)
        assert parsed.value.basket == layer.value.basket == str(built)
        assert str(parsed.value) == str(layer.value)

    def test_huge_multiplicity_is_never_expanded(self):
        # a list of 10^12 points would take 8 TB
        with pytest.raises(BasketBoundError) as exc:
            parse_basket(f"{10**12}x3/1, 5/2")
        assert exc.value.basket == f"{10**12}x3/1,5/2"
        assert str(exc.value) == (
            f"basket load {Fraction(8, 3) * 10**12 + Fraction(24, 5)} "
            "reaches 24 (A c2 would be <= 0)")

    @pytest.mark.parametrize("text", [
        "9" * 5000 + "x3/1", "9" * 5000 + "/1", "3/" + "9" * 5000],
        ids=["mult5000", "r5000", "a5000"])
    def test_number_past_the_digits_int_reads_is_a_parse_error(self, text):
        with pytest.raises(BasketParseError) as exc:
            parse_basket(text)
        assert str(exc.value) == (
            f"basket entry {text!r} has a number of more than "
            f"{sys.get_int_max_str_digits()} digits")

    @pytest.mark.parametrize("text", [
        "9" * 4300 + "x3/1",
        "9" * 4299 + "x3/1," + "9" * 4299 + "x5/2",
        "9" * 4300 + "x3/1," + "9" * 4300 + "x3/1",
        "1" * 2200 + "3/1",
        "1" + "0" * 2199 + "1/1",  # load 10^4400 + 2 10^2200 over its r
    ], ids=["mult4300", "two4299", "two4300same", "r2201", "r2201zeros"])
    def test_load_past_the_digits_str_writes_is_written_exactly(self, text):
        # the load, and a count merged from two runs, can pass the digits
        # str() writes; the error is the one written with that limit lifted
        def refusal():
            with pytest.raises(BasketBoundError) as exc:
                scaled_invariants(parse_basket(text))
            return exc.value.basket, str(exc.value)

        limited = refusal()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert limited == refusal()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_parse_errors_come_before_the_point_count(self):
        with pytest.raises(BasketParseError):
            parse_basket(f"{10**12}x3/1,3-1")
        with pytest.raises(BasketParseError):
            parse_basket(f"{10**12}x3/1,5/4")

    def test_round_trip_over_enumeration_sample(self):
        baskets = enumerate_baskets()
        for b in baskets[::37]:
            assert parse_basket(str(b)) == b
