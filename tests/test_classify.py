"""Structure of the candidate list and its serialisation."""

import copy
import csv
import inspect
import json
import pickle
from fractions import Fraction
from io import StringIO
from math import floor

import pytest

from fano2.basket import (
    Basket,
    BasketBoundError,
    SingularityType,
    enumerate_baskets,
    parse_basket,
)
from fano2.classify import (
    Candidate,
    K3_RANK_BOUND,
    RECORD_FIELDS,
    anticanonical_sections,
    candidate_record,
    distinct_series_count,
    enumerate_candidates,
    genus_histogram,
    ratio_text,
    write_csv,
    write_json,
)
from fano2.riemann_roch import (
    REJECTED,
    STABLE,
    UNSTABLE,
    NonpositiveDegreeError,
    acz12_from_basket,
    base_degree,
    genus_range,
    hilbert_series,
    kawamata_status,
    scaled_degree,
    scaled_invariants,
)
from fano2.series import DEFAULT_CUTOFF


class TestCandidateInvariants:
    def test_series_coefficients(self, candidates):
        for c in candidates[::17]:
            coeffs = c.series
            assert all(type(x) is int for x in coeffs)
            assert coeffs[0] == 1
            assert coeffs[1] == c.genus + 2
            assert coeffs[2] >= 1
            assert all(x >= 0 for x in coeffs)

    def test_degree_caps(self, candidates):
        for c in candidates:
            assert 0 < c.a3 <= Fraction(48, 5) * c.acz12
            if c.stable:
                assert c.a3 <= 9 * c.acz12
            else:
                assert c.a3 > 9 * c.acz12

    def test_status_is_kawamata_status(self, candidates):
        # The status is homogeneous in (A^3, Ac2/12): the integers over D
        # that Candidate() passes classify as the Fractions do.
        assert len(candidates) == 1492
        for c in candidates:
            d, acz12_d, base_d = scaled_invariants(c.basket)
            a3_d = base_d + (c.genus + 2) * d
            assert c.status == kawamata_status(c.a3, c.acz12)
            assert c.status == kawamata_status(a3_d, acz12_d)
            assert c.stable == (c.status == STABLE)
        # Exactly at and one step past each cap, over 5 D so that
        # (48/5) Ac2/12 is an integer too.
        for text in ("", "3/1", "3/1,5/1,11/3", "21/10"):
            d, acz12_d, _ = scaled_invariants(parse_basket(text))
            d, acz12_d = 5 * d, 5 * acz12_d
            for a3_d, status in (
                (9 * acz12_d, STABLE),
                (9 * acz12_d + 1, UNSTABLE),
                (48 * acz12_d // 5, UNSTABLE),
                (48 * acz12_d // 5 + 1, REJECTED),
            ):
                assert kawamata_status(a3_d, acz12_d) == status
                assert kawamata_status(Fraction(a3_d, d), Fraction(acz12_d, d)) == status

    def test_degree_range_matches_fraction_floors(self, candidates):
        # Per basket, N = genus + 2 runs from the smallest N >= 0 with
        # base + N > 0 to the largest with base + N <= (48/5)(Ac2/12).
        found: dict[Basket, list[int]] = {}
        for c in candidates:
            found.setdefault(c.basket, []).append(c.genus + 2)
        for b in enumerate_baskets():
            base = base_degree(b)
            cap = Fraction(48, 5) * acz12_from_basket(b)
            expected = range(max(0, floor(-base) + 1), floor(cap - base) + 1)
            assert found.get(b, []) == list(expected), str(b)
            assert [g + 2 for g in genus_range(b)] == list(expected), str(b)

    def test_constructor_rebuilds_every_candidate(self, candidates):
        for c in candidates:
            assert Candidate(c.basket, c.genus) == c

    def test_constructor_ignores_the_degree_cap(self):
        # 61/3 lies past (48/5)(8/9) = 128/15: no candidate, still built
        c = Candidate(parse_basket("3/1"), 20)
        assert (c.a3, c.acz12, c.stable) == (Fraction(61, 3), Fraction(8, 9), False)
        assert c.status == REJECTED
        assert c.series[:3] == (1, 22, 84)

    def test_constructor_errors(self):
        with pytest.raises(NonpositiveDegreeError):
            Candidate(Basket(), -2)
        with pytest.raises(BasketBoundError):  # not through the parser
            Candidate(Basket([SingularityType(3, 1)] * 9), 0)
        # records report h0(2A), so the series must reach degree 2
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            Candidate(Basket(), 3, cutoff=1)
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            enumerate_candidates(1)

    def test_constructor_takes_the_identity_alone(self):
        params = inspect.signature(Candidate).parameters
        assert list(params) == ["basket", "genus", "cutoff"]
        assert params["cutoff"].default == DEFAULT_CUTOFF

    @pytest.mark.parametrize("cutoff", [2, 60, 200])
    def test_fields_are_derived_from_the_identity(self, cutoff):
        for c in enumerate_candidates(cutoff):
            d, acz12_d, a3_d = scaled_degree(c.basket, c.genus)
            assert (c.scale, c.acz12_scaled, c.a3_scaled) == (d, acz12_d, a3_d)
            assert c.status == kawamata_status(a3_d, acz12_d)
            assert c.k3_obstructed == (c.basket.singular_rank >= K3_RANK_BOUND)
            assert c.cutoff == cutoff

    def test_a_copy_with_another_genus_is_checked_again(self, candidates):
        # __reduce__ hands over the identity alone, so a copy edited to a
        # genus below the degree range is refused, not built with the
        # degree of the genus it was copied from
        edited = 0
        for c in candidates[::10]:
            fn, args = c.__reduce__()
            low = min(genus_range(c.basket)) - 1
            if base_degree(c.basket) + low + 2 > 0:
                continue  # the range starts at genus -2, not at A^3 > 0
            with pytest.raises(NonpositiveDegreeError):
                fn(args[0], low, *args[2:])
            edited += 1
        assert edited > 100

    def test_repr_and_equality_are_by_identity(self, candidates):
        c = candidates[100]
        assert repr(c) == (f"Candidate(basket={c.basket!r}, "
                           f"genus={c.genus!r}, cutoff={c.cutoff!r})")
        assert c != Candidate(c.basket, c.genus, c.cutoff + 1)
        assert c != Candidate(c.basket, c.genus + 1, c.cutoff)

    def test_genus_range_emerges(self, candidates):
        assert min(c.genus for c in candidates) == -2
        assert max(c.genus for c in candidates) == 9

    def test_max_genus_attained_only_by_empty_basket(self, candidates):
        top = [c for c in candidates if c.genus == 9]
        assert len(top) == 1
        assert top[0].basket == Basket()
        assert top[0].a3 == 9

    def test_unstable_flagship(self, candidates):
        # next-largest degree after the sharp cap 9
        match = [
            c for c in candidates
            if c.basket == parse_basket("3/1") and c.genus == 8
        ]
        assert len(match) == 1
        assert match[0].a3 == Fraction(25, 3)
        assert not match[0].stable

    def test_candidates_and_series_counts_agree(self, candidates):
        # pairs (basket, genus) are counted; the series themselves do not
        # collide at this cutoff, so both readings give the same number
        assert distinct_series_count(candidates) == len(candidates)

    def test_deterministic_and_canonically_ordered(self, candidates):
        keys = [
            (tuple((s.r, s.a) for s in c.basket), c.genus) for c in candidates
        ]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_anticanonical_sections_and_obstruction_accessors(self, candidates):
        c0 = candidates[0]
        assert anticanonical_sections(c0) == c0.series[2]
        assert K3_RANK_BOUND == 20
        for c in candidates:
            assert c.k3_obstructed == (c.basket.singular_rank >= K3_RANK_BOUND)


class TestSeriesOnRead:
    @pytest.mark.parametrize(
        "order", [(2, 8, 60, 200), (200, 60, 8, 2), (60, 2, 200, 8)])
    def test_read_is_the_series_to_that_degree(self, candidates, order):
        # whatever was read first, every read is the series to its degree
        for c in candidates:
            fresh = Candidate(c.basket, c.genus, c.cutoff)
            for h in order:
                assert fresh.read(h) == hilbert_series(c.basket, c.genus, h)
            assert fresh.series == c.series
            assert fresh == c and hash(fresh) == hash(c)

    def test_candidate_builds_no_series(self, series_reads):
        c = Candidate(parse_basket("3/1"), 2)
        assert series_reads == []
        assert anticanonical_sections(c) == c.read(2)[2] == 12
        assert [h for *_, h in series_reads] == [2]
        assert c.series[:3] == (1, 4, 12)
        assert c.read(40) == hilbert_series(c.basket, 2, 40)
        assert [h for *_, h in series_reads] == [2, 60]

    def test_each_enumeration_builds_fresh_unread_candidates(
        self, series_reads
    ):
        # series read from one enumeration are not held by the next
        first = enumerate_candidates()
        for c in first:
            c.series
        del series_reads[:]
        again = enumerate_candidates()
        assert again == first
        assert all(a is not b for a, b in zip(again, first))
        for c in again:
            c.read(2)
        assert len(series_reads) == len(again) == 1492
        assert {h for *_, h in series_reads} == {2}

    def test_reads_compute_to_few_depths(self, series_reads):
        # every read past the series held computes exactly the degree
        # asked, whatever the cutoff; a read within it computes nothing
        c = Candidate(parse_basket("3/1"), 2)
        for h in (3, 19, 40, 19, 61, 3, 100):
            c.read(h)
        assert [h for *_, h in series_reads] == [3, 19, 40, 61, 100]
        del series_reads[:]
        c = Candidate(parse_basket("3/1"), 2, cutoff=2)
        assert c.read(8) == hilbert_series(c.basket, 2, 8)
        assert [h for *_, h in series_reads] == [8]

    def test_record_reads_the_series_once(self, series_reads):
        c = Candidate(parse_basket("3/1"), 2, cutoff=16)
        rec = candidate_record(c)
        assert len(rec["series"]) == 17
        assert [h for *_, h in series_reads] == [16]

    def test_frozen_with_slots(self, candidates):
        c = candidates[0]
        assert not hasattr(c, "__dict__")
        with pytest.raises(AttributeError):
            c.genus = 0

    def test_pickle_and_copy_round_trips(self, candidates):
        # a copy compares and hashes equal, is what the constructor
        # builds, reads the same series, and stays read-only
        c = candidates[100]
        c.series
        copies = [pickle.loads(pickle.dumps(c, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in copies + [copy.copy(c), copy.deepcopy(c)]:
            assert type(clone) is type(c)
            assert clone == c and hash(clone) == hash(c)
            assert clone == Candidate(c.basket, c.genus, c.cutoff)
            assert clone.series == c.series
            with pytest.raises(AttributeError):
                clone._held = ()


class TestHistograms:
    def test_histogram_rows_are_consistent(self, candidates):
        rows = genus_histogram(candidates)
        assert sum(r.total for r in rows) == len(candidates)
        assert [r.genus for r in rows] == list(range(-2, 10))
        for row in rows:
            assert 0 <= row.unstable <= row.total
            assert row.min_a3 <= row.max_a3


class TestSerialisation:
    def test_record_field_order(self, candidates):
        rec = candidate_record(candidates[0])
        assert tuple(rec.keys()) == RECORD_FIELDS

    def test_json_round_trip(self, candidates):
        for c in candidates[::97]:
            rec = json.loads(json.dumps(candidate_record(c)))
            types = (SingularityType(r, a) for r, a in rec["basket"])
            assert Basket(tuple(types)) == c.basket
            assert rec["genus"] == c.genus
            assert Fraction(rec["A3"]) == c.a3
            assert Fraction(rec["Ac2_over_12"]) == c.acz12
            assert rec["stable"] is c.stable
            assert (rec["h0_A"], rec["h0_2A"]) == c.series[1:3]
            assert rec["k3_obstructed"] is c.k3_obstructed
            assert tuple(rec["series"]) == c.series

    def test_rationals_serialised_exactly(self, candidates):
        c = next(x for x in candidates if x.a3 == Fraction(1, 165))
        rec = candidate_record(c)
        assert rec["A3"] == "1/165"
        assert rec["Ac2_over_12"] == "116/495"

    def test_ratio_text_is_the_fraction_text(self, candidates):
        for c in candidates:
            assert ratio_text(c.a3_scaled, c.scale) == str(c.a3)
            assert ratio_text(c.acz12_scaled, c.scale) == str(c.acz12)
        for p, q in ((0, 1), (0, 7), (-3, 4), (-6, 4), (-12, 4), (12, 4),
                     (5, 1), (-5, 1), (10**30, 6), (-(10**30) - 1, 3)):
            assert ratio_text(p, q) == str(Fraction(p, q)), (p, q)

    def test_json_stream_is_schema_shaped(self, candidates):
        buf = StringIO()
        write_json(candidates[:5], buf)
        data = json.loads(buf.getvalue())
        assert len(data) == 5
        for rec in data:
            assert tuple(rec.keys()) == RECORD_FIELDS
            assert isinstance(rec["series"], list)

    @staticmethod
    def _assert_json_dumps_of_the_records(cands) -> None:
        # candidate_record is the reference each formatted record matches;
        # compared record by record, so a failure names the first that
        # differs instead of diffing the whole text
        buf = StringIO()
        write_json(cands, buf)
        want = json.dumps([candidate_record(c) for c in cands]) + "\n"
        assert buf.getvalue().split("}, {") == want.split("}, {")

    @pytest.mark.parametrize("cutoff", [2, 16, 60, 200])
    def test_json_stream_is_json_dumps_of_the_records(self, cutoff):
        cands = enumerate_candidates(cutoff)
        for subset in (cands, [c for c in cands if c.stable],
                       [c for c in cands if c.k3_obstructed], []):
            self._assert_json_dumps_of_the_records(subset)

    def test_json_stream_writes_wide_integers_as_json_does(self):
        c = Candidate(parse_basket("3/1"), 2**63, 60)
        assert max(c.series).bit_length() > 64
        self._assert_json_dumps_of_the_records([c])

    def test_json_stream_reads_each_candidate_once_and_keeps_nothing(
        self, series_reads
    ):
        cands = enumerate_candidates(16) + enumerate_candidates(60)[::7]
        write_json(cands, StringIO())
        assert series_reads == [(c.basket, c.genus, c.cutoff) for c in cands]
        assert all(c._held == () for c in cands)

    def test_csv_stream_reads_each_candidate_once_and_keeps_nothing(
        self, series_reads
    ):
        cands = enumerate_candidates(16) + enumerate_candidates(60)[::7]
        write_csv(cands, StringIO())
        assert series_reads == [(c.basket, c.genus, c.cutoff) for c in cands]
        assert all(c._held == () for c in cands)

    def test_csv_round_trip(self, candidates):
        sample = list(candidates[::211])
        buf = StringIO()
        write_csv(sample, buf)
        rows = list(csv.reader(StringIO(buf.getvalue())))
        assert rows[0] == list(RECORD_FIELDS)
        assert len(rows) == len(sample) + 1
        assert all(len(r) == len(RECORD_FIELDS) for r in rows[1:])
        for row, c in zip(rows[1:], sample):
            assert parse_basket(row[0]) == c.basket
            assert int(row[1]) == c.genus
            assert Fraction(row[2]) == c.a3
            assert Fraction(row[3]) == c.acz12
            assert row[4] == str(c.stable)
            assert (int(row[5]), int(row[6])) == c.series[1:3]
            assert row[7] == str(c.k3_obstructed)
            assert tuple(int(x) for x in row[8].split()) == c.series

    def test_stable_filter(self, candidates):
        stable = enumerate_candidates(stable_only=True)
        assert list(stable) == [c for c in candidates if c.stable]
