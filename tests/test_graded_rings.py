"""Generator inference, polarisation gap filling and shape recognition."""

import random
from collections import Counter
from functools import partial
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, prod

import pytest

from fano2 import graded_rings
from fano2.basket import Basket, parse_basket
from fano2.classify import Candidate, enumerate_candidates
from fano2.graded_rings import (
    CODIM2_CI,
    CODIM3_PFAFFIAN,
    CODIM_GE4,
    FIRST_PREFIX,
    HYPERSURFACE,
    UNKNOWN,
    ci_numerator,
    classify_shape,
    corrected_inference,
    infer_generators,
    pfaffian_numerator,
    polarization_gaps,
)
from fano2.riemann_roch import hilbert_series
from fano2.series import (
    DEFAULT_CUTOFF,
    RationalForm,
    certificate_degree,
    degree_from_form,
    expand,
    gorenstein_completion,
    palindromy_sign,
    poly_degree,
    series_times_weights,
)


@pytest.fixture(scope="module")
def models(candidates):
    """The graded model of every candidate at the default cutoff."""
    return [(c, corrected_inference(c)) for c in candidates]


class TestInferGenerators:
    def test_degree38_hypersurface(self):
        series = hilbert_series(parse_basket("3/1,5/1,11/3"), -2, 60)
        weights, numerator = infer_generators(series)
        assert weights == (2, 3, 5, 11, 19)
        assert numerator == (1,) + (0,) * 37 + (-1,)

    def test_pfaffian_member_of_blowup_chain(self):
        # The degree-3 generator is cancelled in the Hilbert function by
        # the two degree-3 relations, so the greedy alone stops early; the
        # index-3 point's polarisation seeds it back in.
        basket = parse_basket("3/1")
        series = hilbert_series(basket, 2, 60)
        weights, _ = infer_generators(series)
        assert weights == (1, 1, 1, 1, 2, 2)
        model = corrected_inference(Candidate(basket, 2))
        assert model.weights == (1, 1, 1, 1, 2, 2, 3)
        assert model.numerator == (1, 0, 0, -2, -3, 3, 2, 0, 0, -1)
        assert model.seeded == (3,)

    def test_index9_case_first_steps(self):
        # 1 + 3t + 8t^2 + ...: three generators in degree 1, then exactly
        # two more in degree 2.
        series = hilbert_series(parse_basket("9/1"), 1, 60)
        weights, _ = infer_generators(series)
        assert weights.count(1) == 3
        assert weights.count(2) == 2

    def test_no_relation_by_the_cutoff_raises(self):
        # X38 in P(2,3,5,11,19): its relation lies in degree 38, and
        # generators in degree 19 and beyond are still possible at 16
        series = hilbert_series(parse_basket("3/1,5/1,11/3"), -2, 16)
        with pytest.raises(ValueError, match="no relation"):
            infer_generators(series)

    def test_generator_at_the_cutoff_raises(self):
        series = hilbert_series(parse_basket("3/1,5/1,11/3"), -2, 19)
        with pytest.raises(ValueError, match="no relation"):
            infer_generators(series)


class TestPolarizationGaps:
    def test_missing_residue_nine_mod_eleven(self):
        c = Candidate(parse_basket("11/2"), -1)
        gaps = polarization_gaps((1, 2, 2, 2, 3, 5, 11), c.basket, c.read)
        assert gaps == [9]

    def test_no_gaps_for_degree38_weights(self):
        c = Candidate(parse_basket("3/1,5/1,11/3"), -2)
        assert polarization_gaps((2, 3, 5, 11, 19), c.basket, c.read) == []

    def test_empty_basket_needs_nothing(self):
        c = Candidate(Basket(), 3)
        assert polarization_gaps((1, 1, 1, 1, 1), c.basket, c.read) == []

    def test_zero_residue_filled_by_r_itself(self):
        c = Candidate(parse_basket("9/1"), 1)
        assert polarization_gaps((1, 2, 8), c.basket, c.read) == [9]

    def test_degree_without_sections_is_stepped_past(self, series_reads):
        # h^0(A) = 0 at genus -2, so residue 1 mod 7 is seeded in degree 8,
        # not 1; residues 0 and 6 have sections in degrees 7 and 6
        c = Candidate(parse_basket("6x3/1,7/1"), -2)
        assert c.read(8)[1] == 0 and c.read(8)[6:9] == (25, 36, 52)
        del series_reads[:]
        assert polarization_gaps((2,), parse_basket("7/1"), c.read) == [7, 8, 6]
        # with a weight 1 every degree has sections, and none is read
        fresh = Candidate(c.basket, c.genus)
        assert polarization_gaps((1, 2), parse_basket("7/1"), fresh.read) == [7, 6]
        assert series_reads == [] and fresh._held == ()

    def test_shortcut_picks_the_seeds_of_reading_every_degree(
        self, candidates, monkeypatch
    ):
        # a weight 1 skips the section check; in every seeding round of
        # every model, at and past the degree cap, the gaps are those of
        # the rule that reads h^0(dA) at each seed degree
        def read_every_degree(weights, basket, read):
            have, gaps = list(weights), []
            for s in basket:
                present = {w % s.r for w in have}
                for residue in sorted({0, s.a % s.r, -s.a % s.r, 2 % s.r}):
                    if residue not in present:
                        d = residue or s.r
                        while read(d)[d] == 0:
                            d += s.r
                        gaps.append(d)
                        have.append(d)
            return gaps

        rounds = []
        gaps = graded_rings.polarization_gaps

        def checked(weights, basket, read):
            found = gaps(weights, basket, read)
            assert found == read_every_degree(weights, basket, read)
            rounds.append(1 in weights)
            return found

        monkeypatch.setattr(graded_rings, "polarization_gaps", checked)
        top = {}
        for c in candidates:
            corrected_inference(c)
            top[c.basket] = max(c.genus, top.get(c.basket, -2))
        for basket, genus in top.items():
            for g in (genus + 1, genus + 2, genus + 3):
                corrected_inference(Candidate(basket, g))
        # 1492 + 3 * 721 models; both rules run in the rounds counted
        assert len(top) == 721
        assert Counter(rounds) == {True: 3566, False: 368}

    def test_premises_of_arithmetic_seeding_hold_in_every_round(
        self, candidates
    ):
        # corrected_inference seeds without running the greedy loop again,
        # on two premises of the gaps: none sits in the degree of a weight,
        # and the weights with the gaps need no more.  Every round of the
        # loop that reruns each pass from the series must meet both.
        rounds = Counter()
        for c in candidates:
            seeded = []
            for n in range(4 * len(set(c.basket)) + 2):
                weights, _ = infer_generators(c.series, seeded)
                gaps = polarization_gaps(weights, c.basket, c.read)
                if not gaps:
                    break
                assert not set(gaps) & set(weights), c
                assert polarization_gaps(
                    weights + tuple(gaps), c.basket, c.read) == []
                seeded.extend(gaps)
            rounds[n] += 1
        # seeding rounds per model; a seed can displace a generator read
        # before and so open a new gap
        assert rounds == {0: 118, 1: 1373, 2: 1}


class TestCorrectedInference:
    def test_index11_case_gets_codim4_model(self):
        model = corrected_inference(Candidate(parse_basket("11/2"), -1))
        assert model.weights == (1, 2, 2, 2, 3, 5, 9, 11)
        assert model.codim == 4
        assert model.codim_is_lower_bound
        assert 9 in model.seeded

    def test_index9_case_is_at_least_codim4(self):
        model = corrected_inference(Candidate(parse_basket("9/1"), 1))
        assert model.codim >= 4
        assert any(w % 9 == 0 for w in model.weights)
        assert any(w % 9 == 8 for w in model.weights)

    def test_hypersurface_needs_no_seeds(self):
        model = corrected_inference(Candidate(parse_basket("3/1,5/1,11/3"), -2))
        assert model.shape == HYPERSURFACE
        assert model.codim == 1
        assert model.seeded == ()
        assert not model.codim_is_lower_bound

    def test_seeds_are_never_removed_and_expansion_is_nonnegative(self):
        c = Candidate(parse_basket("11/2"), -1)
        model = corrected_inference(c)
        for w in model.seeded:
            assert w in model.weights
        back = expand(RationalForm(model.numerator, model.weights), 60)
        assert back == c.series  # the original series, hence non-negative

    def test_models_do_not_depend_on_the_cutoff(self, models):
        # at cutoff 2 the greedy used to raise, and at 16 it silently
        # returned X38 as a seeded codim-3 model
        def read(m):
            return m.weights, m.numerator, m.shape, m.seeded

        default = [read(m) for _, m in models]
        for cutoff in (2, 16, 200):
            cands = enumerate_candidates(cutoff)
            assert [read(corrected_inference(c)) for c in cands] == default, cutoff


def full_series_inference(c):
    """corrected_inference as it was before passes read a prefix, as
    (weights, numerator, shape, seeded): every greedy pass reads the whole
    series, and the numerator is completed from the whole truncated
    product."""
    series = c.series
    if len(series) <= DEFAULT_CUTOFF:
        series = hilbert_series(c.basket, c.genus, DEFAULT_CUTOFF)
    seeded = []
    for _ in range(4 * len(set(c.basket)) + 2):
        weights, numerator = infer_generators(series, seeded=seeded)
        gaps = polarization_gaps(
            weights, c.basket, partial(hilbert_series, c.basket, c.genus))
        if not gaps:
            break
        seeded.extend(gaps)
    half = (sum(weights) - 2) // 2
    if half >= len(series):
        series = hilbert_series(c.basket, c.genus, half)
        numerator = series_times_weights(series, weights)
    numerator = gorenstein_completion(numerator, weights)
    return (weights, numerator, classify_shape(weights, numerator),
            tuple(sorted(seeded)))


class TestPrefixPasses:
    @pytest.mark.parametrize("cutoff", [2, 16, 60, 200])
    def test_match_full_series_passes(self, cutoff):
        for c in enumerate_candidates(cutoff):
            m = corrected_inference(c)
            assert (m.weights, m.numerator, m.shape, m.seeded) == (
                full_series_inference(c)), c

    @staticmethod
    def prefix_lengths(monkeypatch):
        """The length of each prefix a greedy pass reads."""
        lengths = []
        greedy = graded_rings._greedy

        def recording(series, seeded):
            lengths.append(len(series))
            return greedy(series, seeded)

        monkeypatch.setattr(graded_rings, "_greedy", recording)
        return lengths

    def test_deep_first_relation_doubles_the_prefix(
        self, monkeypatch, series_reads
    ):
        # X38 in P(2,3,5,11,19) meets its first relation at degree 38: on
        # a candidate nobody has read, the prefixes to 8, 16 and 32 run
        # out, the next one, to 64, holds it, and each is computed once;
        # the numerator, to half of 38, reads the series held.
        lengths = self.prefix_lengths(monkeypatch)
        model = corrected_inference(Candidate(parse_basket("3/1,5/1,11/3"), -2))
        assert model.numerator == (1,) + (0,) * 37 + (-1,)
        assert lengths == [9, 17, 33, 65]
        assert [h for *_, h in series_reads] == [8, 16, 32, 64]
        assert model.weights == (2, 3, 5, 11, 19)

    @pytest.mark.parametrize(
        "cutoff, first_read, depths",
        [(60, True, [60, 64]), (2, False, [8, 16, 32, 64]),
         (2, True, [2, 8, 16, 32, 64])])
    def test_doubling_computes_only_prefixes_past_the_series_held(
        self, monkeypatch, series_reads, cutoff, first_read, depths
    ):
        # read to its cutoff 60 first, as `inspect` reads it, X38 slices
        # the prefixes to 8, 16 and 32 from it and computes only the one
        # to 64; otherwise it computes each prefix past the series held
        # exactly, and the last then serves the numerator.  The cutoff
        # itself is never read.
        c = Candidate(parse_basket("3/1,5/1,11/3"), -2, cutoff)
        if first_read:
            c.series
        lengths = self.prefix_lengths(monkeypatch)
        corrected_inference(c).numerator
        assert lengths == [9, 17, 33, 65]
        assert [h for *_, h in series_reads] == depths

    def test_longer_prefix_extends_the_product(self, monkeypatch):
        # a pass on a longer prefix starts again from the series alone and
        # makes the products the shorter one made, over the longer prefix:
        # 13,880 factors (1 - t^w) over the 1319 models of `histogram
        # --by codim`, as when each longer prefix was multiplied by the
        # weights read so far and the pass went on from where it ran out
        products = []
        factors = [0]

        def recording(series, weights):
            products.append((len(series), tuple(weights)))
            return series_times_weights(series, weights)

        def counted(c, w, _fn=graded_rings._mul_one_minus_tw):
            factors[0] += 1
            return _fn(c, w)

        monkeypatch.setattr(graded_rings, "series_times_weights", recording)
        corrected_inference(Candidate(parse_basket("3/1,5/1,11/3"), -2))
        assert products == [(9, ()), (17, ()), (33, ()), (65, ())]
        cands = [c for c in enumerate_candidates() if not c.k3_obstructed]
        monkeypatch.setattr(graded_rings, "_mul_one_minus_tw", counted)
        for c in cands:
            corrected_inference(c)
        assert (len(cands), factors[0]) == (1319, 13880)

    @pytest.mark.parametrize("cutoff", [2, 60, 200])
    def test_one_greedy_pass_per_model(self, cutoff, monkeypatch):
        # seeding rounds are arithmetic on the one unseeded pass of each
        # model, run once per prefix read: 1492 passes on the first
        # prefix and 115 reruns on a longer one
        passes = []
        greedy = graded_rings._greedy

        def recording(series, seeded):
            passes.append((len(series), tuple(seeded)))
            return greedy(series, seeded)

        cands = enumerate_candidates(cutoff)
        monkeypatch.setattr(graded_rings, "_greedy", recording)
        for c in cands:
            corrected_inference(c)
        assert all(seeded == () for _, seeded in passes)
        assert len(passes) == 1607
        assert [n for n, _ in passes].count(FIRST_PREFIX + 1) == 1492

    @pytest.mark.parametrize("cutoff", [2, 16, 60, 200])
    def test_series_is_read_again_only_past_its_end(self, cutoff, series_reads):
        # Each candidate's series is read to the cutoff first, as records
        # and `inspect` read it.  Its model then computes the series again
        # only past the degree held, each time deeper, and each time to a
        # prefix of the pass (8, 16, 32, ...), to the numerator's half
        # Gorenstein degree exactly, or, in a model with no weight 1, to a
        # seed degree whose sections it checks, no deeper than its deepest
        # seed.  At the default cutoff only X38's prefix to 64 and the 13
        # numerators whose half Gorenstein degree lies past 60 do, the
        # numerators all of K3-obstructed candidates.
        cands = enumerate_candidates(cutoff)
        for c in cands:
            c.series
        assert len(series_reads) == 1492
        del series_reads[:]
        models = {}
        for c in cands:
            m = models[c.basket, c.genus] = corrected_inference(c)
            m.numerator
        depth = {(c.basket, c.genus): cutoff for c in cands}
        for basket, genus, h in series_reads:
            m = models[basket, genus]
            assert h > depth[basket, genus]
            assert h in (8, 16, 32, 64, (sum(m.weights) - 2) // 2) or (
                1 not in m.weights and h <= max(m.seeded))
            depth[basket, genus] = h
        obstructed = {(c.basket, c.genus) for c in cands if c.k3_obstructed}
        if cutoff == 60:
            x38 = (parse_basket("3/1,5/1,11/3"), -2, 64)
            assert len(series_reads) == 14 and x38 in series_reads
            series_reads.remove(x38)
            assert {(b, g) for b, g, _ in series_reads} <= obstructed
        elif cutoff == 200:
            assert series_reads == []
        else:
            # the 1492 first prefixes at cutoff 2; at both, the longer
            # prefixes, the section checks and the numerators past the
            # degrees read
            assert len(series_reads) == {2: 3228, 16: 1128}[cutoff]

    def test_numerator_computes_half_its_gorenstein_degree(
        self, series_reads
    ):
        # The models of `histogram --by codim`, then their numerators, as
        # a traced run reads them: a numerator that lies past the prefixes
        # its pass read computes the series to exactly half its
        # Gorenstein degree, no deeper.
        models = [corrected_inference(c) for c in enumerate_candidates()
                  if not c.k3_obstructed]
        assert len(models) == 1319
        del series_reads[:]
        half = {}
        for m in models:
            m.numerator
            half[m.basket, m.genus] = (sum(m.weights) - 2) // 2
        for basket, genus, h in series_reads:
            assert h == half[basket, genus]
        assert len(series_reads) == 1235
        assert sum(h + 1 for *_, h in series_reads) == 28348

    def test_a_model_computes_the_same_depths_at_every_cutoff(
        self, candidates, series_reads
    ):
        # neither the reader nor the prefixes read the cutoff, so a model
        # of a candidate built fresh computes its series to the same
        # depths, in the same order, whatever cutoff the candidate has
        by_cutoff = {}
        for cutoff in (2, 16, 60, 200):
            del series_reads[:]
            for c in candidates:
                m = corrected_inference(Candidate(c.basket, c.genus, cutoff))
                m.numerator, m.shape
            depths = {}
            for basket, genus, h in series_reads:
                depths.setdefault((basket, genus), []).append(h)
            assert len(depths) == 1492
            by_cutoff[cutoff] = depths
        for cutoff in (16, 60, 200):
            assert by_cutoff[cutoff] == by_cutoff[2], cutoff


class TestLazyModel:
    def test_numerator_and_shape_are_built_once(self, model_builds):
        m = corrected_inference(Candidate(parse_basket("3/1"), 2))
        assert model_builds == {}
        for _ in range(2):
            assert m.numerator == (1, 0, 0, -2, -3, 3, 2, 0, 0, -1)
            assert m.numerator_complete
            assert m.shape == CODIM3_PFAFFIAN
        assert model_builds == {
            "numerator_wrt_weights": 1, "classify_shape": 1}

    def test_equal_models_have_equal_numerators(self, models):
        # equality is on (basket, genus, weights, seeded), which fixes the
        # numerator; equal weights alone do not
        by_weights = {}
        for c, m in models:
            by_weights.setdefault((m.weights, m.seeded), []).append(m)
        shared = [ms for ms in by_weights.values() if len(ms) > 1]
        assert any(len({m.numerator for m in ms}) > 1 for ms in shared)
        for ms in shared:
            for a in ms:
                for b in ms:
                    assert (a == b) == (a is b)
        c = models[0][0]
        assert corrected_inference(c) == models[0][1]
        assert hash(corrected_inference(c)) == hash(models[0][1])


class TestFormats:
    def test_ci_numerator(self):
        assert ci_numerator(()) == (1,)
        assert ci_numerator((38,)) == (1,) + (0,) * 37 + (-1,)
        assert ci_numerator((4, 6)) == (1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            ci_numerator((4, 0))

    @pytest.mark.parametrize(
        "degrees",
        [(1, 1, 1, 1, 10), (2, 2, 2, 2, 8), (0, 2, 2, 2, 2), (2, 2, 2, 2, 3),
         (2, 2, 2, 2), (2,) * 7],
    )
    def test_pfaffian_numerator_rejects_impossible_degrees(self, degrees):
        # a degree outside 1 <= e < sum(e)/2, an odd sum, or not five
        with pytest.raises(ValueError):
            pfaffian_numerator(degrees)


class TestShapeClassification:
    def test_pfaffian_with_degrees(self):
        numerator = (1, 0, 0, -2, -3, 3, 2, 0, 0, -1)
        assert classify_shape((1, 1, 1, 1, 2, 2, 3), numerator) == CODIM3_PFAFFIAN
        assert pfaffian_numerator((3, 3, 4, 4, 4)) == numerator
        assert classify_shape((1, 1, 1, 2, 2, 3), numerator) == UNKNOWN

    def test_five_quadrics_pfaffian(self):
        numerator = (1, 0, -5, 5, 0, -1)
        assert classify_shape((1,) * 7, numerator) == CODIM3_PFAFFIAN
        assert pfaffian_numerator((2, 2, 2, 2, 2)) == numerator
        assert classify_shape((1,) * 5, numerator) == UNKNOWN

    def test_codim2_complete_intersection(self):
        numerator = (1, 0, 0, 0, -2, 0, 0, 0, 1)
        assert classify_shape((1, 1, 1, 2, 2, 3), numerator) == CODIM2_CI

    def test_hypersurface(self):
        assert classify_shape((1, 1, 1, 1, 1), (1, 0, 0, -1)) == HYPERSURFACE

    def test_format_is_chosen_by_codimension(self):
        # a hypersurface numerator over six weights is no codim-2 format
        assert classify_shape((1,) * 6, (1, 0, 0, -1)) == UNKNOWN
        assert classify_shape((1,) * 4, (1, 0, 0, -1)) == UNKNOWN
        assert classify_shape((1,) * 8, (1, 0, 0, -1)) == CODIM_GE4

    @pytest.mark.parametrize(
        "n_weights,numerator",
        [
            (5, ()),
            (5, (-1, 1)),
            (7, (1, -4) + (0,) * 8 + (-1,)),  # degrees (1, 1, 1, 1, 10)
            (7, (1, 0, -4, 0, 0, 0, 0, 0, -1)),  # degrees (2, 2, 2, 2, 8)
            (7, (1, -1, -1)),
        ],
    )
    def test_impossible_degrees_are_unknown(self, n_weights, numerator):
        assert classify_shape((1,) * n_weights, numerator) == UNKNOWN

    def test_codim_ge4_by_weight_count(self):
        model = corrected_inference(Candidate(parse_basket("11/2"), -1))
        assert model.shape == CODIM_GE4

    def test_unrecognised_is_unknown(self):
        assert classify_shape((1, 1, 1, 1, 1, 2), (1, 0, -1, -1, 1)) == UNKNOWN

    def test_shapes_match_codimension(self, models):
        shape_codim = {HYPERSURFACE: 1, CODIM2_CI: 2, CODIM3_PFAFFIAN: 3}
        for _, model in models:
            if model.shape in shape_codim:
                assert model.codim == shape_codim[model.shape]
            elif model.shape == CODIM_GE4:
                assert model.codim >= 4

    def test_shape_counts(self, models):
        # Seeds in degrees with sections (ROADMAP item 1A) gave these
        # counts; items 1B (quasi-smoothness at the basket) and 1C (typed
        # format failures) change them by design.
        assert Counter(m.shape for _, m in models) == {
            CODIM_GE4: 1454, UNKNOWN: 1, CODIM2_CI: 26, HYPERSURFACE: 8,
            CODIM3_PFAFFIAN: 3,
        }


class TestCertification:
    def test_every_complete_numerator_is_gorenstein(self, models):
        assert len(models) == 1492
        for c, m in models:
            top = sum(m.weights) - 2
            assert m.numerator_complete, (c.basket, c.genus)
            assert poly_degree(m.numerator) == top
            assert palindromy_sign(m.numerator, top) == (-1) ** m.codim
            assert degree_from_form(RationalForm(m.numerator, m.weights)) == c.a3

    def test_every_numerator_expands_to_the_series(self, models):
        for c, m in models:
            form = RationalForm(m.numerator, m.weights)
            assert expand(form, 200) == hilbert_series(c.basket, c.genus, 200), (
                c.basket, c.genus)

    def test_every_numerator_expands_to_the_series_to_a_proven_degree(
        self, models
    ):
        """A model m is the series itself once the two agree through
        d(m) = certificate_degree(basket, weights), whose docstring gives
        the Kawamata-Viehweg and Riemann-Roch argument; its numerator has
        the degree sum(w) - 2 that the argument asks for."""
        bounds = {}
        for c, m in models:
            d = certificate_degree(c.basket, m.weights)
            assert d == sum(m.weights) + sum({s.r for s in c.basket}) + 3
            assert poly_degree(m.numerator) == sum(m.weights) - 2
            form = RationalForm(m.numerator, m.weights)
            assert expand(form, d) == hilbert_series(c.basket, c.genus, d), (
                c.basket, c.genus)
            bounds[str(c.basket), c.genus] = d
        # the deepest bound lies past the degree 200 read above
        deepest = max(bounds, key=bounds.get)
        assert (deepest, bounds[deepest]) == (("3/1,5/1,7/2,9/1", -2), 206)

    def test_pairs_past_the_degree_cap_are_certified(self, candidates):
        # inspect also answers for pairs past the degree cap: the
        # numerator completed by Gorenstein symmetry is the series' own
        top_genus = {}
        for c in candidates:
            top_genus[c.basket] = max(c.genus, top_genus.get(c.basket, -2))
        pairs = sorted(top_genus.items(), key=lambda bg: str(bg[0]))[::5]
        for basket, genus in pairs:
            for g in (genus + 1, genus + 10):
                m = corrected_inference(Candidate(basket, g))
                top = sum(m.weights) - 2
                assert poly_degree(m.numerator) == top
                cut = max(top, 60) + 1
                form = RationalForm(m.numerator, m.weights)
                assert expand(form, cut) == hilbert_series(basket, g, cut), (
                    basket, g)


def representable(target, weights):
    """Whether target is a sum of the weights, each used any number of
    times: the degree of some monomial in variables of those weights."""
    reach = [True] + [False] * target
    for k in range(1, target + 1):
        reach[k] = any(w <= k and reach[k - w] for w in weights)
    return reach[target]


def quasi_smooth(weights, d):
    """Iano-Fletcher (2000), Thm 8.1: the general X_d in P(weights) is
    quasi-smooth iff some variable has degree d, or for every nonempty
    set I of variables either (a) some monomial in x_I has degree d, or
    (b) there are |I| distinct variables x_e with a monomial x_I^M x_e
    of degree d."""
    if d in weights:
        return True
    n = len(weights)
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            w_i = [weights[i] for i in subset]
            if representable(d, w_i):
                continue
            es = [e for e in range(n)
                  if weights[e] < d and representable(d - weights[e], w_i)]
            if len(es) < k:
                return False
    return True


def hypersurface_points(weights, d):
    """The quotient points of a quasi-smooth X_d in P(weights), as
    (r, sorted local weights mod r), read off the coordinate strata.

    A vertex P_i with a_i not dividing d lies on X; quasi-smoothness gives
    a monomial x_i^m x_e of degree d, so x_e is eliminated and P_i is
    1/a_i of the three weights left.  An edge with h = gcd(a_i, a_j) > 1
    meets X, off its vertices, in one point fewer than the monomials of
    degree d in x_i and x_j: the roots of a general binary form, each
    1/h of the three other weights.  Every three weights are coprime, so
    these are all the points, and each is isolated."""
    n = len(weights)
    for triple in combinations(weights, 3):
        assert gcd(*triple) == 1, (weights, triple)
    points = []
    for i, r in enumerate(weights):
        if r > 1 and d % r:
            others = [weights[j] for j in range(n) if j != i]
            e = next(k for k, w in enumerate(others)
                     if w < d and (d - w) % r == 0)
            points.append((r, tuple(sorted(
                w % r for k, w in enumerate(others) if k != e))))
    for i, j in combinations(range(n), 2):
        h = gcd(weights[i], weights[j])
        if h > 1:
            monomials = sum(1 for m in range(d // weights[i] + 1)
                            if (d - m * weights[i]) % weights[j] == 0)
            assert monomials > 0, (weights, i, j)  # else X holds the edge
            rest = tuple(sorted(weights[k] % h for k in range(n)
                                if k not in (i, j)))
            points += [(h, rest)] * (monomials - 1)
    return Counter(points)


class TestHypersurfaceModels:
    def test_every_hypersurface_model_realises_its_candidate(self, models):
        """Each codim-1 model of a candidate with no K3 obstruction is a
        hypersurface X_d of index 2, well-formed and quasi-smooth
        (Iano-Fletcher 2000, Thm 6.10 and Thm 8.1), and the quotient
        points it has on the coordinate strata are the candidate's
        basket, each 1/r(a, r - a, 2)."""
        found = 0
        for c, m in models:
            if c.k3_obstructed or m.codim != 1:
                continue
            found += 1
            a, d = m.weights, len(m.numerator) - 1
            assert m.shape == HYPERSURFACE
            assert m.numerator == ci_numerator((d,)), m
            assert sum(a) - d == 2, m
            for subset in combinations(a, 4):
                assert gcd(*subset) == 1, m
            for subset in combinations(a, 3):
                assert d % gcd(*subset) == 0, m
            assert quasi_smooth(a, d), m
            basket = Counter(
                (s.r, tuple(sorted((s.a, s.r - s.a, 2)))) for s in c.basket)
            assert hypersurface_points(a, d) == basket, m
        assert found == 8


class TestCodim2Models:
    def test_every_codim2_model_realises_its_candidate(self, models):
        """Each codim-2 model of a candidate with no K3 obstruction is a
        complete intersection X_{d1,d2} of index 2, well-formed
        (Iano-Fletcher 2000, section 6: in P^n with c equations, every
        n - 1 - c + mu weights have a gcd dividing at least mu of the
        degrees), and the quotient points it has on the coordinate strata
        are the candidate's basket.  Quasi-smoothness is not checked."""
        found = 0
        for c, m in models:
            if c.k3_obstructed or m.codim != 2:
                continue
            found += 1
            a = m.weights
            degrees = tuple(islice(
                (d for d, k in enumerate(m.numerator) for _ in range(-k)), 2))
            assert m.shape == CODIM2_CI
            assert m.numerator == ci_numerator(degrees), m
            assert sum(a) - sum(degrees) == 2, m
            n = len(a) - 1
            for subset in combinations(a, n):
                assert gcd(*subset) == 1, m
            for mu in (1, 2):
                for subset in combinations(a, n - 3 + mu):
                    h = gcd(*subset)
                    assert sum(d % h == 0 for d in degrees) >= mu, m
            basket = Counter(
                (s.r, tuple(sorted((s.a, s.r - s.a, 2)))) for s in c.basket)
            assert strata_points(a, degrees) == basket, m
        assert found == 26


def strata_points(weights, degrees):
    """The quotient points of a general complete intersection X of the
    given degrees in P(weights), as (r, sorted local weights mod r), read
    off the coordinate strata.

    The points whose stabiliser contains mu_h lie on the stratum P(a_I),
    I the variables of weights divisible by h.  The equations of degrees
    prime to h vanish on it, so X meets it where the k others do; they
    must cut it in points, k >= |I| - 1.  With k = |I| - 1, Bezout on
    P(a_I / h) counts the points of X there, each once over its
    stabiliser in mu_(a_I / h); the points of the smaller strata inside,
    counted first, are taken off, and what is left are the points of
    stabiliser mu_h.  (Two conics in P(3,3,3) meet in the 4 points of
    4x3/1.)  At such a point the variables outside I are local
    coordinates, and each equation of degree d prime to h eliminates one
    of degree congruent to d mod h; the point is 1/h of the three
    left."""
    n = len(weights)
    strata = {}
    for k in range(1, n + 1):
        for subset in combinations(weights, k):
            h = gcd(*subset)
            if h > 1:
                stratum = tuple(i for i, w in enumerate(weights) if w % h == 0)
                strata[stratum] = gcd(*(weights[i] for i in stratum))
    exact = {}
    points = Counter()
    for stratum, h in sorted(strata.items(), key=lambda s: -s[1]):
        cut = [d for d in degrees if d % h == 0]
        assert len(cut) >= len(stratum) - 1, (weights, stratum)
        exact[stratum] = 0
        if len(cut) > len(stratum) - 1:
            continue  # the general equations miss it off the smaller strata
        count = Fraction(prod(d // h for d in cut),
                         prod(weights[i] // h for i in stratum))
        count -= sum(Fraction(exact[inner] * h, strata[inner])
                     for inner in exact if set(inner) < set(stratum))
        assert count.denominator == 1 and count >= 0, (weights, stratum)
        exact[stratum] = int(count)
        if count:
            local = [w % h for i, w in enumerate(weights) if i not in stratum]
            for d in degrees:
                if d % h:
                    local.remove(d % h)  # ValueError: no variable to eliminate
            points[h, tuple(sorted(local))] += exact[stratum]
    return points


class TestRandomCompleteIntersectionOracle:
    def test_recovers_weights_and_numerator(self):
        rng = random.Random(20130815)
        for _ in range(25):
            n_weights = rng.randint(4, 6)
            weights = sorted(rng.randint(1, 4) for _ in range(n_weights))
            n_rel = rng.randint(1, 2)
            degrees = sorted(
                rng.randint(max(weights) + 1, max(weights) + 6)
                for _ in range(n_rel)
            )
            numerator = ci_numerator(degrees)
            cutoff = sum(degrees) + max(weights) + 2
            series = expand(RationalForm(numerator, tuple(weights)), cutoff)
            got_w, got_n = infer_generators(series)
            assert got_w == tuple(weights)
            assert got_n == numerator


class TestKnownLimitation:
    def test_equal_degree_pair_reported_at_low_codimension(self):
        # The degeneration with a relation in the same degree as a
        # generator shares the Hilbert series of the 1/15 hypersurface
        # and is reported as codimension 1: inference cannot separate a
        # generator/relation pair in equal degree.
        c = Candidate(parse_basket("2x3/1,5/1"), -1)
        series = c.series
        direct = RationalForm((1,) + (0,) * 17 + (-1,), (1, 2, 3, 5, 9))
        ci_presentation = RationalForm(
            ci_numerator((6, 18)), (1, 2, 3, 5, 6, 9)
        )
        assert expand(direct, 60) == expand(ci_presentation, 60) == series
        model = corrected_inference(c)
        assert model.weights == (1, 2, 3, 5, 9)
        assert model.shape == HYPERSURFACE
        assert model.codim == 1
