"""Generator inference, polarisation gap filling and shape recognition."""

import random
from collections import Counter

import pytest

from fano2 import graded_rings
from fano2.basket import Basket, parse_basket
from fano2.classify import candidate, enumerate_candidates
from fano2.graded_rings import (
    CODIM2_CI,
    CODIM3_PFAFFIAN,
    CODIM_GE4,
    HYPERSURFACE,
    UNKNOWN,
    GradedModel,
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
    degree_from_form,
    expand,
    gorenstein_completion,
    one_minus_t,
    palindromy_sign,
    poly_degree,
    poly_mul,
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
        model = corrected_inference(candidate(basket, 2))
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
        gaps = polarization_gaps((1, 2, 2, 2, 3, 5, 11), parse_basket("11/2"))
        assert gaps == [9]

    def test_no_gaps_for_degree38_weights(self):
        basket = parse_basket("3/1,5/1,11/3")
        assert polarization_gaps((2, 3, 5, 11, 19), basket) == []

    def test_empty_basket_needs_nothing(self):
        assert polarization_gaps((1, 1, 1, 1, 1), Basket()) == []

    def test_zero_residue_filled_by_r_itself(self):
        assert polarization_gaps((1, 2, 8), parse_basket("9/1")) == [9]

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
                gaps = polarization_gaps(weights, c.basket)
                if not gaps:
                    break
                assert not set(gaps) & set(weights), c
                assert polarization_gaps(weights + tuple(gaps), c.basket) == []
                seeded.extend(gaps)
            rounds[n] += 1
        # seeding rounds per model; a seed can displace a generator read
        # before and so open a new gap
        assert rounds == {0: 118, 1: 1305, 2: 69}


class TestCorrectedInference:
    def test_index11_case_gets_codim4_model(self):
        model = corrected_inference(candidate(parse_basket("11/2"), -1))
        assert model.weights == (1, 2, 2, 2, 3, 5, 9, 11)
        assert model.codim == 4
        assert model.codim_is_lower_bound
        assert 9 in model.seeded

    def test_index9_case_is_at_least_codim4(self):
        model = corrected_inference(candidate(parse_basket("9/1"), 1))
        assert model.codim >= 4
        assert any(w % 9 == 0 for w in model.weights)
        assert any(w % 9 == 8 for w in model.weights)

    def test_hypersurface_needs_no_seeds(self):
        model = corrected_inference(candidate(parse_basket("3/1,5/1,11/3"), -2))
        assert model.shape == HYPERSURFACE
        assert model.codim == 1
        assert model.seeded == ()
        assert not model.codim_is_lower_bound

    def test_seeds_are_never_removed_and_expansion_is_nonnegative(self):
        c = candidate(parse_basket("11/2"), -1)
        model = corrected_inference(c)
        for w in model.seeded:
            assert w in model.weights
        back = expand(RationalForm(model.numerator, model.weights), 60)
        assert back == c.series  # the original series, hence non-negative

    def test_models_do_not_depend_on_the_cutoff(self, models):
        # at cutoff 2 the greedy used to raise, and at 16 it silently
        # returned X38 as a seeded codim-3 model
        default = [m for _, m in models]
        for cutoff in (2, 16, 200):
            cands = enumerate_candidates(cutoff)
            assert [corrected_inference(c) for c in cands] == default, cutoff


def full_series_inference(c):
    """corrected_inference as it was before passes read a prefix: every
    greedy pass reads the whole series, and the numerator is completed
    from the whole truncated product."""
    series = c.series
    if len(series) <= DEFAULT_CUTOFF:
        series = hilbert_series(c.basket, c.genus, DEFAULT_CUTOFF)
    seeded = []
    for _ in range(4 * len(set(c.basket)) + 2):
        weights, numerator = infer_generators(series, seeded=seeded)
        gaps = polarization_gaps(weights, c.basket)
        if not gaps:
            break
        seeded.extend(gaps)
    half = (sum(weights) - 2) // 2
    if half >= len(series):
        series = hilbert_series(c.basket, c.genus, half)
        numerator = series_times_weights(series, weights)
    numerator = gorenstein_completion(numerator, weights)
    return GradedModel(weights, numerator,
                       classify_shape(weights, numerator), tuple(sorted(seeded)))


class TestPrefixPasses:
    @pytest.mark.parametrize("cutoff", [2, 16, 60, 200])
    def test_match_full_series_passes(self, cutoff):
        for c in enumerate_candidates(cutoff):
            assert corrected_inference(c) == full_series_inference(c), c

    def test_deep_first_relation_doubles_the_prefix(self, monkeypatch):
        # X38 in P(2,3,5,11,19) meets its first relation at degree 38:
        # the prefixes to 8, 16 and 32 run out, the one to 60 holds it.
        lengths = []
        greedy = graded_rings._greedy

        def recording(prefixes, seeded):
            def reader():
                for series in prefixes:
                    lengths.append(len(series))
                    yield series
            return greedy(reader(), seeded)

        monkeypatch.setattr(graded_rings, "_greedy", recording)
        model = corrected_inference(candidate(parse_basket("3/1,5/1,11/3"), -2))
        assert lengths == [9, 17, 33, 61]
        assert model.weights == (2, 3, 5, 11, 19)

    def test_longer_prefix_extends_the_product(self, monkeypatch):
        # each longer prefix is multiplied by the weights already read,
        # once, and the pass goes on from where the shorter one ran out
        products = []

        def recording(series, weights):
            products.append((len(series), tuple(weights)))
            return series_times_weights(series, weights)

        monkeypatch.setattr(graded_rings, "series_times_weights", recording)
        corrected_inference(candidate(parse_basket("3/1,5/1,11/3"), -2))
        assert products == [
            (9, ()), (17, (2, 3, 5)), (33, (2, 3, 5, 11)),
            (61, (2, 3, 5, 11, 19)),
        ]

    @pytest.mark.parametrize("cutoff", [2, 60, 200])
    def test_one_greedy_pass_per_model(self, cutoff, monkeypatch):
        # seeding rounds are arithmetic on the one unseeded pass
        passes = []
        greedy = graded_rings._greedy

        def recording(prefixes, seeded):
            passes.append(tuple(seeded))
            return greedy(prefixes, seeded)

        cands = enumerate_candidates(cutoff)
        monkeypatch.setattr(graded_rings, "_greedy", recording)
        for c in cands:
            corrected_inference(c)
        assert passes == [()] * 1492

    @pytest.mark.parametrize("cutoff", [2, 16, 60, 200])
    def test_series_is_read_again_only_past_its_end(self, cutoff, monkeypatch):
        # At the default cutoff only the 13 numerators whose half
        # Gorenstein degree lies past 60 read the series again, all of
        # K3-obstructed candidates, so `histogram --by codim` reads none;
        # a shorter series is read again at most once per candidate, plus
        # once for each of those 13 numerators.
        reads = []

        def recording(basket, genus, cutoff):
            reads.append((basket, genus))
            return hilbert_series(basket, genus, cutoff)

        cands = enumerate_candidates(cutoff)
        monkeypatch.setattr(graded_rings, "hilbert_series", recording)
        for c in cands:
            corrected_inference(c)
        obstructed = {(c.basket, c.genus) for c in cands if c.k3_obstructed}
        if cutoff == 60:
            assert len(reads) == 13
            assert set(reads) <= obstructed
        elif cutoff == 200:
            assert reads == []
        else:
            assert len(reads) <= 1492 + 13


class TestFormats:
    def test_ci_numerator(self):
        assert ci_numerator(()) == (1,)
        assert ci_numerator((38,)) == (1,) + (0,) * 37 + (-1,)
        assert ci_numerator((4, 6)) == poly_mul(one_minus_t(4), one_minus_t(6))

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
        numerator = poly_mul(one_minus_t(4), one_minus_t(4))
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
        model = corrected_inference(candidate(parse_basket("11/2"), -1))
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
        # ROADMAP items 2 (section-aware seeding) and 3 (the codim-4
        # format) change these counts by design.
        assert Counter(m.shape for _, m in models) == {
            CODIM_GE4: 1391, UNKNOWN: 64, CODIM2_CI: 26, HYPERSURFACE: 8,
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

    def test_pairs_past_the_degree_cap_are_certified(self, candidates):
        # inspect also answers for pairs past the degree cap: their greedy
        # passes meet a relation by the default cutoff, and the numerator
        # completed by Gorenstein symmetry is the series' own
        top_genus = {}
        for c in candidates:
            top_genus[c.basket] = max(c.genus, top_genus.get(c.basket, -2))
        pairs = sorted(top_genus.items(), key=lambda bg: str(bg[0]))[::5]
        for basket, genus in pairs:
            for g in (genus + 1, genus + 10):
                m = corrected_inference(candidate(basket, g))
                top = sum(m.weights) - 2
                assert poly_degree(m.numerator) == top
                cut = max(top, 60) + 1
                form = RationalForm(m.numerator, m.weights)
                assert expand(form, cut) == hilbert_series(basket, g, cut), (
                    basket, g)


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
            numerator = (1,)
            for d in degrees:
                numerator = poly_mul(numerator, one_minus_t(d))
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
        c = candidate(parse_basket("2x3/1,5/1"), -1)
        series = c.series
        direct = RationalForm((1,) + (0,) * 17 + (-1,), (1, 2, 3, 5, 9))
        ci_presentation = RationalForm(
            poly_mul(one_minus_t(6), one_minus_t(18)), (1, 2, 3, 5, 6, 9)
        )
        assert expand(direct, 60) == expand(ci_presentation, 60) == series
        model = corrected_inference(c)
        assert model.weights == (1, 2, 3, 5, 9)
        assert model.shape == HYPERSURFACE
        assert model.codim == 1
