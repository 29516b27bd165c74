"""Exact enumeration and graded-ring analysis of the candidate Hilbert
series of Fano 3-folds polarised by -K = 2A."""

from .basket import (
    Basket,
    BasketParseError,
    EvenIndexError,
    InvalidSingularityError,
    NotCoprimeError,
    SingularityType,
    ZeroWeightError,
    enumerate_baskets,
    normalize,
    parse_basket,
    singularity_universe,
)
from .classify import (
    Candidate,
    K3_RANK_BOUND,
    anticanonical_sections,
    candidate,
    candidate_record,
    distinct_series_count,
    enumerate_candidates,
    genus_histogram,
)
from .graded_rings import (
    CODIM2_CI,
    CODIM3_PFAFFIAN,
    CODIM_GE4,
    GradedModel,
    HYPERSURFACE,
    UNKNOWN,
    classify_shape,
    corrected_inference,
    infer_generators,
    polarization_gaps,
)
from .riemann_roch import (
    BasketBoundError,
    FANO_INDEX,
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
from .series import (
    CutoffTooSmallError,
    DEFAULT_CUTOFF,
    NonIntegerSeriesError,
    RationalForm,
    WrongPoleOrderError,
    degree_from_form,
    expand,
    numerator_wrt_weights,
    palindromy_sign,
    poly_str,
)
from .tables import (
    CheckReport,
    FixtureIntegrityError,
    TableEntry,
    load_table_entries,
    verify_all,
    verify_table_entry,
)

__version__ = "0.1.0"
