"""nakanoseq: Nakano (variable-exponent) sequence spaces, Luxemburg norms,
and certified classification of inclusion operators."""

from .dsl import parse_expression, print_expression
from .errors import (
    HorizonExhausted,
    InternalInconsistency,
    NakanoError,
    NormComputationError,
    ParseError,
    PreconditionError,
    SemanticError,
)
from .exponents import (
    AbsDiff,
    BlockRepeat,
    Const,
    ExponentSequence,
    Linear,
    Merge,
    NakanoExponent,
    Prefix,
    RationalDrift,
    Recip,
    RnOf,
    Sum,
    block_end,
    block_start,
    block_value,
)
from ._asymptotics import (
    AsymptoticProfile,
    Bounds,
    GapKind,
    GapResult,
    liminf_abs_gap,
    profile,
    signed_liminf_gap,
)
from .indexsets import All, Complement, Evens, IndexSet, Odds, Thinned, complement
from .vectors import (
    DEFAULT_REL_TOL,
    NormResult,
    SparseVector,
    basis_vector,
    in_unit_ball,
    luxemburg_norm,
    modular,
)
from .series import (
    AlphaCertificate,
    BranchCertificates,
    DivergenceByTerms,
    GeometricComparison,
    NumericProbe,
    PSeriesComparison,
    decide_convergence,
    divergence_horizon,
    exists_alpha,
    one_in_lrn,
    partial_sum,
)
from .criteria import (
    InclusionReport,
    SpaceProfile,
    compactness_suite,
    full_report,
    inclusion_holds,
    space_profile,
    spaces_equal,
    strictly_singular,
    weakly_compact,
)
from .witness import (
    RatioProfile,
    WitnessSubsequence,
    equality_witness,
    linf_witness,
    ratio_decay_profile,
)
from .verdicts import (
    Answer,
    CANONICAL_BASIS_REMARK,
    CITATION_ANCHORS,
    INCLUSION_TEST,
    LINF_COPY,
    NAKANO_LEMMA,
    NOT_APPLICABLE,
    SEPARABILITY_REMARK,
    SS_BOUNDED,
    SS_UNBOUNDED_SOURCE,
    SS_UNBOUNDED_TARGET,
    Verdict,
    WEAK_COMPACTNESS,
)

__version__ = "0.1.0"
