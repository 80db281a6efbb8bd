"""Finite frame analysis toolkit.

Frame operators and bounds, canonical tight/dual transforms, basis-quality
constants, certified subset extraction, and generators for the construction
gallery, with a CLI front end (``framekit``).
"""

from .core import (
    DEFAULT_TOLERANCE,
    CountingSlacks,
    DualReconstruction,
    FrameReport,
    OperatorPower,
    VectorSystem,
    analysis_apply,
    canonical_dual_reconstruct,
    check_counting_lemmas,
    coverage_target,
    frame_bounds,
    frame_operator,
    frame_report,
    power_transform,
    synthesis_apply,
)
from .errors import (
    BadParameter,
    BadTarget,
    CountMismatch,
    DimensionMismatch,
    EmptyInput,
    FramekitError,
    GuaranteeEmpty,
    InfeasibleDelta,
    NotFlat,
    NotSeparated,
    NotSpanning,
    QuadratureFailure,
    SchemaError,
    TooFewVectors,
    TooLarge,
    ZeroNorm,
)
from .extraction import (
    BoundCertificate,
    ExtractionRound,
    ExtractionTrace,
    bound_certificate,
    default_delta,
    extract_biorthogonal,
    extract_frame,
    theoretical_bound,
)
from .gallery import (
    GALLERY_KINDS,
    GallerySpec,
    PatternAudit,
    assemble_block_system,
    audit_prop53,
    build_lemma52_block,
    build_prop53_truncation,
    duplicated,
    find_flat_vector,
    generate,
    lemma51,
    lemma52_block,
    orthonormal,
    perturbed_pairs,
    prop53_truncation,
    random_frame,
    weight_fourier_integrals,
    weighted_exponential_gram,
    weighted_exponentials,
)
from .metrics import (
    BasisMetrics,
    basis_metrics,
    equivalence_constant,
    hilbertian_besselian,
    riesz_constant,
    schauder_basis_constant,
    separation_constant,
    singular_values,
    smallest_singular_value,
)
from .selection import (
    SelectionResult,
    bt_guarantee_size,
    select_exhaustive,
    select_greedy,
)

__version__ = "0.1.0"
