"""Private information retrieval over MDS-coded storage.

Five scheme variants share one pipeline: build a deterministic query
plan, encode a database onto the servers, run a session under a
configurable adversary, reconstruct the desired files exactly, and audit
the plan's rate and rank-level privacy with exact rational arithmetic.
"""

from .decode import (
    DecodeError,
    DecodingFailure,
    MissingResponses,
    RecoveredAtoms,
    reconstruct,
    recovered_atoms,
)
from .gf import (
    DEFAULT_MODULUS,
    Factored,
    FieldError,
    FieldRng,
    NoSolution,
    derive_seed,
    mat_mul,
    mat_rank,
    sample_invertible,
)
from .patterns import (
    BlockFamily,
    CollusionPattern,
    FamilyEval,
    Infeasible,
    PatternError,
    family_eval,
    family_from_json,
    optimize_family,
    pattern_from_json,
)
from .plans import (
    AlphaBeta,
    AssistingArray,
    Block,
    Chunk,
    FieldTooSmall,
    Group,
    InfeasibleRatio,
    Layout,
    PreconditionViolated,
    Query,
    QueryPlan,
    SchemeError,
    SchemeParams,
    Variant,
    build_assisting_array,
    build_plan,
    compute_alpha_beta,
    derive_layout,
    plan_from_json,
    plan_to_json,
    validate_plan,
)
from .rates import (
    NaiveComparison,
    PrivacyAudit,
    RateReport,
    achieved_rate,
    audit_report,
    closed_form_rate,
    collusion_view_ranks,
    full_privacy_sweep,
    inverse_geometric_sum,
    multifile_capacity_bound,
    naive_comparison,
    rate_report,
)
from .rs import (
    CodingError,
    InvalidShape,
    NotACodeword,
    RsCode,
    TooFewKnown,
    encode,
    erasure_complete,
    error_correct,
    message_from_codeword,
    recover_message,
    rs_transposed_generator,
)
from .storage import (
    Adversary,
    Database,
    ShapeMismatch,
    StorageError,
    Transcript,
    database_for_plan,
    database_from_json,
    database_to_json,
    encode_database,
    random_database,
    run_session,
)

__all__ = [name for name in dir() if not name.startswith("_")]
